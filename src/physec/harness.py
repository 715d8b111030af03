"""Declarative Monte-Carlo experiments over the whole pipeline.

An experiment is a JSON document: a channel (or a measured trace file), a
loss model, a quantizer, a reconciliation code, an amplification length, a
PLE scheme stack, exactly one sweep axis, and a trial count. Per-trial seeds
derive deterministically from the master seed, the sweep index and the trial
index, so reports are byte-identical regardless of execution order or
parallelism degree, and per-trial failures are recorded as data rather than
aborting the run.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bits import BitKey, bit_fraction_differing
from .blockcode import LinearBlockCode, code_by_id
from .channel import ChannelParams, generate_trace
from .distill import (
    amplify,
    monobit_test,
    recover,
    runs_test,
    sketch,
    syndrome_bits_leaked,
)
from .errors import ConfigError, ParameterError, PhysecError
from .keystream import KeystreamSeed
from .ofdm import (
    DOMAIN_TIME,
    OfdmConfig,
    SymbolFrame,
    awgn_link,
    ebn0_db_to_snr_db,
    wifi_like_config,
)
from .ple import (
    SCHEME_ORDER,
    SCHEME_PHASE,
    PhaseEncryptConfig,
    PleCodec,
    key_to_data_ratio,
)
from .probing import (
    LossModel,
    ProbeRecord,
    align_timestamps,
    apply_loss,
    paired_base_times,
)
from .quantize import (
    CdfConfig,
    MeanSigmaConfig,
    QuantizationOutcome,
    intersect_kept_indices,
    quantize_cdf,
    quantize_mean_sigma,
)

METRIC_NAMES = (
    "kdr",
    "eve_kdr",
    "reconcile_failure_rate",
    "key_agreement_rate",
    "key_generation_rate",
    "monobit_pass_rate",
    "runs_pass_rate",
    "bob_ber",
    "eve_ber",
    "key_to_data_ratio",
)

CSV_COLUMNS = (
    "scenario",
    "sweep_parameter",
    "sweep_value",
    "metric",
    "mean",
    "stderr",
    "count",
)

_DEFAULTS = {
    "scenario": "unnamed",
    "channel": {
        "temporal_correlation": 0.99,
        "sampling_delay": 1.0,
        "snr_db": 30.0,
        "eve_correlation": 0.0,
        "n_probes": 600,
    },
    "trace_file": None,
    "loss": {"loss_probability": 0.0},
    "quantizer": {"algorithm": "mean_sigma", "alpha": 0.5},
    "code_id": "hamming74",
    "amplify_out_len": 128,
    "ple": {
        "schemes": ["xor"],
        "ofdm": "wifi64",
        "phase": {"bits_per_angle": 2, "noise_enabled": False, "noise_scale": 0.0},
        "ebn0_db": 8.0,
        "ber_bits": 4800,
    },
    "sweep": {"parameter": "channel.snr_db", "values": [30.0]},
    "trials": 20,
    "master_seed": 0,
}


def _merge_defaults(raw: dict) -> dict:
    merged = copy.deepcopy(_DEFAULTS)

    def merge(dst, src, path):
        for key, value in src.items():
            if isinstance(value, dict) and isinstance(dst.get(key), dict):
                merge(dst[key], value, path + (key,))
            else:
                dst[key] = copy.deepcopy(value)

    merge(merged, raw, ())
    return merged


def _walk(cfg: dict, dotted: str):
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise KeyError(dotted)
    return node, parts[-1]


def _apply_sweep(raw: dict, parameter: str, value) -> dict:
    cfg = copy.deepcopy(raw)
    node, leaf = _walk(cfg, parameter)
    node[leaf] = value
    return cfg


def _validate_point(cfg: dict) -> list[str]:
    """Violations of everything except the sweep section."""
    out: list[str] = []
    if not isinstance(cfg["scenario"], str) or not cfg["scenario"]:
        out.append("scenario must be a nonempty string")
    if not isinstance(cfg["trials"], int) or cfg["trials"] < 1:
        out.append("trials must be an integer >= 1")
    if not isinstance(cfg["master_seed"], int):
        out.append("master_seed must be an integer")

    trace_file = cfg["trace_file"]
    if trace_file is not None:
        if not isinstance(trace_file, str):
            out.append("trace_file must be a string path or null")
        elif not os.path.exists(trace_file):
            out.append(f"trace_file {trace_file!r} does not exist")
        if cfg["loss"].get("loss_probability", 0.0):
            out.append("loss model does not apply to trace files")
    try:
        _channel_params(cfg, rng_seed=0)
    except (PhysecError, TypeError) as exc:
        out.append(f"channel: {exc}")

    loss_p = cfg["loss"].get("loss_probability", 0.0)
    if not isinstance(loss_p, (int, float)) or not 0.0 <= loss_p < 1.0:
        out.append("loss.loss_probability must be in [0, 1)")

    try:
        _quantizer_cfg(cfg["quantizer"])
    except (PhysecError, TypeError, KeyError) as exc:
        out.append(f"quantizer: {exc}")

    try:
        code_by_id(cfg["code_id"])
    except PhysecError as exc:
        out.append(str(exc))

    if not isinstance(cfg["amplify_out_len"], int) or cfg["amplify_out_len"] < 1:
        out.append("amplify_out_len must be an integer >= 1")

    ple = cfg["ple"]
    schemes = ple.get("schemes", [])
    if not isinstance(schemes, list):
        out.append("ple.schemes must be a list")
    else:
        out.extend(
            f"unknown ple scheme {s!r}" for s in schemes if s not in SCHEME_ORDER
        )
        if len(set(schemes)) != len(schemes):
            out.append("ple.schemes contains duplicates")
    ofdm_cfg = phase_cfg = None
    try:
        ofdm_cfg = _ofdm_cfg(ple)
    except (PhysecError, TypeError) as exc:
        out.append(f"ple.ofdm: {exc}")
    try:
        phase_cfg = _phase_cfg(ple)
    except (PhysecError, TypeError) as exc:
        out.append(f"ple.phase: {exc}")
    if (
        ofdm_cfg is not None
        and phase_cfg is not None
        and isinstance(schemes, list)
        and SCHEME_PHASE in schemes
    ):
        try:
            phase_cfg.check_mapping(ofdm_cfg.mapping)
        except ParameterError as exc:
            out.append(f"ple.phase: {exc}")
    ebn0 = ple.get("ebn0_db")
    if not isinstance(ebn0, (int, float)) or (
        isinstance(ebn0, float) and math.isnan(ebn0)
    ):
        out.append("ple.ebn0_db must be a number")
    ber_bits = ple.get("ber_bits")
    if not isinstance(ber_bits, int) or ber_bits < 0:
        out.append("ple.ber_bits must be an integer >= 0")
    return out


def validate_config(raw) -> list[str]:
    """Schema check; returns every violation found, empty when valid."""
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    out: list[str] = []
    known = set(_DEFAULTS)
    out.extend(f"unknown top-level field {k!r}" for k in raw if k not in known)
    cfg = _merge_defaults(raw)
    out.extend(_validate_point(cfg))

    sweep = cfg["sweep"]
    if not isinstance(sweep, dict):
        out.append("sweep must be a single object naming one parameter")
        return out
    extra = set(sweep) - {"parameter", "values"}
    out.extend(f"unknown sweep field {k!r}" for k in sorted(extra))
    param = sweep.get("parameter")
    values = sweep.get("values")
    param_ok = isinstance(param, str)
    if param_ok:
        try:
            _walk(cfg, param)
        except KeyError:
            out.append(f"sweep.parameter {param!r} is not a config path")
            param_ok = False
        if param == "sweep" or param.startswith("sweep."):
            out.append("sweep.parameter cannot target the sweep itself")
            param_ok = False
        if cfg["trace_file"] is not None and param.startswith("channel."):
            out.append("cannot sweep channel parameters of a trace file")
    else:
        out.append("sweep.parameter must be a dotted config path")
    if not isinstance(values, list) or not values:
        out.append("sweep.values must be a nonempty list")
    elif param_ok:
        for value in values:
            point = _apply_sweep(cfg, param, value)
            for violation in _validate_point(point):
                message = f"sweep value {value!r}: {violation}"
                if violation not in out and message not in out:
                    out.append(message)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical JSON hash."""

    raw: dict
    config_hash: str

    @property
    def scenario(self) -> str:
        return self.raw["scenario"]

    @property
    def sweep_parameter(self) -> str:
        return self.raw["sweep"]["parameter"]

    @property
    def sweep_values(self) -> list:
        return list(self.raw["sweep"]["values"])

    @property
    def trials(self) -> int:
        return self.raw["trials"]

    @property
    def master_seed(self) -> int:
        return self.raw["master_seed"]


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()


def config_from_dict(raw: dict, master_seed: int | None = None) -> ExperimentConfig:
    violations = validate_config(raw)
    if violations:
        raise ConfigError(violations)
    config_hash = hashlib.sha256(canonical_json_bytes(raw)).hexdigest()
    merged = _merge_defaults(raw)
    if master_seed is not None:
        merged["master_seed"] = int(master_seed)
    return ExperimentConfig(raw=merged, config_hash=config_hash)


def load_config(path: str, master_seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment file.

    The embedded hash is the SHA-256 of the file's canonical JSON (sorted
    keys, compact separators), so it can be recomputed independently of
    formatting. All schema violations are reported in one ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    return config_from_dict(raw, master_seed=master_seed)


def _channel_params(cfg: dict, rng_seed: int) -> ChannelParams:
    ch = cfg["channel"]
    return ChannelParams(
        temporal_correlation=ch["temporal_correlation"],
        sampling_delay=ch["sampling_delay"],
        snr_db=ch["snr_db"],
        eve_correlation=ch["eve_correlation"],
        n_probes=ch["n_probes"],
        rng_seed=rng_seed,
    )


def _quantizer_cfg(qcfg: dict):
    algorithm = qcfg.get("algorithm")
    if algorithm == "mean_sigma":
        return "mean_sigma", MeanSigmaConfig(alpha=qcfg.get("alpha", 0.5))
    if algorithm == "cdf":
        return "cdf", CdfConfig(quantization_level=qcfg.get("quantization_level", 1))
    raise ParameterError(f"unknown quantizer algorithm {algorithm!r}")


def _ofdm_cfg(ple: dict) -> OfdmConfig:
    ofdm = ple.get("ofdm", "wifi64")
    if ofdm == "wifi64":
        return wifi_like_config()
    if isinstance(ofdm, dict):
        return OfdmConfig(
            n_fft=ofdm.get("n_fft", 64),
            cp_len=ofdm.get("cp_len", 16),
            data_carriers=tuple(ofdm.get("data_carriers", ())),
            dummy_carriers=tuple(ofdm.get("dummy_carriers", ())),
            mapping=ofdm.get("mapping", "qpsk"),
        )
    raise ParameterError("ple.ofdm must be \"wifi64\" or an object")


def _phase_cfg(ple: dict) -> PhaseEncryptConfig:
    ph = ple.get("phase", {})
    return PhaseEncryptConfig(
        bits_per_angle=ph.get("bits_per_angle", 2),
        noise_enabled=ph.get("noise_enabled", False),
        noise_scale=ph.get("noise_scale", 0.0),
    )


def _quantize_outcome(x, kind, qcfg) -> QuantizationOutcome:
    if kind == "mean_sigma":
        return quantize_mean_sigma(x, qcfg)
    key = quantize_cdf(x, qcfg)
    return QuantizationOutcome(
        key, np.arange(len(x)), bits_per_sample=qcfg.quantization_level
    )


@dataclass
class KeyGenResult:
    """Everything one key-generation trial produced (NaN = not computable)."""

    kdr: float = math.nan
    eve_kdr: float = math.nan
    reconcile_failed: bool = False
    agreed: bool = False
    alice_key: BitKey | None = None
    bob_key: BitKey | None = None
    eve_key: BitKey | None = None
    error: str | None = None


def key_generation_trial(
    x_a,
    x_b,
    quantizer_kind: str,
    quantizer_cfg,
    code: LinearBlockCode,
    out_len: int,
    sketch_seed: int,
    salt: bytes,
    x_e=None,
) -> KeyGenResult:
    """Quantize, reconcile and amplify one aligned measurement pair.

    Keys are truncated to a whole number of code blocks before sketching.
    An eavesdropper observation vector, when given, is distilled the same
    way, including the attempt to exploit the public sketch.
    """
    result = KeyGenResult()
    try:
        outcome_a = _quantize_outcome(x_a, quantizer_kind, quantizer_cfg)
        outcome_b = _quantize_outcome(x_b, quantizer_kind, quantizer_cfg)
    except PhysecError as exc:
        result.error = f"quantization: {exc}"
        return result
    bits_a, common = intersect_kept_indices(outcome_a, outcome_b.kept_indices)
    bits_b, _ = intersect_kept_indices(outcome_b, outcome_a.kept_indices)
    if len(bits_a) == 0:
        result.error = "no common kept indices"
        return result
    result.kdr = bit_fraction_differing(bits_a.bits, bits_b.bits)

    n_blocks = len(bits_a) // code.n_code
    if n_blocks == 0:
        result.error = "fewer common bits than one code block"
        return result
    usable = n_blocks * code.n_code
    k_a = BitKey(bits_a.bits[:usable])
    k_b = BitKey(bits_b.bits[:usable])
    leaked = syndrome_bits_leaked(code, n_blocks)
    sk = sketch(k_a, code, sketch_seed)
    try:
        result.alice_key = amplify(k_a, leaked, out_len, salt)
    except PhysecError as exc:
        result.error = f"amplify: {exc}"
        return result
    try:
        k_b_rec = recover(k_b, sk, code)
        result.bob_key = amplify(k_b_rec, leaked, out_len, salt)
        result.agreed = result.bob_key == result.alice_key
    except PhysecError as exc:
        result.reconcile_failed = True
        result.error = f"reconcile: {exc}"

    if x_e is not None:
        result.eve_kdr, result.eve_key = _eve_distillation(
            x_e,
            quantizer_kind,
            quantizer_cfg,
            outcome_a,
            common,
            bits_a,
            usable,
            sk,
            code,
            leaked,
            out_len,
            salt,
        )
    return result


def _eve_distillation(
    x_e,
    quantizer_kind,
    quantizer_cfg,
    outcome_a,
    common,
    bits_a,
    usable,
    sk,
    code,
    leaked,
    out_len,
    salt,
):
    """Eve's best effort: same quantizer, public kept lists, public sketch."""
    try:
        outcome_e = _quantize_outcome(x_e, quantizer_kind, quantizer_cfg)
    except PhysecError:
        return math.nan, None
    common_e = np.intersect1d(common, outcome_e.kept_indices)
    eve_kdr = math.nan
    if common_e.size:
        alice_at_e, _ = intersect_kept_indices(outcome_a, common_e)
        eve_at_e, _ = intersect_kept_indices(outcome_e, common_e)
        eve_kdr = bit_fraction_differing(alice_at_e.bits, eve_at_e.bits)
    # align Eve's bits to the legit common index list, zero-filling her drops
    bps = outcome_e.bits_per_sample
    eve_bits = np.zeros(common.size * bps, dtype=np.uint8)
    eve_grid = eve_bits.reshape(common.size, bps)
    pos = {int(idx): i for i, idx in enumerate(outcome_e.kept_indices)}
    eve_source = outcome_e.bits.bits.reshape(-1, bps)
    for row, idx in enumerate(common):
        src = pos.get(int(idx))
        if src is not None:
            eve_grid[row] = eve_source[src]
    eve_key = None
    if usable:
        k_e = BitKey(eve_bits[:usable])
        try:
            k_e_rec = recover(k_e, sk, code)
            eve_key = amplify(k_e_rec, leaked, out_len, salt)
        except PhysecError:
            try:
                eve_key = amplify(k_e, leaked, out_len, salt)
            except PhysecError:
                eve_key = None
    return eve_kdr, eve_key


def _ber_trial(
    alice_key: BitKey,
    bob_key: BitKey | None,
    eve_key: BitKey | None,
    raw_point: dict,
    ber_seed: int,
) -> tuple[float, float]:
    """BER of Bob's and Eve's receivers, each decrypting with its own key.

    Alice encrypts with her final key; both receivers see the same noisy
    transmission (AWGN at the configured Eb/N0). A receiver without a key
    (failed reconciliation, no eavesdropper data) yields NaN.
    """
    ple = raw_point["ple"]
    ber_bits = ple["ber_bits"]
    if ber_bits == 0:
        return math.nan, math.nan
    cfg = _ofdm_cfg(ple)
    phase_cfg = _phase_cfg(ple)
    schemes = ple["schemes"]
    snr_db = ebn0_db_to_snr_db(ple["ebn0_db"], cfg.mapping)
    alice = PleCodec(cfg, schemes, KeystreamSeed(alice_key), phase_cfg)
    receivers = {}
    if bob_key is not None:
        receivers["bob"] = PleCodec(cfg, schemes, KeystreamSeed(bob_key), phase_cfg)
    if eve_key is not None:
        receivers["eve"] = PleCodec(cfg, schemes, KeystreamSeed(eve_key), phase_cfg)
    n_frames = -(-ber_bits // cfg.payload_bits)
    rng = np.random.default_rng(ber_seed)
    payloads = np.empty((n_frames, cfg.payload_bits), dtype=np.uint8)
    noise_seeds = []
    for payload in payloads:
        payload[:] = rng.integers(0, 2, cfg.payload_bits, dtype=np.uint8)
        noise_seeds.append(int(rng.integers(1 << 62)))
    frame_indices = np.arange(n_frames)
    tx = alice.encrypt_batch(payloads, frame_indices)
    # each frame gets awgn_link's noise draw from that frame's own seed
    rx = np.empty_like(tx)
    for row, (samples, seed) in enumerate(zip(tx, noise_seeds)):
        frame = SymbolFrame(samples, DOMAIN_TIME, cfg, has_cp=True)
        rx[row] = awgn_link(frame, snr_db, seed).data
    total = n_frames * cfg.payload_bits
    ber = {
        name: int(np.count_nonzero(codec.decrypt_batch(rx, frame_indices) != payloads))
        / total
        for name, codec in receivers.items()
    }
    return ber.get("bob", math.nan), ber.get("eve", math.nan)


def run_single_trial(raw_point: dict, sweep_index: int, trial_index: int) -> dict:
    """One Monte-Carlo trial; returns metric values plus an optional error."""
    seed_seq = np.random.SeedSequence(
        (raw_point["master_seed"], sweep_index, trial_index)
    )
    state = seed_seq.generate_state(16)
    channel_seed = int(state[0])
    loss_seed = int(state[1])
    sketch_seed = int(state[2])
    ber_seed = int(state[3])
    salt = state[8:16].tobytes()

    metrics = {name: math.nan for name in METRIC_NAMES}
    ple = raw_point["ple"]
    metrics["key_to_data_ratio"] = key_to_data_ratio(
        ple["schemes"], _ofdm_cfg(ple), _phase_cfg(ple)
    )

    quantizer_kind, quantizer_cfg = _quantizer_cfg(raw_point["quantizer"])
    code = code_by_id(raw_point["code_id"])
    out_len = raw_point["amplify_out_len"]

    if raw_point["trace_file"] is not None:
        x_a, x_b = load_trace_csv(raw_point["trace_file"])
        x_e = None
        n_probes = max(len(x_a), 1)
    else:
        params = _channel_params(raw_point, rng_seed=channel_seed)
        trace = generate_trace(params)
        loss = LossModel(
            loss_probability=raw_point["loss"]["loss_probability"],
            rng_seed=loss_seed,
        )
        alice_rec, bob_rec = apply_loss(trace, loss)
        x_a, x_b = align_timestamps(alice_rec, bob_rec, params.sampling_delay)
        base = paired_base_times(alice_rec, bob_rec, params.sampling_delay)
        x_e = trace.x_e[base.astype(np.intp)]
        n_probes = params.n_probes

    result = key_generation_trial(
        x_a,
        x_b,
        quantizer_kind,
        quantizer_cfg,
        code,
        out_len,
        sketch_seed,
        salt,
        x_e=x_e,
    )
    metrics["kdr"] = result.kdr
    metrics["eve_kdr"] = result.eve_kdr
    metrics["reconcile_failure_rate"] = float(result.reconcile_failed)
    metrics["key_agreement_rate"] = float(result.agreed)
    metrics["key_generation_rate"] = out_len * float(result.agreed) / n_probes
    if result.alice_key is not None:
        try:
            metrics["monobit_pass_rate"] = float(
                monobit_test(result.alice_key.bits).passed
            )
        except ParameterError:
            pass
        runs = runs_test(result.alice_key.bits)
        if runs.applicable:
            metrics["runs_pass_rate"] = float(runs.passed)
        try:
            metrics["bob_ber"], metrics["eve_ber"] = _ber_trial(
                result.alice_key,
                result.bob_key,
                result.eve_key,
                raw_point,
                ber_seed,
            )
        except PhysecError as exc:
            result.error = result.error or f"ple: {exc}"
    return {"metrics": metrics, "error": result.error}


def _trial_worker(payload) -> tuple[int, int, dict]:
    raw_json, sweep_index, trial_index = payload
    raw_point = json.loads(raw_json)
    return sweep_index, trial_index, run_single_trial(
        raw_point, sweep_index, trial_index
    )


@dataclass
class MetricsReport:
    """Aggregated experiment output: one entry per sweep value."""

    scenario: str
    sweep_parameter: str
    config: dict
    config_hash: str
    seed: int
    results: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "sweep_parameter": self.sweep_parameter,
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "results": self.results,
        }


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    finite = arr[~np.isnan(arr)]
    count = int(finite.size)
    if count == 0:
        return {"mean": None, "stderr": None, "count": 0}
    mean = float(finite.mean())
    stderr = (
        float(finite.std(ddof=1) / math.sqrt(count)) if count > 1 else None
    )
    return {"mean": mean, "stderr": stderr, "count": count}


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> MetricsReport:
    """Execute every (sweep value, trial) cell and aggregate per sweep value.

    Rates are means of per-trial indicator variables and always land in
    [0, 1]; numeric metrics carry a standard error when at least two trials
    produced a value. Per-trial module errors are tallied per sweep point.
    """
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    raw = config.raw
    points = [
        _apply_sweep(raw, config.sweep_parameter, value)
        for value in config.sweep_values
    ]
    tasks = [
        (canonical_json_bytes(point).decode(), sweep_index, trial_index)
        for sweep_index, point in enumerate(points)
        for trial_index in range(config.trials)
    ]
    cells: dict[tuple[int, int], dict] = {}
    if jobs == 1:
        for payload in tasks:
            sweep_index, trial_index, outcome = _trial_worker(payload)
            cells[(sweep_index, trial_index)] = outcome
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for sweep_index, trial_index, outcome in pool.map(_trial_worker, tasks):
                cells[(sweep_index, trial_index)] = outcome

    report = MetricsReport(
        scenario=config.scenario,
        sweep_parameter=config.sweep_parameter,
        config=raw,
        config_hash=config.config_hash,
        seed=config.master_seed,
    )
    for sweep_index, value in enumerate(config.sweep_values):
        outcomes = [cells[(sweep_index, t)] for t in range(config.trials)]
        metrics = {
            name: _aggregate([o["metrics"][name] for o in outcomes])
            for name in METRIC_NAMES
        }
        errors: dict[str, int] = {}
        for o in outcomes:
            if o["error"]:
                errors[o["error"]] = errors.get(o["error"], 0) + 1
        report.results.append(
            {
                "sweep_value": value,
                "trials": config.trials,
                "metrics": metrics,
                "errors": dict(sorted(errors.items())),
            }
        )
    return report


def report_json_bytes(report: MetricsReport) -> bytes:
    return canonical_json_bytes(report.to_dict()) + b"\n"


def report_csv_text(report: MetricsReport) -> str:
    """One row per (sweep value, metric); columns as in CSV_COLUMNS."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for entry in report.results:
        for name in METRIC_NAMES:
            agg = entry["metrics"][name]
            writer.writerow(
                [
                    report.scenario,
                    report.sweep_parameter,
                    entry["sweep_value"],
                    name,
                    "" if agg["mean"] is None else repr(agg["mean"]),
                    "" if agg["stderr"] is None else repr(agg["stderr"]),
                    agg["count"],
                ]
            )
    return buf.getvalue()


def emit_report(report: MetricsReport, fmt: str, path: str) -> None:
    """Write the report as json or csv; identical inputs give identical bytes."""
    if fmt == "json":
        data = report_json_bytes(report)
    elif fmt == "csv":
        data = report_csv_text(report).encode()
    else:
        raise ParameterError(f"unknown report format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(data)


TRACE_HEADER = ("timestamp_a", "rss_a", "timestamp_b", "rss_b")


def read_trace_records(path: str):
    """Parse a trace file into per-side ProbeRecord lists (no alignment).

    Format: header ``timestamp_a,rss_a,timestamp_b,rss_b``; each row is one
    probing round; an empty timestamp/value pair marks a lost probe on that
    side.
    """
    alice: list[ProbeRecord] = []
    bob: list[ProbeRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParameterError(f"{path}: empty trace file") from None
        if tuple(h.strip() for h in header) != TRACE_HEADER:
            raise ParameterError(
                f"{path}: header must be {','.join(TRACE_HEADER)}"
            )
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ParameterError(f"{path}:{row_no}: expected 4 cells")
            cells = [c.strip() for c in row]
            for side, (t_cell, v_cell), records in (
                ("a", (cells[0], cells[1]), alice),
                ("b", (cells[2], cells[3]), bob),
            ):
                if (t_cell == "") != (v_cell == ""):
                    raise ParameterError(
                        f"{path}:{row_no}: half-empty {side} probe"
                    )
                if t_cell == "":
                    continue
                try:
                    records.append(ProbeRecord(float(t_cell), float(v_cell)))
                except ValueError:
                    raise ParameterError(
                        f"{path}:{row_no}: non-numeric {side} cell"
                    ) from None
    for name, records in (("alice", alice), ("bob", bob)):
        stamps = [r.timestamp for r in records]
        if len(set(stamps)) != len(stamps):
            raise ParameterError(f"{path}: duplicate {name} timestamps")
    return alice, bob


def load_trace_csv(path: str, tau: float | None = None):
    """Read a measured probing trace and align it.

    When tau is not given it is inferred from the first complete row.
    Returns the aligned measurement pair (x_a, x_b).
    """
    alice, bob = read_trace_records(path)
    if tau is None:
        tau = _infer_tau(path)
    return align_timestamps(alice, bob, tau)


def _infer_tau(path: str) -> float:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            cells = [c.strip() for c in row]
            if len(cells) == 4 and all(cells):
                return float(cells[0]) - float(cells[2])
    raise ParameterError(f"{path}: no complete row to infer tau from")
