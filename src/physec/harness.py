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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

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
    SCHEME_PHASE,
    PhaseEncryptConfig,
    PleCodec,
    _ordered_schemes,
    key_to_data_ratio,
)
from .probing import (
    LossModel,
    align_timestamps,
    apply_loss,
    match_sorted,
    paired_base_times,  # bound only for the benchmark's trace plan
    read_trace,
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(kind: str):
    return lambda v: isinstance(v, list) and all(map(_KINDS[kind], v))


# What each kind of config value accepts. A bool is never an integer or a
# number, and NaN is not a number.
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a nonempty string": lambda v: isinstance(v, str) and v != "",
    "a string or null": lambda v: v is None or isinstance(v, str),
    '"mean_sigma" or "cdf"': lambda v: v in ("mean_sigma", "cdf"),
    '"wifi64" or an object': lambda v: v == "wifi64" or isinstance(v, dict),
    "a boolean": lambda v: isinstance(v, bool),
    "an integer": _is_int,
    "an integer >= 0": lambda v: _is_int(v) and v >= 0,
    "an integer >= 1": lambda v: _is_int(v) and v >= 1,
    "a number": lambda v: _is_int(v) or isinstance(v, float) and not math.isnan(v),
    "a nonempty list": lambda v: isinstance(v, list) and v != [],
    "a list of strings": _list_of("a string"),
    "a list of integers": _list_of("an integer"),
}


@dataclass(frozen=True)
class _Leaf:
    """One config value: its kind (a key of _KINDS) and its default.

    fields is the schema of an object value. A hidden default applies where
    the key is absent but is left out of the merged config that reports
    embed.
    """

    kind: str
    default: object
    fields: dict | None = None
    hidden: bool = False


# Every config value, once. Ranges are checked by the constructors the
# values feed (ChannelParams, LossModel, MeanSigmaConfig, CdfConfig,
# code_by_id, the PLE scheme list, OfdmConfig, PhaseEncryptConfig).
_SCHEMA = {
    "scenario": _Leaf("a nonempty string", "unnamed"),
    "channel": {
        "temporal_correlation": _Leaf("a number", 0.99),
        "sampling_delay": _Leaf("a number", 1.0),
        "snr_db": _Leaf("a number", 30.0),
        "eve_correlation": _Leaf("a number", 0.0),
        "n_probes": _Leaf("an integer", 600),
    },
    "trace_file": _Leaf("a string or null", None),
    "loss": {"loss_probability": _Leaf("a number", 0.0)},
    "quantizer": {
        "algorithm": _Leaf('"mean_sigma" or "cdf"', "mean_sigma"),
        "alpha": _Leaf("a number", 0.5),
        "quantization_level": _Leaf("an integer", 1, hidden=True),
    },
    "code_id": _Leaf("a string", "hamming74"),
    "amplify_out_len": _Leaf("an integer >= 1", 128),
    "ple": {
        "schemes": _Leaf("a list of strings", ["xor"]),
        # the "wifi64" preset, or an OfdmConfig written out as an object
        "ofdm": _Leaf(
            '"wifi64" or an object',
            "wifi64",
            fields={
                "n_fft": _Leaf("an integer", 64, hidden=True),
                "cp_len": _Leaf("an integer", 16, hidden=True),
                "data_carriers": _Leaf("a list of integers", [], hidden=True),
                "dummy_carriers": _Leaf("a list of integers", [], hidden=True),
                "mapping": _Leaf("a string", "qpsk", hidden=True),
            },
        ),
        "phase": {
            "bits_per_angle": _Leaf("an integer", 2),
            "noise_enabled": _Leaf("a boolean", False),
            "noise_scale": _Leaf("a number", 0.0),
        },
        "ebn0_db": _Leaf("a number", 8.0),
        "ber_bits": _Leaf("an integer >= 0", 4800),
    },
    "sweep": {
        "parameter": _Leaf("a string", "channel.snr_db"),
        "values": _Leaf("a nonempty list", [30.0]),
    },
    "trials": _Leaf("an integer >= 1", 20),
    "master_seed": _Leaf("an integer", 0),
}


def _complete(node, spec, out: list, path: str = "", hidden: bool = True):
    """node with the defaults of spec that it lacks, hidden ones if hidden.

    Unknown keys and values of the wrong kind go to out and are dropped or
    replaced by their defaults. hidden=False gives the merged config.
    """
    if isinstance(spec, _Leaf):
        if not _KINDS[spec.kind](node):
            out.append(f"{path} must be {spec.kind}")
            return copy.deepcopy(spec.default)
        if isinstance(node, dict):
            return _complete(node, spec.fields, out, path, hidden)
        return node
    if not isinstance(node, dict):
        out.append(f"{path} must be an object")
        node = {}
    section = path or "top-level"
    out.extend(f"unknown {section} field {key!r}" for key in node if key not in spec)
    completed = {}
    for key, sub in spec.items():
        sub_path = f"{path}.{key}" if path else key
        if key in node:
            completed[key] = _complete(node[key], sub, out, sub_path, hidden)
        elif isinstance(sub, dict):
            completed[key] = _complete({}, sub, out, sub_path, hidden)
        elif hidden or not sub.hidden:
            completed[key] = copy.deepcopy(sub.default)
    return completed


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point, resolved once. trace is the (x_a, x_b) pair of
    trace_file once run_experiment has read it."""

    master_seed: int
    channel: ChannelParams
    loss: LossModel
    quantizer: MeanSigmaConfig | CdfConfig
    code: LinearBlockCode
    out_len: int
    ofdm: OfdmConfig
    schemes: tuple
    phase: PhaseEncryptConfig
    snr_db: float
    ber_bits: int
    key_to_data_ratio: float
    trace_file: str | None
    trace: tuple | None = None


def _resolve_point(cfg: dict) -> SweepPoint:
    """Build what the trials of one sweep point share. Raises ConfigError
    listing every violation, from the schema and from the constructors."""
    out: list[str] = []
    cfg = _complete(cfg, _SCHEMA, out)

    def build(section, make):
        try:
            return make()
        except PhysecError as exc:
            out.append(f"{section}: {exc}")
            return None

    trace_file = cfg["trace_file"]
    if trace_file is not None:
        if not os.path.exists(trace_file):
            out.append(f"trace_file {trace_file!r} does not exist")
        if cfg["loss"]["loss_probability"]:
            out.append("loss model does not apply to trace files")
    q, ple = cfg["quantizer"], cfg["ple"]
    channel = build("channel", lambda: ChannelParams(**cfg["channel"]))
    loss = build("loss", lambda: LossModel(**cfg["loss"]))
    if q["algorithm"] == "mean_sigma":
        quantizer = build("quantizer", lambda: MeanSigmaConfig(q["alpha"]))
    else:
        quantizer = build("quantizer", lambda: CdfConfig(q["quantization_level"]))
    code = build("code_id", lambda: code_by_id(cfg["code_id"]))
    schemes = build("ple.schemes", lambda: _ordered_schemes(ple["schemes"]))
    if ple["ofdm"] == "wifi64":
        ofdm = wifi_like_config()
    else:
        ofdm = build("ple.ofdm", lambda: OfdmConfig(**ple["ofdm"]))
    phase = build("ple.phase", lambda: PhaseEncryptConfig(**ple["phase"]))
    if ofdm and phase and SCHEME_PHASE in ple["schemes"]:
        build("ple.phase", lambda: phase.check_mapping(ofdm.mapping))
    if out:
        raise ConfigError(out)
    return SweepPoint(
        master_seed=cfg["master_seed"],
        channel=channel,
        loss=loss,
        quantizer=quantizer,
        code=code,
        out_len=cfg["amplify_out_len"],
        ofdm=ofdm,
        schemes=schemes,
        phase=phase,
        snr_db=ebn0_db_to_snr_db(ple["ebn0_db"], ofdm.mapping),
        ber_bits=ple["ber_bits"],
        key_to_data_ratio=key_to_data_ratio(schemes, ofdm, phase),
        trace_file=trace_file,
    )


def _violations(cfg: dict) -> list[str]:
    try:
        _resolve_point(cfg)
    except ConfigError as exc:
        return exc.violations
    return []


def _apply_sweep(raw: dict, parameter: str, value) -> dict:
    """A copy of raw with value at the dotted path parameter; KeyError when
    raw holds no such path."""
    cfg = copy.deepcopy(raw)
    node = cfg
    *parents, leaf = parameter.split(".")
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise KeyError(parameter)
    node[leaf] = value
    return cfg


def _non_finite(node, path: str = ""):
    """Paths of the infinite and NaN numbers in node, which JSON cannot hold."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path
    elif isinstance(node, dict):
        for key, sub in node.items():
            yield from _non_finite(sub, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            yield from _non_finite(sub, f"{path}[{i}]")


def validate_config(raw) -> list[str]:
    """Schema check; returns every violation found, empty when valid.

    The config must be expressible as JSON, so Infinity and NaN are
    rejected wherever they appear. The merged config and each of its sweep
    points are resolved the way run_experiment resolves them, and whatever
    that raises is collected.
    """
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    out = [
        f"{path} must be finite: JSON has no Infinity or NaN"
        for path in _non_finite(raw)
    ]
    cfg = _complete(raw, _SCHEMA, out, hidden=False)
    out += [v for v in _violations(cfg) if v not in out]
    if any(v.startswith("sweep") for v in out):
        return out  # a malformed sweep was replaced by the default sweep
    param, values = cfg["sweep"]["parameter"], cfg["sweep"]["values"]
    if param == "sweep" or param.startswith("sweep."):
        return out + ["sweep.parameter cannot target the sweep itself"]
    try:
        _apply_sweep(cfg, param, None)
    except KeyError:
        return out + [f"sweep.parameter {param!r} is not a config path"]
    if cfg["trace_file"] is not None and param.startswith("channel."):
        out.append("cannot sweep channel parameters of a trace file")
    for value in values:
        for violation in _violations(_apply_sweep(cfg, param, value)):
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
    merged = copy.deepcopy(_complete(raw, _SCHEMA, [], hidden=False))
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


def _quantize_outcome(x, qcfg) -> QuantizationOutcome:
    if isinstance(qcfg, MeanSigmaConfig):
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
        outcome_a = _quantize_outcome(x_a, quantizer_cfg)
        outcome_b = _quantize_outcome(x_b, quantizer_cfg)
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

    def finish(key: BitKey) -> BitKey:
        return amplify(key, leaked, out_len, salt)

    try:
        result.alice_key = finish(k_a)
    except PhysecError as exc:
        result.error = f"amplify: {exc}"
        return result
    try:
        result.bob_key = finish(recover(k_b, sk, code))
        result.agreed = result.bob_key == result.alice_key
    except PhysecError as exc:
        result.reconcile_failed = True
        result.error = f"reconcile: {exc}"

    if x_e is not None:
        result.eve_kdr, result.eve_key = _eve_distillation(
            x_e, quantizer_cfg, outcome_a, common, sk, code, finish
        )
    return result


def _eve_distillation(x_e, quantizer_cfg, outcome_a, common, sk, code, finish):
    """Eve's best effort: same quantizer, public kept lists, public sketch.

    finish amplifies a key the way Alice's key was amplified.
    """
    try:
        outcome_e = _quantize_outcome(x_e, quantizer_cfg)
    except PhysecError:
        return math.nan, None
    common_e = np.intersect1d(common, outcome_e.kept_indices)
    eve_kdr = math.nan
    if common_e.size:
        alice_at_e, _ = intersect_kept_indices(outcome_a, common_e)
        eve_at_e, _ = intersect_kept_indices(outcome_e, common_e)
        eve_kdr = bit_fraction_differing(alice_at_e.bits, eve_at_e.bits)
    # align Eve's bits to the legit common index list, zero-filling her drops;
    # both quantizers keep indices in input order, so hers are sorted
    bps = outcome_e.bits_per_sample
    eve_grid = np.zeros((common.size, bps), dtype=np.uint8)
    src, row = match_sorted(outcome_e.kept_indices, common)
    eve_grid[row] = outcome_e.bits.bits.reshape(-1, bps)[src]
    k_e = BitKey(eve_grid.ravel()[: sk.s.size])
    try:
        return eve_kdr, finish(recover(k_e, sk, code))
    except PhysecError:
        try:
            return eve_kdr, finish(k_e)
        except PhysecError:
            return eve_kdr, None


def _ber_trial(
    alice_key: BitKey,
    bob_key: BitKey | None,
    eve_key: BitKey | None,
    point: SweepPoint,
    ber_seed: int,
) -> tuple[float, float]:
    """BER of Bob's and Eve's receivers, each decrypting with its own key.

    Alice encrypts with her final key; both receivers see the same noisy
    transmission (AWGN at the configured Eb/N0). A receiver without a key
    (failed reconciliation, no eavesdropper data) yields NaN.
    """
    if point.ber_bits == 0:
        return math.nan, math.nan
    cfg = point.ofdm
    receivers = {
        name: PleCodec(cfg, point.schemes, KeystreamSeed(key), point.phase)
        for name, key in (("alice", alice_key), ("bob", bob_key), ("eve", eve_key))
        if key is not None
    }
    alice = receivers.pop("alice")
    n_frames = -(-point.ber_bits // cfg.payload_bits)
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
        rx[row] = awgn_link(frame, point.snr_db, seed).data
    total = n_frames * cfg.payload_bits
    ber = {
        name: int(np.count_nonzero(codec.decrypt_batch(rx, frame_indices) != payloads))
        / total
        for name, codec in receivers.items()
    }
    return ber.get("bob", math.nan), ber.get("eve", math.nan)


def run_single_trial(point: SweepPoint, sweep_index: int, trial_index: int) -> dict:
    """One Monte-Carlo trial; returns metric values plus an optional error."""
    seed_seq = np.random.SeedSequence((point.master_seed, sweep_index, trial_index))
    state = seed_seq.generate_state(16)
    channel_seed, loss_seed, sketch_seed, ber_seed = map(int, state[:4])
    salt = state[8:16].tobytes()

    metrics = {name: math.nan for name in METRIC_NAMES}
    metrics["key_to_data_ratio"] = point.key_to_data_ratio

    if point.trace_file is not None:
        x_a, x_b = point.trace
        x_e = None
        n_probes = max(len(x_a), 1)
    else:
        params = replace(point.channel, rng_seed=channel_seed)
        trace = generate_trace(params)
        alice, bob = apply_loss(trace, replace(point.loss, rng_seed=loss_seed))
        x_a, x_b, rows = align_timestamps(alice, bob, params.sampling_delay)
        x_e = trace.x_e[rows]
        n_probes = params.n_probes

    result = key_generation_trial(
        x_a, x_b, point.quantizer, point.code, point.out_len, sketch_seed, salt, x_e=x_e
    )
    metrics["kdr"] = result.kdr
    metrics["eve_kdr"] = result.eve_kdr
    metrics["reconcile_failure_rate"] = float(result.reconcile_failed)
    metrics["key_agreement_rate"] = float(result.agreed)
    metrics["key_generation_rate"] = point.out_len * float(result.agreed) / n_probes
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
                result.alice_key, result.bob_key, result.eve_key, point, ber_seed
            )
        except PhysecError as exc:
            result.error = result.error or f"ple: {exc}"
    return {"metrics": metrics, "error": result.error}


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
        return asdict(self)


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

    Each sweep point is resolved once, and each trace file is read once per
    run; the trials share what that built. Rates are means of per-trial
    indicator variables and always land in [0, 1]; numeric metrics carry a
    standard error when at least two trials produced a value. Per-trial
    module errors are tallied per sweep point.
    """
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    raw = config.raw
    trials = config.trials
    points, traces = [], {}
    for value in config.sweep_values:
        point = _resolve_point(_apply_sweep(raw, config.sweep_parameter, value))
        path = point.trace_file
        if path is not None:
            if path not in traces:
                traces[path] = load_trace_csv(path)
            point = replace(point, trace=traces[path])
        points.append(point)
    tasks = [(p, s, t) for s, p in enumerate(points) for t in range(trials)]
    if jobs == 1:
        outcomes = [run_single_trial(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_single_trial, *zip(*tasks)))

    report = MetricsReport(
        scenario=config.scenario,
        sweep_parameter=config.sweep_parameter,
        config=raw,
        config_hash=config.config_hash,
        seed=config.master_seed,
    )
    for sweep_index, value in enumerate(config.sweep_values):
        point_outcomes = outcomes[sweep_index * trials : (sweep_index + 1) * trials]
        metrics = {
            name: _aggregate([o["metrics"][name] for o in point_outcomes])
            for name in METRIC_NAMES
        }
        errors = Counter(o["error"] for o in point_outcomes if o["error"])
        report.results.append(
            {
                "sweep_value": value,
                "trials": trials,
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


def load_trace_csv(path: str, tau: float | None = None):
    """Read a measured probing trace and align it.

    When tau is not given it is inferred from the first complete row.
    Returns the aligned measurement pair (x_a, x_b).
    """
    return align_timestamps(*read_trace(path, tau))[:2]
