"""Declarative Monte-Carlo experiments over the whole pipeline.

An experiment is a JSON document: a channel (or a measured trace file), a
loss model, a quantizer, a reconciliation code, an amplification length, a
PLE scheme stack, exactly one sweep axis, and a trial count. Loading a config
resolves each sweep point once; any schema key but scenario and trials can be
swept, hidden ones included. Per-trial seeds derive deterministically from
the master seed, the sweep index and the trial index, so reports are
byte-identical regardless of execution order or parallelism degree, and
per-trial failures are recorded as data rather than aborting the run. The
report run_experiment returns is a plain JSON object, a dict, which
report_bytes encodes as JSON or CSV.
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
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .bits import BitKey, bit_fraction_differing
from .blockcode import LinearBlockCode, code_by_id
from .channel import (
    ChannelParams,
    generate_trace,  # bound only for the benchmark's trace plan (ROADMAP item 0)
    generate_traces,
    load_filter,
)
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
    OfdmConfig,
    awgn_link,  # bound only for the benchmark's trace plan (ROADMAP item 0)
    awgn_rows,
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
    apply_loss,  # bound only for the benchmark's trace plan (ROADMAP item 0)
    grid_rounds,
    keep_masks,
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
from .rng import generators, spawned, trial_states

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
    "master_seed": _Leaf("an integer >= 0", 0),
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
        return copy.deepcopy(node)
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
    trace_file once run_experiment has read it. ofdm, schemes, phase and
    snr_db are None when ber_bits is 0."""

    master_seed: int
    channel: ChannelParams
    loss: LossModel
    quantizer: MeanSigmaConfig | CdfConfig
    code: LinearBlockCode
    out_len: int
    ofdm: OfdmConfig | None
    schemes: tuple | None
    phase: PhaseEncryptConfig | None
    snr_db: float | None
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
    ratio = key_to_data_ratio(schemes, ofdm, phase)
    snr_db = ebn0_db_to_snr_db(ple["ebn0_db"], ofdm.mapping)
    if SCHEME_PHASE not in schemes:  # no codec reads the phase config
        phase = None
    elif not phase.noise_enabled:  # nor, with the noise off, its scale
        phase = replace(phase, noise_scale=0.0)
    if ple["ber_bits"] == 0:  # no trial runs the link; only its cost counts
        ofdm = schemes = phase = snr_db = None
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
        snr_db=snr_db,
        ber_bits=ple["ber_bits"],
        key_to_data_ratio=ratio,
        trace_file=trace_file,
    )


def _collect(cfg: dict, out: list, prefix: str = "") -> SweepPoint | None:
    """cfg's SweepPoint, or None after adding its new violations, prefixed, to out."""
    try:
        return _resolve_point(cfg)
    except ConfigError as exc:
        for violation in exc.violations:
            if violation not in out and prefix + violation not in out:
                out.append(prefix + violation)


def _apply_sweep(raw: dict, parameter: str, value) -> dict:
    """A copy of raw, hidden defaults in, with value at the dotted path
    parameter; KeyError when that copy holds no such path."""
    cfg = _complete(raw, _SCHEMA, [])
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment, its canonical JSON hash and its sweep points."""

    raw: dict
    config_hash: str
    points: tuple = field(compare=False, repr=False)  # a function of raw

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
    """Validate raw and resolve each sweep point, once; raises ConfigError
    listing every violation. Infinity and NaN, which JSON cannot hold, are
    rejected anywhere, each as the one violation of its path, before any
    other check. Any key but scenario and trials may be swept, hidden ones
    too, but a sweep of two or more values may not make equal points, and a
    value the config writes at the swept path must be a sweep value.
    master_seed replaces the config's own; it cannot be given when the
    config sweeps master_seed, whose sweep values would replace it."""
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    out = [
        f"{path} must be finite: JSON has no Infinity or NaN"
        for path in _non_finite(raw)
    ]
    if out:
        raise ConfigError(out)
    cfg = _complete(raw, _SCHEMA, out, hidden=False)
    if master_seed is not None:
        cfg["master_seed"] = int(master_seed)
    _collect(cfg, out)
    if any(v.startswith("sweep") for v in out):
        raise ConfigError(out)  # a malformed sweep was replaced by the default sweep
    param, values = cfg["sweep"]["parameter"], cfg["sweep"]["values"]
    if param == "sweep" or param.startswith("sweep."):
        raise ConfigError(out + ["sweep.parameter cannot target the sweep itself"])
    if param in ("scenario", "trials"):
        raise ConfigError(
            out + [f"sweep.parameter {param!r} is shared by every point"]
        )
    try:
        swept = [_apply_sweep(cfg, param, value) for value in values]
    except KeyError:
        raise ConfigError(
            out + [f"sweep.parameter {param!r} is not a config path"]
        ) from None
    if param == "master_seed" and master_seed is not None:
        out.append(f"master seed {master_seed} cannot override the master_seed sweep")
    written = raw  # the value the config itself writes at the swept path
    for part in param.split("."):
        if not isinstance(written, dict) or part not in written:
            break
        written = written[part]
    else:
        if written not in values:
            out.append(f"{param} is {written!r}, but the sweep runs it at {values!r}")
    if cfg["trace_file"] is not None and param.startswith("channel."):
        out.append("cannot sweep channel parameters of a trace file")
    points = [_collect(c, out, f"sweep value {v!r}: ") for v, c in zip(values, swept)]
    if len(points) > 1 and None not in points:
        first, *rest = points
        if all(p == first for p in rest):
            out.append(f"sweep.parameter {param!r} changes no point")
    if out:
        raise ConfigError(out)
    config_hash = hashlib.sha256(canonical_json_bytes(raw)).hexdigest()
    return ExperimentConfig(raw=cfg, config_hash=config_hash, points=tuple(points))


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
    sketch_seed,
    salt: bytes,
    x_e=None,
) -> KeyGenResult:
    """Quantize, reconcile and amplify one aligned measurement pair.

    Keys are truncated to a whole number of code blocks before sketching;
    sketch_seed is the sketch's seed or generator, as sketch takes it.
    An eavesdropper observation vector, when given, is distilled the same
    way, including the attempt to exploit the public sketch; it holds one
    observation per entry of x_a, else ParameterError is raised.
    """
    if x_e is not None and len(x_e) != len(x_a):
        raise ParameterError("x_e must hold one observation per entry of x_a")
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
            x_e, quantizer_cfg, bits_a, common, sk, code, finish
        )
    return result


def _eve_distillation(x_e, quantizer_cfg, bits_a, common, sk, code, finish):
    """Eve's best effort: same quantizer, public kept lists, public sketch.

    bits_a holds Alice's bits at the common indices. finish amplifies a key
    the way Alice's key was amplified.
    """
    try:
        outcome_e = _quantize_outcome(x_e, quantizer_cfg)
    except PhysecError:
        return math.nan, None
    # align Eve's bits to the legit common index list, zero-filling her drops:
    # a table over her samples holds each kept one's position among her bits
    # (-1 where she dropped it). Each sample's bits move as one item of a
    # bytes-wide dtype.
    sample = np.dtype((np.void, outcome_e.bits_per_sample))
    eve_samples = np.zeros(common.size, dtype=sample)
    kept_e = outcome_e.kept_indices
    position = np.full(len(x_e), -1, dtype=np.intp)
    position[kept_e] = np.arange(kept_e.size)
    src = position[common]
    row = np.flatnonzero(src >= 0)
    src = src[row]
    eve_samples[row] = outcome_e.bits.bits.view(sample)[src]
    eve_bits = eve_samples.view(np.uint8)
    eve_kdr = math.nan
    if row.size:
        alice_bits = bits_a.bits.view(sample)[row].view(np.uint8)
        eve_kdr = bit_fraction_differing(alice_bits, eve_samples[row].view(np.uint8))
    k_e = BitKey(eve_bits[: sk.s.size])
    try:
        return eve_kdr, finish(recover(k_e, sk, code))
    except PhysecError:
        try:
            return eve_kdr, finish(k_e)
        except PhysecError:
            return eve_kdr, None


def _ber_trial(point: SweepPoint, trials: list) -> list[tuple[float, float]]:
    """(Bob's BER, Eve's BER) of each trial of a link batch, each receiver
    decrypting with its own key.

    A trial is (alice_key, bob_key, eve_key, ber_seed). Its payloads and its
    frames' noise seeds come from ber_seed, and its frames are 0..n-1, as if
    it crossed the link alone; the batch's frames cross as one batch, keyed
    per row. Alice encrypts with her final key; both receivers see the same
    noisy transmission (AWGN at the configured Eb/N0). A receiver without a
    key (failed reconciliation, no eavesdropper data) yields NaN. Rows whose
    receiver key equals Alice's read her codec's decryption, which keeps the
    key material it derived to encrypt; each receiver's other rows go to
    one codec.
    """
    if point.ber_bits == 0 or not trials:
        return [(math.nan, math.nan)] * len(trials)
    cfg = point.ofdm
    n_frames = -(-point.ber_bits // cfg.payload_bits)
    alice_keys, bob_keys, eve_keys, ber_seeds = zip(*trials)
    payloads = np.empty((len(trials), n_frames, cfg.payload_bits), dtype=np.uint8)
    noise_seeds = []
    for rows, rng in zip(payloads, generators(ber_seeds)):
        for payload in rows:
            payload[:] = rng.integers(0, 2, cfg.payload_bits, dtype=np.uint8)
            noise_seeds.append(int(rng.integers(1 << 62)))
    frames = np.tile(np.arange(n_frames), len(trials))

    def codec(keys):
        """A codec for len(keys) trials, trial t's frames keyed by keys[t]."""
        seeds = [seed for key in keys for seed in [KeystreamSeed(key)] * n_frames]
        return PleCodec(cfg, point.schemes, seeds, point.phase)

    alice = codec(alice_keys)
    tx = alice.encrypt_batch(payloads.reshape(frames.size, -1), frames)
    # each frame gets awgn_link's noise draw from that frame's own seed
    rx = awgn_rows(tx, point.snr_db, noise_seeds)
    by_trial = rx.reshape(len(trials), n_frames, -1)
    alice_plain = None
    total = n_frames * cfg.payload_bits
    bers = []
    for keys in (bob_keys, eve_keys):
        same = [key is not None and key == a for key, a in zip(keys, alice_keys)]
        other = [t for t, key in enumerate(keys) if key is not None and not same[t]]
        plain = np.zeros_like(payloads)
        if any(same):
            if alice_plain is None:
                alice_plain = alice.decrypt_batch(rx, frames).reshape(payloads.shape)
            plain[same] = alice_plain[same]
        if other:
            rows = by_trial[other].reshape(len(other) * n_frames, -1)
            decrypted = codec([keys[t] for t in other]).decrypt_batch(
                rows, frames[: len(rows)]
            )
            plain[other] = decrypted.reshape(len(other), n_frames, -1)
        wrong = np.count_nonzero(plain != payloads, axis=(1, 2)).tolist()
        bers.append(
            [math.nan if key is None else w / total for key, w in zip(keys, wrong)]
        )
    return list(zip(*bers))


class _TrialSeeds(NamedTuple):
    """One trial's seed material, from the 16 words of
    SeedSequence((master_seed, sweep_index, trial_index)).generate_state(16)
    (state): the five channel generators of its generate_traces row,
    spawned from state[0], and the two of its keep_masks row, from state[1]
    (both None on a trace file); the sketch's generator,
    default_rng(state[2]); the link's ber_seed, state[3]; and the
    amplification salt, state[8:16]'s bytes."""

    channel: list | None
    loss: list | None
    sketch: np.random.Generator
    ber_seed: int
    salt: bytes


def _trial_seeds(point: SweepPoint, sweep_index: int, trial_indices) -> list:
    """The _TrialSeeds of each of a point's trials, every generator of them
    seeded in one pass (physec.rng)."""
    states = trial_states(point.master_seed, sweep_index, trial_indices)
    if point.trace_file is None:
        channel = spawned(states[:, 0], 5)
        loss = spawned(states[:, 1], 2)
    else:
        channel = loss = [None] * len(states)
    return [
        _TrialSeeds(*seeds, int(state[3]), state[8:16].tobytes())
        for *seeds, state in zip(channel, loss, generators(states[:, 2]), states)
    ]


def _trial_probes(point: SweepPoint, seeds: list):
    """Each trial's aligned (x_a, x_b, x_e), in order.

    A trace point's trials all read its (x_a, x_b), with no eavesdropper. A
    simulated point's are drawn in chunks of at most PROBE_CELLS probes, one
    trial at least: a chunk's channels in one generate_traces call, its loss
    in one keep_masks call, and its rounds paired by grid index
    (grid_rounds), on a copy of the point's channel whose sampling grid is
    freed with the batch. A generator: each chunk is drawn when its first
    trial is asked for, so a batch's chunks are never all held at once.
    """
    if point.trace_file is not None:
        yield from repeat((*point.trace, None), len(seeds))
        return
    channel = replace(point.channel)
    n = channel.n_probes
    size = max(1, PROBE_CELLS // n)
    for start in range(0, len(seeds), size):
        chunk = seeds[start : start + size]
        trace = generate_traces(channel, [s.channel for s in chunk])
        keep = keep_masks(n, point.loss, [s.loss for s in chunk])
        yield from grid_rounds(trace, keep)


def run_single_trial(point: SweepPoint, seeds: _TrialSeeds, probes: tuple) -> tuple:
    """Key generation of one Monte-Carlo trial, seeded by seeds, on its
    aligned probes (x_a, x_b, x_e) as _trial_probes gives them: (metrics,
    error, link), the METRIC_NAMES values it computed, by name, an optional
    error, and the trial as _ber_trial takes it (None if Alice has no key)."""
    x_a, x_b, x_e = probes
    if point.trace_file is not None:
        n_probes = max(len(x_a), 1)
    else:
        n_probes = point.channel.n_probes

    result = key_generation_trial(
        x_a,
        x_b,
        point.quantizer,
        point.code,
        point.out_len,
        seeds.sketch,
        seeds.salt,
        x_e=x_e,
    )
    metrics = {
        "kdr": result.kdr,
        "eve_kdr": result.eve_kdr,
        "reconcile_failure_rate": float(result.reconcile_failed),
        "key_agreement_rate": float(result.agreed),
        "key_generation_rate": point.out_len * float(result.agreed) / n_probes,
        "key_to_data_ratio": point.key_to_data_ratio,
    }
    link = None
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
        link = (result.alice_key, result.bob_key, result.eve_key, seeds.ber_seed)
    return metrics, result.error, link


# the most frames one _ber_trial link carries: a point's trials are linked
# in batches of as many whole trials as fit. A frame costs less the larger
# its batch, as most of a batch's cost is a fixed count of numpy calls, but
# the process's peak memory grows with it: on the six-scheme stack (x86-64,
# numpy 2.4) a 400-frame link raised peak RSS by 5.4-5.6 MiB more than a
# 100-frame link, ~5% of the ple_link benchmark's 108.9 MiB, and a
# 200-frame link by 1.8 MiB
LINK_FRAMES = 256
# the most trials one batch seeds at once: a trial's eight generators take
# ~6.5 KB (x86-64, numpy 2.4), so seeding a 20,000-trial point without a
# link in one batch raised peak RSS by ~130 MiB over batches of 256
BATCH_TRIALS = 256
# the most probes (trials x n_probes) a simulated point draws at once. A
# chunk's channel, loss and pairing take a fixed count of numpy calls
# however many trials it holds, but each of its probes holds ~10 float64
# buffers while it is drawn: on the keygen benchmark (4096 probes, batches
# of 20 trials; x86-64, numpy 2.4), peak RSS rose by 0.2-0.5 MiB at 8192
# over one-trial chunks, by ~1.6 MiB at 16384, and by ~4.4 MiB with a
# whole batch in one chunk
PROBE_CELLS = 8192


def _batches(point: SweepPoint, trials: int, jobs: int = 1) -> list:
    """A point's trial indices in order, cut into batches that are seeded
    at once. A point that runs a link is cut into link batches of as many
    whole trials as fit in LINK_FRAMES frames, at least one. One that runs
    none is cut into min(jobs, trials) batches of near-equal size, so that
    its trials spread over every worker, or more where a batch would
    exceed BATCH_TRIALS trials."""
    if point.ber_bits == 0:
        count = max(min(jobs, trials), -(-trials // BATCH_TRIALS))
        cuts = [trials * k // count for k in range(count + 1)]
        return [range(a, b) for a, b in zip(cuts, cuts[1:])]
    n_frames = -(-point.ber_bits // point.ofdm.payload_bits)
    size = max(1, LINK_FRAMES // n_frames)
    return [range(t, min(t + size, trials)) for t in range(0, trials, size)]


def _run_batch(point: SweepPoint, sweep_index: int, trial_indices) -> tuple:
    """A batch of one point's trials as an outcome table, (values, errors):
    values is [trials, len(METRIC_NAMES)] float64, NaN where a trial has no
    value, and errors holds one message or None per trial. The batch's
    seeds, then each trial's key generation on its probes (_trial_probes),
    a simulated point's chunk of trials generating their keys before the
    next chunk is drawn, then one _ber_trial link of the trials with keys.
    If that link raises, its trials are linked one at a time, and a trial
    whose own link raises gets a ple: error unless it has one."""
    seeds = _trial_seeds(point, sweep_index, trial_indices)
    probes = _trial_probes(point, seeds)
    outcomes = [run_single_trial(point, s, p) for s, p in zip(seeds, probes)]
    rows = [[m.get(name, math.nan) for name in METRIC_NAMES] for m, _, _ in outcomes]
    values = np.array(rows, dtype=float)
    errors = [error for _, error, _ in outcomes]
    links = {t: link for t, (_, _, link) in enumerate(outcomes) if link is not None}
    bers = [METRIC_NAMES.index("bob_ber"), METRIC_NAMES.index("eve_ber")]
    try:
        for t, ber in zip(links, _ber_trial(point, list(links.values()))):
            values[t, bers] = ber
    except PhysecError:
        for t, link in links.items():
            try:
                values[t, bers] = _ber_trial(point, [link])[0]
            except PhysecError as exc:
                errors[t] = errors[t] or f"ple: {exc}"
    return values, errors


def _aggregate(column: np.ndarray) -> dict:
    finite = column[~np.isnan(column)]
    count = int(finite.size)
    if count == 0:
        return {"mean": None, "stderr": None, "count": 0}
    mean = float(finite.mean())
    stderr = (
        float(finite.std(ddof=1) / math.sqrt(count)) if count > 1 else None
    )
    return {"mean": mean, "stderr": stderr, "count": count}


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Execute every (sweep value, trial) cell and aggregate per sweep value.

    The report is a JSON object: scenario, sweep_parameter, config (the
    merged config), config_hash, seed and results, one entry per sweep
    value. The trials run the points config_from_dict resolved, and each
    trace file is read once per run. Each point's trials run in batches
    (_batches): a batch's trials are seeded at once; on a simulated point
    their channels and loss are drawn a chunk of trials at a time, at most
    PROBE_CELLS probes, and paired by grid index; every trial generates its
    keys, then the batch's keyed trials cross one _ber_trial link.
    jobs=1 runs the batches in order; more jobs map them over
    min(jobs, batches) worker processes, with the same report bytes. Each
    metric aggregates its column of the batches' outcome tables: rates
    are means of per-trial indicator variables and always land in [0, 1];
    numeric metrics carry a standard error when at least two trials
    produced a value. Per-trial module errors are tallied per sweep point.
    A sampling delay at which a point's rounds cannot be told apart raises
    the grid's ParameterError (channel.generate_traces).
    """
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    trials = config.trials
    paths = dict.fromkeys(p.trace_file for p in config.points if p.trace_file)
    traces = {path: load_trace_csv(path) for path in paths}
    points = [replace(p, trace=traces.get(p.trace_file)) for p in config.points]
    tasks = [
        (p, s, batch)
        for s, p in enumerate(points)
        for batch in _batches(p, trials, jobs)
    ]
    if jobs == 1:
        batches = [_run_batch(*task) for task in tasks]
    else:
        # imported here: the pool machinery costs ~35 ms that serial runs
        # and config or trace tools would otherwise pay at start-up
        from concurrent.futures import ProcessPoolExecutor

        if any(point.trace_file is None for point in points):
            load_filter()
        # the pool forks all its workers at the first task, so it gets no
        # more than there are batches
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            batches = list(pool.map(_run_batch, *zip(*tasks)))
    tables, batch_errors = zip(*batches)
    values = np.concatenate(tables).reshape(len(points), trials, len(METRIC_NAMES))
    errors = [error for batch in batch_errors for error in batch]

    results = []
    for sweep_index, value in enumerate(config.sweep_values):
        columns = values[sweep_index].T
        point_errors = errors[sweep_index * trials : (sweep_index + 1) * trials]
        tally = Counter(error for error in point_errors if error)
        results.append(
            {
                "sweep_value": value,
                "trials": trials,
                "metrics": dict(zip(METRIC_NAMES, map(_aggregate, columns))),
                "errors": dict(sorted(tally.items())),
            }
        )
    return {
        "scenario": config.scenario,
        "sweep_parameter": config.sweep_parameter,
        "config": config.raw,
        "config_hash": config.config_hash,
        "seed": config.master_seed,
        "results": results,
    }


def report_json_bytes(report: dict) -> bytes:
    return canonical_json_bytes(report) + b"\n"


def report_csv_text(report: dict) -> str:
    """One row per (sweep value, metric); columns as in CSV_COLUMNS."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for entry in report["results"]:
        for name in METRIC_NAMES:
            agg = entry["metrics"][name]
            writer.writerow(
                [
                    report["scenario"],
                    report["sweep_parameter"],
                    entry["sweep_value"],
                    name,
                    "" if agg["mean"] is None else repr(agg["mean"]),
                    "" if agg["stderr"] is None else repr(agg["stderr"]),
                    agg["count"],
                ]
            )
    return buf.getvalue()


def report_bytes(report: dict, fmt: str) -> bytes:
    """The report as json or csv; identical inputs give identical bytes."""
    if fmt == "json":
        return report_json_bytes(report)
    if fmt == "csv":
        return report_csv_text(report).encode()
    raise ParameterError(f"unknown report format {fmt!r}")


def load_trace_csv(path: str):
    """The aligned measurement pair (x_a, x_b) of a probing trace file, tau
    inferred from its first complete row."""
    return align_timestamps(*read_trace(path))[:2]
