"""Outside-in span tracing for the benchmark's traced run.

The benchmark does not change the program to trace it. It replaces the
public functions of each layer, at the names their callers look them up
under, with wrappers that record a span per call, and puts the originals
back afterwards. Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover. Span names are ``<module>.<function>`` after the module that
defines the function, so in-program timings can reuse them.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    """One call of a wrapped function; times are clock nanoseconds."""

    sid: int
    name: str
    start: int
    end: int
    parent: int | None
    error: str | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects nested spans and boundary counts in memory.

    ``counts`` holds counts taken at span boundaries: ``<span>.calls`` for
    every span, ``<span>.errors.<ErrorClass>`` for every raised exception,
    and whatever the per-span hooks add.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Run fn(*args, **kwargs) inside a span named name.

        hook(counts, args, result), when given, runs inside the span after a
        normal return and adds the counts this boundary can see.
        """
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0, parent)
        self.spans.append(span)
        self._stack.append(span.sid)
        self.counts[f"{name}.calls"] += 1
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result
        except Exception as exc:
            span.error = type(exc).__name__
            self.counts[f"{name}.errors.{span.error}"] += 1
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """fn wrapped in a span per call; name is a string, or a function
        of the call's positional arguments that returns one."""
        name_of = name if callable(name) else lambda args: name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name_of(args), fn, args, kwargs, hook)

        return traced


@contextmanager
def patched(tracer: Tracer, plan):
    """Wrap each (owner, attribute, span name, hook) of plan for the block.

    owner is the module or class whose attribute callers look up, so a
    function imported by name into another module is patched in that
    module. Every original is restored on exit, also after an exception.
    """
    saved = []
    try:
        for owner, attr, name, hook in plan:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Per span, its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span in spans:
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten of n samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


# --- what the benchmark wraps -------------------------------------------

def _count_apply_loss(counts, args, result):
    trace = args[0]
    alice, bob = result
    counts["probing.probes_lost"] += trace.x_a.size + trace.x_b.size - len(alice) - len(bob)


def _count_aligned(counts, args, result):
    counts["probing.pairs_aligned"] += len(result[0])


def _count_mean_sigma(counts, args, result):
    counts["quantize.samples_in"] += len(args[0])
    counts["quantize.samples_kept"] += result.kept_indices.size


def _count_cdf(counts, args, result):
    counts["quantize.samples_in"] += len(args[0])
    counts["quantize.samples_kept"] += len(args[0])


def _count_sketch(counts, args, result):
    counts["distill.blocks"] += result.n_blocks


def _count_keystream(counts, args, result):
    # computed from the argument, not observed: SHA-256 calls = ceil(n / 256)
    counts["keystream.sha256_blocks"] += -(-args[1] // 256)


def _count_trace_bytes(counts, args, result):
    # computed from the argument: the size of the file the call parses
    counts["harness.trace_load.bytes"] += os.path.getsize(args[0])


def _per_scheme(name):
    """Span name of a PleCodec key method, suffixed with the scheme that
    the call derives key material for (its argument after self)."""
    return lambda args: f"{name}.{args[1]}"


def trace_plan(physec):
    """(owner, attribute, span name, hook) for every wrapped boundary.

    Functions are patched in the module that calls them: the harness and
    ple modules import theirs by name, and ple reaches modulation through
    the module object. PleCodec derives each scheme's keystream and
    permutation before it calls the scheme's stage function, so those
    spans are named per scheme.
    """
    harness, ple, modulation = physec.harness, physec.ple, physec.modulation
    code_cls = physec.blockcode.LinearBlockCode
    return [
        (harness, "run_single_trial", "harness.run_single_trial", None),
        (harness, "key_generation_trial", "harness.key_generation_trial", None),
        (harness, "_ber_trial", "harness._ber_trial", None),
        (harness, "load_trace_csv", "harness.load_trace_csv", _count_trace_bytes),
        (harness, "code_by_id", "blockcode.code_by_id", None),
        (harness, "generate_trace", "channel.generate_trace", None),
        (harness, "apply_loss", "probing.apply_loss", _count_apply_loss),
        (harness, "align_timestamps", "probing.align_timestamps", _count_aligned),
        (harness, "paired_base_times", "probing.paired_base_times", None),
        (harness, "quantize_mean_sigma", "quantize.quantize_mean_sigma", _count_mean_sigma),
        (harness, "quantize_cdf", "quantize.quantize_cdf", _count_cdf),
        (harness, "intersect_kept_indices", "quantize.intersect_kept_indices", None),
        (harness, "sketch", "distill.sketch", _count_sketch),
        (harness, "recover", "distill.recover", None),
        (harness, "amplify", "distill.amplify", None),
        (harness, "monobit_test", "distill.monobit_test", None),
        (harness, "runs_test", "distill.runs_test", None),
        (harness, "awgn_link", "ofdm.awgn_link", None),
        (code_cls, "encode", "blockcode.LinearBlockCode.encode", None),
        (code_cls, "decode_batch", "blockcode.LinearBlockCode.decode_batch", None),
        (ple.PleCodec, "__init__", "ple.PleCodec.__init__", None),
        (ple.PleCodec, "encrypt", "ple.PleCodec.encrypt", None),
        (ple.PleCodec, "decrypt", "ple.PleCodec.decrypt", None),
        (ple.PleCodec, "_scheme_bits", _per_scheme("ple.PleCodec._scheme_bits"), None),
        (ple.PleCodec, "_perm", _per_scheme("ple.PleCodec._perm"), None),
        (ple, "keystream", "keystream.keystream", _count_keystream),
        (ple, "keyed_permutation", "keystream.keyed_permutation", None),
        (ple, "keyed_subset", "keystream.keyed_subset", None),
        (ple, "xor_encrypt", "keystream.xor_encrypt", None),
        (ple, "phase_encrypt", "ple.phase_encrypt", None),
        (ple, "phase_decrypt", "ple.phase_decrypt", None),
        (ple, "partial_interleave", "ple.partial_interleave", None),
        (ple, "partial_deinterleave", "ple.partial_deinterleave", None),
        (ple, "insert_dummy", "ple.insert_dummy", None),
        (ple, "scramble_freq", "ple.scramble_freq", None),
        (ple, "unscramble_freq", "ple.unscramble_freq", None),
        (ple, "scramble_time", "ple.scramble_time", None),
        (ple, "unscramble_time", "ple.unscramble_time", None),
        (ple, "ofdm_demodulate", "ofdm.ofdm_demodulate", None),
        (modulation, "map_symbols", "modulation.map_symbols", None),
        (modulation, "demap_symbols", "modulation.demap_symbols", None),
    ]


ROOT_SPAN = "harness.run_experiment"

LAYERS = (
    "channel",
    "probing",
    "quantize",
    "blockcode",
    "distill",
    "keystream",
    "modulation",
    "ofdm",
    "ple",
    "harness",
)

# the stage functions of each PLE scheme, encrypt and decrypt side
SCHEME_STAGES = {
    "xor": ("keystream.xor_encrypt",),
    "phase": ("ple.phase_encrypt", "ple.phase_decrypt"),
    "partial_interleave": ("ple.partial_interleave", "ple.partial_deinterleave"),
    "dummy": ("ple.insert_dummy",),
    "scramble_freq": ("ple.scramble_freq", "ple.unscramble_freq"),
    "scramble_time": ("ple.scramble_time", "ple.unscramble_time"),
}


def scheme_spans(scheme: str) -> tuple:
    """Every span of one scheme's cost: its stage functions plus the key
    material PleCodec derives for it (keystream bits and permutation)."""
    return SCHEME_STAGES[scheme] + (
        f"ple.PleCodec._scheme_bits.{scheme}",
        f"ple.PleCodec._perm.{scheme}",
    )


def outer_busy(spans: list[Span], names) -> int:
    """Total duration of the spans named in names, each counted once: a
    span nested in another span of names is already in its duration."""
    names = set(names)
    return sum(
        span.duration
        for span in spans
        if span.name in names
        and (span.parent is None or spans[span.parent].name not in names)
    )


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float) -> dict:
    """Per-layer metrics of a traced run, each per pass over the workload.

    Returns {name: (value, unit)}. traced_wall_s is the wall time of all
    traced passes, measured around the root spans and the encoding of
    their reports.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    busy = Counter()
    self_ns = Counter()
    durations = defaultdict(list)
    for span, own in zip(spans, selfs):
        busy[span.name] += span.duration
        self_ns[span.name] += own
        durations[span.name].append(span.duration)
    counts = tracer.counts

    def ms(ns):
        return ns / 1e6 / passes

    def per_pass(count):
        return count / passes

    def busy_ms(*names):
        return ms(sum(busy[n] for n in names))

    def us_per_call(name):
        calls = counts[f"{name}.calls"]
        return busy[name] / 1e3 / calls if calls else 0.0

    trial_ms = [d / 1e6 for d in durations["harness.run_single_trial"]]
    tail_q = tail_percentile(len(trial_ms))
    samples_in = counts["quantize.samples_in"]
    layer_self = Counter()
    for name, own in self_ns.items():
        layer_self[name.split(".", 1)[0]] += own
    total_self = sum(layer_self.values())
    wall_ns = traced_wall_s * 1e9
    # traced time in no wrapped function: the root's own time, which is
    # run_experiment outside its trials, plus the report encoding
    unattributed_ns = wall_ns - (total_self - self_ns[ROOT_SPAN])

    out = {
        "probing.apply_loss.busy_ms": (busy_ms("probing.apply_loss"), "ms"),
        "probing.align.busy_ms": (
            busy_ms("probing.align_timestamps", "probing.paired_base_times"), "ms"
        ),
        "probing.probes_lost": (per_pass(counts["probing.probes_lost"]), "count"),
        "probing.pairs_aligned": (per_pass(counts["probing.pairs_aligned"]), "count"),
        "harness.key_generation_trial.self_ms": (
            ms(self_ns["harness.key_generation_trial"]), "ms"
        ),
        "channel.generate_trace.busy_ms": (busy_ms("channel.generate_trace"), "ms"),
        "channel.generate_trace.calls": (
            per_pass(counts["channel.generate_trace.calls"]), "count"
        ),
        "quantize.busy_ms": (
            busy_ms(
                "quantize.quantize_mean_sigma",
                "quantize.quantize_cdf",
                "quantize.intersect_kept_indices",
            ),
            "ms",
        ),
        "quantize.kept_fraction": (
            counts["quantize.samples_kept"] / samples_in if samples_in else 0.0,
            "ratio",
        ),
        "distill.sketch.busy_ms": (busy_ms("distill.sketch"), "ms"),
        "distill.recover.busy_ms": (busy_ms("distill.recover"), "ms"),
        "distill.amplify.busy_ms": (busy_ms("distill.amplify"), "ms"),
        "distill.blocks": (per_pass(counts["distill.blocks"]), "count"),
        "distill.amplify_refused": (
            per_pass(counts["distill.amplify.errors.EntropyBudgetError"]), "count"
        ),
        "distill.reconcile_failed": (
            per_pass(counts["distill.recover.errors.ReconcileFailure"]), "count"
        ),
        "harness.trace_load.busy_ms": (busy_ms("harness.load_trace_csv"), "ms"),
        "harness.trace_load.calls": (
            per_pass(counts["harness.load_trace_csv.calls"]), "count"
        ),
        "harness.trace_load.bytes": (
            per_pass(counts["harness.trace_load.bytes"]), "bytes"
        ),
        "keystream.keystream.busy_ms": (busy_ms("keystream.keystream"), "ms"),
        "keystream.keystream.calls": (
            per_pass(counts["keystream.keystream.calls"]), "count"
        ),
        "keystream.sha256_blocks": (
            per_pass(counts["keystream.sha256_blocks"]), "count"
        ),
        "keystream.keyed_permutation.busy_ms": (
            busy_ms("keystream.keyed_permutation"), "ms"
        ),
        "keystream.keyed_permutation.calls": (
            per_pass(counts["keystream.keyed_permutation.calls"]), "count"
        ),
        "keystream.keyed_permutation.us_per_call": (
            us_per_call("keystream.keyed_permutation"), "us"
        ),
        "ple.encrypt.us_per_frame": (us_per_call("ple.PleCodec.encrypt"), "us"),
        "ple.decrypt.us_per_frame": (us_per_call("ple.PleCodec.decrypt"), "us"),
        "ple.self_ms": (ms(layer_self["ple"]), "ms"),
        "ple.codec_builds": (per_pass(counts["ple.PleCodec.__init__.calls"]), "count"),
        "ple.frames": (per_pass(counts["ple.PleCodec.encrypt.calls"]), "count"),
    }
    for scheme in SCHEME_STAGES:
        out[f"ple.{scheme}.busy_ms"] = (ms(outer_busy(spans, scheme_spans(scheme))), "ms")
    out.update(
        {
            "modulation.busy_ms": (
                busy_ms("modulation.map_symbols", "modulation.demap_symbols"), "ms"
            ),
            "ofdm.awgn_link.busy_ms": (busy_ms("ofdm.awgn_link"), "ms"),
            "ofdm.demodulate.busy_ms": (busy_ms("ofdm.ofdm_demodulate"), "ms"),
            "harness.run_single_trial.ms_p50": (
                float(np.percentile(trial_ms, 50.0)) if trial_ms else 0.0, "ms"
            ),
            "harness.run_single_trial.ms_tail": (
                float(np.percentile(trial_ms, tail_q)) if trial_ms else 0.0, "ms"
            ),
            "harness.run_single_trial.self_ms": (
                ms(self_ns["harness.run_single_trial"]), "ms"
            ),
            "harness.trials": (
                per_pass(counts["harness.run_single_trial.calls"]), "count"
            ),
        }
    )
    for layer in LAYERS:
        out[f"layer.{layer}.self_pct"] = (
            100.0 * layer_self[layer] / total_self if total_self else 0.0, "%"
        )
    out["tracing.unattributed_pct"] = (
        100.0 * unattributed_ns / wall_ns if wall_ns else 0.0, "%"
    )
    return out
