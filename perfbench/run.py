"""physec benchmark: harness workloads timed end to end, or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 12 --trace 0

Every workload is one harness config (see ``configs/`` and ``METRICS.md``)
run closed-loop, one pass after another, through the public harness API
(``load_config`` then ``run_experiment``). Passes at ``jobs=1`` and
``jobs=2`` alternate until ``--seconds`` have elapsed, and each reported
rate is the median over passes. Reported times are calibrated by an
in-process machine-speed probe (``bench_speed.py``); the raw wall-clock
figures are printed as ``info raw`` lines.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics; the traced passes wrap each layer's public functions
from outside the program (``bench_trace.py``) and write their spans to
``.perfbench-out/`` once the run ends.

Outputs are checked on every run. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed, and 2 when the program could
not be found or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import bench_inputs
import bench_speed
import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_REPEATS = 5
MASTER_SEEDS_PER_RUN = 4
EVE_BER_RANGE = (0.45, 0.55)
ROUNDTRIP_FRAMES = 8

# fresh interpreter: import the package, then load and validate the config
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import physec; "
    "physec.load_config(sys.argv[2], master_seed=int(sys.argv[3]))"
)


class ProgramMissing(RuntimeError):
    """The checkout holds no physec sources to benchmark."""


def import_physec():
    """Import physec from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "physec", "__init__.py")):
        raise ProgramMissing(f"no physec package under {SRC}")
    sys.path.insert(0, SRC)
    import physec
    import physec.blockcode
    import physec.harness
    import physec.modulation
    import physec.ple

    if os.path.commonpath([os.path.abspath(physec.__file__), SRC]) != SRC:
        raise ProgramMissing(f"physec imported from {physec.__file__}, not {SRC}")
    return physec


class Checks:
    """Attempted and failed operations; error_rate = failed / attempted.

    An operation is a timed pass or an output check. It fails when it
    raises or when its check is false.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str, quiet: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        if not (ok and quiet):
            print(f"check {'ok' if ok else 'FAILED'}: {what}")
        return ok

    def attempt(self, what: str, fn, *args):
        """Return fn(*args); a raised exception is recorded as a failure
        and gives None. The caller records the outcome of a success."""
        try:
            return fn(*args)
        except Exception as exc:  # a crash of the program under test is data
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_eve_ber(checks: Checks, report_bytes: bytes):
    """Eve decrypting with her own key should see coin-flip bit errors."""
    lo, hi = EVE_BER_RANGE
    for entry in json.loads(report_bytes)["results"]:
        ber = entry["metrics"]["eve_ber"]["mean"]
        checks.record(
            ber is not None and lo <= ber <= hi,
            f"eve_ber {ber} at {entry['sweep_value']} within [{lo}, {hi}]",
        )


def check_ple_roundtrip(checks: Checks, physec, seed: int) -> str:
    """Noiseless encrypt -> link -> decrypt is exact for every scheme.

    Runs each scheme alone and all six together, and returns the SHA-256
    of the all-schemes ciphertext frames, which depends only on the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x91E)))
    raw = physec.BitKey(rng.integers(0, 2, 256, dtype=np.uint8))
    key = physec.amplify(raw, 0, 128, b"perfbench-roundtrip")
    cfg = physec.wifi_like_config()
    all_schemes = list(physec.SCHEME_ORDER)
    digest = hashlib.sha256()
    for schemes in [[s] for s in all_schemes] + [all_schemes]:
        codec = physec.PleCodec(cfg, schemes, physec.KeystreamSeed(key))
        exact = True
        for frame_index in range(ROUNDTRIP_FRAMES):
            payload = rng.integers(0, 2, cfg.payload_bits, dtype=np.uint8)
            tx = codec.encrypt(payload, frame_index)
            if schemes is all_schemes:
                digest.update(tx.data.tobytes())
            rx = physec.awgn_link(tx, math.inf, 0)
            exact &= bool(np.array_equal(codec.decrypt(rx, frame_index), payload))
        checks.record(exact, f"noiseless round-trip exact for {'+'.join(schemes)}")
    return digest.hexdigest()


def measure_setup(config_path: str, seed: int, repeats: int, probe):
    """Median (calibrated, raw) seconds of a fresh interpreter importing
    physec and loading the workload config.

    The benchmark process is pinned to one CPU meanwhile, so the child runs
    on the CPU whose speed the spot readings before and after it measure.
    """
    calibrated, raw = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        before = probe.spot_slowdown()
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", SETUP_SNIPPET, SRC, config_path, str(seed)],
                check=True,
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                timeout=60,
            )
            wall = time.perf_counter() - t0
            after = probe.spot_slowdown()
            raw.append(wall)
            calibrated.append(wall / ((before + after) / 2.0))
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(calibrated), statistics.median(raw)


def timed_pass(physec, config, jobs: int, tracer=None, probe=None):
    """One pass over the workload: (start, end, report bytes).

    With a probe, it samples the machine's speed during the pass. With a
    tracer, the layer wrappers are in place for this pass only and the pass
    runs inside the root span.
    """
    harness = physec.harness
    if probe is not None:
        with probe.sampling():
            return timed_pass(physec, config, jobs, tracer)
    if tracer is None:
        t0 = time.perf_counter()
        data = harness.report_json_bytes(harness.run_experiment(config, jobs=jobs))
        return t0, time.perf_counter(), data
    with bench_trace.patched(tracer, bench_trace.trace_plan(physec)):
        t0 = time.perf_counter()
        report = tracer.call(
            bench_trace.ROOT_SPAN, harness.run_experiment, (config,), {"jobs": jobs}
        )
        data = harness.report_json_bytes(report)
        return t0, time.perf_counter(), data


def frames_per_pass(report_bytes: bytes, physec, config) -> int:
    """OFDM frames a pass transmits, counted from trials that report a BER."""
    ple = config.raw["ple"]
    per_trial = -(-ple["ber_bits"] // physec.wifi_like_config().payload_bits)
    trials = sum(
        max(entry["metrics"][m]["count"] for m in ("bob_ber", "eve_ber"))
        for entry in json.loads(report_bytes)["results"]
    )
    return trials * per_trial


def machine_info() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def write_spans(tracer, workload: str, seed: int, info: dict) -> str:
    """Write every span of the traced passes, one tab-separated line each."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {json.dumps(info, sort_keys=True)}\n")
        fh.write("sid\tparent\tname\tstart_ns\tend_ns\terror\n")
        for s in tracer.spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.sid}\t{parent}\t{s.name}\t{s.start}\t{s.end}\t{s.error or ''}\n")
    return path


END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def nan_metrics() -> dict:
    return {name: (math.nan, unit) for name, unit in END_TO_END_UNITS.items()}


def run_workload(physec, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str, checks: Checks) -> dict:
    """Run one workload; return {metric: (value, unit)} for the mode.

    Passes cycle through MASTER_SEEDS_PER_RUN master seeds derived from
    seed, so a run's figures average over that many inputs. Metrics that
    cannot be measured because the program failed are NaN; the failure is
    in checks.
    """
    config_path = bench_inputs.write_workload_config(workload, workdir, seed, physec)
    master_seeds = [seed * MASTER_SEEDS_PER_RUN + i for i in range(MASTER_SEEDS_PER_RUN)]
    configs = [checks.attempt("load_config", physec.load_config, config_path, s)
               for s in master_seeds]
    if None in configs:
        return nan_metrics()
    n_trials = len(configs[0].sweep_values) * configs[0].trials
    print(f"workload {workload} seed {seed} master seeds {master_seeds} "
          f"trials/pass {n_trials}")

    # untimed warm-up, which also checks that jobs=2 gives the jobs=1 bytes
    warm = [checks.attempt(f"warm-up jobs={j}", timed_pass, physec, configs[0], j)
            for j in (1, 2)]
    if None in warm:
        return nan_metrics()
    references = {0: warm[0][2]}
    checks.record(warm[1][2] == warm[0][2], "report bytes equal at jobs=1 and jobs=2")

    if trace:
        tracer = bench_trace.Tracer()
        rounds = [("jobs1", 1, None, None), ("traced", 1, tracer, None),
                  ("jobs2", 2, None, None)]
        sections = closed_loop(physec, configs, rounds, seconds, references, checks)
        metrics = {} if checks.failed else traced_metrics(
            sections, tracer, n_trials, workload, seed
        )
    else:
        probe = bench_speed.SpeedProbe()
        setup = checks.attempt(
            "setup", measure_setup, config_path, seed, SETUP_REPEATS, probe
        )
        rounds = [("jobs1", 1, None, probe), ("jobs2", 2, None, None)]
        sections = closed_loop(physec, configs, rounds, seconds, references, checks)
        metrics = nan_metrics()
        if not checks.failed:
            metrics.update(timed_metrics(sections, probe, n_trials))
        if setup is not None:
            checks.record(True, "fresh interpreter imports physec and loads the config")
            metrics["setup_s"] = (setup[0], "s")
            print(f"info raw setup_s {setup[1]!r} s")

    for i, data in sorted(references.items()):
        print(f"report_sha256 master_seed={master_seeds[i]} {hashlib.sha256(data).hexdigest()}")
    frames = sum(frames_per_pass(data, physec, configs[0]) for data in references.values())
    if frames and sections["jobs1"]:
        mean_pass = statistics.fmean(b - a for a, b in sections["jobs1"])
        print(f"info raw frames_per_s {frames / len(references) / mean_pass!r} frames/s "
              f"({frames / len(references):g} frames per pass)")
    if workload == "ple_link":
        for data in references.values():
            checks.attempt("eve_ber check", check_eve_ber, checks, data)
        digest = checks.attempt("round-trip", check_ple_roundtrip, checks, physec, seed)
        print(f"ciphertext_sha256 {digest}")
    return metrics


def closed_loop(physec, configs, rounds, seconds: float, references: dict, checks):
    """Run rounds of passes until seconds have passed, and at least one
    round per config; return {round name: [(start, end), ...]}.

    A round runs one pass per entry of rounds, a list of (name, jobs,
    tracer or None, probe or None), on the next config in turn. Each pass
    is one closed-loop request: the next starts when it has returned. Its
    report bytes must equal the first jobs=1 report of the same config,
    kept in references.
    """
    sections = {key: [] for key, *_ in rounds}
    deadline = time.perf_counter() + seconds
    done = 0
    while not checks.failed:
        index = done % len(configs)
        for key, jobs, tracer, probe in rounds:
            result = checks.attempt(
                f"{key} pass", timed_pass, physec, configs[index], jobs, tracer, probe
            )
            if result is None:
                continue
            sections[key].append(result[:2])
            expected = references.setdefault(index, result[2])
            checks.record(
                result[2] == expected,
                f"{key} pass of master seed {configs[index].master_seed} "
                "reproduces its report bytes",
                quiet=True,
            )
        done += 1
        if done >= len(configs) and time.perf_counter() >= deadline:
            break
    passes = {key: len(s) for key, s in sections.items()}
    print(f"passes {json.dumps(passes, sort_keys=True)}, each compared with "
          "the first report of its master seed")
    return sections


def timed_metrics(sections, probe, n_trials) -> dict:
    """trials_per_s from the median calibrated pass time, and peak_rss_mb.

    A jobs=1 pass is calibrated by the probe samples taken during it. A
    jobs=2 pass runs in worker processes on both CPUs, which a probe in this
    process cannot sample without competing with them, so the median jobs=2
    pass is calibrated by the median slowdown of the run's jobs=1 passes.
    """
    slowdown = statistics.median(probe.slowdown(a, b) for a, b in sections["jobs1"])
    raw = {key: statistics.median(b - a for a, b in s) for key, s in sections.items()}
    calibrated = {
        "jobs1": statistics.median(probe.calibrate(a, b) for a, b in sections["jobs1"]),
        "jobs2": raw["jobs2"] / slowdown,
    }
    metrics = {"trials_per_s": (n_trials / calibrated["jobs1"], "trials/s")}
    print(f"info raw trials_per_s {n_trials / raw['jobs1']!r} trials/s")
    # printed, not in the JSON: the two worker CPUs change speed independently,
    # so this spreads 7-11% between runs where trials_per_s spreads ~5%
    print(f"metric trials_per_s_jobs2 {n_trials / calibrated['jobs2']!r} trials/s "
          f"(raw {n_trials / raw['jobs2']!r})")
    print(f"info machine slowdown median {slowdown!r} ({len(probe.samples)} probe samples)")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
    )
    return metrics


def traced_metrics(sections, tracer, n_trials, workload, seed) -> dict:
    """Per-layer metrics of the traced passes; times are raw wall times.

    The speed probe is off in a traced run, so that its samples do not
    land in spans.
    """
    walls = {key: [b - a for a, b in s] for key, s in sections.items()}
    median = {key: statistics.median(w) for key, w in walls.items()}
    print(f"info raw trials_per_s {n_trials / median['jobs1']!r} trials/s, "
          f"jobs=2 {n_trials / median['jobs2']!r} trials/s")
    layer = bench_trace.layer_metrics(tracer, len(walls["traced"]), sum(walls["traced"]))
    # half the untraced jobs=1 pass, not half the traced trial times: those
    # carry the wrappers' cost, which would land in the pool figure
    layer["harness.pool.overhead_ms"] = (
        1e3 * (median["jobs2"] - median["jobs1"] / 2), "ms"
    )
    layer["tracing.overhead_pct"] = (
        100.0 * (median["traced"] / median["jobs1"] - 1.0), "%"
    )
    n_traced = tracer.counts["harness.run_single_trial.calls"]
    print(f"info harness.run_single_trial.ms_tail is p"
          f"{bench_trace.tail_percentile(n_traced):g} of {n_traced} trials")
    path = write_spans(tracer, workload, seed, machine_info())
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return layer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        physec = import_physec()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("machine " + " ".join(f"{k}={v}" for k, v in machine_info().items()))

    checks = Checks()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as workdir:
        metrics = run_workload(
            physec, args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, checks,
        )
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {checks.error_rate!r} ratio "
          f"({checks.failed} failed of {checks.attempted} attempted)")
    for failure in checks.failures:
        print(f"failure: {failure}")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            k: {"value": None if math.isnan(v) else v, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
