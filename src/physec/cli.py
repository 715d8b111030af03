"""Command-line front end for batch experiments.

Subcommands: ``run`` (execute an experiment config and emit a report),
``validate`` (schema-check a config, reporting every violation),
``trace-stats`` (summarize a measured probing trace), and ``selftest``
(exhaustive block-code and sketch/recover oracles).

Exit codes: 0 success, 1 config or input error, 2 environment error (an
unreadable or unwritable path) or selftest failure. The environment
variables PHYSEC_OUT_DIR and PHYSEC_JOBS override the report directory and
the parallelism degree; nothing else is configurable from the environment.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from .bits import BitKey
from .blockcode import hamming74, repetition41
from .channel import pearson_correlation
from .distill import recover, sketch
from .errors import ConfigError, DecodeFailure, DegenerateInputError, PhysecError
from .harness import load_config, report_bytes, run_experiment
from .probing import align_timestamps, read_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physec",
        description="Key-generation and physical-layer-encryption experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument(
        "--out",
        default=None,
        help="report file (default: stdout; PHYSEC_OUT_DIR overrides its directory)",
    )
    run.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker count (default: PHYSEC_JOBS or 1)",
    )

    val = sub.add_parser("validate", help="schema-check a config")
    val.add_argument("config", help="path to a JSON experiment config")

    stats = sub.add_parser("trace-stats", help="summarize a probing trace CSV")
    stats.add_argument("trace", help="path to a trace CSV")

    sub.add_parser("selftest", help="run the exhaustive code and sketch oracles")
    return parser


def _resolve_jobs(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("PHYSEC_JOBS")
    if env is None:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ConfigError([f"PHYSEC_JOBS must be an integer, got {env!r}"]) from None


def _resolve_out(out, scenario: str, fmt: str):
    """Apply the PHYSEC_OUT_DIR directory override; None means stdout."""
    out_dir = os.environ.get("PHYSEC_OUT_DIR")
    if out is None and out_dir is None:
        return None
    name = os.path.basename(out) if out else f"{scenario}.{fmt}"
    if out_dir:
        return os.path.join(out_dir, name)
    return out


def _cmd_run(args) -> int:
    config = load_config(args.config, master_seed=args.seed)
    report = run_experiment(config, jobs=_resolve_jobs(args.jobs))
    data = report_bytes(report, args.format)
    path = _resolve_out(args.out, config.scenario, args.format)
    if path is None:
        sys.stdout.write(data.decode())
    else:
        with open(path, "wb") as fh:
            fh.write(data)
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    print(
        f"ok: {args.config} sweeps {config.sweep_parameter} over "
        f"{len(config.sweep_values)} values x {config.trials} trials"
    )
    return 0


def _cmd_trace_stats(args) -> int:
    alice, bob, tau = read_trace(args.trace)
    x_a, x_b, _ = align_timestamps(alice, bob, tau)
    print(f"probes kept: alice {len(alice)}, bob {len(bob)}")
    print(f"inferred tau: {tau:g}")
    print(f"aligned pairs: {x_a.size}")
    for name, x in (("rss_a", x_a), ("rss_b", x_b)):
        if x.size:
            print(
                f"{name}: mean {x.mean():.4g}, std {x.std(ddof=1) if x.size > 1 else 0.0:.4g}, "
                f"range [{x.min():.4g}, {x.max():.4g}]"
            )
    if x_a.size >= 2:
        try:
            print(f"corr(rss_a, rss_b): {pearson_correlation(x_a, x_b):.4f}")
        except DegenerateInputError:
            print("corr(rss_a, rss_b): undefined (zero variance)")
    return 0


def _selftest_checks():
    code = hamming74()
    cw = code.codewords()
    dist = [
        int(np.sum(a != b)) for a, b in itertools.combinations(cw, 2)
    ]
    members = {w.tobytes() for w in cw}
    linear = all(
        ((a ^ b).tobytes() in members) for a in cw for b in cw
    )
    yield (
        "hamming74 structure",
        len(cw) == 16 and min(dist) == 3 and linear,
        f"16 codewords, min distance {min(dist)}, linear={linear}",
    )

    cases = failures = 0
    for value in range(1 << code.n_code):
        k_a = BitKey(
            (value >> np.arange(code.n_code - 1, -1, -1)) & 1
        )
        sk = sketch(k_a, code, rng_seed=value)
        for err in range(-1, code.n_code):
            noisy = k_a.bits.copy()
            if err >= 0:
                noisy[err] ^= 1
            cases += 1
            if not np.array_equal(recover(BitKey(noisy), sk, code).bits, k_a.bits):
                failures += 1
    yield (
        "hamming74 sketch/recover identity",
        failures == 0,
        f"{cases - failures}/{cases} single-error cases exact",
    )

    rep = repetition41()
    ok = True
    for msg in (0, 1):
        word = rep.encode(np.array([msg], dtype=np.uint8))
        for positions in itertools.combinations(range(rep.n_code), 2):
            noisy = word.copy()
            noisy[list(positions)] ^= 1
            try:
                rep.decode_batch(noisy[None])
                ok = False
            except DecodeFailure:
                pass
        for position in range(rep.n_code):
            noisy = word.copy()
            noisy[position] ^= 1
            if rep.decode_batch(noisy[None])[0, 0] != msg:
                ok = False
    yield (
        "rep41 bounded-distance decoding",
        ok,
        "weight-1 corrected, weight-2 refused",
    )


def _cmd_selftest(_args) -> int:
    all_ok = True
    for name, ok, detail in _selftest_checks():
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"selftest: {'ok' if all_ok else 'FAILED'}")
    return 0 if all_ok else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "trace-stats": _cmd_trace_stats,
        "selftest": _cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    except PhysecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
