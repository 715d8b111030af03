"""Workload inputs for the benchmark, generated from the seed argument.

Each workload is a harness config under ``configs/``. The benchmark writes
the config it runs, and for ``trace_replay`` the probing trace it points at,
into a scratch directory, so every input the program sees comes from the
seed. The seed reaches the program only through
``load_config(path, master_seed=seed)``.
"""
from __future__ import annotations

import json
import os

import numpy as np

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

WORKLOADS = ("snr_sweep", "keygen", "ple_link", "trace_replay")

TRACE_ROWS = 20_000
TRACE_LOSS = 0.05


def write_trace_csv(path: str, seed: int, physec) -> None:
    """Write a simulated probing trace with independent per-side loss.

    Rows follow the harness trace format; a lost probe leaves its side's two
    cells empty. Floats are written as ``repr(float(x))`` because the
    numpy 2 repr of a numpy scalar is not a number the parser accepts.
    """
    params = physec.ChannelParams(
        temporal_correlation=0.99, snr_db=30.0, n_probes=TRACE_ROWS, rng_seed=seed
    )
    trace = physec.generate_trace(params)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7ACE)))
    keep_a = rng.random(TRACE_ROWS) >= TRACE_LOSS
    keep_b = rng.random(TRACE_ROWS) >= TRACE_LOSS
    lines = ["timestamp_a,rss_a,timestamp_b,rss_b"]
    for i in range(TRACE_ROWS):
        a = (
            f"{float(trace.t_a[i])!r},{float(trace.x_a[i])!r}" if keep_a[i] else ","
        )
        b = (
            f"{float(trace.t_b[i])!r},{float(trace.x_b[i])!r}" if keep_b[i] else ","
        )
        lines.append(f"{a},{b}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_workload_config(workload: str, workdir: str, seed: int, physec) -> str:
    """Write the config a workload runs into workdir and return its path."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(CONFIG_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    if workload == "trace_replay":
        trace_path = os.path.join(workdir, "trace.csv")
        write_trace_csv(trace_path, seed, physec)
        raw["trace_file"] = trace_path
    path = os.path.join(workdir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
    return path
