"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""
from __future__ import annotations

import json
import os
import re

import pytest

import bench_inputs
import bench_trace
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

physec = run.import_physec()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY_CONFIGS = {
    "ple_link": {
        "scenario": "tiny-ple-link",
        "ple": {"schemes": list(physec.SCHEME_ORDER), "ber_bits": 1920},
        "sweep": {"parameter": "ple.ebn0_db", "values": [8.0]},
        "trials": 2,
    },
    "keygen": {
        "scenario": "tiny-keygen",
        "channel": {"n_probes": 600, "eve_correlation": 0.3},
        "loss": {"loss_probability": 0.1},
        "code_id": "rep41",
        "ple": {"ber_bits": 0},
        "sweep": {
            "parameter": "quantizer",
            "values": [{"algorithm": "cdf", "quantization_level": 2}],
        },
        "trials": 2,
    },
}


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = bench_trace.Tracer(clock=_fake_clock([0, 10, 20, 50, 60, 70, 100, 130]))

    def grandchild():
        return None

    def child_a():
        tracer.call("m.g", grandchild)

    def child_b():
        return None

    def root():
        tracer.call("m.a", child_a)
        tracer.call("m.b", child_b)

    tracer.call("m.root", root)
    names = [s.name for s in tracer.spans]
    assert names == ["m.root", "m.a", "m.g", "m.b"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    selfs = dict(zip(names, bench_trace.self_times(tracer.spans)))
    assert selfs == {"m.root": 50, "m.a": 20, "m.g": 30, "m.b": 30}
    assert sum(selfs.values()) == tracer.spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [
        bench_trace.Span(0, "p", 0, 100, None),
        bench_trace.Span(1, "c1", 10, 40, 0),
        bench_trace.Span(2, "c2", 30, 60, 0),
        bench_trace.Span(3, "c3", 90, 120, 0),
    ]
    # children cover [10, 60] and [90, 100] of the parent: 60 of 100
    assert bench_trace.self_times(spans)[0] == 40


def test_outer_busy_counts_nested_spans_of_the_set_once():
    spans = [
        bench_trace.Span(0, "m.root", 0, 100, None),
        bench_trace.Span(1, "m.perm", 10, 50, 0),
        bench_trace.Span(2, "m.bits", 20, 30, 1),
        bench_trace.Span(3, "m.bits", 60, 70, 0),
        bench_trace.Span(4, "m.other", 80, 90, 0),
    ]
    assert bench_trace.outer_busy(spans, ["m.perm", "m.bits"]) == 50


def test_key_material_spans_are_named_per_scheme():
    config = physec.harness.config_from_dict(TINY_CONFIGS["ple_link"])
    tracer = bench_trace.Tracer()
    run.timed_pass(physec, config, 1, tracer)
    by_id = {s.sid: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "ple.PleCodec._scheme_bits.scramble_time":
            assert by_id[s.parent].name == "ple.PleCodec._perm.scramble_time"
        if s.name == "ple.phase_encrypt":
            assert by_id[s.parent].name == "ple.PleCodec.encrypt"
    names = {s.name for s in tracer.spans}
    for scheme in ("xor", "phase", "dummy", "scramble_freq"):
        assert f"ple.PleCodec._scheme_bits.{scheme}" in names
    assert "ple.PleCodec._scheme_bits.partial_interleave" not in names


def test_span_records_error_class_and_reraises():
    tracer = bench_trace.Tracer()

    def refuse():
        raise physec.EntropyBudgetError("no budget")

    with pytest.raises(physec.EntropyBudgetError):
        tracer.call("distill.amplify", refuse)
    assert tracer.spans[0].error == "EntropyBudgetError"
    assert tracer.counts["distill.amplify.errors.EntropyBudgetError"] == 1
    assert tracer.spans[0].end >= tracer.spans[0].start


def _plan_originals():
    return [
        (owner, attr, owner.__dict__[attr])
        for owner, attr, _, _ in bench_trace.trace_plan(physec)
    ]


def test_wrappers_are_restored_after_a_traced_pass():
    before = _plan_originals()
    config = physec.harness.config_from_dict(TINY_CONFIGS["ple_link"])
    tracer = bench_trace.Tracer()
    *_, traced_bytes = run.timed_pass(physec, config, 1, tracer)
    assert [(o, a, o.__dict__[a]) for o, a, _ in before] == before
    assert tracer.spans[0].name == bench_trace.ROOT_SPAN
    assert tracer.counts["keystream.keyed_permutation.calls"] > 0
    *_, plain_bytes = run.timed_pass(physec, config, 1)
    assert traced_bytes == plain_bytes


def test_wrappers_are_restored_after_an_exception():
    before = _plan_originals()
    with pytest.raises(RuntimeError):
        with bench_trace.patched(bench_trace.Tracer(), bench_trace.trace_plan(physec)):
            assert physec.harness.amplify is not before[0][2]
            raise RuntimeError("stop")
    assert [(o, a, o.__dict__[a]) for o, a, _ in before] == before


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert bench_trace.tail_percentile(1000) == 99.0
    assert bench_trace.tail_percentile(100) == 90.0
    assert bench_trace.tail_percentile(5) == 50.0


@pytest.fixture
def tiny_bench(tmp_path, monkeypatch):
    """run.main over tiny configs, so a test run takes a few seconds."""
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    for name, raw in TINY_CONFIGS.items():
        (config_dir / f"{name}.json").write_text(json.dumps(raw))
    monkeypatch.setattr(bench_inputs, "CONFIG_DIR", str(config_dir))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    monkeypatch.setattr(run, "MASTER_SEEDS_PER_RUN", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)

    def bench(capsys, workload, trace):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        return code, lines, json.loads(lines[-1])

    return bench


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_names_and_units_match_the_benchmark_file(tiny_bench, capsys, trace, section):
    code, lines, result = tiny_bench(capsys, "ple_link", trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(section)
    for name, unit in emitted.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert isinstance(result["metrics"][name]["value"], float)
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert set(emitted) <= printed and "error_rate" in printed
    if trace:
        for line in lines:
            if line.startswith("spans "):
                spans_file = os.path.join(run.ROOT, line.split(" written to ")[1])
        with open(spans_file, encoding="utf-8") as fh:
            span_names = {row.split("\t")[2] for row in fh.readlines()[2:]}
        assert all(NAME.fullmatch(n) for n in span_names)
        assert {"ple.PleCodec.encrypt", "keystream.keyed_permutation"} <= span_names


def test_a_failed_check_raises_the_error_numerator(tiny_bench, capsys, monkeypatch):
    code, _, passing = tiny_bench(capsys, "ple_link", 0)
    assert code == 0 and passing["failed"] == 0
    monkeypatch.setattr(run, "EVE_BER_RANGE", (0.0, 0.1))
    code, lines, failing = tiny_bench(capsys, "ple_link", 0)
    assert code == 1
    assert failing["correct"] is False
    assert failing["failed"] >= 1
    assert any(line.startswith("failure: eve_ber") for line in lines)


def test_check_counters():
    checks = run.Checks()
    report = {"results": [{"sweep_value": 8.0, "metrics": {"eve_ber": {"mean": 0.2}}}]}
    run.check_eve_ber(checks, json.dumps(report).encode())
    assert (checks.attempted, checks.failed) == (1, 1)
    assert checks.attempt("boom", lambda: 1 / 0) is None
    assert (checks.attempted, checks.failed) == (2, 2)
    assert checks.error_rate == 1.0
    checks.record(True, "fine", quiet=True)
    assert (checks.attempted, checks.failed) == (3, 2)


def test_trace_csv_is_seeded_and_parseable(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    bench_inputs.write_trace_csv(str(first), 5, physec)
    bench_inputs.write_trace_csv(str(second), 5, physec)
    assert first.read_bytes() == second.read_bytes()
    alice, bob = physec.read_trace_records(str(first))
    rows = bench_inputs.TRACE_ROWS
    for side in (alice, bob):
        assert 0.9 * rows < len(side) < rows
    x_a, x_b = physec.load_trace_csv(str(first))
    assert 0.85 * rows < x_a.size == x_b.size < rows


def test_keygen_quantizers_run_without_ple(tiny_bench, capsys):
    code, lines, result = tiny_bench(capsys, "keygen", 1)
    assert code == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ple.frames"] == 0.0
    assert metrics["probing.probes_lost"] > 0
    assert metrics["quantize.kept_fraction"] == 1.0
    # rep41 cannot correct the 2-bit CDF mismatches, so recover raises
    assert metrics["distill.reconcile_failed"] > 0
