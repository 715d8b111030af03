import json

import pytest

from physec.cli import main

FAST_CONFIG = {
    "scenario": "cli-test",
    "channel": {"n_probes": 150, "snr_db": 30.0},
    "ple": {"ber_bits": 0},
    "sweep": {"parameter": "channel.snr_db", "values": [30.0]},
    "trials": 2,
}

TRACE = """timestamp_a,rss_a,timestamp_b,rss_b
1.0,-51.0,0.0,-50.5
2.0,-48.0,1.0,-47.5
3.0,-52.5,2.0,-52.0
4.0,-50.1,3.0,-49.8
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out
    assert out.strip().endswith("selftest: ok")


def test_validate_ok(config_path, capsys):
    assert main(["validate", config_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"ok: {config_path}")
    assert "1 values x 2 trials" in out


def test_validate_reports_all_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trials": 0, "code_id": "golay"}))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "trials" in err and "golay" in err
    assert all(line.startswith("config error: ") for line in err.splitlines())


def test_run_to_stdout_deterministic(config_path, capsys):
    assert main(["run", config_path]) == 0
    first = capsys.readouterr().out
    assert main(["run", config_path]) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["scenario"] == "cli-test"
    assert parsed["seed"] == 0
    assert len(parsed["results"]) == 1


def test_run_seed_flag_changes_report(config_path, capsys):
    assert main(["run", config_path, "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 5


def test_run_csv_format(config_path, capsys):
    assert main(["run", config_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,sweep_parameter,sweep_value,metric,")
    assert "cli-test" in out


def test_run_to_file(config_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["run", config_path, "--out", str(target)]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    assert json.loads(target.read_text())["scenario"] == "cli-test"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_stdout_equals_out_file(config_path, tmp_path, capsys, fmt):
    assert main(["run", config_path, "--format", fmt]) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / f"report.{fmt}"
    assert main(["run", config_path, "--format", fmt, "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == stdout.encode()


def test_run_out_dir_env(config_path, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    monkeypatch.setenv("PHYSEC_OUT_DIR", str(out_dir))
    # without --out the scenario names the file
    assert main(["run", config_path]) == 0
    capsys.readouterr()
    assert (out_dir / "cli-test.json").exists()
    # with --out only the basename survives the redirect
    assert main(["run", config_path, "--out", "/elsewhere/report.json"]) == 0
    capsys.readouterr()
    assert (out_dir / "report.json").exists()


def test_run_jobs_env(config_path, monkeypatch, capsys):
    monkeypatch.setenv("PHYSEC_JOBS", "2")
    assert main(["run", config_path]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("PHYSEC_JOBS")
    assert main(["run", config_path, "--jobs", "2"]) == 0
    with_flag = capsys.readouterr().out
    assert with_env == with_flag


def test_run_bad_jobs_env(config_path, monkeypatch, capsys):
    monkeypatch.setenv("PHYSEC_JOBS", "many")
    assert main(["run", config_path]) == 1
    assert "PHYSEC_JOBS" in capsys.readouterr().err


def test_run_bad_config_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trials": -3}))
    assert main(["run", str(path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_run_seed_over_a_master_seed_sweep_exit_1(tmp_path, capsys):
    path = tmp_path / "seeds.json"
    sweep = {"parameter": "master_seed", "values": [1, 2]}
    path.write_text(json.dumps({**FAST_CONFIG, "sweep": sweep}))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--seed", "99"]) == 1
    assert capsys.readouterr().err == (
        "config error: master seed 99 cannot override the master_seed sweep\n"
    )


def test_run_negative_master_seed_exit_1(tmp_path, config_path, capsys):
    """A negative seed is one config error, from the file or from --seed,
    not a failure at the first trial."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({**FAST_CONFIG, "master_seed": -1}))
    for argv in (["run", str(path)], ["run", config_path, "--seed", "-3"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: master_seed must be an integer >= 0\n"
        )


def test_run_unwritable_out_exit_2(config_path, tmp_path, capsys):
    missing_dir = tmp_path / "no-such-dir" / "report.json"
    assert main(["run", config_path, "--out", str(missing_dir)]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_stats(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE)
    assert main(["trace-stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "probes kept: alice 4, bob 4" in out
    assert "inferred tau: 1" in out
    assert "aligned pairs: 4" in out
    assert "corr(rss_a, rss_b):" in out


def test_trace_stats_output_is_stable(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE.replace("2.0,-48.0,1.0,-47.5", "2.0,-48.0,,"))
    assert main(["trace-stats", str(path)]) == 0
    assert capsys.readouterr().out == (
        "probes kept: alice 4, bob 3\n"
        "inferred tau: 1\n"
        "aligned pairs: 3\n"
        "rss_a: mean -51.2, std 1.212, range [-52.5, -50.1]\n"
        "rss_b: mean -50.77, std 1.124, range [-52, -49.8]\n"
        "corr(rss_a, rss_b): 0.9980\n"
    )


def test_trace_stats_pairs_decimal_timestamps(tmp_path, capsys):
    # t_b + tau misses t_a by an ulp in about 3 rows of 10; exact equality
    # paired 715 of these 1000 rounds
    lines = ["timestamp_a,rss_a,timestamp_b,rss_b"]
    for i in range(1000):
        t_b = round(0.1 * i + 0.013, 3)
        lines.append(f"{round(t_b + 0.05, 3)!r},{-50.0 - i % 7!r},{t_b!r},{-49.0 - i % 5!r}")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["trace-stats", str(path)]) == 0
    assert "aligned pairs: 1000\n" in capsys.readouterr().out


def test_trace_stats_without_a_complete_row_exit_1(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp_a,rss_a,timestamp_b,rss_b\n1.0,-51.0,,\n,,0.5,-50.0\n")
    assert main(["trace-stats", str(path)]) == 1
    assert "no complete row to infer tau from" in capsys.readouterr().err


def test_run_infinity_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text('{"ple": {"ebn0_db": Infinity}}')
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: ple.ebn0_db must be finite" in err
    assert "Traceback" not in err
    assert main(["validate", str(path)]) == 1


def test_trace_stats_missing_file(tmp_path, capsys):
    assert main(["trace-stats", str(tmp_path / "none.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_trace_exit_1(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text("timestamp_a,rss_a,timestamp_b,rss_b\n1.0,-51.0,0.0,x\n")
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps({"trace_file": str(trace), "ple": {"ber_bits": 0},
                    "sweep": {"parameter": "quantizer.alpha", "values": [0.5]},
                    "trials": 1})
    )
    assert main(["run", str(path)]) == 1
    assert "bad.csv:2: non-numeric b cell" in capsys.readouterr().err


def test_trace_stats_malformed_trace_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(TRACE + "5.0,-50.0,2.5,-49.0\n")
    assert main(["trace-stats", str(path)]) == 1
    assert "decreasing b timestamp" in capsys.readouterr().err


def test_non_finite_rss_trace_exit_1(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text(TRACE.replace("-52.5", "nan") + "5.0,-50.0,4.0,inf\n")
    message = "bad.csv:4: non-finite a value"
    assert main(["trace-stats", str(trace)]) == 1
    assert message in capsys.readouterr().err
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps({"trace_file": str(trace), "ple": {"ber_bits": 0},
                    "sweep": {"parameter": "quantizer.alpha", "values": [0.5]},
                    "trials": 1})
    )
    assert main(["run", str(path)]) == 1
    assert message in capsys.readouterr().err


# a row that is not UTF-8, and a cell longer than the parser's limit
UNREADABLE_ROWS = {
    "not-utf8": (b"5.0,-5\xff0.0,4.0,-49.0\n", "bad.csv:6: bytes that are not UTF-8"),
    "long-cell": (
        b"5.0,-50.0,4.0," + b"4" * 131_073 + b"\n",
        "bad.csv:6: cell longer than 131072 characters",
    ),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_ROWS))
def test_trace_stats_unreadable_row_exit_1(tmp_path, capsys, kind):
    row, message = UNREADABLE_ROWS[kind]
    path = tmp_path / "bad.csv"
    path.write_bytes(TRACE.encode() + row)
    assert main(["trace-stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("kind", sorted(UNREADABLE_ROWS))
def test_run_unreadable_trace_row_exit_1(tmp_path, capsys, kind):
    row, message = UNREADABLE_ROWS[kind]
    trace = tmp_path / "bad.csv"
    trace.write_bytes(TRACE.encode() + row)
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps({"trace_file": str(trace), "ple": {"ber_bits": 0},
                    "sweep": {"parameter": "quantizer.alpha", "values": [0.5]},
                    "trials": 1})
    )
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
