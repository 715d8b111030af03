import hashlib
import json
import math
import os

import numpy as np
import pytest

from physec.bits import STAGE_AMPLIFIED, BitKey, bit_fraction_differing
from physec.blockcode import code_by_id
from physec.channel import ChannelParams, generate_trace
from physec.distill import amplify, recover, sketch, syndrome_bits_leaked
from physec import harness
from physec.errors import ConfigError, ParameterError, PhysecError
from physec.harness import (
    _ber_trial,
    _eve_distillation,
    _quantize_outcome,
    _resolve_point,
    CSV_COLUMNS,
    METRIC_NAMES,
    canonical_json_bytes,
    config_from_dict,
    key_generation_trial,
    load_config,
    load_trace_csv,
    report_bytes,
    report_csv_text,
    report_json_bytes,
    run_experiment,
    run_single_trial,
)
from physec.keystream import KeystreamSeed
from physec.ofdm import awgn_link, ebn0_db_to_snr_db, wifi_like_config
from physec.ple import SCHEME_ORDER, PleCodec
from physec.probing import align_timestamps, apply_loss, read_trace_records
from physec.quantize import CdfConfig, MeanSigmaConfig, intersect_kept_indices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def validate_config(raw) -> list:
    """Every violation config_from_dict raises for raw; empty when valid."""
    try:
        config_from_dict(raw)
    except ConfigError as exc:
        return exc.violations
    return []


GOOD_TRACE = """timestamp_a,rss_a,timestamp_b,rss_b
1.0,-51.0,0.0,-50.5
2.0,-48.0,1.0,-47.5
3.0,-52.5,2.0,-52.0
"""


def _fast_cfg(**overrides):
    cfg = {
        "scenario": "test",
        "channel": {"n_probes": 200},
        "ple": {"ber_bits": 0},
        "sweep": {"parameter": "channel.snr_db", "values": [30.0]},
        "trials": 4,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def test_empty_config_is_valid_defaults():
    assert validate_config({}) == []
    cfg = config_from_dict({})
    assert cfg.scenario == "unnamed"
    assert cfg.trials == 20
    assert cfg.sweep_parameter == "channel.snr_db"
    assert cfg.sweep_values == [30.0]
    assert cfg.raw["code_id"] == "hamming74"


def test_validation_reports_every_violation():
    out = validate_config(
        {"trials": 0, "quantizer": {"algorithm": "fuzzy"}, "code_id": "golay"}
    )
    assert any("trials" in v for v in out)
    assert any("quantizer" in v for v in out)
    assert any("golay" in v for v in out)
    assert len(out) >= 3


def test_validation_sweep_shape():
    assert any(
        "sweep" in v
        for v in validate_config(
            {"sweep": {"parameter": "channel.snr_db", "values": [1.0], "extra": 1}}
        )
    )
    assert any(
        "config path" in v
        for v in validate_config({"sweep": {"parameter": "nope.path", "values": [1]}})
    )
    assert any(
        "sweep itself" in v
        for v in validate_config({"sweep": {"parameter": "sweep.values", "values": [1]}})
    )
    assert any(
        "nonempty" in v
        for v in validate_config({"sweep": {"parameter": "trials", "values": []}})
    )


def test_validation_sweep_values_checked_individually():
    out = validate_config(
        {"sweep": {"parameter": "channel.temporal_correlation", "values": [0.5, 2.0]}}
    )
    assert any("sweep value 2.0" in v for v in out)


def test_validation_unknown_top_level():
    assert any("unknown top-level" in v for v in validate_config({"chanel": {}}))


def test_validation_non_dict_root():
    assert validate_config([1, 2]) == ["config root must be a JSON object"]


def test_validation_rejects_phase_noise_too_large_for_mapping():
    noisy = {"noise_enabled": True, "noise_scale": 0.8}
    out = validate_config({"ple": {"schemes": ["phase"], "phase": noisy}})
    assert any("noise_scale" in v and "qpsk" in v for v in out)
    with pytest.raises(ConfigError):
        config_from_dict({"ple": {"schemes": ["phase"], "phase": noisy}})
    # the perturbation is only applied, and checked, when phase is enabled
    assert validate_config({"ple": {"schemes": ["xor"], "phase": noisy}}) == []
    ok = {"noise_enabled": True, "noise_scale": 0.5}
    assert validate_config({"ple": {"schemes": ["phase"], "phase": ok}}) == []
    qam = {"mapping": "16qam", "data_carriers": list(range(1, 49))}
    out = validate_config({"ple": {"schemes": ["phase"], "phase": ok, "ofdm": qam}})
    assert any("noise_scale" in v and "16qam" in v for v in out)
    out = validate_config(
        {
            "ple": {"schemes": ["phase"], "phase": ok},
            "sweep": {"parameter": "ple.phase.noise_scale", "values": [0.5, 0.8]},
        }
    )
    assert len(out) == 1 and out[0].startswith("sweep value 0.8: ")


def test_config_error_carries_all_violations():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"trials": 0, "code_id": "golay"})
    assert len(err.value.violations) >= 2


def test_config_hash_is_sha256_of_canonical_file(tmp_path):
    raw = {"scenario": "hash-check", "trials": 2}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw, indent=4))
    cfg = load_config(str(path))
    assert cfg.config_hash == hashlib.sha256(canonical_json_bytes(raw)).hexdigest()
    # formatting does not matter, content does
    path.write_text(json.dumps(raw))
    assert load_config(str(path)).config_hash == cfg.config_hash


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_master_seed_override():
    cfg_a = config_from_dict({"scenario": "s"})
    cfg_b = config_from_dict({"scenario": "s"}, master_seed=7)
    assert cfg_a.master_seed == 0 and cfg_b.master_seed == 7
    assert cfg_a.config_hash == cfg_b.config_hash


def test_points_are_resolved_once_at_load(monkeypatch):
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 150},
            ple={"ber_bits": 200},
            sweep={"parameter": "ple.ebn0_db", "values": [0.0, 4.0, 8.0, 12.0]},
            trials=2,
        )
    )
    assert len(cfg.points) == len(cfg.sweep_values)
    expected = report_json_bytes(run_experiment(cfg))

    def refuse(*args):
        raise AssertionError("run_experiment resolved a sweep point again")

    monkeypatch.setattr(harness, "_resolve_point", refuse)
    monkeypatch.setattr(harness, "_apply_sweep", refuse)
    for jobs in (1, 2):
        assert report_json_bytes(run_experiment(cfg, jobs=jobs)) == expected


def test_master_seed_override_reaches_every_point():
    raw = _fast_cfg(sweep={"parameter": "channel.snr_db", "values": [10.0, 30.0]})
    assert [p.master_seed for p in config_from_dict(raw).points] == [0, 0]
    assert [p.master_seed for p in config_from_dict(raw, 7).points] == [7, 7]
    # a master_seed sweep sets each point's seed, so an override is rejected
    raw = _fast_cfg(sweep={"parameter": "master_seed", "values": [3, 4]})
    assert [p.master_seed for p in config_from_dict(raw).points] == [3, 4]
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw, master_seed=7)
    assert err.value.violations == [
        "master seed 7 cannot override the master_seed sweep"
    ]


def test_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(GOOD_TRACE)
    alice, bob = read_trace_records(str(path))
    assert len(alice) == len(bob) == 3
    x_a, x_b = load_trace_csv(str(path))
    assert list(x_a) == [-51.0, -48.0, -52.5]
    assert list(x_b) == [-50.5, -47.5, -52.0]


def test_trace_lost_probe_round_excluded(tmp_path):
    content = (
        "timestamp_a,rss_a,timestamp_b,rss_b\n"
        "1.0,-51.0,0.0,-50.5\n"
        "2.0,-48.0,,\n"
        "3.0,-52.5,2.0,-52.0\n"
    )
    path = tmp_path / "trace.csv"
    path.write_text(content)
    x_a, x_b = load_trace_csv(str(path))
    assert list(x_a) == [-51.0, -52.5]
    assert list(x_b) == [-50.5, -52.0]


def test_trace_error_rows_cited(tmp_path):
    rows = ["timestamp_a,rss_a,timestamp_b,rss_b"]
    rows += [f"{i + 1}.0,-50.{i},{i}.0,-49.{i}" for i in range(5)]
    rows.append("6.0,not-a-number,5.0,-49.9")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParameterError, match=":7:"):
        read_trace_records(str(path))


def test_trace_structural_errors(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("")
    with pytest.raises(ParameterError, match="empty"):
        read_trace_records(str(path))
    path.write_text("time,rss\n1,2\n")
    with pytest.raises(ParameterError, match="header"):
        read_trace_records(str(path))
    path.write_text("timestamp_a,rss_a,timestamp_b,rss_b\n1.0,-50.0,0.0\n")
    with pytest.raises(ParameterError, match="4 cells"):
        read_trace_records(str(path))
    path.write_text("timestamp_a,rss_a,timestamp_b,rss_b\n1.0,,0.0,-50.0\n")
    with pytest.raises(ParameterError, match="half-empty"):
        read_trace_records(str(path))
    path.write_text(
        "timestamp_a,rss_a,timestamp_b,rss_b\n"
        "1.0,-50.0,0.0,-49.0\n1.0,-51.0,2.0,-48.0\n"
    )
    with pytest.raises(ParameterError, match="duplicate"):
        read_trace_records(str(path))


def test_trace_decreasing_timestamp_cited(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp_a,rss_a,timestamp_b,rss_b\n"
        "2.0,-50.0,1.0,-49.0\n"
        "3.0,-51.0,0.5,-48.0\n"
    )
    with pytest.raises(ParameterError, match=":3: decreasing b timestamp"):
        read_trace_records(str(path))


def test_high_snr_always_agrees():
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 600},
            sweep={"parameter": "channel.snr_db", "values": [60.0]},
            trials=10,
        )
    )
    report = run_experiment(cfg)
    agg = report["results"][0]["metrics"]["key_agreement_rate"]
    assert agg == {"mean": 1.0, "stderr": 0.0, "count": 10}
    assert report["results"][0]["errors"] == {}


def test_reports_byte_identical_across_jobs(monkeypatch):
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 150},
            sweep={"parameter": "channel.snr_db", "values": [10.0, 30.0]},
            trials=3,
        )
    )
    serial = report_json_bytes(run_experiment(cfg, jobs=1))
    # no link: each point runs in min(jobs, 3) batches, seeded at once
    for jobs in (2, 3):
        assert report_json_bytes(run_experiment(cfg, jobs=jobs)) == serial
    # a link point whose batch link raises: its trials cross one at a time,
    # in workers forked from this process with the failing codec
    linked = config_from_dict({**BATCHED, "trials": 5})
    _failing_codec(monkeypatch, _trial(linked.points[1], 1, 3)[2][0])
    serial = report_json_bytes(run_experiment(linked, jobs=1))
    assert b'"ple: no link for this key":1' in serial
    assert report_json_bytes(run_experiment(linked, jobs=2)) == serial


def test_kdr_monotone_in_snr():
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 400},
            sweep={"parameter": "channel.snr_db", "values": [0.0, 10.0, 20.0, 30.0]},
            trials=50,
        )
    )
    report = run_experiment(cfg)
    kdrs = [entry["metrics"]["kdr"]["mean"] for entry in report["results"]]
    assert all(b <= a for a, b in zip(kdrs, kdrs[1:]))
    assert kdrs[0] > 0.1


def test_distant_eavesdropper_worse_than_bob():
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 400, "eve_correlation": 0.5},
            sweep={"parameter": "channel.snr_db", "values": [20.0]},
            trials=30,
        )
    )
    entry = run_experiment(cfg)["results"][0]["metrics"]
    assert entry["eve_kdr"]["mean"] > entry["kdr"]["mean"]


def test_per_trial_errors_recorded_not_raised():
    cfg = config_from_dict(_fast_cfg(channel={"n_probes": 30}, trials=5))
    report = run_experiment(cfg)
    entry = report["results"][0]
    assert entry["errors"]
    assert all("amplify" in msg for msg in entry["errors"])
    assert sum(entry["errors"].values()) == 5
    # keys never materialize, so agreement is all failures, not missing
    assert entry["metrics"]["key_agreement_rate"]["mean"] == 0.0


def test_rates_stay_in_unit_interval():
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 300},
            sweep={"parameter": "channel.snr_db", "values": [5.0, 25.0]},
            trials=10,
        )
    )
    report = run_experiment(cfg)
    rate_names = [n for n in METRIC_NAMES if n.endswith("rate")]
    for entry in report["results"]:
        for name in rate_names:
            agg = entry["metrics"][name]
            if agg["mean"] is not None:
                assert 0.0 <= agg["mean"] <= 1.0


def test_sweeping_ple_axis():
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 600, "snr_db": 60.0},
            ple={"ber_bits": 4800},
            sweep={"parameter": "ple.ebn0_db", "values": [2.0, 8.0]},
            trials=3,
        )
    )
    report = run_experiment(cfg)
    bers = [entry["metrics"]["bob_ber"]["mean"] for entry in report["results"]]
    assert bers[0] > bers[1]
    assert all(entry["metrics"]["key_to_data_ratio"]["mean"] == 1.0
               for entry in report["results"])


def test_trace_file_experiment(tmp_path):
    trace = generate_trace(
        ChannelParams(sampling_delay=1.0, snr_db=25.0, n_probes=400, rng_seed=0)
    )
    rows = ["timestamp_a,rss_a,timestamp_b,rss_b"]
    rows += [
        f"{float(ta)!r},{float(xa)!r},{float(tb)!r},{float(xb)!r}"
        for ta, xa, tb, xb in zip(trace.t_a, trace.x_a, trace.t_b, trace.x_b)
    ]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = config_from_dict(
        {
            "scenario": "replay",
            "trace_file": str(path),
            "quantizer": {"algorithm": "cdf", "quantization_level": 2},
            "amplify_out_len": 64,
            "ple": {"ber_bits": 0},
            "sweep": {"parameter": "amplify_out_len", "values": [32, 64]},
            "trials": 4,
        }
    )
    report = run_experiment(cfg)
    for entry in report["results"]:
        assert entry["metrics"]["key_agreement_rate"]["count"] == 4
        # no eavesdropper column in measured traces
        assert entry["metrics"]["eve_kdr"]["count"] == 0
    # same data every trial: kdr has zero spread
    assert report["results"][0]["metrics"]["kdr"]["stderr"] == 0.0


def test_trace_config_rejects_loss_and_channel_sweep(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(GOOD_TRACE)
    out = validate_config(
        {
            "trace_file": str(path),
            "loss": {"loss_probability": 0.1},
            "sweep": {"parameter": "channel.snr_db", "values": [1.0]},
        }
    )
    assert any("loss model" in v for v in out)
    assert any("trace file" in v for v in out)
    assert any(
        "does not exist" in v
        for v in validate_config({"trace_file": str(tmp_path / "missing.csv")})
    )


def _per_frame_ber(keys, raw_point, ber_seed):
    """The BER loop one frame at a time: encrypt, awgn_link, decrypt."""
    ple = raw_point["ple"]
    cfg = wifi_like_config()
    snr_db = ebn0_db_to_snr_db(ple["ebn0_db"], cfg.mapping)
    alice, *receivers = [PleCodec(cfg, ple["schemes"], KeystreamSeed(k)) for k in keys]
    rng = np.random.default_rng(ber_seed)
    errors = [0] * len(receivers)
    n_frames = -(-ple["ber_bits"] // cfg.payload_bits)
    for f in range(n_frames):
        payload = rng.integers(0, 2, cfg.payload_bits, dtype=np.uint8)
        rx = awgn_link(alice.encrypt(payload, f), snr_db, int(rng.integers(1 << 62)))
        for i, codec in enumerate(receivers):
            errors[i] += int(np.count_nonzero(codec.decrypt(rx, f) != payload))
    return tuple(e / (n_frames * cfg.payload_bits) for e in errors)


@pytest.mark.parametrize("ebn0_db", [4.0, math.inf])
def test_ber_trial_matches_per_frame_link(ebn0_db):
    rng = np.random.default_rng(30)
    alice, eve = (
        BitKey(rng.integers(0, 2, 128, dtype=np.uint8), STAGE_AMPLIFIED) for _ in "ae"
    )
    ple = {"schemes": list(SCHEME_ORDER), "ber_bits": 1000}
    raw = config_from_dict(_fast_cfg(ple=ple)).raw
    raw["ple"]["ebn0_db"] = ebn0_db  # +inf: a noiseless link, not expressible in JSON
    point = _resolve_point(raw)
    copy = BitKey(alice.bits.copy(), STAGE_AMPLIFIED)
    off = alice.bits.copy()
    off[17] ^= 1
    # (alice, bob, eve): Bob or Eve holds Alice's own key, an equal copy of
    # it, or one bit off it; Alice's key differs between trials, and no
    # receiver has a key in the last. The trials cross as one link batch.
    cases = [
        (alice, alice, eve),
        (alice, copy, eve),
        (alice, alice, copy),
        (alice, BitKey(off, STAGE_AMPLIFIED), eve),
        (eve, eve, alice),
        (alice, None, None),
    ]
    trials = [(*keys, 31 + i) for i, keys in enumerate(cases)]
    batch = _ber_trial(point, trials)
    assert len(batch) == len(cases)
    for (*keys, ber_seed), bers in zip(trials[:-1], batch):
        assert bers == _per_frame_ber(keys, raw, ber_seed)
        for key, ber in zip(keys[1:], bers):
            if key != keys[0]:
                assert 0.4 < ber < 0.6
            elif ebn0_db == math.inf:
                assert ber == 0.0
    assert all(math.isnan(ber) for ber in batch[-1])
    assert all(math.isnan(ber) for ber in _ber_trial(point, trials[-1:])[0])


def _trial(point, sweep_index, trial_index):
    """run_single_trial of one trial, seeded alone."""
    (seeds,) = harness._trial_seeds(point, sweep_index, [trial_index])
    (probes,) = harness._trial_probes(point, [seeds])
    return run_single_trial(point, seeds, probes)


def test_run_single_trial_shape():
    point = _resolve_point(config_from_dict(_fast_cfg()).raw)
    out = _trial(point, 0, 0)
    metrics, error, link = out
    assert set(metrics) <= set(METRIC_NAMES)
    # key generation only: the link batch fills in the BERs
    assert "bob_ber" not in metrics
    # the batch's table holds the trial's values in METRIC_NAMES order
    values, errors = harness._run_batch(point, 0, [0])
    assert values.shape == (1, len(METRIC_NAMES)) and values.dtype == np.float64
    assert math.isnan(values[0, METRIC_NAMES.index("bob_ber")])
    np.testing.assert_array_equal(
        values[0], [metrics.get(name, math.nan) for name in METRIC_NAMES]
    )
    assert errors == [error]
    again = _trial(point, 0, 0)
    assert out == again
    other = _trial(point, 0, 1)
    assert out != other


# 10 dB with hamming74: some trials' keys disagree, and 50 frames a trial
# make five trials a link batch, so each point's 12 trials run in 3 batches
BATCHED = _fast_cfg(
    channel={"n_probes": 600},
    ple={"schemes": ["xor", "phase", "scramble_freq"], "ber_bits": 4800},
    sweep={"parameter": "channel.snr_db", "values": [10.0, 30.0]},
    trials=12,
)


def test_batched_link_reports_equal_trial_by_trial_at_any_jobs(monkeypatch):
    cfg = config_from_dict(BATCHED)
    assert [len(b) for b in harness._batches(cfg.points[0], cfg.trials)] == [5, 5, 2]
    report = run_experiment(cfg)
    agreed = report["results"][0]["metrics"]["key_agreement_rate"]["mean"]
    assert 0 < agreed < 1
    assert report["results"][0]["metrics"]["bob_ber"]["count"] == cfg.trials
    expected = report_json_bytes(report)
    for jobs in (2, 3):
        assert report_json_bytes(run_experiment(cfg, jobs=jobs)) == expected
    # every trial linked alone
    monkeypatch.setattr(harness, "LINK_FRAMES", 1)
    assert all(len(b) == 1 for b in harness._batches(cfg.points[0], cfg.trials))
    assert report_json_bytes(run_experiment(cfg)) == expected


def _failing_codec(monkeypatch, doomed):
    """Make every codec that keys a frame by the key doomed raise."""
    real = harness.PleCodec

    def codec(cfg, schemes, seeds, phase):
        if any(seed.key == doomed for seed in seeds):
            raise PhysecError("no link for this key")
        return real(cfg, schemes, seeds, phase)

    monkeypatch.setattr(harness, "PleCodec", codec)


def test_a_trial_failing_in_the_batched_link_keeps_its_own_error(monkeypatch):
    point = config_from_dict(BATCHED).points[1]
    want_values, want_errors = harness._run_batch(point, 1, range(5))
    assert not any(want_errors)
    _failing_codec(monkeypatch, _trial(point, 1, 3)[2][0])
    values, errors = harness._run_batch(point, 1, range(5))
    assert errors[3] == "ple: no link for this key"
    bers = [METRIC_NAMES.index("bob_ber"), METRIC_NAMES.index("eve_ber")]
    assert np.isnan(values[3, bers]).all()
    want_errors[3] = errors[3]
    want_values[3, bers] = values[3, bers]
    assert errors == want_errors
    np.testing.assert_array_equal(values, want_values)


def test_a_metric_nothing_computes_has_no_values_at_any_point(monkeypatch):
    # the 30-probe point's trials fail to amplify, the others link their keys
    raw = _fast_cfg(
        ple={"ber_bits": 480},
        sweep={"parameter": "channel.n_probes", "values": [30, 600, 1000]},
    )
    del raw["channel"]
    cfg = config_from_dict(raw)
    want = run_experiment(cfg)
    monkeypatch.setattr(harness, "METRIC_NAMES", (*METRIC_NAMES, "unmeasured"))
    got = run_experiment(cfg)
    assert [r["errors"] != {} for r in got["results"]] == [True, False, False]
    for entry, expected in zip(got["results"], want["results"]):
        metrics = entry["metrics"]
        assert metrics.pop("unmeasured") == {"mean": None, "stderr": None, "count": 0}
        assert metrics["bob_ber"]["count"] == (0 if entry["errors"] else cfg.trials)
        assert entry == expected


def test_pool_starts_no_more_workers_than_batches(monkeypatch):
    import concurrent.futures

    started = []

    class InlinePool:
        """Records its worker count and runs its tasks in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    # 2 points of 12 trials in 3 link batches each, at any jobs; 2 points
    # of 4 trials that run no link, in min(jobs, 4) batches each; and 1
    # point of 7 such trials, which spreads over every worker
    linked = config_from_dict(BATCHED)
    unlinked = config_from_dict(
        _fast_cfg(sweep={"parameter": "channel.snr_db", "values": [10.0, 30.0]})
    )
    single = config_from_dict(_fast_cfg(trials=7))
    for cfg, batches in (
        (linked, {2: 6, 6: 6, 500: 6}),
        (unlinked, {2: 4, 8: 8, 500: 8}),
        (single, {3: 3}),
    ):
        expected = report_json_bytes(run_experiment(cfg))
        for jobs in batches:
            started.clear()
            assert report_json_bytes(run_experiment(cfg, jobs=jobs)) == expected
            assert started == [min(jobs, batches[jobs])]


def test_unlinked_point_is_one_batch_at_one_job_and_spreads_over_jobs(monkeypatch):
    point = config_from_dict(_fast_cfg()).points[0]
    assert harness._batches(point, 7) == [range(0, 7)]
    assert harness._batches(point, 7, jobs=3) == [range(0, 2), range(2, 4), range(4, 7)]
    assert harness._batches(point, 2, jobs=3) == [range(0, 1), range(1, 2)]
    # a batch seeds at most BATCH_TRIALS trials
    monkeypatch.setattr(harness, "BATCH_TRIALS", 3)
    assert harness._batches(point, 7) == [range(0, 2), range(2, 4), range(4, 7)]


def test_csv_report_shape():
    cfg = config_from_dict(
        _fast_cfg(
            sweep={"parameter": "channel.snr_db", "values": [10.0, 30.0]}, trials=2
        )
    )
    report = run_experiment(cfg)
    text = report_csv_text(report)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * len(METRIC_NAMES)
    first = lines[1].split(",")
    assert first[0] == "test"
    assert first[1] == "channel.snr_db"
    assert first[2] == "10.0"


def test_json_report_reloads():
    cfg = config_from_dict(_fast_cfg(trials=2))
    report = run_experiment(cfg)
    blob = report_json_bytes(report)
    parsed = json.loads(blob)
    assert parsed == report
    assert parsed["config_hash"] == cfg.config_hash
    assert parsed["seed"] == 0
    assert report_bytes(report, "json") == blob
    assert report_bytes(report, "csv") == report_csv_text(report).encode()
    with pytest.raises(ParameterError):
        report_bytes(report, "yaml")


def test_jobs_validation():
    cfg = config_from_dict(_fast_cfg(trials=1))
    with pytest.raises(ParameterError):
        run_experiment(cfg, jobs=0)


def _loop_eve_distillation(x_e, quantizer_cfg, outcome_a, common, sk, code, finish):
    """Eve's distillation as written with a per-index dict loop: the reference
    for the vectorised alignment in _eve_distillation."""
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
    bps = outcome_e.bits_per_sample
    eve_bits = np.zeros(common.size * bps, dtype=np.uint8)
    eve_grid = eve_bits.reshape(common.size, bps)
    pos = {int(idx): i for i, idx in enumerate(outcome_e.kept_indices)}
    eve_source = outcome_e.bits.bits.reshape(-1, bps)
    for row, idx in enumerate(common):
        src = pos.get(int(idx))
        if src is not None:
            eve_grid[row] = eve_source[src]
    k_e = BitKey(eve_bits[: sk.s.size])
    try:
        return eve_kdr, finish(recover(k_e, sk, code))
    except PhysecError:
        try:
            return eve_kdr, finish(k_e)
        except PhysecError:
            return eve_kdr, None


@pytest.mark.parametrize(
    "quantizer, code_id",
    [
        (MeanSigmaConfig(0.5), "hamming74"),
        (MeanSigmaConfig(0.8), "rep41"),
        (CdfConfig(2), "hamming74"),
        (CdfConfig(2), "rep41"),
    ],
    ids=["1bit-hamming74", "1bit-rep41", "2bit-hamming74", "2bit-rep41"],
)
def test_eve_alignment_matches_loop_reference(quantizer, code_id):
    code = code_by_id(code_id)
    dropped = keys = 0
    for seed in range(8):
        params = ChannelParams(
            temporal_correlation=0.9, eve_correlation=0.3, n_probes=600, rng_seed=seed
        )
        trace = generate_trace(params)
        x_a, x_b, x_e = trace.x_a, trace.x_b, trace.x_e
        outcome_a = _quantize_outcome(x_a, quantizer)
        outcome_b = _quantize_outcome(x_b, quantizer)
        bits_a, common = intersect_kept_indices(outcome_a, outcome_b.kept_indices)
        usable = len(bits_a) // code.n_code * code.n_code
        sk = sketch(BitKey(bits_a.bits[:usable]), code, seed)
        n_blocks = usable // code.n_code
        leaked = syndrome_bits_leaked(code, n_blocks)

        def finish(key):
            return amplify(key, leaked, 16, b"salt")

        args = (x_e, quantizer, outcome_a, common, sk, code, finish)
        got_kdr, got_key = _eve_distillation(x_e, quantizer, bits_a, *args[3:])
        want_kdr, want_key = _loop_eve_distillation(*args)
        assert got_key == want_key
        keys += got_key is not None
        assert got_kdr == want_kdr or math.isnan(got_kdr) and math.isnan(want_kdr)
        eve_kept = _quantize_outcome(x_e, quantizer).kept_indices
        dropped += np.setdiff1d(common, eve_kept).size
    assert keys > 0
    # the guard band makes Eve drop indices that Alice and Bob kept
    assert (dropped > 0) == isinstance(quantizer, MeanSigmaConfig)


def test_eve_observations_must_pair_with_alice_samples():
    trace = generate_trace(ChannelParams(n_probes=200, rng_seed=4))
    args = (MeanSigmaConfig(0.5), code_by_id("hamming74"), 16, 1, b"salt")
    with pytest.raises(ParameterError, match="one observation per entry of x_a"):
        key_generation_trial(trace.x_a, trace.x_b, *args, x_e=trace.x_e[:-1])
    assert key_generation_trial(trace.x_a, trace.x_b, *args, x_e=trace.x_e).agreed


# report SHA-256 of a two-point linked config at master seed 2^130, whose
# trial entropy runs past SeedSequence's pool, computed while each trial
# built its own SeedSequence
BIG_SEED_REPORT_SHA256 = "a5287ceb386d875cc44b5b9cf6acaaa6dd788d5c7e0afb26695e39c51ce5a7c9"


def test_master_seed_past_2_to_the_128_keeps_its_report():
    raw = _fast_cfg(
        scenario="big-seed",
        ple={"ber_bits": 960},
        sweep={"parameter": "channel.snr_db", "values": [10.0, 30.0]},
        trials=3,
        master_seed=1 << 130,
    )
    report = report_json_bytes(run_experiment(config_from_dict(raw)))
    assert hashlib.sha256(report).hexdigest() == BIG_SEED_REPORT_SHA256


# report SHA-256s of perfbench/configs/keygen.json, computed before the
# probing layer moved to arrays
KEYGEN_REPORT_SHA256 = {
    12: "4ef07c1bdc4e7f538e10a12b30fbd026ed1b36568f885b9f53b1febee89665b0",
    13: "708187aa3267a2af46cf0ef437102d57a1fb07e08b6ddd8bbb88d1e7b2e907a4",
}


# report SHA-256s of perfbench/configs/ple_link.json, computed before the
# keyed draws moved into one kernel and receivers began sharing key material
PLE_LINK_REPORT_SHA256 = {
    12: "aa05e3a91a8dbf1b061276bb5238cb2f123772fdd24ae1e65d7ba58ece2d62b1",
    13: "acabf7acbb2d4ab8989ca2ecacdbdd201680ba46bd14108d0b244646e91b1230",
}


# report SHA-256 of demos/configs/snr_sweep.json at its own master seed (1);
# its PLE stack (xor, phase, scramble_freq) runs through the batch codec
SNR_SWEEP_REPORT_SHA256 = (
    "9dc789be1618d6972904503b32f0b271821e252ea0aff7cbdcc851771b62fa3a"
)


def test_snr_sweep_demo_report_golden_hash():
    cfg = load_config(os.path.join(ROOT, "demos", "configs", "snr_sweep.json"))
    digest = hashlib.sha256(report_json_bytes(run_experiment(cfg))).hexdigest()
    assert digest == SNR_SWEEP_REPORT_SHA256


def _report_sha256(config_name, master_seed):
    path = os.path.join(ROOT, "perfbench", "configs", config_name)
    with open(path, encoding="utf-8") as fh:
        cfg = config_from_dict(json.load(fh), master_seed=master_seed)
    return hashlib.sha256(report_json_bytes(run_experiment(cfg))).hexdigest()


@pytest.mark.parametrize("master_seed", sorted(KEYGEN_REPORT_SHA256))
def test_keygen_report_golden_hash(master_seed):
    digest = _report_sha256("keygen.json", master_seed)
    assert digest == KEYGEN_REPORT_SHA256[master_seed]


@pytest.mark.parametrize("master_seed", sorted(PLE_LINK_REPORT_SHA256))
def test_ple_link_report_golden_hash(master_seed):
    digest = _report_sha256("ple_link.json", master_seed)
    assert digest == PLE_LINK_REPORT_SHA256[master_seed]


# report SHA-256 of a two-trial config shaped like the ple_link benchmark
# (six schemes, 100 frames per trial), taken while every permutation was
# drawn by the per-row kernel
SIX_SCHEME_REPORT_SHA256 = (
    "ac257b4b327dc1cee4068112840e156945f4473a26a03d16abb9802491078113"
)


def test_six_scheme_link_report_golden_hash():
    cfg = config_from_dict(
        {
            "scenario": "six-scheme-link",
            "ple": {"schemes": list(SCHEME_ORDER), "ebn0_db": 8.0, "ber_bits": 9600},
            "trials": 2,
            "master_seed": 21,
        }
    )
    digest = hashlib.sha256(report_json_bytes(run_experiment(cfg))).hexdigest()
    assert digest == SIX_SCHEME_REPORT_SHA256


def _reference_probes(point, seeds):
    """Each trial's aligned (x_a, x_b, x_e) the general way: a one-trial
    trace, its two surviving sides, and timestamp alignment."""
    params = point.channel
    for s in seeds:
        trace = generate_trace(params, s.channel)
        alice, bob = apply_loss(trace, point.loss, s.loss)
        x_a, x_b, rows = align_timestamps(alice, bob, params.sampling_delay)
        yield x_a, x_b, trace.x_e[rows]


# 0 puts both sides on one time; 0.3 and 2.5 make irregular grids, 0.5 an
# evenly interleaved one
@pytest.mark.parametrize("n_probes", [1, 2, 600, 4096])
@pytest.mark.parametrize("loss", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0, 2.5])
def test_grid_front_end_equals_timestamp_alignment(tau, loss, n_probes, monkeypatch):
    cfg = _fast_cfg(
        channel={"n_probes": n_probes, "sampling_delay": tau, "eve_correlation": 0.4},
        loss={"loss_probability": loss},
    )
    point = config_from_dict(cfg).points[0]
    # a one- or two-probe point chunks thousands of trials at once; 16
    # rows take the same path
    cap = min(max(1, harness.PROBE_CELLS // n_probes), 16)
    trials = range(cap + 1)
    want = list(_reference_probes(point, harness._trial_seeds(point, 0, trials)))
    for rows in (1, cap, cap + 1):
        monkeypatch.setattr(harness, "PROBE_CELLS", rows * n_probes)
        seeds = harness._trial_seeds(point, 0, trials)
        got = list(harness._trial_probes(point, seeds))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_irregular_grid_report_equals_timestamp_alignment(monkeypatch):
    cfg = config_from_dict(
        _fast_cfg(
            channel={"n_probes": 600, "sampling_delay": 0.3, "eve_correlation": 0.3},
            loss={"loss_probability": 0.1},
            sweep={"parameter": "channel.snr_db", "values": [10.0, 30.0]},
            trials=20,
        )
    )
    expected = report_json_bytes(run_experiment(cfg))
    assert report_json_bytes(run_experiment(cfg, jobs=2)) == expected
    monkeypatch.setattr(harness, "_trial_probes", _reference_probes)
    assert report_json_bytes(run_experiment(cfg)) == expected


@pytest.mark.parametrize("tau", [4e15, 1e16])
def test_run_refuses_a_grid_whose_rounds_cannot_be_told_apart(tau):
    cfg = config_from_dict(
        _fast_cfg(channel={"sampling_delay": tau}, loss={"loss_probability": 0.2})
    )
    with pytest.raises(ParameterError, match="sampling_delay"):
        run_experiment(cfg)
