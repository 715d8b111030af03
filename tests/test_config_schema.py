"""The experiment config schema: defaults, strict keys and kinds, shipped files."""
import glob
import json
import os
import re

import pytest

from physec import harness
from physec.errors import ConfigError
from physec.harness import config_from_dict, run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def validate_config(raw) -> list:
    """Every violation config_from_dict raises for raw; empty when valid."""
    try:
        config_from_dict(raw)
    except ConfigError as exc:
        return exc.violations
    return []


TRACE = """timestamp_a,rss_a,timestamp_b,rss_b
1.0,-51.0,0.0,-50.5
2.0,-48.0,1.0,-47.5
3.0,-52.5,2.0,-52.0
4.0,-50.1,3.0,-49.8
"""

# (case, config, text the violation must contain): misspelled keys at every
# depth, and values of the wrong kind that the constructors would take or
# crash on
BAD_CONFIGS = [
    ("quantizer.alpah", {"quantizer": {"alpah": 1.0}}, "'alpah'"),
    ("ple.phsae", {"ple": {"phsae": {"bits_per_angle": 2}}}, "'phsae'"),
    ("channel.n_prboes", {"channel": {"n_prboes": 600}}, "'n_prboes'"),
    ("loss.loss_probabilty", {"loss": {"loss_probabilty": 0.1}}, "'loss_probabilty'"),
    (
        "ple.ofdm.mappnig",
        {"ple": {"ofdm": {"mappnig": "qpsk", "data_carriers": [1, 2]}}},
        "'mappnig'",
    ),
    (
        "quantizer.bits_per_sample",
        {"quantizer": {"algorithm": "cdf", "bits_per_sample": 2}},
        "'bits_per_sample'",
    ),
    ("trials-bool", {"trials": True}, "trials"),
    ("master_seed-bool", {"master_seed": True}, "master_seed"),
    ("master_seed-negative", {"master_seed": -1}, "master_seed must be an integer >= 0"),
    (
        "sweep-master_seed-negative",
        {"sweep": {"parameter": "master_seed", "values": [1, -2]}},
        "sweep value -2: master_seed must be an integer >= 0",
    ),
    ("ple.ber_bits-bool", {"ple": {"ber_bits": True}}, "ple.ber_bits"),
    (
        "ple.phase.noise_enabled-int",
        {"ple": {"phase": {"noise_enabled": 1, "noise_scale": 0.1}}},
        "ple.phase.noise_enabled",
    ),
    ("channel.n_probes-fraction", {"channel": {"n_probes": 600.5}}, "channel.n_probes"),
    ("channel.snr_db-string", {"channel": {"snr_db": "30"}}, "channel.snr_db"),
    (
        "sweep-quantizer.bits_per_sample",
        {
            "sweep": {
                "parameter": "quantizer",
                "values": [{"algorithm": "cdf", "bits_per_sample": 2}],
            }
        },
        "'bits_per_sample'",
    ),
]


@pytest.mark.parametrize(
    "raw, field", [case[1:] for case in BAD_CONFIGS], ids=[c[0] for c in BAD_CONFIGS]
)
def test_misspelled_or_mistyped_value_is_rejected(raw, field):
    out = validate_config(raw)
    assert any(field in v for v in out), out
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    # a named violation, never a Python type error's text
    assert not any("not str" in v or "real number" in v for v in err.value.violations)


def test_quantization_level_is_the_cdf_setting():
    raw = {"quantizer": {"algorithm": "cdf", "quantization_level": 2}}
    assert validate_config(raw) == []
    # the merged config lists the level only where the file sets it
    assert "quantization_level" not in config_from_dict({}).raw["quantizer"]
    assert config_from_dict(raw).raw["quantizer"]["quantization_level"] == 2


def test_ofdm_object_is_checked_but_kept_as_written():
    ofdm = {"data_carriers": [1, 2, 3], "n_fft": 8, "cp_len": 2}
    cfg = config_from_dict({"ple": {"ofdm": ofdm}})
    assert cfg.raw["ple"]["ofdm"] == ofdm
    assert any(
        "ple.ofdm.data_carriers" in v
        for v in validate_config({"ple": {"ofdm": {"data_carriers": [1, True]}}})
    )


def test_readme_defaults_match_the_schema():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Experiment configs", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == config_from_dict({}).raw


@pytest.mark.parametrize(
    "path",
    sorted(
        glob.glob(os.path.join(ROOT, "demos", "configs", "*.json"))
        + glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.json"))
    ),
    ids=lambda path: os.path.relpath(path, ROOT),
)
def test_shipped_configs_validate(path):
    with open(path, encoding="utf-8") as fh:
        assert validate_config(json.load(fh)) == []


def test_trace_file_read_once_per_run(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    path.write_text(TRACE)
    calls = []
    original = harness.load_trace_csv

    def counting(trace_path, *args, **kwargs):
        calls.append(trace_path)
        return original(trace_path, *args, **kwargs)

    monkeypatch.setattr(harness, "load_trace_csv", counting)
    cfg = config_from_dict(
        {
            "trace_file": str(path),
            "amplify_out_len": 1,
            "ple": {"ber_bits": 0},
            "sweep": {"parameter": "quantizer.alpha", "values": [0.0, 0.5]},
            "trials": 3,
        }
    )
    report = run_experiment(cfg)
    assert calls == [str(path)]
    assert [entry["trials"] for entry in report["results"]] == [3, 3]


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"ple": {"ebn0_db": Infinity}}', "ple.ebn0_db"),
        ('{"channel": {"snr_db": -Infinity}}', "channel.snr_db"),
        (
            '{"sweep": {"parameter": "ple.ebn0_db", "values": [4.0, Infinity]}}',
            "sweep.values[1]",
        ),
        ('{"quantizer": {"alpha": NaN}}', "quantizer.alpha"),
        ('{"loss": {"loss_probability": Infinity}}', "loss.loss_probability"),
        ('{"ple": {"phase": {"noise_scale": Infinity}}}', "ple.phase.noise_scale"),
        ('{"channel": {"temporal_correlation": NaN}}', "channel.temporal_correlation"),
    ],
    ids=[
        "infinity",
        "minus-infinity",
        "sweep-value",
        "nan",
        "loss-infinity",
        "noise-scale-infinity",
        "correlation-nan",
    ],
)
def test_non_finite_json_number_is_a_named_violation(text, field):
    raw = json.loads(text)
    out = validate_config(raw)
    assert out == [f"{field} must be finite: JSON has no Infinity or NaN"]
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "param, values", [("trials", [1, 5]), ("scenario", ["a", "b"])]
)
def test_sweep_over_a_key_every_point_shares_is_rejected(param, values):
    raw = {
        "channel": {"n_probes": 200},
        "ple": {"ber_bits": 0},
        "trials": 3,
        "sweep": {"parameter": param, "values": values},
    }
    message = f"sweep.parameter {param!r} is shared by every point"
    assert validate_config(raw) == [message]
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "algorithm, ber_bits, param, values",
    [
        ("cdf", 0, "quantizer.alpha", [0.1, 0.9]),
        # CdfConfig takes 1 to 8, but the mean/sigma path never builds one
        ("mean_sigma", 0, "quantizer.quantization_level", [1, 99]),
        # under ber_bits 0 no trial runs the link, and these leave its cost
        ("mean_sigma", 0, "ple.phase.bits_per_angle", [1, 2]),
        ("mean_sigma", 0, "ple.ebn0_db", [4.0, 8.0]),
        (
            "mean_sigma",
            0,
            "ple.ofdm",
            ["wifi64", {"data_carriers": [1, 2, 3], "n_fft": 8, "cp_len": 2}],
        ),
        # the link runs, but the default schemes (xor) leave phase off
        ("mean_sigma", 96, "ple.phase.bits_per_angle", [1, 2]),
        # phase is on, but no codec reads the scale of disabled noise
        ("mean_sigma", 96, "ple.phase.noise_scale", [0.1, 0.2]),
    ],
    ids=[
        "alpha-under-cdf",
        "level-under-mean-sigma",
        "phase-without-link",
        "ebn0-without-link",
        "ofdm-without-link",
        "phase-without-scheme",
        "noise-scale-without-noise",
    ],
)
def test_sweep_that_changes_no_point_is_rejected(algorithm, ber_bits, param, values):
    ple = {"ber_bits": ber_bits}
    if param == "ple.phase.noise_scale":
        ple["schemes"] = ["xor", "phase"]
    raw = {
        "quantizer": {"algorithm": algorithm},
        "channel": {"n_probes": 200},
        "ple": ple,
        "trials": 3,
        "sweep": {"parameter": param, "values": values},
    }
    assert validate_config(raw) == [f"sweep.parameter {param!r} changes no point"]
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    # one value is a single point, not a sweep that shows nothing
    raw["sweep"]["values"] = values[:1]
    assert validate_config(raw) == []


@pytest.mark.parametrize(
    "raw, message",
    [
        # the default sweep runs channel.snr_db at 30 dB
        (
            {"channel": {"snr_db": 10.0}},
            "channel.snr_db is 10.0, but the sweep runs it at [30.0]",
        ),
        (
            {
                "ple": {"ebn0_db": 8.0},
                "sweep": {"parameter": "ple.ebn0_db", "values": [4.0, 6.0]},
            },
            "ple.ebn0_db is 8.0, but the sweep runs it at [4.0, 6.0]",
        ),
        (
            {
                "quantizer": {"alpha": 0.3},
                "sweep": {"parameter": "quantizer", "values": [{"alpha": 0.5}]},
            },
            "quantizer is {'alpha': 0.3}, but the sweep runs it at [{'alpha': 0.5}]",
        ),
    ],
    ids=["default-sweep", "explicit-sweep", "section-sweep"],
)
def test_value_the_sweep_replaces_is_rejected(raw, message):
    assert validate_config(raw) == [message]
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_value_the_sweep_runs_may_be_written():
    sweep = {"parameter": "ple.ebn0_db", "values": [4.0, 8.0]}
    assert validate_config({"channel": {"snr_db": 30.0}}) == []
    assert validate_config({"ple": {"ebn0_db": 8.0}, "sweep": sweep}) == []


@pytest.mark.parametrize(
    "ple, param, values",
    [
        # without the link, the points still differ in its cost
        ({"ber_bits": 0}, "ple.schemes", [["xor"], ["xor", "phase"]]),
        ({"ber_bits": 96}, "ple.ebn0_db", [4.0, 8.0]),
        (
            {"ber_bits": 96, "schemes": ["xor", "phase"]},
            "ple.phase.bits_per_angle",
            [1, 2],
        ),
        (
            {
                "ber_bits": 96,
                "schemes": ["xor", "phase"],
                "phase": {"noise_scale": 0.1},
            },
            "ple.phase.noise_enabled",
            [False, True],
        ),
    ],
    ids=[
        "schemes-without-link",
        "ebn0-with-link",
        "phase-with-scheme",
        "noise-switch-with-scheme",
    ],
)
def test_ple_sweep_that_changes_the_link_or_its_cost_is_accepted(ple, param, values):
    raw = {
        "channel": {"n_probes": 200},
        "ple": ple,
        "trials": 3,
        "sweep": {"parameter": param, "values": values},
    }
    assert validate_config(raw) == []


def test_sweep_over_a_hidden_schema_key():
    raw = {
        "quantizer": {"algorithm": "cdf"},
        "channel": {"n_probes": 200},
        "ple": {"ber_bits": 0},
        "trials": 2,
        "sweep": {"parameter": "quantizer.quantization_level", "values": [1, 2]},
    }
    assert validate_config(raw) == []
    cfg = config_from_dict(raw)
    assert [p.quantizer.quantization_level for p in cfg.points] == [1, 2]
    # the merged config still lists the hidden key only where the file sets it
    assert "quantization_level" not in cfg.raw["quantizer"]
    kdr = [e["metrics"]["kdr"]["mean"] for e in run_experiment(cfg)["results"]]
    assert kdr[0] != kdr[1]
    # a field of an OFDM object, hidden or not, needs an object to live in
    sweep = {"parameter": "ple.ofdm.n_fft", "values": [8]}
    assert validate_config({"sweep": sweep}) == [
        "sweep.parameter 'ple.ofdm.n_fft' is not a config path"
    ]
    ofdm = {"data_carriers": [1, 2, 3], "cp_len": 2}
    assert validate_config({"ple": {"ofdm": ofdm}, "sweep": sweep}) == []
