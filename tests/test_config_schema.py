"""The experiment config schema: defaults, strict keys and kinds, shipped files."""
import glob
import json
import os
import re

import pytest

from physec import harness
from physec.errors import ConfigError
from physec.harness import config_from_dict, run_experiment, validate_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    assert [entry["trials"] for entry in report.results] == [3, 3]


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
    ],
    ids=["infinity", "minus-infinity", "sweep-value", "nan"],
)
def test_non_finite_json_number_is_a_named_violation(text, field):
    raw = json.loads(text)
    out = validate_config(raw)
    assert f"{field} must be finite: JSON has no Infinity or NaN" in out, out
    with pytest.raises(ConfigError):
        config_from_dict(raw)
