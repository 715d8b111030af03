"""What a fresh interpreter loads.

scipy.signal and scipy.special take ~1.1 s to import, and the process pool
~35 ms. Importing physec, loading or validating a config and reading a trace
use neither, so they must stay unloaded until a channel is simulated or a
pool runs. Each case runs in its own interpreter, because the test process
has long since imported everything. The last test checks that physec's
__all__ lists every public name the package binds, once, and that each
physec.<submodule> attribute is that submodule.
"""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import physec
from physec.channel import ChannelParams, generate_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SNR_SWEEP = os.path.join(ROOT, "demos", "configs", "snr_sweep.json")


def _heavy(modules):
    return sorted(
        m for m in modules
        if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process"
    )


def _run(script, *args):
    """Run script in a fresh interpreter and return the JSON value it prints
    on its last line of output."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + (
        os.pathsep + path if path else ""
    ))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


MODULES = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"


@pytest.fixture()
def trace_path(tmp_path):
    trace = generate_trace(ChannelParams(snr_db=25.0, n_probes=200, rng_seed=0))
    rows = ["timestamp_a,rss_a,timestamp_b,rss_b"]
    rows += [
        f"{float(ta)!r},{float(xa)!r},{float(tb)!r},{float(xb)!r}"
        for ta, xa, tb, xb in zip(trace.t_a, trace.x_a, trace.t_b, trace.x_b)
    ]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


LIBRARY = """
import json, sys
import physec
physec.load_config(sys.argv[1])
with open(sys.argv[1], encoding="utf-8") as fh:
    physec.harness.config_from_dict(json.load(fh))
alice, bob, tau = physec.read_trace(sys.argv[2])
assert physec.align_timestamps(alice, bob, tau)[0].size > 0
"""

CLI = """
import sys
from physec.cli import main
assert main(sys.argv[1:]) == 0
"""


@pytest.mark.parametrize(
    "script, argv",
    [
        (LIBRARY, lambda trace: [SNR_SWEEP, trace]),
        (CLI, lambda trace: ["validate", SNR_SWEEP]),
        (CLI, lambda trace: ["trace-stats", trace]),
    ],
    ids=["library", "cli-validate", "cli-trace-stats"],
)
def test_config_and_trace_tools_load_no_scipy_or_pool(script, argv, trace_path):
    assert _heavy(_run(script + MODULES, *argv(trace_path))) == []


def test_importing_physec_loads_numpy_random_only_if_numpy_does():
    # numpy 2 loads numpy.random at first use, ~30 ms that a fresh
    # interpreter loading a config need not pay; physec.rng imports it when
    # it first seeds generators
    numpy_alone = _run("import numpy" + MODULES)
    package = _run("import physec" + MODULES)
    assert ("numpy.random" in package) == ("numpy.random" in numpy_alone)


def test_simulating_a_channel_loads_the_filter():
    # scipy.signal imports scipy.special itself, so only the filter's
    # module is checked here
    script = (
        "from physec import ChannelParams, generate_trace\n"
        "generate_trace(ChannelParams(n_probes=50))" + MODULES
    )
    assert "scipy.signal" in _run(script)


POOL = """
import json, sys
from physec.harness import config_from_dict, report_json_bytes, run_experiment
cfg = config_from_dict(json.loads(sys.argv[1]))
parallel = report_json_bytes(run_experiment(cfg, jobs=2))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
serial = report_json_bytes(run_experiment(cfg, jobs=1))
print(json.dumps({"same": parallel == serial, "scipy": loaded}))
"""


def test_pool_run_matches_serial_and_loads_filter_in_parent_only_to_simulate(
    trace_path,
):
    simulated = {
        "scenario": "pool",
        "channel": {"n_probes": 150},
        "ple": {"ber_bits": 0},
        "sweep": {"parameter": "channel.snr_db", "values": [10.0, 30.0]},
        "trials": 3,
    }
    out = _run(POOL, json.dumps(simulated))
    assert out["same"]
    # forked workers inherit the filter rather than each importing it
    assert "scipy.signal" in out["scipy"]

    replayed = {
        "scenario": "pool-trace",
        "trace_file": trace_path,
        "ple": {"ber_bits": 0},
        "sweep": {"parameter": "amplify_out_len", "values": [32, 64]},
        "trials": 2,
    }
    out = _run(POOL, json.dumps(replayed))
    assert out["same"]
    assert out["scipy"] == []


def test_public_api_lists_each_bound_name_once():
    names = physec.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(physec, name)] == []
    bound = {
        name
        for name, value in vars(physec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(names)) == []
    # no bound name shadows a submodule: physec.keystream is the module
    for info in pkgutil.iter_modules(physec.__path__):
        module = importlib.import_module(f"physec.{info.name}")
        assert getattr(physec, info.name) is module, info.name
