"""The benchmark finds every physec name it wraps or reads.

perfbench/bench_trace.py wraps each layer's functions at the names their
callers look them up under, through owner.__dict__, and the rest of
perfbench/ reads physec's public names. A binding the program drops would
otherwise surface only in a failed benchmark run or in the perfbench suite.
"""
import ast
import functools
import importlib.util
import os
import sys

import physec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_module(monkeypatch, name):
    """perfbench/<name>.py loaded read-only under a private module name.

    The perfbench directory is on sys.path while it loads, for its plain
    imports of its siblings; the siblings leave sys.modules again after.
    """
    bench_dir = os.path.join(ROOT, "perfbench")
    path = os.path.join(bench_dir, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_physec_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    monkeypatch.syspath_prepend(bench_dir)
    siblings = {f[:-3] for f in os.listdir(bench_dir) if f.endswith(".py")}
    loaded = siblings - set(sys.modules)
    spec.loader.exec_module(module)
    for sibling in loaded:
        sys.modules.pop(sibling, None)
    return module


def test_every_traced_binding_is_in_its_owner(monkeypatch):
    plan = _perfbench_module(monkeypatch, "bench_trace").trace_plan(physec)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in plan
        if attr not in owner.__dict__
    ]
    assert plan
    assert missing == []


def _chain(node):
    """The dotted name of an attribute chain rooted at a bare name, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _physec_chains(path):
    """Every physec.<name>... chain that a file reads, each alias such as
    harness = physec.harness read as the chain it stands for."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    aliases = {"physec": "physec"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], _chain(node.value)
            if isinstance(target, ast.Name) and value and value.startswith("physec."):
                aliases[target.id] = value
    inner = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            root, _, rest = (_chain(node) or "").partition(".")
            if root in aliases:
                chains.add(f"{aliases[root]}.{rest}")
        elif isinstance(node, ast.Import):
            chains.update(a.name for a in node.names if a.name.startswith("physec."))
    return chains


def test_every_name_the_benchmark_reads_resolves():
    # ast, not a regex: metric strings such as "harness.pool.overhead_ms"
    # look like names but are not
    files = ("run.py", "bench_inputs.py", "test_perfbench.py")
    chains = set().union(
        *(_physec_chains(os.path.join(ROOT, "perfbench", f)) for f in files)
    )
    missing = []
    for chain in sorted(chains):
        try:
            functools.reduce(getattr, chain.split(".")[1:], physec)
        except AttributeError:
            missing.append(chain)
    assert {"physec.read_trace_records", "physec.awgn_link"} <= chains
    assert "physec.harness.config_from_dict" in chains
    assert missing == []


# the SHA-256 of the all-schemes ciphertext frames that perfbench/run.py's
# noiseless round-trip check hashes, per seed
ROUNDTRIP_DIGESTS = {
    1: "832818345b4dd6157b17adb72ed0bb326236d80843a0c3109fd919bc0964a2a3",
    7: "eaa8758c171045f1eaac26618884f20cb63af2e7701c895392b5713de69c3bec",
}


def test_benchmark_roundtrip_bytes_are_pinned(monkeypatch):
    run = _perfbench_module(monkeypatch, "run")
    for seed, want in ROUNDTRIP_DIGESTS.items():
        checks = run.Checks()
        assert run.check_ple_roundtrip(checks, physec, seed) == want, seed
        assert checks.attempted == 7 and checks.failed == 0, checks.failures
