"""Every narrative demo runs to completion against the current API, and
prints the same bytes it printed when its output was pinned."""
import glob
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# SHA-256 of each demo's stdout. Every demo seeds its own draws, so its
# output is deterministic; a change that moves these moved a printed number.
STDOUT_SHA256 = {
    "01_channel_reciprocity.py": "49345732928f460e05be6da20052205f459c89362276e39548e354d4f0580dbe",
    "02_quantizers.py": "839f8be68f751caf3ea4c8d3787d2fb72c690b444235124be439a95c42e93a81",
    "03_secure_sketch.py": "40b50492da86fc701a8e17f85ceb1c1b2aaecd2d939a4c9c70af9fb4499aee65",
    "04_key_pipeline.py": "d7bb56aff89b3fe65f6176b65640a6c44564ab763e08e473971eb6ba6e86dc31",
    "05_encrypted_ofdm.py": "0f7367f15cd24e7631d62016a6d5656148966e8269f42500423f18b081f4d795",
    "06_ber_curves.py": "abe78901851e1dbc435ea986dc035f54c4a297faab297ef5d28d57113599c134",
    "07_experiment_sweep.py": "e380d973aa17a5c6d24c01e583d9461b1965c2aca20673de83860421feaad65a",
}


def test_demos_are_found():
    assert len(DEMOS) >= 7
    assert sorted(map(os.path.basename, DEMOS)) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, demo],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[os.path.basename(demo)]
