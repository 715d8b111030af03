"""A canary for the draw algorithms the goldens rest on.

NEP 19 fixes numpy's SeedSequence and PCG64 states across releases, and
test_rng.py checks physec.rng against them. It does not fix the algorithm
of each Generator method: a release may change how standard_normal, random
or integers turn those states into values. Every report, trace and
ciphertext golden would then differ at once; this test names the method.
Each form is drawn as the library draws it: into rows of a shared buffer
by out= (channel.generate_traces, ofdm.awgn_rows, probing.keep_masks),
uint8 bits by size (distill.sketch, the link's payloads) and one noise
seed at a time (the link's frames).
"""
import hashlib
import os

import numpy as np
import pytest

pytest_plugins = ["pytester"]

SEEDS = (0, 1, (1 << 100) + 7)


def _into_rows(draw, n):
    rows = np.empty((2, n))
    for row in rows:
        draw(out=row)
    return rows.tobytes()


DRAWS = {
    "standard_normal(out=row)": lambda gen: _into_rows(gen.standard_normal, 601),
    "random(out=row)": lambda gen: _into_rows(gen.random, 601),
    "integers(0, 2, size, dtype=uint8)": lambda gen: b"".join(
        gen.integers(0, 2, size, dtype=np.uint8).tobytes() for size in ((5, 7), 97)
    ),
    "integers(1 << 62)": lambda gen: np.array(
        [int(gen.integers(1 << 62)) for _ in range(8)], dtype="<i8"
    ).tobytes(),
}

# SHA-256 of each form's bytes over SEEDS, from np.random.default_rng(seed),
# taken on numpy 2.4 (x86-64)
DRAW_SHA256 = {
    "standard_normal(out=row)": "b4628b98df095d7f65281ec471656c3dc832c362d699858efba1080419dd7a92",
    "random(out=row)": "aeabdf6a9d0d4c1676021a4fce076d72ef2c518e8d4a8074edf248a3176f36b2",
    "integers(0, 2, size, dtype=uint8)": "ba6373ce211c3e93337756b2687f4f2de050b7d48fa1081ead6eca8ab27f1979",
    "integers(1 << 62)": "d4a0e04194889350d44c27451241838e36ec885c63cf245e1d2dce13656fcb57",
}


def _digest(form: str) -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(DRAWS[form](np.random.default_rng(seed)))
    return digest.hexdigest()


def _check(form: str):
    assert _digest(form) == DRAW_SHA256[form], (
        f"numpy {np.__version__}'s Generator.{form} draws other values than "
        "the goldens were taken with; every golden that rests on it will differ"
    )


@pytest.mark.parametrize("form", sorted(DRAWS))
def test_draw_form_keeps_its_pinned_values(form):
    _check(form)


def test_canary_names_a_changed_method_that_test_rng_cannot_see(monkeypatch, pytester):
    class Changed(np.random.Generator):
        """A release whose random skips one state step before it draws."""

        def random(self, *args, **kwargs):
            self.bit_generator.advance(1)
            return super().random(*args, **kwargs)

    # numpy's default_rng and the generators physec.rng builds both change
    monkeypatch.setattr(np.random, "Generator", Changed)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Changed(np.random.PCG64(seed)))
    assert [form for form in DRAWS if _digest(form) != DRAW_SHA256[form]] == [
        "random(out=row)"
    ]
    with pytest.raises(AssertionError, match=r"Generator\.random\(out=row\)"):
        _check("random(out=row)")
    rng_tests = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_rng.py")
    result = pytester.runpytest_inprocess(rng_tests, "-q", "-p", "no:cacheprovider")
    assert result.ret == 0
    assert result.parseoutcomes()["passed"] > 0
