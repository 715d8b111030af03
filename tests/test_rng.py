"""rng.generators against np.random.default_rng, and the seed domain every
public seed shares. Every warning here is an error, so a uint32 wraparound
warning fails a named test before any golden does."""
import numpy as np
import pytest

from physec.bits import BitKey
from physec.blockcode import code_by_id
from physec.channel import ChannelParams
from physec.distill import sketch
from physec.errors import ParameterError
from physec.ofdm import awgn_link, awgn_rows
from physec.probing import LossModel
from physec.rng import SEED_LIMIT, check_seed, generators

pytestmark = pytest.mark.filterwarnings("error")

EDGE_SEEDS = [
    0,
    1,
    (1 << 32) - 1,
    1 << 32,
    (1 << 62) - 1,
    (1 << 64) - 1,
    1 << 96,
    (1 << 128) - 1,
]


def _assert_default_rng_states(seeds):
    gens = generators(seeds)
    assert len(gens) == len(seeds)
    for gen, seed in zip(gens, seeds):
        assert gen.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_generators_match_default_rng_at_edge_seeds():
    _assert_default_rng_states(EDGE_SEEDS)
    # numpy integers are seeds too
    _assert_default_rng_states([np.uint32(7), np.int64(1 << 40), np.uint64((1 << 64) - 1)])


def test_generators_match_default_rng_at_random_seeds():
    rng = np.random.default_rng(2031)
    # 1000 seeds of 1 to 128 bits, so every pool word is the high one of some
    bits = rng.integers(1, 129, size=1000)
    seeds = [int.from_bytes(rng.bytes(16), "little") >> (128 - int(b)) for b in bits]
    _assert_default_rng_states(seeds)


@pytest.mark.parametrize("rows", [0, 1, 300])
def test_generators_match_default_rng_per_batch_size(rows):
    seeds = [int(s) for s in np.random.default_rng(rows).integers(1 << 62, size=rows)]
    _assert_default_rng_states(seeds)
    # and draw alike
    for gen, seed in zip(generators(seeds), seeds):
        want = np.random.default_rng(seed).standard_normal(8)
        assert gen.standard_normal(8).tobytes() == want.tobytes()


BAD_SEEDS = [None, -1, 1.5, True, np.bool_(False), "3", SEED_LIMIT, 1 << 200]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_check_seed_refuses_with_the_argument_name(seed):
    with pytest.raises(ParameterError, match="^some_seed must be"):
        check_seed(seed, "some_seed")


def test_check_seed_takes_integers_in_range():
    assert check_seed(0, "s") == 0
    assert check_seed(SEED_LIMIT - 1, "s") == SEED_LIMIT - 1
    assert type(check_seed(np.uint64(5), "s")) is int


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_public_seeds_fail_closed(seed):
    """Every public seed is refused outside [0, 2^128), by name, before any
    draw: none falls back to OS entropy."""
    frame = np.zeros(80, dtype=complex)
    key = BitKey(np.zeros(7, dtype=np.uint8))
    calls = [
        ("rng_seed", lambda: ChannelParams(rng_seed=seed)),
        ("rng_seed", lambda: LossModel(rng_seed=seed)),
        ("rng_seed", lambda: sketch(key, code_by_id("hamming74"), seed)),
        ("rng_seed", lambda: awgn_link(frame, 10.0, seed)),
        ("rng_seed", lambda: awgn_link(frame, np.inf, seed)),
        ("seeds", lambda: awgn_rows(frame[None].repeat(2, 0), 10.0, [1, seed])),
        ("seeds", lambda: awgn_rows(frame[None], np.inf, [seed])),
        ("seeds", lambda: generators([seed])),
    ]
    for name, call in calls:
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            call()
