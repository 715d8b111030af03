"""Seeded NumPy generators, many at once.

generators(seeds) gives the generators np.random.default_rng(seed) gives,
one per seed, but runs SeedSequence's entropy mixing and its
generate_state(4, np.uint64) for every seed in one pass of numpy calls on
uint32 arrays, then hands each seed's four state words to PCG64. NumPy's
stream-compatibility policy (NEP 19) fixes the SeedSequence and PCG64
algorithms this reproduces, so the generators' states, and hence their
draws, are default_rng's.

A seed is an integer, not a bool, in [0, 2^128): SeedSequence reads a seed
as little-endian 32-bit words and pads a short one with zero words to its
4-word pool, so mixing four words per seed, the high ones zero, is exact.
A longer seed would take a further mixing pass, which this module does not
run; check_seed refuses it with the other invalid seeds.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError

SEED_LIMIT = 1 << 128

_POOL = 4  # SeedSequence's pool size, in 32-bit words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant: init, then times mult mod 2^32
    at each step, count + 1 values. A hash step xors its input with one
    value and multiplies it by the next."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


# one step per pool word, then one per ordered pair of distinct pool words
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
# one step per uint32 word of the four uint64 state words
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def check_seed(seed, name: str) -> int:
    """seed as an int, if it is an integer, not a bool, in [0, 2^128);
    else ParameterError naming it."""
    if type(seed) is not int:
        if isinstance(seed, (bool, np.bool_)) or not isinstance(
            seed, (int, np.integer)
        ):
            raise ParameterError(f"{name} must be an integer, got {seed!r}")
        seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ParameterError(f"{name} must be in [0, 2^128), got {seed}")
    return seed


class _StateWords:
    """A seed's four uint64 PCG64 state words, handed out as the
    generate_state(4, np.uint64) PCG64 asks its seed sequence for.
    generators registers it as a numpy ISeedSequence when first called, so
    that importing physec does not import numpy.random."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step k on row words[k]: xor with consts[k],
    times consts[k + 1] (mod 2^32), then xor with itself shifted 16 right."""
    out = (words ^ consts[:-1]) * consts[1:]
    return out ^ (out >> _SHIFT)


def generators(seeds) -> list:
    """One np.random.Generator per seed, generators(seeds)[i] in the state
    np.random.default_rng(seeds[i]) starts in; a seed check_seed refuses
    raises ParameterError naming seeds. The generators draw as default_rng's
    do, but keep no SeedSequence, so they cannot spawn."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    raw = b"".join(
        check_seed(s, "seeds").to_bytes(4 * _POOL, "little") for s in seeds
    )
    entropy = np.frombuffer(raw, dtype="<u4").reshape(-1, _POOL).T
    pool = _hash(entropy.astype(np.uint32), _MIX_HASH[: _POOL + 1])
    # each pool word is hashed into the other three in turn
    for src in range(_POOL):
        step = _POOL + 3 * src
        others = [dst for dst in range(_POOL) if dst != src]
        hashed = _hash(pool[src], _MIX_HASH[step : step + 4])
        mixed = _MIX_MULT_L * pool[others] - _MIX_MULT_R * hashed
        pool[others] = mixed ^ (mixed >> _SHIFT)
    # generate_state(4, np.uint64): eight uint32 words, cycling the pool,
    # read little-endian in pairs
    state = _hash(np.concatenate([pool, pool]), _STATE_HASH)
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
    return [
        np.random.Generator(np.random.PCG64(_StateWords(row)))
        for row in words.astype(np.uint64)
    ]
