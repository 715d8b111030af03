"""Seeded NumPy generators and seed states, many at once.

NumPy's SeedSequence hashes its entropy, a row of 32-bit words, into a
4-word pool, and hands out state words hashed from that pool. This module
runs that mixing for many rows in one pass of numpy calls on uint32 arrays,
and gives three forms of it:

- generators(seeds): the generators np.random.default_rng(seed) gives, one
  per seed;
- spawned(seeds, n): the generators of SeedSequence(seed).spawn(n)'s
  children, n per seed, in spawn order;
- trial_states(master_seed, sweep_index, trials): the generate_state(16)
  words of SeedSequence((master_seed, sweep_index, t)), one row per t.

NumPy's stream-compatibility policy (NEP 19) fixes the SeedSequence and
PCG64 algorithms this reproduces, so the states, and hence the draws, are
SeedSequence's.

An integer enters the entropy as its little-endian 32-bit words ([0] for
0), and a tuple as the words of each entry in turn. A spawned child's
entropy is its parent's, zero-padded to the pool, followed by its spawn
key; any other row shorter than the pool mixes as if zero-padded. Words past
the pool are each hashed into every pool word once more.

A public seed is an integer, not a bool, in [0, 2^128) (check_seed): four
words at most. A master seed may be any integer >= 0.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError

SEED_LIMIT = 1 << 128

_POOL = 4  # SeedSequence's pool size, in 32-bit words
_WORD = 0xFFFFFFFF


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant: init, then times mult mod 2^32
    at each step, count + 1 values. A hash step xors its input with one
    value and multiplies it by the next."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _WORD)
    return np.array(values, dtype=np.uint32)[:, None]


_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875  # mixing the entropy in
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED  # hashing state words out
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
    _generators registers it as a numpy ISeedSequence when first called, so
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


def _merge(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of each pool word with a hashed word."""
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
    return mixed ^ (mixed >> _SHIFT)


def _mix(entropy: np.ndarray) -> np.ndarray:
    """The [4, F] pools SeedSequence mixes from the columns of entropy, an
    [L, F] uint32 array of F entropy rows of L words each."""
    length, rows = entropy.shape
    if length < _POOL:
        entropy = np.vstack([entropy, np.zeros((_POOL - length, rows), np.uint32)])
    extra = entropy.shape[0] - _POOL
    # one step per pool word, one per ordered pair of distinct pool words,
    # then one per (word past the pool, pool word)
    consts = _hash_constants(_MIX_INIT, _MIX_MULT, _POOL * (_POOL + extra))
    pool = _hash(entropy[:_POOL], consts[: _POOL + 1])
    # each pool word is hashed into the other three in turn
    for src in range(_POOL):
        step = _POOL + 3 * src
        others = [dst for dst in range(_POOL) if dst != src]
        pool[others] = _merge(pool[others], _hash(pool[src], consts[step : step + 4]))
    # each word past the pool is hashed into all four
    for k in range(extra):
        step = _POOL * (_POOL + k)
        pool = _merge(pool, _hash(entropy[_POOL + k], consts[step : step + _POOL + 1]))
    return pool


def _state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """generate_state(n_words) of each pool column: [n_words, F] uint32,
    hashed from the pool words in turn, cycling."""
    consts = _hash_constants(_STATE_INIT, _STATE_MULT, n_words)
    return _hash(pool[np.arange(n_words) % _POOL], consts)


def _seed_words(seeds) -> np.ndarray:
    """The [4, F] uint32 words of F public seeds, zero-padded to the pool;
    a seed check_seed refuses raises ParameterError naming seeds."""
    raw = b"".join(
        check_seed(s, "seeds").to_bytes(4 * _POOL, "little") for s in seeds
    )
    return np.frombuffer(raw, dtype="<u4").reshape(-1, _POOL).T.astype(np.uint32)


def _generators(entropy: np.ndarray) -> list:
    """One PCG64 Generator per entropy column, seeded as by a SeedSequence
    of that entropy: generate_state(4, np.uint64), its eight uint32 words
    read little-endian in pairs."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    state = _state(_mix(entropy), 2 * _POOL)
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
    return [
        np.random.Generator(np.random.PCG64(_StateWords(row)))
        for row in words.astype(np.uint64)
    ]


def generators(seeds) -> list:
    """One np.random.Generator per seed, generators(seeds)[i] in the state
    np.random.default_rng(seeds[i]) starts in; a seed check_seed refuses
    raises ParameterError naming seeds. The generators draw as default_rng's
    do, but keep no SeedSequence, so they cannot spawn."""
    return _generators(_seed_words(seeds))


def spawned(seeds, n: int) -> list:
    """spawned(seeds, n)[i][j] is in the state of
    default_rng(SeedSequence(seeds[i]).spawn(n)[j]): child j's entropy is
    seed i's words, zero-padded to the pool, then its spawn key j. Seeds as
    generators takes them."""
    words = _seed_words(seeds)
    count = words.shape[1]
    keys = np.tile(np.arange(n, dtype=np.uint32), count)
    gens = _generators(np.vstack([np.repeat(words, n, axis=1), keys]))
    return [gens[i * n : (i + 1) * n] for i in range(count)]


def _int_words(value: int, name: str) -> list:
    """value's entropy words, as SeedSequence reads an integer >= 0."""
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    words = [value & _WORD]
    while value := value >> 32:
        words.append(value & _WORD)
    return words


def trial_states(master_seed: int, sweep_index: int, trials) -> np.ndarray:
    """[len(trials), 16] uint32: row r holds
    SeedSequence((master_seed, sweep_index, trials[r])).generate_state(16).
    Every argument is an integer >= 0, else ParameterError naming it."""
    head = _int_words(master_seed, "master_seed") + _int_words(
        sweep_index, "sweep_index"
    )
    tails = [_int_words(t, "trial index") for t in trials]
    states = np.empty((len(tails), 16), dtype=np.uint32)
    # rows of one length mix together; a trial index past 2^32 is longer
    for length in set(map(len, tails)):
        rows = [r for r, tail in enumerate(tails) if len(tail) == length]
        entropy = np.array([head + tails[r] for r in rows], dtype=np.uint32)
        states[rows] = _state(_mix(entropy.T), 16).T
    return states
