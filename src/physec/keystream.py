"""Hash-counter keystream and the keyed primitives built on it.

Keystream block i is SHA-256(packed key || nonce + i), 256 bits, MSB-first,
so any block is addressable without generating its predecessors. Every
consumer states its bit budget up front; running past the handed-out slice
raises KeystreamExhausted rather than silently reusing bits.

keystream() hashes every block of the slices it returns, one row per block
offset when given several. The key material of a batch of rows is one
KeystreamSeed for every row or a tuple of one seed per row; either way each
row hashes from its own seed's key state, which a call builds once per seed
object.

keyed_permutation and keyed_subset take a bit vector, a batch of bit rows,
or a KeystreamRegions batch, and one kernel runs every row's Fisher-Yates
draws at once in numpy, whatever the input form or row count. A bit row is
packed to bytes up front. A region row's blocks are hashed in order as its
draws reach them, at most one window of attempts past its last draw and
never past its region's end; a 64-point permutation reads about a third of
its budget, so most of its region is never hashed. A row that runs dry
raises KeystreamExhausted, naming the bits its next draw needed and the
bits left.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import STAGE_AMPLIFIED, BitKey, pack_bits
from .errors import KeystreamExhausted, ParameterError

BLOCK_BITS = 256


@dataclass(frozen=True)
class KeystreamSeed:
    """Amplified key plus the 64-bit counter origin for block addressing."""

    key: BitKey
    nonce: int = 0

    def __post_init__(self):
        if len(self.key) == 0:
            raise ParameterError("keystream key must be nonempty")
        if self.key.stage != STAGE_AMPLIFIED:
            raise ParameterError("keystream key must be an amplified key")
        if not 0 <= self.nonce < (1 << 64):
            raise ParameterError("nonce must fit in 64 bits")


def keystream(seed, n_bits: int, block_offset=0) -> np.ndarray:
    """Generate n_bits keystream bits starting at the given block offset.

    Deterministic and seekable: bits [256 i, 256 (i+1)) depend only on the
    seed and on block index nonce + block_offset + i (mod 2^64). A 1-D
    sequence of block offsets gives one row of n_bits bits per offset,
    shape [len(block_offset), n_bits]; seed is then one KeystreamSeed for
    every row or a tuple of one per row, and row r equals
    keystream(seed[r], n_bits, block_offset[r]).
    """
    if n_bits < 0:
        raise ParameterError("n_bits must be >= 0")
    batch = np.ndim(block_offset) == 1
    rows = _row_keys(seed, block_offset if batch else [block_offset])
    if n_bits == 0 or not rows:
        out = np.zeros((len(rows), n_bits), dtype=np.uint8)
        return out if batch else out[0]
    n_blocks = -(-n_bits // BLOCK_BITS)
    digests = _hash_blocks(rows, n_blocks)
    packed = np.frombuffer(digests, dtype=np.uint8).reshape(len(rows), -1)
    out = np.unpackbits(packed, axis=1, count=n_bits)
    return out if batch else out[0]


def _row_seeds(seed, rows: int) -> tuple:
    """seed as one KeystreamSeed per row of a batch of rows: a single seed
    repeated, or a per-row sequence, which must hold rows seeds."""
    if isinstance(seed, KeystreamSeed):
        return (seed,) * rows
    seeds = tuple(seed)
    if not all(isinstance(s, KeystreamSeed) for s in seeds):
        raise ParameterError("per-row key material must be KeystreamSeed objects")
    if len(seeds) != rows:
        raise ParameterError(f"need one seed per row: {rows} rows, {len(seeds)} seeds")
    return seeds


def _row_keys(seed, offsets) -> list:
    """(key state, first block) of each row: its seed's state, built once
    per seed object, and the block its nonce and offset address."""
    states = {}
    keys = []
    for s, offset in zip(_row_seeds(seed, len(offsets)), offsets):
        state = states.get(id(s))  # the seeds outlive the call, so ids are unique
        if state is None:
            state = states[id(s)] = _key_state(s)
        keys.append((state, s.nonce + int(offset)))
    return keys


def xor_encrypt(plain, ks) -> np.ndarray:
    """XOR a bit vector with a keystream prefix. Involutive."""
    p = np.asarray(plain, dtype=np.uint8)
    k = np.asarray(ks, dtype=np.uint8)
    if k.size < p.size:
        raise ParameterError(f"keystream too short: {k.size} < {p.size} bits")
    return p ^ k[: p.size]


def _key_state(seed: KeystreamSeed):
    """SHA-256 state fed the packed key; each block hashes from a copy."""
    return hashlib.sha256(pack_bits(seed.key.bits))


def _hash_blocks(rows, count: int) -> bytes:
    """Digests of count blocks of each (key state, first block) row, row
    after row: block first + i is a copy of the key state fed the 64-bit
    counter (first + i) mod 2^64, big-endian."""
    digests = []
    for state, first in rows:
        copy = state.copy
        for block in range(first, first + count):
            h = copy()
            h.update((block % (1 << 64)).to_bytes(8, "big"))
            digests.append(h.digest())
    return b"".join(digests)


@dataclass(frozen=True)
class KeystreamRegions:
    """A batch of keystream rows whose blocks are hashed as draws reach them.

    Row f holds the bits keystream(seed, n_bits, first_blocks[f]) returns,
    seed being one KeystreamSeed for every row or a tuple of one per row.
    keyed_permutation and keyed_subset take it in place of that
    [F, n_bits] bit array and give the same rows, but hash each row only as
    far as its draws read, or up to one window of attempts further, never
    past its end.
    """

    seed: KeystreamSeed | tuple
    n_bits: int
    first_blocks: tuple

    def __post_init__(self):
        if self.n_bits < 0:
            raise ParameterError("n_bits must be >= 0")
        object.__setattr__(self, "first_blocks", tuple(map(int, self.first_blocks)))
        if not isinstance(self.seed, KeystreamSeed):
            object.__setattr__(
                self, "seed", _row_seeds(self.seed, len(self.first_blocks))
            )


def keyed_permutation(n: int, ks) -> np.ndarray:
    """Fisher-Yates shuffle of 0..n-1 driven by keystream bits.

    Rejection sampling keeps every draw uniform, so permutations are
    unbiased; consumption is variable, so hand in a generous slice. A batch
    of keystream rows (a [F, n_bits] bit array or a KeystreamRegions) gives
    one permutation per row, shape [F, n].
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    return _draw(list(range(n)), _swap_plan(n, n - 1, True), n, ks)


def keyed_subset(pool, count: int, ks) -> np.ndarray:
    """First `count` entries of a keystream-keyed partial shuffle of pool.

    A batch of keystream rows gives one subset per row, shape [F, count].
    """
    arr = np.asarray(pool)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ParameterError(f"pool must hold integers, got {arr.dtype}")
    arr = arr.astype(np.intp).tolist()
    if not 0 <= count <= len(arr):
        raise ParameterError("count must be in [0, pool size]")
    return _draw(arr, _swap_plan(len(arr), count, False), count, ks)


def _draw(items: list, plan, count: int, ks) -> np.ndarray:
    """Run plan on a copy of items per keystream row and keep the first
    count items of each: [F, count] for a batch of rows, else one row.

    _lockstep_swaps draws every row: a bit array reaches it packed to
    bytes, and a KeystreamRegions batch as each row's key state and first
    block.
    """
    if isinstance(ks, KeystreamRegions):
        batch, n_bits = True, ks.n_bits
        source = _row_keys(ks.seed, ks.first_blocks)
    else:
        bits = np.asarray(ks, dtype=np.uint8)
        if bits.ndim not in (1, 2):
            raise ParameterError(
                f"keystream must be 1-D or 2-D, got shape {bits.shape}"
            )
        batch, n_bits = bits.ndim == 2, bits.shape[-1]
        source = np.packbits(np.atleast_2d(bits), axis=1)
    out = _lockstep_swaps(items, plan, n_bits, source)[:, :count]
    return out if batch else out[0]


@functools.lru_cache(maxsize=64)
def _swap_plan(size: int, count: int, from_back: bool) -> tuple:
    """The draws of `count` Fisher-Yates steps over `size` items.

    Step k draws uniformly from m = size - k choices with width-bit words
    (mask = 2^width - 1). From the back, it swaps slot m - 1 with the draw;
    from the front, slot k with k + draw. Each step is
    (slot, low, m, width, mask), and the swap partner is low + draw.
    """
    plan = []
    for k in range(count):
        m = size - k
        width = (m - 1).bit_length()
        slot, low = (m - 1, 0) if from_back else (k, k)
        plan.append((slot, low, m, width, (1 << width) - 1))
    return tuple(plan)


@functools.lru_cache(maxsize=64)
def _lockstep_groups(plan) -> tuple:
    """The plan's runs of equal-width steps, each (width, m, count, first,
    more).

    m belongs to the run's first step; step j of the run draws from m - j
    choices. first is three standard deviations above the mean number of
    attempts in which a row accepts all count draws, and more is one
    standard deviation, at least 1.
    """
    groups = []
    for width, steps in itertools.groupby(plan, key=lambda step: step[3]):
        choices = [m for _, _, m, _, _ in steps]
        accept = [m / (1 << width) for m in choices]
        mean = sum(1 / p for p in accept)
        sd = math.sqrt(sum((1 - p) / p / p for p in accept))
        first, more = math.ceil(mean + 3 * sd), max(1, math.ceil(sd))
        groups.append((width, choices[0], len(choices), first, more))
    return tuple(groups)


def _lockstep_swaps(items: list, plan, n_bits: int, source) -> np.ndarray:
    """Run plan on a copy of items per keystream row of n_bits bits, all
    rows in lockstep: shape [F, len(items)].

    source is the rows packed to bytes, [F, ceil(n_bits / 8)], or each
    region row's (key state, first block). Within a run of equal-width
    steps every attempt moves a row's read position on by the width, so a
    row's candidate words for the run are a strided read from its start,
    each through as many bytes as the plan's widest draw can straddle.
    They are read a window of attempts at a time, and a scan over each
    window keeps each row's bound m - k, k its draws accepted so far:
    attempt i is accepted when its word is below the bound. A region row's
    blocks are hashed in order, as far as the window of a run it has not
    finished reaches, never past its region's end.

    A word that ends past its row's end is never accepted. The first row
    in row order that runs short of words raises KeystreamExhausted with
    the bits its next word needed and the bits left.
    """
    groups = _lockstep_groups(plan)
    rows = len(source)
    n_blocks = -(-n_bits // BLOCK_BITS)
    block_bytes = BLOCK_BITS // 8
    # the bytes a word spans: w bits from bit 7 of a byte reach ceil((w + 7) / 8)
    span = (max((width for width, *_ in groups), default=0) + 14) // 8
    word_type = np.min_scalar_type((1 << 8 * span) - 1)
    keys = None if isinstance(source, np.ndarray) else source
    # each row's bytes, then the span bytes past its end that a word read
    # at the end reaches
    if keys is None:
        buf = np.zeros((rows, source.shape[1] + span), dtype=np.uint8)
        buf[:, : source.shape[1]] = source
    else:
        # every row reads at least its no-rejection need
        floor = -(-sum(width * count for width, _, count, *_ in groups) // BLOCK_BITS)
        floor = min(floor, n_blocks)
        buf = np.zeros((rows, n_blocks * block_bytes + span), dtype=np.uint8)
        digests = _hash_blocks(keys, floor)
        buf[:, : floor * block_bytes] = np.frombuffer(digests, np.uint8).reshape(
            rows, floor * block_bytes
        )
        hashed = np.full(rows, floor)
    flat = buf.ravel()
    row_starts = np.arange(rows) * buf.shape[1]
    pos = np.zeros(rows, dtype=np.int64)
    # per row, the width and bits left of the first word it ran short of
    dry_width = np.zeros(rows, dtype=np.int64)
    dry_left = np.zeros(rows, dtype=np.int64)
    draws = [np.zeros((0, rows), dtype=np.intp)]  # [steps, F] per run
    for width, m, count, first, more in groups:
        if width == 0:
            draws.append(np.zeros((count, rows), dtype=np.intp))
            continue
        avail = (n_bits - pos) // width  # the words each row has left
        bound = np.full(rows, m, dtype=word_type)
        windows, accepts = [], []
        tried = 0
        while True:
            attempts = more if windows else first
            if keys:
                end = np.where(bound > m - count, pos + width * (tried + attempts), 0)
                need = np.minimum(-(-end // BLOCK_BITS), n_blocks)
                for r in np.flatnonzero(need > hashed).tolist():
                    state, first_block = keys[r]
                    done, todo = int(hashed[r]), int(need[r] - hashed[r])
                    digests = _hash_blocks([(state, first_block + done)], todo)
                    at = done * block_bytes
                    buf[r, at : at + len(digests)] = np.frombuffer(digests, np.uint8)
                    hashed[r] = need[r]
            tries = np.arange(tried, tried + attempts)[:, None]
            bit = np.minimum(pos + width * tries, n_bits)
            byte = (bit >> 3) + row_starts
            window = flat[byte].astype(word_type)
            for k in range(1, span):
                window = (window << 8) | flat[byte + k]
            shift = (8 * span - width) - (bit & 7).astype(word_type)
            words = (window >> shift) & ((1 << width) - 1)
            # a word that ends past its row's end is never accepted
            np.putmask(words, tries >= avail, 1 << width)
            accepted = np.empty(words.shape, dtype=bool)
            for word, accept in zip(words, accepted):
                np.less(word, bound, out=accept)
                bound -= accept
            windows.append(words)
            accepts.append(accepted)
            tried += attempts
            # go on while a row short of draws has words left
            short = bound > m - count
            if not (short & (avail > tried)).any():
                break
        # a row's draws are its first count accepted words, and the
        # count-th ends its run
        words, accepted = np.concatenate(windows), np.concatenate(accepts)
        taken = np.cumsum(accepted, axis=0)
        keep = accepted & (taken <= count)
        step = width * ((taken < count).sum(axis=0) + 1)
        if short.any():
            # a row that ran dry keeps its first error, takes any count
            # words and ends at its end
            ran_dry = short & (dry_width == 0)
            dry_width[ran_dry] = width
            dry_left[ran_dry] = (n_bits - pos[ran_dry]) % width
            keep[:, short] = np.arange(len(keep))[:, None] < count
            step[short] = n_bits - pos[short]
        pos += step
        draws.append(words.T[keep.T].reshape(rows, count).T)
    if dry_width.any():
        r = int(np.flatnonzero(dry_width)[0])
        raise KeystreamExhausted(f"needed {dry_width[r]} bits, {dry_left[r]} left")
    # the swaps, on items[size, F]: slot s of every row is row s
    lows = np.array([low for _, low, *_ in plan], dtype=np.intp)[:, None]
    partners = (np.concatenate(draws) + lows) * rows + np.arange(rows)
    out = np.repeat(np.asarray(items, dtype=np.intp)[:, None], rows, axis=1)
    cells = out.ravel()
    for (slot, *_), partner in zip(plan, partners):
        held = cells[partner]
        cells[partner] = out[slot]
        out[slot] = held
    return out.T.copy()


def permutation_allocation_bits(n: int) -> int:
    """Deterministic keystream budget for keyed_permutation(n).

    Four times the summed draw widths of its swap plan (the no-rejection
    need); a Fisher-Yates draw from m choices accepts with probability
    > 1/2 per attempt, so overrunning a 4x allocation is negligible.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    return _plan_budget(_swap_plan(n, n - 1, True))


def subset_allocation_bits(pool_size: int, count: int) -> int:
    """Deterministic keystream budget for keyed_subset, sized as above."""
    if not 0 <= count <= pool_size:
        raise ParameterError("count must be in [0, pool_size]")
    return _plan_budget(_swap_plan(pool_size, count, False))


def _plan_budget(plan) -> int:
    """Four times the bits a swap plan reads when no draw is rejected."""
    return 4 * sum(width for _, _, _, width, _ in plan)
