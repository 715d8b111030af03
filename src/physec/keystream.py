"""Hash-counter keystream and the keyed primitives built on it.

Keystream block i is SHA-256(packed key || nonce + i), 256 bits, MSB-first,
so any block is addressable without generating its predecessors. Every
consumer states its bit budget up front; running past the handed-out slice
raises KeystreamExhausted rather than silently reusing bits.

keystream() hashes every block of the slices it returns, one row per block
offset when given several. The key material of a batch of rows is one
KeystreamSeed for every row or a tuple of one seed per row; either way each
row hashes from its own seed's key state, which a call builds once per seed
object. keyed_permutation and keyed_subset take a bit
vector, a batch of bit rows, or a KeystreamRegions batch, and read each row
as a stream of (value, width) chunks: a bit row is one chunk, a region row
yields its blocks one by one, each hashed only when a draw reaches it. A
64-point permutation reads about a third of its budget, so most of its
region is never hashed.

A KeystreamRegions batch of LOCKSTEP_MIN_ROWS rows or more is drawn by a
second kernel that runs every row's draws at once in numpy, with the same
results. It hashes each row's blocks in order up to the end of its current
window of attempts, at most one window past its last draw and never past
its region's end. A batch in which a row runs dry goes back to the per-row
kernel, which raises the same KeystreamExhausted.
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
    digests = b"".join(
        _block_digest(state, first + i)
        for state, first in rows
        for i in range(n_blocks)
    )
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


def _block_digest(state, block: int) -> bytes:
    """Digest of one keystream block: the key state plus its 64-bit counter."""
    h = state.copy()
    h.update((block % (1 << 64)).to_bytes(8, "big"))
    return h.digest()


@dataclass(frozen=True)
class KeystreamRegions:
    """A batch of keystream rows whose blocks are hashed as draws reach them.

    Row f holds the bits keystream(seed, n_bits, first_blocks[f]) returns,
    seed being one KeystreamSeed for every row or a tuple of one per row.
    keyed_permutation and keyed_subset take it in place of that
    [F, n_bits] bit array and give the same rows, but hash each row only as
    far as its draws read; a batch of LOCKSTEP_MIN_ROWS rows or more may
    hash a row up to one window of attempts further, never past its end.
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


def _region_blocks(state, first: int, n_bits: int):
    """(value, width) of each block of a region, hashed only when a draw
    asks for it, the last cut to the region's end."""
    for start in range(0, n_bits, BLOCK_BITS):
        width = min(BLOCK_BITS, n_bits - start)
        digest = _block_digest(state, first + start // BLOCK_BITS)
        yield int.from_bytes(digest, "big") >> (BLOCK_BITS - width), width


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

    A KeystreamRegions batch of at least LOCKSTEP_MIN_ROWS rows is drawn
    by _lockstep_swaps when it can; otherwise each row reaches the
    per-row kernel as (value, width) chunks: a bit-array row is one chunk,
    and a KeystreamRegions row yields its blocks in order.
    """
    if isinstance(ks, KeystreamRegions):
        if len(ks.first_blocks) >= LOCKSTEP_MIN_ROWS:
            drawn = _lockstep_swaps(items, plan, ks)
            if drawn is not None:
                return drawn[:, :count]
        rows = (
            _region_blocks(state, first, ks.n_bits)
            for state, first in _row_keys(ks.seed, ks.first_blocks)
        )
        batch = True
    else:
        bits = np.asarray(ks, dtype=np.uint8)
        if bits.ndim not in (1, 2):
            raise ParameterError(
                f"keystream must be 1-D or 2-D, got shape {bits.shape}"
            )
        batch, n_bits = bits.ndim == 2, bits.shape[-1]
        packed = np.packbits(np.atleast_2d(bits), axis=1)
        pad = 8 * packed.shape[1] - n_bits
        rows = [[(int.from_bytes(r.tobytes(), "big") >> pad, n_bits)] for r in packed]
    drawn = [_keyed_swaps(items.copy(), plan, row)[:count] for row in rows]
    out = np.array(drawn, dtype=np.intp).reshape(len(drawn), count)
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


def _keyed_swaps(items: list, plan, chunks) -> list:
    """Run a swap plan on items in place, each draw rejection-sampled from
    a keystream row given as (value, width) chunks, read MSB first.

    A chunk is taken only when a draw runs past the bits already taken. A
    draw that runs past the row's end raises KeystreamExhausted with the
    bits it needed and the bits left.
    """
    chunks = iter(chunks)
    word = left = 0
    for slot, low, m, width, mask in plan:
        while True:
            if left < width:
                word, left = _extend(word, left, width, chunks)
            left -= width
            draw = (word >> left) & mask
            if draw < m:
                break
        draw += low
        items[slot], items[draw] = items[draw], items[slot]
    return items


# the fewest region rows that _draw hands to _lockstep_swaps. Most of its
# cost is a fixed count of numpy calls per batch: on 64-point permutations
# (2-vCPU x86-64, numpy 2.4) it breaks even with the per-row kernel at
# about 48 rows, and 64 is the smallest measured batch it drew faster in
# every run (about 1.2x; 2x at 200 rows)
LOCKSTEP_MIN_ROWS = 64
# _lockstep_swaps reads each draw through a 16-bit big-endian window, so
# it takes draws of at most 16 - 7 bits
_WINDOW_BITS = 16


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


def _lockstep_swaps(items: list, plan, ks: KeystreamRegions):
    """Run plan on a copy of items per region row, all rows in lockstep:
    the rows _keyed_swaps gives, shape [F, len(items)], or None when a row
    would read past its region.

    Within a run of equal-width steps every attempt moves a row's read
    position on by the width, so a row's candidate words for the run are a
    strided read from its start. They are read a window of attempts at a
    time, and a scan over each window keeps each row's bound m - k, k its
    draws accepted so far: attempt i is accepted when its word is below
    the bound. A row's blocks are hashed in order, as far as the window of
    a run it has not finished reaches, never past its region's end.
    """
    groups = _lockstep_groups(plan)
    if any(width > _WINDOW_BITS - 7 for width, *_ in groups):
        return None
    rows, n_bits = len(ks.first_blocks), ks.n_bits
    n_blocks = -(-n_bits // BLOCK_BITS)
    block_bytes = BLOCK_BITS // 8
    states, firsts = zip(*_row_keys(ks.seed, ks.first_blocks))
    # each row's region bytes, then the byte after its end that a window at
    # the end reads
    stride = n_blocks * block_bytes + 2
    buf = np.zeros((rows, stride), dtype=np.uint8)
    flat = buf.ravel()
    # every row reads at least its no-rejection need
    floor = -(-sum(width * count for width, _, count, *_ in groups) // BLOCK_BITS)
    floor = min(floor, n_blocks)
    digests = b"".join(
        _block_digest(state, first + i)
        for state, first in zip(states, firsts)
        for i in range(floor)
    )
    buf[:, : floor * block_bytes] = np.frombuffer(digests, np.uint8).reshape(rows, -1)
    hashed = np.full(rows, floor)
    row_starts = np.arange(rows) * stride
    pos = np.zeros(rows, dtype=np.int64)
    draws = [np.zeros((0, rows), dtype=np.intp)]  # [steps, F] per run
    for width, m, count, first, more in groups:
        if width == 0:
            draws.append(np.zeros((count, rows), dtype=np.intp))
            continue
        bound = np.full(rows, m, dtype=np.uint16)
        windows, accepts = [], []
        tried = 0
        while True:
            attempts = more if windows else first
            end = np.where(bound > m - count, pos + width * (tried + attempts), 0)
            need = np.minimum(-(-end // BLOCK_BITS), n_blocks)
            for r in np.flatnonzero(need > hashed).tolist():
                for b in range(hashed[r], need[r]):
                    at = b * block_bytes
                    buf[r, at : at + block_bytes] = np.frombuffer(
                        _block_digest(states[r], firsts[r] + b), np.uint8
                    )
                hashed[r] = need[r]
            bit = pos + width * np.arange(tried, tried + attempts)[:, None]
            np.minimum(bit, n_bits, out=bit)
            byte = (bit >> 3) + row_starts
            pair = (flat[byte].astype(np.uint16) << 8) | flat[byte + 1]
            shift = (_WINDOW_BITS - width) - (bit & 7).astype(np.uint16)
            words = (pair >> shift) & ((1 << width) - 1)
            accepted = np.empty(words.shape, dtype=bool)
            for i in range(attempts):
                np.less(words[i], bound, out=accepted[i])
                bound -= accepted[i]
            windows.append(words)
            accepts.append(accepted)
            tried += attempts
            short = bound > m - count
            if not short.any():
                break
            # a row short of draws whose next word ends past its region
            # runs dry; the per-row kernel raises its error
            if (pos[short] + width * (tried + 1) > n_bits).any():
                return None
        # a row's draws are its first count accepted words, and the
        # count-th ends its run
        words, accepted = np.concatenate(windows), np.concatenate(accepts)
        taken = np.cumsum(accepted, axis=0)
        keep = accepted & (taken <= count)
        draws.append(words.T[keep.T].reshape(rows, count).T)
        pos += width * ((taken < count).sum(axis=0) + 1)
        # a word that ends past the region was read from the bits beyond it
        if pos.max() > n_bits:
            return None
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


def _extend(word: int, left: int, width: int, chunks) -> tuple[int, int]:
    """The unread bits of word followed by further chunks, until there are
    at least width of them."""
    word &= (1 << left) - 1
    for value, bits in chunks:
        word = (word << bits) | value
        left += bits
        if left >= width:
            return word, left
    raise KeystreamExhausted(f"needed {width} bits, {left} left")


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
