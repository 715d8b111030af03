"""Hash-counter keystream and the keyed primitives built on it.

Keystream block i is SHA-256(packed key || nonce + i), 256 bits, MSB-first,
so any block is addressable without generating its predecessors. Every
consumer states its bit budget up front; running past the handed-out slice
raises KeystreamExhausted rather than silently reusing bits.

keystream() hashes every block of the slices it returns, one row per block
offset when given several. keyed_permutation and keyed_subset take a bit
vector, a batch of bit rows, or a KeystreamRegions batch, and read each row
as a stream of (value, width) chunks: a bit row is one chunk, a region row
yields its blocks one by one, each hashed only when a draw reaches it. A
64-point permutation reads about a third of its budget, so most of its
region is never hashed.
"""
from __future__ import annotations

import functools
import hashlib
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


def keystream(seed: KeystreamSeed, n_bits: int, block_offset=0) -> np.ndarray:
    """Generate n_bits keystream bits starting at the given block offset.

    Deterministic and seekable: bits [256 i, 256 (i+1)) depend only on the
    seed and on block index nonce + block_offset + i (mod 2^64). A 1-D
    sequence of block offsets gives one row of n_bits bits per offset,
    shape [len(block_offset), n_bits], all hashed from one key state.
    """
    if n_bits < 0:
        raise ParameterError("n_bits must be >= 0")
    batch = np.ndim(block_offset) == 1
    firsts = [seed.nonce + int(b) for b in (block_offset if batch else [block_offset])]
    if n_bits == 0 or not firsts:
        out = np.zeros((len(firsts), n_bits), dtype=np.uint8)
        return out if batch else out[0]
    state = _key_state(seed)
    n_blocks = -(-n_bits // BLOCK_BITS)
    digests = b"".join(
        _block_digest(state, first + i) for first in firsts for i in range(n_blocks)
    )
    packed = np.frombuffer(digests, dtype=np.uint8).reshape(len(firsts), -1)
    out = np.unpackbits(packed, axis=1, count=n_bits)
    return out if batch else out[0]


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

    Row f holds the bits keystream(seed, n_bits, first_blocks[f]) returns.
    keyed_permutation and keyed_subset take it in place of that
    [F, n_bits] bit array and give the same rows, but hash each row only as
    far as its draws read.
    """

    seed: KeystreamSeed
    n_bits: int
    first_blocks: tuple

    def __post_init__(self):
        if self.n_bits < 0:
            raise ParameterError("n_bits must be >= 0")
        object.__setattr__(self, "first_blocks", tuple(map(int, self.first_blocks)))


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
    arr = np.asarray(pool, dtype=np.intp).tolist()
    if not 0 <= count <= len(arr):
        raise ParameterError("count must be in [0, pool size]")
    return _draw(arr, _swap_plan(len(arr), count, False), count, ks)


def _draw(items: list, plan, count: int, ks) -> np.ndarray:
    """Run plan on a copy of items per keystream row and keep the first
    count items of each: [F, count] for a batch of rows, else one row.

    Each row reaches the kernel as (value, width) chunks: a bit-array row
    is one chunk, and a KeystreamRegions row yields its blocks in order.
    """
    if isinstance(ks, KeystreamRegions):
        state, nonce, n_bits = _key_state(ks.seed), ks.seed.nonce, ks.n_bits
        rows = (_region_blocks(state, nonce + b, n_bits) for b in ks.first_blocks)
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
