"""Hash-counter keystream and the keyed primitives built on it.

Keystream block i is SHA-256(packed key || nonce + i), 256 bits, MSB-first,
so any block is addressable without generating its predecessors. Every
consumer states its bit budget up front; running past the handed-out slice
raises KeystreamExhausted rather than silently reusing bits.

keystream() hashes every block of the slices it returns, one row per block
offset when given several. keyed_permutation and keyed_subset take a bit
vector, a batch of bit rows, or a KeystreamRegions batch, whose rows they
hash only as far as their draws read: a 64-point permutation reads about a
third of its budget, so most of its region is never hashed.
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


def _region_source(state, first: int, n_bits: int, sure_bits: int) -> tuple:
    """One region as a bit source (see _bit_sources): the blocks holding its
    first sure_bits bits hashed now, each later block only when a draw
    reaches it, the last cut to the region's end."""
    sure = min(-(-sure_bits // BLOCK_BITS), -(-n_bits // BLOCK_BITS))
    digests = b"".join(_block_digest(state, first + j) for j in range(sure))
    left = min(sure * BLOCK_BITS, n_bits)
    word = int.from_bytes(digests, "big") >> (sure * BLOCK_BITS - left)
    return word, left, _later_blocks(state, first, n_bits, sure)


def _later_blocks(state, first: int, n_bits: int, done: int):
    """(value, width) of each block of a region after its first `done`."""
    for start in range(done * BLOCK_BITS, n_bits, BLOCK_BITS):
        width = min(BLOCK_BITS, n_bits - start)
        digest = _block_digest(state, first + start // BLOCK_BITS)
        yield int.from_bytes(digest, "big") >> (BLOCK_BITS - width), width


def _bit_sources(ks, sure_bits: int) -> tuple:
    """Each keystream row as (word, bits in word, more chunks or None), and
    whether ks is a batch (a KeystreamRegions or a 2-D bit array).

    A KeystreamRegions row is hashed when its draws start, up front as far
    as sure_bits, the bits every run of the caller's swap plan reads.
    """
    if isinstance(ks, KeystreamRegions):
        state, nonce = _key_state(ks.seed), ks.seed.nonce
        return (
            _region_source(state, nonce + b, ks.n_bits, sure_bits)
            for b in ks.first_blocks
        ), True
    bits = np.asarray(ks, dtype=np.uint8)
    if bits.ndim not in (1, 2):
        raise ParameterError(f"keystream must be 1-D or 2-D, got shape {bits.shape}")
    rows = bits if bits.ndim == 2 else bits[None]
    n_bits = rows.shape[1]
    packed = np.packbits(rows, axis=1)
    pad = 8 * packed.shape[1] - n_bits
    return [
        (int.from_bytes(row.tobytes(), "big") >> pad, n_bits, None) for row in packed
    ], bits.ndim == 2


def keyed_permutation(n: int, ks) -> np.ndarray:
    """Fisher-Yates shuffle of 0..n-1 driven by keystream bits.

    Rejection sampling keeps every draw uniform, so permutations are
    unbiased; consumption is variable, so hand in a generous slice. A batch
    of keystream rows (see _bit_sources) gives one permutation per row,
    shape [F, n].
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    plan = _swap_plan(n, n - 1, True)
    sources, batch = _bit_sources(ks, _plan_bits(plan))
    items = list(range(n))
    perms = [_keyed_swaps(items.copy(), plan, *source) for source in sources]
    return _draws(perms, n, batch)


def keyed_subset(pool, count: int, ks) -> np.ndarray:
    """First `count` entries of a keystream-keyed partial shuffle of pool.

    A batch of keystream rows gives one subset per row, shape [F, count].
    """
    arr = np.asarray(pool, dtype=np.intp).tolist()
    if not 0 <= count <= len(arr):
        raise ParameterError("count must be in [0, pool size]")
    plan = _swap_plan(len(arr), count, False)
    sources, batch = _bit_sources(ks, _plan_bits(plan))
    subsets = [_keyed_swaps(arr.copy(), plan, *source)[:count] for source in sources]
    return _draws(subsets, count, batch)


def _draws(rows: list, width: int, batch: bool) -> np.ndarray:
    """The drawn rows as [F, width] for a batch, else the single row."""
    out = np.array(rows, dtype=np.intp).reshape(len(rows), width)
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


def _keyed_swaps(items: list, plan, word: int, left: int, more=None) -> list:
    """Run a swap plan on items in place, each draw rejection-sampled from
    a keystream row.

    The low `left` bits of word are the row's unread bits, read MSB first;
    more yields the chunks that follow them, appended only when a draw runs
    past the word's end. A draw that runs past the row's end raises
    KeystreamExhausted with the bits it needed and the bits left.
    """
    for slot, low, m, width, mask in plan:
        while True:
            if left < width:
                word, left = _extend(word, left, width, more)
            left -= width
            draw = (word >> left) & mask
            if draw < m:
                break
        draw += low
        items[slot], items[draw] = items[draw], items[slot]
    return items


def _extend(word: int, left: int, width: int, more) -> tuple[int, int]:
    """The unread bits of word followed by chunks of more, until there are
    at least width of them."""
    word &= (1 << left) - 1
    for value, bits in more or ():
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


def _plan_bits(plan) -> int:
    """The bits a swap plan reads when no draw is rejected: its least need."""
    return sum(width for _, _, _, width, _ in plan)


def _plan_budget(plan) -> int:
    return 4 * _plan_bits(plan)
