"""Hash-counter keystream and the keyed primitives built on it.

Keystream block i is SHA-256(packed key || nonce + i), 256 bits, MSB-first,
so any block is addressable without generating its predecessors. Every
consumer states its bit budget up front; running past the handed-out slice
raises KeystreamExhausted rather than silently reusing bits.
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


def keystream(seed: KeystreamSeed, n_bits: int, block_offset: int = 0) -> np.ndarray:
    """Generate n_bits keystream bits starting at the given block offset.

    Deterministic and seekable: bits [256 i, 256 (i+1)) depend only on the
    seed and on block index nonce + block_offset + i (mod 2^64).
    """
    if n_bits < 0:
        raise ParameterError("n_bits must be >= 0")
    if n_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    key_state = hashlib.sha256(pack_bits(seed.key.bits))
    first = seed.nonce + block_offset
    chunks = []
    for i in range(-(-n_bits // BLOCK_BITS)):
        block = key_state.copy()
        block.update(((first + i) % (1 << 64)).to_bytes(8, "big"))
        chunks.append(block.digest())
    return np.unpackbits(np.frombuffer(b"".join(chunks), dtype=np.uint8), count=n_bits)


def xor_encrypt(plain, ks) -> np.ndarray:
    """XOR a bit vector with a keystream prefix. Involutive."""
    p = np.asarray(plain, dtype=np.uint8)
    k = np.asarray(ks, dtype=np.uint8)
    if k.size < p.size:
        raise ParameterError(f"keystream too short: {k.size} < {p.size} bits")
    return p ^ k[: p.size]


def keyed_permutation(n: int, ks) -> np.ndarray:
    """Fisher-Yates shuffle of 0..n-1 driven by keystream bits.

    Rejection sampling keeps every draw uniform, so permutations are
    unbiased; consumption is variable, so hand in a generous slice.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    perm = _keyed_swaps(list(range(n)), ks, _swap_plan(n, n - 1, True))
    return np.array(perm, dtype=np.intp)


def keyed_subset(pool, count: int, ks) -> np.ndarray:
    """First `count` entries of a keystream-keyed partial shuffle of pool."""
    arr = np.asarray(pool, dtype=np.intp).tolist()
    if not 0 <= count <= len(arr):
        raise ParameterError("count must be in [0, pool size]")
    _keyed_swaps(arr, ks, _swap_plan(len(arr), count, False))
    return np.array(arr[:count], dtype=np.intp)


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


def _keyed_swaps(items: list, ks, plan) -> list:
    """Run a swap plan on items in place, each draw rejection-sampled from ks.

    ks is read MSB first as one integer. A draw that runs past its end
    raises KeystreamExhausted with the bits it needed and the bits left.
    """
    bits = np.asarray(ks, dtype=np.uint8)
    packed = np.packbits(bits)
    left = bits.size
    word = int.from_bytes(packed.tobytes(), "big") >> (8 * packed.size - left)
    for slot, low, m, width, mask in plan:
        while True:
            left -= width
            if left < 0:
                raise KeystreamExhausted(f"needed {width} bits, {left + width} left")
            draw = (word >> left) & mask
            if draw < m:
                break
        draw += low
        items[slot], items[draw] = items[draw], items[slot]
    return items


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
    return 4 * sum(width for _, _, _, width, _ in plan)
