"""Hash-counter keystream and the keyed primitives built on it.

Keystream block i is SHA-256(packed key || nonce + i), 256 bits, MSB-first,
so any block is addressable without generating its predecessors. Every
consumer states its bit budget up front; running past the handed-out slice
raises KeystreamExhausted rather than silently reusing bits.
"""
from __future__ import annotations

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
    key_bytes = pack_bits(seed.key.bits)
    n_blocks = -(-n_bits // BLOCK_BITS)
    chunks = []
    for i in range(n_blocks):
        counter = (seed.nonce + block_offset + i) % (1 << 64)
        chunks.append(hashlib.sha256(key_bytes + counter.to_bytes(8, "big")).digest())
    bits = np.unpackbits(np.frombuffer(b"".join(chunks), dtype=np.uint8))
    return bits[:n_bits].astype(np.uint8)


def xor_encrypt(plain, ks) -> np.ndarray:
    """XOR a bit vector with a keystream prefix. Involutive."""
    p = np.asarray(plain, dtype=np.uint8)
    k = np.asarray(ks, dtype=np.uint8)
    if k.size < p.size:
        raise ParameterError(f"keystream too short: {k.size} < {p.size} bits")
    return p ^ k[: p.size]


class BitReader:
    """Sequential reader over a keystream slice with exhaustion checking.

    The slice is packed once into a Python integer, MSB first, so a word of
    any width is one shift and mask rather than a loop over its bits.
    """

    def __init__(self, bits):
        self._bits = np.asarray(bits, dtype=np.uint8)
        packed = np.packbits(self._bits)
        self._word = int.from_bytes(packed.tobytes(), "big")
        self._width = 8 * packed.size
        self._size = self._bits.size
        self._pos = 0

    @property
    def consumed(self) -> int:
        return self._pos

    def _exhausted(self, count: int) -> KeystreamExhausted:
        return KeystreamExhausted(f"needed {count} bits, {self._size - self._pos} left")

    def read_word(self, width: int) -> int:
        """Next `width` bits as a big-endian integer."""
        end = self._pos + width
        if end > self._size:
            raise self._exhausted(width)
        self._pos = end
        return (self._word >> (self._width - end)) & ((1 << width) - 1)

    def read_bits(self, count: int) -> np.ndarray:
        start = self._pos
        if start + count > self._size:
            raise self._exhausted(count)
        self._pos = start + count
        return self._bits[start : self._pos]

    def draw_uniform(self, m: int) -> int:
        """Unbiased draw from {0, .., m-1} by rejection sampling."""
        if m < 1:
            raise ParameterError("m must be >= 1")
        if m == 1:
            return 0
        width = (m - 1).bit_length()
        while True:
            value = self.read_word(width)
            if value < m:
                return value


def keyed_permutation(n: int, ks) -> np.ndarray:
    """Fisher-Yates shuffle of 0..n-1 driven by keystream bits.

    Rejection sampling keeps every draw uniform, so permutations are
    unbiased; consumption is variable, so hand in a generous slice.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    reader = BitReader(ks)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = reader.draw_uniform(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.intp)


def keyed_subset(pool, count: int, ks) -> np.ndarray:
    """First `count` entries of a keystream-keyed partial shuffle of pool."""
    arr = np.asarray(pool, dtype=np.intp).tolist()
    if not 0 <= count <= len(arr):
        raise ParameterError("count must be in [0, pool size]")
    reader = BitReader(ks)
    for i in range(count):
        j = i + reader.draw_uniform(len(arr) - i)
        arr[i], arr[j] = arr[j], arr[i]
    return np.array(arr[:count], dtype=np.intp)


def invert_permutation(perm) -> np.ndarray:
    p = np.asarray(perm, dtype=np.intp)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=np.intp)
    return inv


def permutation_allocation_bits(n: int) -> int:
    """Deterministic keystream budget for keyed_permutation(n).

    Four times the no-rejection need; a Fisher-Yates draw from m choices
    accepts with probability > 1/2 per attempt, so overrunning a 4x
    allocation has negligible probability.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    return 4 * int(sum((m - 1).bit_length() for m in range(2, n + 1)))


def subset_allocation_bits(pool_size: int, count: int) -> int:
    """Deterministic keystream budget for keyed_subset."""
    if not 0 <= count <= pool_size:
        raise ParameterError("count must be in [0, pool_size]")
    return 4 * int(
        sum((pool_size - i - 1).bit_length() for i in range(count) if pool_size - i > 1)
    )
