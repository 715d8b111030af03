"""Bit-vector key material and packing helpers.

Keys move through three stages: raw quantizer output, reconciled output after
secure-sketch decoding, and the final hashed key after privacy amplification.
The stage tag travels with the bits so downstream operations can refuse
out-of-order use (a keystream seed must be an amplified key, for example).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainStateError, ParameterError

STAGE_QUANTIZED = "quantized"
STAGE_RECONCILED = "reconciled"
STAGE_AMPLIFIED = "amplified"

_STAGE_ORDER = {STAGE_QUANTIZED: 0, STAGE_RECONCILED: 1, STAGE_AMPLIFIED: 2}


def as_bit_array(bits) -> np.ndarray:
    """Copy array-like input into a contiguous uint8 vector of 0/1 values.

    Every entry must be exactly 0 or 1; it is checked before the cast,
    which would wrap 257 to 1 and truncate 1.5 to 1.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ParameterError(f"bit vector must be 1-D, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        valid = arr.max(initial=0) <= 1
    else:
        valid = arr.dtype == np.bool_ or ((arr == 0) | (arr == 1)).all()
    if not valid:
        raise ParameterError("bit vector entries must be exactly 0 or 1")
    return arr.astype(np.uint8, copy=True)


@dataclass(frozen=True, eq=False)
class BitKey:
    """Ordered bit vector plus the pipeline stage it belongs to."""

    bits: np.ndarray
    stage: str = STAGE_QUANTIZED

    def __post_init__(self):
        if self.stage not in _STAGE_ORDER:
            raise ParameterError(f"unknown key stage {self.stage!r}")
        object.__setattr__(self, "bits", as_bit_array(self.bits))

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitKey):
            return NotImplemented
        return self.stage == other.stage and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.stage, self.bits.tobytes()))

    def advanced(self, stage: str, bits=None) -> "BitKey":
        """Return a key at a later (or equal) stage; backward moves are refused."""
        if stage not in _STAGE_ORDER:
            raise ParameterError(f"unknown key stage {stage!r}")
        if _STAGE_ORDER[stage] < _STAGE_ORDER[self.stage]:
            raise DomainStateError(
                f"key stage may only advance ({self.stage} -> {stage} refused)"
            )
        return BitKey(self.bits if bits is None else bits, stage)

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def pack_bits(bits) -> bytes:
    """Pack a 0/1 vector into bytes, MSB first, zero-padding the last byte."""
    arr = as_bit_array(bits)
    return np.packbits(arr).tobytes()


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    """Inverse of pack_bits for the first n_bits bits."""
    arr = np.frombuffer(data, dtype=np.uint8)
    out = np.unpackbits(arr)
    if out.size < n_bits:
        raise ParameterError("byte string shorter than requested bit count")
    return out[:n_bits].astype(np.uint8)


def bit_fraction_differing(a, b) -> float:
    """Fraction of positions where two equal-length bit vectors differ."""
    ua, ub = as_bit_array(a), as_bit_array(b)
    if ua.size != ub.size:
        raise ParameterError("bit vectors must have equal length")
    if ua.size == 0:
        raise ParameterError("bit vectors must be nonempty")
    return float(np.mean(ua != ub))
