"""Gray-labeled constellation mapping for the OFDM subcarriers.

Both mappings have exactly unit average symbol energy so per-subcarrier
SNR statements stay calibration-free. Labels are Gray: nearest neighbors
differ in one bit, per axis for 16QAM and around the circle for QPSK.
Each mapping's points are one read-only table, built once at import.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError

QPSK = "qpsk"
QAM16 = "16qam"

_QAM16_SCALE = 1.0 / np.sqrt(10.0)


def _square(axis: np.ndarray) -> np.ndarray:
    """Points axis[i] + j axis[q], labeled by the bits of i followed by q."""
    pts = (axis[:, None] + 1j * axis[None, :]).ravel()
    pts.flags.writeable = False
    return pts


# QPSK labels each axis by its sign bit, 16QAM by a 2-bit Gray word:
# 00 -> -3, 01 -> -1, 11 -> 1, 10 -> 3
_CONSTELLATIONS = {
    QPSK: _square(np.array([1.0, -1.0]) / np.sqrt(2.0)),
    QAM16: _square(np.array([-3.0, -1.0, 3.0, 1.0]) * _QAM16_SCALE),
}


def _points(mapping: str) -> np.ndarray:
    if mapping not in _CONSTELLATIONS:
        raise ParameterError(f"unknown mapping {mapping!r}")
    return _CONSTELLATIONS[mapping]


def bits_per_symbol(mapping: str) -> int:
    return _points(mapping).size.bit_length() - 1


def map_symbols(bits, mapping: str) -> np.ndarray:
    """Bit vector -> complex symbols, bits grouped MSB-first per symbol."""
    arr = np.asarray(bits, dtype=np.uint8)
    bps = bits_per_symbol(mapping)
    if arr.ndim != 1 or arr.size % bps != 0:
        raise ParameterError(f"bit count must be a multiple of {bps}")
    idx = arr.reshape(-1, bps) @ (1 << np.arange(bps - 1, -1, -1))
    return _points(mapping)[idx]


def demap_symbols(symbols, mapping: str) -> np.ndarray:
    """Hard-decision demapping to the nearest constellation point."""
    sym = np.asarray(symbols, dtype=complex)
    if mapping == QPSK:
        b0 = (sym.real < 0).astype(np.uint8)
        b1 = (sym.imag < 0).astype(np.uint8)
        return np.stack([b0, b1], axis=1).ravel()
    if mapping == QAM16:
        bits = np.empty((sym.size, 4), dtype=np.uint8)
        for col, axis in ((0, sym.real), (2, sym.imag)):
            level = axis / _QAM16_SCALE
            bits[:, col] = level > 0
            bits[:, col + 1] = np.abs(level) < 2
        return bits.ravel()
    raise ParameterError(f"unknown mapping {mapping!r}")


def min_decision_distance(mapping: str) -> float:
    """Smallest distance between two constellation points."""
    pts = _points(mapping)
    d = np.abs(pts[:, None] - pts[None, :])
    return float(d[d > 0].min())
