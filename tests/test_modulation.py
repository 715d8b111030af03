import math

import numpy as np
import pytest

from physec.errors import ParameterError
from physec.modulation import (
    QAM16,
    QPSK,
    bits_per_symbol,
    demap_symbols,
    map_symbols,
    min_decision_distance,
)


def constellation(mapping):
    """Points indexed by the big-endian integer value of the bit label."""
    bps = bits_per_symbol(mapping)
    labels = ((np.arange(1 << bps)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).ravel()
    return map_symbols(labels, mapping)


def test_qpsk_example():
    sym = map_symbols([0, 0], QPSK)
    assert sym[0] == pytest.approx((1 + 1j) / math.sqrt(2))


def _loop_constellation(mapping):
    """Points built label by label, the reference the table must equal."""
    if mapping == QPSK:
        pts = np.empty(4, dtype=complex)
        for b0 in (0, 1):
            for b1 in (0, 1):
                pts[(b0 << 1) | b1] = ((1 - 2 * b0) + 1j * (1 - 2 * b1)) / math.sqrt(2)
        return pts
    levels = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}
    pts = np.empty(16, dtype=complex)
    for word in range(16):
        pts[word] = (levels[word >> 2] + 1j * levels[word & 0b11]) / math.sqrt(10)
    return pts


@pytest.mark.parametrize("mapping", [QPSK, QAM16])
def test_constellation_bytes_equal_loop_reference(mapping):
    want = _loop_constellation(mapping)
    pts = constellation(mapping)
    assert pts.tobytes() == want.tobytes()
    # the caller owns what it gets back, not the table map_symbols reads
    pts[:] = 0
    assert constellation(mapping).tobytes() == want.tobytes()


def test_qpsk_unit_modulus():
    pts = constellation(QPSK)
    assert pts.size == 4
    assert np.allclose(np.abs(pts), 1.0)


def test_qam16_unit_average_energy():
    pts = constellation(QAM16)
    assert pts.size == 16
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_qpsk_gray_adjacency():
    # walking the circle changes exactly one label bit per step
    pts = constellation(QPSK)
    order = np.argsort(np.angle(pts))
    labels = [((v >> 1) & 1, v & 1) for v in order]
    for a, b in zip(labels, labels[1:] + labels[:1]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_qam16_gray_adjacency_per_axis():
    pts = constellation(QAM16)
    for v in range(16):
        for u in range(v):
            gap = abs(pts[v] - pts[u])
            if gap < min_decision_distance(QAM16) * 1.001:
                assert bin(u ^ v).count("1") == 1


def test_exhaustive_roundtrips():
    for mapping, bps in ((QPSK, 2), (QAM16, 4)):
        n = 1 << bps
        bits = ((np.arange(n)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(
            np.uint8
        ).ravel()
        assert np.array_equal(demap_symbols(map_symbols(bits, mapping), mapping), bits)


def test_demap_tolerates_sub_threshold_noise():
    rng = np.random.default_rng(0)
    for mapping in (QPSK, QAM16):
        bps = bits_per_symbol(mapping)
        bits = rng.integers(0, 2, size=400 * bps, dtype=np.uint8)
        sym = map_symbols(bits, mapping)
        # displace each point by just under half the decision distance
        radius = 0.49 * min_decision_distance(mapping)
        theta = rng.uniform(0, 2 * np.pi, size=sym.size)
        noisy = sym + radius * np.exp(1j * theta)
        assert np.array_equal(demap_symbols(noisy, mapping), bits)


def test_min_decision_distances():
    assert min_decision_distance(QPSK) == pytest.approx(math.sqrt(2.0))
    assert min_decision_distance(QAM16) == pytest.approx(2.0 / math.sqrt(10.0))


def test_validation():
    with pytest.raises(ParameterError):
        bits_per_symbol("8psk")
    with pytest.raises(ParameterError):
        map_symbols([0, 1, 0], QPSK)
    with pytest.raises(ParameterError):
        map_symbols([0, 1], "8psk")
    with pytest.raises(ParameterError):
        demap_symbols([1 + 1j], "8psk")
