import numpy as np
import pytest

from physec.bits import (
    STAGE_AMPLIFIED,
    STAGE_QUANTIZED,
    STAGE_RECONCILED,
    BitKey,
    as_bit_array,
    bit_fraction_differing,
    pack_bits,
    unpack_bits,
)
from physec.errors import DomainStateError, ParameterError


def test_as_bit_array_accepts_list_and_bool():
    assert np.array_equal(as_bit_array([1, 0, 1]), np.array([1, 0, 1], np.uint8))
    assert as_bit_array(np.array([True, False])).dtype == np.uint8


def test_as_bit_array_rejects_non_bits():
    with pytest.raises(ParameterError):
        as_bit_array([0, 1, 2])
    with pytest.raises(ParameterError):
        as_bit_array(np.zeros((2, 2)))


def test_as_bit_array_checks_before_the_cast():
    # a cast first would wrap 257 to 1 and truncate 1.5 to 1
    with pytest.raises(ParameterError, match="exactly 0 or 1"):
        BitKey(np.array([0, 257, 1]))
    with pytest.raises(ParameterError, match="exactly 0 or 1"):
        as_bit_array([1.5])
    for bad in ([-1], [np.nan], np.array([0, 2], np.uint8), np.array([0, -255], np.int16)):
        with pytest.raises(ParameterError, match="exactly 0 or 1"):
            as_bit_array(bad)
    assert np.array_equal(as_bit_array([1.0, 0.0, -0.0]), [1, 0, 0])
    assert as_bit_array(np.array([], dtype=float)).dtype == np.uint8


def test_as_bit_array_copies_uint8_and_bool_input():
    for bits in (np.array([1, 0, 1], np.uint8), np.array([True, False, True])):
        out = as_bit_array(bits)
        assert out.dtype == np.uint8 and np.array_equal(out, [1, 0, 1])
        assert not np.shares_memory(out, bits)


def test_bitkey_equality_includes_stage():
    a = BitKey([1, 0, 1], STAGE_QUANTIZED)
    b = BitKey([1, 0, 1], STAGE_QUANTIZED)
    c = BitKey([1, 0, 1], STAGE_RECONCILED)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != BitKey([1, 0, 0], STAGE_QUANTIZED)


def test_bitkey_stage_only_advances():
    k = BitKey([1, 0], STAGE_QUANTIZED)
    r = k.advanced(STAGE_RECONCILED)
    assert r.stage == STAGE_RECONCILED and np.array_equal(r.bits, k.bits)
    a = r.advanced(STAGE_AMPLIFIED, [1, 1, 1])
    assert len(a) == 3
    with pytest.raises(DomainStateError):
        a.advanced(STAGE_QUANTIZED)


def test_bitkey_unknown_stage():
    with pytest.raises(ParameterError):
        BitKey([1], "mystery")


def test_bitkey_text_round_trip():
    def from01(text):
        return BitKey(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))

    assert from01("10110").to01() == "10110"
    with pytest.raises(ParameterError):
        from01("10x")


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 7, 8, 9, 63, 256):
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), n), bits)


def test_pack_bits_msb_first():
    assert pack_bits([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"
    assert pack_bits([1]) == b"\x80"
    assert pack_bits([0, 0, 0, 0, 0, 0, 0, 1]) == b"\x01"


def test_unpack_too_short():
    with pytest.raises(ParameterError):
        unpack_bits(b"\x00", 9)


def test_bit_fraction_differing():
    assert bit_fraction_differing([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
    assert bit_fraction_differing([1, 1], [1, 1]) == 0.0
    with pytest.raises(ParameterError):
        bit_fraction_differing([1], [1, 0])
    with pytest.raises(ParameterError):
        bit_fraction_differing([], [])
