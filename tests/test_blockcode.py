from itertools import combinations

import numpy as np
import pytest

from physec.blockcode import LinearBlockCode, code_by_id, hamming74, repetition41
from physec.errors import DecodeFailure, ParameterError


def _int_to_bits(v, width):
    return ((v >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


def test_hamming_encode_examples():
    code = hamming74()
    assert list(code.encode([0, 0, 0, 0])) == [0, 0, 0, 0, 0, 0, 0]
    assert list(code.encode([1, 0, 1, 1])) == [1, 0, 1, 1, 0, 1, 0]


def test_hamming_shape_and_radius():
    code = hamming74()
    assert (code.n_code, code.k_code, code.t_corr) == (7, 4, 1)


def test_hamming_min_distance_exhaustive():
    code = hamming74()
    cw = code.codewords()
    assert cw.shape == (16, 7)
    dmin = min(
        int(np.sum(cw[i] != cw[j])) for i, j in combinations(range(16), 2)
    )
    assert dmin == 3


def test_hamming_linearity():
    code = hamming74()
    cw = code.codewords()
    seen = {tuple(w) for w in cw}
    for i in range(16):
        for j in range(16):
            assert tuple(cw[i] ^ cw[j]) in seen


def test_hamming_clean_roundtrip():
    code = hamming74()
    msgs = np.array([_int_to_bits(v, 4) for v in range(16)])
    assert np.array_equal(code.decode_batch(code.encode(msgs)), msgs)


def test_hamming_corrects_all_single_errors():
    code = hamming74()
    for v in range(16):
        msg = _int_to_bits(v, 4)
        corrupted = np.tile(code.encode(msg), (7, 1))
        corrupted[np.arange(7), np.arange(7)] ^= 1
        assert np.array_equal(code.decode_batch(corrupted), np.tile(msg, (7, 1)))


def test_hamming_two_bit_errors_miscorrect():
    # perfect code: decoding never fails, but a double error always lands on
    # a different message than the one sent
    code = hamming74()
    for v in range(16):
        msg = _int_to_bits(v, 4)
        pairs = list(combinations(range(7), 2))
        corrupted = np.tile(code.encode(msg), (len(pairs), 1))
        for row, (i, j) in zip(corrupted, pairs):
            row[[i, j]] ^= 1
        assert not np.any(np.all(code.decode_batch(corrupted) == msg, axis=1))


def test_repetition_single_error_ok():
    code = repetition41()
    assert (code.n_code, code.k_code, code.t_corr) == (4, 1, 1)
    for bit in (0, 1):
        corrupted = np.tile(code.encode([bit]), (4, 1))
        corrupted[np.arange(4), np.arange(4)] ^= 1
        assert np.array_equal(code.decode_batch(corrupted), np.full((4, 1), bit))


def test_repetition_double_error_fails():
    code = repetition41()
    for bit in (0, 1):
        word = code.encode([bit])
        for i, j in combinations(range(4), 2):
            corrupted = word.copy()
            corrupted[[i, j]] ^= 1
            with pytest.raises(DecodeFailure):
                code.decode_batch(corrupted[None])


def test_decode_batch_matches_scalar():
    code = hamming74()
    rng = np.random.default_rng(0)
    msgs = rng.integers(0, 2, size=(50, 4), dtype=np.uint8)
    words = code.encode(msgs)
    flips = rng.integers(0, 7, size=50)
    words[np.arange(50), flips] ^= 1
    batch = code.decode_batch(words)
    for row, word in zip(batch, words):
        assert np.array_equal(row, code.decode_batch(word[None])[0])
    assert np.array_equal(batch, msgs)


def test_decode_batch_reports_failing_block():
    code = repetition41()
    words = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.uint8)
    with pytest.raises(DecodeFailure, match="block 1"):
        code.decode_batch(words)


@pytest.mark.parametrize("shape", [(2, 6), (7,), (2, 8)])
def test_decode_batch_rejects_wrong_shapes(shape):
    with pytest.raises(ParameterError, match=r"shape \(m, 7\)"):
        hamming74().decode_batch(np.zeros(shape, dtype=np.uint8))


def test_code_by_id():
    for code_id in ("hamming74", "rep41"):
        code = code_by_id(code_id)
        assert code.code_id == code_id
        # one shared instance per id, so its tables are read-only
        assert code_by_id(code_id) is code
        for table in (code.parity, code._h_t, code._correctable, code._message_fix):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
    assert hamming74() is not hamming74()
    with pytest.raises(ParameterError):
        code_by_id("golay")


def test_constructor_and_io_validation():
    with pytest.raises(ParameterError):
        LinearBlockCode(np.zeros((0, 3), dtype=np.uint8), 1, "bad")
    with pytest.raises(ParameterError):
        LinearBlockCode(np.ones((2, 2), dtype=np.uint8), -1, "bad")
    code = hamming74()
    with pytest.raises(ParameterError):
        code.encode([1, 0, 1])
    with pytest.raises(ParameterError):
        code.decode_batch([[1, 0, 1, 1, 0, 1]])


def test_single_word_decode_fails_as_block_zero():
    code = repetition41()
    message = "^block 0: syndrome outside correction radius$"
    with pytest.raises(DecodeFailure, match=message):
        code.decode_batch(np.array([[1, 1, 0, 0]], dtype=np.uint8))


def _reference_decode_batch(code, words):
    """Decoding through a table of whole error patterns as integers, each
    unpacked per call, kept as the reference."""
    n, r = code.n_code, code.n_code - code.k_code
    h_t = np.vstack([code.parity, np.eye(r, dtype=np.uint8)])
    syn_weights = 1 << np.arange(r - 1, -1, -1)
    table = np.full(1 << r, -1, dtype=np.int64)
    table[0] = 0
    for w in range(1, code.t_corr + 1):
        for positions in combinations(range(n), w):
            err = np.zeros(n, dtype=np.uint8)
            err[list(positions)] = 1
            syn = int((err @ h_t % 2) @ syn_weights)
            if table[syn] == -1:
                table[syn] = int(err @ (1 << np.arange(n - 1, -1, -1)))
    patterns = table[(words @ h_t % 2) @ syn_weights]
    if np.any(patterns == -1):
        bad = int(np.flatnonzero(patterns == -1)[0])
        raise DecodeFailure(f"block {bad}: syndrome outside correction radius")
    errs = ((patterns[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    return (words ^ errs)[:, : code.k_code]


def _decoded(decode, words):
    try:
        return decode(words).tobytes()
    except DecodeFailure as exc:
        return str(exc)


@pytest.mark.parametrize("make", [hamming74, repetition41])
def test_decode_batch_matches_pattern_table_reference(make):
    code = make()
    every_word = np.array([_int_to_bits(v, code.n_code) for v in range(1 << code.n_code)])
    rng = np.random.default_rng(code.n_code)
    batches = [every_word[i : i + 1] for i in range(every_word.shape[0])]
    batches += [every_word[rng.integers(0, every_word.shape[0], 9)] for _ in range(200)]
    for words in batches:
        want = _decoded(lambda w: _reference_decode_batch(code, w), words)
        assert _decoded(code.decode_batch, words) == want


@pytest.mark.parametrize("first_bad", range(6))
def test_decode_batch_names_the_first_failing_block_like_the_reference(first_bad):
    code = repetition41()
    words = np.tile(np.array([1, 1, 1, 0], dtype=np.uint8), (6, 1))
    words[first_bad:] = [1, 1, 0, 0]  # two errors: outside the correction radius
    want = f"block {first_bad}: syndrome outside correction radius"
    assert _decoded(lambda w: _reference_decode_batch(code, w), words) == want
    assert _decoded(code.decode_batch, words) == want
