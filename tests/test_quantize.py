import numpy as np
import pytest

from physec import quantize
from physec.bits import STAGE_QUANTIZED, BitKey
from physec.errors import DegenerateInputError, ParameterError
from physec.quantize import (
    CdfConfig,
    MeanSigmaConfig,
    QuantizationOutcome,
    gray_code,
    intersect_kept_indices,
    quantize_cdf,
    quantize_mean_sigma,
)

EXAMPLE = np.array([1.0, 2.0, 3.0, 4.0, 5.0])


def test_mean_sigma_example_half_alpha():
    out = quantize_mean_sigma(EXAMPLE, MeanSigmaConfig(alpha=0.5))
    # mu = 3, sigma = sqrt(2.5): thresholds 3.7906 / 2.2094, sample 3 dropped
    assert list(out.bits.bits) == [0, 0, 1, 1]
    assert list(out.kept_indices) == [0, 1, 3, 4]
    assert out.bits_per_sample == 1
    assert out.bits.stage == STAGE_QUANTIZED


def test_mean_sigma_alpha_zero_drops_boundary():
    out = quantize_mean_sigma(EXAMPLE, MeanSigmaConfig(alpha=0.0))
    # both thresholds collapse to mu = 3; equality still drops
    assert list(out.bits.bits) == [0, 0, 1, 1]
    assert list(out.kept_indices) == [0, 1, 3, 4]


def test_mean_sigma_huge_alpha_empty():
    out = quantize_mean_sigma(EXAMPLE, MeanSigmaConfig(alpha=1e6))
    assert len(out.bits) == 0 and out.kept_indices.size == 0


def test_mean_sigma_constant_input_empty():
    out = quantize_mean_sigma(np.ones(10), MeanSigmaConfig(alpha=0.5))
    assert len(out.bits) == 0


def test_mean_sigma_input_validation():
    with pytest.raises(ParameterError):
        quantize_mean_sigma([1.0], MeanSigmaConfig())
    with pytest.raises(ParameterError):
        quantize_mean_sigma(np.zeros((3, 3)), MeanSigmaConfig())
    with pytest.raises(ParameterError):
        MeanSigmaConfig(alpha=-0.1)


def test_mean_sigma_affine_invariance():
    rng = np.random.default_rng(0)
    cfg = MeanSigmaConfig(alpha=0.5)
    for _ in range(1000):
        x = rng.normal(size=50)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        ref = quantize_mean_sigma(x, cfg)
        got = quantize_mean_sigma(a * x + b, cfg)
        assert np.array_equal(ref.bits.bits, got.bits.bits)
        assert np.array_equal(ref.kept_indices, got.kept_indices)


def test_mean_sigma_ones_balanced_at_alpha_zero():
    rng = np.random.default_rng(1)
    x = rng.normal(size=1 << 14)
    out = quantize_mean_sigma(x, MeanSigmaConfig(alpha=0.0))
    frac = out.bits.bits.mean()
    assert abs(frac - 0.5) < 0.02


def test_gray_code_examples():
    assert list(gray_code(0, 2)) == [0, 0]
    assert list(gray_code(1, 2)) == [0, 1]
    assert list(gray_code(2, 2)) == [1, 1]
    assert list(gray_code(3, 2)) == [1, 0]


def test_gray_code_adjacency_all_levels():
    for ql in range(1, 9):
        codes = [gray_code(j, ql) for j in range(1 << ql)]
        assert np.array_equal(gray_code(np.arange(1 << ql), ql), codes)
        for a, b in zip(codes, codes[1:]):
            assert int(np.sum(a != b)) == 1
        # codes are distinct, i.e. a true relabeling
        assert len({tuple(c) for c in codes}) == 1 << ql


def test_gray_code_validation():
    with pytest.raises(ParameterError):
        gray_code(4, 2)
    with pytest.raises(ParameterError):
        gray_code(-1, 2)
    with pytest.raises(ParameterError):
        gray_code(0, 0)
    with pytest.raises(ParameterError):
        gray_code(np.array([0, 3, 4]), 2)


def test_cdf_example_one_bit():
    key = quantize_cdf([10.0, 20.0, 30.0, 40.0], CdfConfig(quantization_level=1))
    assert list(key.bits) == [0, 0, 1, 1]
    assert key.stage == STAGE_QUANTIZED


def test_cdf_example_two_bits():
    key = quantize_cdf([10.0, 20.0, 30.0, 40.0], CdfConfig(quantization_level=2))
    assert list(key.bits) == [0, 0, 0, 1, 1, 1, 1, 0]


def test_cdf_exact_balance_distinct_divisible():
    rng = np.random.default_rng(2)
    for ql in (1, 2, 3):
        n = 64 * (1 << ql)
        x = rng.permutation(n).astype(float)
        key = quantize_cdf(x, CdfConfig(ql))
        sym = key.bits.reshape(-1, ql)
        _, counts = np.unique(sym, axis=0, return_counts=True)
        assert counts.size == 1 << ql
        assert np.all(counts == n // (1 << ql))


def test_cdf_gaussian_balance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1 << 14)
    for ql in (1, 2, 3):
        key = quantize_cdf(x, CdfConfig(ql))
        sym = key.bits.reshape(-1, ql)
        weights = sym @ (1 << np.arange(ql - 1, -1, -1))
        counts = np.bincount(weights, minlength=1 << ql)
        fracs = counts / x.size
        assert np.all(np.abs(fracs - 1.0 / (1 << ql)) < 0.02)


def test_cdf_monotone_invariance():
    rng = np.random.default_rng(4)
    cfg = CdfConfig(2)
    transforms = (np.exp, lambda v: v**3, lambda v: 5.0 * v - 7.0)
    for i in range(1000):
        x = rng.normal(size=64)
        ref = quantize_cdf(x, cfg)
        f = transforms[i % len(transforms)]
        assert np.array_equal(ref.bits, quantize_cdf(f(x), cfg).bits)


def test_cdf_ties_share_interval():
    # the three tied 3.0s stay together even though an even split would
    # separate them
    key = quantize_cdf([1.0, 2.0, 3.0, 3.0, 3.0, 6.0, 7.0, 8.0], CdfConfig(1))
    assert list(key.bits) == [0, 0, 0, 0, 0, 1, 1, 1]


def test_cdf_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        quantize_cdf([1.0, 1.0, 2.0, 2.0, 3.0, 3.0], CdfConfig(2))
    with pytest.raises(DegenerateInputError):
        # dominant upper tie leaves no realizable 3/4 quantile
        quantize_cdf([1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0], CdfConfig(2))


def test_cdf_parameter_validation():
    with pytest.raises(ParameterError):
        CdfConfig(0)
    with pytest.raises(ParameterError):
        CdfConfig(9)
    with pytest.raises(ParameterError):
        quantize_cdf([1.0, 2.0], CdfConfig(2))
    with pytest.raises(ParameterError):
        quantize_cdf(np.zeros((2, 4)), CdfConfig(1))


def test_intersect_example():
    out = quantize_mean_sigma(EXAMPLE, MeanSigmaConfig(alpha=0.5))
    bits, common = intersect_kept_indices(out, [1, 2, 3])
    assert list(common) == [1, 3]
    assert list(bits.bits) == [0, 1]
    assert bits.stage == STAGE_QUANTIZED


def test_intersect_symmetry_aligns_parties():
    rng = np.random.default_rng(5)
    x = rng.normal(size=400)
    y = x + 0.2 * rng.normal(size=400)
    cfg = MeanSigmaConfig(alpha=0.5)
    out_a, out_b = quantize_mean_sigma(x, cfg), quantize_mean_sigma(y, cfg)
    bits_a, common_a = intersect_kept_indices(out_a, out_b.kept_indices)
    bits_b, common_b = intersect_kept_indices(out_b, out_a.kept_indices)
    assert np.array_equal(common_a, common_b)
    assert len(bits_a) == len(bits_b) == common_a.size


def test_intersect_multibit_blocks():
    out = QuantizationOutcome(
        BitKey([0, 0, 0, 1, 1, 1], STAGE_QUANTIZED),
        kept_indices=[0, 1, 2],
        bits_per_sample=2,
    )
    bits, common = intersect_kept_indices(out, [0, 2, 9])
    assert list(common) == [0, 2]
    assert list(bits.bits) == [0, 0, 1, 1]


def test_outcome_length_consistency():
    with pytest.raises(ParameterError):
        QuantizationOutcome(BitKey([0, 1, 1], STAGE_QUANTIZED), kept_indices=[0, 1])


# --- the linear-pass forms against the forms they replaced ---------------


def _reference_gray_code(j, ql):
    """Gray codes by shifting every bit out, kept as the reference."""
    g = np.asarray(j) ^ (np.asarray(j) >> 1)
    return ((g[..., None] >> np.arange(ql - 1, -1, -1)) & 1).astype(np.uint8)


def _reference_cdf_thresholds(arr, ql):
    """Thresholds from np.unique's counts, kept as the reference."""
    levels = 1 << ql
    values, counts = np.unique(arr, return_counts=True)
    if values.size < levels:
        raise DegenerateInputError(
            f"need at least {levels} distinct values, got {values.size}"
        )
    below = np.concatenate(([0], np.cumsum(counts)[:-1]))
    pick = np.searchsorted(below * levels, arr.size * np.arange(1, levels), side="left")
    if np.any(pick >= values.size):
        raise DegenerateInputError("upper quantile unrealizable (too many ties)")
    return values[pick]


def _reference_intersect(outcome, other_kept):
    """Censoring by np.isin, kept as the reference."""
    mask = np.isin(outcome.kept_indices, np.asarray(other_kept, dtype=np.intp))
    bits = outcome.bits.bits.reshape(-1, outcome.bits_per_sample)[mask]
    return bits.ravel(), outcome.kept_indices[mask]


@pytest.mark.parametrize("ql", range(1, 9))
def test_gray_code_matches_shift_reference(ql):
    j = np.arange(1 << ql)
    for arg in (j, j[::-1].reshape(2, -1), 0, (1 << ql) - 1):
        got, want = gray_code(arg, ql), _reference_gray_code(arg, ql)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)
    assert gray_code(np.array([], dtype=np.intp), ql).shape == (0, ql)


def _outcome_text(f, *args):
    try:
        return f(*args).tobytes()
    except DegenerateInputError as exc:
        return str(exc)


def test_cdf_thresholds_match_unique_reference_on_ties():
    rng = np.random.default_rng(11)
    texts = set()
    for _ in range(2000):
        ql = int(rng.integers(1, 5))
        x = rng.integers(0, rng.integers(1, 24), rng.integers(2, 80)).astype(float)
        if rng.random() < 0.2:
            x[rng.random(x.size) < 0.3] = np.nan  # NaNs count as one value
        if rng.random() < 0.2:
            x[x == 0] = -0.0
        want = _outcome_text(_reference_cdf_thresholds, x, ql)
        assert _outcome_text(quantize._cdf_thresholds, x, ql) == want, (x, ql)
        if isinstance(want, str):
            texts.add(want.split(" got ")[0])
    distinct = {f"need at least {1 << ql} distinct values," for ql in range(1, 5)}
    assert texts == distinct | {"upper quantile unrealizable (too many ties)"}


def test_cdf_degenerate_error_texts():
    with pytest.raises(DegenerateInputError, match="^need at least 4 distinct values, got 3$"):
        quantize._cdf_thresholds(np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), 2)
    with pytest.raises(DegenerateInputError, match=r"^upper quantile unrealizable \(too many"):
        quantize._cdf_thresholds(np.array([1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0]), 2)


@pytest.mark.parametrize("bps", [1, 3])
@pytest.mark.parametrize(
    "kept, other",
    [
        ([], []),
        ([], [0, 4]),
        ([0, 2, 5], []),
        ([0, 2, 5], [1, 3, 4, 6, 10**9]),  # disjoint, one far past the end
        (list(range(50)), list(range(50))),  # the full range
        ([1, 3, 5, 7], [7, 5, 5, 0]),  # unsorted, repeated
    ],
)
def test_intersect_matches_isin_reference(kept, other, bps):
    rng = np.random.default_rng(len(kept) + bps)
    bits = BitKey(rng.integers(0, 2, len(kept) * bps), STAGE_QUANTIZED)
    outcome = QuantizationOutcome(bits, kept_indices=kept, bits_per_sample=bps)
    got_bits, got_common = intersect_kept_indices(outcome, other)
    want_bits, want_common = _reference_intersect(outcome, other)
    assert np.array_equal(got_bits.bits, want_bits)
    assert got_common.dtype == np.intp and np.array_equal(got_common, want_common)


def test_intersect_matches_isin_reference_on_random_lists():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        kept, other = (np.flatnonzero(rng.random(n) < rng.random()) for _ in "ab")
        bits = BitKey(rng.integers(0, 2, 2 * kept.size), STAGE_QUANTIZED)
        outcome = QuantizationOutcome(bits, kept, bits_per_sample=2)
        got_bits, got_common = intersect_kept_indices(outcome, other)
        want_bits, want_common = _reference_intersect(outcome, other)
        assert np.array_equal(got_bits.bits, want_bits)
        assert np.array_equal(got_common, want_common)


def test_intersect_rejects_negative_indices():
    # a lookup table would wrap -1 to its last entry
    out = QuantizationOutcome(BitKey([0, 1, 1], STAGE_QUANTIZED), kept_indices=[0, 1, 2])
    with pytest.raises(ParameterError, match="kept indices must be >= 0"):
        intersect_kept_indices(out, [0, -1])
    negative = QuantizationOutcome(BitKey([0, 1], STAGE_QUANTIZED), kept_indices=[-1, 2])
    with pytest.raises(ParameterError, match="kept indices must be >= 0"):
        intersect_kept_indices(negative, [2])
