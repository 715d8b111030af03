"""Measurement quantizers turning reciprocal channel samples into bits.

Two schemes:

* mean/sigma: one bit per sample with a guard band. Thresholds are
  mu +- alpha * sigma (sample sigma, n-1 denominator); samples above the
  upper threshold emit 1, below the lower emit 0, in-band samples are
  dropped and the parties reconcile drop positions by exchanging their
  public kept-index lists.
* CDF-equalized: QL bits per sample, no drops. Thresholds are empirical
  quantiles so every interval receives the same share of samples, and
  intervals are labeled with reflected Gray codes so one threshold slip
  costs one bit.

The empirical CDF convention is F(x) = (#samples < x) / n with
F_inv(p) = smallest sample value whose F reaches p, and intervals are
closed on the left, open on the right. Ranking is by value, so tied
samples always share an interval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import STAGE_QUANTIZED, BitKey
from .errors import DegenerateInputError, ParameterError


@dataclass(frozen=True)
class MeanSigmaConfig:
    """Guard-band width alpha >= 0 in units of the sample deviation."""

    alpha: float = 0.5

    def __post_init__(self):
        if not self.alpha >= 0.0:
            raise ParameterError("alpha must be >= 0")


@dataclass(frozen=True)
class CdfConfig:
    """Bits per sample QL in 1..8 (2^QL quantile intervals)."""

    quantization_level: int = 1

    def __post_init__(self):
        if not 1 <= self.quantization_level <= 8:
            raise ParameterError("quantization_level must be in 1..8")


@dataclass(frozen=True)
class QuantizationOutcome:
    """Bits plus the indices of the samples that produced them.

    kept_indices refers to positions in the input vector; bits holds
    bits_per_sample consecutive bits for each kept index.
    """

    bits: BitKey
    kept_indices: np.ndarray
    bits_per_sample: int = 1

    def __post_init__(self):
        idx = np.asarray(self.kept_indices, dtype=np.intp)
        object.__setattr__(self, "kept_indices", idx)
        if len(self.bits) != idx.size * self.bits_per_sample:
            raise ParameterError("bit count must equal kept indices x bits per sample")


def quantize_mean_sigma(x, cfg: MeanSigmaConfig) -> QuantizationOutcome:
    """Guard-banded sign quantizer.

    Emits 1 for samples strictly above mu + alpha*sigma, 0 for samples
    strictly below mu - alpha*sigma, drops the rest (boundary equality
    drops). Constant input yields an empty outcome. Invariant under
    positive affine transforms of x.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ParameterError("need a 1-D vector of at least 2 samples")
    mu = float(arr.mean())
    sigma = float(arr.std(ddof=1))
    upper = mu + cfg.alpha * sigma
    lower = mu - cfg.alpha * sigma
    ones = arr > upper
    zeros = arr < lower
    kept = np.flatnonzero(ones | zeros)
    bits = ones[kept].astype(np.uint8)
    return QuantizationOutcome(BitKey(bits, STAGE_QUANTIZED), kept)


# row j: the reflected Gray code of j in 8 bits, MSB first; the QL-bit code
# of j < 2^QL is the row's last QL bits
_GRAY_ROWS = np.unpackbits(
    np.array([j ^ (j >> 1) for j in range(256)], dtype=np.uint8)[:, None], axis=1
)


def gray_code(j, ql: int) -> np.ndarray:
    """QL-bit reflected Gray code of interval index j, MSB first; for an
    array j, one code per entry along a new last axis."""
    if not 1 <= ql <= 8:
        raise ParameterError("ql must be in 1..8")
    j = np.asarray(j)
    if j.size and (j.min() < 0 or j.max() >= 1 << ql):
        raise ParameterError(f"index outside [0, 2^{ql})")
    return np.take(_GRAY_ROWS[:, 8 - ql :], j, axis=0)


def _cdf_thresholds(arr: np.ndarray, ql: int) -> np.ndarray:
    """Quantile thresholds eta_j = F_inv(j / 2^QL), j = 1 .. 2^QL - 1."""
    levels = 1 << ql
    ordered = np.sort(arr)
    # a distinct value starts where the sorted samples change; the number
    # of samples below it is the position of its first copy
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    if ordered[-1] != ordered[-1]:
        # NaNs sort last and count as one value
        starts[np.searchsorted(ordered, np.nan) + 1 :] = False
    below = np.flatnonzero(starts)
    if below.size < levels:
        raise DegenerateInputError(
            f"need at least {levels} distinct values, got {below.size}"
        )
    # F(value i) >= j/levels  <=>  below[i] * levels >= n * j  (exact integers)
    j = np.arange(1, levels)
    pick = np.searchsorted(below * levels, arr.size * j, side="left")
    if np.any(pick >= below.size):
        raise DegenerateInputError("upper quantile unrealizable (too many ties)")
    return ordered[below[pick]]


def quantize_cdf(x, cfg: CdfConfig) -> BitKey:
    """CDF-equalized multi-bit quantizer, QL bits per sample, no drops.

    Depends on sample ranks only, so any strictly monotone transform of the
    input yields identical bits. For all-distinct inputs with n divisible by
    2^QL every Gray symbol appears exactly n / 2^QL times.
    """
    arr = np.asarray(x, dtype=float)
    ql = cfg.quantization_level
    if arr.ndim != 1 or arr.size < (1 << ql):
        raise ParameterError(f"need a 1-D vector of at least {1 << ql} samples")
    thresholds = _cdf_thresholds(arr, ql)
    idx = np.searchsorted(thresholds, arr, side="right")
    return BitKey(gray_code(idx, ql).ravel(), STAGE_QUANTIZED)


def intersect_kept_indices(outcome: QuantizationOutcome, other_kept):
    """Censor an outcome to the indices another party also kept.

    Kept-index lists are public; both sides call this with the peer's list
    to end up with aligned, equal-length bit strings. Returns
    (censored BitKey, common index vector).
    """
    other = np.asarray(other_kept, dtype=np.intp)
    kept = outcome.kept_indices
    if other.size and other.min() < 0 or kept.size and kept.min() < 0:
        raise ParameterError("kept indices must be >= 0")
    # a lookup table over this outcome's indices: True where the peer kept one
    shared = np.zeros(kept.max(initial=-1) + 1, dtype=bool)
    shared[other[other < shared.size]] = True
    mask = shared[kept]
    # compress, not a boolean index: it skips numpy's slow 2-D mask path
    bits = outcome.bits.bits.reshape(-1, outcome.bits_per_sample).compress(mask, 0)
    return BitKey(bits.ravel(), STAGE_QUANTIZED), kept[mask]
