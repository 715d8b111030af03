"""Reciprocal wireless channel simulator for key-generation studies.

Models the three quantities a secret-key-generation experiment needs:
Bob's probe measurements of the Alice->Bob channel, Alice's delayed
measurements of the reciprocal Bob->Alice channel, and an eavesdropper's
spatially decorrelated observations, all driven by one stationary
Gauss-Markov fading process.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .rng import check_seed


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of one probing session.

    temporal_correlation: one-step autocorrelation rho_t of the fading
        process, in [0, 1]. One step is one probing interval.
    sampling_delay: tau, the Alice->Bob half-round offset in probing-interval
        units. Alice measures the channel tau units after Bob.
    snr_db: ratio of fading variance (unit) to measurement noise variance,
        in dB. +inf switches noise off.
    eve_correlation: rho_E, correlation between the eavesdropper's channel
        and the legitimate channel, in [-1, 1]. 0 models an eavesdropper
        beyond spatial decorrelation distance.
    n_probes: number of probing rounds.
    rng_seed: seed for the simulation, an integer in [0, 2^128); identical
        params reproduce identical traces bit for bit.
    """

    temporal_correlation: float = 0.99
    sampling_delay: float = 1.0
    snr_db: float = 30.0
    eve_correlation: float = 0.0
    n_probes: int = 600
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.temporal_correlation <= 1.0:
            raise ParameterError("temporal_correlation must be in [0, 1]")
        if self.sampling_delay < 0.0 or not math.isfinite(self.sampling_delay):
            raise ParameterError("sampling_delay must be finite and >= 0")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ParameterError("snr_db must be a real value or +inf (noise off)")
        if not -1.0 <= self.eve_correlation <= 1.0:
            raise ParameterError("eve_correlation must be in [-1, 1]")
        if self.n_probes < 1:
            raise ParameterError("n_probes must be >= 1")
        check_seed(self.rng_seed, "rng_seed")

    @property
    def noise_std(self) -> float:
        if self.snr_db == math.inf:
            return 0.0
        return 10.0 ** (-self.snr_db / 20.0)


@dataclass(frozen=True)
class ChannelTrace:
    """One probing session: measurement and timestamp vectors.

    x_b[i] is Bob's measurement at time t_b[i] = i, x_a[i] is Alice's at
    t_a[i] = i + tau, and x_e[i] is the eavesdropper's at t_b[i]. t_a and
    t_b are read-only: every trace with the same n_probes and tau shares them.
    """

    x_a: np.ndarray
    x_b: np.ndarray
    x_e: np.ndarray
    t_a: np.ndarray
    t_b: np.ndarray


def load_filter():
    """Import and return scipy.signal.lfilter, which runs the fading
    recursion when probes are evenly spaced.

    scipy.signal takes ~1 s to import and processes that only read configs
    or traces never simulate, so it is imported at first use. A parent
    about to fork workers that simulate calls this first, so that they
    inherit the module rather than each importing it.
    """
    from scipy.signal import lfilter

    return lfilter


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Steps(NamedTuple):
    """The steps of a Gauss-Markov process sampled at sorted times: the
    value at each time after the first is phi h + sigma z, with h the value
    at the time before it and z a fresh standard normal.

    With constant spacing every step is the same, and phi and sigma are the
    one step's floats; otherwise they are read-only arrays, one entry per gap.
    """

    phi: float | np.ndarray
    sigma: float | np.ndarray
    constant: bool


def _markov_steps(times: np.ndarray, rho: float) -> _Steps | None:
    """The steps of a zero-mean unit-variance stationary Gauss-Markov
    process at sorted times; None when there is a single time.

    Exact at arbitrary sample times: conditional on h(t1),
    h(t2) ~ N(rho^(t2-t1) h(t1), 1 - rho^(2(t2-t1))). Repeated times get
    identical values. rho=0 gives white samples (0^0 = 1 keeps duplicates
    coherent), rho=1 a constant process.
    """
    if times.size == 1:
        return None
    phi = np.power(rho, np.diff(times))
    sigma = np.sqrt(np.maximum(0.0, 1.0 - phi * phi))
    if np.all(phi == phi[0]):
        return _Steps(float(phi[0]), float(sigma[0]), True)
    return _Steps(_read_only(phi), _read_only(sigma), False)


def _gauss_markov(z: np.ndarray, steps: _Steps | None) -> np.ndarray:
    """Run the process of steps, driven by one standard normal z per time."""
    if steps is None:
        return z
    if steps.constant:
        # constant probe spacing: the recursion is a first-order IIR filter
        drive = np.empty(z.size)
        drive[0] = z[0]
        drive[1:] = steps.sigma * z[1:]
        return load_filter()([1.0], [1.0, -steps.phi], drive)
    phi, sigma = steps.phi, steps.sigma
    out = np.empty(z.size)
    out[0] = z[0]
    for i in range(1, z.size):
        out[i] = phi[i - 1] * out[i - 1] + sigma[i - 1] * z[i]
    return out


def _merge_sorted(a: np.ndarray, b: np.ndarray):
    """The sorted distinct values of two sorted 1-D arrays, and the
    position of each entry of a and of b among them.

    One stable merge: a stable sort of the concatenation runs in linear
    time on two sorted runs, the first of each run of equal values starts
    a distinct value, and a running count of those starts ranks every entry.
    """
    both = np.concatenate((a, b))
    order = np.argsort(both, kind="stable")
    merged = both[order]
    first = np.empty(merged.size, dtype=bool)
    first[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    rank = np.empty(merged.size, dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return merged[first], rank[: a.size], rank[a.size :]


class _SamplingGrid(NamedTuple):
    """What every trial of one (n_probes, rho_t, tau) shares: Bob's and
    Alice's sample times, the union of both with each side's position in
    it, and the fading steps over the union (h) and over Bob's times (g)."""

    t_b: np.ndarray
    t_a: np.ndarray
    union: np.ndarray
    idx_b: np.ndarray
    idx_a: np.ndarray
    union_steps: _Steps | None
    b_steps: _Steps | None


@functools.lru_cache(maxsize=8)
def _sampling_grid(n: int, rho: float, tau: float) -> _SamplingGrid:
    """The sampling grid of n probes at delay tau under rho, built at the
    first trial that needs it; every array in it is read-only."""
    t_b = np.arange(n, dtype=float)
    t_a = t_b + tau
    union, idx_b, idx_a = _merge_sorted(t_b, t_a)
    return _SamplingGrid(
        *map(_read_only, (t_b, t_a, union, idx_b, idx_a)),
        union_steps=_markov_steps(union, rho),
        b_steps=_markov_steps(t_b, rho),
    )


def generate_trace(params: ChannelParams) -> ChannelTrace:
    """Simulate one probing session.

    Bob samples the fading process h at integer times, Alice at the same
    times shifted by tau, so corr(h at Bob's time, h at Alice's) is
    rho_t^tau before noise. The eavesdropper sees
    rho_E h + sqrt(1 - rho_E^2) g with g an independent copy of the fading
    process, plus her own measurement noise.

    The sample times and the fading process's step terms depend only on
    (n_probes, rho_t, tau): they are built once per such grid and reused by
    every trial on it, which draws only its own noise.
    """
    n = params.n_probes
    grid = _sampling_grid(n, params.temporal_correlation, params.sampling_delay)

    seeds = np.random.SeedSequence(params.rng_seed).spawn(5)
    rng_h, rng_g, rng_wa, rng_wb, rng_we = (np.random.default_rng(s) for s in seeds)

    h_union = _gauss_markov(rng_h.standard_normal(grid.union.size), grid.union_steps)
    h_b = h_union[grid.idx_b]
    h_a = h_union[grid.idx_a]

    g = _gauss_markov(rng_g.standard_normal(n), grid.b_steps)

    sw = params.noise_std
    x_a = h_a + sw * rng_wa.standard_normal(n)
    x_b = h_b + sw * rng_wb.standard_normal(n)
    rho_e = params.eve_correlation
    x_e = rho_e * h_b + math.sqrt(1.0 - rho_e**2) * g + sw * rng_we.standard_normal(n)

    return ChannelTrace(x_a=x_a, x_b=x_b, x_e=x_e, t_a=grid.t_a, t_b=grid.t_b)


def pearson_correlation(u, v) -> float:
    """Sample Pearson correlation of two equal-length vectors.

    Raises DegenerateInputError when either input has zero variance or the
    vectors are too short to define a correlation.
    """
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    if ua.ndim != 1 or va.ndim != 1 or ua.size != va.size:
        raise ParameterError("inputs must be 1-D vectors of equal length")
    if ua.size < 2:
        raise DegenerateInputError("need at least 2 samples for a correlation")
    du = ua - ua.mean()
    dv = va - va.mean()
    denom = math.sqrt(float(du @ du) * float(dv @ dv))
    if denom == 0.0:
        raise DegenerateInputError("zero-variance input has no correlation")
    r = float(du @ dv) / denom
    return max(-1.0, min(1.0, r))


def expected_reciprocity(params: ChannelParams) -> float:
    """Analytic corr(x_a, x_b): rho_t^tau / (1 + noise variance)."""
    noise_var = 0.0 if params.snr_db == math.inf else 10.0 ** (-params.snr_db / 10.0)
    return params.temporal_correlation**params.sampling_delay / (1.0 + noise_var)


def eve_correlation_from_distance(distance: float, wavelength: float) -> float:
    """Optional Jakes/Clarke spatial model: rho_E = J0(2 pi d / lambda).

    Note the first zero of J0 sits near d = 0.38 lambda, so the common
    half-wavelength rule of thumb actually leaves a residual correlation of
    about -0.3; pass eve_correlation directly when a specific value matters.
    """
    if distance < 0 or wavelength <= 0:
        raise ParameterError("need distance >= 0 and wavelength > 0")
    from scipy.special import j0

    return float(j0(2.0 * math.pi * distance / wavelength))
