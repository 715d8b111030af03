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
from .rng import check_seed, spawned


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


TIME_ULPS = 4  # pairing slack; t + tau misses by <= 1 ulp on 1- to 6-decimal traces


def pairing_slack(tau: float, *times: float) -> float:
    """How far apart a round's two timestamps may lie and still pair:
    TIME_ULPS ulps of the largest of |tau| and |times|, which covers the
    rounding of t + tau."""
    return TIME_ULPS * math.ulp(max([abs(tau), *map(abs, times)]))


@dataclass(frozen=True)
class ChannelTrace:
    """One probing session: measurement and timestamp vectors.

    x_b[i] is Bob's measurement at time t_b[i] = i, x_a[i] is Alice's at
    t_a[i] = i + tau, and x_e[i] is the eavesdropper's at t_b[i]. t_a and
    t_b are read-only: every trace with the same n_probes and tau shares them.
    A trace of many trials (generate_traces) holds x_a, x_b and x_e as
    [trials, n_probes] arrays, one row per trial.
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
    """Run the process of steps along each row of z, [rows, times], driven
    by one standard normal per time; z is overwritten."""
    if steps is None:
        return z
    z[:, 1:] *= steps.sigma
    if steps.constant:
        # constant probe spacing: the recursion is a first-order IIR filter
        return load_filter()([1.0], [1.0, -steps.phi], z, axis=1)
    # one step at a time, every row at once: time-major, so that each step
    # reads and writes one contiguous row
    h = np.ascontiguousarray(z.T)
    for prev, cur, phi in zip(h[:-1], h[1:], steps.phi.tolist()):
        cur += phi * prev
    return h.T


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
    first trial that needs it; every array in it is read-only.

    Raises ParameterError when two of Alice's sample times lie within
    twice pairing_slack of each other: rounds that close could pair with a
    neighbour's timestamp, so no trial on the grid is run.
    """
    t_b = np.arange(n, dtype=float)
    t_a = t_b + tau
    slack = pairing_slack(tau, t_b[-1], t_a[-1])
    if n > 1 and np.diff(t_a).min() <= 2.0 * slack:
        raise ParameterError(
            f"sampling_delay {tau!r} leaves Alice's {n} probe times within "
            f"twice the {slack!r} timestamp pairing slack of each other"
        )
    union, idx_b, idx_a = _merge_sorted(t_b, t_a)
    return _SamplingGrid(
        *map(_read_only, (t_b, t_a, union, idx_b, idx_a)),
        union_steps=_markov_steps(union, rho),
        b_steps=_markov_steps(t_b, rho),
    )


def generate_traces(params: ChannelParams, rngs) -> ChannelTrace:
    """generate_trace of len(rngs) trials at once: x_a, x_b and x_e are
    [len(rngs), n_probes] arrays, row r drawn from rngs[r], the five
    generators generate_trace takes, with the bytes generate_trace gives.

    Each row's normals are drawn into its row of a shared buffer; the
    fading recursion then runs once for all rows, and the measurements are
    summed in place. A delay at which Alice's rounds cannot be told apart
    raises ParameterError (_sampling_grid).
    """
    n = params.n_probes
    grid = _sampling_grid(n, params.temporal_correlation, params.sampling_delay)
    h = np.empty((len(rngs), grid.union.size))
    g, x_a, x_b, x_e = np.empty((4, len(rngs), n))
    for trial, *rows in zip(rngs, h, g, x_a, x_b, x_e):
        for rng, row in zip(trial, rows):
            rng.standard_normal(out=row)
    h = _gauss_markov(h, grid.union_steps)
    g = _gauss_markov(g, grid.b_steps)

    h_b = h.take(grid.idx_b, axis=1)
    sw = params.noise_std
    x_a *= sw
    x_a += h.take(grid.idx_a, axis=1)
    x_b *= sw
    x_b += h_b
    # x_e = rho_E h_b + sqrt(1 - rho_E^2) g + sw w_e, summed in that order
    rho_e = params.eve_correlation
    g *= math.sqrt(1.0 - rho_e**2)
    g += rho_e * h_b
    x_e *= sw
    x_e += g
    return ChannelTrace(x_a=x_a, x_b=x_b, x_e=x_e, t_a=grid.t_a, t_b=grid.t_b)


def generate_trace(params: ChannelParams, rngs=None) -> ChannelTrace:
    """Simulate one probing session.

    Bob samples the fading process h at integer times, Alice at the same
    times shifted by tau, so corr(h at Bob's time, h at Alice's) is
    rho_t^tau before noise. The eavesdropper sees
    rho_E h + sqrt(1 - rho_E^2) g with g an independent copy of the fading
    process, plus her own measurement noise.

    The sample times and the fading process's step terms depend only on
    (n_probes, rho_t, tau): they are built once per such grid and reused by
    every trial on it, which draws only its own noise.

    The draws come from the five generators of
    SeedSequence(params.rng_seed).spawn(5), in spawn order: the fading
    process, Eve's copy of it, then Alice's, Bob's and Eve's noise. rngs,
    when given, are those five in place of params.rng_seed's, as a caller
    that seeds many trials at once builds them (physec.rng.spawned). This is
    the one-row case of generate_traces.
    """
    if rngs is None:
        rngs = spawned([params.rng_seed], 5)[0]
    rows = generate_traces(params, [rngs])
    return ChannelTrace(rows.x_a[0], rows.x_b[0], rows.x_e[0], rows.t_a, rows.t_b)


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
