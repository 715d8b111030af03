import hashlib
import math

import numpy as np
import pytest

from physec import channel
from physec.channel import (
    ChannelParams,
    eve_correlation_from_distance,
    expected_reciprocity,
    generate_trace,
    pearson_correlation,
)
from physec.errors import DegenerateInputError, ParameterError


def test_params_validation():
    with pytest.raises(ParameterError):
        ChannelParams(temporal_correlation=1.1)
    with pytest.raises(ParameterError):
        ChannelParams(sampling_delay=-1.0)
    with pytest.raises(ParameterError):
        ChannelParams(snr_db=float("nan"))
    with pytest.raises(ParameterError):
        ChannelParams(snr_db=-math.inf)
    with pytest.raises(ParameterError):
        ChannelParams(eve_correlation=1.5)
    with pytest.raises(ParameterError):
        ChannelParams(n_probes=0)


def test_determinism_bit_for_bit():
    p = ChannelParams(n_probes=500, rng_seed=123)
    t1, t2 = generate_trace(p), generate_trace(p)
    for a, b in ((t1.x_a, t2.x_a), (t1.x_b, t2.x_b), (t1.x_e, t2.x_e)):
        assert np.array_equal(a, b)
    t3 = generate_trace(ChannelParams(n_probes=500, rng_seed=124))
    assert not np.array_equal(t1.x_b, t3.x_b)


def test_perfect_reciprocity_limit():
    # tau = 0 with noise off: both parties sample the identical process
    p = ChannelParams(sampling_delay=0.0, snr_db=math.inf, n_probes=1000, rng_seed=5)
    tr = generate_trace(p)
    assert np.array_equal(tr.x_a, tr.x_b)
    assert np.all(np.isfinite(tr.x_a))


def test_timestamp_offset():
    p = ChannelParams(sampling_delay=2.5, n_probes=50, rng_seed=0)
    tr = generate_trace(p)
    assert np.allclose(tr.t_a - tr.t_b, 2.5)
    assert np.array_equal(tr.t_b, np.arange(50.0))


def test_reciprocity_calibration_20db():
    p = ChannelParams(
        temporal_correlation=0.99,
        sampling_delay=1.0,
        snr_db=20.0,
        n_probes=100_000,
        rng_seed=1,
    )
    tr = generate_trace(p)
    r = pearson_correlation(tr.x_a, tr.x_b)
    assert abs(r - 0.99 / 1.01) < 0.01
    assert abs(expected_reciprocity(p) - 0.99 / 1.01) < 1e-12


def test_expected_reciprocity_noise_off():
    p = ChannelParams(temporal_correlation=0.9, sampling_delay=3.0, snr_db=math.inf)
    assert expected_reciprocity(p) == pytest.approx(0.9**3)


def test_eve_decorrelated_when_rho_zero():
    # weakly autocorrelated traces keep the CLT tolerance meaningful
    for seed in range(5):
        p = ChannelParams(
            temporal_correlation=0.3,
            snr_db=math.inf,
            eve_correlation=0.0,
            n_probes=100_000,
            rng_seed=seed,
        )
        tr = generate_trace(p)
        assert abs(pearson_correlation(tr.x_e, tr.x_b)) < 0.01


def test_eve_decorrelation_three_sigma_bound():
    n = 10_000
    for rho_t in (0.0, 0.3):
        for seed in range(5):
            p = ChannelParams(
                temporal_correlation=rho_t,
                snr_db=math.inf,
                eve_correlation=0.0,
                n_probes=n,
                rng_seed=seed,
            )
            tr = generate_trace(p)
            assert abs(pearson_correlation(tr.x_e, tr.x_b)) < 3 / math.sqrt(n)


def test_eve_decorrelation_slow_fading_mean():
    # at rho_t = 0.99 a single-trace estimate is noisy; the seed-averaged
    # correlation still has to vanish
    cs = []
    for seed in range(50):
        p = ChannelParams(
            temporal_correlation=0.99,
            snr_db=math.inf,
            eve_correlation=0.0,
            n_probes=100_000,
            rng_seed=seed,
        )
        tr = generate_trace(p)
        cs.append(pearson_correlation(tr.x_e, tr.x_b))
    assert abs(float(np.mean(cs))) < 0.01


def test_eve_correlation_tracks_rho():
    p = ChannelParams(
        temporal_correlation=0.9,
        snr_db=math.inf,
        eve_correlation=0.8,
        n_probes=100_000,
        rng_seed=3,
    )
    tr = generate_trace(p)
    assert pearson_correlation(tr.x_e, tr.x_b) == pytest.approx(0.8, abs=0.02)


def test_reciprocity_monotone_in_snr():
    snrs = (30.0, 20.0, 10.0, 0.0)
    means = []
    for snr in snrs:
        rs = []
        for seed in range(50):
            p = ChannelParams(snr_db=snr, n_probes=2000, rng_seed=seed)
            tr = generate_trace(p)
            rs.append(pearson_correlation(tr.x_a, tr.x_b))
        means.append(float(np.mean(rs)))
    assert means[0] >= means[1] >= means[2] >= means[3]


def test_fading_process_stationary_unit_variance():
    for seed in range(10):
        p = ChannelParams(
            temporal_correlation=0.99,
            sampling_delay=0.0,
            snr_db=math.inf,
            n_probes=100_000,
            rng_seed=seed,
        )
        tr = generate_trace(p)
        assert 0.9 <= float(tr.x_b.var()) <= 1.1


def test_rho_one_gives_constant_process():
    p = ChannelParams(
        temporal_correlation=1.0, sampling_delay=0.5, snr_db=math.inf, n_probes=200
    )
    tr = generate_trace(p)
    assert np.allclose(tr.x_b, tr.x_b[0])
    assert np.allclose(tr.x_a, tr.x_b)


def test_rho_zero_gives_white_process():
    p = ChannelParams(
        temporal_correlation=0.0, sampling_delay=0.0, snr_db=math.inf,
        n_probes=50_000, rng_seed=2,
    )
    tr = generate_trace(p)
    lag1 = pearson_correlation(tr.x_b[1:], tr.x_b[:-1])
    assert abs(lag1) < 0.02


def test_pearson_examples():
    assert pearson_correlation([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert pearson_correlation([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8)


def test_pearson_degenerate():
    with pytest.raises(DegenerateInputError):
        pearson_correlation([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateInputError):
        pearson_correlation([1], [2])
    with pytest.raises(ParameterError):
        pearson_correlation([1, 2], [1, 2, 3])


def test_eve_correlation_from_distance():
    assert eve_correlation_from_distance(0.0, 0.125) == pytest.approx(1.0)
    # J0(pi): the half-wavelength spacing leaves residual anticorrelation
    assert eve_correlation_from_distance(0.0625, 0.125) == pytest.approx(
        -0.304242, abs=1e-5
    )
    with pytest.raises(ParameterError):
        eve_correlation_from_distance(-1.0, 0.125)
    with pytest.raises(ParameterError):
        eve_correlation_from_distance(1.0, 0.0)


# SHA-256 of generate_trace's x_a, x_b, x_e and t_a as little-endian float64,
# computed while scipy was still imported at the top of channel.py. At tau = 1
# both fading draws run through the constant-spacing IIR filter; at tau = 0.3
# Bob's and Alice's union of sample times alternates 0.3 / 0.7 apart, so the
# legitimate process runs through the per-step loop.
TRACE_SHA256 = {
    1.0: "5a10ed09ed0a5bee8f5b10d57988107c582e405c5074f690be178ed30dcd8f99",
    0.3: "f0cb32d6e5b45795f7405d33656adae0c8341e1eb5e8f4d7692faa760c255c96",
}


@pytest.mark.parametrize("tau", sorted(TRACE_SHA256))
def test_trace_golden_hash(tau):
    params = ChannelParams(
        temporal_correlation=0.9,
        sampling_delay=tau,
        eve_correlation=0.3,
        n_probes=4096,
        rng_seed=5,
    )
    # the first call builds the sampling grid, the second reuses it
    channel._sampling_grid.cache_clear()
    for _ in range(2):
        tr = generate_trace(params)
        digest = hashlib.sha256()
        for arr in (tr.x_a, tr.x_b, tr.x_e, tr.t_a):
            digest.update(np.asarray(arr, dtype="<f8").tobytes())
        assert digest.hexdigest() == TRACE_SHA256[tau]


def _reference_merge(a, b):
    """np.union1d plus a searchsorted per array, kept as the reference for
    the one stable merge that replaced them."""
    union = np.union1d(a, b)
    return union, np.searchsorted(union, a), np.searchsorted(union, b)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


# 0 puts both parties on one grid; 2.5 and 12 overlap only partly, and 12
# leaves no common time at 10 probes
@pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, 2.5, 12.0])
def test_merge_matches_union_and_searchsorted(tau, monkeypatch):
    t_b = np.arange(10, dtype=float)
    _assert_same_arrays(channel._merge_sorted(t_b, t_b + tau), _reference_merge(t_b, t_b + tau))
    params = ChannelParams(sampling_delay=tau, n_probes=10, rng_seed=3)
    # each call builds its own grid, with the merge in force at the time
    channel._sampling_grid.cache_clear()
    merged = generate_trace(params)
    monkeypatch.setattr(channel, "_merge_sorted", _reference_merge)
    channel._sampling_grid.cache_clear()
    reference = generate_trace(params)
    for name in ("x_a", "x_b", "x_e", "t_a", "t_b"):
        assert getattr(merged, name).tobytes() == getattr(reference, name).tobytes()


def test_merge_of_sorted_arrays_with_repeats():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = (np.sort(rng.integers(-5, 5, rng.integers(1, 12)) / 2.0) for _ in "ab")
        _assert_same_arrays(channel._merge_sorted(a, b), _reference_merge(a, b))


def test_a_new_trial_on_a_grid_merges_nothing(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(a.size)
        return _reference_merge(a, b)

    monkeypatch.setattr(channel, "_merge_sorted", counted)
    channel._sampling_grid.cache_clear()
    first = generate_trace(ChannelParams(n_probes=64, rng_seed=1))
    second = generate_trace(ChannelParams(n_probes=64, rng_seed=2))
    assert calls == [64]
    assert not np.array_equal(first.x_b, second.x_b)
    # another delay is another grid
    generate_trace(ChannelParams(n_probes=64, sampling_delay=0.3, rng_seed=2))
    assert calls == [64, 64]


@pytest.mark.parametrize("tau", [1.0, 0.3])
def test_cached_grid_is_read_only(tau):
    params = ChannelParams(temporal_correlation=0.9, sampling_delay=tau, n_probes=32)
    tr = generate_trace(params)
    grid = channel._sampling_grid(32, 0.9, tau)
    steps = [s for s in (grid.union_steps, grid.b_steps) if not s.constant]
    arrays = [a for a in grid if isinstance(a, np.ndarray)]
    arrays += [a for s in steps for a in (s.phi, s.sigma)]
    # the regular path keeps one step's floats, the irregular one an array per gap
    assert len(steps) == (tau == 0.3)
    assert tr.t_a is grid.t_a and tr.t_b is grid.t_b
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_grid_cache_stays_bounded_over_an_n_probes_sweep():
    limit = channel._sampling_grid.cache_info().maxsize
    channel._sampling_grid.cache_clear()
    for n in range(1, 2 * limit + 2):
        generate_trace(ChannelParams(n_probes=n, rng_seed=n))
    assert channel._sampling_grid.cache_info().currsize == limit
