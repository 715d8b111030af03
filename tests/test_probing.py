import math

import numpy as np
import pytest

from physec.channel import ChannelParams, generate_trace
from physec.errors import ParameterError
from physec.probing import (
    LossModel,
    ProbeRecord,
    align_timestamps,
    apply_loss,
    paired_base_times,
)


def _records(times, values=None):
    values = values if values is not None else [float(t) for t in times]
    return [ProbeRecord(float(t), float(v)) for t, v in zip(times, values)]


def test_loss_model_validation():
    with pytest.raises(ParameterError):
        LossModel(loss_probability=1.0)
    with pytest.raises(ParameterError):
        LossModel(loss_probability=-0.1)


def test_lossless_keeps_everything():
    tr = generate_trace(ChannelParams(n_probes=100, rng_seed=0))
    alice, bob = apply_loss(tr, LossModel(0.0))
    assert len(alice) == len(bob) == 100
    assert [r.value for r in bob] == list(tr.x_b)


def test_extreme_loss_is_legal():
    tr = generate_trace(ChannelParams(n_probes=10, rng_seed=1))
    alice, bob = apply_loss(tr, LossModel(0.999, rng_seed=0))
    assert len(alice) <= 10 and len(bob) <= 10


def test_loss_binomial_concentration():
    n = 100_000
    tr = generate_trace(ChannelParams(n_probes=n, rng_seed=2))
    alice, bob = apply_loss(tr, LossModel(0.2, rng_seed=3))
    sigma = math.sqrt(n * 0.2 * 0.8)
    for kept in (len(alice), len(bob)):
        assert abs(kept - 0.8 * n) < 3 * sigma


def test_loss_deterministic():
    tr = generate_trace(ChannelParams(n_probes=1000, rng_seed=4))
    a1, b1 = apply_loss(tr, LossModel(0.3, rng_seed=9))
    a2, b2 = apply_loss(tr, LossModel(0.3, rng_seed=9))
    assert a1 == a2 and b1 == b2


def test_align_example():
    tau = 1.0
    alice = _records([0 + tau, 2 + tau, 3 + tau], [10, 12, 13])
    bob = _records([0, 3], [20, 23])
    base = paired_base_times(alice, bob, tau)
    assert np.array_equal(base, [0.0, 3.0])
    x_a, x_b = align_timestamps(alice, bob, tau)
    assert list(x_a) == [10, 13]
    assert list(x_b) == [20, 23]


def test_align_lossless_identity():
    tr = generate_trace(ChannelParams(sampling_delay=1.0, n_probes=64, rng_seed=5))
    alice = _records(tr.t_a, tr.x_a)
    bob = _records(tr.t_b, tr.x_b)
    x_a, x_b = align_timestamps(alice, bob, 1.0)
    assert np.array_equal(x_a, tr.x_a)
    assert np.array_equal(x_b, tr.x_b)


def test_align_disjoint_gives_empty():
    x_a, x_b = align_timestamps(_records([10, 11]), _records([0, 1]), 0.0)
    assert x_a.size == 0 and x_b.size == 0


def test_align_exchange_order_irrelevant():
    # the two-round censoring exchange lands on the same set no matter who
    # starts: simulate both directions explicitly
    tau = 2.0
    rng = np.random.default_rng(6)
    bob_times = sorted(rng.choice(100, size=60, replace=False).tolist())
    alice_times = sorted((rng.choice(100, size=60, replace=False) + tau).tolist())
    alice, bob = _records(alice_times), _records(bob_times)

    # Alice first: she announces, Bob censors, Bob replies, Alice censors
    bob_kept = [r for r in bob if r.timestamp + tau in {a.timestamp for a in alice}]
    alice_kept = [r for r in alice if r.timestamp - tau in {b.timestamp for b in bob_kept}]
    # Bob first
    alice_kept2 = [r for r in alice if r.timestamp - tau in {b.timestamp for b in bob}]
    bob_kept2 = [r for r in bob if r.timestamp + tau in {a.timestamp for a in alice_kept2}]

    want = paired_base_times(alice, bob, tau)
    assert [r.timestamp for r in bob_kept] == list(want)
    assert [r.timestamp for r in bob_kept2] == list(want)
    assert [r.timestamp - tau for r in alice_kept] == list(want)


def test_no_value_leakage():
    tr = generate_trace(ChannelParams(sampling_delay=1.0, n_probes=400, rng_seed=7))
    alice, bob = apply_loss(tr, LossModel(0.25, rng_seed=8))
    x_a, x_b = align_timestamps(alice, bob, 1.0)
    assert set(x_a) <= set(tr.x_a)
    assert set(x_b) <= set(tr.x_b)


def test_pairing_correctness_under_loss():
    # noiseless trace: paired values must come from the same fading sample,
    # so at tau = 0 the paired vectors are identical
    tr = generate_trace(
        ChannelParams(sampling_delay=0.0, snr_db=math.inf, n_probes=500, rng_seed=9)
    )
    alice, bob = apply_loss(tr, LossModel(0.3, rng_seed=10))
    x_a, x_b = align_timestamps(alice, bob, 0.0)
    assert x_a.size > 0
    assert np.array_equal(x_a, x_b)


def test_pairing_indices_consistent_with_source():
    tr = generate_trace(ChannelParams(sampling_delay=1.0, n_probes=300, rng_seed=11))
    alice, bob = apply_loss(tr, LossModel(0.2, rng_seed=12))
    base = paired_base_times(alice, bob, 1.0)
    x_a, x_b = align_timestamps(alice, bob, 1.0)
    idx = base.astype(int)
    assert np.array_equal(x_b, tr.x_b[idx])
    assert np.array_equal(x_a, tr.x_a[idx])
