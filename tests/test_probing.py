import math

import numpy as np
import pytest

from physec.channel import ChannelParams, generate_trace
from physec.errors import ParameterError
from physec.probing import (
    LossModel,
    ProbeSide,
    align_timestamps,
    apply_loss,
    match_sorted,
    paired_base_times,
    read_trace,
    read_trace_records,
)

HEADER = "timestamp_a,rss_a,timestamp_b,rss_b\n"


def _side(times, values=None):
    values = values if values is not None else [float(t) for t in times]
    return ProbeSide(times, values, np.arange(len(times)))


def _reference_align(alice, bob, tau):
    """The set/dict alignment the array version replaced: base times, x_a, x_b."""
    alice_times = set(alice.t.tolist())
    base = sorted(t for t in bob.t.tolist() if t + tau in alice_times)
    alice_map = dict(zip(alice.t.tolist(), alice.x.tolist()))
    bob_map = dict(zip(bob.t.tolist(), bob.x.tolist()))
    return base, [alice_map[t + tau] for t in base], [bob_map[t] for t in base]


def test_loss_model_validation():
    with pytest.raises(ParameterError):
        LossModel(loss_probability=1.0)
    with pytest.raises(ParameterError):
        LossModel(loss_probability=-0.1)


def test_probe_side_validation():
    with pytest.raises(ParameterError, match="increase strictly"):
        _side([0.0, 2.0, 1.0])
    with pytest.raises(ParameterError, match="increase strictly"):
        _side([0.0, 0.0])
    with pytest.raises(ParameterError, match="one length"):
        ProbeSide([0.0, 1.0], [5.0], [0, 1])
    assert len(_side([])) == 0


def test_lossless_keeps_everything():
    tr = generate_trace(ChannelParams(n_probes=100, rng_seed=0))
    alice, bob = apply_loss(tr, LossModel(0.0))
    assert len(alice) == len(bob) == 100
    assert list(bob.x) == list(tr.x_b)
    assert np.array_equal(bob.rows, np.arange(100))


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
    for first, second in ((a1, a2), (b1, b2)):
        for name in ("t", "x", "rows"):
            assert np.array_equal(getattr(first, name), getattr(second, name))


def test_loss_keeps_source_rows():
    tr = generate_trace(ChannelParams(sampling_delay=0.5, n_probes=300, rng_seed=13))
    alice, bob = apply_loss(tr, LossModel(0.4, rng_seed=14))
    assert np.array_equal(alice.t, tr.t_a[alice.rows])
    assert np.array_equal(alice.x, tr.x_a[alice.rows])
    assert np.array_equal(bob.t, tr.t_b[bob.rows])
    assert np.array_equal(bob.x, tr.x_b[bob.rows])


def test_align_example():
    tau = 1.0
    alice = _side([0 + tau, 2 + tau, 3 + tau], [10, 12, 13])
    bob = _side([0, 3], [20, 23])
    base = paired_base_times(alice, bob, tau)
    assert np.array_equal(base, [0.0, 3.0])
    x_a, x_b, rows = align_timestamps(alice, bob, tau)
    assert list(x_a) == [10, 13]
    assert list(x_b) == [20, 23]
    assert list(rows) == [0, 1]


def test_align_lossless_identity():
    tr = generate_trace(ChannelParams(sampling_delay=1.0, n_probes=64, rng_seed=5))
    alice = ProbeSide(tr.t_a, tr.x_a, np.arange(64))
    bob = ProbeSide(tr.t_b, tr.x_b, np.arange(64))
    x_a, x_b, rows = align_timestamps(alice, bob, 1.0)
    assert np.array_equal(x_a, tr.x_a)
    assert np.array_equal(x_b, tr.x_b)
    assert np.array_equal(rows, np.arange(64))


def test_align_disjoint_gives_empty():
    x_a, x_b, rows = align_timestamps(_side([10, 11]), _side([0, 1]), 0.0)
    assert x_a.size == 0 and x_b.size == 0 and rows.size == 0


@pytest.mark.parametrize("seed", range(6))
def test_align_matches_set_reference(seed):
    # non-integer timestamps and tau, partial overlap, both ends ragged
    rng = np.random.default_rng(seed)
    tau = float(rng.uniform(0.01, 3.0))
    grid = np.cumsum(rng.uniform(0.05, 1.5, 400))
    bob_times = np.sort(rng.choice(grid, size=250, replace=False))
    alice_times = np.sort(rng.choice(grid, size=250, replace=False) + tau)
    alice = _side(alice_times, rng.standard_normal(250))
    bob = _side(bob_times, rng.standard_normal(250))
    base, want_a, want_b = _reference_align(alice, bob, tau)
    assert len(base) > 50  # the draw overlaps
    x_a, x_b, rows = align_timestamps(alice, bob, tau)
    assert paired_base_times(alice, bob, tau).tolist() == base
    assert x_a.tolist() == want_a and x_b.tolist() == want_b
    assert np.array_equal(bob.t[rows], base)


@pytest.mark.parametrize(
    "alice_times, bob_times",
    [([], []), ([], [0.5, 1.5]), ([1.25, 2.25], [])],
    ids=["both-empty", "alice-empty", "bob-empty"],
)
def test_align_empty_sides_match_reference(alice_times, bob_times):
    alice, bob = _side(alice_times), _side(bob_times)
    x_a, x_b, rows = align_timestamps(alice, bob, 0.75)
    assert _reference_align(alice, bob, 0.75) == ([], [], [])
    assert x_a.size == x_b.size == rows.size == 0
    assert x_a.dtype == x_b.dtype == np.float64


def test_match_sorted_past_both_ends():
    i, j = match_sorted(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 3.0, 9.0]))
    assert i.tolist() == [0, 2] and j.tolist() == [1, 2]


def test_match_sorted_within_slack_is_one_to_one():
    haystack = np.array([1.0, 2.0, 3.0])
    needles = np.array([0.9, 1.05, 1.1, 2.0, 2.0, 2.95, 3.2])
    i, j = match_sorted(haystack, needles, 0.1)
    # 0.9 and 1.05 both find 1.0 and the closer keeps it; 2.0 twice, the
    # first keeps it; 1.1 finds nothing left; 3.2 is out of reach
    assert i.tolist() == [0, 1, 2] and j.tolist() == [1, 3, 5]
    assert match_sorted(haystack[:0], needles, 0.1)[0].size == 0


def _decimal_trace(path, n_rows, decimals):
    """n_rows complete rows of decimal timestamps, Alice's 0.05 after Bob's."""
    lines = [HEADER.strip()]
    for i in range(n_rows):
        t_b = round(0.1 * i + 0.013, decimals)
        lines.append(f"{round(t_b + 0.05, decimals)!r},{-50.0 - i % 7!r},{t_b!r},{-49.0}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("decimals", [3, 6])
def test_align_decimal_timestamps_off_by_an_ulp(tmp_path, decimals):
    # t_b + tau misses t_a by one ulp in about 3 rows of 10
    alice, bob, tau = read_trace(_decimal_trace(tmp_path / "trace.csv", 1000, decimals))
    assert (~np.isin(bob.t + tau, alice.t)).sum() > 100
    x_a, x_b, rows = align_timestamps(alice, bob, tau)
    assert rows.tolist() == list(range(1000))
    assert np.array_equal(x_a, alice.x) and np.array_equal(x_b, bob.x)
    assert np.array_equal(paired_base_times(alice, bob, tau), bob.t)
    # a round is not paired with a neighbour, however loose the inferred tau
    assert align_timestamps(alice, bob, tau + 1e-9)[0].size == 0


def test_align_exchange_order_irrelevant():
    # the two-round censoring exchange lands on the same set no matter who
    # starts: simulate both directions explicitly, at an integer and a
    # non-integer tau over non-integer timestamps
    for tau in (2.0, 0.37):
        rng = np.random.default_rng(6)
        bob_times = np.sort(rng.choice(100, size=60, replace=False) * 0.7)
        alice_times = np.sort(rng.choice(100, size=60, replace=False) * 0.7 + tau)
        alice, bob = _side(alice_times), _side(bob_times)
        a_list, b_list = alice.t.tolist(), bob.t.tolist()

        # Alice first: she announces, Bob censors, Bob replies, Alice censors
        bob_kept = [t for t in b_list if t + tau in set(a_list)]
        alice_kept = [t for t in a_list if t in {b + tau for b in bob_kept}]
        # Bob first
        alice_kept2 = [t for t in a_list if t in {b + tau for b in b_list}]
        bob_kept2 = [t for t in b_list if t + tau in set(alice_kept2)]

        want = paired_base_times(alice, bob, tau)
        assert want.size > 0
        assert bob_kept == list(want)
        assert bob_kept2 == list(want)
        assert alice_kept == alice_kept2 == [t + tau for t in want]


def test_no_value_leakage():
    tr = generate_trace(ChannelParams(sampling_delay=1.0, n_probes=400, rng_seed=7))
    alice, bob = apply_loss(tr, LossModel(0.25, rng_seed=8))
    x_a, x_b, _ = align_timestamps(alice, bob, 1.0)
    assert set(x_a) <= set(tr.x_a)
    assert set(x_b) <= set(tr.x_b)


def test_pairing_correctness_under_loss():
    # noiseless trace: paired values must come from the same fading sample,
    # so at tau = 0 the paired vectors are identical
    tr = generate_trace(
        ChannelParams(sampling_delay=0.0, snr_db=math.inf, n_probes=500, rng_seed=9)
    )
    alice, bob = apply_loss(tr, LossModel(0.3, rng_seed=10))
    x_a, x_b, _ = align_timestamps(alice, bob, 0.0)
    assert x_a.size > 0
    assert np.array_equal(x_a, x_b)


def test_pairing_indices_consistent_with_source():
    tr = generate_trace(ChannelParams(sampling_delay=1.0, n_probes=300, rng_seed=11))
    alice, bob = apply_loss(tr, LossModel(0.2, rng_seed=12))
    base = paired_base_times(alice, bob, 1.0)
    x_a, x_b, rows = align_timestamps(alice, bob, 1.0)
    idx = base.astype(int)
    assert np.array_equal(x_b, tr.x_b[idx])
    assert np.array_equal(x_a, tr.x_a[idx])
    assert np.array_equal(rows, idx)


def test_read_trace_infers_tau_from_first_complete_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "0.5,-50.0,,\n,,0.25,-49.0\n2.75,-51.0,1.25,-48.0\n")
    alice, bob, tau = read_trace(str(path))
    assert tau == 1.5
    assert alice.t.tolist() == [0.5, 2.75] and alice.rows.tolist() == [0, 2]
    assert bob.x.tolist() == [-49.0, -48.0] and bob.rows.tolist() == [1, 2]


def test_read_trace_without_a_complete_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "1.5,-50.0,,\n,,0.5,-49.0\n")
    with pytest.raises(ParameterError, match="no complete row to infer tau from"):
        read_trace(str(path))
    # the sides parse without one, and align at a known tau
    alice, bob = read_trace_records(str(path))
    assert [len(alice), len(bob)] == [1, 1]
    assert align_timestamps(alice, bob, 1.0)[0].tolist() == [-50.0]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_trace_rejects_non_finite_timestamp(tmp_path, cell):
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "1.0,-50.0,0.0,-49.0\n" + f"2.0,-51.0,{cell},-48.0\n")
    with pytest.raises(ParameterError, match=":3: non-finite b timestamp"):
        read_trace(str(path))
