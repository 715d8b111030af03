"""Probe bookkeeping: loss injection and timestamp alignment.

Each probing round yields one measurement per side; when either direction of
a round is lost the round is unusable, which both parties discover by
exchanging timestamp lists. Timestamps are public side information and the
exchange is modeled as error-free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelTrace
from .errors import ParameterError


@dataclass(frozen=True)
class ProbeRecord:
    """One surviving probe: when it was measured and the measured value."""

    timestamp: float
    value: float


@dataclass(frozen=True)
class LossModel:
    """Independent per-direction probe loss with probability loss_probability."""

    loss_probability: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_probability < 1.0:
            raise ParameterError("loss_probability must be in [0, 1)")


def apply_loss(trace: ChannelTrace, loss: LossModel):
    """Drop each probe independently per direction.

    Returns (alice_records, bob_records) with original timestamps and values
    for the survivors. Deterministic for a fixed LossModel seed.
    """
    seeds = np.random.SeedSequence(loss.rng_seed).spawn(2)
    rng_a, rng_b = (np.random.default_rng(s) for s in seeds)
    p = loss.loss_probability
    keep_a = rng_a.random(trace.x_a.size) >= p
    keep_b = rng_b.random(trace.x_b.size) >= p
    alice = [
        ProbeRecord(float(t), float(v))
        for t, v in zip(trace.t_a[keep_a], trace.x_a[keep_a])
    ]
    bob = [
        ProbeRecord(float(t), float(v))
        for t, v in zip(trace.t_b[keep_b], trace.x_b[keep_b])
    ]
    return alice, bob


def paired_base_times(alice_records, bob_records, tau: float) -> np.ndarray:
    """Bob-side timestamps of the rounds both parties retained.

    A round survives when Bob holds t and Alice holds t + tau. Equivalent to
    the two-round exchange (Alice announces her list, Bob censors and
    replies, Alice censors) regardless of which side starts.
    """
    alice_times = {r.timestamp for r in alice_records}
    base = [r.timestamp for r in bob_records if r.timestamp + tau in alice_times]
    return np.asarray(sorted(base), dtype=float)


def align_timestamps(alice_records, bob_records, tau: float):
    """Censor both lists to the common rounds.

    Returns (x_a_paired, x_b_paired): equal-length measurement vectors in
    base-time order, pairing Alice's value at t + tau with Bob's at t.
    """
    base = paired_base_times(alice_records, bob_records, tau)
    alice_map = {r.timestamp: r.value for r in alice_records}
    bob_map = {r.timestamp: r.value for r in bob_records}
    x_a = np.asarray([alice_map[t + tau] for t in base], dtype=float)
    x_b = np.asarray([bob_map[t] for t in base], dtype=float)
    return x_a, x_b
