"""Probe bookkeeping: loss injection, timestamp alignment and trace files.

Each probing round yields one measurement per side; when either direction of
a round is lost the round is unusable, which both parties discover by
exchanging timestamp lists. Timestamps are public side information and the
exchange is modeled as error-free. Each party's surviving probes are held
as arrays (ProbeSide), whether they come from a simulated channel trace or
from a measured trace file.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTrace
from .errors import ParameterError

TRACE_HEADER = ("timestamp_a", "rss_a", "timestamp_b", "rss_b")


@dataclass(frozen=True)
class ProbeSide:
    """One party's surviving probes, in time order.

    t holds strictly increasing timestamps and x the value measured at
    each. rows holds the source row of each probe: its index in the channel
    trace, or its data row in a trace file, counting from 0.
    """

    t: np.ndarray
    x: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        rows = np.asarray(self.rows, dtype=np.intp)
        if not t.ndim == x.ndim == rows.ndim == 1 or not t.size == x.size == rows.size:
            raise ParameterError("t, x and rows must be 1-D and of one length")
        if not np.all(np.diff(t) > 0):
            raise ParameterError("probe timestamps must increase strictly")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return self.t.size


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

    Returns Alice's and Bob's surviving probes (ProbeSide), with their
    original timestamps, values and trace indices. Deterministic for a fixed
    LossModel seed.
    """
    seeds = np.random.SeedSequence(loss.rng_seed).spawn(2)
    sides = []
    for seed, t, x in zip(seeds, (trace.t_a, trace.t_b), (trace.x_a, trace.x_b)):
        keep = np.random.default_rng(seed).random(x.size) >= loss.loss_probability
        rows = np.flatnonzero(keep)
        sides.append(ProbeSide(t[rows], x[rows], rows))
    return tuple(sides)


def match_sorted(haystack: np.ndarray, needles: np.ndarray):
    """Index pairs (i, j) with haystack[i] == needles[j], by exact equality.

    haystack must be strictly increasing; j comes out increasing.
    """
    i = np.searchsorted(haystack, needles)
    j = np.flatnonzero(i < haystack.size)
    j = j[haystack[i[j]] == needles[j]]
    return i[j], j


def paired_base_times(alice: ProbeSide, bob: ProbeSide, tau: float) -> np.ndarray:
    """Bob-side timestamps of the rounds both parties retained.

    A round survives when Bob holds t and Alice holds t + tau. Equivalent to
    the two-round exchange (Alice announces her list, Bob censors and
    replies, Alice censors) regardless of which side starts.
    """
    return bob.t[match_sorted(alice.t, bob.t + tau)[1]]


def align_timestamps(alice: ProbeSide, bob: ProbeSide, tau: float):
    """Censor both sides to the common rounds.

    Returns (x_a, x_b, rows): equal-length measurement vectors in base-time
    order, pairing Alice's value at t + tau with Bob's at t, and the source
    rows of Bob's paired probes.
    """
    ia, ib = match_sorted(alice.t, bob.t + tau)
    return alice.x[ia], bob.x[ib], bob.rows[ib]


def _parse_trace(path: str):
    """(alice, bob, tau) of a trace file, from one pass over it.

    tau is Alice's minus Bob's timestamp in the first row that holds both
    probes, None when no row does.
    """
    columns = (([], [], []), ([], [], []))  # times, values, rows per side
    sides = tuple(zip(range(2), "ab", (0, 2), columns))
    last = [-math.inf, -math.inf]
    tau = None
    row_no = 1

    def bad(what: str) -> ParameterError:
        return ParameterError(f"{path}:{row_no}: {what}")

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParameterError(f"{path}: empty trace file") from None
        if tuple(h.strip() for h in header) != TRACE_HEADER:
            raise ParameterError(f"{path}: header must be {','.join(TRACE_HEADER)}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise bad("expected 4 cells")
            kept = 0
            for k, side, cell, (times, values, rows) in sides:
                t_cell, v_cell = row[cell].strip(), row[cell + 1].strip()
                if not t_cell or not v_cell:
                    if t_cell or v_cell:
                        raise bad(f"half-empty {side} probe")
                    continue
                try:
                    t, v = float(t_cell), float(v_cell)
                except ValueError:
                    raise bad(f"non-numeric {side} cell") from None
                if not math.isfinite(t):
                    raise bad(f"non-finite {side} timestamp")
                if t <= last[k]:
                    kind = "duplicate" if t == last[k] else "decreasing"
                    raise bad(f"{kind} {side} timestamp")
                last[k] = t
                times.append(t)
                values.append(v)
                rows.append(row_no - 2)
                kept += 1
            if tau is None and kept == 2:
                tau = last[0] - last[1]
    alice, bob = (ProbeSide(*side) for side in columns)
    return alice, bob, tau


def read_trace(path: str, tau: float | None = None):
    """Parse a trace file into per-side probes, in one pass.

    Format: header ``timestamp_a,rss_a,timestamp_b,rss_b``; each row is one
    probing round; an empty timestamp/value pair marks a lost probe on that
    side. Each side's timestamps must be finite and increase strictly from
    row to row; every malformed row is cited by its line number.

    Returns (alice, bob, tau). When tau is not given it is inferred from the
    first row that holds both probes.
    """
    alice, bob, inferred = _parse_trace(path)
    if tau is None:
        if inferred is None:
            raise ParameterError(f"{path}: no complete row to infer tau from")
        tau = inferred
    return alice, bob, tau


def read_trace_records(path: str):
    """The per-side probes (alice, bob) of a trace file; see read_trace."""
    return _parse_trace(path)[:2]
