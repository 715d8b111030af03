"""Probe bookkeeping: loss injection, timestamp alignment and trace files.

Each probing round yields one measurement per side; when either direction of
a round is lost the round is unusable, which both parties discover by
exchanging timestamp lists. Timestamps are public side information and the
exchange is modeled as error-free. Each party's surviving probes are held
as arrays (ProbeSide), whether they come from a simulated channel trace or
from a measured trace file.

A trace file is read once, in chunks of CHUNK_ROWS rows. Each chunk is split
into cells and parsed column by column, and every check runs on whole
columns; the first malformed row in file order is the one reported.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .channel import ChannelTrace
from .errors import ParameterError

TRACE_HEADER = ("timestamp_a", "rss_a", "timestamp_b", "rss_b")
CHUNK_ROWS = 4096  # data rows parsed at a time: bounds the parser's memory
CELL_LIMIT = 131_072  # longest cell accepted, in characters: csv's default field limit
_NOT_UTF8 = "bytes that are not UTF-8"
_ESCAPED = re.compile("[\udc80-\udcff]")  # such bytes, read with surrogateescape
# what can be wrong with one side of a row, in the order a row is checked
_FAULTS = (
    "half-empty {} probe",
    "non-numeric {} cell",
    "non-finite {} timestamp",
    "non-finite {} value",
    "decreasing {} timestamp",
    "duplicate {} timestamp",
)


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


def _floats(cells: list, present: np.ndarray):
    """One column's values by row (NaN where absent or not a number) and
    the mask of rows whose cell is a number."""
    values = np.full(present.size, np.nan)
    try:
        values[present] = np.fromiter(
            map(float, filter(None, cells)), float, np.count_nonzero(present)
        )
        return values, present
    except ValueError:
        numeric = present.copy()
        for i in np.flatnonzero(present):
            try:
                values[i] = float(cells[i])
            except ValueError:
                numeric[i] = False
        return values, numeric


def _parse_rows(lines: list, last: list, fail):
    """Per-side (t, x, rows) of one chunk of data lines, and its tau.

    Every check runs on whole columns; the first malformed row in file order
    raises fail(its index in lines, what is wrong). rows count from the
    chunk's first line. last holds each side's last timestamp before the
    chunk and is advanced past it. tau is None when no row holds both probes.
    """
    wrong = np.flatnonzero(
        np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines)) != 3
    )
    n = int(wrong[0]) if wrong.size else len(lines)  # rows with 4 cells
    cells = list(map(str.strip, ",".join(lines[:n]).split(","))) if n else []
    lengths = np.fromiter(map(len, cells), np.intp, len(cells)).reshape(n, 4)
    present = lengths > 0
    # faults[k, i]: side k's first fault in row i, as 1 + its _FAULTS index
    faults = np.zeros((2, n), np.int8)
    sides, t_alls, oks = [], [], []
    for k, c in enumerate((0, 2)):
        t_all, t_numeric = _floats(cells[c::4], present[:, c])
        x_all, x_numeric = _floats(cells[c + 1 :: 4], present[:, c + 1])
        both = present[:, c] & present[:, c + 1]
        ok = both & t_numeric & x_numeric
        rows = np.flatnonzero(ok)
        t = t_all[rows]
        prev = np.concatenate(([last[k]], t[:-1]))
        stale = t <= prev
        x = x_all[rows]
        faults[k, rows[stale]] = np.where(t[stale] == prev[stale], 6, 5)
        faults[k, rows[~np.isfinite(x)]] = 4
        faults[k, rows[~np.isfinite(t)]] = 3
        faults[k, both & ~ok] = 2
        faults[k, present[:, c] != present[:, c + 1]] = 1
        if t.size:
            last[k] = float(t[-1])
        sides.append((t, x, rows))
        t_alls.append(t_all)
        oks.append(ok)
    too_long = (lengths > CELL_LIMIT).any(axis=1)
    bad = np.flatnonzero(too_long | faults.any(axis=0))
    if bad.size:
        i = int(bad[0])
        if too_long[i]:
            raise fail(i, f"cell longer than {CELL_LIMIT} characters")
        k = 0 if faults[0, i] else 1
        raise fail(i, _FAULTS[faults[k, i] - 1].format("ab"[k]))
    if n < len(lines):
        raise fail(n, "expected 4 cells")
    both = np.flatnonzero(oks[0] & oks[1])
    if not both.size:
        return sides, None
    return sides, float(t_alls[0][both[0]]) - float(t_alls[1][both[0]])


def _parse_trace(path: str):
    """(alice, bob, tau) of a trace file, read once in chunks of CHUNK_ROWS rows.

    tau is Alice's minus Bob's timestamp in the first row that holds both
    probes, None when no row does.
    """
    empty = np.empty(0)
    # per chunk, each side's (t, x, rows); the first entry stands for no rows
    chunks = [((empty, empty, empty.astype(np.intp)),) * 2]
    last = [-math.inf, -math.inf]
    tau = None
    first = 0  # data row of the chunk's first line, counting from 0

    def fail(i: int, what: str) -> ParameterError:
        if _ESCAPED.search(lines[i]):
            what = _NOT_UTF8
        return ParameterError(f"{path}:{first + i + 2}: {what}")

    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = fh.readline()
        if not header:
            raise ParameterError(f"{path}: empty trace file")
        if _ESCAPED.search(header):
            raise ParameterError(f"{path}:1: {_NOT_UTF8}")
        if tuple(map(str.strip, header.split(","))) != TRACE_HEADER:
            raise ParameterError(f"{path}: header must be {','.join(TRACE_HEADER)}")
        while lines := list(islice(fh, CHUNK_ROWS)):
            sides, chunk_tau = _parse_rows(lines, last, fail)
            chunks.append([(t, x, rows + first) for t, x, rows in sides])
            if tau is None:
                tau = chunk_tau
            first += len(lines)
    alice, bob = (ProbeSide(*map(np.concatenate, zip(*side))) for side in zip(*chunks))
    return alice, bob, tau


def read_trace(path: str):
    """Parse a trace file into per-side probes.

    Format: header ``timestamp_a,rss_a,timestamp_b,rss_b``; each row is one
    probing round of four plain numeric cells (no CSV quoting); an empty
    timestamp/value pair marks a lost probe on that side. Every timestamp
    and value must be finite, and each side's timestamps must increase
    strictly from row to row. The file is read once, in chunks of CHUNK_ROWS
    rows, and each chunk is parsed column by column; the first malformed row
    is cited by its line number.

    Returns (alice, bob, tau), tau from the first row holding both probes.
    """
    alice, bob, tau = _parse_trace(path)
    if tau is None:
        raise ParameterError(f"{path}: no complete row to infer tau from")
    return alice, bob, tau


def read_trace_records(path: str):
    """The per-side probes (alice, bob) of a trace file; see read_trace."""
    return _parse_trace(path)[:2]
