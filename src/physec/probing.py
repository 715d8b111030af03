"""Probe bookkeeping: loss injection, timestamp alignment and trace files.

Each probing round yields one measurement per side; when either direction of
a round is lost the round is unusable, which both parties discover by
exchanging timestamp lists. Timestamps are public side information and the
exchange is modeled as error-free. Each party's surviving probes are held
as arrays (ProbeSide), whether they come from a simulated channel trace or
from a measured trace file.

Rounds are paired by timestamp to within TIME_ULPS ulps of the largest
timestamp or tau, so the rounding of t + tau does not drop a round whose
timestamps were written as decimals; pairs stay one-to-one.

A trace file is read once, as bytes, in blocks of CHUNK_ROWS lines. A block's
delimiter positions give the four-cells-per-row check in one pass; its
cells are then split, stripped and parsed in one pass each, and every check
runs on whole columns. The first malformed row in file order is the one
reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .channel import ChannelTrace
from .errors import ParameterError
from .rng import check_seed, spawned

TRACE_HEADER = ("timestamp_a", "rss_a", "timestamp_b", "rss_b")
CHUNK_ROWS = 4096  # data rows parsed at a time: bounds the parser's memory
READ_BYTES = 1 << 16  # bytes read from the file at a time
TIME_ULPS = 4  # alignment slack; t + tau missed by at most 1 ulp on 1- to 6-decimal traces
CELL_LIMIT = 131_072  # longest cell accepted, in characters: csv's default field limit
_NOT_UTF8 = "bytes that are not UTF-8"
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
        check_seed(self.rng_seed, "rng_seed")


def apply_loss(trace: ChannelTrace, loss: LossModel, rngs=None):
    """Drop each probe independently per direction.

    Returns Alice's and Bob's surviving probes (ProbeSide), with their
    original timestamps, values and trace indices. Deterministic for a fixed
    LossModel seed: Alice's side draws from the first generator of
    SeedSequence(loss.rng_seed).spawn(2), Bob's from the second. rngs, when
    given, are those two in place of loss.rng_seed's (physec.rng.spawned).
    """
    if rngs is None:
        rngs = spawned([loss.rng_seed], 2)[0]
    sides = []
    for rng, t, x in zip(rngs, (trace.t_a, trace.t_b), (trace.x_a, trace.x_b)):
        keep = rng.random(x.size) >= loss.loss_probability
        rows = np.flatnonzero(keep)
        sides.append(ProbeSide(t[rows], x[rows], rows))
    return tuple(sides)


def match_sorted(haystack: np.ndarray, needles: np.ndarray, slack: float = 0.0):
    """One-to-one index pairs (i, j), j increasing: haystack[i] is the first
    value within slack of needles[j].

    haystack must be strictly increasing and needles non-decreasing. Where
    several needles find one haystack value, the closest of them keeps it,
    the first on a tie.
    """
    i = np.searchsorted(haystack, needles - slack)
    j = np.flatnonzero(i < haystack.size)
    i = i[j]
    found = haystack[i] <= needles[j] + slack
    i, j = i[found], j[found]
    if (i[1:] == i[:-1]).any():
        by_value = np.lexsort((np.abs(haystack[i] - needles[j]), i))
        first = np.concatenate(([True], np.diff(i[by_value]) > 0))
        keep = np.sort(by_value[first])
        i, j = i[keep], j[keep]
    return i, j


def _rounds(alice: ProbeSide, bob: ProbeSide, tau: float):
    """Index pairs (ia, ib) of the rounds both parties retained: Alice's
    timestamp within TIME_ULPS ulps of Bob's plus tau, in ulps of the
    largest timestamp or tau, which covers the rounding of t + tau."""
    ends = [abs(float(side.t[k])) for side in (alice, bob) if side.t.size for k in (0, -1)]
    slack = TIME_ULPS * math.ulp(max([abs(tau), *ends]))
    return match_sorted(alice.t, bob.t + tau, slack)


def paired_base_times(alice: ProbeSide, bob: ProbeSide, tau: float) -> np.ndarray:
    """Bob-side timestamps of the rounds both parties retained.

    A round survives when Bob holds t and Alice holds t + tau, to within
    TIME_ULPS ulps (see _rounds). Equivalent to the two-round exchange
    (Alice announces her list, Bob censors and replies, Alice censors)
    regardless of which side starts.
    """
    return bob.t[_rounds(alice, bob, tau)[1]]


def align_timestamps(alice: ProbeSide, bob: ProbeSide, tau: float):
    """Censor both sides to the common rounds.

    Returns (x_a, x_b, rows): equal-length measurement vectors in base-time
    order, pairing Alice's value at t + tau with Bob's at t, and the source
    rows of Bob's paired probes.
    """
    ia, ib = _rounds(alice, bob, tau)
    return alice.x[ia], bob.x[ib], bob.rows[ib]


def _chunks(pieces):
    """The lines of a stream of byte pieces, CHUNK_ROWS at a time, as one
    bytes block each in which every line ends in a newline."""
    held, count = [], 0  # pieces of the open block, and the lines they end
    for data in pieces:
        is_end = np.frombuffer(data, np.uint8) == 10
        lines = np.count_nonzero(is_end)
        if count + lines < CHUNK_ROWS:
            held.append(data)
            count += lines
            continue
        cuts = (np.flatnonzero(is_end)[CHUNK_ROWS - count - 1 :: CHUNK_ROWS] + 1).tolist()
        held.append(data[: cuts[0]])
        yield b"".join(held)
        yield from (data[a:b] for a, b in zip(cuts, cuts[1:]))
        held, count = [data[cuts[-1] :]], (count + lines) % CHUNK_ROWS
    tail = b"".join(held)
    if tail:
        yield tail if tail.endswith(b"\n") else tail + b"\n"


def _pieces(fh):
    """fh's bytes, READ_BYTES at a time, each CR LF and lone CR read as LF."""
    while data := fh.read(READ_BYTES):
        while data.endswith(b"\r") and (more := fh.read(1)):
            data += more  # a CR LF split across reads stays one line end
        yield data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _parse_rows(block: bytes, last: list, fail):
    """Per-side (t, x, rows) of one block of data lines, and its tau.

    The 4-cells-per-row check runs on the block's delimiter positions; the
    cells of the rows before the first that fails it are then split,
    stripped and parsed in one pass each. Every check runs on whole
    columns; the first malformed row in file order raises fail(its index
    in the block, what is wrong). rows count from the block's first line.
    last holds each side's last timestamp before the block and is advanced
    past it. tau is None when no row holds both probes.
    """
    codes = np.frombuffer(block, np.uint8)
    delims = np.flatnonzero((codes == 44) | (codes == 10))
    breaks = np.flatnonzero(codes[delims] == 10)  # each line end's index in delims
    wrong = np.flatnonzero(breaks != np.arange(3, 4 * breaks.size, 4))
    n = int(wrong[0]) if wrong.size else breaks.size  # rows with 4 cells
    if not n:
        raise fail(0, "expected 4 cells")
    cells = block.decode("utf-8", "surrogateescape").replace("\n", ",").split(",", 4 * n)
    cells = list(map(str.strip, cells))
    cells.pop()  # the rest of the block: its last line end, or the rows after the nth
    lengths = np.fromiter(map(len, cells), np.intp, 4 * n).reshape(n, 4)
    present = lengths > 0
    values = np.full((4, n), np.nan)  # by column, then row
    try:
        values.T[present] = np.fromiter(
            map(float, filter(None, cells)), float, np.count_nonzero(present)
        )
        numeric = present
    except ValueError:
        numeric = present.copy()
        for i, c in zip(*np.nonzero(present)):
            try:
                values[c, i] = float(cells[4 * i + c])
            except ValueError:
                numeric[i, c] = False
    # faults[k, i]: side k's first fault in row i, as 1 + its _FAULTS index
    faults = np.zeros((2, n), np.int8)
    sides, oks = [], []
    for k, c in enumerate((0, 2)):
        both = present[:, c] & present[:, c + 1]
        ok = both & numeric[:, c] & numeric[:, c + 1]
        rows = np.flatnonzero(ok)
        t = values[c, rows]
        x = values[c + 1, rows]
        prev = np.concatenate(([last[k]], t[:-1]))
        stale = t <= prev
        faults[k, rows[stale]] = np.where(t[stale] == prev[stale], 6, 5)
        faults[k, rows[~np.isfinite(x)]] = 4
        faults[k, rows[~np.isfinite(t)]] = 3
        faults[k, both & ~ok] = 2
        faults[k, present[:, c] != present[:, c + 1]] = 1
        if t.size:
            last[k] = float(t[-1])
        sides.append((t, x, rows))
        oks.append(ok)
    too_long = (lengths > CELL_LIMIT).any(axis=1)
    bad = np.flatnonzero(too_long | faults.any(axis=0))
    if bad.size:
        i = int(bad[0])
        if too_long[i]:
            raise fail(i, f"cell longer than {CELL_LIMIT} characters")
        k = 0 if faults[0, i] else 1
        raise fail(i, _FAULTS[faults[k, i] - 1].format("ab"[k]))
    if n < breaks.size:
        raise fail(n, "expected 4 cells")
    both = np.flatnonzero(oks[0] & oks[1])
    if not both.size:
        return sides, None
    return sides, float(values[0, both[0]]) - float(values[2, both[0]])


def _utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


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
    first = 0  # data row of the block's first line, counting from 0

    def fail(i: int, what: str) -> ParameterError:
        if not _utf8(block.split(b"\n", i + 1)[i]):
            what = _NOT_UTF8
        return ParameterError(f"{path}:{first + i + 2}: {what}")

    with open(path, "rb") as fh:
        pieces = _pieces(fh)
        head = b""
        for data in pieces:
            head += data
            if b"\n" in head:
                break
        if not head:
            raise ParameterError(f"{path}: empty trace file")
        header, _, rest = head.partition(b"\n")
        if not _utf8(header):
            raise ParameterError(f"{path}:1: {_NOT_UTF8}")
        if tuple(h.strip() for h in header.decode().split(",")) != TRACE_HEADER:
            raise ParameterError(f"{path}: header must be {','.join(TRACE_HEADER)}")
        for block in _chunks(chain((rest,), pieces)):
            sides, chunk_tau = _parse_rows(block, last, fail)
            chunks.append([(t, x, rows + first) for t, x, rows in sides])
            if tau is None:
                tau = chunk_tau
            first += CHUNK_ROWS  # every block but the last holds CHUNK_ROWS lines
    alice, bob = (ProbeSide(*map(np.concatenate, zip(*side))) for side in zip(*chunks))
    return alice, bob, tau


def read_trace(path: str):
    """Parse a trace file into per-side probes.

    Format: header ``timestamp_a,rss_a,timestamp_b,rss_b``; each row is one
    probing round of four plain numeric cells (no CSV quoting); an empty
    timestamp/value pair marks a lost probe on that side. Every timestamp
    and value must be finite, and each side's timestamps must increase
    strictly from row to row. Lines may end in LF, CR LF or CR. The file is
    read once, in blocks of CHUNK_ROWS lines, and each block is parsed column
    by column; the first malformed row is cited by its line number.

    Returns (alice, bob, tau), tau from the first row holding both probes.
    """
    alice, bob, tau = _parse_trace(path)
    if tau is None:
        raise ParameterError(f"{path}: no complete row to infer tau from")
    return alice, bob, tau


def read_trace_records(path: str):
    """The per-side probes (alice, bob) of a trace file; see read_trace."""
    return _parse_trace(path)[:2]
