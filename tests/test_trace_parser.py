"""The chunked trace CSV parser against pinned bytes and the row-by-row
csv.reader parser it replaced."""
import csv
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from physec import probing
from physec.channel import ChannelParams, generate_trace
from physec.errors import ParameterError
from physec.harness import (
    canonical_json_bytes,
    config_from_dict,
    load_trace_csv,
    run_experiment,
)
from physec.probing import ProbeSide, TRACE_HEADER, read_trace

GOLDEN_ROWS = 3000
GOLDEN_LOSS = 0.05

# SHA-256 of read_trace's (t, x, rows) per side, and tau, for the seeded
# golden trace; taken with the row-by-row csv.reader parser
GOLDEN_SIDE_SHA256 = {
    "alice": "05af361c4a0f248810070fb788a978d019a5ab67cc79906926019b3e00259226",
    "bob": "269f2b0067f559e85b022e35ac419a059c0fb92d0723c6eef9fea46e06dc83b7",
}
GOLDEN_TAU = 1.0

# SHA-256 of the canonical JSON of the results of a two-value
# quantizer.alpha sweep over the golden trace (the full report also holds
# the trace's temporary path)
GOLDEN_SWEEP_RESULTS_SHA256 = (
    "a6c87cc89f2c3dd8bd1188a38d823d21e28e24b50c6bc2770d93383300fb947c"
)


def write_golden_trace(path, seed=5, n_rows=GOLDEN_ROWS):
    """A seeded trace with independent per-side loss and repr(float) cells."""
    trace = generate_trace(
        ChannelParams(
            temporal_correlation=0.99, snr_db=30.0, n_probes=n_rows, rng_seed=seed
        )
    )
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7ACE)))
    keep_a = rng.random(n_rows) >= GOLDEN_LOSS
    keep_b = rng.random(n_rows) >= GOLDEN_LOSS
    lines = ["timestamp_a,rss_a,timestamp_b,rss_b"]
    for i in range(n_rows):
        a = f"{float(trace.t_a[i])!r},{float(trace.x_a[i])!r}" if keep_a[i] else ","
        b = f"{float(trace.t_b[i])!r},{float(trace.x_b[i])!r}" if keep_b[i] else ","
        lines.append(f"{a},{b}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _side_sha256(side):
    digest = hashlib.sha256()
    digest.update(np.asarray(side.t, dtype="<f8").tobytes())
    digest.update(np.asarray(side.x, dtype="<f8").tobytes())
    digest.update(np.asarray(side.rows, dtype="<i8").tobytes())
    return digest.hexdigest()


def test_golden_trace_parse(tmp_path):
    alice, bob, tau = read_trace(write_golden_trace(tmp_path / "golden.csv"))
    assert {"alice": _side_sha256(alice), "bob": _side_sha256(bob)} == GOLDEN_SIDE_SHA256
    assert (len(alice), len(bob)) == (2848, 2833)
    assert type(tau) is float and tau == GOLDEN_TAU


def test_golden_trace_sweep_results(tmp_path):
    cfg = config_from_dict(
        {
            "trace_file": write_golden_trace(tmp_path / "golden.csv"),
            "ple": {"ber_bits": 0},
            "sweep": {"parameter": "quantizer.alpha", "values": [0.25, 0.75]},
            "trials": 2,
        }
    )
    results = run_experiment(cfg)["results"]
    digest = hashlib.sha256(canonical_json_bytes(results)).hexdigest()
    assert digest == GOLDEN_SWEEP_RESULTS_SHA256


def test_parse_memory_is_bounded_by_the_chunk(tmp_path):
    # splitting the whole file at once took ~8 MiB; the parser holds one block
    path = write_golden_trace(tmp_path / "trace.csv", n_rows=5 * probing.CHUNK_ROWS)
    tracemalloc.start()
    try:
        x_a, x_b = load_trace_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x_a.size > 4 * probing.CHUNK_ROWS
    assert peak < 4 * 2**20


def _reference_parse(path: str):
    """The row-by-row csv.reader parser, kept as the reference."""
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
                if not math.isfinite(v):
                    raise bad(f"non-finite {side} value")
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


def _outcome(parse, path):
    """The bytes of each side's arrays and tau, or the error text."""
    try:
        alice, bob, tau = parse(path)
    except ParameterError as exc:
        return str(exc)
    arrays = [
        (a.dtype.str, a.tobytes())
        for side in (alice, bob)
        for a in (side.t, side.x, side.rows)
    ]
    return arrays, None if tau is None else (type(tau), tau.hex())


# whitespace that str.strip removes, ASCII and not, some of which float()
# itself would reject
BLANKS = ("", " ", "\t", "  ", "\u00a0", "\u2003", "\x0c", "\x1f", " \x1f\u00a0")
NOT_NUMBERS = ("x", "1.2.3", "--1", "1e", "0x10", "1;5", "¹", "1\u00a05", "١x")
NON_FINITE = ("nan", "inf", "-inf", " NaN ", "Infinity", "-Infinity", "\u2003inf\x0c")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _number(rng, value):
    """value as a cell, in one of the spellings float() reads back exactly."""
    style = rng.integers(11)
    if style == 0:
        return f" {value!r}\t"
    if style == 1:
        return f"{value:.16e}"
    if style == 2:
        return f"{value:+.17g}"
    if style == 3:
        return f"{rng.choice(BLANKS)}{value!r}{rng.choice(BLANKS)}"
    if style == 4:
        return repr(value).translate(ARABIC_INDIC)
    return repr(value)


def _random_trace(rng, n_rows, fault_rate=None):
    """Trace text with every kind of malformed row, rarely or often."""
    header = ",".join(TRACE_HEADER)
    pick = rng.random()
    if pick < 0.02:
        return ""
    if pick < 0.04:
        header = "time,rss"
    elif pick < 0.08:
        header = " timestamp_a ,rss_a,\ttimestamp_b,rss_b "
    if fault_rate is None:
        fault_rate = rng.choice([0.0, 0.002, 0.02, 0.1, 0.3])
    loss = rng.choice([0.0, 0.05, 0.5])
    last = [float(rng.uniform(-5, 5)) for _ in range(2)]
    lines = [header]
    for _ in range(n_rows):
        cells = []
        for k in range(2):
            if rng.random() < loss:
                cells += [rng.choice(BLANKS), rng.choice(BLANKS)]
                continue
            last[k] = round(last[k] + float(rng.uniform(0.01, 2.0)), int(rng.integers(2, 18)))
            cells += [_number(rng, last[k]), _number(rng, float(rng.normal(-50, 5)))]
        while rng.random() < fault_rate:
            k = int(rng.integers(2))
            fault = rng.integers(8)
            if fault == 0:
                cells = [rng.choice(BLANKS)]
                break
            if fault == 1:
                cells = cells[: int(rng.integers(4))] if rng.random() < 0.5 else cells + ["1.0"]
                break
            if fault == 2:
                cells[2 * k + int(rng.integers(2))] = rng.choice(BLANKS)
            elif fault == 3:
                cells[2 * k + int(rng.integers(2))] = rng.choice(NOT_NUMBERS)
            elif fault == 4:
                cells[2 * k + int(rng.integers(2))] = rng.choice(NON_FINITE)
            elif fault == 5:
                cells[2 * k] = repr(last[k])  # duplicate, or half of an empty pair
            elif fault == 6:
                cells[2 * k] = repr(last[k] - float(rng.uniform(0, 3)))
            else:
                cells[2 * k : 2 * k + 2] = [repr(last[k]), repr(-50.0)]
        lines.append(",".join(cells))
    eol = rng.choice(["\n", "\n", "\r\n", "\r"])
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, probing.CHUNK_ROWS])
def test_chunked_parser_matches_row_by_row_reference(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(probing, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(chunk_rows)
    path = tmp_path / "trace.csv"
    errors = set()
    for _ in range(400):
        text = _random_trace(rng, int(rng.integers(0, 30)))
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(_reference_parse, str(path))
        assert _outcome(probing._parse_trace, str(path)) == want, text
        if isinstance(want, str):
            errors.add(want.split(": ", 1)[1])
    assert len(errors) >= 10  # the draw hits most kinds of fault


@pytest.mark.parametrize("read_bytes", [1, 2, 5, 64])
def test_reads_split_anywhere_match_reference(tmp_path, monkeypatch, read_bytes):
    # file reads that end inside a cell, a number, a UTF-8 sequence or a
    # CR LF line end, with chunks of a few rows
    monkeypatch.setattr(probing, "READ_BYTES", read_bytes)
    monkeypatch.setattr(probing, "CHUNK_ROWS", 3)
    rng = np.random.default_rng(100 + read_bytes)
    path = tmp_path / "trace.csv"
    for _ in range(60):
        text = _random_trace(rng, int(rng.integers(0, 12)))
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(_reference_parse, str(path))
        assert _outcome(probing._parse_trace, str(path)) == want, text


def _clean_rows(n):
    """n data lines: Alice at i + 1, Bob at i, both probes in every row."""
    return [f"{i + 1.0!r},{-50.0 - i % 7!r},{float(i)!r},{-49.0 - i % 5!r}" for i in range(n)]


@pytest.mark.parametrize("row", [probing.CHUNK_ROWS - 1, probing.CHUNK_ROWS])
@pytest.mark.parametrize(
    "line, what",
    [
        ("{a},{b},{t}", "expected 4 cells"),
        ("{a},x,{t},-49.0", "non-numeric a cell"),
        ("{a},-50.0,{t},", "half-empty b probe"),
        ("{a},-50.0,{prev},-49.0", "duplicate b timestamp"),
    ],
    ids=["cells", "non-numeric", "half-empty", "duplicate"],
)
def test_first_fault_across_the_chunk_boundary(tmp_path, row, line, what):
    # a fault in the last row of the first chunk or the first of the second,
    # with a later fault that must not win
    lines = _clean_rows(probing.CHUNK_ROWS + 40)
    lines[row] = line.format(a=row + 1.0, b=-50.0, t=float(row), prev=row - 1.0)
    lines[row + 20] = "1.0,x,,"
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([",".join(TRACE_HEADER), *lines]) + "\n")
    message = f"{path}:{row + 2}: {what}"
    assert _outcome(_reference_parse, str(path)) == message
    with pytest.raises(ParameterError) as exc:
        read_trace(str(path))
    assert str(exc.value) == message


def test_tau_from_a_later_chunk(tmp_path):
    # no row holds both probes until the second chunk
    lines = _clean_rows(2 * probing.CHUNK_ROWS + 100)
    for i in range(probing.CHUNK_ROWS + 5):
        cells = lines[i].split(",")
        lines[i] = ",".join(cells[:2] + ["", ""] if i % 2 else ["", ""] + cells[2:])
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([",".join(TRACE_HEADER), *lines]) + "\n")
    assert _outcome(probing._parse_trace, str(path)) == _outcome(_reference_parse, str(path))
    alice, bob, tau = read_trace(str(path))
    assert tau == 1.0 and (alice.rows[0], bob.rows[0]) == (1, 0)
    assert len(alice) + len(bob) == 2 * len(lines) - probing.CHUNK_ROWS - 5


@pytest.mark.parametrize("fault_rate", [0.0, 2e-4, 4e-4])
def test_random_traces_over_several_chunks(tmp_path, fault_rate):
    rng = np.random.default_rng(int(fault_rate * 1e5))
    path = tmp_path / "trace.csv"
    for _ in range(3):
        text = _random_trace(rng, 2 * probing.CHUNK_ROWS + 9, fault_rate)
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(_reference_parse, str(path))
        assert _outcome(probing._parse_trace, str(path)) == want


def _rejects(path, message):
    with pytest.raises(ParameterError) as exc:
        read_trace(str(path))
    assert str(exc.value) == f"{path}{message}"


def test_quoted_cells_are_rejected(tmp_path):
    # the format has plain numeric cells; csv.reader used to drop the quotes
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_HEADER) + '\n1.0,-50.0,0.0,-49.0\n"2.0",-51.0,1.0,-48.0\n')
    _rejects(path, ":3: non-numeric a cell")
    path.write_text('"timestamp_a","rss_a","timestamp_b","rss_b"\n1.0,-50.0,0.0,-49.0\n')
    _rejects(path, ": header must be timestamp_a,rss_a,timestamp_b,rss_b")


def test_bytes_that_are_not_utf8_are_cited(tmp_path):
    path = tmp_path / "trace.csv"
    header = ",".join(TRACE_HEADER).encode() + b"\n"
    path.write_bytes(header + b"1.0,-50.0,0.0,-49.0\n2.0,-51.0,1.0,-4\xe98.0\n")
    _rejects(path, ":3: bytes that are not UTF-8")
    path.write_bytes(b"timestamp_a,rss_\xff,timestamp_b,rss_b\n1.0,-50.0,0.0,-49.0\n")
    _rejects(path, ":1: bytes that are not UTF-8")
    # an earlier malformed row is still the one cited
    path.write_bytes(header + b"1.0,-50.0,0.0\n2.0,-51.0,1.0,-4\xe98.0\n")
    _rejects(path, ":2: expected 4 cells")


def test_cells_longer_than_the_limit_are_cited(tmp_path):
    path = tmp_path / "trace.csv"
    longest = "0" * (probing.CELL_LIMIT - 3) + "1.5"
    path.write_text(",".join(TRACE_HEADER) + f"\n1.0,{longest},0.0,-49.0\n")
    assert read_trace(str(path))[0].x.tolist() == [1.5]
    path.write_text(",".join(TRACE_HEADER) + f"\n1.0,-50.0,0.0,-49.0\n2.0,0{longest},1.0,-48.0\n")
    _rejects(path, f":3: cell longer than {probing.CELL_LIMIT} characters")


@pytest.mark.parametrize("cell", NON_FINITE)
def test_non_finite_rss_values_are_cited(tmp_path, cell):
    # read_trace used to return them as measurements
    path = tmp_path / "trace.csv"
    lines = _clean_rows(6)
    lines[2] = f"3.0,{cell},2.0,-52.0"
    lines[4] = "5.0,-50.0,4.0,inf"
    path.write_text("\n".join([",".join(TRACE_HEADER), *lines]) + "\n")
    assert _outcome(_reference_parse, str(path)) == f"{path}:4: non-finite a value"
    _rejects(path, ":4: non-finite a value")


def test_non_finite_rss_value_order_within_a_row(tmp_path):
    # side a before side b; in one side, a non-finite timestamp before a
    # non-finite value, and that before a repeated or decreasing timestamp
    cases = {
        "1.0,-50.0,0.0,nan": ":2: non-finite b value",
        "1.0,nan,0.0,x": ":2: non-finite a value",
        "1.0,nan,nan,-50.0": ":2: non-finite a value",
        "inf,nan,0.0,-50.0": ":2: non-finite a timestamp",
    }
    path = tmp_path / "trace.csv"
    for row, message in cases.items():
        path.write_text(f"{','.join(TRACE_HEADER)}\n{row}\n")
        assert _outcome(_reference_parse, str(path)) == f"{path}{message}"
        _rejects(path, message)
    # a value that is not finite wins over a repeated timestamp in its row
    path.write_text(f"{','.join(TRACE_HEADER)}\n1.0,-50.0,0.0,-50.0\n1.0,-inf,1.0,-50.0\n")
    assert _outcome(_reference_parse, str(path)) == f"{path}:3: non-finite a value"
    _rejects(path, ":3: non-finite a value")
