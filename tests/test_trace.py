import ast
import hashlib
import json
import math
import os
import pickle
import re
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

import undercut
import undercut.trace as trace_module
from undercut.mempool import RankTable, Transaction
from undercut.trace import (
    BITCOIN_PARAMS,
    MONERO_PARAMS,
    TRACE_FORMATS,
    PowerDistribution,
    TraceError,
    _raw32,
    _sampler,
    load_powers,
    load_trace,
    preset,
    synthesize_trace,
    synthesize_whale_trace,
    write_powers,
    write_trace,
)

from conftest import assert_same_columns, csv_writer_trace, tx


def test_load_trace_roundtrip_csv(tmp_path):
    records = [tx("b", 3, 7, t=12.0), tx("a", 5, 0, t=3.5), tx("c", 1, 2, t=12.0)]
    path = tmp_path / "trace.csv"
    write_trace(sorted(records, key=lambda t: t.id), path)
    loaded = load_trace(path)
    assert list(loaded) == sorted(records, key=lambda t: (t.arrival_time, t.id))
    write_trace(loaded, path)
    assert_same_columns(load_trace(path), loaded)


def test_load_trace_roundtrip_jsonl(tmp_path):
    records = [tx("x", 2, 9, t=1.25), tx("y", 4, 1, t=0.5)]
    path = tmp_path / "trace.jsonl"
    write_trace(records, path, fmt="json-lines")
    assert list(load_trace(path, fmt="json-lines")) == sorted(records, key=lambda t: (t.arrival_time, t.id))


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
def test_a_trace_of_numpy_scalars_reads_back(tmp_path, fmt):
    # written as the equal Python numbers: a numpy float's repr names its
    # type, and json refuses numpy scalars
    records = [
        Transaction("a", np.float64(1.5), np.int64(3), np.int64(7)),
        Transaction("b", np.float32(2.25), np.int32(4), np.uint8(0)),
        Transaction("c", np.int64(3), 5, 2**70),
    ]
    path = tmp_path / "trace"
    write_trace(records, path, fmt=fmt)
    assert list(load_trace(path, fmt=fmt)) == records
    plain = [Transaction("a", 1.5, 3, 7), Transaction("b", 2.25, 4, 0), Transaction("c", 3, 5, 2**70)]
    write_trace(plain, tmp_path / "plain", fmt=fmt)
    assert path.read_bytes() == (tmp_path / "plain").read_bytes()


def test_a_fraction_time_is_written_as_the_same_number_in_both_formats(tmp_path):
    # json refused a Fraction; both formats now write what the CSV writer did
    records = [Transaction("a", Fraction(1, 3), 3, 4), Transaction("b", Fraction(14, 2), 2, 1)]
    loaded = []
    for fmt in TRACE_FORMATS:
        write_trace(records, tmp_path / fmt, fmt=fmt)
        loaded.append(load_trace(tmp_path / fmt, fmt=fmt))
    assert_same_columns(loaded[0], loaded[1])
    assert list(loaded[0]) == [Transaction("a", 1 / 3, 3, 4), Transaction("b", 7.0, 2, 1)]
    assert (tmp_path / "csv").read_text().splitlines()[1:] == ["a,0.3333333333333333,3,4", "b,7,2,1"]


@st.composite
def written_traces(draw):
    """Traces whose ids need quoting (commas, quotes, line breaks) or end
    in a NUL, with tied times and fees and sizes past int64."""
    text = st.text(alphabet='a,"\n\r é', max_size=4)
    ids = draw(st.lists(st.builds(str.__add__, text, st.sampled_from(("", "\x00"))), unique=True, max_size=12))
    time = st.sampled_from((0.0, 0.5, 1 / 3, 7.0, 1e20, 2.0**60 + 2**8))
    fee = st.one_of(st.integers(0, 60), st.integers(2**63 - 2, 2**80))
    size = st.one_of(st.integers(1, 5), st.just(2**64))
    return [Transaction(i, draw(time), draw(size), draw(fee)) for i in ids]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(written_traces(), st.sampled_from(TRACE_FORMATS))
def test_a_written_trace_loads_back_as_the_table_of_its_transactions(tmp_path, records, fmt):
    path = tmp_path / "trace"
    write_trace(records, path, fmt=fmt)
    loaded = load_trace(path, fmt=fmt)
    assert_same_columns(loaded, RankTable(records))
    assert list(loaded) == sorted(records, key=lambda t: (t.arrival_time, t.id))


def test_a_loaded_table_pickles_as_its_columns(tmp_path):
    records = [Transaction("b\x00", 2.5, 3, 7), Transaction("a,b", 0.5, 5, 2**70), Transaction("c", 0.5, 1, 0)]
    write_trace(records, tmp_path / "trace.csv")
    table = load_trace(tmp_path / "trace.csv")
    back = pickle.loads(pickle.dumps(table))
    assert isinstance(back, RankTable)
    assert_same_columns(back, table)
    assert back.txs.tolist() == table.txs.tolist()


def test_load_trace_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,timestamp,size,fee\n")
    assert list(load_trace(path)) == []


def test_a_zero_byte_csv_trace_lacks_its_header(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_bytes(b"")
    with pytest.raises(TraceError, match="^line 1: expected header id,timestamp,size,fee$"):
        load_trace(path)


def test_load_trace_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,timestamp,size,fee\na,1,10,5\nb,2,0,3\n")
    with pytest.raises(TraceError, match="line 3"):
        load_trace(path)
    path.write_text("id,timestamp,size,fee\na,1,10,notanumber\n")
    with pytest.raises(TraceError, match="line 2"):
        load_trace(path)
    path.write_text("id,timestamp,size,fee\na,1,10,5\na,2,10,5\n")
    with pytest.raises(TraceError, match="duplicate"):
        load_trace(path)
    path.write_text("wrong,header\n")
    with pytest.raises(TraceError, match="header"):
        load_trace(path)


def test_csv_errors_name_the_line_a_record_starts_on(tmp_path):
    # a quoted id spans lines 2 and 3, so the next record starts on line 4
    path = tmp_path / "bad.csv"
    path.write_text('id,timestamp,size,fee\n"a\nx",1,10,5\nb,2,0,5\n')
    with pytest.raises(TraceError, match="^line 4: size must be positive, got 0$"):
        load_trace(path)
    path.write_text('id,timestamp,size,fee\n"a\nx",1,10,5\n\n"a\nx",2,10,5\n')
    with pytest.raises(TraceError, match=r"^line 5: duplicate transaction id 'a\\nx' \(first on line 2\)$"):
        load_trace(path)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_load_trace_rejects_non_finite_timestamps_csv(tmp_path, stamp):
    # such a row used to load, and a run over it never returned
    path = tmp_path / "bad.csv"
    path.write_text(f"id,timestamp,size,fee\na,1,10,5\nb,{stamp},10,5\n")
    with pytest.raises(TraceError, match="line 3: timestamp must be finite"):
        load_trace(path)


@pytest.mark.parametrize("stamp", ["NaN", "Infinity", "-Infinity"])
def test_load_trace_rejects_non_finite_timestamps_jsonl(tmp_path, stamp):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n'
        f'{{"id": "b", "timestamp": {stamp}, "size": 10, "fee": 5}}\n'
    )
    with pytest.raises(TraceError, match="line 2: timestamp must be finite"):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize(
    "field, value",
    [("size", "250.9"), ("fee", "10.7"), ("size", "true"), ("fee", "false"), ("fee", '"5"'), ("size", "250.0")],
)
def test_load_trace_jsonl_requires_integer_size_and_fee(tmp_path, field, value):
    # int() used to load 250.9 as 250 and true as 1
    row = {"id": '"b"', "timestamp": "2", "size": "10", "fee": "5", field: value}
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n'
        + "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n"
    )
    with pytest.raises(TraceError, match=f"line 2: {field} must be a JSON integer, got {value}"):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize("value", ["true", '"7"', "null", "[1]"])
def test_load_trace_jsonl_requires_a_numeric_timestamp(tmp_path, value):
    # float() used to load true as 1.0 and "7" as 7.0
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n'
        f'{{"id": "b", "timestamp": {value}, "size": 10, "fee": 5}}\n'
    )
    with pytest.raises(TraceError, match=re.escape(f"line 2: timestamp must be a JSON number, got {value}")):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize("value", ["null", "true", "false", "[1]", "1.5", '{"a": 1}'])
def test_load_trace_jsonl_requires_a_string_or_integer_id(tmp_path, value):
    # str() used to load null, true and [1] as "None", "True" and "[1]"
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n'
        f'{{"id": {value}, "timestamp": 2, "size": 10, "fee": 5}}\n'
    )
    with pytest.raises(TraceError, match=re.escape(f"line 2: id must be a JSON string or integer, got {value}")):
        load_trace(path, fmt="json-lines")


def test_load_trace_jsonl_reads_an_integer_id_as_its_digits(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"id": 7, "timestamp": 1, "size": 10, "fee": 5}\n')
    [record] = load_trace(path, fmt="json-lines")
    assert record.id == "7"
    # the integer 7 and the string "7" are one id, and both lines are named
    path.write_text(path.read_text() + '{"id": "7", "timestamp": 2, "size": 10, "fee": 5}\n')
    with pytest.raises(TraceError, match=r"^line 2: duplicate transaction id '7' \(first on line 1\)$"):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_load_trace_names_the_line_of_an_integer_too_long_to_read(tmp_path, fmt):
    # json.loads raises a plain ValueError past int's 4300-digit limit
    fee = "9" * 5000
    path = tmp_path / "long.txt"
    if fmt == "csv":
        path.write_text(f"id,timestamp,size,fee\na,1,10,{fee}\n")
    else:
        path.write_text(f'{{"id": "a", "timestamp": 1, "size": 10, "fee": {fee}}}\n')
    with pytest.raises(TraceError, match=f"^line {2 if fmt == 'csv' else 1}: malformed row: Exceeds the limit"):
        load_trace(path, fmt=fmt)


def test_load_trace_jsonl_timestamps_as_a_csv_row_reads_them(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"id": "a", "timestamp": 3, "size": 10, "fee": 5}\n')
    [record] = load_trace(path, fmt="json-lines")
    assert record.arrival_time == 3.0 and type(record.arrival_time) is float
    path.write_text('{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n' f'{{"id": "b", "timestamp": {10**400}, "size": 10, "fee": 5}}\n')
    with pytest.raises(TraceError, match="line 2: timestamp must be finite, got inf"):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_load_trace_names_both_lines_of_a_duplicate_id(tmp_path, fmt):
    rows = [("a", 1, 10, 5), None, ("b", 2, 10, 5), ("a", 3, 10, 5), ("b", 4, 10, 5)]
    if fmt == "csv":
        lines = ["id,timestamp,size,fee"] + ["" if r is None else ",".join(map(str, r)) for r in rows]
    else:
        lines = ["" if r is None else json.dumps(dict(zip(("id", "timestamp", "size", "fee"), r))) for r in rows]
    path = tmp_path / "dup.txt"
    path.write_text("\n".join(lines) + "\n")
    first, again = (2, 5) if fmt == "csv" else (1, 4)
    with pytest.raises(TraceError, match=rf"^line {again}: duplicate transaction id 'a' \(first on line {first}\)$"):
        load_trace(path, fmt=fmt)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_load_trace_names_the_first_bad_line_in_file_order(tmp_path, fmt):
    # the repeated id on line 3 is named, not the malformed row on line 5
    rows = [("a", 1, 10, 5), ("a", 2, 10, 5), ("b", 3, 10, 5)]
    if fmt == "csv":
        lines = ["id,timestamp,size,fee"] + [",".join(map(str, r)) for r in rows] + ["c,4,10"]
    else:
        rows.insert(0, ("z", 0, 10, 5))
        lines = [json.dumps(dict(zip(("id", "timestamp", "size", "fee"), r))) for r in rows] + ["{"]
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceError, match=r"^line 3: duplicate transaction id 'a' \(first on line 2\)$"):
        load_trace(path, fmt=fmt)


def test_load_trace_jsonl_keeps_fees_past_int64(tmp_path):
    path = tmp_path / "big.jsonl"
    path.write_text(f'{{"id": "a", "timestamp": 1, "size": 10, "fee": {2**70}}}\n')
    [record] = load_trace(path, fmt="json-lines")
    assert record.fee == 2**70


# ---------------------------------------------------------------------------
# the plain CSV pass, the row loop and the chunked writer
# ---------------------------------------------------------------------------


def row_loop_table(path):
    """The table the row loop alone reads from a CSV file, as it reads a pipe."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return trace_module._row_table(trace_module._csv_rows(fh))


def outcome(load, path):
    """What ``load(path)`` gives: a table, or the type and message of what it raised."""
    try:
        return load(path)
    except Exception as exc:  # both readers must fail alike, whatever they raise
        return type(exc), str(exc)


# a hostile alphabet: what numpy and Python parse differently, or not at all
CSV_TOKENS = (*"0123456789", "+", "-", ".", "_", "e", "nan", "inf", ",", " ", "\t", "#", '"', "\r", "\n")
CSV_TOKENS += ("\x0b", "\x0c", "\x00", "٣", "a")
csv_noise = st.lists(st.sampled_from(CSV_TOKENS), max_size=4).map("".join)


@st.composite
def csv_texts(draw):
    """CSV trace texts, half of them plain rows of good values.  In the
    other half, a field may be drawn from a hostile alphabet, padded or
    negative, a separator may be another, and the header may be one the
    plain pass refuses; an id may repeat in both (one in four has no
    row number)."""
    hostile = draw(st.booleans())
    # integers past 2**53 fall back to object columns, and past 2**63 refuse the plain pass
    top = draw(st.sampled_from((3000, 3000, 2**63 - 1, 2**70)))
    integers = st.one_of(st.integers(0, 3000), st.integers(0, top))
    times = st.one_of(st.integers(0, 3000), st.floats(0, 1e6), st.floats() if hostile else st.nothing())

    def sometimes(*choices):
        return draw(st.sampled_from(("",) * 6 + choices)) if hostile else ""

    def field(value):
        if hostile and draw(st.integers(0, 9)) == 0:
            return draw(csv_noise)
        return sometimes(" ", "+", "-", "\t", "0", "\x0b") + str(value) + sometimes(" ", "\x0c")

    header = "id,timestamp,size,fee" + (sometimes("\r", " ", ",") or "") + "\n"
    lines = []
    for i in range(draw(st.integers(0, 6))):
        id_ = draw(st.text(alphabet="abcd #\x00٣", max_size=3)) + (str(i) if draw(st.integers(0, 3)) else "")
        fields = [field(id_), field(draw(times)), field(draw(integers)), field(draw(integers))]
        lines.append((sometimes(", ", ";") or ",").join(fields) + (sometimes("\r\n", "\r", "\n\n", "\n\t\n") or "\n"))
    return header + "".join(lines)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
def test_the_plain_pass_reads_every_text_as_the_row_loop_does(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    got, expected = outcome(load_trace, path), outcome(row_loop_table, path)
    if isinstance(expected, RankTable):
        assert isinstance(got, RankTable), got
        assert_same_columns(got, expected)
    else:
        assert got == expected


def test_a_plain_trace_loads_in_one_numpy_pass(tmp_path, monkeypatch):
    records = synthesize_whale_trace(5, 60_000, 20.0)
    path = tmp_path / "trace.csv"
    write_trace(records, path)

    def refuse(fh):
        raise AssertionError("the row loop read a plain trace")

    monkeypatch.setattr(trace_module, "_csv_rows", refuse)
    assert_same_columns(load_trace(path), RankTable(records))


def write_to_pipe(path, text):
    """A thread that writes ``text`` into the FIFO at ``path`` once a reader opens it."""
    writer = threading.Thread(target=path.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    return writer


def test_a_pipe_is_read_by_the_row_loop_alone(tmp_path, monkeypatch):
    text = "id,timestamp,size,fee\nb,2.5,3,7\na,0.5,5,9\n"
    (tmp_path / "trace.csv").write_text(text, encoding="utf-8")
    expected = load_trace(tmp_path / "trace.csv")

    def refuse(fh):
        raise AssertionError("a pipe went to the plain pass")

    monkeypatch.setattr(trace_module, "_plain_csv_table", refuse)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = write_to_pipe(pipe, text)
    table = load_trace(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_columns(table, expected)
    writer = write_to_pipe(pipe, text + "c,1,0,5\n")
    with pytest.raises(TraceError, match="^line 4: size must be positive, got 0$"):
        load_trace(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_fees_past_the_float_range_load_as_python_ints(tmp_path):
    # int64 columns that fall back to objects hold Python ints: two fees
    # of 2**62 sum past int64, where np.int64 scalars would wrap
    path = tmp_path / "trace.csv"
    path.write_text(f"id,timestamp,size,fee\na,1,10,{2**62}\nb,2,10,{2**62}\n")
    table = load_trace(path)
    assert_same_columns(table, row_loop_table(path))
    for column in (table.fees, table.arrived_fee):
        assert column.dtype == object and {type(value) for value in column.tolist()} == {int}
    assert table.arrived_fee.tolist() == [0, 2**62, 2**63]


BYTE_ORDER_MARK = "\ufeff"


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
@pytest.mark.parametrize("mark", ["", BYTE_ORDER_MARK], ids=["plain", "bom"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain-ids", "quoted-id"])
def test_a_trace_may_start_with_a_byte_order_mark(tmp_path, fmt, mark, quoted):
    # spreadsheet tools write one; a quoted id sends the CSV text back to
    # the row loop, which reads it again from the start, past the mark
    records = [Transaction("a,b" if quoted else "ab", 0.5, 5, 9), Transaction("c", 2.5, 3, 7)]
    path = tmp_path / "trace"
    write_trace(records, path, fmt=fmt)
    path.write_text(mark + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert_same_columns(load_trace(path, fmt=fmt), RankTable(records))


# the time values of written_traces
WRITTEN_TIMES = (0.0, 0.5, 1 / 3, 7.0, 1e20, 2.0**60 + 2**8)
INTEGER_TYPES = (int, np.int64, np.int32, np.uint8, np.uint64)


@st.composite
def numpy_scalar_traces(draw):
    """Traces with any ids but surrogates, the times of written_traces,
    and sizes and fees that are numpy scalars or Python ints."""

    def integer(least):
        kind = draw(st.sampled_from(INTEGER_TYPES))
        return kind(draw(st.integers(least, 2**70 if kind is int else 200)))

    ids = st.text(st.characters(blacklist_categories=("Cs",)))
    return [
        Transaction(draw(ids), draw(st.sampled_from(WRITTEN_TIMES)), integer(1), integer(0))
        for _ in range(draw(st.integers(0, 8)))
    ]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(numpy_scalar_traces())
def test_write_trace_writes_the_bytes_the_csv_writers_wrote(tmp_path, records):
    write_trace(records, tmp_path / "trace.csv")
    csv_writer_trace(records, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_trace_writes_a_long_trace_in_chunks_with_the_same_bytes(tmp_path):
    records = synthesize_trace(0.5, 20_000, 21, id_prefix='q"')
    assert len(records) > 2 * trace_module._CHUNK_ROWS
    write_trace(records, tmp_path / "trace.csv")
    csv_writer_trace(records, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize(
    "rate, duration, message",
    [
        (float("inf"), 100.0, "rate must be non-negative and finite, got inf"),
        (float("nan"), 100.0, "rate must be non-negative and finite, got nan"),
        (0.5, float("inf"), "duration must be non-negative and finite, got inf"),
        (0.5, float("nan"), "duration must be non-negative and finite, got nan"),
        (-0.5, 100.0, "rate must be non-negative and finite, got -0.5"),
    ],
)
def test_synthesize_trace_rejects_non_finite_bounds(rate, duration, message):
    # an infinite or NaN bound used to keep the arrival loop running forever
    with pytest.raises(ValueError, match=message):
        synthesize_trace(rate=rate, duration=duration, seed=1)


def test_synthesize_trace_properties():
    assert synthesize_trace(rate=0.0, duration=100.0, seed=1) == []
    a = synthesize_trace(rate=0.5, duration=5000.0, seed=9)
    b = synthesize_trace(rate=0.5, duration=5000.0, seed=9)
    assert a == b
    assert all(t1.arrival_time <= t2.arrival_time for t1, t2 in zip(a, a[1:]))
    assert all(t.size > 0 and t.fee >= 0 for t in a)
    fixed = synthesize_trace(rate=0.5, duration=500.0, seed=9, size_dist="fixed", size_args=(750,))
    assert fixed and {t.size for t in fixed} == {750}


def test_synthesize_trace_draws_gap_fee_size_per_arrival():
    # the draw order fixes every seeded trace, and so every recorded result
    rng = np.random.default_rng(17)
    expected, t = [], 0.0
    while True:
        t += rng.exponential(1 / 0.5)
        if t > 400.0:
            break
        fee = (rng.pareto(1.5) + 1.0) * 2_000
        size = rng.integers(200, 2_001)
        expected.append((t, int(size), int(fee)))
    records = synthesize_trace(rate=0.5, duration=400.0, seed=17, fee_dist="pareto", fee_args=(1.5, 2_000))
    assert [(r.arrival_time, r.size, r.fee) for r in records] == expected
    assert [r.id for r in records] == [f"s{i:07d}" for i in range(len(expected))]


def test_synthesize_trace_rejects_an_unknown_distribution_up_front():
    for kwargs in ({"fee_dist": "normal"}, {"size_dist": "normal"}):
        with pytest.raises(ValueError, match="unknown distribution 'normal'"):
            synthesize_trace(rate=0.0, duration=100.0, seed=1, **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"fee_dist": "pareto", "fee_args": (1.5, math.inf)}, "fee pareto scale must be finite, got inf"),
        ({"fee_dist": "pareto", "fee_args": (1.5, -5.0)}, "fee pareto scale must be positive, got -5.0"),
        ({"fee_dist": "pareto", "fee_args": (0.0, 5.0)}, "fee pareto shape must be positive, got 0.0"),
        ({"fee_dist": "pareto", "fee_args": (1.5,)}, r"fee pareto needs 2 argument\(s\) \(shape,scale\), got 1"),
        ({"fee_args": (-50.0, -10.0)}, "fee uniform needs 0 <= lo <= hi, got lo=-50.0, hi=-10.0"),
        ({"fee_args": (100.0, 1.0)}, "fee uniform needs 0 <= lo <= hi, got lo=100.0, hi=1.0"),
        ({"size_args": (math.nan, 5.0)}, "size uniform lo must be finite, got nan"),
        ({"size_args": (0.0, 5.0)}, "size uniform needs 1 <= lo <= hi, got lo=0.0, hi=5.0"),
        ({"size_dist": "fixed", "size_args": (5.0, 6.0)}, r"size fixed needs 1 argument\(s\) \(value\), got 2"),
        ({"size_dist": "fixed", "size_args": (0.0,)}, "size fixed value must be at least 1, got 0.0"),
        ({"fee_args": (0.0, 1e30)}, r"fee uniform hi must be at most 9223372036854775807, got 1e\+30"),
        ({"size_args": (1.0, 2.0**63)}, "size uniform hi must be at most 9223372036854775807, got 9.2233"),
    ],
)
def test_synthesize_trace_checks_distribution_arguments_up_front(kwargs, message):
    # each used to fail at the first draw, or to write a trace it was not asked for
    for rate in (0.0, 0.5):
        with pytest.raises(ValueError, match=message):
            synthesize_trace(rate=rate, duration=100.0, seed=1, **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"fee_args": (2.2, 2.7)}, "fee uniform lo must be an integer, got 2.2"),
        ({"fee_args": (2, 2.7)}, "fee uniform hi must be an integer, got 2.7"),
        ({"size_args": (1.5, 9)}, "size uniform lo must be an integer, got 1.5"),
        ({"size_dist": "fixed", "size_args": (2.5,)}, "size fixed value must be an integer, got 2.5"),
    ],
)
def test_synthesize_trace_rejects_a_bound_that_is_no_integer_up_front(kwargs, message):
    # int() truncated these: fee_args (2.2, 2.7) drew only fees of 2
    for rate in (0.0, 0.5):
        with pytest.raises(ValueError, match=f"^{message}$"):
            synthesize_trace(rate=rate, duration=100.0, seed=1, **kwargs)


def test_synthesize_trace_takes_integral_floats_as_their_integers():
    # the CLI reads 1000 as 1000.0
    as_floats = synthesize_trace(0.5, 400.0, 3, fee_args=(2.0, 9.0), size_dist="fixed", size_args=(5.0,))
    assert as_floats == synthesize_trace(0.5, 400.0, 3, fee_args=(2, 9), size_dist="fixed", size_args=(5,))
    assert {t.size for t in as_floats} == {5} and all(2 <= t.fee <= 9 for t in as_floats)


def test_synthesize_trace_draws_up_to_the_int64_bound_and_names_an_overflowing_draw():
    top = 2**63 - 1
    fees = synthesize_trace(rate=0.5, duration=100.0, seed=1, fee_args=(top - 1, top))
    assert fees and {t.fee for t in fees} <= {top - 1, top}
    # (draw + 1) * scale overflows a float once the draw passes about 0.8
    with pytest.raises(ValueError, match=r"fee pareto draw overflows: shape=1.5, scale=1e\+308"):
        synthesize_trace(rate=0.1, duration=6000.0, seed=1, fee_dist="pareto", fee_args=(1.5, 1e308))


@pytest.mark.parametrize(
    "fee, size",
    [
        # a range of 0 draws nothing; fee and size share each word's halves
        (("uniform", (7, 7)), ("uniform", (1, 60))),
        (("uniform", (1, 60)), ("uniform", (1500, 2500))),
        # near half of all draws rejected; a range of 2**32 - 1 takes a half as is
        (("uniform", (0, 2**31 + 1)), ("uniform", (9, 9 + 2**32 - 1))),
        # whole words past 32 bits, while a fee keeps its half across them
        (("uniform", (3, 3 + 2**32)), ("uniform", (1, 2**63 - 1))),
        (("uniform", (0, 2**63 - 1)), ("uniform", (5, 40))),
        # a Pareto fee reads whole words, so a size's kept half crosses arrivals
        (("pareto", (1.5, 2_000_000)), ("uniform", (2000, 4000))),
    ],
)
def test_uniform_draws_are_generator_integers_draw_for_draw(fee, size):
    # the uniform draws read raw PCG64 words; a twin generator draws the
    # same gap, fee and size through numpy's own calls
    def twin_draw(twin, dist, args):
        if dist == "uniform":
            return int(twin.integers(args[0], args[1] + 1))
        return int((twin.pareto(args[0]) + 1.0) * args[1])

    for seed in range(3):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        next32 = _raw32(rng)
        draw_fee = _sampler(rng, next32, "fee", *fee, minimum=0)
        draw_size = _sampler(rng, next32, "size", *size, minimum=1)
        for _ in range(1_000):
            assert rng.exponential(3.0) == twin.exponential(3.0)
            assert draw_fee() == twin_draw(twin, *fee)
            assert draw_size() == twin_draw(twin, *size)
        # both read the same number of words
        assert rng.bit_generator.state["state"] == twin.bit_generator.state["state"]


# sha256 of each trace as write_trace writes it, recorded while uniform
# draws were still Generator.integers calls
GOLDEN_TRACES = [
    pytest.param(
        lambda: synthesize_trace(0.5, 2_000, 11),
        "14d2886f06a3d2c29220664f71be9b16df197e3410f9a15fc6ee36ac5a2bc575",
        id="uniform-uniform",
    ),
    pytest.param(
        lambda: synthesize_trace(0.5, 2_000, 12, fee_dist="pareto", fee_args=(1.5, 2_000_000)),
        "75cb172a49fb08844f889052525c1e0ca45c00e598d6004197046141949bff10",
        id="pareto-uniform",
    ),
    pytest.param(
        lambda: synthesize_trace(0.5, 2_000, 13, size_dist="fixed", size_args=(250,)),
        "36feedc52f021af5ec87d0677a20fddbcdf2446196f0bc6a7a20a42e956a47c4",
        id="uniform-fixed",
    ),
    pytest.param(
        lambda: synthesize_trace(0.5, 2_000, 14, fee_args=(0, 2**31), size_args=(1, 2**31 + 1)),
        "fe8c1a53fbb1fb524072272abb5c485ec5612e48339d27a71d1109be8edf0eeb",
        id="heavy-rejection",
    ),
    pytest.param(
        lambda: synthesize_trace(0.5, 2_000, 15, fee_args=(7, 2**63 - 1), size_args=(1, 2**40)),
        "af9045ed943a62b12469ea56a97d9cc7aae5b2a2bc2d9eac171c568738dbb25e",
        id="64-bit",
    ),
    pytest.param(
        lambda: synthesize_whale_trace(5, 60_000, 20.0),
        "c05ab8e87ed74a1693fc7f2dfb68f99baa749e6af10051cef49798f57931ba8b",
        id="whale",
    ),
]


@pytest.mark.parametrize("make, digest", GOLDEN_TRACES)
def test_seeded_traces_keep_their_bytes(tmp_path, make, digest):
    path = tmp_path / "trace.csv"
    write_trace(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_trace_draws_no_integer_through_the_generator():
    # a uniform integer per Generator.integers call costs about four times
    # the raw-word draw that gives the same value
    tree = ast.parse(Path(undercut.trace.__file__).read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "integers"] == []


def test_synthesized_interarrivals_are_exponential():
    records = synthesize_trace(rate=2.0, duration=6000.0, seed=3)
    times = np.array([t.arrival_time for t in records])
    gaps = np.diff(times)[:10_000]
    result = stats.kstest(gaps, "expon", args=(0, 1 / 2.0))
    assert result.pvalue >= 0.01


def test_pareto_fee_mean_matches_analytic():
    shape, scale = 2.5, 10_000
    records = synthesize_trace(
        rate=10.0, duration=10_000.0, seed=5, fee_dist="pareto", fee_args=(shape, scale)
    )
    assert len(records) > 90_000
    mean = np.mean([t.fee for t in records])
    analytic = shape * scale / (shape - 1)
    assert abs(mean - analytic) / analytic < 0.05


def test_presets():
    dist, params = preset("bitcoin16")
    powers = [p for _, p, _ in dist.entries]
    assert len(powers) == 16
    assert abs(sum(powers) - 1.0) < 1e-9
    assert min(powers) == pytest.approx(0.006)
    assert dist.undercutter_power == pytest.approx(0.176)
    assert params == BITCOIN_PARAMS

    dist45, _ = preset("bitcoin-hypothetical45")
    assert dist45.undercutter_power == pytest.approx(0.45)
    assert abs(sum(p for _, p, _ in dist45.entries) - 1.0) < 1e-9

    monero, mparams = preset("monero")
    assert monero.undercutter_power == pytest.approx(0.35)
    assert mparams == MONERO_PARAMS

    with pytest.raises(ValueError):
        preset("dogecoin")


def test_power_distribution_validation():
    with pytest.raises(ValueError):
        PowerDistribution((("a", 0.6, "undercutter"), ("b", 0.4, "honest")))
    with pytest.raises(ValueError):
        PowerDistribution((("a", 0.5, "rational"), ("b", 0.5, "honest")))
    with pytest.raises(ValueError):
        PowerDistribution((("a", 0.4, "undercutter"), ("b", 0.7, "honest")))
    with pytest.raises(ValueError, match="powers must sum to 1, got nan"):
        PowerDistribution((("a", 0.4, "undercutter"), ("b", float("nan"), "rational"), ("c", 0.6, "honest")))
    with pytest.raises(ValueError, match="duplicate miner id 'b'"):
        PowerDistribution((("a", 0.4, "undercutter"), ("b", 0.3, "rational"), ("b", 0.3, "honest")))


def test_with_honest_fraction_approximates_target():
    dist, _ = preset("bitcoin16")
    for target in (0.0, 0.1, 0.3, 0.5):
        assigned = dist.with_honest_fraction(target)
        honest = assigned.fraction("honest")
        assert honest <= target + 1e-9
        assert target - honest < 0.06  # granularity of the discrete pools
        assert assigned.undercutter_power == dist.undercutter_power
    with pytest.raises(ValueError):
        dist.with_honest_fraction(0.95)



@pytest.mark.parametrize(
    "fraction, message",
    [(-0.2, "honest fraction must be non-negative, got -0.2"), (0.95, "plus undercutter power exceeds 1")],
    ids=["negative", "too-large"],
)
def test_with_honest_fraction_names_the_bound_it_breaks(fraction, message):
    dist, _ = preset("bitcoin16")
    with pytest.raises(ValueError, match=message):
        dist.with_honest_fraction(fraction)

def test_powers_file_roundtrip(tmp_path):
    dist, _ = preset("monero")
    path = tmp_path / "powers.txt"
    write_powers(dist, path)
    assert load_powers(path) == dist
    # numpy powers are written as the equal Python floats
    numpy_dist = PowerDistribution(tuple((mid, np.float64(power), kind) for mid, power, kind in dist.entries))
    write_powers(numpy_dist, path)
    assert load_powers(path) == dist


def _population(ids):
    return PowerDistribution(tuple(zip(ids, (0.25, 0.35, 0.4), ("undercutter", "honest", "rational"))))


@pytest.mark.parametrize("mid", [" m ", "m ", "#m", "a,b", "a\nb", "a\rb", "m\n"])
def test_write_powers_rejects_an_id_that_would_not_read_back(tmp_path, mid):
    # load_powers would read ' m ' as 'm' and '#m' as a comment line, and fail on 'a,b'
    path = tmp_path / "powers.txt"
    with pytest.raises(ValueError, match=f"^miner id {re.escape(repr(mid))} cannot be written"):
        write_powers(_population(["u", mid, "r"]), path)
    assert not path.exists()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text(max_size=6), min_size=3, max_size=3, unique=True))
def test_every_id_write_powers_accepts_reads_back_as_itself(tmp_path, ids):
    dist = _population(ids)
    path = tmp_path / "powers.txt"
    path.unlink(missing_ok=True)
    try:
        write_powers(dist, path)
    except ValueError:
        assert not path.exists()
        return
    assert load_powers(path) == dist


def test_powers_file_errors(tmp_path):
    path = tmp_path / "powers.txt"
    path.write_text("a,0.5\n")
    with pytest.raises(TraceError, match="line 1"):
        load_powers(path)
    path.write_text("a,half,rational\n")
    with pytest.raises(TraceError, match="line 1"):
        load_powers(path)
    for bad in ("nan", "inf"):
        path.write_text(f"u,0.4,undercutter\na,{bad},rational\nb,0.6,honest\n")
        with pytest.raises(TraceError, match=f"line 2: power must be finite, got '{bad}'"):
            load_powers(path)
    for text, message in (
        (
            "u,0.4,undercutter\na,0.8,rational\nb,-0.2,honest\n",
            "line 3: miner 'b': power must be non-negative, got '-0.2'",
        ),
        ("u,0.4,undercutter\n# pools\na,0.6,miner\n", "line 3: miner 'a': unknown kind 'miner'"),
        ("u,0.4,undercutter\na,0.3,honest\n\na,0.3,rational\n", r"line 4: duplicate miner id 'a' \(first on line 2\)"),
        ("u,0.4,undercutter\na,0.4,honest\n", "powers must sum to 1, got 0.8"),
        ("u,0.4,undercutter\nv,0.6,undercutter\n", "exactly one undercutter required"),
    ):
        path.write_text(text)
        with pytest.raises(TraceError, match=f"^{message}$"):
            load_powers(path)


def test_every_file_the_package_opens_names_its_encoding():
    # the locale encoding would make a trace or results file read differently per machine
    unnamed = []
    for source in sorted(Path(undercut.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "open" and not any(k.arg == "encoding" for k in node.keywords):
                unnamed.append(f"{source.name}:{node.lineno}")
    assert unnamed == []
