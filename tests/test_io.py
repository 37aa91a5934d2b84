import csv
import io
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aakit.io
from aakit import LATTICE, AssociativeArray, from_triples
from aakit.io import (
    FormatError,
    encode_records,
    export_dot,
    format_number,
    parse_cell,
    parse_record_lines,
    read_table,
    read_triples,
    record_span,
    write_triples,
)

from helpers import check_invariants, random_mixed_array
from oracles import dot_bytes_oracle, triples_bytes_oracle


def buf(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


# -- number formatting -------------------------------------------------------


@pytest.mark.parametrize("x,want", [
    (2.0, "2"),
    (-3.0, "-3"),
    (0.1, "0.1"),
    (3.5, "3.5"),
    (1e20, "1e+20"),
    (1e-7, "1e-07"),
    (314.0, "314"),
    (0.30000000000000004, "0.30000000000000004"),
])
def test_format_number(x, want):
    assert format_number(x) == want


def test_format_number_round_trips():
    rng = random.Random(21)
    for _ in range(500):
        x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-10, 10)
        assert float(format_number(x)) == x


@pytest.mark.parametrize("text,want", [
    ("2", 2.0),
    ("-2.5", -2.5),
    ("1e3", 1000.0),
    (".5", 0.5),
    ("3.", 3.0),
    ("+7", 7.0),
    ("5:14", "5:14"),
    ("2013-05-30", "2013-05-30"),
    ("nan", "nan"),
    ("inf", "inf"),
    ("1e999", "1e999"),  # overflows float, kept as text
    ("0x10", "0x10"),
    (" 2", " 2"),
    ("", ""),
    # only ASCII digits make a number
    ("\u0661\u0662", "\u0661\u0662"),
    ("\uff13", "\uff13"),
    ("1\u0665", "1\u0665"),
])
def test_parse_cell(text, want):
    assert parse_cell(text) == want
    assert type(parse_cell(text)) is type(want)


# -- CSV ingest ---------------------------------------------------------------


def test_read_table_song_file(songs):
    with open("tests/data/songs.csv", "rb") as f:
        arr = read_table(f)
    check_invariants(arr)
    assert arr == songs


def test_read_table_skips_empty_cells():
    arr = read_table(buf("T,x,y\nr1,,5\nr2,hi,\nr3,,\n"))
    check_invariants(arr)  # r3 holds no cell, so it is no row
    assert arr.nnz == 2
    assert arr.get("r1", "y") == 5.0
    assert arr.get("r2", "x") == "hi"


def test_read_table_quoted_cells():
    arr = read_table(buf('T,x\nr1,"a,b"\nr2,"say ""hi"""\n'))
    assert arr.get("r1", "x") == "a,b"
    assert arr.get("r2", "x") == 'say "hi"'


def test_read_table_short_row_ok_long_row_not():
    arr = read_table(buf("T,x,y\nr1,1\n"))
    assert arr.nnz == 1
    with pytest.raises(FormatError):
        read_table(buf("T,x\nr1,1,2\n"))


@pytest.mark.parametrize("text", [
    "",                             # no header at all
    "T,x\nr1,1\nr1,2\n",            # duplicate row key
    "T,x,x\nr1,1,2\n",              # duplicate column key
    "T,x\n,1\n",                    # empty row key
])
def test_read_table_rejects(text):
    with pytest.raises(FormatError):
        read_table(buf(text))


@pytest.mark.parametrize("text,message", [
    ("T,,x\nr1,1,2\n", "bad column key in header: key must be non-empty"),
    ("T,a\tb\nr1,1\n",
     "bad column key in header: key 'a\\tb' contains a forbidden control character"),
    ('T,x\nr1,"a\nb"\n', "row 'r1': text value 'a\\nb' contains a line break"),
    # quoting that breaks RFC 4180 names the line where the faulty record starts
    ('T,x\nr1,"1"2\n', "malformed CSV at line 2: ',' expected after '\"'"),
    ('"T,x\nr1,1\n', "malformed CSV at line 1: unexpected end of data"),  # open in the header
    ('T,x\nr1,"a\nr2,1\n', "malformed CSV at line 2: unexpected end of data"),  # open in the body
    ('T,x\nr1,1\nr2,"x', "malformed CSV at line 3: unexpected end of data"),  # open at the end
])
def test_read_table_errors_name_the_cause(text, message):
    with pytest.raises(FormatError) as exc:
        read_table(buf(text))
    assert str(exc.value) == message


def test_read_table_skips_blank_lines():
    assert read_table(buf("T,x\n\nr1,1\n\n")) == read_table(buf("T,x\nr1,1\n"))


@pytest.mark.parametrize("quoted", [False, True])
def test_read_table_cells_have_no_length_cap(quoted):
    # 131,072 is the csv module's default field_size_limit, not the format's.
    long = "a" * 131_073
    cell = f'"{long}"' if quoted else long
    before = csv.field_size_limit()
    assert read_table(buf(f"T,x,{long}\nr1,{cell},1\n")).triples() == [
        ("r1", long, 1.0), ("r1", "x", long)]
    assert csv.field_size_limit() == before
    with pytest.raises(FormatError, match="duplicate row key"):
        read_table(buf(f"T,x\nr1,{cell}\nr1,1\n"))
    assert csv.field_size_limit() == before


def test_read_table_leaves_a_custom_field_size_limit_alone():
    before = csv.field_size_limit(10)
    try:
        assert read_table(buf("T,x\nr1,abcdefghijklmnop\n")).get("r1", "x") == "abcdefghijklmnop"
        assert csv.field_size_limit() == 10
    finally:
        csv.field_size_limit(before)


def test_read_table_never_lowers_the_field_size_limit(monkeypatch):
    # Another reader of the process, here one that runs in the middle of the
    # parse, may meet a field longer than the table being read.
    parse = aakit.io._parse_table
    field = "b" * 1000

    def parse_beside_another_reader(text):
        assert next(csv.reader([field])) == [field]
        return parse(text)

    monkeypatch.setattr(aakit.io, "_parse_table", parse_beside_another_reader)
    before = csv.field_size_limit()
    assert read_table(buf("T,x\nr1,1\n")).get("r1", "x") == 1.0
    assert csv.field_size_limit() == before


def test_read_table_threads_restore_the_field_size_limit():
    data = ("T,x\nr1," + "a" * 131_073 + "\n").encode("utf-8")
    errors = []

    def work():
        try:
            for _ in range(20):
                read_table(io.BytesIO(data))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    before = csv.field_size_limit()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert csv.field_size_limit() == before


def test_read_table_not_utf8():
    with pytest.raises(FormatError):
        read_table(io.BytesIO(b"T,x\nr1,\xff\n"))


def test_read_table_numeric_detection_is_full_cell():
    arr = read_table(buf("T,x,y,z\nr1,12kg,3.25,1e2\n"))
    assert arr.get("r1", "x") == "12kg"
    assert arr.get("r1", "y") == 3.25
    assert arr.get("r1", "z") == 100.0


# Characters str.splitlines() breaks on that are not CSV line breaks.
UNICODE_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("sep", UNICODE_LINE_BREAKS)
def test_read_table_rows_break_on_cr_lf_only(sep, quoted):
    cell = f'"a{sep}b"' if quoted else f"a{sep}b"
    arr = read_table(buf(f"T,x,y\nr1,{cell},2\n"))
    assert arr.triples() == [("r1", "x", f"a{sep}b"), ("r1", "y", 2.0)]


def test_read_table_non_ascii_digits_stay_text():
    arr = read_table(buf("T,x,y\nr1,\u0661\u0662,\uff13\n"))
    assert arr.triples() == [("r1", "x", "\u0661\u0662"), ("r1", "y", "\uff13")]
    out = io.BytesIO()
    write_triples(arr, out)
    assert out.getvalue().decode("utf-8").splitlines()[1:] == [
        "r1\tx\tt\t\u0661\u0662", "r1\ty\tt\t\uff13"]


# -- triple files -------------------------------------------------------------


def test_encode_records_frames_every_kind_of_record():
    rows = {"a": {"b": 1.5, "c": None}, "b": {"c": "x\ty"}}
    assert encode_records("%aa-seg 1", rows) == (
        b"%aa-seg 1\na\tb\tn\t1.5\na\tc\tx\t\nb\tc\tt\tx\ty\n")
    assert encode_records("%aa-triples 1", {}) == b"%aa-triples 1\n"


def test_write_triples_golden_bytes():
    arr = AssociativeArray({("b", "y"): 2.0, ("a", "x"): "hi"})
    sink = io.BytesIO()
    n = write_triples(arr, sink)
    want = b"%aa-triples 1\na\tx\tt\thi\nb\ty\tn\t2\n"
    assert sink.getvalue() == want
    assert n == len(want)


def test_write_triples_empty_is_just_magic():
    sink = io.BytesIO()
    assert write_triples(AssociativeArray(), sink) == 14
    assert sink.getvalue() == b"%aa-triples 1\n"


def test_triples_round_trip():
    rng = random.Random(22)
    for _ in range(80):
        arr = random_mixed_array(rng, 6, 6)
        sink = io.BytesIO()
        write_triples(arr, sink)
        back = read_triples(io.BytesIO(sink.getvalue()))
        assert back == arr
        check_invariants(back)


# A few values drawn for many cells, so they repeat across rows: number-like
# text beside the numbers it reads as, and numbers whose shortest text is
# exponent form, a subnormal, or longer than its literal.
ORACLE_VALUES = ["1", "1.0", "-0", "1e3", "x\ty", 'say "hi"', "back\\slash",
                 1.0, 1000.0, 0.1 + 0.2, 1e16, 5e-324, -1.5]
ORACLE_KEYS = st.sampled_from(["a", "b", "k1", "k10", 'q"uote', "back\\", "édge", "中"])


def mixed_cells(values=ORACLE_VALUES):
    return st.dictionaries(st.tuples(ORACLE_KEYS, ORACLE_KEYS), st.sampled_from(values), max_size=40)


@settings(max_examples=200)
@given(cells=mixed_cells())
def test_write_triples_matches_the_format_oracle(cells):
    arr = AssociativeArray(cells)
    sink = io.BytesIO()
    n = write_triples(arr, sink)
    assert sink.getvalue() == triples_bytes_oracle(cells)
    assert n == len(sink.getvalue())
    assert read_triples(io.BytesIO(sink.getvalue())) == arr


@settings(max_examples=200)
@given(cells=mixed_cells(ORACLE_VALUES + [None, None]))
def test_encode_records_with_tombstones_matches_the_format_oracle(cells):
    rows: dict = {}
    for (r, c), v in sorted(cells.items()):
        rows.setdefault(r, {})[c] = v
    assert encode_records("%aa-seg 1", rows) == triples_bytes_oracle(cells, "%aa-seg 1")


@pytest.mark.parametrize("cache_size", [None, 0, 2])
def test_value_caches_past_their_size_match_the_format_oracles(monkeypatch, cache_size):
    # More distinct numbers than a cache holds, and numbers first met after
    # it was dropped repeat later on; None keeps the shipped size.
    shipped = aakit.io._CACHE_SIZE
    if cache_size is not None:
        monkeypatch.setattr(aakit.io, "_CACHE_SIZE", cache_size)
    rng = random.Random(25)
    values = ORACLE_VALUES + [i + 0.25 for i in range(2 * shipped)]
    keys = [f"k{i:03d}" for i in range(90)]
    for _ in range(5):
        cells = {(rng.choice(keys), rng.choice(keys)): rng.choice(values) for _ in range(5000)}
        assert len(set(cells.values())) > shipped + len(ORACLE_VALUES)
        arr = AssociativeArray(cells)
        sink = io.BytesIO()
        write_triples(arr, sink)
        assert sink.getvalue() == triples_bytes_oracle(cells)
        assert read_triples(io.BytesIO(sink.getvalue())) == arr
        sink = io.BytesIO()
        export_dot(arr, sink)
        assert sink.getvalue() == dot_bytes_oracle(cells)
        cells.update(dict.fromkeys(rng.sample(sorted(cells), 100)))
        rows: dict = {}
        for (r, c), v in sorted(cells.items()):
            rows.setdefault(r, {})[c] = v
        data = encode_records("%aa-seg 1", rows)
        assert data == triples_bytes_oracle(cells, "%aa-seg 1")
        start, end, _ = record_span(data, "%aa-seg 1")
        folded = fold_span(data, start, end)
        assert [(r, c, v) for r, row in folded.items() for c, v in row.items()] == sorted(
            (r, c, v) for (r, c), v in cells.items())


@pytest.mark.parametrize("cache_size,checks", [(None, 2), (1, 4)])
def test_value_caches_convert_a_number_once_until_full(monkeypatch, cache_size, checks):
    # Values 1, 2, 2, 2: with room, each distinct number is converted once;
    # a cache that fills is dropped, and every later number is converted.
    if cache_size is not None:
        monkeypatch.setattr(aakit.io, "_CACHE_SIZE", cache_size)
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(args)
            return f(*args)
        return wrapper

    monkeypatch.setattr(aakit.io, "format_number", counted(aakit.io.format_number))
    arr = AssociativeArray({("a", "w"): 1.0, ("a", "x"): 2.0, ("b", "x"): 2.0, ("b", "y"): 2.0})
    for render in (write_triples, export_dot):
        calls.clear()
        render(arr, io.BytesIO())
        assert len(calls) == checks

    class CountedPattern:
        def match(self, text):
            calls.append(text)
            return number_re.match(text)

    number_re = aakit.io._NUMBER_RE
    monkeypatch.setattr(aakit.io, "_NUMBER_RE", CountedPattern())
    calls.clear()
    parse_body("a\tw\tn\t1\na\tx\tn\t2\nb\tx\tn\t2\nb\ty\tn\t2\n", segment=True)
    assert len(calls) == checks


@pytest.mark.parametrize("cache_size", [0, 1])
def test_parse_record_lines_errors_past_the_cache_size(monkeypatch, cache_size):
    monkeypatch.setattr(aakit.io, "_CACHE_SIZE", cache_size)
    body = "a\tv\tn\t1\na\tw\tn\t2\na\tx\tn\t2\na\ty\tn\t1e999\na\tz\tn\t1e999\n"
    with pytest.raises(FormatError) as exc:
        parse_body(body, segment=True)
    assert str(exc.value) == "line 5: number '1e999' is not finite"
    assert parse_body("a\tw\tn\t1\na\tx\tn\t2\na\ty\tn\t2\na\tz\tn\t1.0\n", False) == {
        "a": {"w": 1.0, "x": 2.0, "y": 2.0, "z": 1.0}}


def test_read_triples_duplicate_cells_keep_lattice_max():
    data = "%aa-triples 1\nr\tc\tn\t2\nr\tc\tn\t5\nr\tc\tn\t3\n"
    arr = read_triples(buf(data))
    assert arr.get("r", "c") == 5.0


def test_read_triples_text_beats_number_on_merge():
    # lattice order puts text above numbers
    data = "%aa-triples 1\nr\tc\tn\t9\nr\tc\tt\talpha\n"
    assert read_triples(buf(data)).get("r", "c") == "alpha"


def test_read_triples_text_value_may_contain_tabs():
    data = "%aa-triples 1\nr\tc\tt\ta\tb\tc\n"
    assert read_triples(buf(data)).get("r", "c") == "a\tb\tc"


def test_read_triples_empty_text_record_drops():
    data = "%aa-triples 1\nr\tc\tt\t\n"
    assert read_triples(buf(data)).nnz == 0


@pytest.mark.parametrize("data", [
    "",                                     # no magic
    "%aa-triples 2\n",                      # wrong version
    "%aa-triples 1\nr\tc\tn\t2",            # missing trailing newline
    "%aa-triples 1\nr\tc\tn\tabc\n",        # bad number
    "%aa-triples 1\nr\tc\tn\tinf\n",        # non-finite
    "%aa-triples 1\nr\tc\tq\t2\n",          # unknown tag
    "%aa-triples 1\nr\tc\tx\t\n",           # tombstones not allowed here
    "%aa-triples 1\nr\tc\n",                # too few fields
])
def test_read_triples_rejects(data):
    with pytest.raises(FormatError):
        read_triples(buf(data))


def test_record_span_lenient_tail():
    data = b"%aa-triples 1\na\tb\tn\t1\nc\td\tn\t2"
    start, end, truncated = record_span(data, "%aa-triples 1", lenient_tail=True)
    assert truncated
    assert fold_span(data, start, end) == {"a": {"b": 1.0}}


def test_parse_record_lines_tombstones():
    data = b"%aa-seg 1\na\tb\tx\t\n"
    start, end, truncated = record_span(data, "%aa-seg 1")
    assert fold_span(data, start, end) == {"a": {"b": None}}
    assert not truncated


def test_parse_record_lines_tombstone_payload_rejected():
    data = b"%aa-seg 1\na\tb\tx\tstuff\n"
    start, end, _ = record_span(data, "%aa-seg 1")
    with pytest.raises(FormatError):
        fold_span(data, start, end)


@pytest.mark.parametrize("data,message", [
    (b"%aa-triples 1\na\tb\tn\t1\nc\t\xff\tn\t2\n", "line 3: not valid UTF-8"),
    (b"%aa-triples 1\na\tb\tn\t1\nc\td\tt\tcaf\xc3\n", "line 3: not valid UTF-8"),
    (b"%aa-triples \xff\na\tb\tn\t1\n", "magic line is not valid UTF-8"),
    # an earlier error is reported before a later undecodable line
    (b"%aa-triples 1\na\tb\tq\t1\nc\t\xff\tn\t2\n", "line 2: unknown type tag 'q'"),
    (b"%aa-triples 1\na\tb\tn\t1\n\tb\tn\t2\n", "line 3: key must be non-empty"),
    (b"%aa-triples 1\na\t\tn\t2\n", "line 2: key must be non-empty"),
    (b"%aa-triples 1\na\rz\tb\tn\t2\n",
     "line 2: key 'a\\rz' contains a forbidden control character"),
    (b"%aa-triples 1\na\tb\rz\tn\t2\n",
     "line 2: key 'b\\rz' contains a forbidden control character"),
    (b"%aa-triples 1\na\tb\tt\tone\rtwo\n",
     "line 2: text value 'one\\rtwo' contains a line break"),
    (b"%aa-triples 1\na\tb\tn\t1e999\n", "line 2: number '1e999' is not finite"),
    # non-ASCII digits are no number, though float() accepts them
    ("%aa-triples 1\na\tb\tn\t1\nc\td\tn\t\u0661\u0662\n".encode("utf-8"),
     "line 3: unparseable number '\u0661\u0662'"),
    ("%aa-triples 1\na\tb\tn\t\uff13\n".encode("utf-8"), "line 2: unparseable number '\uff13'"),
    # lines of column "z", which the parse below drops, keep the numbering
    (b"%aa-triples 1\na\tz\tn\t1\nb\tz\tt\tv\nc\td\tq\t2\n", "line 4: unknown type tag 'q'"),
    # and a dropped line must still split into four fields and decode
    (b"%aa-triples 1\na\tb\tn\t1\nc\tz\tn\n", "line 3: expected 4 tab-separated fields"),
    (b"%aa-triples 1\na\tz\tt\t\xff\nc\td\tn\t2\n", "line 2: not valid UTF-8"),
])
def test_parse_record_lines_errors_name_the_line(data, message):
    with pytest.raises(FormatError) as exc:
        read_triples(io.BytesIO(data))
    assert str(exc.value) == message
    if data.startswith(b"%aa-triples 1\n"):  # the same error when column "z" is dropped
        start, end, _ = record_span(data, "%aa-triples 1")
        with pytest.raises(FormatError) as exc:
            parse_record_lines(data, start, end, {}, lambda col: col != "z")
        assert str(exc.value) == message


def test_parse_record_lines_drops_refused_columns_unchecked():
    # The dropped lines of column "z" break the tag, number, tombstone and order
    # rules; rows "a" and "c" hold only such lines and get no row dict.
    data = (b"%aa-seg 1\na\tz\tq\t1\nb\tx\tn\t1\nb\tz\tn\tnope\nb\ty\tt\tv\n"
            b"c\tz\tx\tpayload\nb\tz\tn\t1\nd\tx\tx\t\nd\ty\tn\t2\n")
    start, end, _ = record_span(data, "%aa-seg 1")
    into: dict = {"e": {"z": 3.0}}
    assert parse_record_lines(data, start, end, into, lambda col: col != "z") is False
    assert into == {"e": {"z": 3.0}, "b": {"x": 1.0, "y": "v"}, "d": {"x": None, "y": 2.0}}
    into = {}
    assert parse_record_lines(data, start, end, into, lambda col: col == "y") is True
    assert into == {"b": {"y": "v"}, "d": {"y": 2.0}}
    with pytest.raises(FormatError, match="line 2: unknown type tag 'q'"):
        parse_record_lines(data, start, end, {})


def fold_span(data: bytes, start: int, end: int) -> dict:
    into: dict = {}
    parse_record_lines(data, start, end, into)
    return into


def parse_body(body: str, segment: bool) -> dict:
    magic = "%aa-seg 1" if segment else "%aa-triples 1"
    data = (magic + "\n" + body).encode("utf-8")
    start, end, _ = record_span(data, magic)
    return fold_span(data, start, end)


@pytest.mark.parametrize("segment", [False, True])
def test_parse_record_lines_number_texts_share_a_value_not_a_tag(segment):
    body = "a\tw\tn\t1\na\tx\tn\t1.0\na\ty\tn\t01\na\tz\tt\t1\nb\tw\tn\t1\nb\tx\tt\t1\n"
    assert parse_body(body, segment) == {
        "a": {"w": 1.0, "x": 1.0, "y": 1.0, "z": "1"}, "b": {"w": 1.0, "x": "1"}}


@pytest.mark.parametrize("segment", [False, True])
@pytest.mark.parametrize("body,message", [
    # a bad text after good ones that share its prefix is not taken from them
    ("a\tw\tn\t1\na\tx\tn\t1\na\ty\tn\t1\na\tz\tn\t1x\n", "line 5: unparseable number '1x'"),
    # a text that failed is not remembered as passing: the first one is named
    ("a\tw\tn\t2\na\tx\tn\t1e999\na\ty\tn\t1e999\n", "line 3: number '1e999' is not finite"),
    ("a\tw\tn\t1\na\tx\tt\t1x\na\ty\tn\t1x\n", "line 4: unparseable number '1x'"),
])
def test_parse_record_lines_cached_numbers_keep_every_error(body, message, segment):
    with pytest.raises(FormatError) as exc:
        parse_body(body, segment)
    assert str(exc.value) == message


@pytest.mark.parametrize("body,lineno", [
    (b"a\tx\tn\t1\nc\tx\tn\t3\nb\tx\tn\t2\n", 4),  # rows out of order
    (b"a\tx\tn\t1\na\tx\tn\t2\nb\tx\tn\t2\n", 3),  # a cell twice
    (b"a\ty\tn\t1\na\tx\tn\t2\nb\tx\tn\t2\n", 3),  # columns out of order
])
def test_segment_records_must_strictly_ascend(body, lineno):
    data = b"%aa-seg 1\n" + body
    start, end, _ = record_span(data, "%aa-seg 1")
    with pytest.raises(FormatError) as exc:
        fold_span(data, start, end)
    assert str(exc.value) == f"line {lineno}: record out of (row, col) order"
    expected: dict = {}  # no order rule outside segments: all three records fold
    for line in body.decode().splitlines():
        r, c, _, v = line.split("\t")
        expected.setdefault(r, {})[c] = float(v)
    assert parse_body(body.decode(), segment=False) == expected


def test_parse_record_lines_reports_a_sorted_screened_file():
    data = b"%aa-seg 1\na\tx\tn\t1\na\ty\tt\tv\nb\tw\tn\t2\n"
    start, end, _ = record_span(data, "%aa-seg 1")
    into: dict = {}
    assert parse_record_lines(data, start, end, into) is True
    assert into == {"a": {"x": 1.0, "y": "v"}, "b": {"w": 2.0}}


@pytest.mark.parametrize("body", [
    "b\tx\tn\t1\na\tx\tn\t2\n",  # a row goes backwards
    "a\ty\tn\t1\na\tx\tn\t2\n",  # a column goes backwards inside a row
    "a\tx\tn\t1\na\tx\tn\t2\n",  # a cell repeats
    "a\tx\tn\t0\na\ty\tn\t2\n",  # a stored zero
    "a\tx\tt\t\na\ty\tn\t2\n",   # an empty text
])
def test_parse_record_lines_reports_unsorted_or_unscreened_records(body):
    data = ("%aa-triples 1\n" + body).encode("utf-8")
    start, end, _ = record_span(data, "%aa-triples 1")
    assert parse_record_lines(data, start, end, {}) is False


def test_parse_record_lines_folds_repeats_in_file_order():
    data = b"%aa-triples 1\nr\tc\tn\t2\nr\tc\tn\t5\nr\tc\tn\t3\nr\td\tt\tx\nr\td\tt\ty\n"
    start, end, _ = record_span(data, "%aa-triples 1")
    assert fold_span(data, start, end) == {"r": {"c": 5.0, "d": "y"}}
    # a segment's record replaces the one already in ``into``: the later record wins
    into = {"r": {"c": 5.0, "d": "x"}}
    data = b"%aa-seg 1\nr\tc\tn\t3\nr\td\tt\ty\n"
    start, end, _ = record_span(data, "%aa-seg 1")
    assert parse_record_lines(data, start, end, into) is False
    assert into == {"r": {"c": 3.0, "d": "y"}}
    # a cell already in ``into`` combines too, though the records ascend
    into = {"a": {"x": 4.0}}
    data = b"%aa-triples 1\na\tx\tn\t2\nb\tx\tn\t1\n"
    start, end, _ = record_span(data, "%aa-triples 1")
    assert parse_record_lines(data, start, end, into) is False
    assert into == {"a": {"x": 4.0}, "b": {"x": 1.0}}


def test_read_triples_sorted_file_drops_a_stored_zero():
    arr = read_triples(buf("%aa-triples 1\na\tx\tn\t1\na\ty\tn\t0\nb\tx\tn\t-0\nb\ty\tn\t2\n"))
    assert list(arr) == [("a", "x", 1.0), ("b", "y", 2.0)]
    check_invariants(arr)


@pytest.mark.parametrize("data,message", [
    # an order fault on line 3 is named before an unparseable number on line 5
    (b"%aa-seg 1\nb\tx\tn\t1\na\tx\tn\t1\nc\tx\tn\t1\nd\tx\tn\tz\n",
     "line 3: record out of (row, col) order"),
    # and before a line that is not UTF-8
    (b"%aa-seg 1\na\ty\tn\t1\na\tx\tn\t1\nb\t\xff\tn\t1\n", "line 3: record out of (row, col) order"),
])
def test_parse_record_lines_first_faulty_line_wins(data, message):
    start, end, _ = record_span(data, "%aa-seg 1")
    with pytest.raises(FormatError) as exc:
        fold_span(data, start, end)
    assert str(exc.value) == message


def test_record_span_lenient_tail_may_be_undecodable():
    data = b"%aa-seg 1\na\tb\tn\t1\nc\td\tt\tcaf\xc3"
    start, end, truncated = record_span(data, "%aa-seg 1", lenient_tail=True)
    assert truncated
    assert fold_span(data, start, end) == {"a": {"b": 1.0}}


def test_read_triples_shuffled_duplicates_fold_like_from_triples():
    rng = random.Random(24)
    for _ in range(60):
        records = [(rng.choice("abcd"), rng.choice("wxyz"),
                    rng.choice([-1.0, 0.0, 2.5, 7.0, "", "lo", "hi"]))
                   for _ in range(rng.randint(0, 30))]
        # a duplicate whose lattice max is empty: -1 then 0 folds to 0, then drops
        records += [("e", "e", -1.0), ("e", "e", 0.0)]
        rng.shuffle(records)
        lines = ["%aa-triples 1"] + [
            f"{r}\t{c}\t{'t' if isinstance(v, str) else 'n'}\t{v}" for r, c, v in records]
        got = read_triples(buf("\n".join(lines) + "\n"))
        assert got == from_triples(records, LATTICE)
        assert ("e", "e") not in got
        assert list(got.support()) == sorted(got.support())
        check_invariants(got)


# -- DOT export ---------------------------------------------------------------


def test_export_dot_empty():
    sink = io.BytesIO()
    n = export_dot(AssociativeArray(), sink)
    assert sink.getvalue() == b"digraph aa {\n}\n"
    assert n == 15


def test_export_dot_nodes_and_edges():
    arr = AssociativeArray({("b", "a"): 2.0, ("a", "c"): "x y"})
    sink = io.BytesIO()
    export_dot(arr, sink)
    assert sink.getvalue().decode() == (
        'digraph aa {\n'
        '  "a";\n'
        '  "b";\n'
        '  "c";\n'
        '  "a" -> "c" [label="x y"];\n'
        '  "b" -> "a" [label="2"];\n'
        '}\n'
    )


def test_export_dot_escapes_quotes_and_backslashes():
    arr = AssociativeArray({('say "hi"', "back\\slash"): 1.0})
    sink = io.BytesIO()
    export_dot(arr, sink)
    text = sink.getvalue().decode()
    assert '"say \\"hi\\""' in text
    assert '"back\\\\slash"' in text


@settings(max_examples=200)
@given(cells=mixed_cells())
def test_export_dot_matches_the_format_oracle(cells):
    sink = io.BytesIO()
    n = export_dot(AssociativeArray(cells), sink)
    assert sink.getvalue() == dot_bytes_oracle(cells)
    assert n == len(sink.getvalue())


def test_export_dot_deterministic():
    rng = random.Random(23)
    for _ in range(20):
        arr = random_mixed_array(rng, 5, 5)
        a, b = io.BytesIO(), io.BytesIO()
        export_dot(arr, a)
        export_dot(AssociativeArray(dict(arr.items())), b)
        assert a.getvalue() == b.getvalue()
