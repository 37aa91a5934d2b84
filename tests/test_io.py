import io
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aakit.io
from aakit import LATTICE, MAXPLUS, AssociativeArray, DomainError, KeySet, eladd, from_triples
from aakit.io import (
    SEGMENT_MAGIC,
    TRIPLES_MAGIC,
    FormatError,
    encode_lines,
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
from oracles import (
    csv_table_oracle,
    dot_bytes_oracle,
    record_files_oracle,
    triples_bytes_oracle,
)


def buf(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def each_piece_size(*more: int):
    """Set ``aakit.io._PIECE`` to the shipped size, then to 1 byte, then to each of ``more``, yielding after each.

    At 1 byte the reader decodes each line, and a writer encodes each row,
    as a piece of its own.  The shipped size is back when the loop ends.
    """
    shipped = aakit.io._PIECE
    with pytest.MonkeyPatch.context() as mp:
        for size in (shipped, 1, *more):
            mp.setattr(aakit.io, "_PIECE", size)
            yield size


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
    arr = read_table(buf('"T""",x\nr1,""""\nr2,"a,""b"""\nr3,""\n'))
    assert arr.triples() == [("r1", "x", '"'), ("r2", "x", 'a,"b"')]


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
    ('T,x,y\nr1,2,"a\rb"\n', "row 'r1': text value 'a\\rb' contains a line break"),
    ('T,x,y\nr1,2,"a\r\nb"\n', "row 'r1': text value 'a\\r\\nb' contains a line break"),
    # quoting that breaks RFC 4180 names the line where the faulty record starts
    ('T,x\nr1,"1"2\n', "malformed CSV at line 2: ',' expected after '\"'"),
    ('"T,x\nr1,1\n', "malformed CSV at line 1: unexpected end of data"),  # open in the header
    ('T,x\nr1,"a\nr2,1\n', "malformed CSV at line 2: unexpected end of data"),  # open in the body
    ('T,x\nr1,1\nr2,"x', "malformed CSV at line 3: unexpected end of data"),  # open at the end
    # a quote inside an unquoted field
    ('T,x\nr1,a"b\n', "malformed CSV at line 2: '\"' in an unquoted field"),
    ('T,x\nr1,a"b\nr1,2\n', "malformed CSV at line 2: '\"' in an unquoted field"),  # before a later key error
    ('T,x\nr1,"a""b"\nr2,a""\n', "malformed CSV at line 3: '\"' in an unquoted field"),  # beside an escape
    ('T,x\r\nr1, "a"\r\n', "malformed CSV at line 2: '\"' in an unquoted field"),  # after a space
    ('T"1,x\nr1,1\n', "malformed CSV at line 1: '\"' in an unquoted field"),  # in the ignored header cell
    ('T,x\n\nr1,1\rr"2,1\r', "malformed CSV at line 4: '\"' in an unquoted field"),  # blank and CR lines
    ('"T\nU",x\nr1,x"\n', "malformed CSV at line 3: '\"' in an unquoted field"),  # after a 2-line header
])
def test_read_table_errors_name_the_cause(text, message):
    with pytest.raises(FormatError) as exc:
        read_table(buf(text))
    assert str(exc.value) == message


def test_read_table_reads_nul_as_text():
    arr = read_table(buf("T,x\x00y\nr\x001,a\x00b\n"))
    assert arr.triples() == [("r\x001", "x\x00y", "a\x00b")]


@pytest.mark.parametrize("text,message", [
    ("T,x\nr1," + "a," * 100_000 + 'a"\n', "'\"' in an unquoted field"),
    ("T,x\nr1," + "a" * 200_000 + '"\n', "'\"' in an unquoted field"),
    ('T,x\nr1,"' + '""' * 50_000 + '"x\n', "',' expected after '\"'"),
    ("T,x\nr1," + '"a",' * 100_000 + '"a"x\n', "',' expected after '\"'"),
    ('T,x\nr1,"a\n' + "r,1\n" * 20_000, "unexpected end of data"),
], ids=["many-fields", "long-cell", "many-escapes", "many-quoted-fields", "open-above-many-lines"])
def test_read_table_refuses_long_faulty_records_in_linear_time(text, message):
    # A grammar that backtracks quadratically takes minutes on these.
    start = time.perf_counter()
    with pytest.raises(FormatError) as exc:
        read_table(buf(text))
    assert time.perf_counter() - start < 2
    assert str(exc.value) == f"malformed CSV at line 2: {message}"


# Pieces of tables, among them every character the CSV grammar reads specially.
CSV_PIECES = [",", '"', "\r", "\n", "\r\n", " ", "\x00", "\u2028", "0", "1", "2", "a", "b", "T"]


@settings(max_examples=500)
@given(st.sampled_from(["", "T,x,y\n", "T,x,y\r\n"]), st.lists(st.sampled_from(CSV_PIECES), max_size=16))
def test_read_table_matches_the_csv_oracle(header, pieces):
    text = header + "".join(pieces)
    try:
        want = csv_table_oracle(text)
    except ValueError as fault:
        with pytest.raises(FormatError) as exc:
            read_table(buf(text))
        assert str(exc.value) == str(fault)
    else:
        assert read_table(buf(text)).triples() == sorted((r, c, v) for (r, c), v in want.items())


def test_read_table_skips_blank_lines():
    assert read_table(buf("T,x\n\nr1,1\n\n")) == read_table(buf("T,x\nr1,1\n"))


@pytest.mark.parametrize("quoted", [False, True])
def test_read_table_cells_have_no_length_cap(quoted):
    # 131,072 is the csv module's default field_size_limit, not the format's.
    long = "a" * 131_073
    cell = f'"{long}"' if quoted else long
    assert read_table(buf(f"T,x,{long}\nr1,{cell},1\n")).triples() == [
        ("r1", long, 1.0), ("r1", "x", long)]
    with pytest.raises(FormatError, match="duplicate row key"):
        read_table(buf(f"T,x\nr1,{cell}\nr1,1\n"))


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
    for _ in each_piece_size():
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
    for _ in each_piece_size():
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
            (r, c, v) for (r, c), v in cells.items() if v is not None)  # a tombstone deletes its cell


@pytest.mark.parametrize("cache_size", [None, 0, 1])
def test_writers_match_the_format_oracles_on_store_shaped_rows(monkeypatch, cache_size):
    # Rows as store batches hold them: one cell, tombstones only, text only, and
    # mixed, with more distinct texts and numbers than a value cache holds.
    shipped = aakit.io._CACHE_SIZE
    if cache_size is not None:
        monkeypatch.setattr(aakit.io, "_CACHE_SIZE", cache_size)
    rng = random.Random(21)
    values = ORACLE_VALUES + [float(rng.randint(1, 999)) for _ in range(200)]
    cells: dict = {}
    for i in range(shipped + 100):
        cells[(f"one{i:05d}", f"c{i % 20:02d}")] = f"text {i}"
    for i in range(300):
        cells[(f"num{i:03d}", f"c{i % 20:02d}")] = rng.choice(values)
    for i in range(40):
        for j in rng.sample(range(20), rng.randint(1, 6)):
            cells[(f"tomb{i:03d}", f"c{j:02d}")] = None
    for i in range(40):
        for j in rng.sample(range(20), rng.randint(1, 20)):
            cells[(f"text{i:03d}", f"c{j:02d}")] = f"t {rng.randrange(3000)}"
    for i in range(40):
        for j in rng.sample(range(20), rng.randint(1, 20)):
            cells[(f"mix{i:03d}", f"c{j:02d}")] = rng.choice(values + [None, f"m {i}"])
    assert len({v for v in cells.values() if isinstance(v, str)}) > shipped
    rows: dict = {}
    for (r, c), v in sorted(cells.items()):
        rows.setdefault(r, {})[c] = v
    live = {cell: v for cell, v in cells.items() if v is not None}
    arr = AssociativeArray(live)
    for _ in each_piece_size():
        assert encode_records("%aa-seg 1", rows) == triples_bytes_oracle(cells, "%aa-seg 1")
        for render, oracle in ((write_triples, triples_bytes_oracle), (export_dot, dot_bytes_oracle)):
            sink = io.BytesIO()
            assert render(arr, sink) == len(sink.getvalue())
            assert sink.getvalue() == oracle(live)


@pytest.mark.parametrize("cache_size,checks", [(None, 2), (1, 4), (0, 4)])
def test_value_caches_convert_a_number_once_until_full(monkeypatch, cache_size, checks):
    # Values 1, 2, 2, 2: with room, each distinct number is converted once;
    # a full cache stops adding, and every number it lacks is converted.
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


def test_parse_record_lines_tombstones(cleans):
    data = b"%aa-seg 1\na\tb\tx\t\n"
    start, end, truncated = record_span(data, "%aa-seg 1")
    assert fold_span(data, start, end) == {}
    assert cleans == [{"a": {"b": None}}]  # the tombstone folds as None, which the builder drops
    assert not truncated
    # A tombstone deletes the cell an older segment holds.
    older = b"%aa-seg 1\na\tb\tn\t1\na\tc\tn\t2\n"
    got = parse_record_lines([("o", older, [record_span(older, "%aa-seg 1")[:2]]), ("n", data, [(start, end)])])
    assert got._rows == {"a": {"c": 2.0}}


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
    # a CR after good lines of its piece
    (b"%aa-triples 1\na\tb\tn\t1\na\tc\tt\tone\ntwo\rz\tb\tn\t2\n",
     "line 4: key 'two\\rz' contains a forbidden control character"),
    (b"%aa-triples 1\na\tb\tn\t1\na\tc\tt\tone\na\td\tt\tone\rtwo\n",
     "line 4: text value 'one\\rtwo' contains a line break"),
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
    for _ in each_piece_size():
        with pytest.raises(FormatError) as exc:
            read_triples(io.BytesIO(data))
        assert str(exc.value) == message
        if data.startswith(b"%aa-triples 1\n"):  # the same error when column "z" is dropped
            start, end, _ = record_span(data, "%aa-triples 1")
            with pytest.raises(FormatError) as exc:
                parse_record_lines([(None, data, [(start, end)])], lambda col: col != "z")
            assert str(exc.value) == message


def test_parse_record_lines_drops_refused_columns_unchecked(cleans):
    # The dropped lines of column "z" break the tag, number, tombstone and order
    # rules; rows "a" and "c" hold only such lines and get no row dict.
    data = (b"%aa-seg 1\na\tz\tq\t1\nb\tx\tn\t1\nb\tz\tn\tnope\nb\ty\tt\tv\n"
            b"c\tz\tx\tpayload\nb\tz\tn\t1\nd\tx\tx\t\nd\ty\tn\t2\n")
    older = b"%aa-seg 1\ne\tx\tn\t3\n"
    start, end, _ = record_span(data, "%aa-seg 1")
    for _ in each_piece_size():
        cleans.clear()
        sources = [("o", older, [record_span(older, "%aa-seg 1")[:2]]), (None, data, [(start, end)])]
        got = parse_record_lines(sources, lambda col: col != "z")
        assert cleans == [{"e": {"x": 3.0}, "b": {"x": 1.0, "y": "v"}, "d": {"x": None, "y": 2.0}}]
        assert (got._rows, got._numeric) == ({"b": {"x": 1.0, "y": "v"}, "d": {"y": 2.0}, "e": {"x": 3.0}}, False)
        got = parse_record_lines([(None, data, [(start, end)])], lambda col: col == "y")
        assert len(cleans) == 1  # no second call: these records ascend, with no tombstone
        assert (got._rows, got._numeric) == ({"b": {"y": "v"}, "d": {"y": 2.0}}, False)
        check_invariants(got)
        with pytest.raises(FormatError, match="line 2: unknown type tag 'q'"):
            fold_span(data, start, end)


def fold_span(data: bytes, start: int, end: int) -> dict:
    """The rows of the array that one parse of ``data[start:end]`` returns."""
    return parse_record_lines([(None, data, [(start, end)])])._rows


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
    for _ in each_piece_size():
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
    expected: dict = {}  # no order rule outside segments: all three records fold
    for line in body.decode().splitlines():
        r, c, _, v = line.split("\t")
        expected.setdefault(r, {})[c] = float(v)
    for _ in each_piece_size():
        with pytest.raises(FormatError) as exc:
            fold_span(data, start, end)
        assert str(exc.value) == f"line {lineno}: record out of (row, col) order"
        assert parse_body(body.decode(), segment=False) == expected


def test_parse_record_lines_wraps_a_sorted_screened_file(cleans):
    data = b"%aa-seg 1\na\tx\tn\t1\na\ty\tt\tv\nb\tw\tn\t2\n"
    start, end, _ = record_span(data, "%aa-seg 1")
    got = parse_record_lines([("s", data, [(start, end)])])
    assert (got._rows, got._numeric, cleans) == ({"a": {"x": 1.0, "y": "v"}, "b": {"w": 2.0}}, False, [])


@pytest.mark.parametrize("body", [
    "b\tx\tn\t1\na\tx\tn\t2\n",  # a row goes backwards
    "a\ty\tn\t1\na\tx\tn\t2\n",  # a column goes backwards inside a row
    "a\tx\tn\t1\na\tx\tn\t2\n",  # a cell repeats
    "a\tx\tn\t0\na\ty\tn\t2\n",  # a stored zero
    "a\tx\tt\t\na\ty\tn\t2\n",   # an empty text
])
def test_parse_record_lines_sorts_and_screens_unsorted_or_unscreened_records(cleans, body):
    data = ("%aa-triples 1\n" + body).encode("utf-8")
    start, end, _ = record_span(data, "%aa-triples 1")
    got = parse_record_lines([(None, data, [(start, end)])])
    assert got._numeric == ("\tt\t" not in body)  # an empty text is text too
    assert len(cleans) == 1
    check_invariants(got)


def test_parse_record_lines_folds_repeats_in_file_order():
    for _ in each_piece_size():
        data = b"%aa-triples 1\nr\tc\tn\t2\nr\tc\tn\t5\nr\tc\tn\t3\nr\td\tt\tx\nr\td\tt\ty\n"
        start, end, _ = record_span(data, "%aa-triples 1")
        assert fold_span(data, start, end) == {"r": {"c": 5.0, "d": "y"}}
        # a segment's record replaces an older segment's: the later record wins
        older = b"%aa-seg 1\nr\tc\tn\t5\nr\td\tt\tx\n"
        data = b"%aa-seg 1\nr\tc\tn\t3\nr\td\tt\ty\n"
        got = parse_record_lines([("o", older, [record_span(older, "%aa-seg 1")[:2]]),
                                  ("n", data, [record_span(data, "%aa-seg 1")[:2]])])
        assert (got._rows, got._numeric) == ({"r": {"c": 3.0, "d": "y"}}, False)
        # a cell an older source holds combines too, though the file's records ascend
        older = b"%aa-seg 1\na\tx\tn\t4\n"
        data = b"%aa-triples 1\na\tx\tn\t2\nb\tx\tn\t1\n"
        got = parse_record_lines([("o", older, [record_span(older, "%aa-seg 1")[:2]]),
                                  (None, data, [record_span(data, "%aa-triples 1")[:2]])])
        assert (got._rows, got._numeric) == ({"a": {"x": 4.0}, "b": {"x": 1.0}}, True)


@pytest.mark.parametrize("magic", ["%aa-triples 1", "%aa-seg 1"])
@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
def test_parse_record_lines_marks_a_kept_text_record(cleans, magic, at):
    lines = [f"{row}\tx\tn\t{i + 1}" for i, row in enumerate("abc")]
    lines[at] = f"{'abc'[at]}\tz\tt\tword"  # the only text record
    data = encode_lines([magic, *lines])
    start, end, _ = record_span(data, magic)
    for _ in each_piece_size():
        assert not parse_record_lines([(None, data, [(start, end)])])._numeric
        assert parse_record_lines([(None, data, [(start, end)])], lambda col: col != "z")._numeric
        assert cleans == []


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
    for _ in each_piece_size():
        with pytest.raises(FormatError) as exc:
            fold_span(data, start, end)
        assert str(exc.value) == message


# Record files for the reader's oracle.  "a\x01" sorts after "a", though its line sorts before "a<TAB>...".
RECORD_KEYS = ["a", "b", "c", "\u00e9", "a\x01"]
RECORD_TAILS = ["n\t1", "n\t2.5", "n\t-3", "n\t0", "n\t-0", "n\t1e5", "n\t+.5", "n\t7.", "n\t10",
                "t\tv", "t\t", "t\ta\tb", "t\t1"]
# Each fault rewrites one line; a lone surrogate is written as the invalid UTF-8 byte it escapes.
RECORD_FAULTS = [
    lambda r, c, t: f"\t{c}\t{t}",  # an empty row
    lambda r, c, t: f"{r}\t\t{t}",  # an empty column
    lambda r, c, t: f"{r}\r\t{c}\t{t}",  # a CR in a key
    lambda r, c, t: f"{r}\t{c}\rz\t{t}",
    lambda r, c, t: f"{r}\t{c}\tt\tone\rtwo",  # a CR in a text
    lambda r, c, t: f"{r}\t{c}\tn\t1x",  # bad or non-finite numbers
    lambda r, c, t: f"{r}\t{c}\tn\t1e999",
    lambda r, c, t: f"{r}\t{c}\tn\t\u0663",
    lambda r, c, t: f"{r}\t{c}\tn\tnan",
    lambda r, c, t: f"{r}\t{c}\tq\t1",  # an unknown tag
    lambda r, c, t: f"{r}\t{c}\tx\tp",  # a tombstone payload
    lambda r, c, t: f"{r}\t{c}\tx\t",  # a tombstone, which only a segment may hold
    lambda r, c, t: f"{r}\t{c}",  # too few fields
    lambda r, c, t: "",
    lambda r, c, t: f"{r}\udcff\t{c}\t{t}",  # invalid UTF-8
    lambda r, c, t: f"{r}\t{c}\tt\tcaf\udcc3",
]


@st.composite
def record_files(draw):
    """One triple file or 1-3 segments, as ``(name, data)`` oldest first, of up to six lines each.

    Most cases pick one fault, which rewrites about one line in three.
    Three segments in four hold their cells sorted and distinct; the
    others, and triple files, keep the drawn order, which may go backwards
    or repeat a cell.
    """
    segments = draw(st.booleans())
    kind = draw(st.sampled_from([None, None, *RECORD_FAULTS]))
    tails = RECORD_TAILS + ["x\t"] * segments  # a segment's tombstone
    record = st.tuples(st.sampled_from(RECORD_KEYS), st.sampled_from(RECORD_KEYS), st.sampled_from(tails),
                       st.sampled_from([None, None, kind]))
    files = []
    for i in range(draw(st.integers(1, 3)) if segments else 1):
        lines = draw(st.lists(record, max_size=6))
        if segments and draw(st.sampled_from([True, True, True, False])):
            lines = sorted({line[:2]: line for line in lines}.values(), key=lambda line: line[:2])
        body = [f"{r}\t{c}\t{t}" if fault is None else fault(r, c, t) for r, c, t, fault in lines]
        magic = SEGMENT_MAGIC if segments else TRIPLES_MAGIC
        files.append((f"s{i}" if segments else None, "".join(f"{x}\n" for x in [magic, *body]).encode(
            "utf-8", "surrogateescape")))
    return files


@settings(max_examples=300, deadline=None)
@given(record_files(), st.sets(st.sampled_from(RECORD_KEYS), max_size=3))
def test_parse_record_lines_matches_the_record_oracle(files, cols):
    sources = [(name, data, [record_span(data, TRIPLES_MAGIC if name is None else SEGMENT_MAGIC)[:2]])
               for name, data in files]
    for keep in (None, cols):
        try:
            want = record_files_oracle(files, keep)
        except ValueError as fault:
            want = fault.args  # (segment name, line)
        for _ in each_piece_size(7):
            try:
                got = parse_record_lines(sources, None if keep is None else KeySet(keep).matches)
            except FormatError as exc:
                where = re.match(r"(?:segment (\S+): )?line (\d+): ", str(exc))
                assert where and (where[1], int(where[2])) == want, str(exc)
            else:
                assert {(r, c): v for r, c, v in got} == want
                check_invariants(got)


def line_starts(data: bytes) -> list[int]:
    """The offset of each line start of ``data``, then ``len(data)``: line n starts at index n - 1."""
    return [0, *(i + 1 for i, byte in enumerate(data) if byte == ord("\n"))]


def test_one_call_over_three_spans_folds_the_union_of_their_lines(cleans):
    lines = [f"{row}\t{col}\tn\t{n}" for n, (row, col) in enumerate([(r, c) for r in "abcd" for c in "xy"], 1)]
    lines[2] = "b\tx\tt\tword"  # file line 4, between the first two spans: the parse keeps no text
    data = encode_lines(["%aa-seg 1", *lines])
    at = line_starts(data)
    picks = [(2, 4), (5, 6), (7, 10)]  # [first, stop) file lines: 2-3, 5 and 7-9
    union = encode_lines(["%aa-seg 1", *(lines[n - 2] for first, stop in picks for n in range(first, stop))])
    for _ in each_piece_size():
        got = parse_record_lines([(None, data, [(at[first - 1], at[stop - 1]) for first, stop in picks])])
        want = parse_record_lines([(None, union, [record_span(union, "%aa-seg 1")[:2]])])
        assert got._numeric and want._numeric and cleans == []
        assert got._rows == want._rows == {
            "a": {"x": 1.0, "y": 2.0}, "b": {"y": 4.0}, "c": {"y": 6.0}, "d": {"x": 7.0, "y": 8.0}}


@pytest.mark.parametrize("fault,message", [
    (b"d\tx\tn\n", "expected 4 tab-separated fields"),
    (b"d\tx\tn\tnope\n", "unparseable number 'nope'"),
    (b"d\tx\tt\t\xff\n", "not valid UTF-8"),
])
def test_a_fault_in_a_later_span_names_the_line_a_one_span_call_names(fault, message):
    data = b"%aa-seg 1\na\tx\tn\t1\nb\tx\tn\t1\nc\tx\tn\t1\n" + fault + b"e\tx\tn\t1\n"
    at = line_starts(data)
    for _ in each_piece_size():
        for spans in ([(at[1], at[3]), (at[4], at[5])], [(at[4], at[5])]):  # lines 2-3 and the fault, or it alone
            with pytest.raises(FormatError) as exc:
                parse_record_lines([(None, data, spans)])
            assert str(exc.value) == f"line 5: {message}"


def test_records_out_of_order_across_spans_name_the_later_line(cleans):
    data = b"%aa-seg 1\na\tx\tn\t1\nc\tx\tn\t1\nd\tx\tn\t1\nb\tx\tn\t1\n"
    at = line_starts(data)
    for _ in each_piece_size():
        for spans in ([(at[1], at[3]), (at[4], at[5])], [(at[1], at[5])]):  # lines 2-3 and 5, or 2-5
            with pytest.raises(FormatError) as exc:
                parse_record_lines([(None, data, spans)])
            assert str(exc.value) == "line 5: record out of (row, col) order"
        assert parse_record_lines([(None, data, [(at[4], at[5])])])._rows == {"b": {"x": 1.0}}
        assert cleans == []  # line 5 alone ascends


@pytest.mark.parametrize("first,later,message", [
    (b"a\tx\tt\t\xff\n", b"c\tx\tn\n", "line 2: not valid UTF-8"),
    (b"a\tx\tn\n", b"c\tx\tt\t\xff\n", "line 2: expected 4 tab-separated fields"),
    (b"a\tx\tn\tnope\n", b"c\tx\tq\t1\n", "line 2: unparseable number 'nope'"),
])
def test_an_earlier_span_error_wins_over_a_later_one(first, later, message):
    data = b"%aa-seg 1\n" + first + b"b\tx\tn\t1\n" + later
    at = line_starts(data)
    for _ in each_piece_size():
        with pytest.raises(FormatError) as exc:
            parse_record_lines([(None, data, [(at[1], at[2]), (at[3], at[4])])])
        assert str(exc.value) == message


# Eight good lines of 9 bytes before, between and after the faulty ones: at
# each piece size below the two faults lie in different pieces, and past 1
# byte a piece holds good lines before a fault.
GOOD_LINES = b"".join(b"r%d\tc\tn\t1\n" % i for i in range(8))


@pytest.mark.parametrize("piece", [1, 7, 16, 40])
def test_a_utf8_error_in_a_later_piece_loses_to_an_earlier_faulty_line(monkeypatch, piece):
    monkeypatch.setattr(aakit.io, "_PIECE", piece)
    data = b"%aa-triples 1\n" + GOOD_LINES + b"a\tb\tq\t1\n" + GOOD_LINES + b"c\td\tt\tcaf\xc3\n" + GOOD_LINES
    with pytest.raises(FormatError) as exc:
        read_triples(io.BytesIO(data))
    assert str(exc.value) == "line 10: unknown type tag 'q'"


@pytest.mark.parametrize("piece", [1, 7, 16, 40])
def test_a_utf8_error_in_an_earlier_piece_beats_a_later_faulty_line(monkeypatch, piece):
    monkeypatch.setattr(aakit.io, "_PIECE", piece)
    data = b"%aa-triples 1\n" + GOOD_LINES + b"c\td\tt\tcaf\xc3\n" + GOOD_LINES + b"a\tb\tq\t1\n" + GOOD_LINES
    with pytest.raises(FormatError) as exc:
        read_triples(io.BytesIO(data))
    assert str(exc.value) == "line 10: not valid UTF-8"


def test_record_span_lenient_tail_may_be_undecodable():
    data = b"%aa-seg 1\na\tb\tn\t1\nc\td\tt\tcaf\xc3"
    start, end, truncated = record_span(data, "%aa-seg 1", lenient_tail=True)
    assert truncated
    assert fold_span(data, start, end) == {"a": {"b": 1.0}}


def test_read_triples_shuffled_duplicates_fold_like_from_triples():
    rng = random.Random(24)
    for _ in range(60):
        # -2/-1, 9/10 and 200/1e3 sort one way as numbers and the other way as text
        records = [(rng.choice("abcd"), rng.choice("wxyz"),
                    rng.choice([-2.0, -1.0, 0.0, 2.5, 7.0, 9.0, 10.0, 200.0, 1e3, "", "lo", "hi"]))
                   for _ in range(rng.randint(0, 30))]
        # a duplicate whose lattice max is empty: -1 then 0 folds to 0, then drops
        records += [("e", "e", -1.0), ("e", "e", 0.0)]
        rng.shuffle(records)
        lines = ["%aa-triples 1"] + [
            f"{r}\t{c}\t{'t' if isinstance(v, str) else 'n'}\t{v}" for r, c, v in records]
        data = ("\n".join(lines) + "\n").encode("utf-8")
        got = read_triples(io.BytesIO(data))
        want = record_files_oracle([(None, data)])
        assert dict(got.items()) == want
        assert dict(from_triples(records, LATTICE).items()) == want
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
    arr = AssociativeArray(cells)
    for _ in each_piece_size():
        sink = io.BytesIO()
        n = export_dot(arr, sink)
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


# -- memory held at once ------------------------------------------------------


class DiscardingSink:
    writes = 0

    def write(self, data: bytes) -> int:
        self.writes += 1
        return len(data)


def many_cells_array(rng: random.Random, rows: int = 1000) -> AssociativeArray:
    """100 cells in each of ``rows`` rows: numbers, with text in every third column."""
    return AssociativeArray({
        (f"row{i:05d}", f"col{j:03d}"): f"text {rng.randrange(10**6)}" if j % 3 == 0 else float(rng.randrange(1, 50))
        for i in range(rows) for j in range(100)})


def traced_peak(call):
    """``call()``'s result, and the peak and final bytes that tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


@pytest.fixture(scope="module")
def hundred_thousand_cells() -> AssociativeArray:
    return many_cells_array(random.Random(31))


@pytest.mark.parametrize("render", [write_triples, export_dot])
def test_writers_hold_a_piece_not_the_file(render, hundred_thousand_cells):
    # A writer hands each piece to the sink as it is made, so its peak is a
    # few pieces and its caches, not a copy of what it writes; and the pieces
    # are not so small that the writes multiply.
    sink = DiscardingSink()
    n, peak, _ = traced_peak(lambda: render(hundred_thousand_cells, sink))
    assert n > 2_000_000
    assert peak < n / 4, peak / n
    assert n / sink.writes > aakit.io._PIECE / 4, sink.writes


@pytest.mark.parametrize("shuffled", [False, True])
def test_read_triples_holds_the_input_and_a_piece_beside_its_array(shuffled):
    # Beyond the array it returns, a read holds about the input's bytes: the
    # pieces it decodes and, for unsorted input, the rows the builder sorts.
    rng = random.Random(32)
    sink = io.BytesIO()
    write_triples(many_cells_array(rng, 300), sink)
    lines = sink.getvalue().split(b"\n")[1:-1]
    if shuffled:
        rng.shuffle(lines)
    data = b"\n".join([b"%aa-triples 1", *lines, b""])
    del lines, sink
    source = io.BytesIO(data)
    arr, peak, held = traced_peak(lambda: read_triples(source))
    assert arr.nnz == 30_000
    assert peak - held < 2 * len(data), (peak - held) / len(data)


# -- the text-free mark of a load ---------------------------------------------------


def test_a_numeric_file_reads_marked_sorted_or_not():
    for body in (b"a\tx\tn\t1\nb\tt2\tn\t2\n", b"b\ty\tn\t2\na\tx\tn\t1\na\tx\tn\t3\n"):
        arr = read_triples(io.BytesIO(b"%aa-triples 1\n" + body))
        assert arr._numeric, body
        check_invariants(arr)


def test_a_file_whose_last_record_is_text_reads_unmarked_and_is_refused_there():
    for row in ("c", "0"):  # the file's records ascend, then do not: the text cell is last, then first
        arr = read_triples(io.BytesIO(f"%aa-triples 1\na\tx\tn\t1\nb\ty\tn\t2\n{row}\tz\tt\tword\n".encode()))
        assert not arr._numeric
        with pytest.raises(DomainError, match=re.escape(f"left operand holds text at {(row, 'z')!r}")):
            eladd(arr, arr, MAXPLUS)


def test_a_numeric_file_with_a_column_t_reads_back_equal():
    data = b"%aa-triples 1\na\tt\tn\t1\na\tu\tn\t2\nt\tt\tn\t3\n"
    arr = read_triples(io.BytesIO(data))
    assert arr == AssociativeArray({("a", "t"): 1.0, ("a", "u"): 2.0, ("t", "t"): 3.0})
    assert arr._numeric
    assert eladd(arr, arr, MAXPLUS) == arr
    sink = io.BytesIO()
    write_triples(arr, sink)
    assert sink.getvalue() == data
