"""File formats: dense CSV tables in, triple files in/out, DOT export.

The triple file is the package's canonical on-disk form.  It is UTF-8,
LF-framed, one record per line::

    %aa-triples 1
    row<TAB>col<TAB>n<TAB>3.5
    row<TAB>col2<TAB>t<TAB>free text (TABs allowed, line breaks not)

Numbers are rendered in their shortest round-trip decimal form, records
sort by (row, col), so equal arrays serialize to identical bytes.  Writers
walk row dicts and encode pieces of about ``_PIECE`` bytes cut at row ends.
One record parser call reads a triple file, or all of a table's segments,
decoding pieces cut after an LF, and returns the array, text-free when it
kept no text record.  A read converts each distinct number once until
``_CACHE_SIZE`` are cached.

The store's segment and MANIFEST bytes are this module's too.  The magic
line picks ``parse_record_lines``' rules: a segment's tag "x" marks a
tombstone and its cells strictly ascend in (row, col) order.  ``row_spans``
bisects sorted record lines for each key interval's span, and one parse
reads every segment's spans.
"""

from __future__ import annotations

import math
import re
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

from .core import (
    LATTICE,
    AssociativeArray,
    BadKeyError,
    BadValueError,
    Value,
    check_key,
    check_value,
)

TRIPLES_MAGIC = "%aa-triples 1"
SEGMENT_MAGIC = "%aa-seg 1"
MANIFEST_MAGIC = "%aa-manifest 1"
_SEGMENT_HEAD = (SEGMENT_MAGIC + "\n").encode("ascii")

# ASCII digits only: float() also reads other scripts' digits, which stay text.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)
# One RFC 4180 record and its line break (CR, LF, CRLF, or none at the end of the text):
# a field holds no quote, or is quoted whole with "" for a quote.  Where no record
# matches, before the end of the text, the empty alternative does: a faulty record.
_QUOTED_TEXT = r'[^"]*(?:""[^"]*)*'  # a quoted field's text: it ends before the first lone quote
_FIELD = rf'(?:[^",\r\n]*|"{_QUOTED_TEXT}")'
_RECORD = re.compile(rf"(?!\Z)(?:({_FIELD}(?:,{_FIELD})*)(?:\r\n?|\n|\Z)|)")
_QUOTED_RECORD_FIELDS = re.compile(rf',(?:"({_QUOTED_TEXT})"|([^,]*))')  # on "," + record
_CACHE_SIZE = 1024  # a value cache stops adding once it holds this many
_PIECE = 1 << 16  # about the bytes a reader decodes, or a writer encodes, at once


class FormatError(ValueError):
    """Malformed input file."""


def format_number(x: float) -> str:
    """Shortest decimal that parses back to exactly x ("2", "0.1", "1e+20")."""
    s = repr(x)
    return s[:-2] if s.endswith(".0") else s


def parse_cell(text: str) -> Value:
    """Full-cell finite decimals become numbers, everything else stays text."""
    if _NUMBER_RE.match(text):
        x = float(text)
        if math.isfinite(x):
            return x
    return text


def read_table(source: BinaryIO) -> AssociativeArray:
    """Read a dense CSV table (RFC 4180).

    The first header cell names the table and is ignored; the remaining
    header cells are column keys.  Each body row starts with its row key.
    Empty cells stay unstored.  Duplicate row or column keys, forbidden
    key characters, ragged long rows and quotes inside unquoted fields
    are rejected; an error names the first faulty record.
    """
    try:
        text = source.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"table is not valid UTF-8: {exc}") from None
    records = _records(text)
    header = next(records, None)
    if header is None:
        raise FormatError("table has no header row")
    col_keys = _fields(header)[1:]
    try:
        for c in col_keys:
            check_key(c)
    except BadKeyError as exc:
        raise FormatError(f"bad column key in header: {exc}") from None
    if len(set(col_keys)) != len(col_keys):
        raise FormatError("duplicate column key in header")

    rows: dict[str, dict[str, Value]] = {}
    for record in records:
        if not record:
            continue
        fields = _fields(record)
        row_key = fields[0]
        try:
            check_key(row_key)
        except BadKeyError as exc:
            raise FormatError(f"bad row key: {exc}") from None
        if row_key in rows:
            raise FormatError(f"duplicate row key {row_key!r}")
        if len(fields) - 1 > len(col_keys):
            raise FormatError(f"row {row_key!r} has more cells than the header")
        if "\n" in record or "\r" in record:  # only a quoted cell holds one: check_value names it
            try:
                for cell in fields[1:]:
                    check_value(cell)
            except BadValueError as exc:
                raise FormatError(f"row {row_key!r}: {exc}") from None
        # Text from a strict UTF-8 decode encodes, and parse_cell's numbers are finite.
        row = rows[row_key] = {}
        for col, cell in zip(col_keys, fields[1:]):
            if cell:
                row[col] = parse_cell(cell)
    return AssociativeArray._from_clean(rows)


def _records(text: str) -> Iterator[str]:
    """Each record of ``text`` without its line break, "" for a blank line; FormatError at a faulty one."""
    for m in _RECORD.finditer(text):
        if m[1] is None:
            raise _malformed(text, m.start())
        yield m[1]


def _fields(record: str) -> list[str]:
    """The fields of a record that ``_RECORD`` matched, unquoted."""
    if '"' not in record:
        return record.split(",")
    return [q.replace('""', '"') if q else u for q, u in _QUOTED_RECORD_FIELDS.findall("," + record)]


def _malformed(text: str, pos: int) -> FormatError:
    """The error for the record at ``pos`` that ``_RECORD`` refused, naming its first fault."""
    line = 1 + text.count("\n", 0, pos) + text.count("\r", 0, pos) - text.count("\r\n", 0, pos)
    pos = re.compile(rf"(?:{_FIELD},)*").match(text, pos).end()  # past the whole fields, to the faulty one
    if text[pos] != '"':  # unquoted, so it stopped at a bare quote
        fault = "'\"' in an unquoted field"
    elif re.compile(rf'"{_QUOTED_TEXT}').match(text, pos).end() == len(text):  # still open
        fault = "unexpected end of data"
    else:  # text after its closing quote
        fault = "',' expected after '\"'"
    return FormatError(f"malformed CSV at line {line}: {fault}")


def record_span(data: bytes, magic: str, *, lenient_tail: bool = False) -> tuple[int, int, bool]:
    """Check the framing of a record file; return (start, end, tail_truncated).

    ``data[start:end]`` holds the complete record lines after the magic
    first line.  With ``lenient_tail`` a final line lacking its LF lies
    past ``end`` and is flagged instead of raising.  Only the magic line is
    decoded; the record lines are left for ``parse_record_lines``.
    """
    end = data.rfind(b"\n") + 1
    truncated = end != len(data)
    if truncated and not lenient_tail:
        raise FormatError("file does not end with a newline")
    if end == 0:
        if truncated:
            return 0, 0, True  # even the magic line is incomplete
        raise FormatError("missing magic line")
    start = data.index(b"\n") + 1
    try:
        first = str(memoryview(data)[: start - 1], "utf-8")
    except UnicodeDecodeError:
        raise FormatError("magic line is not valid UTF-8") from None
    if first != magic:
        raise FormatError(f"bad magic line {first!r}, expected {magic!r}")
    return start, end, truncated


def parse_record_lines(sources: Iterable[tuple[str | None, bytes, Iterable[tuple[int, int]]]],
                       cols: Callable[[str], bool] | None = None) -> AssociativeArray:
    """Fold the record lines of each ``(name, data, spans)`` of ``sources``, oldest first, into one array.

    ``spans`` are ascending pairs of line starts within the bounds
    ``record_span`` returned for ``data``, which has checked framing and
    magic.  The magic line picks the rules: a triple file's record combines
    with its cell's fold so far by ``LATTICE.plus``; a segment follows the
    module docstring's rules, and its record replaces the cell's fold.  Keys
    and values pass ``check_key`` and ``check_value``; an error names the
    first faulty line, numbered within its ``data``, after "segment NAME: "
    unless ``name`` is None (a triple file).  A line whose column ``cols`` (a
    ``KeySpec.matches``) refuses is split into its four fields, then dropped.
    The fold is wrapped as it is while every kept record came from one
    source in strict (row, col) order with no empty value, else sorted and
    screened; it is marked text-free when no text record was kept.
    """
    # A field that came from strict UTF-8 split on LF and TAB can break the key and text rules only by being
    # empty (keys) or by holding a CR, and only the lines of a piece that holds a CR are searched for one.
    fold: dict[str, dict[str, Value | None]] = {}
    numbers: dict[str, float] = {}  # number texts that passed both checks
    ordered, numeric, kept = True, True, False  # kept: an earlier source kept a record
    for name, data, spans in sources:
        segment = data.startswith(_SEGMENT_HEAD)
        plus = None if segment else LATTICE.plus
        where = "" if name is None else f"segment {name}: "  # an error's prefix
        ordered = ordered and not (kept and plus)  # the fold may hold a cell this file repeats
        last_row, last_col = "", ""  # "" is below every key: keys are non-empty
        # A piece ends just after an LF, which never occurs inside a UTF-8 sequence.  On a
        # decoding error, parse the piece's lines before the bad one (an earlier error wins).
        view, bad_at = memoryview(data), None
        try:
            for start, end in spans:
                while bad_at is None and start < end:  # ``start``: the first line not yet parsed
                    cut = data.find(b"\n", min(start + _PIECE, end) - 1) + 1
                    try:
                        text = str(view[start:cut], "utf-8")
                    except UnicodeDecodeError as exc:
                        bad_at = cut = data.rfind(b"\n", 0, start + exc.start) + 1
                        text = str(view[start:cut], "utf-8")
                    cr = "\r" in text
                    lines = text.split("\n")
                    lines.pop()  # the empty text after the piece's final LF
                    for i, line in enumerate(lines):
                        try:
                            row, col, tag, valtext = line.split("\t", 3)
                        except ValueError:
                            raise FormatError("expected 4 tab-separated fields") from None
                        if cols is not None and col and not cols(col):  # an empty column fails as a key below
                            continue
                        if not row or not col or cr and "\r" in line:
                            check_key(row)
                            check_key(col)
                        value: Value | None
                        if tag == "n":
                            value = numbers.get(valtext)
                            if value is None:
                                if not _NUMBER_RE.match(valtext):
                                    raise FormatError(f"unparseable number {valtext!r}")
                                value = float(valtext)
                                if not math.isfinite(value):
                                    raise FormatError(f"number {valtext!r} is not finite")
                                if len(numbers) < _CACHE_SIZE:
                                    numbers[valtext] = value
                        elif tag == "t":
                            if cr and "\r" in valtext:
                                check_value(valtext)
                            value, numeric = valtext, False
                        elif tag == "x" and segment:
                            if valtext != "":
                                raise FormatError("tombstone carries a payload")
                            value = None
                        else:
                            raise FormatError(f"unknown type tag {tag!r}")
                        if row != last_row:
                            ascends, cells, last_row = row > last_row, fold.setdefault(row, {}), row
                        else:
                            ascends = col > last_col
                        last_col = col
                        if not (ascends and value):
                            if segment and not ascends:
                                raise FormatError("record out of (row, col) order")
                            ordered = False
                        # While ordered, a triple file's cell is new: the records so far ascended.
                        cells[col] = plus(cells[col], value) if not ordered and plus and col in cells else value
                    start = cut
        except (FormatError, BadKeyError, BadValueError) as exc:
            raise FormatError(f"{where}line {line_number(data, start) + i}: {exc}") from None
        if bad_at is not None:
            raise FormatError(f"{where}line {line_number(data, bad_at)}: not valid UTF-8")
        if last_row:  # this source kept a record: a second one to do so unorders the fold
            ordered, kept = ordered and not kept, True
    text = lines = None  # free the last piece, which would otherwise add to the wrap's peak memory
    if ordered:
        return AssociativeArray._from_sorted(fold, numeric)
    return AssociativeArray._from_clean(fold, numeric=numeric)


def row_spans(data: bytes, intervals: list[tuple[str, str | None]]) -> Iterator[tuple[int, int]]:
    """Each non-empty byte span of framed ``data``'s record lines whose rows lie in one of ``intervals``.

    The lines must ascend by row, as a segment's do.  ``intervals`` are
    ``KeySpec.intervals()``: ascending ``[lo, hi)`` row key intervals, ``hi``
    None unbounded above.  Each bound is searched as UTF-8, whose byte order
    is key order.
    """
    pos, end = data.index(b"\n") + 1, len(data)
    for lo, hi in intervals:
        first = _row_lower_bound(data, pos, end, lo.encode("utf-8"))
        pos = end if hi is None else _row_lower_bound(data, first, end, hi.encode("utf-8"))
        if first < pos:
            yield first, pos


def _row_lower_bound(data: bytes, lo: int, hi: int, key: bytes) -> int:
    """The first line start in ``data[lo:hi]`` whose row is >= ``key``.

    ``lo`` and ``hi`` are line starts, and the lines between them ascend by
    row.  A line's row is its bytes before the first TAB; whole lines are
    not compared, because a row like "a\x01" sorts after "a" though its
    line sorts before "a<TAB>...".
    """
    while lo < hi:
        mid = (lo + hi) // 2
        start = data.rfind(b"\n", lo, mid) + 1 or lo
        stop = data.index(b"\n", start)
        tab = data.find(b"\t", start, stop)
        row = data[start : stop if tab < 0 else tab]
        if row < key:
            lo = stop + 1
        else:
            hi = start
    return lo


def line_number(data: bytes, offset: int) -> int:
    """The 1-based number of the line of ``data`` that holds byte ``offset``."""
    return data.count(b"\n", 0, offset) + 1


def read_triples(source: BinaryIO) -> AssociativeArray:
    """Read a triple file; duplicate cells merge with the lattice max.

    Records may come in any order and may repeat a cell.  Repeats fold
    first; a cell whose fold is empty is then dropped.  The array is marked
    text-free when the parse found no text record.
    """
    data = source.read()
    start, end, _ = record_span(data, TRIPLES_MAGIC)
    return parse_record_lines([(None, data, [(start, end)])])


def encode_lines(lines: list[str]) -> bytes:
    """``lines`` as UTF-8, each terminated by LF: the framing of every file the package writes."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def encode_records(magic: str, rows: Mapping[str, Mapping[str, Value | None]]) -> bytes:
    """``magic``, then a line per cell of ``rows`` (row -> column -> value; None: tombstone)."""
    return b"".join(_record_pieces(magic, rows))


def _record_pieces(magic: str, rows: Mapping[str, Mapping[str, Value | None]]) -> Iterator[bytes]:
    """``encode_records``' bytes in pieces, cut after a row that takes a piece past ``_PIECE // 32`` cells."""
    lines = [magic]
    append = lines.append
    tails: dict[Value | None, str] = {None: "\tx\t"}  # tag and value text of tombstones and numbers
    for r, row in rows.items():
        head = r + "\t"
        for c, v in row.items():
            tail = tails.get(v)
            if tail is None:
                if isinstance(v, str):
                    append(f"{head}{c}\tt\t{v}")
                    continue
                tail = "\tn\t" + format_number(v)  # an array holds no -0.0 to take 0.0's text
                if len(tails) <= _CACHE_SIZE:
                    tails[v] = tail
            append(f"{head}{c}{tail}")
        if len(lines) > _PIECE // 32:
            yield encode_lines(lines)
            lines.clear()
    if lines:
        yield encode_lines(lines)


def _write_pieces(pieces: Iterator[bytes], sink: BinaryIO) -> int:
    """Write each piece to ``sink`` as it is made; returns the byte count written."""
    n = 0
    for piece in pieces:
        sink.write(piece)
        n += len(piece)
    return n


def write_triples(arr: AssociativeArray, sink: BinaryIO) -> int:
    """Write the canonical triple form; returns the byte count written."""
    return _write_pieces(_record_pieces(TRIPLES_MAGIC, arr._rows), sink)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(arr: AssociativeArray, sink: BinaryIO) -> int:
    """Render the array as a DOT digraph; returns the byte count written.

    Row and column keys share one node namespace; every entry becomes an
    edge labeled with its value.  Output order is sorted, so equal arrays
    render identically.
    """
    return _write_pieces(_dot_pieces(arr), sink)


def _dot_pieces(arr: AssociativeArray) -> Iterator[bytes]:
    """``export_dot``'s bytes in pieces, cut after a row that takes a piece past ``_PIECE // 32`` edges."""
    nodes = {k: _dot_quote(k) for k in dict.fromkeys(sorted(chain(arr.row_keys, arr.col_keys)))}
    tails: dict[Value, str] = {}
    cached = tails.get

    def tail(v: Value) -> str:
        text = f" [label={_dot_quote(v if isinstance(v, str) else format_number(v))}];"
        if len(tails) < _CACHE_SIZE:
            tails[v] = text
        return text

    lines = ["digraph aa {"]
    lines.extend(f"  {q};" for q in nodes.values())
    edges = 0
    for r, row in arr._rows.items():
        head = f"  {nodes[r]} -> "
        lines.append(head + ("\n" + head).join([nodes[c] + (cached(v) or tail(v)) for c, v in row.items()]))
        edges += len(row)
        if edges > _PIECE // 32:
            yield encode_lines(lines)
            lines.clear()
            edges = 0
    lines.append("}")
    yield encode_lines(lines)
