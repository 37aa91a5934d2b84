"""File formats: dense CSV tables in, triple files in/out, DOT export.

The triple file is the package's canonical on-disk form.  It is UTF-8,
LF-framed, one record per line::

    %aa-triples 1
    row<TAB>col<TAB>n<TAB>3.5
    row<TAB>col2<TAB>t<TAB>free text (TABs allowed, line breaks not)

Numbers are rendered in their shortest round-trip decimal form, records
sort by (row, col), so equal arrays serialize to identical bytes.  Writers
walk row dicts; the record parser folds into them and reports sorted input.
A call converts each distinct number once until ``_CACHE_SIZE`` are cached.

The store's segment and MANIFEST bytes are this module's too.  The magic
line picks ``parse_record_lines``' rules: a segment's tag "x" marks a
tombstone and its cells strictly ascend in (row, col) order.  ``row_spans``
bisects sorted record lines for rows in key intervals.
"""

from __future__ import annotations

import csv
import math
import re
import threading
from io import StringIO
from typing import BinaryIO, Callable, Mapping

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
_CSV_FIELD_LIMIT_LOCK = threading.Lock()  # read_table raises csv's process-wide limit
_CACHE_SIZE = 1024  # a call drops a value cache this full: so many distinct values seldom repeat


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
    key characters and ragged long rows are rejected.
    """
    try:
        text = source.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"table is not valid UTF-8: {exc}") from None
    # csv's process-wide field limit is not the format's: raise it past any field, never lower it.
    with _CSV_FIELD_LIMIT_LOCK:
        saved = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
        try:
            return _parse_table(text)
        finally:
            csv.field_size_limit(saved)


def _parse_table(text: str) -> AssociativeArray:
    # newline="" leaves line breaks to csv, which ends rows on CR and LF only;
    # strict refuses text after a closing quote, and a quote left open.
    reader = csv.reader(StringIO(text, newline=""), strict=True)
    done = 0  # lines of whole records: an error names the next, where its record starts
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("table has no header row") from None
    except csv.Error as exc:
        raise FormatError(f"malformed CSV at line {done + 1}: {exc}") from None
    done = reader.line_num
    col_keys = header[1:]
    try:
        for c in col_keys:
            check_key(c)
    except BadKeyError as exc:
        raise FormatError(f"bad column key in header: {exc}") from None
    if len(set(col_keys)) != len(col_keys):
        raise FormatError("duplicate column key in header")

    rows: dict[str, dict[str, Value]] = {}
    try:
        for record in reader:
            done = reader.line_num
            if not record:
                continue
            row_key = record[0]
            try:
                check_key(row_key)
            except BadKeyError as exc:
                raise FormatError(f"bad row key: {exc}") from None
            if row_key in rows:
                raise FormatError(f"duplicate row key {row_key!r}")
            if len(record) - 1 > len(col_keys):
                raise FormatError(f"row {row_key!r} has more cells than the header")
            row = rows[row_key] = {}
            for j, cell in enumerate(record[1:]):
                if cell == "":
                    continue
                try:
                    row[col_keys[j]] = check_value(parse_cell(cell))
                except BadValueError as exc:
                    raise FormatError(f"row {row_key!r}: {exc}") from None
    except csv.Error as exc:
        raise FormatError(f"malformed CSV at line {done + 1}: {exc}") from None
    return AssociativeArray._from_clean(rows)


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


def parse_record_lines(data: bytes, start: int, end: int, into: dict[str, dict[str, Value | None]],
                       cols: Callable[[str], bool] | None = None) -> bool:
    """Fold the LF-framed record lines in ``data[start:end]`` into ``into``: row -> column -> value.

    ``start`` and ``end`` are line starts within the bounds ``record_span``
    returned for ``data``, which has already checked framing and magic.  The
    magic line picks the rules: a triple file's repeated cell combines with
    ``LATTICE.plus`` in file order; a segment follows the module docstring's
    rules (a tombstone reads as None), and its record replaces one already
    in ``into``.  Returns whether ``into`` started empty and the records
    strictly ascended by (row, col) with no empty value.  Keys and values
    pass ``check_key`` and ``check_value``; an error names the first faulty
    line, numbered from the start of ``data``.  A line whose column ``cols``
    (a ``KeySpec.matches``) refuses is split into its four fields, then dropped.
    """
    segment = data.startswith(_SEGMENT_HEAD)
    plus = None if segment else LATTICE.plus
    # Decode the span at once.  On a decoding error, parse the lines before
    # the bad one (an earlier error wins) and then report it; LF never
    # occurs inside a UTF-8 sequence, so the first bad byte lies on the
    # first line that does not decode by itself.
    bad_at = None
    try:
        text = str(memoryview(data)[start:end], "utf-8")
    except UnicodeDecodeError as exc:
        bad_at = data.rfind(b"\n", 0, start + exc.start) + 1
        text = str(memoryview(data)[start:bad_at], "utf-8")
    lines = text.split("\n")
    del text
    lines.pop()  # the piece after the final LF

    # A field that came from strict UTF-8 split on LF and TAB can break the
    # key and text rules only by being empty (keys) or by holding a CR.
    numbers: dict[str, float] | None = {}  # number texts that passed both checks
    ordered, last_row, last_col = not into, "", ""  # "" is below every key: keys are non-empty
    try:
        for i, line in enumerate(lines):
            try:
                row, col, tag, valtext = line.split("\t", 3)
            except ValueError:
                raise FormatError("expected 4 tab-separated fields") from None
            if cols is not None and col and not cols(col):  # an empty column fails as a key below
                continue
            if not row or not col or "\r" in line:
                check_key(row)
                check_key(col)
            value: Value | None
            if tag == "n":
                value = None if numbers is None else numbers.get(valtext)
                if value is None:
                    if not _NUMBER_RE.match(valtext):
                        raise FormatError(f"unparseable number {valtext!r}")
                    value = float(valtext)
                    if not math.isfinite(value):
                        raise FormatError(f"number {valtext!r} is not finite")
                    if numbers is not None:
                        numbers[valtext] = value
                        if len(numbers) == _CACHE_SIZE:
                            numbers = None
            elif tag == "t":
                if "\r" in valtext:
                    check_value(valtext)
                value = valtext
            elif tag == "x" and segment:
                if valtext != "":
                    raise FormatError("tombstone carries a payload")
                value = None
            else:
                raise FormatError(f"unknown type tag {tag!r}")
            if row != last_row:
                ascends, cells, last_row = row > last_row, into.setdefault(row, {}), row
            else:
                ascends = col > last_col
            last_col = col
            if not (ascends and value):
                if segment and not ascends:
                    raise FormatError("record out of (row, col) order")
                ordered = False
            # While ordered, the cell is new: every record so far ascended into an empty ``into``.
            cells[col] = plus(cells[col], value) if not ordered and plus and col in cells else value
    except (FormatError, BadKeyError, BadValueError) as exc:
        raise FormatError(f"line {line_number(data, start) + i}: {exc}") from None
    if bad_at is not None:
        raise FormatError(f"line {line_number(data, bad_at)}: not valid UTF-8")
    return ordered


def row_spans(data: bytes, intervals: list[tuple[str, str | None]]) -> list[tuple[int, int]]:
    """Byte spans of framed ``data``'s record lines whose rows lie in ``intervals``.

    The lines must ascend by row, as a segment's do.  ``intervals`` are
    ``KeySpec.intervals()``: ascending ``[lo, hi)`` row key intervals, ``hi``
    None unbounded above.  Each bound is searched as UTF-8, whose byte order
    is key order.  Touching spans merge.
    """
    spans: list[tuple[int, int]] = []
    pos, end = data.index(b"\n") + 1, len(data)
    for lo, hi in intervals:
        first = _row_lower_bound(data, pos, end, lo.encode("utf-8"))
        pos = end if hi is None else _row_lower_bound(data, first, end, hi.encode("utf-8"))
        if first < pos:
            if spans and spans[-1][1] == first:
                first = spans.pop()[0]
            spans.append((first, pos))
    return spans


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
    first; a cell whose fold is empty is then dropped.
    """
    data = source.read()
    start, end, _ = record_span(data, TRIPLES_MAGIC)
    rows: dict[str, dict[str, Value]] = {}
    if parse_record_lines(data, start, end, rows):
        return AssociativeArray._from_sorted(rows)
    return AssociativeArray._from_clean(rows)


def encode_lines(lines: list[str]) -> bytes:
    """``lines`` as UTF-8, each terminated by LF: the framing of every file the package writes."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def encode_records(magic: str, rows: Mapping[str, Mapping[str, Value | None]]) -> bytes:
    """``magic``, then a line per cell of ``rows`` (row -> column -> value; None: tombstone)."""
    lines = [magic]
    append = lines.append
    numbers: dict[float, str] | None = {}  # an array holds no -0.0 to take 0.0's text
    for r, row in rows.items():
        head = r + "\t"
        for c, v in row.items():
            if v is None:
                append(f"{head}{c}\tx\t")
            elif isinstance(v, str):
                append(f"{head}{c}\tt\t{v}")
            else:
                text = None if numbers is None else numbers.get(v)
                if text is None:
                    text = format_number(v)
                    if numbers is not None:
                        numbers[v] = text
                        if len(numbers) == _CACHE_SIZE:
                            numbers = None
                append(f"{head}{c}\tn\t{text}")
    return encode_lines(lines)


def write_triples(arr: AssociativeArray, sink: BinaryIO) -> int:
    """Write the canonical triple form; returns the byte count written."""
    payload = encode_records(TRIPLES_MAGIC, arr._rows)
    sink.write(payload)
    return len(payload)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(arr: AssociativeArray, sink: BinaryIO) -> int:
    """Render the array as a DOT digraph; returns the byte count written.

    Row and column keys share one node namespace; every entry becomes an
    edge labeled with its value.  Output order is sorted, so equal arrays
    render identically.
    """
    nodes = {k: _dot_quote(k) for k in sorted(set(arr.row_keys) | set(arr.col_keys))}
    tails: dict[Value, str] | None = {}
    lines = ["digraph aa {"]
    lines.extend(f"  {q};" for q in nodes.values())
    for r, row in arr._rows.items():
        head = f"  {nodes[r]} -> "
        for c, v in row.items():
            tail = None if tails is None else tails.get(v)
            if tail is None:
                tail = f" [label={_dot_quote(v if isinstance(v, str) else format_number(v))}];"
                if tails is not None:
                    tails[v] = tail
                    if len(tails) == _CACHE_SIZE:
                        tails = None
            lines.append(f"{head}{nodes[c]}{tail}")
    lines.append("}")
    payload = encode_lines(lines)
    sink.write(payload)
    return len(payload)
