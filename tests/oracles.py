"""Independent reference implementations used to cross-check the library.

Each reference rule is written here once, and no oracle calls an aakit
semiring operation, the value order or a reader: the built-in semirings'
operations are ``_OPERATIONS`` over the value order ``_order``, and the
file formats are rebuilt from their specification.  The machinery differs
too: exact Fraction arithmetic instead of float elimination, Jacobi
rotations instead of power iteration, plain nested loops instead of
indexed sparse folds, and set arithmetic instead of pass-through products.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from aakit import ARITH, AssociativeArray, Semiring


def _order(v) -> tuple:
    """The value order: every number sorts below every text; numbers by value, texts by code point."""
    return (isinstance(v, str), v)


# (plus, times) by semiring name: the five built-in semirings, and the
# pass-through "second", whose plus keeps the first term and times the right
# operand.  A semiring that a test builds has no oracle: its test states the values.
_OPERATIONS = {
    "arith": (operator.add, operator.mul),
    "maxplus": (max, operator.add),
    "minplus": (min, operator.add),
    "maxmin": (max, min),
    "lattice": (lambda x, y: max(x, y, key=_order), lambda x, y: min(x, y, key=_order)),
    "second": (lambda x, y: x, lambda x, y: y),
}


def product_oracle(a: AssociativeArray, b: AssociativeArray, sr: Semiring = ARITH) -> dict:
    """Array product by three nested loops over the full key grids.

    Each cell folds its terms with sr's plus in ascending middle-key order
    and is left out when the fold is 0.0, "" or the semiring's zero.
    """
    plus, times = _OPERATIONS[sr.name]
    out = {}
    shared = sorted(set(a.col_keys) & set(b.row_keys))
    for i in a.row_keys:
        for j in b.col_keys:
            total = None
            for k in shared:
                av = a.get(i, k)
                bv = b.get(k, j)
                if av is not None and bv is not None:
                    term = times(av, bv)
                    total = term if total is None else plus(total, term)
            if total is not None and _kept(total, sr):
                out[(i, j)] = total
    return out


def _kept(value, sr: Semiring) -> bool:
    return value not in (0.0, "") and value != sr.zero


def eladd_oracle(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> dict:
    """Entry-wise sum by set union of the two supports and per-cell lookups."""
    plus = _OPERATIONS[sr.name][0]
    out = {}
    for cell in set(a.support()) | set(b.support()):
        av, bv = a.get(*cell), b.get(*cell)
        v = bv if av is None else av if bv is None else plus(av, bv)
        if _kept(v, sr):
            out[cell] = v
    return out


def elmult_oracle(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> dict:
    """Entry-wise product by set intersection of the two supports."""
    times = _OPERATIONS[sr.name][1]
    out = {}
    for cell in set(a.support()) & set(b.support()):
        v = times(a.get(*cell), b.get(*cell))
        if _kept(v, sr):
            out[cell] = v
    return out


def symmetrize_oracle(a: AssociativeArray) -> dict:
    """Undirected view: 1.0 on each cell of the support and of its mirror, by set union."""
    support = set(a.support())
    return dict.fromkeys(support | {(c, r) for r, c in support}, 1.0)


def transpose_oracle(a: AssociativeArray) -> dict:
    return {(c, r): v for r, c, v in a}


def correlate_oracle(a: AssociativeArray) -> dict:
    return product_oracle(a, a.transpose())


def fraction_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix via Fraction Gauss-Jordan."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def jacobi_eigenvalues(mat: list[list[float]]) -> list[float]:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    n = len(mat)
    a = [row[:] for row in mat]
    for _ in range(100):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < 1e-13:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < 1e-15:
                    continue
                if a[q][q] == a[p][p]:
                    t = 1.0
                else:
                    theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p][k]
                    aqk = a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


def bfs_oracle(edges: set[tuple[str, str]], sources: list[str], steps: int) -> set[str]:
    """Exact-k-hop frontier by plain set expansion."""
    vertices = {u for u, _ in edges} | {v for _, v in edges}
    frontier = {s for s in sources if s in vertices}
    for _ in range(steps):
        frontier = {v for u, v in edges if u in frontier}
    return frontier


def store_fold_oracle(batches: list[tuple[str, AssociativeArray]]) -> dict:
    """In-memory supersede fold: inserts assign cells, deletes remove them."""
    content: dict = {}
    for kind, arr in batches:
        if kind == "insert":
            for r, c, v in arr:
                content[(r, c)] = v
        else:
            for cell in arr.support():
                content.pop(cell, None)
    return content


# -- file formats ---------------------------------------------------------------


def _number_text(x: float) -> str:
    """Shortest round-trip decimal: ``repr``, with integral values below 1e16 as integers."""
    return str(int(x)) if x.is_integer() and abs(x) < 1e16 else repr(x)


def _decimal(text: str) -> float | None:
    """A finite decimal in ASCII digits, or None: ``float`` reads it once no other character is there."""
    if not text or not set(text) <= set("0123456789+-.eE"):
        return None
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def triples_bytes_oracle(cells: dict, magic: str = "%aa-triples 1") -> bytes:
    """A record file for a {(row, col): value} table, from the format's specification.

    The magic line, then one line per cell in (row, col) order: row, column,
    tag and value text joined by TABs, where a number is tagged ``n``, text
    ``t``, and None (a store tombstone) ``x`` with an empty value text.
    """
    out = [magic + "\n"]
    for (r, c), v in sorted(cells.items()):
        if v is None:
            tag, text = "x", ""
        elif isinstance(v, str):
            tag, text = "t", v
        else:
            tag, text = "n", _number_text(v)
        out.append("\t".join((r, c, tag, text)) + "\n")
    return "".join(out).encode("utf-8")


def _dot_id(s: str) -> str:
    return '"' + "".join("\\" + ch if ch in '"\\' else ch for ch in s) + '"'


def dot_bytes_oracle(cells: dict) -> bytes:
    """The DOT digraph for a {(row, col): value} table, from the format's specification.

    Every row and column key once as a quoted node in sorted order, then one
    edge per cell in (row, col) order labelled with its value text;
    backslashes and double quotes are escaped with a backslash.
    """
    keys = sorted({k for cell in cells for k in cell})
    out = ["digraph aa {\n"]
    out.extend(f"  {_dot_id(k)};\n" for k in keys)
    for (r, c), v in sorted(cells.items()):
        label = v if isinstance(v, str) else _number_text(v)
        out.append(f"  {_dot_id(r)} -> {_dot_id(c)} [label={_dot_id(label)}];\n")
    out.append("}\n")
    return "".join(out).encode("utf-8")


def _csv_records(text: str):
    """Each RFC 4180 record of ``text`` as its fields, read one character at a time.

    A blank line gives [].  A quoting fault raises ValueError naming the line
    where its record starts, where CR, LF and CRLF each end a line.
    """
    i, n = 0, len(text)
    while i < n:
        line = 1 + sum(1 for k in range(i) if text[k] == "\r" or (text[k] == "\n" and text[k - 1 : k] != "\r"))
        where = f"malformed CSV at line {line}"
        if text[i] in "\r\n":
            i += 2 if text[i : i + 2] == "\r\n" else 1
            yield []
            continue
        fields, field, state = [], [], "start"  # start of a field, plain, quoted, closed
        while True:
            ch = text[i] if i < n else ""  # "" is the end of the text
            i += 1
            if state == "quoted":
                if ch == "":
                    raise ValueError(f"{where}: unexpected end of data")
                if ch == '"':
                    state = "closed"  # or the first quote of an escaped pair
                else:
                    field.append(ch)
            elif ch == '"':
                if state == "plain":
                    raise ValueError(f"{where}: '\"' in an unquoted field")
                if state == "closed":
                    field.append('"')
                state = "quoted"
            elif ch not in (",", "\r", "\n", ""):
                if state == "closed":
                    raise ValueError(f"{where}: ',' expected after '\"'")
                field.append(ch)
                state = "plain"
            else:
                fields.append("".join(field))
                field, state = [], "start"
                if ch != ",":
                    if ch == "\r" and text[i : i + 1] == "\n":
                        i += 1
                    break
        yield fields


def _csv_key_fault(key: str) -> str | None:
    if not key:
        return "key must be non-empty"
    if "\t" in key or "\n" in key or "\r" in key:
        return f"key {key!r} contains a forbidden control character"
    return None


def csv_table_oracle(text: str) -> dict:
    """A dense CSV table's stored cells {(row, col): value}, by RFC 4180 and the table rules.

    The first header cell is ignored and the others are column keys; each
    body row leads with its row key; blank lines are skipped; empty cells and
    zeros are not stored.  A fault raises ValueError with ``read_table``'s
    message for the first faulty record in file order; within a record,
    quoting comes before keys and cells.
    """
    records = _csv_records(text)
    header = next(records, None)
    if header is None:
        raise ValueError("table has no header row")
    col_keys = header[1:]
    for c in col_keys:
        if _csv_key_fault(c):
            raise ValueError(f"bad column key in header: {_csv_key_fault(c)}")
    if len(set(col_keys)) != len(col_keys):
        raise ValueError("duplicate column key in header")
    cells: dict = {}
    seen: set[str] = set()
    for fields in records:
        if not fields:
            continue
        row = fields[0]
        if _csv_key_fault(row):
            raise ValueError(f"bad row key: {_csv_key_fault(row)}")
        if row in seen:
            raise ValueError(f"duplicate row key {row!r}")
        seen.add(row)
        if len(fields) - 1 > len(col_keys):
            raise ValueError(f"row {row!r} has more cells than the header")
        for col, cell in zip(col_keys, fields[1:]):
            if "\r" in cell or "\n" in cell:
                raise ValueError(f"row {row!r}: text value {cell!r} contains a line break")
            value = cell if (x := _decimal(cell)) is None else x  # a number, else text
            if value != "" and value != 0.0:
                cells[(row, col)] = value
    return cells


def record_files_oracle(files, cols=None) -> dict:
    """The cells {(row, col): value} of record files, read one line at a time from the format's rules.

    ``files`` are ``(name, data)`` pairs, oldest first, each framed by its
    magic line and a final LF: one triple file (``name`` None) or store
    segments (``%aa-seg 1``).  Each record line decodes as strict UTF-8 and
    splits at its first three TABs into row, column, tag and value text.  A
    line whose non-empty column is not in the set ``cols`` is then skipped.
    A kept line has non-empty keys without CR, and is tagged ``n`` with a
    finite decimal in ASCII digits, ``t`` with text without CR, or, in a
    segment, ``x`` with nothing after it (a tombstone).  A segment's kept
    lines strictly ascend in (row, col) order.

    A triple file keeps a repeated cell's lattice max, where every number
    sorts below every text.  A segment's record replaces its cell in the
    older files' fold, and a tombstone deletes it.  Cells whose value is
    0.0 or "" are left out.  A fault raises ValueError(name, line), the
    1-based number of the first faulty line in the first file that has one.
    """
    folded: dict = {}
    for name, data in files:
        segment = data.startswith(b"%aa-seg 1\n")
        last = None  # the (row, col) of the segment's last kept line
        for number, raw in enumerate(data.split(b"\n")[1:-1], start=2):
            try:
                fields = raw.decode("utf-8").split("\t", 3)
            except UnicodeDecodeError:
                raise ValueError(name, number) from None
            if len(fields) != 4:
                raise ValueError(name, number)
            row, col, tag, text = fields
            if cols is not None and col and col not in cols:
                continue
            if not row or not col or "\r" in row + col:
                raise ValueError(name, number)
            if tag == "x" and segment and text == "":
                value = None  # a tombstone
            else:
                value = _decimal(text) if tag == "n" else text if tag == "t" and "\r" not in text else None
                if value is None:
                    raise ValueError(name, number)
            if segment:
                if last is not None and (row, col) <= last:
                    raise ValueError(name, number)
                last = (row, col)
                folded[(row, col)] = value
            else:
                old = folded.get((row, col))
                folded[(row, col)] = value if old is None else _OPERATIONS["lattice"][0](old, value)
    return {cell: v for cell, v in folded.items() if v is not None and v != 0.0 and v != ""}
