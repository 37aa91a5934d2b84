"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against different machinery than
the code under test: exact Fraction arithmetic instead of float
elimination, Jacobi rotations instead of power iteration, plain nested
loops instead of indexed sparse folds, set arithmetic instead of
pass-through products, and the file formats rebuilt from their
specification instead of through ``aakit.io``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from aakit import ARITH, AssociativeArray, Semiring


def product_oracle(a: AssociativeArray, b: AssociativeArray, sr: Semiring = ARITH) -> dict:
    """Array product by three nested loops over the full key grids.

    Each cell folds its terms with sr.plus in ascending middle-key order
    and is left out when the fold is 0.0, "" or the semiring's zero.
    """
    out = {}
    shared = sorted(set(a.col_keys) & set(b.row_keys))
    for i in a.row_keys:
        for j in b.col_keys:
            total = None
            for k in shared:
                av = a.get(i, k)
                bv = b.get(k, j)
                if av is not None and bv is not None:
                    term = sr.times(av, bv)
                    total = term if total is None else sr.plus(total, term)
            if total is None or total in (0.0, "") or total == sr.zero:
                continue
            out[(i, j)] = total
    return out


def _kept(value, sr: Semiring) -> bool:
    return value not in (0.0, "") and value != sr.zero


def eladd_oracle(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> dict:
    """Entry-wise sum by set union of the two supports and per-cell lookups."""
    out = {}
    for cell in set(a.support()) | set(b.support()):
        av, bv = a.get(*cell), b.get(*cell)
        v = bv if av is None else av if bv is None else sr.plus(av, bv)
        if _kept(v, sr):
            out[cell] = v
    return out


def elmult_oracle(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> dict:
    """Entry-wise product by set intersection of the two supports."""
    out = {}
    for cell in set(a.support()) & set(b.support()):
        v = sr.times(a.get(*cell), b.get(*cell))
        if _kept(v, sr):
            out[cell] = v
    return out


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


def filter_keys_oracle(keys, predicate) -> set[str]:
    """Brute-force key filtering (for key spec equivalences)."""
    return {k for k in keys if predicate(k)}


# -- file formats ---------------------------------------------------------------


def _number_text(x: float) -> str:
    """Shortest round-trip decimal: ``repr``, with integral values below 1e16 as integers."""
    return str(int(x)) if x.is_integer() and abs(x) < 1e16 else repr(x)


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
