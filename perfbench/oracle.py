"""Reference results for the benchmark, built with the standard library only.

Nothing here imports aakit.  Each oracle recomputes an operation's result
from the generated inputs with the plainest code that can do it (dict
folds, set filters, pair counting), and renders it in the canonical byte
form the program is specified to produce.  The benchmark compares SHA-256
digests of the two byte strings, so a result that differs by one byte
counts as wrong.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

TRIPLES_MAGIC = "%aa-triples 1"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fmt_number(x: float) -> str:
    """Shortest decimal that reads back as x; integers print without a point."""
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def record_line(row: str, col: str, value) -> str:
    if isinstance(value, str):
        return f"{row}\t{col}\tt\t{value}\n"
    return f"{row}\t{col}\tn\t{fmt_number(value)}\n"


def triples_bytes(cells) -> bytes:
    """Triple-file bytes for (row, col, value) cells, in the order given."""
    parts = [TRIPLES_MAGIC, "\n"]
    parts.extend(record_line(r, c, v) for r, c, v in cells)
    return "".join(parts).encode("utf-8")


def canonical(table: dict) -> list:
    """Cells of a {(row, col): value} table in (row, col) order."""
    return [(r, c, v) for (r, c), v in sorted(table.items())]


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_bytes(cells: list) -> bytes:
    """DOT rendering: every key once as a node, then one labelled edge per cell."""
    nodes = sorted({r for r, _, _ in cells} | {c for _, c, _ in cells})
    lines = ["digraph aa {"]
    lines.extend(f"  {_dot_quote(k)};" for k in nodes)
    for r, c, v in cells:
        label = v if isinstance(v, str) else fmt_number(v)
        lines.append(f"  {_dot_quote(r)} -> {_dot_quote(c)} [label={_dot_quote(label)}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- folds and products ---------------------------------------------------------


def max_fold(records) -> dict:
    """Duplicate cells keep their largest value (numbers only)."""
    table: dict = {}
    for r, c, v in records:
        cell = (r, c)
        if cell not in table or v > table[cell]:
            table[cell] = v
    return table


def column_pair_counts(cells) -> dict:
    """For each column, count every (row, row') pair that shares it."""
    by_col = defaultdict(list)
    for r, c, _ in cells:
        by_col[c].append(r)
    counts: Counter = Counter()
    for rows in by_col.values():
        for i in rows:
            for j in rows:
                counts[(i, j)] += 1
    return {cell: float(n) for cell, n in counts.items()}


def product_terms(cells) -> int:
    """Terms of A times its transpose: the sum over columns of (column size) squared."""
    sizes = Counter(c for _, c, _ in cells)
    return sum(n * n for n in sizes.values())


# -- selection ------------------------------------------------------------------


def predicate(spec):
    """A key test from a spec tuple: ("all",), ("set", keys), ("range", lo, hi), ("prefix", p)."""
    kind = spec[0]
    if kind == "all":
        return lambda k: True
    if kind == "set":
        keys = frozenset(spec[1])
        return keys.__contains__
    if kind == "range":
        lo, hi = spec[1], spec[2]
        return lambda k: lo <= k <= hi
    if kind == "prefix":
        p = spec[1]
        return lambda k: k.startswith(p)
    raise ValueError(f"unknown spec kind {kind!r}")


def select(table: dict, rows, cols) -> dict:
    rp, cp = predicate(rows), predicate(cols)
    return {(r, c): v for (r, c), v in table.items() if rp(r) and cp(c)}


# -- element-wise algebra ---------------------------------------------------------

SEMIRINGS = {
    "arith": (lambda a, b: a + b, lambda a, b: a * b),
    "maxplus": (max, lambda a, b: a + b),
    "minplus": (min, lambda a, b: a + b),
    "maxmin": (max, min),
    "lattice": (max, min),  # numbers only here: the lattice is max/min
}


def _drop_empty(table: dict) -> dict:
    return {cell: v for cell, v in table.items() if v != 0.0 and v != ""}


def eladd(a: dict, b: dict, sr: str) -> dict:
    plus, _ = SEMIRINGS[sr]
    out = dict(a)
    for cell, v in b.items():
        out[cell] = plus(out[cell], v) if cell in out else v
    return _drop_empty(out)


def elmult(a: dict, b: dict, sr: str) -> dict:
    _, times = SEMIRINGS[sr]
    return _drop_empty({cell: times(v, b[cell]) for cell, v in a.items() if cell in b})


# -- graph views -----------------------------------------------------------------


def transpose(table: dict) -> dict:
    return {(c, r): v for (r, c), v in table.items()}


def symmetrize(table: dict) -> dict:
    out = {cell: 1.0 for cell in table}
    out.update({(c, r): 1.0 for (r, c) in table})
    return out


def degree(table: dict, axis: str) -> dict:
    pick = 0 if axis == "row" else 1
    counts = Counter(cell[pick] for cell in table)
    return {(k, "deg"): float(n) for k, n in counts.items()}


def bfs(table: dict, sources, steps: int) -> dict:
    """Keys reachable in exactly ``steps`` hops, as the one-row array "front"."""
    present = {r for r, _ in table} | {c for _, c in table}
    succ = defaultdict(set)
    for r, c in table:
        succ[r].add(c)
    frontier = {s for s in sources if s in present}
    for _ in range(steps):
        frontier = {j for k in frontier for j in succ.get(k, ())}
    return {("front", k): 1.0 for k in frontier}


# -- store -----------------------------------------------------------------------


class StoreFold:
    """The table a store must hold: the latest record wins, a tombstone deletes."""

    def __init__(self):
        self.live: dict = {}

    def insert(self, table: dict) -> None:
        self.live.update(table)

    def delete(self, cells) -> None:
        for cell in cells:
            self.live.pop(cell, None)
