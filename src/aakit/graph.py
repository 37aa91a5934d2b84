"""Graph-flavored helpers over associative arrays.

An array doubles as a directed graph: row key -> column key per entry.
These helpers stay within the algebra: a BFS step is an array product
under a pass-through semiring.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain
from typing import Iterable

from .algebra import _SECOND, arrayprod, eladd
from .core import ARITH, MAXMIN, AssociativeArray, Axis


def degree(arr: AssociativeArray, axis: Axis) -> AssociativeArray:
    """Entry counts per key on an axis, as a single-column array under "deg"."""
    if Axis(axis) is Axis.ROW:
        counts = {r: len(row) for r, row in arr._rows.items()}
    elif isinstance(arr._t, AssociativeArray):  # a column select kept the transpose
        counts = {c: len(row) for c, row in arr._t._rows.items()}
    else:
        counts = Counter(chain.from_iterable(arr._rows.values()))
    return AssociativeArray._from_sorted({k: {"deg": float(counts[k])} for k in sorted(counts)})


def correlate(arr: AssociativeArray) -> AssociativeArray:
    """arr times its transpose under arith: co-occurrence counts on shared columns.

    Values must be numeric (``arrayprod`` raises DomainError naming the
    first text cell); call logical() first to correlate a text table's
    support pattern.
    """
    return arrayprod(arr, arr.transpose(), ARITH)


def symmetrize(arr: AssociativeArray) -> AssociativeArray:
    """Undirected view of a graph: logical support unioned with its transpose."""
    flat = arr.logical()
    return eladd(flat, flat.transpose(), MAXMIN)


def bfs(arr: AssociativeArray, sources: Iterable[str], steps: int) -> AssociativeArray:
    """Vertices reachable in exactly ``steps`` hops from ``sources``.

    Returns a single-row frontier under the row key "front" with value 1.0
    per reachable column key.  Step zero is the sources themselves,
    restricted to keys present in the array on either axis: a row key, or a
    column key found by bisecting the cached ``col_keys``.  Each step is
    ``arrayprod`` of the frontier with the array under a pass-through
    semiring (text values pass unchanged), followed by logical().
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps!r}")
    rows, cols = arr._rows, arr.col_keys
    frontier = AssociativeArray._from_clean({"front": {s: 1.0 for s in sources if s in rows or (
        isinstance(s, str) and bisect_left(cols, s) < bisect_right(cols, s))}})
    for _ in range(steps):
        frontier = arrayprod(frontier, arr, _SECOND).logical()
    return frontier
