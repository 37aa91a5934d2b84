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
from .core import ARITH, MAXMIN, AssociativeArray, Axis, _not_str


def degree(arr: AssociativeArray, axis: Axis) -> AssociativeArray:
    """Entry counts per key on an axis, as a single-column array under "deg"."""
    if Axis(axis) is Axis.ROW:
        rows = arr._rows
    elif isinstance(arr._t, AssociativeArray):  # a column select kept the transpose
        rows = arr._t._rows
    else:
        counts = Counter(chain.from_iterable(arr._rows.values()))
        return AssociativeArray._from_sorted({k: {"deg": float(counts[k])} for k in sorted(counts)})
    return AssociativeArray._from_sorted({k: {"deg": float(len(row))} for k, row in rows.items()})


def correlate(arr: AssociativeArray) -> AssociativeArray:
    """arr times its transpose under arith: co-occurrence counts on shared columns.

    Values must be numeric (``arrayprod`` raises DomainError naming the
    first text cell); call logical() first to correlate a text table's
    support pattern, as ``aakit correlate --logical`` does.  Both operands
    are then patterns, so ``arrayprod`` counts the shared columns.
    """
    return arrayprod(arr, arr.transpose(), ARITH)


def symmetrize(arr: AssociativeArray) -> AssociativeArray:
    """Undirected view of a graph: logical support unioned with its transpose."""
    flat = arr.logical()
    return eladd(flat, flat.transpose(), MAXMIN)


def bfs(arr: AssociativeArray, sources: Iterable[str], steps: int) -> AssociativeArray:
    """Vertices reachable in exactly ``steps`` hops from ``sources``, keys (a bare str is a TypeError).

    Returns a single-row frontier under the row key "front" with value 1.0
    per reachable column key.  Step zero is the sources themselves,
    restricted to keys present in the array on either axis: a row key, or a
    column key found by bisecting the cached ``col_keys``.  Each step is
    ``arrayprod`` of the frontier with the array under a pass-through
    semiring (text values pass unchanged), followed by logical().  Once a
    frontier repeats, the walk is periodic and whole periods are skipped: a
    cycle of any period (1 for a fixed point) is found by comparing each
    frontier with the one saved at the last of steps 0, 1, 3, 7, 15, ...
    (Brent's cycle detection), so the walk holds O(1) frontiers.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps!r}")
    rows, cols, sources = arr._rows, arr.col_keys, _not_str(sources, "sources")
    frontier = AssociativeArray._from_clean({"front": {s: 1.0 for s in sources if s in rows or (
        isinstance(s, str) and bisect_left(cols, s) < bisect_right(cols, s))}})
    saved, saved_at = frontier, 0
    for k in range(1, steps + 1):
        nxt = arrayprod(frontier, arr, _SECOND).logical()
        if nxt == saved:  # the walk repeats every k - saved_at steps: walk the rest of the last turn
            return bfs(arr, nxt.col_keys, (steps - k) % (k - saved_at))
        if k == 2 * saved_at + 1:  # saved moves at steps 1, 3, 7, 15, ...
            saved, saved_at = nxt, k
        frontier = nxt
    return frontier
