"""Element-wise and contracted operations over associative arrays.

All operations are pure: they take arrays plus a semiring and return a
new array.  Results equal to a canonical empty (or to the semiring's
representable additive identity) are dropped, which is what keeps the
no-empty-rows/columns property true by construction.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

from .core import ALL, AssociativeArray, Axis, DomainError, KeySet, Semiring, Value, _kept


def _require_numeric(arr: AssociativeArray, sr: Semiring, side: str) -> None:
    if not sr.numeric_only:
        return
    for (r, c), v in arr.items():
        if isinstance(v, str):
            raise DomainError(
                f"semiring {sr.name!r} is numeric-only but {side} holds text at ({r!r}, {c!r})"
            )


# Pass-through semiring (GraphBLAS's SECOND): ``times`` returns the right
# (data) operand, text included, and ``plus`` keeps the first term, so the
# smallest k wins.  Not in SEMIRINGS: it selects, it does not compute.
_SECOND = Semiring("second", lambda x, y: x, lambda x, y: y, None, None, False)


def eladd(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Entry-wise addition: union of supports, collisions folded with sr.plus.

    A linear merge of the two sorted entry streams: only folded collisions
    are screened, and a one-sided cell only against a non-empty ``zero``.
    """
    _require_numeric(a, sr, "left operand")
    _require_numeric(b, sr, "right operand")
    plus, zero = sr.plus, sr.zero
    out: dict[tuple[str, str], Value] = {}
    rest_a, rest_b = iter(a.items()), iter(b.items())
    ea, eb = next(rest_a, None), next(rest_b, None)
    while ea is not None and eb is not None:
        if ea[0] < eb[0]:
            out[ea[0]] = ea[1]
            ea = next(rest_a, None)
        elif eb[0] < ea[0]:
            out[eb[0]] = eb[1]
            eb = next(rest_b, None)
        else:
            v = plus(ea[1], eb[1])
            if _kept(ea[0], v, zero):
                out[ea[0]] = v
            ea, eb = next(rest_a, None), next(rest_b, None)
    for entry, rest in ((ea, rest_a), (eb, rest_b)):
        if entry is not None:
            out[entry[0]] = entry[1]
            out.update(rest)
    if zero:
        out = {cell: v for cell, v in out.items() if v != zero}
    return AssociativeArray._from_sorted(out)


def elmult(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Entry-wise multiplication: intersection of supports, values via sr.times."""
    _require_numeric(a, sr, "left operand")
    _require_numeric(b, sr, "right operand")
    times, zero = sr.times, sr.zero
    out: dict[tuple[str, str], Value] = {}
    for cell, va in a.items():
        vb = b.get(*cell)
        if vb is None:
            continue
        v = times(va, vb)
        if _kept(cell, v, zero):
            out[cell] = v
    return AssociativeArray._from_sorted(out)


def arrayprod(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Array product: C(i,j) folds sr.times(a(i,k), b(k,j)) with sr.plus over k.

    k runs over the shared middle keys, i.e. a's column keys intersected
    with b's row keys, in ascending key order.  Cells whose fold lands on
    the semiring's zero (or a canonical empty) are not stored.

    The product is built one row of a at a time (Gustavson's row-wise
    scheme): a's entries come grouped by row in ascending (row, col)
    order, so each row accumulates into a dict keyed by column alone,
    and only that row's columns need sorting before it is emitted.  The
    rows of b come from b's cached row index, so repeated products with
    the same b build it once.
    """
    _require_numeric(a, sr, "left operand")
    _require_numeric(b, sr, "right operand")
    b_rows = b._by_row()
    plus, times, zero = sr.plus, sr.times, sr.zero
    out: dict[tuple[str, str], Value] = {}
    for i, row in groupby(a.items(), key=lambda entry: entry[0][0]):
        acc: dict[str, Value] = {}
        for (_, k), av in row:
            for j, bv in b_rows.get(k, ()):
                term = times(av, bv)
                acc[j] = plus(acc[j], term) if j in acc else term
        for j in sorted(acc):
            cell, v = (i, j), acc[j]
            if _kept(cell, v, zero):
                out[cell] = v
    return AssociativeArray._from_sorted(out)


def mask_select(t: AssociativeArray, mask: AssociativeArray) -> AssociativeArray:
    """Entries of t whose cell is present in mask; values come from t."""
    return AssociativeArray._from_sorted({cell: v for cell, v in t.items() if cell in mask})


def delete_entries(t: AssociativeArray, mask: AssociativeArray) -> AssociativeArray:
    """Entries of t whose cell is absent from mask; complement of mask_select."""
    return AssociativeArray._from_sorted({cell: v for cell, v in t.items() if cell not in mask})


def perm_select(t: AssociativeArray, keys: Iterable[str], axis: Axis) -> AssociativeArray:
    """Select whole rows (or columns) of t by key list.

    This is the paper's product with an identity permutation array on
    ``keys`` (``selector @ t`` for rows, ``t @ selector`` for columns),
    computed as the equal subarray: ``t.subarray(KeySet(keys), ALL)`` or
    the column-side analogue, text values included.  Duplicate keys are
    deduplicated; unknown keys simply select nothing.
    """
    spec = KeySet(dict.fromkeys(keys))
    return t.subarray(spec, ALL) if axis is Axis.ROW else t.subarray(ALL, spec)
