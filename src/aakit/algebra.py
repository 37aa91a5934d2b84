"""Element-wise and contracted operations over associative arrays.

All operations are pure: they take arrays plus a semiring and return a
new array.  Results equal to a canonical empty (or to the semiring's
representable additive identity) are dropped, which is what keeps the
no-empty-rows/columns property true by construction.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Iterable

from .core import AssociativeArray, Axis, BadValueError, DomainError, Semiring, Value
from .patterns import identity_from_keys


def _require_numeric(arr: AssociativeArray, sr: Semiring, side: str) -> None:
    if not sr.numeric_only:
        return
    for (r, c), v in arr.items():
        if isinstance(v, str):
            raise DomainError(
                f"semiring {sr.name!r} is numeric-only but {side} holds text at ({r!r}, {c!r})"
            )


def eladd(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Entry-wise addition: union of supports, collisions folded with sr.plus."""
    _require_numeric(a, sr, "left operand")
    _require_numeric(b, sr, "right operand")
    merged: dict[tuple[str, str], Value] = dict(a.items())
    for cell, v in b.items():
        if cell in merged:
            merged[cell] = sr.plus(merged[cell], v)
        else:
            merged[cell] = v
    return AssociativeArray._from_clean(
        {cell: v for cell, v in merged.items() if not sr.drops(v)}
    )


def elmult(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Entry-wise multiplication: intersection of supports, values via sr.times."""
    _require_numeric(a, sr, "left operand")
    _require_numeric(b, sr, "right operand")
    out: dict[tuple[str, str], Value] = {}
    for cell, va in a.items():
        vb = b.get(*cell)
        if vb is None:
            continue
        v = sr.times(va, vb)
        if not sr.drops(v):
            out[cell] = v
    return AssociativeArray._from_clean(out)


def arrayprod(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Array product: C(i,j) folds sr.times(a(i,k), b(k,j)) with sr.plus over k.

    k runs over the shared middle keys, i.e. a's column keys intersected
    with b's row keys, in ascending key order.  Cells whose fold lands on
    the semiring's zero (or a canonical empty) are not stored.

    The product is built one row of a at a time (Gustavson's row-wise
    scheme): a's entries come grouped by row in ascending (row, col)
    order, so each row accumulates into a dict keyed by column alone,
    and only that row's columns need sorting before it is emitted.
    """
    _require_numeric(a, sr, "left operand")
    _require_numeric(b, sr, "right operand")
    b_rows: dict[str, list[tuple[str, Value]]] = {}
    for (k, j), v in b.items():
        b_rows.setdefault(k, []).append((j, v))
    plus, times, drops = sr.plus, sr.times, sr.drops
    out: dict[tuple[str, str], Value] = {}
    for i, row in groupby(a.items(), key=lambda entry: entry[0][0]):
        acc: dict[str, Value] = {}
        for (_, k), av in row:
            for j, bv in b_rows.get(k, ()):
                term = times(av, bv)
                acc[j] = plus(acc[j], term) if j in acc else term
        for j in sorted(acc):
            v = acc[j]
            if drops(v):
                continue
            if isinstance(v, float) and not math.isfinite(v):
                raise BadValueError(f"operation produced a non-finite number at {(i, j)!r}")
            out[(i, j)] = v
    return AssociativeArray._from_sorted(out)


def mask_select(t: AssociativeArray, mask: AssociativeArray) -> AssociativeArray:
    """Entries of t whose cell is present in mask; values come from t."""
    return AssociativeArray._from_clean(
        {cell: v for cell, v in t.items() if cell in mask}
    )


def delete_entries(t: AssociativeArray, mask: AssociativeArray) -> AssociativeArray:
    """Entries of t whose cell is absent from mask; complement of mask_select."""
    return AssociativeArray._from_clean(
        {cell: v for cell, v in t.items() if cell not in mask}
    )


def _dedup(keys: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(keys))


def _pass_left(selector: AssociativeArray, t: AssociativeArray) -> AssociativeArray:
    # selector acts as a 0/1 matrix: each stored selector(i, k) passes t(k, j)
    # through unchanged, so text survives.  Should several k contribute to one
    # output cell, the first in ascending key order wins (with a permutation
    # selector there is never more than one).
    t_rows: dict[str, list[tuple[str, Value]]] = {}
    for (k, j), v in t.items():
        t_rows.setdefault(k, []).append((j, v))
    out: dict[tuple[str, str], Value] = {}
    for (i, k), _ in selector.items():
        for j, v in t_rows.get(k, ()):
            out.setdefault((i, j), v)
    return AssociativeArray._from_clean(out)


def _pass_right(t: AssociativeArray, selector: AssociativeArray) -> AssociativeArray:
    t_cols: dict[str, list[tuple[str, Value]]] = {}
    for (i, k), v in t.items():
        t_cols.setdefault(k, []).append((i, v))
    out: dict[tuple[str, str], Value] = {}
    for (k, j), _ in selector.items():
        for i, v in t_cols.get(k, ()):
            out.setdefault((i, j), v)
    return AssociativeArray._from_clean(out)


def perm_select(t: AssociativeArray, keys: Iterable[str], axis: Axis) -> AssociativeArray:
    """Select whole rows (or columns) of t by key list, via a pass-through product.

    Builds the identity permutation array on ``keys`` and multiplies it
    against t with pass-through semantics, which is exactly row/column
    selection: the result equals ``t.subarray(KeySet(keys), ALL)`` (or the
    column-side analogue) including text values.  Duplicate keys are
    deduplicated; unknown keys simply select nothing.
    """
    selector = identity_from_keys(_dedup(keys))
    if axis is Axis.ROW:
        return _pass_left(selector, t)
    return _pass_right(t, selector)
