"""Element-wise and contracted operations over associative arrays.

All operations are pure: they take arrays plus a semiring and return a
new array.  Results equal to a canonical empty (or to the semiring's
representable additive identity) are dropped, which is what keeps the
no-empty-rows/columns property true by construction.
"""

from __future__ import annotations

from typing import Iterable

from .core import ALL, AssociativeArray, Axis, KeySet, Semiring, Value, _kept, _refuse_text


def _require_numeric(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> None:
    """Refuse text in either operand of a numeric-only semiring, the left one first."""
    if sr.numeric_only:
        for arr, side in ((a, "left"), (b, "right")):
            _refuse_text(arr, f"semiring {sr.name!r} is numeric-only but {side} operand holds text")


# Pass-through semiring (GraphBLAS's SECOND): ``times`` returns the right
# (data) operand, text included, and ``plus`` keeps the first term, so the
# smallest k wins.  Not in SEMIRINGS: it selects, it does not compute.
_SECOND = Semiring("second", lambda x, y: x, lambda x, y: y, None, None, False)


def eladd(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Entry-wise addition: union of supports, collisions folded with sr.plus.

    Walks the sorted union of row keys: a row that only one operand holds
    is shared as it is, and a row both hold is merged and its collisions
    folded.  Only folded collisions are screened, and one-sided cells only
    against a non-empty ``zero``.
    """
    _require_numeric(a, b, sr)
    plus, zero = sr.plus, sr.zero
    a_rows, b_rows = a._rows, b._rows
    out: dict[str, dict[str, Value]] = {}
    for r in sorted(a_rows.keys() | b_rows.keys()):
        ra, rb = a_rows.get(r), b_rows.get(r)
        if ra is None or rb is None:
            row = ra or rb
        else:
            row = {**ra, **rb}
            if len(row) > len(ra):  # b adds columns: restore column order
                row = {c: row[c] for c in sorted(row)}
            for c, va in ra.items():
                if c in rb:
                    v = plus(va, rb[c])
                    if _kept(r, c, v, zero):
                        row[c] = v
                    else:
                        del row[c]
        if zero:
            row = {c: v for c, v in row.items() if v != zero}
        if row:
            out[r] = row
    return AssociativeArray._from_sorted(out)


def elmult(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Entry-wise multiplication: intersection of supports, values via sr.times."""
    _require_numeric(a, b, sr)
    times, zero = sr.times, sr.zero
    a_rows, b_rows = a._rows, b._rows
    out: dict[str, dict[str, Value]] = {}
    for r in sorted(a_rows.keys() & b_rows.keys()):
        ra, rb = a_rows[r], b_rows[r]
        row = {}
        for c, va in ra.items():
            if c in rb:
                v = times(va, rb[c])
                if _kept(r, c, v, zero):
                    row[c] = v
        if row:
            out[r] = row
    return AssociativeArray._from_sorted(out)


def arrayprod(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Array product: C(i,j) folds sr.times(a(i,k), b(k,j)) with sr.plus over k.

    k runs over the shared middle keys, i.e. a's column keys intersected
    with b's row keys, in ascending key order.  Cells whose fold lands on
    the semiring's zero (or a canonical empty) are not stored.

    The product is built one row of a at a time (Gustavson's row-wise
    scheme): each (k, a(i,k)) of row i scales b's row k into a dict keyed
    by column alone, and only that row's columns need sorting before it
    is emitted.
    """
    _require_numeric(a, b, sr)
    b_rows = b._rows
    plus, times, zero = sr.plus, sr.times, sr.zero
    out: dict[str, dict[str, Value]] = {}
    for i, ra in a._rows.items():
        acc: dict[str, Value] = {}
        for k, av in ra.items():
            for j, bv in b_rows.get(k, {}).items():
                term = times(av, bv)
                acc[j] = plus(acc[j], term) if j in acc else term
        row = {j: acc[j] for j in sorted(acc) if _kept(i, j, acc[j], zero)}
        if row:
            out[i] = row
    return AssociativeArray._from_sorted(out)


def mask_select(t: AssociativeArray, mask: AssociativeArray) -> AssociativeArray:
    """Entries of t whose cell is present in mask; values come from t.

    The element-wise product of mask and t under the pass-through semiring.
    """
    return elmult(mask, t, _SECOND)


def delete_entries(t: AssociativeArray, mask: AssociativeArray) -> AssociativeArray:
    """Entries of t whose cell is absent from mask; complement of mask_select.

    A row the mask does not touch is shared as it is.
    """
    m_rows = mask._rows
    out: dict[str, dict[str, Value]] = {}
    for r, row in t._rows.items():
        if r in m_rows:
            row = {c: v for c, v in row.items() if c not in m_rows[r]}
        if row:
            out[r] = row
    return AssociativeArray._from_sorted(out)


def perm_select(t: AssociativeArray, keys: Iterable[str], axis: Axis) -> AssociativeArray:
    """Select whole rows (or columns) of t by key list.

    This is the paper's product with an identity permutation array on
    ``keys`` (``selector @ t`` for rows, ``t @ selector`` for columns),
    computed as the equal subarray: ``t.subarray(KeySet(keys), ALL)`` or
    the column-side analogue, text values included.  Duplicate keys are
    deduplicated; unknown keys simply select nothing.
    """
    spec = KeySet(dict.fromkeys(keys))
    return t.subarray(spec, ALL) if Axis(axis) is Axis.ROW else t.subarray(ALL, spec)
