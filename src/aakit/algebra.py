"""Element-wise and contracted operations over associative arrays.

All operations are pure: they take arrays plus a semiring and return a
new array.  Results equal to a canonical empty (or to the semiring's
representable additive identity) are dropped, which is what keeps the
no-empty-rows/columns property true by construction.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterable

from .core import (ALL, ARITH, AssociativeArray, Axis, KeySet, Semiring, Value, _is_pattern, _kept, _lattice_plus,
                   _lattice_times, _not_str, _refuse_text)


def _require_numeric(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> None:
    """Refuse text in either operand of a numeric-only semiring, the left one first."""
    if sr.numeric_only:
        for arr, side in ((a, "left"), (b, "right")):
            _refuse_text(arr, f"semiring {sr.name!r} is numeric-only but {side} operand holds text")


# Pass-through semiring (GraphBLAS's SECOND): ``times`` returns the right
# (data) operand, text included, and ``plus`` keeps the first term, so the
# smallest k wins.  Not in SEMIRINGS: it selects, it does not compute.
_SECOND = Semiring("second", lambda x, y: x, lambda x, y: y, None, None, False)

# Operations with op(v, v) = v: under one of them, a row that both operands
# hold with equal content folds to itself.
_IDEMPOTENT = frozenset((max, min, _lattice_plus, _lattice_times))


def eladd(a: AssociativeArray, b: AssociativeArray, sr: Semiring) -> AssociativeArray:
    """Entry-wise addition: union of supports, collisions folded with sr.plus.

    Walks the sorted union of row keys: a row that only one operand holds
    is shared as it is, and so is a row both hold with equal content when
    ``plus`` is idempotent (max, min, the lattice's).  Any other row both
    hold is merged and its collisions folded.  Only folded collisions are
    screened, and the other cells only against a non-empty ``zero``.
    """
    _require_numeric(a, b, sr)
    plus, zero = sr.plus, sr.zero
    same = plus in _IDEMPOTENT
    a_rows, b_rows = a._rows, b._rows
    out: dict[str, dict[str, Value]] = {}
    for r in dict.fromkeys(sorted(chain(a_rows, b_rows))):  # one merge of two ascending runs
        ra, rb = a_rows.get(r), b_rows.get(r)
        if ra is None or rb is None or same and ra == rb:
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
    """Entry-wise multiplication: intersection of supports, values via sr.times.

    Under an idempotent ``times`` (max, min, the lattice's) a row that both
    operands hold with equal content is shared as it is, less any cell equal
    to a non-empty ``zero``; every other product is screened by ``_kept``.
    """
    _require_numeric(a, b, sr)
    times, zero = sr.times, sr.zero
    same = times in _IDEMPOTENT
    a_rows, b_rows = a._rows, b._rows
    out: dict[str, dict[str, Value]] = {}
    for r, ra in a_rows.items():  # rows ascend, so the output's do too
        if (rb := b_rows.get(r)) is None:
            continue
        if same and ra == rb:
            row = {c: v for c, v in ra.items() if v != zero} if zero else ra
        else:
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
    the semiring's zero (or a canonical empty) are not stored; a non-finite
    fold raises BadValueError naming its row's first such cell.

    The product is built one row of a at a time (Gustavson's row-wise
    scheme): each (k, a(i,k)) of row i scales b's row k into a dict keyed
    by column alone, and only that row's columns need sorting before it
    is emitted.  Two patterns (every value 1.0) under arith count the sorted
    columns of the rows of b that each row of a reaches: 1·1 = 1 and n ones
    sum to exactly n, so the cells are the fold's, never 0 nor non-finite.
    """
    _require_numeric(a, b, sr)
    b_rows = b._rows
    plus, times, zero = sr.plus, sr.times, sr.zero
    out: dict[str, dict[str, Value]] = {}
    if sr == ARITH and _is_pattern(a) and _is_pattern(b):
        for i, ra in a._rows.items():  # sorted first, so the counts come out in column order
            if counts := Counter(sorted(chain.from_iterable(filter(None, map(b_rows.get, ra))))):
                out[i] = dict(zip(counts, map(float, counts.values())))
        return AssociativeArray._from_sorted(out, True)
    for i, ra in a._rows.items():
        acc: dict[str, Value] = {}
        for k, av in ra.items():
            for j, bv in b_rows.get(k, {}).items():
                term = times(av, bv)
                acc[j] = plus(acc[j], term) if j in acc else term
        row = {j: v for j in sorted(acc) if (v := acc[j]) and v != zero}
        if row:
            try:  # one sum proves a numeric row finite; a row that is not, or holds text, is scanned
                finite = math.isfinite(sum(row.values()))
            except TypeError:
                finite = False
            if not finite:
                for j, v in row.items():
                    _kept(i, j, v)  # raises at the first non-finite cell in column order
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
    """Select whole rows (or columns) of t by an iterable of keys (a bare str is a TypeError).

    This is the paper's product with an identity permutation array on
    ``keys`` (``selector @ t`` for rows, ``t @ selector`` for columns),
    computed as the equal subarray: ``t.subarray(KeySet(keys), ALL)`` or
    the column-side analogue, text values included.  Duplicate keys are
    deduplicated; unknown keys simply select nothing.
    """
    spec = KeySet(dict.fromkeys(_not_str(keys, "keys")))
    return t.subarray(spec, ALL) if Axis(axis) is Axis.ROW else t.subarray(ALL, spec)
