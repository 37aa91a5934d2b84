"""Constructors and recognizers for the named support patterns.

A permutation array pairs each of its row keys with exactly one column
key and vice versa, every value 1.0.  A clique covers the full cross
product of its row and column keys.  Both predicates are false for the
empty array, which has no keys to relate.
"""

from __future__ import annotations

from typing import Iterable

from .core import AssociativeArray, check_key


def identity_from_keys(keys: Iterable[str]) -> AssociativeArray:
    """The permutation array mapping each key to itself."""
    ks = tuple(check_key(k) for k in keys)
    if len(set(ks)) != len(ks):
        raise ValueError("duplicate key passed to identity_from_keys")
    return AssociativeArray._from_clean({k: {k: 1.0} for k in ks})


def perm_from_pairs(pairs: Iterable[tuple[str, str]]) -> AssociativeArray:
    """Permutation array from explicit (row, col) pairs.

    Raises ValueError if any row key or any column key repeats, since that
    would break the bijection on the support.
    """
    rows: dict[str, dict[str, float]] = {}
    cols_seen: set[str] = set()
    for r, c in pairs:
        r = check_key(r)
        c = check_key(c)
        if r in rows:
            raise ValueError(f"duplicate row key {r!r} in permutation pairs")
        if c in cols_seen:
            raise ValueError(f"duplicate column key {c!r} in permutation pairs")
        cols_seen.add(c)
        rows[r] = {c: 1.0}
    return AssociativeArray._from_clean(rows)


def is_permutation(arr: AssociativeArray) -> bool:
    """True when the support is a bijection between row and column keys."""
    if arr.nnz == 0:
        return False
    if any(v != 1.0 for _, _, v in arr):
        return False
    return len(arr.row_keys) == arr.nnz and len(arr.col_keys) == arr.nnz


def is_clique(arr: AssociativeArray) -> bool:
    """True when every row key relates to every column key."""
    return arr.nnz > 0 and arr.nnz == len(arr.row_keys) * len(arr.col_keys)
