"""Shared generators and invariant checks for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

import aakit
from aakit import AssociativeArray, KeyPrefix, KeyRange, KeySet, is_empty_value

KEY_POOL = [f"k{i:02d}" for i in range(12)] + ["édge", "中key", "a b", 'q"uote']

MAXCP = "\U0010ffff"
# (spec, keys, selected keys); each selects correctly only when the interval
# helper strips trailing U+10FFFF, skips the surrogates and bounds hi with NUL.
INTERVAL_EDGE_CASES = [
    (KeyPrefix("a" + MAXCP), ["a", "a" + MAXCP, "a" + MAXCP + "z", "a" + MAXCP * 2, "b"],
     ["a" + MAXCP, "a" + MAXCP + "z", "a" + MAXCP * 2]),
    (KeyPrefix(MAXCP), ["z", "\ue000", MAXCP, MAXCP + "a"], [MAXCP, MAXCP + "a"]),
    (KeyPrefix("a\ud7ff"), ["a", "a\ud7ff", "a\ud7ffz", "a\ue000", "b"], ["a\ud7ff", "a\ud7ffz"]),
    (KeyRange("a", "b"), ["a", "b", "b\x00", "b\x00a", "c"], ["a", "b"]),
    (KeySet(["b"]), ["a", "b", "b\x00", "b\x00a", "c"], ["b"]),
    (KeySet([]), ["a", "b"], []),  # no interval at all
]

WORDS = ["red", "green", "blue", "Rock", "Pop", "", "x\ty"]  # "" dropped on build


def check_invariants(arr: AssociativeArray) -> None:
    """Assert the structural properties every array must satisfy."""
    trips = arr.triples()
    assert trips == sorted(trips, key=lambda t: (t[0], t[1]))
    rows = set()
    cols = set()
    for r, c, v in trips:
        assert not is_empty_value(v), f"stored empty value at ({r!r}, {c!r})"
        assert isinstance(v, (float, str))
        rows.add(r)
        cols.add(c)
    assert arr.row_keys == tuple(sorted(rows))
    assert arr.col_keys == tuple(sorted(cols))
    assert arr.nnz == len(trips)
    for r, c, v in trips:
        assert arr.get(r, c) == v


def random_numeric_array(
    rng: random.Random,
    values: list[int],
    max_rows: int = 8,
    max_cols: int = 8,
    density: float = 0.5,
    row_pool: list[str] | None = None,
    col_pool: list[str] | None = None,
) -> AssociativeArray:
    row_pool = list(dict.fromkeys(row_pool or KEY_POOL))
    col_pool = list(dict.fromkeys(col_pool or KEY_POOL))
    rows = rng.sample(row_pool, rng.randint(1, min(max_rows, len(row_pool))))
    cols = rng.sample(col_pool, rng.randint(1, min(max_cols, len(col_pool))))
    entries = {}
    for r in rows:
        for c in cols:
            if rng.random() < density:
                entries[(r, c)] = float(rng.choice(values))
    return AssociativeArray(entries)


def random_mixed_array(rng: random.Random, max_rows: int = 6, max_cols: int = 6) -> AssociativeArray:
    rows = rng.sample(KEY_POOL, rng.randint(1, max_rows))
    cols = rng.sample(KEY_POOL, rng.randint(1, max_cols))
    entries = {}
    for r in rows:
        for c in cols:
            roll = rng.random()
            if roll < 0.35:
                entries[(r, c)] = float(rng.randint(-9, 9))
            elif roll < 0.6:
                entries[(r, c)] = rng.choice(WORDS)
    return AssociativeArray(entries)


NONZERO = [i for i in range(-9, 10) if i != 0]
POSITIVE = list(range(1, 10))


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this aakit."""
    src = str(Path(aakit.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
