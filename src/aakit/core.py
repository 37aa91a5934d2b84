"""Sparse associative arrays over string keys, with pluggable semirings.

An array is a finite map from (row key, column key) pairs to values that
are either 64-bit floats or UTF-8 text.  The empty values 0.0 and "" are
never stored, so row and column key sets are always derivable from the
entries and no row or column can be entirely empty.  Keys compare
bytewise on their UTF-8 encoding (identical to Python's str ordering).
Arrays are immutable; every operation returns a new array.

An array holds its cells once, as row dicts (row key -> column key ->
value): rows ascend by key, each row's columns ascend, and no row is
empty.  No row dict changes once an array holds it, so a result shares
the rows it leaves unchanged with its operands.  An array's first column
select filters its rows; its second builds the transpose and keeps it, so
that later column selects over all rows are row selects on it.  The kept
transpose holds no reference to its source, and pickles and copies hold
only the rows and the text mark.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

Value = float | str
Triple = tuple[str, str, Value]

_FORBIDDEN_IN_KEYS = ("\t", "\n", "\r")


class BadKeyError(ValueError):
    """Key is not non-empty UTF-8 text free of TAB, LF and CR."""


class BadValueError(ValueError):
    """Value cannot be stored: non-finite number, or text with a line break."""


class DomainError(TypeError):
    """Text value reached a numeric-only semiring or a numeric analysis."""


def check_key(key: str) -> str:
    """Validate one key, returning it unchanged."""
    if not isinstance(key, str):
        raise BadKeyError(f"key must be text, got {type(key).__name__}")
    if not key:
        raise BadKeyError("key must be non-empty")
    for ch in _FORBIDDEN_IN_KEYS:
        if ch in key:
            raise BadKeyError(f"key {key!r} contains a forbidden control character")
    try:
        key.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BadKeyError(f"key {key!r} is not encodable as UTF-8") from exc
    return key


def check_value(value) -> Value:
    """Normalize a raw value to a storable one; ints become floats.

    Line breaks are rejected in text because the triple file format is
    LF-framed with no escaping; TAB in text is fine.
    """
    if isinstance(value, str):
        if "\n" in value or "\r" in value:
            raise BadValueError(f"text value {value!r} contains a line break")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise BadValueError(f"text value {value!r} is not encodable as UTF-8") from exc
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadValueError(f"value must be a number or text, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise BadValueError(f"number value must be finite, got {value!r}")
    return value


def is_empty_value(value: Value) -> bool:
    """True for the canonical empties that are never stored: 0.0 and ""."""
    if isinstance(value, str):
        return value == ""
    return value == 0.0


def value_sort_key(value: Value) -> tuple[int, float | str]:
    """Total order over mixed values: all numbers precede all text.

    Numbers compare numerically, text compares bytewise (str order).
    """
    if isinstance(value, str):
        return (1, value)
    return (0, value)


def _kept(row: str, col: str, v: Value, zero: float | None = None) -> bool:
    """Screen one computed value before it is stored at (``row``, ``col``).

    False for a canonical empty or the semiring's ``zero`` (the value is
    dropped), BadValueError naming the cell for a non-finite number, else
    True.  Every operation result passes through here exactly once.
    """
    if not v or v == zero:
        return False
    if isinstance(v, float) and not math.isfinite(v):
        raise BadValueError(f"operation produced a non-finite number at {(row, col)!r}")
    return True


def _refuse_text(arr: AssociativeArray, prefix: str) -> None:
    """Raise DomainError("``prefix`` at (row, col)") for ``arr``'s first text cell, if any.

    The one text screen: numeric-only kernels and dense projections call it.
    A scan that finds no text marks the array, which no later call scans; text is never remembered.
    """
    if arr._numeric:
        return
    for r, row in arr._rows.items():
        for c, v in row.items():
            if isinstance(v, str):
                raise DomainError(f"{prefix} at ({r!r}, {c!r})")
    arr._numeric = True


def _transposed(rows: Mapping[str, dict[str, Value]]) -> dict[str, dict[str, Value]]:
    """``rows`` with its axes swapped; rows arrive ascending, so only the column keys need sorting."""
    out: dict[str, dict[str, Value]] = {}
    for r, row in rows.items():
        for c, v in row.items():
            out.setdefault(c, {})[r] = v
    return {c: out[c] for c in sorted(out)}


def _lattice_plus(a: Value, b: Value) -> Value:
    return b if value_sort_key(a) < value_sort_key(b) else a


def _lattice_times(a: Value, b: Value) -> Value:
    return a if value_sort_key(a) < value_sort_key(b) else b


@dataclass(frozen=True)
class Semiring:
    """A named (plus, times) pair over values.

    ``zero`` and ``one`` record the identities where they are representable
    as stored values; ``None`` means the identity exists only as absence of
    an entry.  A computed result equal to ``zero`` is not stored.
    ``numeric_only`` semirings refuse text operands.
    """

    name: str
    plus: Callable[[Value, Value], Value]
    times: Callable[[Value, Value], Value]
    zero: float | None
    one: float | None
    numeric_only: bool

    def __repr__(self):
        return f"Semiring({self.name!r})"


ARITH = Semiring("arith", lambda a, b: a + b, lambda a, b: a * b, 0.0, 1.0, True)
MAXPLUS = Semiring("maxplus", max, lambda a, b: a + b, None, 0.0, True)
MINPLUS = Semiring("minplus", min, lambda a, b: a + b, None, 0.0, True)
MAXMIN = Semiring("maxmin", max, min, None, None, True)
LATTICE = Semiring("lattice", _lattice_plus, _lattice_times, None, None, False)

SEMIRINGS: dict[str, Semiring] = {
    sr.name: sr for sr in (ARITH, MAXPLUS, MINPLUS, MAXMIN, LATTICE)
}


def get_semiring(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown semiring {name!r}; choose from {', '.join(sorted(SEMIRINGS))}"
        ) from None


class Axis(Enum):
    """An array axis; every call that takes one also takes its value, "row" or "column"."""
    ROW = "row"
    COLUMN = "column"


def _prefix_end(prefix: str) -> str | None:
    """The least key above every key that starts with ``prefix``; None if there is none."""
    stem = prefix.rstrip("\U0010ffff")  # U+10FFFF has no successor
    if not stem:
        return None
    nxt = ord(stem[-1]) + 1
    return stem[:-1] + chr(0xE000 if nxt == 0xD800 else nxt)  # no key holds a surrogate


class KeySpec:
    """Selects a subset of keys along one axis."""

    def matches(self, key: str) -> bool:
        raise NotImplementedError

    def intervals(self) -> list[tuple[str, str | None]] | None:
        """The matching keys as ascending, disjoint, half-open ``[lo, hi)`` intervals.

        ``hi`` None is unbounded above; None (the default) means filter by ``matches``.
        """
        return None

    def select(self, keys: tuple[str, ...]) -> list[str]:
        """The matching keys of ``keys``, a sorted tuple of distinct keys, in order.

        Bisects for each interval's ends, each search starting where the last stopped.
        """
        spans = self.intervals()
        if spans is None:
            return [k for k in keys if self.matches(k)]
        picked: list[str] = []
        start = 0
        for lo, hi in spans:
            start = bisect_left(keys, lo, start)
            end = len(keys) if hi is None else bisect_left(keys, hi, start)
            picked.extend(keys[start:end])
            start = end
        return picked


@dataclass(frozen=True)
class AllKeys(KeySpec):
    def matches(self, key: str) -> bool:
        return True

    def intervals(self) -> list[tuple[str, str | None]]:
        return [("", None)]


ALL = AllKeys()


@dataclass(frozen=True, init=False)
class KeySet(KeySpec):
    """An explicit, duplicate-free set of keys."""

    keys: tuple[str, ...]

    def __init__(self, keys: Iterable[str]):
        ks = tuple(check_key(k) for k in keys)
        if len(set(ks)) != len(ks):
            raise ValueError("key set contains duplicates")
        object.__setattr__(self, "keys", tuple(sorted(ks)))
        # Not a dataclass field, so equality and repr still see only ``keys``.
        object.__setattr__(self, "_members", frozenset(ks))

    def matches(self, key: str) -> bool:
        return key in self._members

    def intervals(self) -> list[tuple[str, str | None]]:
        return [(k, k + "\x00") for k in self.keys]


@dataclass(frozen=True)
class KeyRange(KeySpec):
    """All keys k with lo <= k <= hi, inclusive both ends, bytewise."""

    lo: str
    hi: str

    def __post_init__(self):
        check_key(self.lo)
        check_key(self.hi)
        if self.lo > self.hi:
            raise ValueError(f"malformed range: {self.lo!r} > {self.hi!r}")

    def matches(self, key: str) -> bool:
        return self.lo <= key <= self.hi

    def intervals(self) -> list[tuple[str, str | None]]:
        # NUL is a legal key character, so hi + NUL is the least key above hi.
        return [(self.lo, self.hi + "\x00")]


@dataclass(frozen=True)
class KeyPrefix(KeySpec):
    """All keys whose UTF-8 encoding starts with the prefix's encoding."""

    prefix: str

    def __post_init__(self):
        check_key(self.prefix)

    def matches(self, key: str) -> bool:
        return key.startswith(self.prefix)

    def intervals(self) -> list[tuple[str, str | None]]:
        return [(self.prefix, _prefix_end(self.prefix))]


class AssociativeArray:
    """Immutable sparse map from (row key, column key) to non-empty values.

    Construct from a mapping of ``(row, col) -> value``, which is
    validated like ``from_triples`` (a mapping repeats no cell); values
    equal to a canonical empty (0.0 or "") are silently dropped.  Entries
    iterate in ascending (row, col) order.
    """

    __slots__ = ("_rows", "_cols", "_numeric", "_t")

    def __init__(self, entries: Mapping[tuple[str, str], Value] = {}):
        self._set_slots(from_triples(((r, c, v) for (r, c), v in entries.items()), LATTICE)._rows)

    def _set_slots(self, rows: dict[str, dict[str, Value]], numeric: bool = False) -> None:
        self._rows = rows
        self._cols: tuple[str, ...] | None = None
        self._numeric = numeric  # True once known to hold no text (see _refuse_text)
        # None until a column select, False after one, then the transpose (see subarray).
        self._t: AssociativeArray | bool | None = None

    @classmethod
    def _from_clean(
        cls, rows: dict[str, dict[str, Value]], zero: float | None = None
    ) -> "AssociativeArray":
        """Sort ``rows`` and each row's columns, screen each value with ``_kept``, and wrap them.

        For internal callers whose keys are already valid (they came out of
        existing arrays or passed ``check_key``) but whose values are
        computed and may be empty, ``zero``, None or non-finite.  Rows left
        empty are dropped; the dicts passed in are not kept.
        """
        out: dict[str, dict[str, Value]] = {}
        for r in sorted(rows):
            row = rows[r]
            kept = {c: row[c] for c in sorted(row) if _kept(r, c, row[c], zero)}
            if kept:
                out[r] = kept
        return cls._from_sorted(out)

    @classmethod
    def _from_sorted(cls, rows: dict[str, dict[str, Value]], numeric: bool = False) -> "AssociativeArray":
        """Wrap ``rows`` (row key -> column key -> value) as an array, unchecked and uncopied.

        The caller guarantees the array invariants: every key passed
        ``check_key``; every value is non-empty and storable (a finite
        float or line-break-free text); rows iterate in ascending key
        order, and so do the columns within each row; no row is empty.
        Nothing is sorted or screened here.  ``rows`` and its row dicts
        become the array's storage and are never changed again, so other
        arrays may share them: a kernel copies a row it changes.
        ``numeric`` True vouches that no value is text (``_refuse_text`` skips its scan).
        """
        arr = cls.__new__(cls)
        arr._set_slots(rows, numeric)
        return arr

    def __reduce__(self):
        # Only the rows and the text mark: caches never enter a pickle or a copy.
        return (AssociativeArray._from_sorted, (self._rows, self._numeric))

    def __setstate__(self, state):
        """Load a pickle of an array's slot values, ``(None, {slot: value})``, as older arrays wrote."""
        self._set_slots(state[1]["_rows"], state[1].get("_numeric", False))

    # -- plain queries ----------------------------------------------------

    @property
    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    @property
    def row_keys(self) -> tuple[str, ...]:
        return tuple(self._rows)

    @property
    def col_keys(self) -> tuple[str, ...]:
        if self._cols is None:
            self._cols = tuple(sorted(set().union(*self._rows.values())))
        return self._cols

    def keys(self, axis: Axis) -> tuple[str, ...]:
        """Sorted keys with at least one entry on the given axis."""
        return self.row_keys if Axis(axis) is Axis.ROW else self.col_keys

    def get(self, row: str, col: str, default=None):
        """Value at (row, col), or ``default`` when the cell is empty."""
        return self._rows.get(row, {}).get(col, default)

    def items(self) -> list[tuple[tuple[str, str], Value]]:
        return [((r, c), v) for r, row in self._rows.items() for c, v in row.items()]

    def support(self) -> list[tuple[str, str]]:
        return [(r, c) for r, row in self._rows.items() for c in row]

    def triples(self) -> list[Triple]:
        return [(r, c, v) for r, row in self._rows.items() for c, v in row.items()]

    # -- derived arrays ---------------------------------------------------

    def subarray(self, rows: KeySpec = ALL, cols: KeySpec = ALL) -> "AssociativeArray":
        """Entries whose row key matches ``rows`` and column key matches ``cols``.

        Surviving entries keep their original keys.  Specs are resolved
        against the sorted keys; a row select shares the selected rows.
        An array's first column select filters.  From its second on, one
        over all rows takes the kept transpose's rows for the selected
        columns and transposes only those cells back; with a row spec as
        well, rows are selected first and then filtered.
        """
        picked = self._rows
        if not isinstance(rows, AllKeys):
            picked = {r: picked[r] for r in rows.select(self.row_keys)}
        elif not isinstance(cols, AllKeys) and self._t is not None:
            if self._t is False:
                self._t = self.transpose()
            t_rows = self._t._rows
            picked = {c: t_rows[c] for c in cols.select(self.col_keys)}
            return AssociativeArray._from_sorted(_transposed(picked), self._numeric)
        if not isinstance(cols, AllKeys):
            if self._t is None:
                self._t = False
            wanted = set(cols.select(self.col_keys))
            picked = {
                r: {c: v for c, v in row.items() if c in wanted}
                for r, row in picked.items()
                if not wanted.isdisjoint(row)  # build only rows that keep a cell
            }
        return AssociativeArray._from_sorted(picked, self._numeric)

    def transpose(self) -> "AssociativeArray":
        if isinstance(self._t, AssociativeArray):
            self._t._numeric |= self._numeric  # the source may have been scanned since
            return self._t
        return AssociativeArray._from_sorted(_transposed(self._rows), self._numeric)

    def logical(self) -> "AssociativeArray":
        """Same support, every value replaced by 1.0."""
        return AssociativeArray._from_sorted(
            {r: dict.fromkeys(row, 1.0) for r, row in self._rows.items()}, True
        )

    # -- dunder support ---------------------------------------------------

    def __len__(self) -> int:
        return self.nnz

    def __iter__(self) -> Iterator[Triple]:
        return ((r, c, v) for r, row in self._rows.items() for c, v in row.items())

    def __contains__(self, cell: tuple[str, str]) -> bool:
        return cell[1] in self._rows.get(cell[0], ())

    def __eq__(self, other):
        if not isinstance(other, AssociativeArray):
            return NotImplemented
        return self._rows == other._rows

    __hash__ = None  # mutable-looking container semantics

    def __repr__(self):
        shown = ", ".join(f"({r!r}, {c!r}): {v!r}" for r, c, v in islice(self, 4))
        if self.nnz > 4:
            shown += f", ... {self.nnz} entries"
        return f"AssociativeArray({{{shown}}})"


def from_triples(
    triples: Iterable[tuple[str, str, Value]], combiner: Semiring
) -> AssociativeArray:
    """Fold triples into an array; duplicate cells combine with combiner.plus.

    Triples land in sequence order, so a non-commutative fold would be
    order-sensitive; all built-in semirings have commutative plus.  A
    numeric-only combiner raises DomainError only when text is actually
    asked to combine (a lone text triple is fine).
    """
    acc: dict[str, dict[str, Value]] = {}
    for r, c, v in triples:
        r = check_key(r)
        c = check_key(c)
        v = check_value(v)
        row = acc.setdefault(r, {})
        if c in row:
            a = row[c]
            if combiner.numeric_only and (isinstance(a, str) or isinstance(v, str)):
                raise DomainError(
                    f"semiring {combiner.name!r} cannot combine text at cell {(r, c)!r}"
                )
            row[c] = combiner.plus(a, v)
        else:
            row[c] = v
    return AssociativeArray._from_clean(acc, combiner.zero)
