import copy
import gc
import pickle
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aakit import (
    ALL,
    ARITH,
    LATTICE,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    SEMIRINGS,
    AssociativeArray,
    Axis,
    BadKeyError,
    BadValueError,
    DomainError,
    KeyPrefix,
    KeyRange,
    KeySet,
    KeySpec,
    arrayprod,
    bfs,
    correlate,
    degree,
    delete_entries,
    eladd,
    elmult,
    from_triples,
    get_semiring,
    is_empty_value,
    mask_select,
    perm_select,
    symmetrize,
    value_sort_key,
)
from aakit.core import check_key, check_value

from helpers import (
    INTERVAL_EDGE_CASES,
    KEY_POOL,
    NONZERO,
    check_invariants,
    random_mixed_array,
    random_numeric_array,
)


# -- keys and values ---------------------------------------------------------


@pytest.mark.parametrize("bad", ["", "a\tb", "a\nb", "a\rb", 7, None])
def test_bad_keys_rejected(bad):
    with pytest.raises(BadKeyError):
        check_key(bad)


def test_keys_allow_most_text():
    for k in ["a", " ", "0", "key with spaces", "é中\U0010ffff", '"q"', "a,b"]:
        assert check_key(k) == k


def test_surrogate_key_rejected():
    with pytest.raises(BadKeyError):
        check_key("bad\ud800key")


def test_value_normalization():
    assert check_value(3) == 3.0
    assert isinstance(check_value(3), float)
    assert check_value("Rock") == "Rock"
    assert check_value("tab\tok") == "tab\tok"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True, None, b"x", "line\nbreak", "cr\rhere",
                                 "bad\ud800value"])
def test_bad_values_rejected(bad):
    with pytest.raises(BadValueError):
        check_value(bad)


def test_canonical_empties():
    assert is_empty_value(0.0)
    assert is_empty_value(-0.0)
    assert is_empty_value("")
    assert not is_empty_value(1e-300)
    assert not is_empty_value(" ")


def test_value_order_numbers_before_text():
    vals = ["b", 5.0, "a", -2.0, "10", 3.0]
    ordered = sorted(vals, key=value_sort_key)
    assert ordered == [-2.0, 3.0, 5.0, "10", "a", "b"]


# -- semirings ----------------------------------------------------------------


def test_registry_and_lookup():
    assert set(SEMIRINGS) == {"arith", "maxplus", "minplus", "maxmin", "lattice"}
    assert get_semiring("maxplus") is MAXPLUS
    with pytest.raises(ValueError):
        get_semiring("boolean")
    assert repr(ARITH) == "Semiring('arith')"


NUMERIC_SAMPLES = [-3.0, -1.0, 1.0, 2.0, 5.0]
LATTICE_SAMPLES = [-2.0, 1.0, 4.0, "Pop", "Rock", "a"]


@pytest.mark.parametrize("sr", [ARITH, MAXPLUS, MINPLUS, MAXMIN, LATTICE])
def test_semiring_laws(sr):
    # Associativity/commutativity of plus, associativity of times, and
    # distributivity, checked exhaustively on a small value sample.
    samples = LATTICE_SAMPLES if sr is LATTICE else NUMERIC_SAMPLES
    for a in samples:
        for b in samples:
            assert sr.plus(a, b) == sr.plus(b, a)
            for c in samples:
                assert sr.plus(sr.plus(a, b), c) == sr.plus(a, sr.plus(b, c))
                assert sr.times(sr.times(a, b), c) == sr.times(a, sr.times(b, c))
                lhs = sr.times(a, sr.plus(b, c))
                rhs = sr.plus(sr.times(a, b), sr.times(a, c))
                assert lhs == rhs


def test_arith_identities_representable():
    assert ARITH.zero == 0.0 and ARITH.one == 1.0
    for a in NUMERIC_SAMPLES:
        assert ARITH.plus(a, ARITH.zero) == a
        assert ARITH.times(a, ARITH.one) == a
        assert ARITH.times(a, ARITH.zero) == 0.0


def test_implicit_zeros_are_absent():
    # Only arith can represent its additive identity as a stored value.
    assert MAXPLUS.zero is None and MINPLUS.zero is None
    assert MAXMIN.zero is None and LATTICE.zero is None


def test_lattice_handles_text():
    assert LATTICE.plus("Pop", "Rock") == "Rock"
    assert LATTICE.times("Pop", "Rock") == "Pop"
    assert LATTICE.plus(5.0, "a") == "a"  # text sorts above every number
    assert LATTICE.times(5.0, "a") == 5.0


# -- key specs ----------------------------------------------------------------


def test_keyset_rejects_duplicates_and_sorts():
    with pytest.raises(ValueError):
        KeySet(["a", "a"])
    assert KeySet(["b", "a"]).keys == ("a", "b")


def test_keyrange_inclusive_and_ordered():
    r = KeyRange("b", "d")
    assert r.matches("b") and r.matches("d") and r.matches("c")
    assert not r.matches("a") and not r.matches("e")
    with pytest.raises(ValueError):
        KeyRange("d", "b")


def test_prefix_matches_bytewise():
    p = KeyPrefix("05")
    assert p.matches("05") and p.matches("053013ktnA1")
    assert not p.matches("0")
    assert not p.matches("06")


keys_strategy = st.text(
    st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150)
@given(keys=st.sets(keys_strategy, max_size=25), prefix=keys_strategy)
def test_prefix_equals_saturated_range(keys, prefix):
    # A prefix spec selects the same keys as the inclusive range from the
    # prefix to the prefix extended with the maximum code point.
    longest = max((len(k) for k in keys), default=0)
    hi = prefix + chr(0x10FFFF) * (longest + 1)
    by_prefix = {k for k in keys if KeyPrefix(prefix).matches(k)}
    by_range = {k for k in keys if KeyRange(prefix, hi).matches(k)}
    assert by_prefix == by_range
    assert by_prefix == {k for k in keys if k.startswith(prefix)}


def _filtered(spec, keys):
    return [k for k in keys if spec.matches(k)]


@settings(max_examples=200)
@given(keys=st.sets(keys_strategy, max_size=25), data=st.data())
def test_select_agrees_with_matches(keys, data):
    keys = tuple(sorted(keys))
    pool = st.sampled_from(keys) | keys_strategy if keys else keys_strategy
    picked = data.draw(st.lists(pool, max_size=8, unique=True))
    lo, hi = sorted(data.draw(st.tuples(pool, pool)))
    prefix = data.draw(pool)
    shorter = prefix[: data.draw(st.integers(1, len(prefix)))]
    for spec in (ALL, KeySet(picked), KeyRange(lo, hi), KeyPrefix(prefix), KeyPrefix(shorter)):
        assert spec.select(keys) == _filtered(spec, keys)


ASTRAL = "\U0001F600"
WIDE_KEYS = tuple(sorted(["a", "é", "éa", "中", "中文", ASTRAL, ASTRAL + "x", "\uffff"]))


@pytest.mark.parametrize("spec,keys,want", [
    # non-ASCII and astral-plane keys: code point order is UTF-8 byte order
    (KeyPrefix(ASTRAL), WIDE_KEYS, [ASTRAL, ASTRAL + "x"]),
    (KeyPrefix("中"), WIDE_KEYS, ["中", "中文"]),
    (KeyRange("é", "中文"), WIDE_KEYS, ["é", "éa", "中", "中文"]),
    (KeyRange("\uffff", ASTRAL), WIDE_KEYS, ["\uffff", ASTRAL]),
    (KeySet([ASTRAL + "x", "éa", "missing"]), WIDE_KEYS, ["éa", ASTRAL + "x"]),
    # a prefix that is itself a key, and a prefix run that ends the tuple
    (KeyPrefix("ab"), ("a", "ab", "abc", "abd", "b"), ["ab", "abc", "abd"]),
    (KeyPrefix("b"), ("a", "ba", "bb"), ["ba", "bb"]),
    (KeyPrefix("c"), ("a", "ba", "bb"), []),
    # the empty tuple
    (KeySet(["a"]), (), []),
    (KeyRange("a", "z"), (), []),
    (KeyPrefix("a"), (), []),
    # KeySet keys absent from the tuple, on both ends and between
    (KeySet(["0", "aa", "zz"]), ("a", "b"), []),
    (KeySet(["0", "b", "zz"]), ("a", "b", "c"), ["b"]),
    # lo == hi
    (KeyRange("b", "b"), ("a", "b", "c"), ["b"]),
    (KeyRange("b", "b"), ("a", "c"), []),
])
def test_select_fixed_cases(spec, keys, want):
    assert spec.select(keys) == want == _filtered(spec, keys)


# Code points at the edges of the interval arithmetic: NUL (the least key
# character), the last one below the surrogates, the first above them, and
# the greatest.
EDGE_CHARS = ["\x00", "a", "b", "\ud7ff", "\ue000", "\U0010fffe", "\U0010ffff"]
edge_keys_strategy = st.text(
    st.sampled_from(EDGE_CHARS) | st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    min_size=1,
    max_size=4,
)


def _bisect_encoded(spec, keys):
    """The keys in ``spec``'s intervals, found by bisecting UTF-8 bytes as the store does."""
    encoded = sorted(k.encode("utf-8") for k in keys)
    picked = []
    for lo, hi in spec.intervals():
        start = bisect_left(encoded, lo.encode("utf-8"))
        end = len(encoded) if hi is None else bisect_left(encoded, hi.encode("utf-8"))
        picked += encoded[start:end]
    return [k.decode("utf-8") for k in picked]


def _assert_ascending_disjoint(intervals):
    for i, (lo, hi) in enumerate(intervals):
        if hi is None:
            assert i == len(intervals) - 1
        else:
            assert lo < hi
        if i:
            assert intervals[i - 1][1] <= lo


@settings(max_examples=300)
@given(keys=st.sets(edge_keys_strategy, max_size=25), data=st.data())
def test_encoded_intervals_select_what_matches_selects(keys, data):
    keys = tuple(sorted(keys))
    pool = st.sampled_from(keys) | edge_keys_strategy if keys else edge_keys_strategy
    picked = data.draw(st.lists(pool, max_size=8, unique=True))
    lo, hi = sorted(data.draw(st.tuples(pool, pool)))
    prefix = data.draw(pool)
    shorter = prefix[: data.draw(st.integers(1, len(prefix)))]
    for spec in (ALL, KeySet(picked), KeyRange(lo, hi), KeyPrefix(prefix), KeyPrefix(shorter)):
        _assert_ascending_disjoint(spec.intervals())
        want = _filtered(spec, keys)
        assert _bisect_encoded(spec, keys) == want, spec
        assert spec.select(keys) == want, spec


@pytest.mark.parametrize("spec,keys,want", INTERVAL_EDGE_CASES)
def test_interval_edge_cases(spec, keys, want):
    keys = tuple(sorted(keys))
    assert spec.select(keys) == want == _filtered(spec, keys)
    assert _bisect_encoded(spec, keys) == want


def test_user_spec_has_no_intervals():
    assert KeySpec().intervals() is None
    with pytest.raises(NotImplementedError):
        KeySpec().matches("a")  # a user spec defines its own


class _EvenCodeSum(KeySpec):
    """A user spec that defines only ``matches``."""

    def matches(self, key):
        return sum(map(ord, key)) % 2 == 0


def test_user_spec_with_only_matches_selects_through_subarray(songs):
    spec = _EvenCodeSum()
    for rows, cols in ((spec, ALL), (ALL, spec), (spec, spec)):
        got = songs.subarray(rows, cols)
        want = {cell: v for cell, v in songs.items()
                if rows.matches(cell[0]) and cols.matches(cell[1])}
        assert 0 < got.nnz < songs.nnz
        assert dict(got.items()) == want
        check_invariants(got)


def test_keyset_equality_and_repr_see_only_keys():
    assert KeySet(["b", "a"]) == KeySet(("a", "b"))
    assert hash(KeySet(["b", "a"])) == hash(KeySet(["a", "b"]))
    assert repr(KeySet(["b", "a"])) == "KeySet(keys=('a', 'b'))"


def test_repr_shows_at_most_four_entries():
    assert repr(AssociativeArray({("a", "b"): "x"})) == "AssociativeArray({('a', 'b'): 'x'})"
    big = AssociativeArray({(f"r{i}", "c"): float(i) for i in range(1, 6)})
    assert repr(big) == (
        "AssociativeArray({('r1', 'c'): 1.0, ('r2', 'c'): 2.0, ('r3', 'c'): 3.0, "
        "('r4', 'c'): 4.0, ... 5 entries})")


# -- construction ------------------------------------------------------------


def test_constructor_drops_empties_and_validates():
    arr = AssociativeArray({("a", "x"): 1.0, ("a", "y"): 0.0, ("b", "x"): ""})
    assert arr.triples() == [("a", "x", 1.0)]
    with pytest.raises(BadKeyError):
        AssociativeArray({("", "x"): 1.0})
    with pytest.raises(BadValueError):
        AssociativeArray({("a", "x"): float("nan")})


def test_from_triples_combines_in_order():
    arr = from_triples([("r", "c", 1.0), ("r", "c", 2.0), ("r", "c", 4.0)], ARITH)
    assert arr.get("r", "c") == 7.0
    top = from_triples([("r", "c", 2.0), ("r", "c", 5.0)], LATTICE)
    assert top.get("r", "c") == 5.0


def test_from_triples_cancellation_drops_cell():
    arr = from_triples([("r", "c", 1.0), ("r", "c", -1.0)], ARITH)
    assert arr.nnz == 0
    assert arr.row_keys == () and arr.col_keys == ()


def test_from_triples_numeric_only_collision_is_an_error():
    with pytest.raises(DomainError):
        from_triples([("r", "c", 1.0), ("r", "c", "Rock")], ARITH)
    # a lone text triple under a numeric combiner never combines, so it is fine
    arr = from_triples([("r", "c", "Rock")], ARITH)
    assert arr.get("r", "c") == "Rock"


def test_from_triples_overflow_names_the_cell():
    with pytest.raises(BadValueError, match=r"non-finite number at \('r', 'c'\)"):
        from_triples([("r", "c", 1e308), ("r", "x", 1.0), ("r", "c", 1e308)], ARITH)


raw_keys = st.one_of(keys_strategy, st.sampled_from(["", "a\tb", "a\rb", "bad\ud800", 7, None]))
raw_values = st.one_of(
    st.floats(),
    st.integers(-2, 2),
    st.text(max_size=3),
    st.sampled_from(["x\ny", "cr\r", "bad\ud800", True, None, b"x"]),
)


def _outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(st.dictionaries(st.tuples(raw_keys, raw_keys), raw_values, max_size=6))
def test_constructor_is_from_triples(mapping):
    # Same array, or the same exception type and message, for any mapping.
    got = _outcome(lambda: AssociativeArray(mapping))
    want = _outcome(lambda: from_triples([(r, c, v) for (r, c), v in mapping.items()], LATTICE))
    assert got == want


def test_from_triples_insertion_is_table_build(songs):
    assert songs.nnz == 16
    assert songs.get("053013ktnA1", "Artist") == "Bandayde"


@settings(max_examples=60)
@given(st.permutations(list(range(8))))
def test_from_triples_order_insensitive_for_commutative_plus(order):
    base = [("r1", "c1", 2.0), ("r1", "c1", 3.0), ("r2", "c1", -1.0), ("r2", "c2", 4.0),
            ("r1", "c2", 1.0), ("r1", "c1", 1.0), ("r2", "c1", 2.0), ("r3", "c3", 9.0)]
    shuffled = [base[i] for i in order]
    assert from_triples(shuffled, ARITH) == from_triples(base, ARITH)


# -- queries and derivations ---------------------------------------------------


def test_get_returns_empty_marker(songs):
    assert songs.get("053013ktnA2", "Genre") == "Electronic"
    assert songs.get("082812ktnA1", "Genre") == "Pop"
    assert songs.get("nosuch", "Genre") is None
    assert songs.get("nosuch", "Genre", default=0.0) == 0.0


def test_keys_are_sorted_and_derived(songs):
    assert songs.keys(Axis.ROW) == (
        "053013ktnA1", "053013ktnA2", "063012ktnA1", "082812ktnA1")
    assert songs.keys(Axis.COLUMN) == ("Artist", "Date", "Duration", "Genre")
    assert AssociativeArray().keys(Axis.ROW) == ()


def test_axis_takes_its_value_text_and_refuses_anything_else(songs):
    # "row" is Axis.ROW's value: it must never fall through to the column axis.
    calls = (
        lambda axis: songs.keys(axis),
        lambda axis: degree(songs, axis),
        lambda axis: perm_select(songs, ["053013ktnA1", "Genre"], axis),
    )
    for call in calls:
        assert call("row") == call(Axis.ROW) != call(Axis.COLUMN)
        assert call("column") == call(Axis.COLUMN)
        for bad in ("col", "ROW", None, 0):
            with pytest.raises(ValueError):
                call(bad)


def test_subarray_range_selects_late_rows(songs):
    sub = songs.subarray(KeyRange("06", "09"), ALL)
    assert sub.row_keys == ("063012ktnA1", "082812ktnA1")
    assert sub.nnz == 8
    assert sub.get("063012ktnA1", "Date") == "2010-06-30"


def test_subarray_prefix_and_set(songs):
    sub = songs.subarray(KeyPrefix("0530"), KeySet(["Genre"]))
    assert sub.triples() == [
        ("053013ktnA1", "Genre", "Electronic"),
        ("053013ktnA2", "Genre", "Electronic"),
    ]


def test_subarray_keeps_original_keys_and_no_empty_axes(songs):
    sub = songs.subarray(KeySet(["063012ktnA1", "nosuch"]), ALL)
    assert sub.row_keys == ("063012ktnA1",)
    check_invariants(sub)
    assert songs.subarray(KeySet(["nosuch"]), ALL) == AssociativeArray()


def test_transpose_involution(songs):
    assert songs.transpose().transpose() == songs
    assert songs.transpose().row_keys == songs.col_keys
    assert songs.transpose().get("Genre", "082812ktnA1") == "Pop"


def test_one_column_select_keeps_no_transpose_and_the_second_keeps_one(songs):
    fresh = from_triples(songs.triples(), LATTICE)
    songs.subarray(KeyPrefix("0530"), ALL)
    songs.subarray(ALL, KeySet(["Genre"]))
    assert degree(songs, Axis.COLUMN) == degree(fresh, Axis.COLUMN)  # counted, nothing built
    assert not isinstance(songs._t, AssociativeArray)
    songs.subarray(ALL, KeyPrefix("D"))
    kept = songs._t
    assert isinstance(kept, AssociativeArray)
    assert songs.transpose() is kept and kept == fresh.transpose()
    assert degree(songs, Axis.COLUMN) == degree(fresh, Axis.COLUMN)
    both = (KeyPrefix("0530"), KeySet(["Genre", "Date"]))  # a row spec as well: rows first, then a filter
    assert songs.subarray(*both) == fresh.subarray(*both) and songs._t is kept
    nums = from_triples([("a", "x", 1.0), ("b", "y", 2.0)], LATTICE)
    for col in ("x", "y"):  # the second keeps a transpose before any text scan
        nums.subarray(ALL, KeySet([col]))
    eladd(nums, nums, ARITH)  # the scan marks nums text-free
    assert nums.transpose() is nums._t and nums.transpose()._numeric
    # Nothing the kept transpose holds leads back to its source.
    seen, todo = set(), [kept]
    while todo:
        obj = todo.pop()
        assert obj is not songs
        for ref in gc.get_referents(obj):
            if isinstance(ref, (dict, tuple, AssociativeArray)) and id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)


def _random_spec(rng, keys, kind):
    """A spec of the given kind (0 all, 1 set, 2 range, 3 prefix, 4 user) over ``keys`` and absent keys."""
    pool = list(keys) + rng.sample(KEY_POOL, 3)
    if kind == 0:
        return ALL
    if kind == 1:
        return KeySet(set(rng.sample(pool, rng.randint(0, len(pool)))))
    if kind == 2:
        return KeyRange(*sorted(rng.choice(pool) for _ in range(2)))
    if kind == 3:
        return KeyPrefix(rng.choice(pool)[:rng.randint(1, 2)])
    return _EvenCodeSum()


def test_column_selects_on_a_kept_transpose_match_a_fresh_arrays_filter():
    rng = random.Random(1616)
    for _ in range(150):
        if rng.random() < 0.5:
            arr = random_mixed_array(rng)
        else:
            arr = random_numeric_array(rng, NONZERO, density=rng.random())
            if rng.random() < 0.5:
                eladd(arr, arr, ARITH)  # marks it text-free
        for clone in (arr, pickle.loads(pickle.dumps(arr)), copy.deepcopy(arr)):
            assert clone == arr and clone._numeric == arr._numeric
            assert clone is arr or clone._t is None  # no cache is pickled or copied
            for _ in range(2):  # the second column select keeps the transpose
                clone.subarray(ALL, _random_spec(rng, arr.col_keys, 1))
            assert isinstance(clone._t, AssociativeArray)
            for kind in range(1, 5):
                for rows in (ALL, _random_spec(rng, arr.row_keys, rng.randrange(1, 5))):
                    cols = _random_spec(rng, arr.col_keys, kind)
                    fresh = from_triples(arr.triples(), LATTICE)  # its first column select filters
                    got, want = clone.subarray(rows, cols), fresh.subarray(rows, cols)
                    assert got == want
                    assert got.triples() == want.triples()
                    assert got.row_keys == want.row_keys and got.col_keys == want.col_keys
                    assert got._numeric == arr._numeric
                    check_invariants(got)
            assert degree(clone, Axis.COLUMN) == degree(from_triples(arr.triples(), LATTICE), Axis.COLUMN)


def test_logical_flattens_values(songs):
    flat = songs.logical()
    assert flat.nnz == songs.nnz
    assert set(v for _, _, v in flat) == {1.0}
    assert flat.support() == songs.support()


def test_nnz_counts_entries(songs):
    assert songs.nnz == 16
    assert AssociativeArray().nnz == 0


def test_equality_is_content_based():
    a = AssociativeArray({("a", "x"): 1.0})
    b = AssociativeArray({("a", "x"): 1.0})
    assert a == b
    assert a != AssociativeArray({("a", "x"): "1"})
    assert a.__eq__({("a", "x"): 1.0}) is NotImplemented  # a mapping is no array
    assert a != {("a", "x"): 1.0}


arrays_strategy = st.dictionaries(
    st.tuples(keys_strategy, keys_strategy),
    st.one_of(
        st.integers(-9, 9).map(float),
        st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=4),
    ),
    max_size=18,
).map(AssociativeArray)


@settings(max_examples=120)
@given(arrays_strategy)
def test_random_arrays_hold_invariants(arr):
    check_invariants(arr)
    assert arr.subarray(ALL, ALL) == arr
    assert arr.transpose().transpose() == arr
    check_invariants(arr.transpose())
    check_invariants(arr.logical())


@settings(max_examples=80)
@given(arrays_strategy, st.integers(0, 2**32 - 1))
def test_subarray_never_grows(arr, seed):
    rng = random.Random(seed)
    pool = list(set(arr.row_keys) | {"zz", "aa"})
    spec = KeySet(rng.sample(pool, rng.randint(0, len(pool))))
    sub = arr.subarray(spec, ALL)
    assert sub.nnz <= arr.nnz
    for r, c, v in sub:
        assert arr.get(r, c) == v
    check_invariants(sub)


def test_operations_leave_operands_untouched(songs):
    before = songs.triples()
    rows = tuple(sorted({r for r, _, _ in before}))
    cols = tuple(sorted({c for _, c, _ in before}))
    # Built first; upper, lower and joined hold songs' own row dicts.
    upper = songs.subarray(KeyPrefix("0530"), ALL)
    lower = songs.subarray(KeyRange("06", "09"), ALL)
    joined = eladd(upper, lower, LATTICE)  # each row comes from one operand
    mask = songs.subarray(KeyPrefix("0530"), KeySet(["Artist", "Genre"]))
    producers = [
        lambda: songs.subarray(KeySet(["063012ktnA1"]), KeyRange("Artist", "Date")),
        lambda: songs.subarray(ALL, KeySet(["Genre", "Artist"])),
        songs.transpose,
        songs.logical,
        lambda: perm_select(songs, ["082812ktnA1", "053013ktnA2"], Axis.ROW),
        lambda: perm_select(songs, ["Genre"], Axis.COLUMN),
        lambda: bfs(songs, ["053013ktnA1"], 2),
        lambda: arrayprod(songs, songs.transpose(), LATTICE),
        lambda: arrayprod(songs.transpose(), songs, LATTICE),
        lambda: eladd(songs, songs, LATTICE),
        lambda: eladd(joined, songs, LATTICE),
        lambda: elmult(songs, songs, LATTICE),
        lambda: mask_select(songs, mask),
        lambda: delete_entries(songs, mask),
        lambda: symmetrize(songs),
        lambda: correlate(songs.logical()),
        lambda: degree(songs, Axis.ROW),
        lambda: degree(songs, Axis.COLUMN),
    ]
    built = [(arr, arr.triples()) for arr in (upper, lower, joined, mask)]
    for produce in producers:
        result = produce()
        check_invariants(result)
        built.append((result, result.triples()))
    assert songs.triples() == before
    assert songs.row_keys == rows
    assert songs.col_keys == cols  # the one cached view is still the pristine one
    for arr, triples in built:  # no later call changed a row an earlier result shares
        assert arr.triples() == triples
    assert not hasattr(songs, "__dict__")  # __slots__: no stray attribute growth
