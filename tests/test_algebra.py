import copy
import io
import math
import pickle
import random

import pytest

from aakit import (
    ALL,
    ARITH,
    LATTICE,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    AssociativeArray,
    Axis,
    BadKeyError,
    BadValueError,
    DomainError,
    KeyPrefix,
    KeyRange,
    KeySet,
    Semiring,
    arrayprod,
    bfs,
    correlate,
    degree,
    delete_entries,
    eladd,
    elmult,
    from_triples,
    identity_from_keys,
    mask_select,
    perm_select,
    rank,
    read_triples,
    symmetrize,
    to_dense,
)
from aakit.algebra import _SECOND
from aakit.io import export_dot, write_triples

from conftest import DATA_DIR, GOLDEN_DIR

from helpers import (
    KEY_POOL,
    NONZERO,
    POSITIVE,
    check_invariants,
    random_mixed_array,
    random_numeric_array,
)
from oracles import (bfs_oracle, correlate_oracle, dot_bytes_oracle, elmult_oracle, eladd_oracle, product_oracle,
                     symmetrize_oracle, transpose_oracle, triples_bytes_oracle)

EVERY_SEMIRING = [ARITH, MAXPLUS, MINPLUS, MAXMIN, LATTICE]


def aa(d):
    return AssociativeArray(d)


# -- eladd ---------------------------------------------------------------


def test_eladd_folds_collisions():
    a = aa({("r", "c"): 1.0, ("r", "d"): 5.0})
    b = aa({("r", "c"): 2.0, ("s", "c"): 7.0})
    out = eladd(a, b, ARITH)
    assert out.triples() == [("r", "c", 3.0), ("r", "d", 5.0), ("s", "c", 7.0)]
    assert eladd(a, b, MAXPLUS).get("r", "c") == 2.0


def test_eladd_empty_is_identity(songs):
    assert eladd(songs, AssociativeArray(), LATTICE) == songs
    assert eladd(AssociativeArray(), songs, LATTICE) == songs


def test_eladd_cancellation_drops_entry():
    out = eladd(aa({("r", "c"): 1.0}), aa({("r", "c"): -1.0}), ARITH)
    assert out == AssociativeArray()
    assert out.row_keys == ()


def test_eladd_numeric_only_rejects_text(songs):
    with pytest.raises(DomainError):
        eladd(songs, songs, ARITH)
    assert eladd(songs, songs, LATTICE) == songs


@pytest.mark.parametrize("kernel", [eladd, elmult, arrayprod])
def test_numeric_only_kernels_name_the_first_text_cell(kernel):
    text = AssociativeArray({("a", "b"): 1.0, ("b", "a"): "t", ("b", "b"): "u"})
    nums = AssociativeArray({("a", "a"): 1.0, ("b", "b"): 2.0})
    for sr in (ARITH, MAXPLUS, MINPLUS, MAXMIN):
        cases = ((text, nums, "left"), (nums, text, "right"), (text, text, "left"))
        for left, right, side in cases:
            with pytest.raises(DomainError) as exc:
                kernel(left, right, sr)
            assert str(exc.value) == (
                f"semiring {sr.name!r} is numeric-only but {side} operand "
                "holds text at ('b', 'a')"
            )


def test_eladd_commutative_fuzz():
    rng = random.Random(101)
    for _ in range(150):
        a = random_numeric_array(rng, NONZERO, 5, 5)
        b = random_numeric_array(rng, NONZERO, 5, 5)
        for sr in (ARITH, MAXMIN):
            assert eladd(a, b, sr) == eladd(b, a, sr)
        m = random_mixed_array(rng)
        n = random_mixed_array(rng)
        assert eladd(m, n, LATTICE) == eladd(n, m, LATTICE)


# -- key unions merged from two sorted runs ----------------------------------

# A prefix sorts before its extensions, NUL and other low code points right
# after it, and a code point past the BMP after the private use area: code
# point order, which is UTF-8 byte order and not UTF-16 unit order.
MERGE_KEYS = ["a", "a\x00", "a\x01", "ab", "b", "é", "中key", "\ue000", "\U0001f600", "\U0001f600a"]
RELATIONS = ["disjoint", "nested", "identical", "interleaved", "overlapping"]


def two_key_sets(rng, relation):
    """Two non-empty lists of MERGE_KEYS in the given relation, each in a random order."""
    keys = sorted(rng.sample(MERGE_KEYS, rng.randint(2, len(MERGE_KEYS))))
    if relation == "disjoint":
        cut = rng.randint(1, len(keys) - 1)
        pair = rng.sample([keys[:cut], keys[cut:]], 2)
    elif relation == "nested":
        pair = rng.sample([keys, rng.sample(keys, rng.randint(1, len(keys)))], 2)
    elif relation == "identical":
        pair = [keys, keys]
    elif relation == "interleaved":
        pair = rng.sample([keys[0::2], keys[1::2]], 2)
    else:
        pair = [rng.sample(keys, rng.randint(1, len(keys))) for _ in range(2)]
    return [rng.sample(side, len(side)) for side in pair]


def array_on(rng, rows, cols, text):
    """An array whose row keys are exactly ``rows`` and column keys exactly ``cols``."""
    cells = {(r, rng.choice(cols)) for r in rows} | {(rng.choice(rows), c) for c in cols}
    cells |= {(r, c) for r in rows for c in cols if rng.random() < 0.3}
    return aa({cell: rng.choice(["w", "z"]) if text and rng.random() < 0.3 else float(rng.choice(NONZERO))
               for cell in cells})


def triples_bytes(arr):
    sink = io.BytesIO()
    write_triples(arr, sink)
    return sink.getvalue()


@pytest.mark.parametrize("relation", RELATIONS)
def test_key_unions_give_the_bytes_of_sorted_set_oracles(relation):
    # eladd unions two operands' row keys, symmetrize an array's rows with its
    # columns, export_dot its row keys with its column keys.
    rng = random.Random(26)
    for _ in range(60):
        a_rows, b_rows = two_key_sets(rng, relation)
        cols = rng.sample(MERGE_KEYS, rng.randint(1, 4))
        for sr in EVERY_SEMIRING:
            a, b = (array_on(rng, rows, cols, sr is LATTICE) for rows in (a_rows, b_rows))
            assert a.row_keys == tuple(sorted(set(a_rows))) and b.row_keys == tuple(sorted(set(b_rows)))
            assert triples_bytes(eladd(a, b, sr)) == triples_bytes_oracle(eladd_oracle(a, b, sr))
        graph = array_on(rng, a_rows, b_rows, True)
        assert triples_bytes(symmetrize(graph)) == triples_bytes_oracle(symmetrize_oracle(graph))
        sink = io.BytesIO()
        export_dot(graph, sink)
        assert sink.getvalue() == dot_bytes_oracle(dict(graph.items()))


# -- elmult ---------------------------------------------------------------


def test_elmult_intersects_support():
    a = aa({("r", "c"): 2.0, ("r", "d"): 5.0})
    b = aa({("r", "c"): 3.0, ("s", "c"): 7.0})
    assert elmult(a, b, ARITH).triples() == [("r", "c", 6.0)]
    assert elmult(a, b, MINPLUS).get("r", "c") == 5.0
    assert elmult(a, b, MAXMIN).get("r", "c") == 2.0


def test_elmult_with_disjoint_support_is_empty():
    a = aa({("r", "c"): 2.0})
    b = aa({("x", "y"): 3.0})
    assert elmult(a, b, ARITH) == AssociativeArray()


def test_elmult_maxplus_cancellation():
    # times is + for maxplus; a sum landing exactly on 0.0 cannot be stored
    out = elmult(aa({("r", "c"): 2.0}), aa({("r", "c"): -2.0}), MAXPLUS)
    assert out == AssociativeArray()


def test_elmult_commutative_fuzz():
    rng = random.Random(202)
    for _ in range(150):
        a = random_numeric_array(rng, NONZERO, 5, 5)
        b = random_numeric_array(rng, NONZERO, 5, 5)
        for sr in (ARITH, MAXPLUS, MINPLUS, MAXMIN):
            assert elmult(a, b, sr) == elmult(b, a, sr)


# -- element-wise kernels against dict oracles ------------------------------


def row_sharing_pairs(rng, a):
    """Operand pairs that hold rows of ``a`` with equal content, the same dicts or fresh copies.

    Two overlapping row ranges of ``a`` (each also holds rows the other
    lacks), ``a`` with itself, and ``a`` with an equal array built anew.
    """
    rows = a.row_keys
    lo = rng.randrange(len(rows)) if rows else 0
    hi = rng.randint(lo + 1, len(rows)) if rows else 0
    return [(a.subarray(KeySet(rows[:hi]), ALL), a.subarray(KeySet(rows[lo:]), ALL)),
            (a, a), (a, from_triples(a.triples(), LATTICE))]


@pytest.mark.parametrize("sr", EVERY_SEMIRING, ids=lambda sr: sr.name)
def test_elementwise_kernels_match_dict_oracles(sr):
    rng = random.Random(909)
    for _ in range(150):
        if sr is LATTICE:
            a, b = random_mixed_array(rng), random_mixed_array(rng)
        else:
            a = random_numeric_array(rng, NONZERO, 6, 6, density=rng.random())
            b = random_numeric_array(rng, NONZERO, 6, 6, density=rng.random())
        transposed = a.transpose()
        assert dict(transposed.items()) == transpose_oracle(a)
        check_invariants(transposed)
        for x, y in [(a, b), *row_sharing_pairs(rng, a)]:
            for got, want in ((eladd(x, y, sr), eladd_oracle(x, y, sr)),
                              (elmult(x, y, sr), elmult_oracle(x, y, sr))):
                assert dict(got.items()) == want
                assert triples_bytes(got) == triples_bytes_oracle(want)
                check_invariants(got)


def test_an_idempotent_fold_passes_an_equal_row_through():
    # max and min (maxmin's plus and times) and the lattice's two operations
    # give op(v, v) = v, so a row both operands hold with equal content is
    # the result's row as it is; arith folds it.
    x = aa({("r", "c"): 2.0, ("r", "d"): 3.0, ("s", "c"): 4.0})
    for y in (x, from_triples(x.triples(), ARITH)):
        for op in (eladd, elmult):
            assert op(x, y, MAXMIN)._rows["r"] is op(x, y, LATTICE)._rows["r"] is x._rows["r"]
            assert op(x, y, ARITH)._rows["r"] is not x._rows["r"]


@pytest.mark.parametrize("op,sr", [(eladd, ARITH), (elmult, MAXPLUS)],
                         ids=["eladd-arith", "elmult-maxplus"])
def test_elementwise_overflow_names_its_cell(op, sr):
    a = aa({("r", "b"): 1.0, ("r", "c"): 1e308})
    b = aa({("r", "c"): 1e308, ("s", "a"): 2.0})
    with pytest.raises(BadValueError, match=r"non-finite number at \('r', 'c'\)"):
        op(a, b, sr)


def test_eladd_cancellation_keeps_neighbours_in_order():
    a = aa({("r", "a"): 4.0, ("r", "c"): 1.5, ("t", "a"): 1.0})
    b = aa({("r", "c"): -1.5, ("s", "b"): 2.0, ("t", "a"): 1.0})
    out = eladd(a, b, ARITH)
    assert out.triples() == [("r", "a", 4.0), ("s", "b", 2.0), ("t", "a", 2.0)]
    check_invariants(out)


def test_lattice_text_collision():
    a = aa({("r", "c"): "pear", ("r", "d"): 3.0})
    b = aa({("r", "c"): "plum", ("r", "d"): "fig", ("s", "c"): "kiwi"})
    assert eladd(a, b, LATTICE).triples() == \
        [("r", "c", "plum"), ("r", "d", "fig"), ("s", "c", "kiwi")]
    assert elmult(a, b, LATTICE).triples() == [("r", "c", "pear"), ("r", "d", 3.0)]


def test_a_representable_semiring_zero_is_never_stored():
    # zero = 5.0 is not a canonical empty: every computed 5.0 is dropped
    minmax = Semiring("minmax", min, max, 5.0, None, True)
    a = aa({("r", "c"): 5.0, ("r", "d"): 2.0})
    b = aa({("r", "c"): 7.0, ("r", "d"): 5.0})
    assert eladd(a, b, minmax).triples() == [("r", "d", 2.0)]
    assert elmult(a, b, minmax).triples() == [("r", "c", 7.0)]
    b2 = aa({("c", "x"): 7.0, ("d", "x"): 5.0, ("d", "y"): 3.0})
    assert arrayprod(a, b2, minmax).triples() == [("r", "y", 3.0)]
    folded = from_triples([("r", "c", 6.0), ("r", "c", 5.0), ("r", "d", 4.0), ("r", "e", 5.0)], minmax)
    assert folded.triples() == [("r", "d", 4.0)]
    # a stored zero held by one operand only is dropped too
    lone = aa({("r", "c"): 5.0})
    assert eladd(lone, aa({}), minmax).triples() == []
    assert eladd(aa({}), lone, minmax).triples() == []
    assert eladd(lone, aa({("s", "c"): 1.0}), minmax).triples() == [("s", "c", 1.0)]
    # so is one that both operands hold in an equal row, which min and max pass through
    assert eladd(a, a, minmax).triples() == [("r", "d", 2.0)]
    assert elmult(a, a, minmax).triples() == [("r", "d", 2.0)]


# -- mask_select / delete_entries ------------------------------------------


def test_mask_select_takes_values_from_left(songs):
    mask = aa({("053013ktnA1", "Genre"): 99.0, ("082812ktnA1", "Artist"): "anything"})
    out = mask_select(songs, mask)
    assert out.triples() == [
        ("053013ktnA1", "Genre", "Electronic"),
        ("082812ktnA1", "Artist", "Kitten"),
    ]


def test_delete_entries_is_the_complement(songs):
    rng = random.Random(303)
    for _ in range(100):
        t = random_mixed_array(rng)
        m = random_mixed_array(rng)
        kept = mask_select(t, m)
        dropped = delete_entries(t, m)
        assert kept.nnz + dropped.nnz == t.nnz
        assert set(kept.support()) | set(dropped.support()) == set(t.support())
        assert set(kept.support()) & set(dropped.support()) == set()
        assert eladd(kept, dropped, LATTICE) == t


def test_mask_select_equals_elmult_by_logical_mask():
    # numeric arrays with no stored zeros: masking is multiplication by ones
    rng = random.Random(404)
    for _ in range(100):
        t = random_numeric_array(rng, NONZERO, 6, 6)
        m = random_numeric_array(rng, NONZERO, 6, 6)
        assert mask_select(t, m) == elmult(t, m.logical(), ARITH)


# -- arrayprod ---------------------------------------------------------------


def test_arrayprod_small_contraction():
    a = aa({("i", "k1"): 2.0, ("i", "k2"): 3.0})
    b = aa({("k1", "j"): 5.0, ("k2", "j"): 7.0})
    assert arrayprod(a, b, ARITH).triples() == [("i", "j", 31.0)]
    assert arrayprod(a, b, MAXPLUS).get("i", "j") == 10.0  # max(2+5, 3+7)
    assert arrayprod(a, b, MINPLUS).get("i", "j") == 7.0
    assert arrayprod(a, b, MAXMIN).get("i", "j") == 3.0  # max(min(2,5), min(3,7))


def test_arrayprod_zero_fold_is_dropped():
    a = aa({("i", "k1"): 1.0, ("i", "k2"): -1.0})
    b = aa({("k1", "j"): 1.0, ("k2", "j"): 1.0})
    assert arrayprod(a, b, ARITH) == AssociativeArray()


def test_arrayprod_no_shared_keys_is_empty():
    a = aa({("i", "k"): 1.0})
    b = aa({("x", "j"): 1.0})
    assert arrayprod(a, b, ARITH) == AssociativeArray()


def test_arrayprod_matches_nested_loop_oracle():
    rng = random.Random(505)
    for _ in range(120):
        a = random_numeric_array(rng, NONZERO, 6, 6)
        b = random_numeric_array(rng, NONZERO, 6, 6,
                                 row_pool=list(a.col_keys) + ["k00", "k01"])
        got = arrayprod(a, b, ARITH)
        assert dict(got.items()) == product_oracle(a, b)
        check_invariants(got)


@pytest.mark.parametrize("sr", [ARITH, MAXPLUS, MINPLUS, MAXMIN, LATTICE], ids=lambda sr: sr.name)
def test_arrayprod_matches_oracle_under_every_semiring(sr):
    rng = random.Random(515)
    for _ in range(100):
        if sr is LATTICE:
            a, b = random_mixed_array(rng), random_mixed_array(rng)
        else:
            a = random_numeric_array(rng, NONZERO, 6, 6, density=rng.random())
            b = random_numeric_array(rng, NONZERO, 6, 6, density=rng.random(),
                                     row_pool=list(a.col_keys) + ["k00", "k01"])
        got = arrayprod(a, b, sr)
        assert dict(got.items()) == product_oracle(a, b, sr)
        check_invariants(got)


@pytest.mark.parametrize("sr,a,b,want", [
    # ascending k: (1e16 + 1.0) rounds back to 1e16, then cancels to 0 and drops
    (ARITH, {("i", "k1"): 1e16, ("i", "k2"): 1.0, ("i", "k3"): -1e16},
     {("k1", "j"): 1.0, ("k2", "j"): 1.0, ("k3", "j"): 1.0}, {}),
    # the same terms in another k order sum to 1.0
    (ARITH, {("i", "k1"): 1e16, ("i", "k2"): -1e16, ("i", "k3"): 1.0},
     {("k1", "j"): 1.0, ("k2", "j"): 1.0, ("k3", "j"): 1.0}, {("i", "j"): 1.0}),
    # arith cancellation beside a surviving cell
    (ARITH, {("i", "k1"): 2.0, ("i", "k2"): -2.0},
     {("k1", "j"): 3.0, ("k2", "j"): 3.0, ("k2", "m"): 1.5}, {("i", "m"): -3.0}),
    # lattice: times is min (numbers before text), plus is max
    (LATTICE, {("i", "k1"): "pear", ("i", "k2"): 4.0, ("h", "k2"): "fig"},
     {("k1", "j"): "plum", ("k2", "j"): "apple", ("k1", "m"): 7.0},
     {("h", "j"): "apple", ("i", "j"): "pear", ("i", "m"): 7.0}),
])
def test_arrayprod_fixed_cases(sr, a, b, want):
    a, b = aa(a), aa(b)
    got = arrayprod(a, b, sr)
    assert dict(got.items()) == want == product_oracle(a, b, sr)
    check_invariants(got)


def test_arrayprod_overflow_names_its_cell():
    a = aa({("i", "k"): 1e308, ("h", "k"): 1.0})
    b = aa({("k", "j"): 10.0})
    with pytest.raises(BadValueError, match=r"non-finite number at \('i', 'j'\)"):
        arrayprod(a, b, ARITH)


def test_arrayprod_keeps_a_row_whose_finite_cells_sum_past_the_float_range():
    # Each cell is finite; only the row's sum overflows, so the row is scanned and kept whole.
    a = aa({("i", "k"): 1e308, ("h", "k"): 1.0})
    b = aa({("k", "j1"): 1.0, ("k", "j2"): 1.0})
    got = arrayprod(a, b, ARITH)
    assert dict(got.items()) == product_oracle(a, b)
    assert got.get("i", "j1") == got.get("i", "j2") == 1e308
    check_invariants(got)


def test_arrayprod_names_the_first_non_finite_cell_in_column_order():
    # Row i's terms reach j3 (nan: inf + -inf) before j2 (inf); the error names j2.
    a = aa({("h", "k1"): 1.0, ("i", "k1"): 1e308, ("i", "k2"): 1e308})
    b = aa({("k1", "j3"): 10.0, ("k2", "j1"): 1.0, ("k2", "j2"): 10.0, ("k2", "j3"): -10.0})
    want = product_oracle(a, b)
    assert [c for (r, c), v in sorted(want.items()) if r == "i" and not math.isfinite(v)] == ["j2", "j3"]
    with pytest.raises(BadValueError, match=r"non-finite number at \('i', 'j2'\)\Z"):
        arrayprod(a, b, ARITH)


def test_arrayprod_keeps_text_rows():
    # A text cell makes the row's sum a TypeError; the scan finds nothing to refuse.
    a = aa({("i", "k1"): "pear", ("i", "k2"): 4.0, ("h", "k2"): "fig"})
    b = aa({("k1", "j"): "plum", ("k2", "j"): "apple", ("k2", "m"): 7.0})
    got = arrayprod(a, b, LATTICE)
    assert dict(got.items()) == product_oracle(a, b, LATTICE)
    assert got.get("i", "j") == "pear"
    check_invariants(got)
    edges = {("a", "b"): "x", ("a", "c"): 2.0, ("b", "c"): "y", ("c", "a"): "z", ("c", "d"): 1.0}
    arr, frontier = aa(edges), aa({("front", "a"): 1.0, ("front", "c"): 1.0})
    step = arrayprod(frontier, arr, _SECOND)
    assert dict(step.items()) == product_oracle(frontier, arr, _SECOND)
    assert step.get("front", "c") == 2.0 and step.get("front", "b") == "x"
    for steps in range(4):
        assert set(bfs(arr, ["a"], steps).col_keys) == bfs_oracle(set(edges), ["a"], steps)


def with_one_two(rng, arr):
    """``arr`` with one of its cells, picked by ``rng``, set to 2.0."""
    cells = dict(arr.items())
    cells[rng.choice(list(cells))] = 2.0
    return aa(cells)


@pytest.mark.parametrize("relation", RELATIONS)
def test_pattern_products_and_their_neighbours_give_the_bytes_of_the_oracle(relation):
    # a's column keys and b's row keys, the middle keys, stand in the given
    # relation ("disjoint": no key is shared).  Two patterns (every value 1.0)
    # under arith count each cell's shared middle keys; one 2.0 in either
    # operand, maxplus on patterns and an empty operand take the general fold.
    rng = random.Random(28)
    empty = AssociativeArray()
    for _ in range(60):
        a_middle, b_middle = two_key_sets(rng, relation)
        a = array_on(rng, rng.sample(MERGE_KEYS, rng.randint(1, 5)), a_middle, False).logical()
        b = array_on(rng, b_middle, rng.sample(MERGE_KEYS, rng.randint(1, 5)), False).logical()
        for x, y, sr in ((a, b, ARITH), (with_one_two(rng, a), b, ARITH), (a, with_one_two(rng, b), ARITH),
                         (a, b, MAXPLUS), (a, empty, ARITH), (empty, b, ARITH)):
            got = arrayprod(x, y, sr)
            want = product_oracle(x, y, sr)
            assert dict(got.items()) == want
            assert triples_bytes(got) == triples_bytes_oracle(want)
            check_invariants(got)
        x = array_on(rng, a_middle, b_middle, False).logical()
        got, want = correlate(x), correlate_oracle(x)
        assert dict(got.items()) == want
        assert triples_bytes(got) == triples_bytes_oracle(want)


def test_arrayprod_identity_roundtrip():
    rng = random.Random(606)
    for _ in range(60):
        a = random_numeric_array(rng, NONZERO, 6, 6)
        left = identity_from_keys(a.row_keys)
        right = identity_from_keys(a.col_keys)
        check_invariants(left)
        check_invariants(right)
        assert arrayprod(left, a, ARITH) == a
        assert arrayprod(a, right, ARITH) == a


def test_associativity_and_distributivity_sample():
    # the acceptance suite fuzzes this at scale; keep a quick sample here
    rng = random.Random(707)
    for _ in range(60):
        for sr, values in ((ARITH, NONZERO), (MAXPLUS, POSITIVE),
                           (MINPLUS, POSITIVE), (MAXMIN, NONZERO)):
            a = random_numeric_array(rng, values, 5, 5)
            b = random_numeric_array(rng, values, 5, 5)
            c = random_numeric_array(rng, values, 5, 5)
            assert eladd(eladd(a, b, sr), c, sr) == eladd(a, eladd(b, c, sr), sr)
            assert elmult(elmult(a, b, sr), c, sr) == elmult(a, elmult(b, c, sr), sr)
            b2 = random_numeric_array(rng, values, 5, 5, row_pool=list(a.col_keys))
            c2 = random_numeric_array(rng, values, 5, 5, row_pool=list(b2.col_keys))
            assert arrayprod(arrayprod(a, b2, sr), c2, sr) == \
                arrayprod(a, arrayprod(b2, c2, sr), sr)
        a, b, c = (random_numeric_array(rng, NONZERO, 5, 5) for _ in range(3))
        assert arrayprod(a, eladd(b, c, ARITH), ARITH) == \
            eladd(arrayprod(a, b, ARITH), arrayprod(a, c, ARITH), ARITH)


# -- perm_select ---------------------------------------------------------------


def test_perm_select_rows_equals_subarray(songs):
    ks = ["063012ktnA1", "053013ktnA1", "nosuch"]
    out = perm_select(songs, ks, Axis.ROW)
    assert out == songs.subarray(KeySet(ks), ALL)
    assert out.get("053013ktnA1", "Artist") == "Bandayde"  # text passes through


def test_perm_select_cols_equals_subarray(songs):
    ks = ["Genre", "Date"]
    assert perm_select(songs, ks, Axis.COLUMN) == songs.subarray(ALL, KeySet(ks))


def test_perm_select_dedupes_quietly(songs):
    assert perm_select(songs, ["Genre", "Genre"], Axis.COLUMN) == \
        songs.subarray(ALL, KeySet(["Genre"]))


@pytest.mark.parametrize("axis", [Axis.ROW, Axis.COLUMN])
@pytest.mark.parametrize("bad", ["", "a\tb", "a\nb", 7])
def test_perm_select_rejects_bad_keys(songs, axis, bad):
    with pytest.raises(BadKeyError):
        perm_select(songs, ["Genre", bad], axis)


@pytest.mark.parametrize("axis", [Axis.ROW, Axis.COLUMN])
def test_perm_select_refuses_a_bare_str_of_keys(axis):
    # Iterated, "v1" would select the keys "v" and "1".
    arr = AssociativeArray({("v1", "v1"): 1.0, ("v", "v"): 2.0})
    with pytest.raises(TypeError, match="^keys must be an iterable of keys, not a str"):
        perm_select(arr, "v1", axis)
    assert perm_select(arr, ["v1"], axis).triples() == [("v1", "v1", 1.0)]


def test_perm_select_duality_fuzz():
    rng = random.Random(808)
    for _ in range(150):
        t = random_mixed_array(rng)
        pool = list(t.row_keys) + ["zz", "aa"]
        ks = rng.sample(pool, rng.randint(0, len(pool)))
        got = perm_select(t, ks, Axis.ROW)
        check_invariants(got)
        assert got == t.subarray(KeySet(ks), ALL)
        pool = list(t.col_keys) + ["zz"]
        ks = rng.sample(pool, rng.randint(0, len(pool)))
        got = perm_select(t, ks, Axis.COLUMN)
        check_invariants(got)
        assert got == t.subarray(ALL, KeySet(ks))


def test_pass_through_product_keeps_the_smallest_k():
    # not a permutation: k1 and k2 both reach ("i", "j"); the smaller k wins
    selector = aa({("i", "k2"): 1.0, ("i", "k1"): 1.0, ("h", "k2"): 1.0})
    t = aa({("k1", "j"): "first", ("k2", "j"): "second", ("k2", "m"): 5.0})
    want = [("h", "j", "second"), ("h", "m", 5.0), ("i", "j", "first"), ("i", "m", 5.0)]
    rows = arrayprod(selector, t, _SECOND)
    assert rows.triples() == want
    check_invariants(rows)


# -- the text scan and the text-free mark ------------------------------------

NUMERIC_ONLY = [ARITH, MAXPLUS, MINPLUS, MAXMIN]
KERNELS = [eladd, elmult, arrayprod]


def first_text_cell(arr):
    """The (row, col) of arr's first text value in (row, col) order, by sorting its triples."""
    return min(((r, c) for r, c, v in arr.triples() if isinstance(v, str)), default=None)


def text_refusals(arr, nums):
    """Each numeric-only call on arr as (call, the DomainError text it must raise)."""
    cell = first_text_cell(arr)
    kernel_text = "semiring {!r} is numeric-only but {} operand holds text at {!r}"
    calls = [(lambda k=k, sr=sr: k(arr, nums, sr), kernel_text.format(sr.name, "left", cell))
             for k in KERNELS for sr in NUMERIC_ONLY]
    calls += [(lambda k=k, sr=sr: k(nums, arr, sr), kernel_text.format(sr.name, "right", cell))
              for k in KERNELS for sr in NUMERIC_ONLY]
    dense_text = f"dense projection needs numbers, found text at {cell!r}"
    return calls + [(lambda: to_dense(arr), dense_text), (lambda: rank(arr), dense_text)]


def test_a_text_array_is_refused_naming_its_first_text_cell_on_every_call():
    text = aa({("a", "b"): 1.0, ("b", "a"): "t", ("b", "b"): "u", ("c", "a"): 2.0})
    nums = aa({("a", "a"): 1.0, ("b", "b"): 2.0})
    derived = [
        text,
        text.transpose(),                          # first text cell ('a', 'b')
        text.subarray(KeySet(["b", "c"]), ALL),    # ('b', 'a')
        text.subarray(ALL, KeySet(["b"])),         # ('b', 'b')
        text.subarray(ALL, KeySet(["a", "b"])).transpose(),
    ]
    for arr in derived:
        assert first_text_cell(arr) is not None
        for call, message in text_refusals(arr, nums):
            for _ in range(2):
                with pytest.raises(DomainError) as exc:
                    call()
                assert str(exc.value) == message
        assert not arr._numeric  # holding text is never remembered


def test_derived_arrays_without_text_are_accepted():
    text = aa({("a", "b"): 1.0, ("b", "a"): "t", ("b", "b"): "u", ("c", "a"): 2.0})
    nums = aa({("a", "a"): 1.0, ("b", "b"): 2.0})
    flat = text.logical()
    assert flat._numeric
    assert eladd(flat, flat, ARITH) == aa(dict.fromkeys(text.support(), 2.0))
    assert to_dense(flat) == to_dense(aa(dict.fromkeys(text.support(), 1.0)))
    picked = text.subarray(KeySet(["a", "c"]), ALL)  # a text array's rows that hold none
    for sr in NUMERIC_ONLY:
        for kernel in KERNELS:
            assert kernel(picked, nums, sr) == kernel(aa(dict(picked.items())), nums, sr)


def test_pickle_and_deepcopy_keep_results_and_refusals():
    nums = aa({("a", "a"): 1.0, ("a", "b"): -2.0, ("b", "b"): 3.0})
    checked = aa({("a", "b"): 4.0, ("b", "a"): 5.0})
    eladd(checked, checked, ARITH)  # marks it
    text = aa({("a", "b"): 1.0, ("b", "a"): "t"})
    with pytest.raises(DomainError):
        eladd(text, text, ARITH)
    for arr in (nums, checked, text, text.logical()):
        marked = arr._numeric
        for clone in (pickle.loads(pickle.dumps(arr)), copy.deepcopy(arr)):
            assert clone == arr
            assert clone._numeric == marked
            for sr in EVERY_SEMIRING:
                for kernel in KERNELS:
                    try:
                        want = kernel(arr, nums, sr)
                    except DomainError as exc:
                        with pytest.raises(DomainError) as got:
                            kernel(clone, nums, sr)
                        assert str(got.value) == str(exc)
                    else:
                        assert kernel(clone, nums, sr) == want


def test_array_pickled_by_its_slots_loads_selects_and_computes_as_a_fresh_one():
    """The fixture holds arrays pickled as slot values, ``(None, {slot: value})``.

    An array read from ``golden/songs.aat`` (text, no cache filled) and one
    read from ``genre_artist.aat`` (column keys cached, marked text-free),
    pickled with protocol 4 by the code before arrays pickled by their rows.
    """
    with open(DATA_DIR / "arrays_pickled_by_slot.pickle", "rb") as f:
        loaded = pickle.load(f)
    for name, path in (("songs", GOLDEN_DIR / "songs.aat"), ("genre_artist", DATA_DIR / "genre_artist.aat")):
        with open(path, "rb") as f:
            fresh = read_triples(f)
        old = loaded[name]
        assert old == fresh
        assert old._numeric == (name == "genre_artist")
        # The first select filters; the later ones select from the transpose it keeps.
        for spec in (KeyRange(*fresh.col_keys[:2]), KeySet(fresh.col_keys[-1:]), KeyPrefix("D")):
            assert old.subarray(ALL, spec).triples() == fresh.subarray(ALL, spec).triples()
        assert isinstance(old._t, AssociativeArray)
        nums = aa({(fresh.row_keys[0], fresh.col_keys[0]): 2.0, ("b", "b"): 3.0})
        pairs = [(old, nums, fresh, nums), (nums, old, nums, fresh),
                 (old, old.transpose(), fresh, fresh.transpose())]
        for sr in EVERY_SEMIRING:
            for kernel in KERNELS:
                for x, y, fresh_x, fresh_y in pairs:
                    try:
                        want = kernel(fresh_x, fresh_y, sr)
                    except DomainError as exc:
                        with pytest.raises(DomainError) as got:
                            kernel(x, y, sr)
                        assert str(got.value) == str(exc)
                    else:
                        assert kernel(x, y, sr) == want
        for unary in (lambda a: degree(a, Axis.ROW), lambda a: degree(a, Axis.COLUMN), AssociativeArray.logical,
                      lambda a: perm_select(a, fresh.col_keys[1:], Axis.COLUMN), lambda a: mask_select(a, nums)):
            assert unary(old) == unary(fresh)
        if name == "songs":
            for call, message in text_refusals(old, nums):
                with pytest.raises(DomainError) as got:
                    call()
                assert str(got.value) == message


def test_checked_operands_give_the_results_of_fresh_ones():
    rng = random.Random(1515)
    for _ in range(120):
        a = random_numeric_array(rng, NONZERO, 6, 6, density=rng.random())
        b = random_numeric_array(rng, NONZERO, 6, 6, density=rng.random())
        mixed = random_mixed_array(rng)
        sr = rng.choice(NUMERIC_ONLY)
        rows = KeySet(rng.sample(KEY_POOL, rng.randint(0, len(KEY_POOL))))
        # operands that were scanned (or derived from scanned arrays) before
        for arr in (a, b, mixed):
            for kernel in KERNELS:
                try:
                    kernel(arr, arr, sr)
                except DomainError:
                    pass
        assert a._numeric and b._numeric  # a scan that found no text marked them
        operands = [a, b, a.transpose(), b.subarray(rows, ALL), mixed, mixed.logical(),
                    mixed.subarray(rows, ALL), mixed.transpose()]
        x, y = rng.choice(operands), rng.choice(operands)
        fresh_x, fresh_y = (from_triples(arr.triples(), LATTICE) for arr in (x, y))
        for kernel in KERNELS:
            try:
                want = kernel(fresh_x, fresh_y, sr)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    kernel(x, y, sr)
                assert str(got.value) == str(exc)
            else:
                assert kernel(x, y, sr) == want
