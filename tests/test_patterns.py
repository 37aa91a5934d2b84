import random

import pytest

from aakit import (
    ARITH,
    AssociativeArray,
    Axis,
    BadKeyError,
    arrayprod,
    identity_from_keys,
    is_clique,
    is_permutation,
    perm_from_pairs,
    perm_select,
)

from helpers import NONZERO, check_invariants, random_numeric_array


def test_identity_from_keys():
    ident = identity_from_keys(["b", "a"])
    assert ident.triples() == [("a", "a", 1.0), ("b", "b", 1.0)]
    assert is_permutation(ident)
    with pytest.raises(ValueError, match="key set contains duplicates"):
        identity_from_keys(["b", "a", "b"])
    for bad in ("a\tb", ""):
        with pytest.raises(BadKeyError):
            identity_from_keys(["a", bad])
    with pytest.raises(TypeError, match="^keys must be an iterable of keys, not a str"):
        identity_from_keys("ab")


def test_perm_from_pairs_builds_ones():
    p = perm_from_pairs([("r1", "c9"), ("r2", "c3")])
    assert p.triples() == [("r1", "c9", 1.0), ("r2", "c3", 1.0)]
    assert is_permutation(p)


def test_perm_from_pairs_rejects_duplicates():
    with pytest.raises(ValueError, match="row"):
        perm_from_pairs([("r1", "c1"), ("r1", "c2")])
    with pytest.raises(ValueError, match="column"):
        perm_from_pairs([("r1", "c1"), ("r2", "c1")])


def test_is_permutation_needs_exactly_one_per_axis():
    assert is_permutation(AssociativeArray({("r1", "c9"): 1.0, ("r2", "c3"): 1.0}))
    assert not is_permutation(AssociativeArray({("r1", "c1"): 1.0, ("r1", "c2"): 1.0}))
    assert not is_permutation(AssociativeArray({("r1", "c1"): 1.0, ("r2", "c1"): 1.0}))


def test_is_permutation_needs_unit_values():
    assert not is_permutation(AssociativeArray({("r1", "c1"): 2.0}))
    assert not is_permutation(AssociativeArray({("r1", "c1"): "1"}))
    assert not is_permutation(AssociativeArray({("r1", "c1"): 1.0, ("r2", "c2"): 2.0}))
    assert not is_permutation(AssociativeArray({("r1", "c1"): 1.0, ("r2", "c2"): "one"}))


def test_empty_is_neither_pattern():
    assert not is_permutation(AssociativeArray())
    assert not is_clique(AssociativeArray())


def test_is_clique_full_cross_product(songs):
    assert is_clique(songs.logical())
    assert is_clique(songs)  # values do not matter, only the support
    broken = AssociativeArray(
        {(r, c): v for (r, c), v in songs.items() if (r, c) != ("053013ktnA2", "Date")}
    )
    assert not is_clique(broken)


def test_clique_single_cell():
    assert is_clique(AssociativeArray({("a", "b"): "x"}))


def test_genre_artist_shapes(genre_artist):
    # one genre maps to two artists, so it is no permutation, and the
    # missing (genre, artist) pairs mean it is no clique either
    assert not is_permutation(genre_artist)
    assert not is_clique(genre_artist)
    electronic_only = genre_artist.subarray(rows=_keyset(["Electronic"]))
    assert is_clique(electronic_only)  # one row relating to both its artists


def test_permutation_product_selects_rows():
    rng = random.Random(99)
    for _ in range(60):
        t = random_numeric_array(rng, NONZERO, 6, 6)
        rows = list(t.row_keys)
        if not rows:
            continue
        picked = rng.sample(rows, rng.randint(1, len(rows)))
        p = perm_from_pairs([(f"new{i}", k) for i, k in enumerate(picked)])
        check_invariants(p)
        prod = arrayprod(p, t, ARITH)
        # each output row carries the selected source row's values
        for i, k in enumerate(picked):
            src = t.subarray(rows=_keyset([k]))
            got = prod.subarray(rows=_keyset([f"new{i}"]))
            assert {c: v for (_, c), v in got.items()} == \
                {c: v for (_, c), v in src.items()}
        sel = perm_select(t, picked, Axis.ROW)
        assert sel.nnz == prod.nnz


def _keyset(keys):
    from aakit import KeySet

    return KeySet(keys)
