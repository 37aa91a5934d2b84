import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aakit import (
    ARITH,
    AssociativeArray,
    Axis,
    DomainError,
    arrayprod,
    bfs,
    correlate,
    degree,
    symmetrize,
)

from helpers import KEY_POOL, NONZERO, check_invariants, random_numeric_array
from oracles import bfs_oracle, correlate_oracle


def test_degree_row_counts(songs):
    d = degree(songs, Axis.ROW)
    assert d.col_keys == ("deg",)
    assert all(v == 4.0 for _, _, v in d)
    assert set(d.row_keys) == set(songs.row_keys)


def test_degree_col_counts(songs):
    d = degree(songs, Axis.COLUMN)
    # every song fills every column once
    assert {r: v for (r, _), v in d.items()} == {
        "Artist": 4.0, "Date": 4.0, "Duration": 4.0, "Genre": 4.0}


def test_degree_empty():
    assert degree(AssociativeArray(), Axis.ROW) == AssociativeArray()


@settings(max_examples=100)
@given(cells=st.dictionaries(
    st.tuples(st.sampled_from(KEY_POOL), st.sampled_from(KEY_POOL)),
    st.one_of(st.integers(1, 9).map(float), st.sampled_from(["t", "x y"])),
    max_size=40,
))
def test_degree_matches_counter_oracle(cells):
    arr = AssociativeArray(cells)
    for axis, side in ((Axis.ROW, 0), (Axis.COLUMN, 1)):
        counts = Counter(cell[side] for cell in cells)
        got = degree(arr, axis)
        check_invariants(got)
        assert got.triples() == [(k, "deg", float(counts[k])) for k in sorted(counts)]


def test_correlate_genre_artist(genre_artist):
    c = correlate(genre_artist)
    assert {(r, co): v for (r, co), v in c.items()} == {
        ("Electronic", "Electronic"): 2.0,
        ("Pop", "Pop"): 1.0,
        ("Pop", "Rock"): 1.0,
        ("Rock", "Pop"): 1.0,
        ("Rock", "Rock"): 1.0,
    }


def test_correlate_after_logical_flattens(genre_artist):
    c = correlate(genre_artist.logical())
    assert set(c.support()) == set(correlate(genre_artist).support())
    assert all(v >= 1.0 for _, _, v in c)


def test_correlate_matches_oracle():
    rng = random.Random(11)
    for _ in range(100):
        arr = random_numeric_array(rng, NONZERO, 5, 5)
        got = correlate(arr)
        want = correlate_oracle(arr)
        assert {cell: v for cell, v in got.items()} == want


def test_correlate_equals_product_with_transpose(songs):
    flat = songs.logical()
    assert correlate(flat) == arrayprod(flat, flat.transpose(), ARITH)


def test_correlate_rejects_text(songs):
    with pytest.raises(DomainError):
        correlate(songs)


def test_symmetrize_union(genre_artist):
    s = symmetrize(genre_artist)
    for (r, c), v in s.items():
        assert v == 1.0
        assert s.get(c, r) == 1.0
    # original support survives flattened
    assert set(genre_artist.support()) <= set(s.support())


def test_symmetrize_fixed_point(genre_artist):
    s = symmetrize(genre_artist)
    assert symmetrize(s) == s


def test_bfs_single_hop(genre_artist):
    g = symmetrize(genre_artist)
    hit = bfs(g, ["Kitten"], 1)
    assert {c for (_, c), _ in hit.items()} == {"Pop", "Rock"}
    assert hit.row_keys == ("front",)
    assert all(v == 1.0 for _, _, v in hit)


def test_bfs_two_hops(genre_artist):
    g = symmetrize(genre_artist)
    hit = bfs(g, ["Kitten"], 2)
    # back across the genre edges to every artist sharing a genre
    assert {c for (_, c), _ in hit.items()} == {"Kitten"}


def test_bfs_zero_steps_and_dead_start(genre_artist):
    g = symmetrize(genre_artist)
    start = bfs(g, ["Kitten"], 0)
    assert {c for (_, c), _ in start.items()} == {"Kitten"}
    assert bfs(g, ["nope"], 0).nnz == 0
    assert bfs(g, ["nope"], 3).nnz == 0


def test_bfs_rejects_negative_steps(genre_artist):
    with pytest.raises(ValueError):
        bfs(genre_artist, ["Kitten"], -1)


def test_bfs_directed_respects_edge_direction(genre_artist):
    # genre -> artist only; artists have no outgoing edges
    hit = bfs(genre_artist, ["Kitten"], 1)
    assert hit.nnz == 0
    hit = bfs(genre_artist, ["Pop"], 1)
    assert {c for (_, c), _ in hit.items()} == {"Kitten"}


def test_bfs_matches_set_oracle():
    rng = random.Random(12)
    for _ in range(100):
        arr = random_numeric_array(rng, NONZERO, 6, 6).logical()
        if arr.nnz == 0:
            continue
        keys = sorted(set(arr.row_keys) | set(arr.col_keys)) + ["zz-absent"]
        starts = rng.sample(keys, min(len(keys), rng.randint(1, 2)))
        k = rng.randint(0, 4)
        edges = {(r, c) for r, c, _ in arr}
        # the undirected view is one more graph for the same oracle
        undirected = symmetrize(arr)
        check_invariants(undirected)
        for graph, graph_edges in ((arr, edges), (undirected, edges | {(c, r) for r, c in edges})):
            hit = bfs(graph, starts, k)
            check_invariants(hit)
            assert {c for (_, c), _ in hit.items()} == bfs_oracle(graph_edges, starts, k)


def test_bfs_sources_of_every_kind_match_the_key_set_rule():
    # The old rule built set(row_keys) | set(col_keys) and kept the sources in it.
    rng = random.Random(1516)
    invalid = ["", "a\tb", "a\nb", "zz-absent", "k0", "k99"]
    for _ in range(150):
        arr = random_numeric_array(rng, NONZERO, 6, 6, density=rng.random()).logical()
        rows, cols = set(arr.row_keys), set(arr.col_keys)
        kinds = [sorted(rows - cols), sorted(cols - rows), sorted(rows & cols), invalid]
        sources = [rng.choice(pool) for pool in kinds if pool for _ in range(rng.randint(0, 3))]
        sources += rng.sample(sources, min(len(sources), 2))  # repeats
        rng.shuffle(sources)
        start = {s for s in sources if s in rows | cols}
        assert {c for _, c, _ in bfs(arr, sources, 0)} == start
        edges = {(r, c) for r, c, _ in arr}
        k = rng.randint(1, 3)
        assert {c for _, c, _ in bfs(arr, sources, k)} == bfs_oracle(edges, sources, k)


def test_bfs_drops_sources_that_are_not_text(genre_artist):
    assert bfs(genre_artist, [7, None, ("Pop",), "Pop"], 0).triples() == [("front", "Pop", 1.0)]
    assert bfs(AssociativeArray(), [7, "", "Pop"], 1) == AssociativeArray()
