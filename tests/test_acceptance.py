"""End-to-end acceptance gate.

Each test is one acceptance criterion; the criterion marker gives every
one a PASS/FAIL line in the run's terminal summary.  Tolerances and
instance counts are pinned here on purpose; loosening them is a
behavior change, not a test tweak.
"""

import math
import random
import subprocess
import sys
import warnings

import pytest

from aakit import (
    ALL,
    ARITH,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    AssociativeArray,
    Axis,
    KeyPrefix,
    KeyRange,
    KeySet,
    NotConvergedError,
    arrayprod,
    correlate,
    delete_entries,
    dominant_eigenpair,
    eladd,
    elmult,
    from_triples,
    identity_from_keys,
    is_clique,
    is_permutation,
    mask_select,
    null_space,
    perm_from_pairs,
    perm_select,
    rank,
    to_dense,
)
from aakit.io import read_table
from aakit.store import open_store

from conftest import DATA_DIR, GOLDEN_DIR, SONG_TRIPLES
from helpers import (
    KEY_POOL,
    NONZERO,
    POSITIVE,
    check_invariants,
    random_mixed_array,
    random_numeric_array,
)
from oracles import correlate_oracle, fraction_rank, jacobi_eigenvalues, record_files_oracle, store_fold_oracle

@pytest.mark.criterion(1, "song table ingests with all 16 cells intact")
def test_song_table_fidelity():
    with open(DATA_DIR / "songs.csv", "rb") as f:
        table = read_table(f)
    assert table.nnz == 16
    assert len(table.row_keys) == 4
    assert len(table.col_keys) == 4
    assert {(r, c): v for (r, c), v in table.items()} == {
        (r, c): v for r, c, v in SONG_TRIPLES}
    assert table.get("063012ktnA1", "Date") == "2010-06-30"


@pytest.mark.criterion(2, "genre co-occurrence equals the nested-loop oracle")
def test_correlation_counts(songs):
    genre_cells = songs.subarray(ALL, KeySet(["Genre"]))
    artist_cells = songs.subarray(ALL, KeySet(["Artist"]))
    by_genre = from_triples([(v, r, 1.0) for r, _, v in genre_cells], ARITH)
    by_artist = from_triples([(r, v, 1.0) for r, _, v in artist_cells], ARITH)
    counts = arrayprod(by_genre, by_artist, ARITH)
    assert {(r, c): v for (r, c), v in counts.items()} == {
        ("Electronic", "Bandayde"): 1.0,
        ("Electronic", "Kastle"): 1.0,
        ("Pop", "Kitten"): 1.0,
        ("Rock", "Kitten"): 1.0,
    }

    corr = correlate(counts)
    assert {(r, c): v for (r, c), v in corr.items()} == {
        ("Electronic", "Electronic"): 2.0,
        ("Pop", "Pop"): 1.0,
        ("Pop", "Rock"): 1.0,
        ("Rock", "Pop"): 1.0,
        ("Rock", "Rock"): 1.0,
    }
    assert {cell: v for cell, v in corr.items()} == correlate_oracle(counts)


@pytest.mark.criterion(3, "semiring laws hold on 1000 random arrays per semiring")
def test_semiring_laws_fuzz():
    rng = random.Random(1001)
    for sr, pool in ((ARITH, NONZERO), (MAXPLUS, POSITIVE),
                     (MINPLUS, POSITIVE), (MAXMIN, NONZERO)):
        for _ in range(1000):
            a = random_numeric_array(rng, pool, 8, 8)
            b = random_numeric_array(rng, pool, 8, 8)
            c = random_numeric_array(rng, pool, 8, 8)
            assert eladd(eladd(a, b, sr), c, sr) == eladd(a, eladd(b, c, sr), sr)
            assert elmult(elmult(a, b, sr), c, sr) == elmult(a, elmult(b, c, sr), sr)
            assert arrayprod(arrayprod(a, b, sr), c, sr) == \
                arrayprod(a, arrayprod(b, c, sr), sr)
            if sr is ARITH:
                assert elmult(a, eladd(b, c, sr), sr) == \
                    eladd(elmult(a, b, sr), elmult(a, c, sr), sr)
                assert arrayprod(a, eladd(b, c, sr), sr) == \
                    eladd(arrayprod(a, b, sr), arrayprod(a, c, sr), sr)


@pytest.mark.criterion(4, "selection by permutation product equals subarray on 500 tables")
def test_selection_duality_fuzz():
    rng = random.Random(1002)
    for _ in range(500):
        table = random_mixed_array(rng, 6, 6)
        for axis, keys in ((Axis.ROW, table.row_keys), (Axis.COLUMN, table.col_keys)):
            pool = list(keys) + ["zzz-absent"]
            picked = rng.sample(pool, rng.randint(1, len(pool)))
            sel = perm_select(table, picked, axis)
            spec = KeySet(picked)
            want = table.subarray(spec, ALL) if axis is Axis.ROW \
                else table.subarray(ALL, spec)
            assert sel == want

        numeric = random_numeric_array(rng, NONZERO, 6, 6)
        if numeric.nnz:
            rows = rng.sample(numeric.row_keys, rng.randint(1, len(numeric.row_keys)))
            ident = identity_from_keys(rows)
            assert arrayprod(ident, numeric, ARITH) == \
                perm_select(numeric, rows, Axis.ROW)
            cols = rng.sample(numeric.col_keys, rng.randint(1, len(numeric.col_keys)))
            assert arrayprod(numeric, identity_from_keys(cols), ARITH) == \
                perm_select(numeric, cols, Axis.COLUMN)


@pytest.mark.criterion(5, "no canonical-empty value survives random op chains")
def test_no_empty_axiom_chains():
    rng = random.Random(1003)
    specs = [ALL, KeyPrefix("k"), KeyRange("a", "m"), None]
    for _ in range(300):
        cur = random_numeric_array(rng, NONZERO, 6, 6)
        check_invariants(cur)
        for _ in range(rng.randint(1, 10)):
            step = rng.randrange(8)
            if step == 0:
                cur = eladd(cur, random_numeric_array(rng, NONZERO, 6, 6), ARITH)
            elif step == 1:
                cur = elmult(cur, random_numeric_array(rng, NONZERO, 6, 6),
                             rng.choice((ARITH, MAXMIN)))
            elif step == 2:
                cur = arrayprod(cur, random_numeric_array(rng, NONZERO, 6, 6),
                                rng.choice((ARITH, MAXPLUS, MINPLUS, MAXMIN)))
            elif step == 3:
                cur = cur.transpose()
            elif step == 4:
                cur = cur.logical()
            elif step == 5:
                pick = rng.choice(specs)
                if pick is None:
                    pick = KeySet(rng.sample(KEY_POOL, 3))
                cur = cur.subarray(pick, ALL)
            elif step == 6:
                cur = mask_select(cur, random_numeric_array(rng, NONZERO, 6, 6))
            else:
                cur = delete_entries(cur, random_numeric_array(rng, NONZERO, 6, 6))
            check_invariants(cur)


@pytest.mark.criterion(6, "null space dimension and annihilation match the exact oracle")
def test_null_space_oracle():
    rng = random.Random(1004)
    done = 0
    while done < 300:
        arr = random_numeric_array(rng, NONZERO, 6, 6)
        if arr.nnz == 0:
            continue
        done += 1
        dense = to_dense(arr)
        exact = fraction_rank([[int(x) for x in row] for row in dense.cells])
        assert rank(arr) == exact
        ns = null_space(arr)
        assert len(ns.col_keys) == len(dense.col_order) - exact
        for name in ns.col_keys:
            basis_col = ns.subarray(ALL, KeySet([name]))
            residue = arrayprod(arr, basis_col, ARITH)
            worst = max((abs(v) for _, _, v in residue), default=0.0)
            assert worst <= 1e-8
            norm = math.sqrt(sum(v * v for _, _, v in basis_col))
            assert abs(norm - 1.0) <= 1e-12


@pytest.mark.criterion(7, "dominant eigenpair tracks the rotation oracle; ties refuse")
def test_eigen_oracle():
    rng = random.Random(1005)

    def draw():
        x = 0.0
        while x == 0.0:
            x = round(rng.uniform(-3, 3), 3)
        return x

    done = 0
    while done < 100:
        n = rng.randint(2, 6)
        sym = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = draw()
        eigs = sorted(jacobi_eigenvalues(sym), key=abs, reverse=True)
        if abs(eigs[0]) - abs(eigs[1]) < 0.1:
            continue
        done += 1
        arr = AssociativeArray({
            (f"k{i}", f"k{j}"): sym[i][j] for i in range(n) for j in range(n)})
        res = dominant_eigenpair(arr, tol=1e-10, maxiter=200000)
        assert abs(res.eigenvalue - eigs[0]) <= 1e-6 * abs(eigs[0])
        assert res.residual <= 1e-6

    tie = AssociativeArray({("a", "b"): 1.0, ("b", "a"): 1.0})
    with pytest.raises(NotConvergedError):
        dominant_eigenpair(tie, tol=1e-9, maxiter=500)


@pytest.mark.criterion(8, "pattern recognizers agree with constructed shapes")
def test_pattern_recognizers(songs, genre_artist):
    rng = random.Random(1006)
    for _ in range(50):
        rows = rng.sample(KEY_POOL, rng.randint(1, 6))
        cols = rng.sample(KEY_POOL, len(rows))
        rng.shuffle(cols)
        assert is_permutation(perm_from_pairs(zip(rows, cols)))
    assert not is_permutation(genre_artist)
    assert is_clique(songs)
    assert not is_clique(genre_artist)


@pytest.mark.criterion(9, "store selects match the in-memory fold; truncation is contained")
def test_store_equivalence_and_crash(tmp_path):
    rng = random.Random(1007)

    def random_batch():
        return AssociativeArray({
            (rng.choice(KEY_POOL), rng.choice(KEY_POOL)): float(rng.randint(1, 9))
            for _ in range(rng.randint(1, 5))})

    for case in range(200):
        root = tmp_path / f"seq{case}"
        ops = []
        with open_store(root) as st:
            for _ in range(rng.randint(1, 8)):
                batch = random_batch()
                kind = "delete" if rng.random() < 0.3 else "insert"
                getattr(st, kind)(batch)
                ops.append((kind, batch))
                assert dict(st.select().items()) == store_fold_oracle(ops)
            st.compact()
            assert dict(st.select().items()) == store_fold_oracle(ops)
        with open_store(root) as st:
            assert dict(st.select().items()) == store_fold_oracle(ops)

    for case in range(25):
        root = tmp_path / f"crash{case}"
        with open_store(root) as st:
            for _ in range(rng.randint(2, 4)):
                st.insert(random_batch())
            names = st.segments
        files = [(name, (root / name).read_bytes()) for name in names]
        data = files[-1][1]
        files[-1] = (names[-1], data[:data.rfind(b"\n", 0, -1) + 1])  # the record the crash destroys
        folded = record_files_oracle(files)
        last_line_len = len(data.rsplit(b"\n", 2)[1]) + 1
        (root / names[-1]).write_bytes(data[:-rng.randint(1, last_line_len)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with open_store(root) as st:
                assert dict(st.select().items()) == folded


@pytest.mark.criterion(10, "command pipeline reproduces the committed golden bytes")
def test_cli_golden_bytes(tmp_path):
    def pipeline(into):
        into.mkdir()
        cmds = [
            ["ingest", str(DATA_DIR / "songs.csv"), "-o", str(into / "songs.aat")],
            ["correlate", str(into / "songs.aat"), "--logical",
             "-o", str(into / "songs_corr.aat")],
            ["export-dot", str(into / "songs_corr.aat"),
             "-o", str(into / "songs_corr.dot")],
            ["correlate", str(DATA_DIR / "genre_artist.aat"),
             "-o", str(into / "genre_corr.aat")],
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from aakit.cli import run; sys.exit(run(sys.argv[1:]))",
                 *cmd],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    for name in ("songs.aat", "songs_corr.aat", "songs_corr.dot", "genre_corr.aat"):
        golden = (GOLDEN_DIR / name).read_bytes()
        assert (tmp_path / "run1" / name).read_bytes() == golden
        assert (tmp_path / "run2" / name).read_bytes() == golden
