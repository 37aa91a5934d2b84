import math
import random

import pytest

from aakit import (
    ARITH,
    LATTICE,
    AssociativeArray,
    BadKeyError,
    BadValueError,
    DenseProjection,
    DomainError,
    NotConvergedError,
    ZeroIterateError,
    arrayprod,
    dominant_eigenpair,
    from_triples,
    identity_from_keys,
    null_space,
    products_unique,
    rank,
    to_dense,
)

from helpers import check_invariants
from oracles import fraction_rank, jacobi_eigenvalues


def aa(d):
    return AssociativeArray(d)


def random_int_array(rng, nrows, ncols, lo=-9, hi=9):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.7:
                v = rng.randint(lo, hi)
                if v:
                    entries[(f"r{i}", f"c{j}")] = float(v)
    return AssociativeArray(entries)


# -- to_dense ---------------------------------------------------------------


def test_to_dense_sorted_zero_filled():
    d = to_dense(aa({("b", "y"): 3.0, ("a", "x"): 1.0}))
    assert d.row_order == ("a", "b")
    assert d.col_order == ("x", "y")
    assert d.cells == ((1.0, 0.0), (0.0, 3.0))


def test_to_dense_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        arr = random_int_array(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert to_dense(arr).to_array() == arr


def test_to_dense_rejects_text(songs):
    with pytest.raises(DomainError) as exc:
        to_dense(songs)
    assert str(exc.value) == (
        "dense projection needs numbers, found text at ('053013ktnA1', 'Artist')"
    )


@pytest.mark.parametrize("rows,cols,cells,error", [
    (("a\tb",), ("c",), ((1.0,),), BadKeyError),
    (("a",), ("",), ((1.0,),), BadKeyError),
    (("a",), ("c",), (("x\ny",),), BadValueError),
    (("a",), ("c",), ((math.inf,),), BadValueError),
    (("a",), ("c",), ((math.nan,),), BadValueError),
])
def test_to_array_rejects_what_from_triples_rejects(rows, cols, cells, error):
    projection = DenseProjection(rows, cols, cells)
    with pytest.raises(error) as want:
        from_triples([(rows[0], cols[0], cells[0][0])], LATTICE)
    with pytest.raises(error) as got:
        projection.to_array()
    assert str(got.value) == str(want.value)


def test_to_dense_empty():
    d = to_dense(AssociativeArray())
    assert d.row_order == () and d.col_order == () and d.cells == ()


# -- rank ---------------------------------------------------------------


def test_rank_simple_cases():
    assert rank(AssociativeArray()) == 0
    assert rank(identity_from_keys(["a", "b", "c"])) == 3
    dependent = aa({("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 2.0, ("b", "y"): 4.0})
    assert rank(dependent) == 1


@pytest.mark.parametrize("tol", ["x", True, None])
def test_rank_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        rank(identity_from_keys(["a"]), tol=tol)


def test_rank_matches_fraction_oracle():
    rng = random.Random(2)
    for _ in range(200):
        arr = random_int_array(rng, rng.randint(1, 6), rng.randint(1, 6))
        if arr.nnz == 0:
            assert rank(arr) == 0
            continue
        dense = to_dense(arr)
        expected = fraction_rank([[int(x) for x in row] for row in dense.cells])
        assert rank(arr) == expected


def test_rank_threshold_scales_with_magnitude():
    # a 1e-14 perturbation of a singular matrix stays rank 1 at default tol
    arr = aa({("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 2.0,
              ("b", "y"): 4.0 + 1e-14})
    assert rank(arr) == 1
    with pytest.raises(ValueError):
        rank(arr, tol=0.0)


# -- null_space ---------------------------------------------------------------


def test_null_space_known_basis():
    arr = aa({("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 2.0, ("b", "y"): 4.0})
    ns = null_space(arr)
    assert ns.col_keys == ("ns1",)
    x = ns.get("x", "ns1")
    y = ns.get("y", "ns1")
    assert x == pytest.approx(-2.0 / math.sqrt(5.0))
    assert y == pytest.approx(1.0 / math.sqrt(5.0))


def test_null_space_unit_norm_and_annihilation():
    rng = random.Random(3)
    for _ in range(120):
        arr = random_int_array(rng, rng.randint(1, 6), rng.randint(1, 6))
        if arr.nnz == 0:
            continue
        ns = null_space(arr)
        check_invariants(ns)
        dense = to_dense(arr)
        nullity = len(dense.col_order) - fraction_rank(
            [[int(x) for x in row] for row in dense.cells])
        assert len(ns.col_keys) == nullity
        for name in ns.col_keys:
            col = [v for (_, c), v in ns.items() if c == name]
            assert math.sqrt(sum(x * x for x in col)) == pytest.approx(1.0, abs=1e-12)
        if ns.nnz:
            prod = arrayprod(arr, ns, ARITH)
            worst = max((abs(v) for _, _, v in prod), default=0.0)
            assert worst <= 1e-8
        assert set(ns.row_keys) <= set(arr.col_keys)


def test_null_space_full_rank_is_empty():
    assert null_space(identity_from_keys(["a", "b"])) == AssociativeArray()
    assert null_space(AssociativeArray()) == AssociativeArray()


def test_null_space_synthetic_names_in_free_order():
    # two free columns after the single pivot column
    arr = aa({("a", "x"): 1.0, ("a", "y"): 1.0, ("a", "z"): 1.0})
    ns = null_space(arr)
    assert set(ns.col_keys) == {"ns1", "ns2"}


def test_null_space_norm_past_the_float_range():
    # The basis vector (-1e200, 1) has a sum of squares past the float range.
    ns = null_space(aa({("a", "x"): 1.0, ("a", "y"): 1e200}), 1e-250)
    assert ns == aa({("x", "ns1"): -1.0, ("y", "ns1"): 1e-200})


def test_products_unique():
    assert products_unique(identity_from_keys(["a", "b"]))
    dependent = aa({("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 2.0, ("b", "y"): 4.0})
    assert not products_unique(dependent)
    assert products_unique(AssociativeArray())  # no columns, vacuously injective
    # A free column whose null-space vector, (-1e200, 1), has a 2-norm past the float range.
    huge = aa({("a", "x"): 1.0, ("a", "y"): 1e200})
    assert rank(huge, 1e-250) == 1 and not products_unique(huge, 1e-250)


# -- dominant_eigenpair -----------------------------------------------------


def test_eigen_identity_converges_immediately():
    res = dominant_eigenpair(identity_from_keys(["a", "b"]))
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert res.iterations == 1
    assert res.residual <= 1e-9


def test_eigen_diagonal_dominant():
    res = dominant_eigenpair(aa({("a", "a"): 2.0, ("b", "b"): 1.0}), tol=1e-9)
    assert res.eigenvalue == pytest.approx(2.0, abs=1e-8)
    assert res.eigenvector.col_keys == ("v1",)
    assert res.eigenvector.get("a", "v1") == pytest.approx(1.0, abs=1e-6)
    assert abs(res.eigenvector.get("b", "v1") or 0.0) <= 1e-6
    norm = math.sqrt(sum(v * v for _, _, v in res.eigenvector))
    assert norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("value", [1e160, 1e-170])
def test_eigen_iterate_whose_sum_of_squares_leaves_the_float_range(value):
    # 1e160 squared overflows to inf and 1e-170 squared underflows to 0.
    res = dominant_eigenpair(aa({("a", "a"): value}))
    assert (res.eigenvalue, res.iterations, res.residual) == (value, 1, 0.0)
    assert res.eigenvector == aa({("a", "v1"): 1.0})


def test_eigen_tie_reports_non_convergence():
    tie = aa({("a", "b"): 1.0, ("b", "a"): 1.0})
    with pytest.raises(NotConvergedError) as exc_info:
        dominant_eigenpair(tie, tol=1e-9, maxiter=200)
    est = exc_info.value.estimate
    assert est.iterations == 200
    assert est.residual > 1e-3  # oscillation never certifies
    assert est.eigenvector.col_keys == ("v1",)


def test_eigen_requires_square_key_sets():
    with pytest.raises(ValueError):
        dominant_eigenpair(aa({("a", "b"): 1.0}))


def test_eigen_zero_collapse():
    # [[1, 1], [-1, -1]] squashes the second iterate to exactly zero
    arr = aa({("a", "a"): 1.0, ("a", "b"): 1.0, ("b", "a"): -1.0, ("b", "b"): -1.0})
    with pytest.raises(ZeroIterateError):
        dominant_eigenpair(arr)
    with pytest.raises(ZeroIterateError):
        dominant_eigenpair(AssociativeArray())


def test_eigen_negative_dominant():
    arr = aa({("a", "a"): -5.0, ("b", "b"): 2.0})
    res = dominant_eigenpair(arr, tol=1e-10, maxiter=5000)
    assert res.eigenvalue == pytest.approx(-5.0, rel=1e-8)


def test_eigen_scale_invariance():
    base = aa({("a", "a"): 3.0, ("a", "b"): 1.0, ("b", "a"): 1.0, ("b", "b"): 1.0})
    scaled = AssociativeArray({cell: 1000.0 * v for cell, v in base.items()})
    r1 = dominant_eigenpair(base, tol=1e-10, maxiter=10000)
    r2 = dominant_eigenpair(scaled, tol=1e-10, maxiter=10000)
    assert r2.eigenvalue == pytest.approx(1000.0 * r1.eigenvalue, rel=1e-6)
    for k in ("a", "b"):
        assert abs(r2.eigenvector.get(k, "v1")) == \
            pytest.approx(abs(r1.eigenvector.get(k, "v1")), abs=1e-6)


def test_eigen_matches_jacobi_oracle_sample():
    rng = random.Random(4)
    found = 0
    while found < 30:
        n = rng.randint(2, 6)
        sym = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = round(rng.uniform(-3, 3), 3)
        eigs = jacobi_eigenvalues(sym)
        by_mag = sorted(eigs, key=abs, reverse=True)
        if len(by_mag) > 1 and abs(by_mag[0]) - abs(by_mag[1]) < 0.1:
            continue
        found += 1
        entries = {}
        for i in range(n):
            for j in range(n):
                if sym[i][j]:
                    entries[(f"k{i}", f"k{j}")] = sym[i][j]
        arr = AssociativeArray(entries)
        if len(arr.row_keys) != n or arr.row_keys != arr.col_keys:
            continue
        res = dominant_eigenpair(arr, tol=1e-10, maxiter=100000)
        check_invariants(res.eigenvector)
        assert res.eigenvalue == pytest.approx(by_mag[0], rel=1e-6, abs=1e-9)
        assert res.residual <= 1e-6


def test_eigen_rejects_bad_arguments():
    ident = identity_from_keys(["a"])
    with pytest.raises(ValueError):
        dominant_eigenpair(ident, tol=-1.0)
    with pytest.raises(ValueError):
        dominant_eigenpair(ident, maxiter=0)


def test_eigen_maxiter_bounds_the_steps():
    arr = aa({("a", "a"): 2.0, ("b", "b"): 1.0})
    k = dominant_eigenpair(arr).iterations
    assert k >= 2
    assert dominant_eigenpair(arr, maxiter=k).iterations == k
    with pytest.raises(NotConvergedError) as info:
        dominant_eigenpair(arr, maxiter=k - 1)
    assert info.value.estimate.iterations == k - 1
