"""Dense numeric analysis of small arrays: rank, null space, dominant eigenpair.

Arrays are projected onto a dense grid in sorted key order with 0.0 fill,
then handled with plain Gaussian elimination and power iteration.  These
paths are meant for desk-scale matrices (tens of keys), where exactness
of behavior matters more than speed.  Text values are refused.
"""

from __future__ import annotations

import math
import sys

from .core import LATTICE, AssociativeArray, _Record, _refuse_text, from_triples

DEFAULT_TOL = 1e-10


class DenseProjection(_Record):
    """An array flattened to a dense grid.

    ``cells[i][j]`` is the value at (row_order[i], col_order[j]); absent
    cells read 0.0.  Key orders are ascending.  An immutable ``_Record``, not a dataclass.
    """

    __match_args__ = ("row_order", "col_order", "cells")  # tuple[str, ...] twice, tuple[tuple[float, ...], ...]

    def to_array(self) -> AssociativeArray:
        """Round back to the sparse form; exact zeros disappear again.

        Keys and cells are validated as ``from_triples`` validates them;
        a repeated key's cells fold with the lattice max.
        """
        triples = (
            (r, c, self.cells[i][j])
            for i, r in enumerate(self.row_order)
            for j, c in enumerate(self.col_order)
        )
        return from_triples(triples, LATTICE)


def to_dense(arr: AssociativeArray) -> DenseProjection:
    _refuse_text(arr, "dense projection needs numbers, found text")
    cols = arr.col_keys
    cells = tuple(tuple(row.get(c, 0.0) for c in cols) for row in arr._rows.values())
    return DenseProjection(arr.row_keys, cols, cells)


def _check_tol(tol: float) -> None:
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")


def _norm(v: list[float]) -> float:
    """2-norm of ``v``; ``hypot``, which can differ in the last bit, only where the sum of squares is not normal."""
    s = sum(x * x for x in v)
    return math.sqrt(s) if sys.float_info.min <= s < math.inf else math.hypot(*v)


def _eliminate(arr: AssociativeArray, tol: float) -> tuple[tuple[str, ...], list[list[float]], list[int]]:
    """Reduced row echelon form of ``arr``'s dense grid, by partial pivoting.

    Cells at or below ``tol`` times the largest absolute cell count as zero.
    Returns the column keys, the reduced rows and the pivot column indices.
    """
    _check_tol(tol)
    dense = to_dense(arr)
    m = [list(row) for row in dense.cells]
    thresh = tol * max((abs(x) for row in m for x in row), default=0.0)
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(dense.col_order)):
        if r >= nrows:
            break
        p = max(range(r, nrows), key=lambda i: abs(m[i][c]))
        if abs(m[p][c]) <= thresh:
            for i in range(r, nrows):
                m[i][c] = 0.0  # numerically zero column segment
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        m[r][c] = 1.0
        for i in range(nrows):
            if i != r and m[i][c] != 0.0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                m[i][c] = 0.0
        pivots.append(c)
        r += 1
    return dense.col_order, m, pivots


def rank(arr: AssociativeArray, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank: the number of pivots ``_eliminate`` finds.

    Pivots at or below ``tol`` times the largest absolute cell count as
    zero, so the empty array has rank 0.
    """
    return len(_eliminate(arr, tol)[2])


def null_space(arr: AssociativeArray, tol: float = DEFAULT_TOL) -> AssociativeArray:
    """A basis of the right null space, one column per free variable.

    Free variables are the columns without a pivot in ``_eliminate``.  Row keys
    are the input's column keys; column keys are synthetic names "ns1", "ns2",
    ... in free-variable order, each scaled to unit 2-norm.  Empty when the rank
    equals the column count, as for the empty array.
    """
    cols, m, pivots = _eliminate(arr, tol)
    ncols = len(cols)
    free = sorted(set(range(ncols)) - set(pivots))
    triples: list[tuple[str, str, float]] = []
    for idx, f in enumerate(free, start=1):
        vec = [0.0] * ncols
        vec[f] = 1.0
        for row_i, pc in enumerate(pivots):
            vec[pc] = -m[row_i][f]
        norm = _norm(vec)
        triples += ((c, f"ns{idx}", x / norm) for c, x in zip(cols, vec))  # from_triples drops the zeros
    return from_triples(triples, LATTICE)


def products_unique(arr: AssociativeArray, tol: float = DEFAULT_TOL) -> bool:
    """True when the null space is empty, so x -> arr times x is injective: the rank is the column count."""
    return rank(arr, tol) == len(arr.col_keys)


class EigenResult(_Record):
    """Converged (or best-so-far) dominant eigenpair estimate.

    ``eigenvector`` is a single-column array under the column key "v1",
    scaled to unit 2-norm.  ``residual`` is the infinity norm of
    A v - lambda v at the reported pair.  An immutable ``_Record``, not a dataclass.
    """

    __match_args__ = ("eigenvalue", "eigenvector", "iterations", "residual")  # float, AssociativeArray, int, float


class IterationError(RuntimeError):
    """Base class for power iteration failures."""


class ZeroIterateError(IterationError):
    """The iterate collapsed to the exact zero vector."""


class NotConvergedError(IterationError):
    """maxiter exhausted; ``estimate`` carries the last eigenpair estimate."""

    def __init__(self, message: str, estimate: EigenResult):
        super().__init__(message)
        self.estimate = estimate


def _matvec(cells, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in cells]


def _vector_array(order, v) -> AssociativeArray:
    return from_triples(((k, "v1", x) for k, x in zip(order, v)), LATTICE)


def dominant_eigenpair(
    arr: AssociativeArray, tol: float = 1e-9, maxiter: int = 1000
) -> EigenResult:
    """Dominant eigenpair by power iteration with a Rayleigh quotient estimate.

    The start vector is the graded ramp (1, 2, ..., n) over the sorted keys,
    normalized; a flat start would sit exactly on the symmetric eigenvector
    of tied-magnitude pairs and mask the oscillation that must be reported.
    Convergence requires both a stable eigenvalue,
    |lam_new - lam_old| <= tol * max(1, |lam_new|), and a certified residual,
    ||A v - lam v||_inf <= tol * max(1, |lam_new|).  An oscillating iterate
    (tied eigenvalue magnitudes) keeps a constant Rayleigh quotient but never
    passes the residual check, so it runs to maxiter and raises
    NotConvergedError carrying the final estimate.
    """
    _check_tol(tol)
    if maxiter < 1:
        raise ValueError(f"maxiter must be at least 1, got {maxiter!r}")
    dense = to_dense(arr)
    if dense.row_order != dense.col_order:
        raise ValueError("eigenanalysis needs equal row and column key sets")
    order = dense.row_order
    n = len(order)
    if n == 0:
        raise ZeroIterateError("the empty array has no eigenpair")
    cells = dense.cells

    v = [float(i + 1) for i in range(n)]
    norm = _norm(v)
    v = [x / norm for x in v]
    w = _matvec(cells, v)
    lam = sum(x * y for x, y in zip(v, w))

    for it in range(1, maxiter + 1):
        wnorm = _norm(w)
        if wnorm == 0.0:
            raise ZeroIterateError(f"iterate collapsed to the zero vector at step {it}")
        v = [x / wnorm for x in w]
        w = _matvec(cells, v)
        lam_new = sum(x * y for x, y in zip(v, w))
        scale = max(1.0, abs(lam_new))
        if abs(lam_new - lam) <= tol * scale:
            residual = max(abs(x - lam_new * y) for x, y in zip(w, v))
            if residual <= tol * scale:
                return EigenResult(lam_new, _vector_array(order, v), it, residual)
        lam = lam_new

    residual = max(abs(x - lam * y) for x, y in zip(w, v))
    estimate = EigenResult(lam, _vector_array(order, v), maxiter, residual)
    raise NotConvergedError(
        f"power iteration did not converge in {maxiter} iterations "
        f"(last lambda {lam:.12g}, residual {residual:.3g})",
        estimate,
    )
