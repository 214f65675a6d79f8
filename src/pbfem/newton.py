"""Newton systems of a plan (``pbfem.plans``), their factorization by
SuperLU, and the Levenberg shift ladder, which factors every shift it
tries in the calling process.

The matrices of a plan take a few patterns, since only exact zeros are
left out, so SuperLU's COLAMD orders each pattern once: later matrices of
the pattern are relabelled by that column order and factored without
ordering, to the bits of ``splu`` (``_OrderedLU``).  Only this module
calls SuperLU and SciPy's private ``_superlu`` and ``_sparsetools``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu


def _drop(data, indices, indptr, drop):
    """CSC arrays with the slots at the sorted positions ``drop`` left out."""
    if not len(drop):
        return data, indices, indptr
    return (np.delete(data, drop), np.delete(indices, drop),
            (indptr - np.searchsorted(drop, indptr)).astype(np.int32))


class _ColumnOrder:
    """The column order SuperLU's COLAMD gave one pattern (``perm_c``), and
    the relabelled structure of the systems whose matrices take that
    pattern, made on first use."""

    def __init__(self, perm):
        self.perm = perm
        # old[k]: the column that becomes column k
        self.old = np.empty_like(perm)
        self.old[perm] = np.arange(len(perm), dtype=perm.dtype)
        self.indices = self.indptr = None

    def relabel(self, data, indices, indptr):
        """CSC arrays of the matrix whose row and column ``perm[i]`` are row
        and column i of the given one; each column keeps its stored entries
        in their order.  Every call passes the arrays of a system of this
        order's pattern, so the structure made at the first serves all."""
        n = len(self.perm)
        new_indices, new_data = np.empty_like(indices), np.empty_like(data)
        # the column copy that scipy's column indexing runs, without its checks
        _sparsetools.csr_row_index(n, self.old, indptr, indices, data, new_indices, new_data)
        if self.indices is None:
            self.indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.diff(indptr)[self.old], out=self.indptr[1:])
            self.indices = self.perm.take(new_indices)
        return new_data, self.indices, self.indptr


def _factor(K, order=None):
    """SuperLU's LU factors of K, bit for bit those of ``splu``; with
    ``order`` (a :class:`_ColumnOrder`), K is a matrix relabelled by it, and
    the factors solve in the labels before it (:class:`_OrderedLU`)."""
    if not np.all(np.isfinite(K.data)):
        # SuperLU neither raises nor warns cleanly on non-finite input
        raise ValueError("non-finite Newton matrix")
    if order is None:
        return scipy.sparse.linalg.splu(K)
    return _OrderedLU(K, order.perm)


class _OrderedLU:
    """LU factors of a matrix A in a column order found before, from A
    relabelled by it (:meth:`_ColumnOrder.relabel`), solving in A's labels.

    SuperLU factors the relabelled matrix without ordering it
    (``ColPerm="NATURAL"``), in the mode ``splu`` runs COLAMD in
    (``SymmetricMode=False``).  The order is already postordered, so SuperLU
    keeps it, and its pivot search in column j prefers the row the order
    maps onto j, as in ``splu(A)``.  Each column keeps A's storage order, in
    which the search meets equal candidates and the factorization its
    rows: the same matrix with sorted columns, which is what the public
    ``splu(..., permc_spec="NATURAL")`` would factor after its
    ``sum_duplicates``, gives other bits.  So the factors, the row
    permutation, the refusals and every solution are those of ``splu(A)``.
    """

    def __init__(self, K, perm):
        self._lu = _superlu.gstrf(K.shape[0], K.nnz, K.data, K.indices, K.indptr,
                                  csc_construct_func=scipy.sparse.csc_matrix, ilu=False,
                                  options=dict(ColPerm="NATURAL", SymmetricMode=False))
        self.perm = perm

    def solve(self, b):
        relabelled = np.empty_like(b)
        relabelled[self.perm] = b
        return self._lu.solve(relabelled)[self.perm]


@dataclass(eq=False)
class _NewtonSystem:
    """Newton model K d = rhs, shifted by mu on the primal diagonal and
    solved by sparse LU, in either form.

    The Gauss-Newton form is (H + mu I) d = -g.  In the saddle form the
    condensed Hessian B + J^T J / omega, numerically unusable at small
    omega (its large entries absorb the curvature of weakly determined
    directions into their round-off), is replaced by the equivalent system

        [ B + mu I   J^T       ] [d]   [ -g_smooth ]
        [ J          -omega I  ] [y] = [ -C        ]

    which keeps every block at its natural scale, so the factorization
    resolves those directions; eliminating y recovers exactly
    (B + mu I + J^T J / omega) d = -(g_smooth + J^T C / omega).

    Holds K without its shift in CSC form, ``diag`` the positions of its
    first ``dim`` (primal) diagonal entries, whether a solve takes one
    pass of iterative refinement (the saddle form does), and ``drop``, the
    sorted positions of the plan's slots that K leaves out.  Zeros on the
    diagonal are left out once the shift is added.

    ``orders`` is the plan's dict of the column order of every pattern of
    the plan that SuperLU has factored, keyed by the slots the pattern
    leaves out, never by its entries; later matrices of the pattern are
    factored in it (:class:`_OrderedLU`).  A remade plan starts a dict of
    its own.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray
    diag_scale: float
    rhs: np.ndarray
    dim: int
    refine: bool
    drop: np.ndarray
    orders: dict

    @classmethod
    def of_plan(cls, plan, data, drop, diag_scale, rhs, refine):
        """The system of ``plan``'s matrix with values ``data``, the slots
        at the sorted positions ``drop`` left out."""
        data, indices, indptr = _drop(data, plan.indices, plan.indptr, drop)
        diag = plan.diag - np.searchsorted(drop, plan.diag) if len(drop) else plan.diag
        return cls(data, indices, indptr, diag, diag_scale, rhs, plan.dim, refine, drop,
                   plan.orders)

    def matrix(self, shift, order=None):
        """The Newton matrix at this shift, relabelled by ``order`` if
        given, as SuperLU receives it."""
        if order is None:
            data, indices, indptr, diag = self.data.copy(), self.indices, self.indptr, self.diag
        else:
            data, indices, indptr = order.relabel(self.data, self.indices, self.indptr)
            # a column keeps its entries' order, so its diagonal entry
            # keeps its offset from the column's start
            diag = indptr[order.perm[: self.dim]] + (self.diag - self.indptr[: self.dim])
        data[diag] += shift
        data, indices, indptr = _drop(data, indices, indptr, np.sort(diag[data[diag] == 0]))
        n = len(indptr) - 1
        return scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n))

    def pattern(self, shift):
        """The key in ``orders`` of the matrix's pattern at this shift: the
        plan's slots left out, and the diagonal entries the shift zeroes."""
        return self.drop.tobytes(), np.flatnonzero(self.data[self.diag] + shift == 0).tobytes()

    def solve(self, shift):
        key = self.pattern(shift)
        order = self.orders.get(key)
        lu = _factor(self.matrix(shift, order), order)
        if order is None:
            # a copy: SuperLU's own array keeps all of its factors alive
            self.orders[key] = _ColumnOrder(lu.perm_c.copy())
        z = lu.solve(self.rhs)
        if self.refine:
            # the graded factors lose a few digits that the residual
            # correction wins back; the residual is formed in the
            # matrix's own labels
            z = z + lu.solve(self.rhs - self.matrix(shift) @ z)
        return z[: self.dim]


def _next_shift(shift, floor, scale):
    return max(floor * scale, 4.0 * shift) if shift else max(floor * scale, 1e-8 * scale)


def _trial(system, shift):
    """The Newton direction at ``shift``, or None when SuperLU refuses the
    matrix."""
    try:
        return system.solve(shift)
    except (RuntimeError, ValueError):
        return None


def _newton_direction(system, g, floor, mu):
    """Solve the shifted Newton model, escalating the shift until the
    factorization succeeds and yields a descent direction.  Returns the
    direction and the shift that produced it; the direction is None when
    forty shifts fail."""
    scale = system.diag_scale
    shift = mu
    for _ in range(40):
        d = _trial(system, shift)
        if d is not None and np.all(np.isfinite(d)) and float(g @ d) < 0.0:
            return d, shift
        shift = _next_shift(shift, floor, scale)
    return None, shift
