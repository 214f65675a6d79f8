"""Newton systems of a plan (``pbfem.plans``), their factorization by
SuperLU, and the Levenberg shift ladder, which factors every shift it
tries in the calling process.

The matrices of a plan take a few patterns, since only exact zeros are
left out, so SuperLU's COLAMD orders each pattern once: every later
matrix of the pattern is one gather of the plan's slot values in that
column order (``_PatternOrder``), factored without ordering, to the bits
of ``splu`` (``_OrderedLU``).  Only this module calls SuperLU, and SciPy's
private ``_superlu`` is the one private name it takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.linalg._dsolve import _superlu


class _PatternOrder:
    """The column order SuperLU's COLAMD gave one pattern of a plan
    (``perm_c``), and the gather that hands SuperLU every later matrix of
    the pattern relabelled by it: ``take``, the plan's slots in the order
    SuperLU receives them, the relabelled ``indices`` and ``indptr``, and
    ``shift_at``, where the shift lands among them."""

    def __init__(self, perm):
        self.perm = perm
        self.take = None

    def matrix(self, system, shift):
        """``system``'s Newton matrix at this shift with row and column
        ``perm[i]`` its row and column i, each column keeping its stored
        entries in their order, as SuperLU receives it.  The gather is made
        at the first call, the pattern's second matrix, once its first LU
        is freed; every call passes a system of this order's pattern."""
        if self.take is None:
            plan, left_out = system.plan, system.left_out(shift)
            # old[k]: the column that becomes column k
            old = np.argsort(self.perm)
            # where each column's kept slots start among the kept slots
            start = plan.indptr - np.searchsorted(left_out, plan.indptr)
            counts = np.diff(start)[old]
            self.indptr = np.r_[0, np.cumsum(counts)].astype(np.int32)
            at = np.repeat((start[old] - self.indptr[:-1]).astype(np.int32), counts)
            at += np.arange(len(at), dtype=np.int32)
            self.take = np.delete(np.arange(len(plan.indices), dtype=np.int32), left_out).take(at)
            self.indices = self.perm.take(plan.indices.take(self.take))
            self.shift_at = np.flatnonzero(np.isin(self.take, plan.diag))
        data = system.values.take(self.take)
        data[self.shift_at] += shift
        n = len(self.perm)
        return scipy.sparse.csc_matrix((data, self.indices, self.indptr), shape=(n, n))


def _factor(K, order=None):
    """SuperLU's LU factors of K, bit for bit those of ``splu``; with
    ``order`` (a :class:`_PatternOrder`), K is a matrix relabelled by it,
    and the factors solve in the labels before it (:class:`_OrderedLU`)."""
    if not np.all(np.isfinite(K.data)):
        # SuperLU neither raises nor warns cleanly on non-finite input
        raise ValueError("non-finite Newton matrix")
    if order is None:
        return scipy.sparse.linalg.splu(K)
    return _OrderedLU(K, order.perm)


class _OrderedLU:
    """LU factors of a matrix A in a column order found before, from A
    relabelled by it (:meth:`_PatternOrder.matrix`), solving in A's labels.

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

    Holds the plan, K's ``values`` without its shift in the plan's slots,
    ``drop``, the sorted positions of the slots that K leaves out, and
    whether a solve takes one pass of iterative refinement (the saddle
    form does).  The shift lands on the plan's ``dim`` primal diagonal
    slots, and those it makes zero are left out too.

    The plan's ``orders`` holds the column order of every pattern of the
    plan that SuperLU has factored, keyed by the slots the pattern leaves
    out, never by its entries; later matrices of the pattern are gathered
    and factored in it (:class:`_PatternOrder`).  A remade plan starts a
    dict of its own.
    """

    plan: object
    values: np.ndarray
    drop: np.ndarray
    diag_scale: float
    rhs: np.ndarray
    refine: bool

    def left_out(self, shift):
        """The sorted positions of the plan's slots that the matrix at this
        shift leaves out: ``drop``, and the diagonal slots the shift zeroes.
        They are the matrix's pattern, and their bytes key it in the plan's
        ``orders``."""
        diag = self.plan.diag
        zeroed = diag[self.values[diag] + shift == 0]
        return np.union1d(self.drop, zeroed) if len(zeroed) else self.drop

    def matrix(self, shift):
        """The Newton matrix at this shift in the plan's labels."""
        plan, left_out = self.plan, self.left_out(shift)
        data, indices, indptr = self.values.copy(), plan.indices, plan.indptr
        data[plan.diag] += shift
        if len(left_out):
            data, indices = np.delete(data, left_out), np.delete(indices, left_out)
            indptr = (indptr - np.searchsorted(left_out, indptr)).astype(np.int32)
        n = len(indptr) - 1
        return scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n))

    def solve(self, shift):
        key = self.left_out(shift).tobytes()
        order = self.plan.orders.get(key)
        if order is None:
            lu = _factor(self.matrix(shift))
            # a copy: SuperLU's own array keeps all of its factors alive
            self.plan.orders[key] = _PatternOrder(lu.perm_c.copy())
        else:
            lu = _factor(order.matrix(self, shift), order)
        z = lu.solve(self.rhs)
        if self.refine:
            # the graded factors lose a few digits that the residual
            # correction wins back; the residual is formed in the
            # matrix's own labels
            z = z + lu.solve(self.rhs - self.matrix(shift) @ z)
        return z[: self.plan.dim]


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
