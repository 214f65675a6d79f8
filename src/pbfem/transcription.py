"""Assembly of the penalty-barrier merit function over a trajectory.

The merit is phi(x) = F_h + (1/(2*omega)) * ||C_h||^2 + tau * Gamma_h, where
F_h is the quadrature objective, C_h stacks point constraints and weighted
DAE residuals at quadrature nodes, and Gamma_h is the quadrature
approximation of the log-barrier on the algebraic components.

Assembly is vectorized: every problem callable is evaluated once per merit
(or gradient, or Hessian) evaluation, on arrays covering all quadrature
nodes of all intervals, with forward-mode differentiation scalars carrying
derivatives with respect to the local coefficient couplings.

The Newton build works only on structurally nonzero entries and does its
symbolic work once per transcription: element Hessians are summed over the
argument planes where the curvature is nonzero, and the sparse patterns of
the Hessian and constraint Jacobian are fixed by conversion plans made on
the first ``newton_system`` call.  Bit-exactness is a contract: gradients
and Newton matrices equal, bit for bit, those of the dense assembly that
evaluates one ``np.einsum`` over all planes and converts COO triplets with
scipy on every iteration (tests/test_newton_parity.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import ad
from .errors import BarrierDomainError, EvaluationError, InputError
from .mesh import Trajectory
from .polynomials import basis_deriv_matrix, basis_matrix
from .quadrature import gauss_legendre

__all__ = [
    "PenaltyBarrierParams",
    "TranscribedNLP",
    "assemble_objective",
    "assemble_constraint_vector",
    "assemble_barrier",
    "merit",
    "merit_gradient",
    "interior_push",
]


# below this omega, iterates are near feasible and the Hessian switches
# from Gauss-Newton to the exact penalty curvature
_CURVATURE_OMEGA = 1e-5

# below this omega the merit and gradient are evaluated in extended
# precision: in double precision the residual cancellation noise (~eps)
# divided by omega pollutes the gradient enough to corrupt weakly
# determined directions such as singular-arc controls
_EXTENDED_OMEGA = 1e-4

_HAVE_LONGDOUBLE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def _work_dtype(params, extended: bool = True) -> type:
    if extended and params.omega < _EXTENDED_OMEGA and _HAVE_LONGDOUBLE:
        return np.longdouble
    return np.float64


@dataclass(frozen=True)
class PenaltyBarrierParams:
    """Penalty weight omega and barrier weight tau, 0 < tau <= omega <= 0.5."""

    omega: float
    tau: float

    def __post_init__(self):
        if not 0.0 < self.omega <= 0.5:
            raise InputError("omega must lie in (0, 0.5]")
        if not 0.0 < self.tau <= self.omega:
            raise InputError("tau must lie in (0, omega]")


def _dual_parts(v, m, shape, second_order=False):
    """Value, gradient and optional Hessian arrays of a callable's output,
    broadcast to the batch shape, tolerating constant (non-Dual) results."""
    if isinstance(v, ad.Dual):
        val = np.broadcast_to(np.asarray(v.val, dtype=float), shape)
        grad = np.broadcast_to(np.asarray(v.grad, dtype=float), (m,) + shape)
        if not second_order:
            return val, grad, None
        if v.hess is None:
            hess = np.zeros((m, m) + shape)
        else:
            hess = np.broadcast_to(np.asarray(v.hess, dtype=float), (m, m) + shape)
        return val, grad, hess
    val = np.broadcast_to(np.asarray(v, dtype=float), shape)
    grad = np.zeros((m,) + shape)
    hess = np.zeros((m, m) + shape) if second_order else None
    return val, grad, hess


class _SparsePlan:
    """The symbolic half of scipy's COO -> CSR/CSC conversion for a fixed
    entry pattern, so that each numeric fill is a gather and a sum.

    ``matrix(vals)`` equals ``coo_matrix((vals, (rows, cols)), shape)``
    converted with ``.tocsr()`` (``fmt="csr"``) or ``.tocsc()`` bit for
    bit: entries are bucketed stably by major index as ``coo_tocsr`` does,
    scipy's own in-line index sort is run once on entry numbers to fix the
    order in which duplicates meet, and duplicates are then summed
    sequentially in that order, as ``csr_sum_duplicates`` sums them.
    ``layout[i]``, when given, is where the i-th COO entry sits in the
    array handed to ``matrix``.
    """

    def __init__(self, rows, cols, shape, fmt, layout=None):
        # int32 throughout and intermediates dropped early: the plan is
        # built inside a solve, where its transient memory is peak memory
        csc = fmt == "csc"
        major, minor = (cols, rows) if csc else (rows, cols)
        n_major, n_minor = (shape[1], shape[0]) if csc else shape
        indptr = np.zeros(n_major + 1, dtype=np.int32)
        np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
        order = np.argsort(major, kind="stable")
        tagged = scipy.sparse.csr_matrix(
            (order.astype(np.float64), minor[order].astype(np.int32, copy=False), indptr),
            shape=(n_major, n_minor),
        )
        del order
        tagged.sort_indices()
        minor_s = tagged.indices
        perm = tagged.data.astype(np.intp)
        del tagged
        self.perm = (perm if layout is None else layout[perm]).astype(np.int32, copy=False)
        del perm
        major_s = np.repeat(np.arange(n_major, dtype=np.int32), np.diff(indptr))
        first = np.empty(len(minor_s), dtype=bool)
        first[:1] = True
        np.not_equal(minor_s[1:], minor_s[:-1], out=first[1:])
        first[1:] |= major_s[1:] != major_s[:-1]
        self.run = np.cumsum(first, dtype=np.int32)
        self.run -= 1
        self.indices = minor_s[first]
        self.indptr = np.zeros(n_major + 1, dtype=np.int32)
        np.cumsum(np.bincount(major_s[first], minlength=n_major), out=self.indptr[1:])
        self.shape = shape
        self._cls = scipy.sparse.csc_matrix if csc else scipy.sparse.csr_matrix

    def matrix(self, vals):
        data = np.bincount(self.run, weights=vals[self.perm], minlength=len(self.indices))
        return self._cls((data, self.indices, self.indptr), shape=self.shape)


def _diagonal_slots(A):
    """For canonical square CSC ``A``: where each diagonal entry is stored
    (or would be inserted), and whether it is stored."""
    n = A.shape[0]
    cols = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    on_diag = np.flatnonzero(A.indices == cols)
    pos = np.empty(n, dtype=np.intp)
    pos[cols[on_diag]] = on_diag
    stored = np.zeros(n, dtype=bool)
    stored[cols[on_diag]] = True
    if not stored.all():
        # rows are sorted within a column: insert after those above the diagonal
        above = np.bincount(cols[A.indices < cols], minlength=n)
        missing = ~stored
        pos[missing] = A.indptr[:-1][missing] + above[missing]
    return pos, stored


def _shifted(A, slots, shift):
    """CSC arrays of ``A + shift * I`` as scipy's sparse addition forms
    them from canonical ``A``: the shift lands on the stored diagonal (or
    is inserted where none is stored) and exact zeros are dropped."""
    pos, stored = slots
    data = A.data.copy()
    data[pos[stored]] += shift
    indices, indptr = A.indices, A.indptr
    if not stored.all():
        missing = ~stored
        data = np.insert(data, pos[missing], shift)
        indices = np.insert(indices, pos[missing], np.flatnonzero(missing))
        indptr = indptr + np.concatenate(([0], np.cumsum(missing)))
    keep = data != 0
    if not keep.all():
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        data, indices = data[keep], indices[keep]
    return data, indices, indptr


def _memory_positions(a):
    """Where each element of a dense (possibly transposed) array sits in
    its memory, listed in C index order: ``a.ravel(order="K")[p] ==
    a.ravel()`` for the result ``p``."""
    pos = np.zeros(a.shape, dtype=np.int32)
    for axis, (n, stride) in enumerate(zip(a.shape, a.strides)):
        step = np.arange(n, dtype=np.int32) * (stride // a.itemsize)
        pos += step.reshape((n,) + (1,) * (a.ndim - axis - 1))
    return pos.ravel()


def _factor(K):
    if not np.all(np.isfinite(K.data)):
        # SuperLU neither raises nor warns cleanly on non-finite input
        raise ValueError("non-finite Newton matrix")
    return scipy.sparse.linalg.splu(K)


class _ShiftedSystem:
    """Newton model (H + mu I) d = -g solved by sparse LU."""

    def __init__(self, H):
        self.H = H.tocsc()
        self.H.sum_duplicates()  # sparse products may leave rows unsorted
        self._diag = _diagonal_slots(self.H)
        self.diag_scale = float(np.max(np.abs(H.diagonal()))) if H.nnz else 1.0

    def solve(self, g, shift):
        K = scipy.sparse.csc_matrix(_shifted(self.H, self._diag, shift), shape=self.H.shape)
        return _factor(K).solve(-np.asarray(g, dtype=np.float64))


class _SaddleSystem:
    """Newton model in augmented (primal-multiplier) form.

    The condensed Hessian B + J^T J / omega is numerically unusable at
    small omega: its large entries absorb the curvature of weakly
    determined directions into their round-off.  The equivalent system

        [ B + mu I   J^T       ] [d]   [ -g_smooth ]
        [ J          -omega I  ] [y] = [ -C        ]

    keeps every block at its natural scale, so the factorization resolves
    those directions; eliminating y recovers exactly
    (B + mu I + J^T J / omega) d = -(g_smooth + J^T C / omega).
    """

    def __init__(self, B, J, C, g_smooth, omega, dim):
        self.B = B.tocsc()
        self._diag = _diagonal_slots(self.B)
        self._Jc = J.tocsc()  # lower-left block, rows sorted per column
        self._Jr = self._Jc.tocsr()  # upper-right block J^T, by row of J
        self.C = C
        self.g_smooth = g_smooth
        self.omega = omega
        self.dim = dim
        self.diag_scale = max(
            float(np.max(np.abs(B.diagonal()))) if B.nnz else 0.0, 1.0
        )

    def _matrix(self, shift):
        """The saddle matrix in canonical CSC, laid out column by column
        as scipy's block assembly lays it out: column c < n holds the
        entries of B + shift I (exact zeros dropped) and then those of J;
        column n + r holds row r of J and then -omega on the diagonal."""
        n, Jc, Jr = self.dim, self._Jc, self._Jr
        nr = Jc.shape[0]
        b_data, b_indices, b_indptr = _shifted(self.B, self._diag, shift)
        nb, nj, nt = np.diff(b_indptr), np.diff(Jc.indptr), np.diff(Jr.indptr)
        indptr = np.zeros(n + nr + 1, dtype=np.int32)
        np.cumsum(np.concatenate([nb + nj, nt + 1]), out=indptr[1:])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)

        def place(start, src_indptr, counts, vals, rows):
            dst = np.repeat(start - src_indptr[:-1], counts) + np.arange(len(vals))
            data[dst] = vals
            indices[dst] = rows

        place(indptr[:n], b_indptr, nb, b_data, b_indices)
        place(indptr[:n] + nb, Jc.indptr, nj, Jc.data, Jc.indices + n)
        place(indptr[n:-1], Jr.indptr, nt, Jr.data, Jr.indices)
        data[indptr[n + 1:] - 1] = -self.omega
        indices[indptr[n + 1:] - 1] = np.arange(n, n + nr)
        return scipy.sparse.csc_matrix((data, indices, indptr), shape=(n + nr, n + nr))

    def solve(self, g, shift):
        n = self.dim
        K = self._matrix(shift)
        lu = _factor(K)
        rhs = np.concatenate([-self.g_smooth, -self.C])
        z = lu.solve(rhs)
        # one pass of iterative refinement: the graded factors lose a few
        # digits that the residual correction wins back
        z = z + lu.solve(rhs - K @ z)
        return z[:n]


class _Engine:
    """Shared assembly core for the FE transcription and the collocation
    baselines.

    The problem callables are fed argument rows k = 0..m-1 laid out as
    [ydot components, y components, z components].  Row k at quadrature
    node (b, q) is the linear combination sum_l A[k, b, q, l] *
    x[gidx[k, b, l]], so one tensor describes every evaluation the merit
    needs.  Optional extra linear equality rows E x + e0 (used by
    collocation linkage conditions) are appended to C_h.
    """

    def __init__(self, problem, A, gidx, w, tq, dim, z_dof_indices,
                 point_eval=None, E=None, e0=None, extended=True):
        # extended=False keeps every evaluation in plain double precision,
        # the standard NLP-solver setting used for the collocation baselines
        self.extended = extended
        self.problem = problem
        self.A = np.ascontiguousarray(A)
        self.gidx = np.ascontiguousarray(gidx)
        self.w = w
        self.tq = tq
        self.dim = dim
        self.z_dof_indices = np.asarray(z_dof_indices, dtype=int)
        self.point_eval = point_eval if point_eval is not None else []
        self.E = E.tocsr() if E is not None else None
        self.e0 = np.asarray(e0, dtype=float) if e0 is not None else None
        self.m = self.A.shape[0]
        self.n_batch, self.n_quad = w.shape
        self.L = self.A.shape[3]

        # boundary evaluation as a sparse matrix: rows are the (point, state
        # component) slots consumed by b, in call order
        slots = []
        for per_point in self.point_eval:
            slots.extend(per_point)
        self._slots = slots
        self.n_slots = len(slots)
        self._cast_cache = {}
        if self.n_slots:
            rows = np.repeat(np.arange(self.n_slots), [len(d) for d, _ in slots])
            cols = np.concatenate([d for d, _ in slots])
            data = np.concatenate([r for _, r in slots])
            self.Pb = scipy.sparse.csr_matrix(
                (data, (rows, cols)), shape=(self.n_slots, dim)
            )
        else:
            self.Pb = None

        # sparse conversion plans and the element-Hessian kernel choice,
        # fixed by the pattern and made on the first newton_system call
        self._h_plan = None
        self._jq_plan = None
        self._planewise = None
        self._A_qklb = None

    def _cast(self, name: str, arr, dtype):
        """Dtype-cast view of a fixed array, cached per dtype."""
        if arr.dtype == dtype:
            return arr
        key = (name, dtype)
        if key not in self._cast_cache:
            self._cast_cache[key] = arr.astype(dtype)
        return self._cast_cache[key]

    # -- argument evaluation --------------------------------------------
    def arg_values(self, x) -> np.ndarray:
        """All argument rows at all nodes, shape (m, n_batch, n_quad)."""
        A = self._cast("A", self.A, x.dtype)
        return np.einsum("kbql,kbl->kbq", A, x[self.gidx])

    def _split(self, args):
        ny, nz = self.problem.n_y, self.problem.n_z
        return args[:ny], args[ny : 2 * ny], args[2 * ny : 2 * ny + nz]

    def _call_fc(self, x, order: int):
        """Evaluate f and c at every node; order 0 plain, 1 with first
        derivatives, 2 with f second derivatives as well."""
        vals = self.arg_values(x)
        if order == 0:
            args = [vals[k] for k in range(self.m)]
        else:
            args = ad.seed(vals, self.m, second_order=(order == 2))
        ydot, y, z = self._split(args)
        shape = (self.n_batch, self.n_quad)
        fout = self.problem.f(ydot, y, z, self.tq)
        cout = self.problem.c(ydot, y, z, self.tq) if self.problem.n_c else []
        if order == 0:
            fval = np.broadcast_to(np.asarray(ad.value(fout)), shape)
            cval = np.stack(
                [np.broadcast_to(np.asarray(ad.value(r)), shape) for r in cout]
            ) if cout else np.zeros((0,) + shape)
            return vals, fval, None, None, cval, None, None
        fval, fgrad, fhess = _dual_parts(fout, self.m, shape, second_order=(order == 2))
        if cout:
            parts = [_dual_parts(r, self.m, shape, second_order=(order == 2)) for r in cout]
            cval = np.stack([p[0] for p in parts])
            cgrad = np.stack([p[1] for p in parts])
            chess = np.stack([p[2] for p in parts]) if order == 2 else None
        else:
            cval = np.zeros((0,) + shape)
            cgrad = np.zeros((0, self.m) + shape)
            chess = np.zeros((0, self.m, self.m) + shape) if order == 2 else None
        return vals, fval, fgrad, fhess, cval, cgrad, chess

    def _check_finite(self, arr, what):
        if not np.all(np.isfinite(arr)):
            where = np.argwhere(~np.isfinite(np.atleast_2d(arr)))
            b, q = where[0][-2], where[0][-1]
            t = self.tq[b, q]
            raise EvaluationError(f"non-finite {what} at t = {t:.6g}", node=t)

    # -- boundary block --------------------------------------------------
    def _boundary(self, x, order: int):
        """Point-constraint values b and, for order 1, their Jacobian with
        respect to the boundary slots."""
        if self.problem.n_b == 0 or not self.point_eval:
            z = np.zeros(0, dtype=x.dtype)
            return (z, np.zeros((0, self.n_slots))) if order else z
        slot_vals = np.array([np.dot(r, x[d]) for d, r in self._slots], dtype=x.dtype)
        if order == 0:
            args = list(slot_vals)
        else:
            args = ad.seed(slot_vals, self.n_slots)
        ny = self.problem.n_y
        ys, pos = [], 0
        for per_point in self.point_eval:
            ys.append(args[pos : pos + ny])
            pos += ny
        bout = self.problem.b(*ys)
        if order == 0:
            return np.array([ad.value(v) for v in bout], dtype=x.dtype)
        bval = np.zeros(len(bout), dtype=x.dtype)
        bjac = np.zeros((len(bout), self.n_slots), dtype=x.dtype)
        for i, v in enumerate(bout):
            if isinstance(v, ad.Dual):
                bval[i] = v.val
                bjac[i] = np.asarray(v.grad)
            else:
                bval[i] = v
        return bval, bjac

    # -- merit pieces ----------------------------------------------------
    def objective(self, x):
        _, fval, *_ = self._call_fc(x, 0)
        self._check_finite(fval, "objective integrand")
        w = self._cast("w", self.w, x.dtype)
        total = x.dtype.type(0.0)
        for b in range(self.n_batch):
            total += np.dot(w[b], fval[b])
        return total

    def constraint_vector(self, x) -> np.ndarray:
        vals, _, _, _, cval, _, _ = self._call_fc(x, 0)
        if cval.size:
            self._check_finite(cval, "DAE residual")
        bval = self._boundary(x, 0)
        sw = self._cast("sqrt_w", np.sqrt(self.w), x.dtype)
        # interval-major, node-minor, residual-component innermost
        cblock = (cval * sw[None]).transpose(1, 2, 0).ravel()
        parts = [bval, cblock]
        if self.E is not None:
            E = self._cast("E", self.E, x.dtype)
            parts.append(E @ x + self._cast("e0", self.e0, x.dtype))
        return np.concatenate(parts)

    def z_quad_values(self, x) -> np.ndarray:
        """Algebraic values at all quadrature nodes (a linear map, so it
        applies to step directions as well), shape (n_z, n_batch, n_quad)."""
        x = np.asarray(x)
        nz = self.problem.n_z
        if nz == 0:
            return np.zeros((0, self.n_batch, self.n_quad))
        k0 = 2 * self.problem.n_y
        sl = slice(k0, k0 + nz)
        A = self._cast("A", self.A, x.dtype)
        return np.einsum("kbql,kbl->kbq", A[sl], x[self.gidx[sl]])

    def barrier(self, x):
        x = np.asarray(x)
        zvals = self.z_quad_values(x)
        if zvals.size and np.min(zvals) <= 0.0:
            j, b, q = np.unravel_index(int(np.argmin(zvals)), zvals.shape)
            raise BarrierDomainError(int(j), float(self.tq[b, q]), float(zvals[j, b, q]))
        w = self._cast("w", self.w, x.dtype)
        total = x.dtype.type(0.0)
        for j in range(zvals.shape[0]):
            for b in range(self.n_batch):
                total -= np.dot(w[b], np.log(zvals[j, b]))
        return total

    def merit(self, x, params: PenaltyBarrierParams):
        x = np.asarray(x, dtype=_work_dtype(params, self.extended))
        gamma = self.barrier(x)  # check positivity first: cheap rejection
        C = self.constraint_vector(x)
        return self.objective(x) + (C @ C) / (2.0 * params.omega) + params.tau * gamma

    def merit_gradient(self, x, params: PenaltyBarrierParams) -> np.ndarray:
        g, _ = self._assemble(x, params, with_hessian=False)
        return g

    def newton_system(self, x, params: PenaltyBarrierParams):
        """Gradient and (Gauss-Newton plus exact-f plus barrier) Hessian."""
        return self._assemble(x, params, with_hessian=True)

    def _assemble(self, x, params, with_hessian):
        omega, tau = params.omega, params.tau
        dt = _work_dtype(params, self.extended)
        x = np.asarray(x, dtype=dt)
        order = 2 if with_hessian else 1
        vals, fval, fgrad, fhess, cval, cgrad, chess = self._call_fc(x, order)
        self._check_finite(fval, "objective integrand")
        if cval.size:
            self._check_finite(cval, "DAE residual")
        w = self._cast("w", self.w, dt)
        A = self._cast("A", self.A, dt)
        gidx = self.gidx
        # smooth part (objective + barrier) and penalty part are kept
        # separate: the saddle-point Newton form needs the smooth gradient
        # on its own
        g_sm = np.zeros(self.dim, dtype=dt)
        g_pen = np.zeros(self.dim, dtype=dt)

        contrib = np.einsum("bq,kbq,kbql->kbl", w, fgrad, A, optimize=True)
        # barrier
        nz, k0 = self.problem.n_z, 2 * self.problem.n_y
        if nz:
            zvals = vals[k0 : k0 + nz]
            if np.min(zvals) <= 0.0:
                j, b, q = np.unravel_index(int(np.argmin(zvals)), zvals.shape)
                raise BarrierDomainError(int(j), float(self.tq[b, q]), float(zvals[j, b, q]))
            contrib[k0 : k0 + nz] -= tau * np.einsum(
                "jbq,jbql->jbl", w[None] / zvals, A[k0 : k0 + nz]
            )
        np.add.at(g_sm, gidx, contrib)
        if cval.size:
            pen = (
                np.einsum("rbq,bq,rkbq,kbql->kbl", cval, w, cgrad, A, optimize=True)
                / omega
            )
            np.add.at(g_pen, gidx, pen)

        # boundary block
        if self.problem.n_b and self.Pb is not None:
            bval, bjac = self._boundary(x, 1)
            coeff = (bjac.T @ bval) / omega
            for s, (dofs, row) in enumerate(self._slots):
                g_pen[dofs] += coeff[s] * row
        else:
            bval = bjac = None
        # extra linear rows
        if self.E is not None:
            E = self._cast("E", self.E, dt)
            g_pen += E.T @ (E @ x + self._cast("e0", self.e0, dt)) / omega
        g = g_sm + g_pen
        if not with_hessian:
            return g, None

        # per-interval dense blocks over the m*L local slots; the Hessian
        # only steers Newton, so it is assembled in plain double precision
        saddle = omega < _EXTENDED_OMEGA and self.extended
        w64, A64 = self.w, self.A
        fhess64 = np.asarray(fhess, dtype=np.float64)
        M = w64[None, None] * fhess64
        if cval.size:
            cgrad64 = np.asarray(cgrad, dtype=np.float64)
            if not saddle:
                M = M + np.einsum(
                    "rkbq,rjbq,bq->kjbq", cgrad64, cgrad64, w64 / omega, optimize=True
                )
            if saddle or omega <= _CURVATURE_OMEGA:
                # exact penalty curvature, used once iterates are near
                # feasible: without it the Newton model loses O(|C|/omega)
                # curvature and weakly determined (singular-arc) directions
                # destabilize; far from feasibility the same term makes the
                # model indefinite, so the early stages stay Gauss-Newton
                M = M + np.einsum(
                    "rbq,rkjbq,bq->kjbq",
                    np.asarray(cval, dtype=np.float64),
                    np.asarray(chess, dtype=np.float64),
                    w64 / omega,
                    optimize=True,
                )
        Hloc = self._element_hessians(M)
        if nz:
            zvals64 = np.asarray(vals[k0 : k0 + nz], dtype=np.float64)
            for j in range(nz):
                k = k0 + j
                Hloc[:, k, :, k, :] += np.einsum(
                    "bq,bql,bqr->blr", tau * w64 / zvals64[j] ** 2, A64[k], A64[k]
                )
        if self._h_plan is None:
            # COO entries in (b, k, l, j, r) order, as the per-interval
            # dense blocks over the m * L local slots were always scattered
            mL = self.m * self.L
            Gl = self.gidx.transpose(1, 0, 2).reshape(self.n_batch, mL).astype(np.int32)
            self._h_plan = _SparsePlan(
                np.repeat(Gl, mL, axis=1).ravel(), np.tile(Gl, (1, mL)).ravel(),
                (self.dim, self.dim), "csc", _memory_positions(Hloc),
            )
        H = self._h_plan.matrix(Hloc.ravel(order="K"))
        if saddle:
            # constraint Jacobian in the constraint_vector row order
            Jparts, Cparts = [], []
            if bjac is not None and bjac.size:
                Jb = scipy.sparse.csr_matrix(np.asarray(bjac, dtype=np.float64)) @ self.Pb
                Jparts.append(Jb)
                Cparts.append(np.asarray(bval, dtype=np.float64))
            if cval.size:
                sw64 = np.sqrt(w64)
                jq_vals = np.einsum(
                    "bq,rkbq,kbql->bqrkl", sw64, cgrad64, A64, optimize=True
                )
                if self._jq_plan is None:
                    self._jq_plan = self._jq_pattern()
                Jq = self._jq_plan.matrix(jq_vals.ravel())
                Jparts.append(Jq)
                Cparts.append(
                    np.asarray(
                        (cval * self._cast("sqrt_w", np.sqrt(self.w), dt)[None])
                        .transpose(1, 2, 0)
                        .ravel(),
                        dtype=np.float64,
                    )
                )
            if self.E is not None:
                Jparts.append(self.E)
                rE = self._cast("E", self.E, dt) @ x + self._cast("e0", self.e0, dt)
                Cparts.append(np.asarray(rE, dtype=np.float64))
            if Jparts:
                J = scipy.sparse.vstack(Jparts, format="csr")
                C = np.concatenate(Cparts)
            else:
                J = scipy.sparse.csr_matrix((0, self.dim))
                C = np.zeros(0)
            return g, _SaddleSystem(
                H, J, C, np.asarray(g_sm, dtype=np.float64), omega, self.dim
            )
        if bjac is not None and bjac.size:
            JP = scipy.sparse.csr_matrix(np.asarray(bjac, dtype=np.float64)) @ self.Pb
            H = H + (JP.T @ JP) / omega
        if self.E is not None:
            H = H + (self.E.T @ self.E) / omega
        return g, _ShiftedSystem(H)

    def _jq_pattern(self):
        """Conversion plan of the quadrature-residual Jacobian block, with
        row order (interval, node, residual component) matching
        ``constraint_vector`` and entry order (b, q, r, k, l)."""
        nc = self.problem.n_c
        B, Q, m, L = self.n_batch, self.n_quad, self.m, self.L
        rows = np.repeat(np.arange(B * Q * nc, dtype=np.int32), m * L)
        gT = self.gidx.transpose(1, 0, 2).astype(np.int32)  # (B, m, L)
        cols = np.broadcast_to(gT[:, None, None, :, :], (B, Q, nc, m, L)).ravel()
        return _SparsePlan(rows, cols, (B * Q * nc, self.dim), "csr")

    def _element_hessians(self, M):
        """Per-interval blocks einsum("kbql,kjbq,jbqr->bkljr", A, M, A), bit
        for bit, indexed (b, k, l, j, r) but possibly stored plane by plane.

        When numpy contracts the three operands in one pass it sums over q
        in ascending order the products A_k * (M_kj * A_j), so only the
        (k, j) planes where M is nonzero need that sum; the rest hold
        zeros.  When numpy picks a pairwise path instead, its rounding is
        not reproduced plane by plane, and einsum itself is kept."""
        A, m, L, B = self.A, self.m, self.L, self.n_batch
        if self._planewise is None:
            path = np.einsum_path("kbql,kjbq,jbqr->bkljr", A, M, A, optimize=True)[0]
            self._planewise = path[1:] == [(0, 1, 2)]
            # (q, k, l, b): the batch axis innermost for the plane sums
            self._A_qklb = np.ascontiguousarray(A.transpose(2, 0, 3, 1))
        if not self._planewise:
            return np.einsum("kbql,kjbq,jbqr->bkljr", A, M, A, optimize=True)
        Hloc = np.zeros((m, m, L, L, B))
        ks, js = np.nonzero(np.any(M != 0.0, axis=(2, 3)))
        if len(ks):
            Aq = self._A_qklb
            Ak = Aq[:, ks, :, None, :]
            MA = (M[ks, js].transpose(2, 0, 1)[:, :, None, :] * Aq[:, js])[:, :, None]
            acc = np.zeros((len(ks), L, L, B))
            term = np.empty_like(acc)
            for q in range(self.n_quad):
                np.multiply(Ak[q], MA[q], out=term)
                acc += term
            Hloc[ks, js] = acc
        return Hloc.transpose(4, 0, 2, 1, 3)

    def interior_push(self, x, threshold: float) -> np.ndarray:
        if threshold <= 0.0:
            raise InputError("push threshold must be positive")
        out = np.array(x, dtype=float)
        idx = self.z_dof_indices
        out[idx] = np.maximum(out[idx], threshold)
        return out

    def interior_margin(self, x, threshold: float) -> np.ndarray:
        """Shift algebraic components upward only where their quadrature
        values dip below ``threshold``, by the smallest constant per
        (component, interval) that restores the margin.  Unlike a global
        coefficient clip this leaves an almost-interior iterate essentially
        unchanged, which matters between continuation stages."""
        if threshold <= 0.0:
            raise InputError("margin threshold must be positive")
        out = np.array(x, dtype=float)
        nz = self.problem.n_z
        if nz == 0:
            return out
        zq = self.z_quad_values(out)  # (nz, B, Q)
        mins = zq.min(axis=2)
        delta = np.zeros(self.dim)
        k0 = 2 * self.problem.n_y
        for j, b in zip(*np.nonzero(mins < threshold)):
            lift = threshold - mins[j, b]
            # shared dofs (continuous components) take the largest lift
            np.maximum.at(delta, self.gidx[k0 + j, b], lift)
        out += delta
        return out


class TranscribedNLP:
    """The finite-element penalty-barrier transcription of a problem.

    Degrees of freedom are exactly the trajectory coefficients of
    ``space``; continuity of the differential components is structural.
    The default quadrature uses 2p points per interval, two points beyond
    the p-point budget a collocation scheme of the same degree would have,
    which is what rules out quadrature blind spots like the sawtooth
    example in the tests.
    """

    def __init__(self, problem, space, rule=None, params=None):
        if space.n_y != problem.n_y or space.n_z != problem.n_z:
            raise InputError("space component counts must match the problem")
        if rule is None:
            rule = gauss_legendre(max(1, 2 * space.p))
        if params is None:
            params = PenaltyBarrierParams(1e-2, 1e-2)
        self.problem = problem
        self.space = space
        self.rule = rule
        self.params = params

        mesh = space.mesh
        ny, nz = problem.n_y, problem.n_z
        nb_int = mesh.n_intervals
        L = space.p + 1
        Q = rule.n_points
        lengths = mesh.lengths
        nodes = tuple(space.ref_nodes)
        Bv = basis_matrix(nodes, rule.nodes)  # (Q, L)
        Bd = basis_deriv_matrix(nodes, rule.nodes)

        m = 2 * ny + nz
        A = np.empty((m, nb_int, Q, L))
        gidx = np.empty((m, nb_int, L), dtype=int)
        for j in range(ny):
            A[j] = Bd[None] * (2.0 / lengths)[:, None, None]
            A[ny + j] = Bv[None]
            gidx[j] = space.y_dofs[j]
            gidx[ny + j] = space.y_dofs[j]
        for j in range(nz):
            A[2 * ny + j] = Bv[None]
            gidx[2 * ny + j] = space.z_dofs[j]

        mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        halves = 0.5 * lengths
        tq = mids[:, None] + halves[:, None] * rule.nodes[None, :]
        w = halves[:, None] * rule.weights[None, :]

        point_eval = [
            [space.point_evaluation_row(j, tk) for j in range(ny)]
            for tk in problem.point_times
        ] if problem.n_b else []

        self.engine = _Engine(
            problem, A, gidx, w, tq, space.dimension,
            space.z_dof_indices, point_eval,
        )
        self.dimension = space.dimension

    # methods shared with the collocation NLPs (duck-typed solver interface)
    def merit(self, x) -> float:
        return self.engine.merit(x, self.params)

    def merit_gradient(self, x) -> np.ndarray:
        return self.engine.merit_gradient(x, self.params)

    def newton_system(self, x):
        return self.engine.newton_system(x, self.params)

    def objective(self, x) -> float:
        return self.engine.objective(x)

    def constraint_vector(self, x) -> np.ndarray:
        return self.engine.constraint_vector(x)

    def barrier(self, x) -> float:
        return self.engine.barrier(x)

    def z_quad_values(self, x) -> np.ndarray:
        return self.engine.z_quad_values(x)

    def interior_push(self, x, threshold: float) -> np.ndarray:
        return self.engine.interior_push(x, threshold)

    def interior_margin(self, x, threshold: float) -> np.ndarray:
        return self.engine.interior_margin(x, threshold)

    def to_trajectory(self, x) -> Trajectory:
        return Trajectory(self.space, np.array(x, dtype=float))

    def from_trajectory(self, trajectory) -> np.ndarray:
        return np.array(trajectory.coeffs, dtype=float)


# -- module-level views --------------------------------------------------
def assemble_objective(nlp, coeffs) -> float:
    """F_h: quadrature value of the objective integral."""
    return nlp.objective(np.asarray(coeffs, dtype=float))


def assemble_constraint_vector(nlp, coeffs) -> np.ndarray:
    """C_h: point constraints, then per-node weighted DAE residuals."""
    return nlp.constraint_vector(np.asarray(coeffs, dtype=float))


def assemble_barrier(nlp, coeffs) -> float:
    """Gamma_h: quadrature approximation of -sum_j int log z_j."""
    return nlp.barrier(np.asarray(coeffs, dtype=float))


def merit(nlp, coeffs) -> float:
    return float(nlp.merit(np.asarray(coeffs, dtype=float)))


def merit_gradient(nlp, coeffs) -> np.ndarray:
    return np.asarray(nlp.merit_gradient(np.asarray(coeffs, dtype=float)), dtype=float)


def interior_push(nlp, coeffs, threshold: float) -> np.ndarray:
    """Clip every algebraic coefficient up to at least ``threshold``."""
    return nlp.interior_push(np.asarray(coeffs, dtype=float), threshold)
