"""Assembly of the penalty-barrier merit function over a trajectory.

The merit is phi(x) = F_h + (1/(2*omega)) * ||C_h||^2 + tau * Gamma_h, where
F_h is the quadrature objective, C_h stacks point constraints and weighted
DAE residuals at quadrature nodes, and Gamma_h is the quadrature
approximation of the log-barrier on the algebraic components.

Assembly is vectorized: every problem callable is evaluated once per merit
(or gradient, or Hessian) evaluation, on arrays covering all quadrature
nodes of all intervals, with forward-mode differentiation scalars carrying
derivatives with respect to the local coefficient couplings.

The Newton build works only on nonzero entries and does its symbolic work
once per transcription and Newton form.  Element Hessians are formed only
on the argument planes where the curvature can be nonzero -- those where a
tracked second derivative is nonzero, or that a residual's derivative
support spans for the Gauss-Newton term -- into a compact array, by a
kernel that repeats numpy's contraction path on those planes.  The exact
penalty curvature is contracted from the residuals' compact Hessians on
the planes where one of them is nonzero, and residuals are differentiated
to second order only in the stages that use it.  Within the planes, the
structural zeros get no slot: the entries where the basis product
``A[k, b, q, l] * A[j, b, q, r]`` (see ``TranscribedNLP``) vanishes at every
node q, as it does for most pairs of the unit-vector LGR basis of the algebraic
rows.  Where each value lands in the matrix handed to SuperLU is fixed
by a plan per Newton form (``pbfem.plans``); ``pbfem.newton`` factors the
matrix and solves the Newton system.
Bit-exactness is a contract: gradients and Newton matrices equal, bit for
bit, those of the dense assembly that evaluates one ``np.einsum`` over all
planes, converts COO triplets with scipy and forms ``H + X``,
``H + shift * I`` and the block matrix with scipy's sparse arithmetic on
every iteration (tests/test_newton_parity.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import ad
from .errors import BarrierDomainError, EvaluationError, InputError
from .mesh import Trajectory
from .plans import _hessian_sums, _jacobian_sums, _reach, _SaddlePlan, _ShiftedPlan
from .polynomials import basis_deriv_matrix, basis_matrix
from .quadrature import _row_dots, gauss_legendre

__all__ = ["PenaltyBarrierParams", "TranscribedNLP"]


# below this omega, iterates are near feasible and the Hessian switches
# from Gauss-Newton to the exact penalty curvature
_CURVATURE_OMEGA = 1e-5

# below this omega the merit and gradient are evaluated in extended
# precision: in double precision the residual cancellation noise (~eps)
# divided by omega pollutes the gradient enough to corrupt weakly
# determined directions such as singular-arc controls
_EXTENDED_OMEGA = 1e-4

_HAVE_LONGDOUBLE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps

# the element Hessians: sum over q of A_k * M_kj * A_j per interval
_ELEMENT_HESSIANS = "kbql,kjbq,jbqr->bkljr"

# the exact penalty curvature weights: sum over the residuals r of
# C_r * Hessian(C_r), times w / omega
_RESIDUAL_CURVATURE = "rbq,rkjbq,bq->kjbq"

# element-Hessian planes summed together: a chunk's operands and
# accumulator (about 0.2 MB each at p = 5 and 40 intervals) stay in cache;
# pendulum-a's 84 Gauss-Newton planes at 40 intervals take 2.21 ms in
# chunks against 2.86 ms in one pass (2-core Xeon)
_PLANE_CHUNK = 12


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


def _dual_parts(v, m, shape):
    """Value and gradient arrays of a callable's output, broadcast to the
    batch shape, tolerating constant (non-Dual) results."""
    if isinstance(v, ad.Dual):
        val = np.broadcast_to(np.asarray(v.val, dtype=float), shape)
        grad = np.broadcast_to(np.asarray(v.grad, dtype=float), (m,) + shape)
        return val, grad
    return np.broadcast_to(np.asarray(v, dtype=float), shape), np.zeros((m,) + shape)


def _hessians(outs, m, shape):
    """Hessians of the callables' outputs as one array of shape
    ``(len(outs), m, m) + shape``, filled from their tracked supports
    (zero elsewhere)."""
    hess = np.zeros((len(outs), m, m) + shape)
    for i, v in enumerate(outs):
        if isinstance(v, ad.Dual) and v.sup and v.h is not None:
            s = len(v.sup)
            hess[i][np.ix_(v.sup, v.sup)] = np.broadcast_to(v.h, (s, s) + shape)
    return hess


def _on_planes(v, ks, js, nonzero=False):
    """The planes (ks[p], js[p]) that the tracked Hessian of a callable's
    output covers -- with ``nonzero``, those where it holds a nonzero
    value: their indices p, and where they lie in ``v.h``."""
    if not (isinstance(v, ad.Dual) and v.sup and v.h is not None):
        return (np.zeros(0, dtype=np.intp),) * 3
    s = len(v.sup)
    local = np.full(v.m, -1)
    local[list(v.sup)] = np.arange(s)
    lk, lj = local[ks], local[js]
    on = (lk >= 0) & (lj >= 0)
    if nonzero:
        on[on] = np.any(v.h.reshape(s, s, -1) != 0.0, axis=2)[lk[on], lj[on]]
    p = np.flatnonzero(on)
    return p, lk[p], lj[p]


def _curvature_matmul(block, cval):
    """sum_r block[r, p, b, q] * cval[r, b, q], shape (plane, b, q), as
    numpy's pairwise einsum path contracts r: one ``matmul`` per node of
    the (plane, residual) block, a strided view of the contiguous
    (residual, plane, b, q) array, with the residual values.  Like
    numpy's view of the dense Hessians, the block is no BLAS operand, so
    ``matmul`` sums each product over r in its own loop."""
    nc, P, B, Q = block.shape
    if P == 1:  # one row would make it a dot product
        block = np.concatenate([block, np.zeros_like(block)], axis=1)
    ab = np.matmul(block.transpose(2, 3, 1, 0).reshape(B * Q, -1, nc),
                   cval.transpose(1, 2, 0).reshape(B * Q, nc, 1))
    return ab.reshape(B, Q, -1)[:, :, :P].transpose(2, 0, 1)


class TranscribedNLP:
    """A problem transcribed into one penalty-barrier NLP, and its assembly.

    The transcription -- the discretization, its quadrature and with them
    every sparsity pattern and Newton-matrix plan -- is fixed for the
    object's lifetime.  Only ``params``, the weights (omega, tau), change:
    the continuation solver sets them at each stage.

    Constructed directly, it is the finite-element transcription: degrees
    of freedom are exactly the trajectory coefficients of ``space``, and
    continuity of the differential components is structural.  The default
    quadrature uses 2p points per interval, two points beyond the p-point
    budget a collocation scheme of the same degree would have, which is
    what rules out quadrature blind spots like the sawtooth example in the
    tests.  ``transcribe_collocation`` returns the collocation baselines as
    this class too; their variables map to and from coefficients of
    ``space``.

    The problem callables are fed argument rows k = 0..m-1 laid out as
    [ydot components, y components, z components].  Row k at quadrature
    node (b, q) is the linear combination sum_l A[k, b, q, l] *
    x[gidx[k, b, l]], so one tensor describes every evaluation the merit
    needs.  Optional extra linear equality rows E x + e0 (used by
    collocation linkage conditions) are appended to C_h.
    """

    # merit and newton_system stay plain methods of a class without
    # __slots__: the benchmark's tracer (perfbench/tracing.py) times them
    # by replacing them on the instance

    def __init__(self, problem, space, rule=None, params=None):
        if space.n_y != problem.n_y or space.n_z != problem.n_z:
            raise InputError("space component counts must match the problem")
        if rule is None:
            rule = gauss_legendre(max(1, 2 * space.p))
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

        self._transcribe(problem, params, space, lambda x: x,
                         lambda trajectory: trajectory.coeffs, A, gidx, w, tq,
                         space.dimension, space.z_dof_indices, point_eval)

    @classmethod
    def _of_tensors(cls, *args, **kwargs):
        """The NLP of a transcription built elsewhere (see ``_transcribe``)."""
        nlp = cls.__new__(cls)
        nlp._transcribe(*args, **kwargs)
        return nlp

    def _transcribe(self, problem, params, space, export_map, sample_plan, A, gidx, w, tq,
                    dimension, z_dof_indices, point_eval, E=None, e0=None, extended=True):
        """Set up the assembly of the transcription given by its tensors:
        ``A`` and ``gidx`` (see the class), quadrature weights ``w`` and
        times ``tq`` of shape (n_batch, n_quad), the algebraic dofs, the
        boundary slots ``point_eval`` as (dofs, weights) rows per point
        time, and linear rows ``E x + e0``.  ``export_map`` takes the
        variables to coefficients of ``space``, ``sample_plan`` takes a
        trajectory to the variables."""
        if E is not None and extended:
            # the saddle form, the only one an extended transcription runs
            # at small omega, has no rows for E
            raise InputError("linear rows E need extended=False")
        self.problem = problem
        self.params = params if params is not None else PenaltyBarrierParams(1e-2, 1e-2)
        self.space = space
        self._export_map = export_map
        self._sample_plan = sample_plan
        # extended=False keeps every evaluation in plain double precision,
        # the standard NLP-solver setting used for the collocation baselines
        self.extended = extended
        self.A = np.ascontiguousarray(A)
        self.gidx = np.ascontiguousarray(gidx)
        self.w = w
        self.sqrt_w = np.sqrt(w)
        self.tq = tq
        self.dimension = dimension
        self.z_dof_indices = np.asarray(z_dof_indices, dtype=int)
        self.point_eval = point_eval
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
                (data, (rows, cols)), shape=(self.n_slots, dimension)
            )
            # the dofs the boundary slots read, and Pb densely over them
            self._b_dofs = np.unique(self.Pb.indices).astype(np.int32)
            self._Pb_dense = self.Pb.toarray()[:, self._b_dofs]
        else:
            self.Pb = None

        # Newton-matrix plans, one per Newton form (keyed by whether it is
        # the saddle form), made on the first newton_system call
        self._plans = {}
        # the element-Hessian kernel reproduces numpy's path for the
        # contraction, whose M has shape (m, m, n_batch, n_quad); the kernel
        # fixes the layout of the compact element Hessians, (plane, b, l, r)
        # when batch-major and (plane, l, r, b) otherwise
        path = np.einsum_path(_ELEMENT_HESSIANS, self.A, np.empty((self.m, self.m) + w.shape),
                              self.A, optimize=True)[0]
        self._hessian_kernel = {((0, 1, 2),): "planewise",
                                ((0, 1), (0, 1)): "batched"}.get(tuple(path[1:]), "einsum")
        if self._hessian_kernel == "planewise":
            # (q, k, l, b): the batch axis innermost for the plane sums
            self._A_kernel = np.ascontiguousarray(self.A.transpose(2, 0, 3, 1))
        elif self._hessian_kernel == "batched":
            # (k, b, l, q): the left factor's rows
            self._A_kernel = np.ascontiguousarray(self.A.transpose(0, 1, 3, 2))
            if not self._batched_kernel_is_einsum():
                self._hessian_kernel = "einsum"
        self._batch_major = self._hessian_kernel == "batched"
        self._curvature_batched = bool(self.problem.n_c) and self._curvature_kernel_is_einsum()

    def _batched_kernel_is_einsum(self):
        """Whether the batched kernel gives ``np.einsum``'s bits on one M
        over all planes, with entries spread over 16 orders of magnitude.
        numpy releases that run the pairwise path's second step through
        ``c_einsum`` instead of ``matmul`` sum over q in another order."""
        m, shape = self.m, self.w.shape
        rng = np.random.default_rng(0)
        M = rng.standard_normal((m, m) + shape) * 10.0 ** rng.uniform(-8.0, 8.0, (m, m) + shape)
        ks, js = np.nonzero(np.ones((m, m), dtype=bool))
        full = np.einsum(_ELEMENT_HESSIANS, self.A, M, self.A, optimize=True)
        return np.array_equal(self._element_hessians(M[ks, js], ks, js),
                              full.transpose(1, 3, 0, 2, 4)[ks, js])

    def _curvature_kernel_is_einsum(self):
        """Whether the batched exact-curvature kernel gives the bits of
        ``np.einsum(_RESIDUAL_CURVATURE, ..., optimize=True)`` on the planes
        it is given.

        numpy contracts the residual axis first, by one ``matmul`` per node
        of the (plane, residual) block with the residual values, and then
        scales.  The kernel runs that matmul on a block of the listed planes
        only, which is bit for bit only if a plane's product does not
        depend on how many planes the block holds, as it does not in
        ``matmul``'s own loop.  Checked on a small batch of values spread
        over 16 orders of magnitude, on all m * m planes and on random
        subsets of 1 to 8 and of half of them."""
        nc, m, (B, Q) = self.problem.n_c, self.m, self.w.shape
        path = np.einsum_path(_RESIDUAL_CURVATURE, np.broadcast_to(0.0, (nc, B, Q)),
                              np.broadcast_to(0.0, (nc, m, m, B, Q)),
                              np.broadcast_to(0.0, (B, Q)), optimize=True)[0]
        if path[1:] != [(0, 1), (0, 1)]:
            return False
        shape = (min(B, 3), min(Q, 4))  # keeps numpy's handling of size-1 axes
        rng = np.random.default_rng(0)

        def wide(*s):
            return rng.standard_normal(s) * 10.0 ** rng.uniform(-8.0, 8.0, s)

        c, H, scale = wide(nc, *shape), wide(nc, m, m, *shape), wide(*shape)
        full = np.einsum(_RESIDUAL_CURVATURE, c, H, scale, optimize=path)
        for size in (*range(1, 9), m * m // 2, m * m):
            ks, js = np.divmod(np.sort(rng.choice(m * m, min(size, m * m), replace=False)), m)
            if not np.array_equal(_curvature_matmul(H[:, ks, js], c) * scale, full[ks, js]):
                return False
        return True

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

    def _call_fc(self, x, order: int, residual_curvature: bool = True):
        """Evaluate f and c at every node; order 0 plain, 1 with first
        derivatives, 2 with second derivatives as well, returned as the
        outputs that hold them.  Without ``residual_curvature`` an order-2
        call takes the residuals to first order only: their values and
        gradients come from the same operations either way."""
        vals = self.arg_values(x)
        if order == 0:
            args = cargs = [vals[k] for k in range(self.m)]
        else:
            args = cargs = ad.seed(vals, self.m, second_order=(order == 2))
            if order == 2 and not residual_curvature:
                cargs = ad.seed(vals, self.m)
        shape = (self.n_batch, self.n_quad)
        fout = self.problem.f(*self._split(args), self.tq)
        cout = self.problem.c(*self._split(cargs), self.tq) if self.problem.n_c else []
        if order == 0:
            fval = np.broadcast_to(np.asarray(ad.value(fout)), shape)
            cval = np.stack(
                [np.broadcast_to(np.asarray(ad.value(r)), shape) for r in cout]
            ) if cout else np.zeros((0,) + shape)
            return vals, fval, None, None, cval, None, None
        fval, fgrad = _dual_parts(fout, self.m, shape)
        if cout:
            parts = [_dual_parts(r, self.m, shape) for r in cout]
            cval = np.stack([p[0] for p in parts])
            cgrad = np.stack([p[1] for p in parts])
        else:
            cval = np.zeros((0,) + shape)
            cgrad = np.zeros((0, self.m) + shape)
        if order == 1:
            return vals, fval, fgrad, None, cval, cgrad, None
        return vals, fval, fgrad, fout, cval, cgrad, cout

    def _check_finite(self, arr, what):
        if not np.all(np.isfinite(arr)):
            where = np.argwhere(~np.isfinite(np.atleast_2d(arr)))
            b, q = where[0][-2], where[0][-1]
            t = self.tq[b, q]
            raise EvaluationError(f"non-finite {what} at t = {t:.6g}", node=t)

    def _check_interior(self, zvals):
        """Raise at the smallest algebraic quadrature value unless every
        one is positive."""
        if zvals.size and np.min(zvals) <= 0.0:
            j, b, q = np.unravel_index(int(np.argmin(zvals)), zvals.shape)
            raise BarrierDomainError(int(j), float(self.tq[b, q]), float(zvals[j, b, q]))

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
    def objective(self, x) -> float:
        """F_h: quadrature value of the objective integral."""
        return self._objective(x, self._call_fc(x, 0)[1])

    def _objective(self, x, fval):
        self._check_finite(fval, "objective integrand")
        total = x.dtype.type(0.0)
        for r in _row_dots(self._cast("w", self.w, x.dtype), fval):
            total += r
        return total

    def constraint_vector(self, x) -> np.ndarray:
        """C_h: point constraints, then per-node weighted DAE residuals
        (and any linear rows of the transcription)."""
        return self._constraint_vector(x, self._call_fc(x, 0)[4], self._boundary(x, 0))

    def _constraint_vector(self, x, cval, bval) -> np.ndarray:
        if cval.size:
            self._check_finite(cval, "DAE residual")
        sw = self._cast("sqrt_w", self.sqrt_w, x.dtype)
        # interval-major, node-minor, residual-component innermost
        cblock = (cval * sw[None]).transpose(1, 2, 0).ravel()
        parts = [bval, cblock]
        if self.E is not None:
            parts.append(self.E @ x + self.e0)
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

    def barrier(self, x) -> float:
        """Gamma_h: quadrature approximation of -sum_j int log z_j."""
        x = np.asarray(x)
        zvals = self.z_quad_values(x)
        self._check_interior(zvals)
        total = x.dtype.type(0.0)
        for r in _row_dots(self._cast("w", self.w, x.dtype), np.log(zvals)):
            total -= r
        return total

    def merit(self, x) -> float:
        x = np.asarray(x, dtype=_work_dtype(self.params, self.extended))
        gamma = self.barrier(x)  # check positivity first: cheap rejection
        # one evaluation of f and c serves both the residuals and the
        # objective; the residuals are checked first
        _, fval, _, _, cval, *_ = self._call_fc(x, 0)
        C = self._constraint_vector(x, cval, self._boundary(x, 0))
        F = self._objective(x, fval)
        return F + (C @ C) / (2.0 * self.params.omega) + self.params.tau * gamma

    def merit_gradient(self, x) -> np.ndarray:
        g, _ = self._assemble(x, with_hessian=False)
        return g

    def newton_system(self, x):
        """Gradient and (Gauss-Newton plus exact-f plus barrier) Hessian."""
        return self._assemble(x, with_hessian=True)

    def _assemble(self, x, with_hessian):
        omega, tau = self.params.omega, self.params.tau
        dt = _work_dtype(self.params, self.extended)
        x = np.asarray(x, dtype=dt)
        # exact penalty curvature is used once iterates are near feasible:
        # without it the Newton model loses O(|C|/omega) curvature and
        # weakly determined (singular-arc) directions destabilize; far from
        # feasibility the same term makes the model indefinite, so the early
        # stages stay Gauss-Newton
        saddle = omega < _EXTENDED_OMEGA and self.extended
        gauss_newton = bool(self.problem.n_c) and not saddle
        exact = bool(self.problem.n_c) and (saddle or omega <= _CURVATURE_OMEGA)
        vals, fval, fgrad, fout, cval, cgrad, cout = self._call_fc(
            x, 2 if with_hessian else 1, residual_curvature=exact)
        self._check_finite(fval, "objective integrand")
        if cval.size:
            self._check_finite(cval, "DAE residual")
        w = self._cast("w", self.w, dt)
        A = self._cast("A", self.A, dt)
        gidx = self.gidx
        # smooth part (objective + barrier) and penalty part are kept
        # separate: the saddle-point Newton form needs the smooth gradient
        # on its own
        g_sm = np.zeros(self.dimension, dtype=dt)
        g_pen = np.zeros(self.dimension, dtype=dt)

        contrib = np.einsum("bq,kbq,kbql->kbl", w, fgrad, A, optimize=True)
        # barrier
        nz, k0 = self.problem.n_z, 2 * self.problem.n_y
        if nz:
            zvals = vals[k0 : k0 + nz]
            self._check_interior(zvals)
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
            bval, bjac = self._boundary(x, 0), None
        # extra linear rows
        if self.E is not None:
            g_pen += self.E.T @ (self.E @ x + self.e0) / omega
        g = g_sm + g_pen
        if not with_hessian:
            return g, None

        # the Hessian only steers Newton, so it is assembled in plain
        # double precision
        w64, A64 = self.w, self.A
        shape = (self.n_batch, self.n_quad)
        cgrad64 = np.asarray(cgrad, dtype=np.float64)
        jp = None
        if bjac is not None and bjac.size:
            # csr_matrix(bjac) @ Pb densely over the boundary dofs: each
            # entry sums over the slots in ascending order from zero, as
            # scipy's product does, and an absent term adds a zero
            bjac64 = np.asarray(bjac, dtype=np.float64)
            jp = np.zeros((bjac64.shape[0], len(self._b_dofs)))
            for s in range(self.n_slots):
                jp += bjac64[:, s, None] * self._Pb_dense[s]
        # element Hessians can be nonzero only on the planes where a tracked
        # Hessian entering M is nonzero, on the squared supports of the
        # residuals for the Gauss-Newton term, and on the barrier's diagonal
        # planes; the quadrature Jacobian only on the (residual, row) pairs
        # where cgrad is nonzero
        planes = np.zeros((self.m, self.m), dtype=bool)
        for v in [fout] + (cout if exact else []):
            if isinstance(v, ad.Dual) and v.sup:
                s = len(v.sup)
                planes[np.ix_(v.sup, v.sup)] |= np.any(v.h.reshape(s, s, -1) != 0.0, axis=2)
        for v in cout if gauss_newton else []:
            if isinstance(v, ad.Dual) and v.sup:
                planes[np.ix_(v.sup, v.sup)] = True
        planes[range(k0, k0 + nz), range(k0, k0 + nz)] = True
        pairs = np.any(cgrad64 != 0.0, axis=(2, 3)) if saddle and cval.size else None
        plan = self._plan(saddle, (planes, pairs, None if jp is None else jp != 0.0))
        hess = plan.hess
        ks, js = hess.ks, hess.js
        # M, the curvature weight of each of the plan's planes, term by term
        # with the reference's arithmetic: the objective's Hessian is
        # gathered on the planes, the Gauss-Newton term contracted over all
        # m * m planes and sliced, and the exact term formed on the planes
        # where a residual's Hessian is nonzero (elsewhere it adds zeros)
        fhess = np.zeros((len(ks),) + shape)
        p, lk, lj = _on_planes(fout, ks, js)
        if len(p):
            fhess[p] = fout.h[lk, lj]
        M = w64 * fhess
        if gauss_newton:
            M = M + np.einsum("rkbq,rjbq,bq->kjbq", cgrad64, cgrad64, w64 / omega,
                              optimize=True)[ks, js]
        if exact:
            p, term = self._residual_curvature(np.asarray(cval, dtype=np.float64), cout,
                                               ks, js, w64 / omega)
            M[p] += term
        Hc = self._element_hessians(M, ks, js)
        if nz:
            zvals64 = np.asarray(vals[k0 : k0 + nz], dtype=np.float64)
            for j in range(nz):
                k = k0 + j
                term = np.einsum("bq,bql,bqr->blr", tau * w64 / zvals64[j] ** 2, A64[k], A64[k])
                if not self._batch_major:
                    term = term.transpose(1, 2, 0)
                Hc[hess.plane[k, k]] += term
        if not saddle:
            return g, plan.system(Hc, jp, omega, -np.asarray(g, dtype=np.float64))

        jqv = None
        if cval.size:
            rs, ks = plan.jq.rs, plan.jq.ks
            # einsum("bq,rkbq,kbql->bqrkl", sw, cgrad, A) on the pairs only,
            # with numpy's association of its one-pass product
            jqv = self.sqrt_w[None, :, :, None] * (cgrad64[rs, ks][..., None] * A64[ks])
        C = np.asarray(self._constraint_vector(x, cval, bval), dtype=np.float64)
        rhs = np.concatenate([-np.asarray(g_sm, dtype=np.float64), -C])
        return g, plan.system(Hc, jqv, jp, omega, rhs)

    def _residual_curvature(self, cval, cout, ks, js, scale):
        """``np.einsum(_RESIDUAL_CURVATURE, cval, H, scale, optimize=True)``
        on the planes (ks, js), bit for bit, where H stacks the residuals'
        Hessians: the planes p where some residual's tracked Hessian holds
        a nonzero value, and the weights on them.  On the other planes the
        weights are zeros, which change no entry of the Newton matrix.  The
        batched kernel gathers the compact Hessians on those planes only,
        into the (residual, plane) block numpy's path multiplies, and is
        kept only if it matches ``np.einsum`` at construction; otherwise the
        einsum itself runs over all m * m planes."""
        if not self._curvature_batched:
            full = np.einsum(_RESIDUAL_CURVATURE, cval, _hessians(cout, self.m, scale.shape),
                             scale, optimize=True)
            return np.arange(len(ks)), full[ks, js]
        covered = [_on_planes(v, ks, js, nonzero=True) for v in cout]
        p = np.unique(np.concatenate([q for q, _, _ in covered]))
        block = np.zeros((len(cout), len(p)) + scale.shape)
        for r, (v, (q, lk, lj)) in enumerate(zip(cout, covered)):
            if len(q):
                block[r, np.searchsorted(p, q)] = v.h[lk, lj]
        return p, _curvature_matmul(block, cval) * scale

    def _plan(self, saddle, masks):
        """The fixed part of the Newton build of one form for the nonzero
        element-Hessian planes, quadrature-Jacobian pairs and boundary
        Jacobian entries in ``masks`` (None where a block is absent).  It is
        made on first use and remade, for the union of what it covered and
        what is now nonzero, only when a mask grows beyond it: covering more
        than the nonzero entries changes no bit of the result."""
        plan = self._plans.get(saddle)
        if plan is not None:
            if not any(m is not None and (m & ~p).any() for m, p in zip(masks, plan.masks)):
                return plan
            masks = tuple(None if m is None else m | p for m, p in zip(masks, plan.masks))
        planes, pairs, jp_mask = masks
        hess = _hessian_sums(self.gidx, planes, _reach(self.A), self.dimension, self._batch_major)
        b_dofs = self._b_dofs if jp_mask is not None else None
        if saddle:
            jq = None
            if pairs is not None:
                jq = _jacobian_sums(self.gidx, self.n_quad, pairs, self.dimension)
            plan = _SaddlePlan(hess, jq, self.dimension, b_dofs, jp_mask)
        else:
            plan = _ShiftedPlan(hess, self.dimension, b_dofs, jp_mask, self.E)
        plan.masks = masks
        self._plans[saddle] = plan
        return plan

    def _element_hessians(self, M, ks, js):
        """Per-interval blocks ``np.einsum(_ELEMENT_HESSIANS, A, M_full, A,
        optimize=True)``, bit for bit, on the (k, j) planes listed only,
        indexed (plane, b, l, r) by the batched kernel and (plane, l, r, b)
        otherwise.  ``M`` holds ``M_full[ks, js]``, and ``M_full`` is zero
        on every other plane.

        Each kernel repeats the arithmetic of numpy's path for the
        contraction.  When numpy contracts the three operands in one pass it
        sums over q in ascending order the products A_k * (M_kj * A_j);
        those sums are formed a chunk of planes at a time, so that a chunk's
        operands stay in cache.  When its path is pairwise, numpy multiplies
        M_kj * A_k and contracts that with A_j over q by ``matmul``; the
        batched kernel runs the same products and the same matmul over q,
        on the listed planes only, and is kept only if it matches
        ``np.einsum`` on a test M at construction.  Any other path is run as
        the einsum itself.  The contract is against the installed NumPy's
        ``np.einsum``, and tests/test_newton_parity.py checks it."""
        if self._hessian_kernel == "batched":
            left = M[:, :, None, :] * self._A_kernel[ks]
            return np.matmul(left, self.A[js])
        if self._hessian_kernel == "einsum":
            full = np.zeros((self.m, self.m) + M.shape[1:])
            full[ks, js] = M
            H = np.einsum(_ELEMENT_HESSIANS, self.A, full, self.A, optimize=True)
            return H.transpose(1, 3, 2, 4, 0)[ks, js]
        Aq, L, B = self._A_kernel, self.L, self.n_batch
        Hc = np.empty((len(ks), L, L, B))
        term = np.empty((_PLANE_CHUNK, L, L, B))
        for c in range(0, len(ks), _PLANE_CHUNK):
            k, j = ks[c : c + _PLANE_CHUNK], js[c : c + _PLANE_CHUNK]
            Ak = Aq[:, k, :, None, :]
            MA = (M[c : c + _PLANE_CHUNK].transpose(2, 0, 1)[:, :, None, :]
                  * Aq[:, j])[:, :, None]
            acc, t = Hc[c : c + len(k)], term[: len(k)]
            np.multiply(Ak[0], MA[0], out=acc)
            for q in range(1, self.n_quad):
                np.multiply(Ak[q], MA[q], out=t)
                acc += t
        return Hc

    def interior_push(self, x, threshold: float) -> np.ndarray:
        """Clip every algebraic variable up to at least ``threshold``."""
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
        delta = np.zeros(self.dimension)
        k0 = 2 * self.problem.n_y
        for j, b in zip(*np.nonzero(mins < threshold)):
            lift = threshold - mins[j, b]
            # shared dofs (continuous components) take the largest lift
            np.maximum.at(delta, self.gidx[k0 + j, b], lift)
        out += delta
        return out

    def to_trajectory(self, x) -> Trajectory:
        return Trajectory(self.space, self._export_map(np.array(x, dtype=float)))

    def from_trajectory(self, trajectory) -> np.ndarray:
        return np.array(self._sample_plan(trajectory), dtype=float)
