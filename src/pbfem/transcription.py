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
rows.  A plan per Newton form -- the Gauss-Newton matrix H + mu I, or the
saddle matrix with the constraint Jacobian -- fixes the CSC pattern handed
to SuperLU and where each Hessian sum, Jacobian value and shift lands in
it; the plan is made on the first ``newton_system`` call of its form and
remade only if more entries turn nonzero.  It is made a chunk of columns
(or rows) at a time, replaying scipy's COO conversion and forming the
union of the slot lists chunk by chunk, so that its transient index
arrays stay small however large the mesh: plans are built inside a solve,
where their transient memory is peak memory.
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
import scipy.sparse.linalg

from . import ad
from .errors import BarrierDomainError, EvaluationError, InputError
from .mesh import Trajectory
from .polynomials import basis_deriv_matrix, basis_matrix
from .quadrature import gauss_legendre

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
# accumulator (about 0.2 MB each at p = 5 and 40 intervals) stay in cache
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


def _row_dots(w, v):
    """``np.dot(w[b], v[..., b, :])`` for every (leading index, b) row, in
    that order, as one ``matmul``.

    A row times a column takes numpy's dot kernel, so each value equals
    ``np.dot``'s bit for bit.  ``np.dot`` hands BLAS a contiguous copy of a
    broadcast row, so ``v`` is made contiguous first.  Callers add the
    values one by one: ``np.sum`` would add them pairwise."""
    return np.matmul(w[:, None, :], np.ascontiguousarray(v)[..., None]).ravel()


# COO entries, or union slots, that the plan build handles at a time: its
# transient index arrays stay a few hundred kB however large the mesh
_CHUNK_ENTRIES = 1 << 13


def _chunks(ptr, step):
    """Consecutive ranges ``(c0, c1)`` of the ``len(ptr) - 1`` majors whose
    item counts ``ptr`` holds cumulatively, each with at most ``step`` items
    (a single major may hold more); one range when ``step`` is None."""
    n = len(ptr) - 1
    if step is None:
        yield 0, n
        return
    c0 = 0
    while c0 < n:
        c1 = int(np.searchsorted(ptr, ptr[c0] + step, side="right")) - 1
        c1 = min(max(c1, c0 + 1), n)
        yield c0, c1
        c0 = c1


def _starts(*keys):
    """Where a run of equal consecutive key tuples begins."""
    first = np.empty(len(keys[0]), dtype=bool)
    first[:1] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=first[1:])
    for k in keys[1:]:
        first[1:] |= k[1:] != k[:-1]
    return first


def _chunk_size(Gl):
    """Entries per chunk of the conversions of the element blocks over the
    local dofs ``Gl`` (interval x local slot), or None for one chunk.

    ``csr_sort_indices`` sorts each major's entries on its own with
    ``std::sort``, which is not stable, so the order in which duplicates
    meet follows from that major's minor sequence alone, and a chunk of
    majors sorts as the whole pattern does -- provided that scipy runs the
    sort on both, which it skips on a pattern already sorted.  Every
    major's sequence runs through some interval's row of ``Gl`` in order,
    so when every row is out of order (as the shared dofs of the ydot and
    y rows make it) every major is unsorted and the sort always runs.
    Only then is the pattern chunked."""
    return _CHUNK_ENTRIES if np.all(np.any(Gl[:, 1:] < Gl[:, :-1], axis=1)) else None


def _hessian_entries(Gl, dim, step):
    """The element Hessians' COO entries in the buckets of scipy's COO ->
    CSC conversion, a chunk of columns at a time (see ``_SlotSums``).
    Entry e = (b * mL + kl) * mL + jr lies in row ``Gl[b, kl]`` and
    column ``Gl[b, jr]``."""
    B, mL = Gl.shape
    flat = Gl.ravel()
    # each column's (b, jr), as b * mL + jr in ascending order
    pairs = np.argsort(flat, kind="stable")
    ptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=dim), out=ptr[1:])
    kl = np.arange(mL) * mL
    for c0, c1 in _chunks(ptr * mL, step):
        f = pairs[ptr[c0] : ptr[c1]]
        e = (f // mL * (mL * mL) + f % mL)[:, None] + kl
        # ascending e within each column: by b, then kl, then jr
        key = (flat[f] - c0).astype(np.int64)[:, None] * (B * mL * mL) + e
        e = e.ravel()[np.argsort(key, axis=None)]
        yield (np.arange(c0, c1, dtype=np.int32), np.diff(ptr[c0 : c1 + 1]) * mL,
               e, flat[e // mL])


def _jacobian_entries(Gl, rows_per_interval, step):
    """The quadrature-Jacobian COO entries row by row (CSR), a chunk of rows
    at a time (see ``_SlotSums``).  Entry e = i * mL + kl lies in row i
    and column ``Gl[b, kl]``, with b = i // rows_per_interval."""
    B, mL = Gl.shape
    flat = Gl.ravel()
    for i0, i1 in _chunks(np.arange(B * rows_per_interval + 1) * mL, step):
        e = np.arange(i0 * mL, i1 * mL)
        yield (np.arange(i0, i1, dtype=np.int32), np.full(i1 - i0, mL),
               e, flat[e // mL // rows_per_interval * mL + e % mL])


def _joined(pieces):
    """The int32 concatenation of ``pieces``, which it empties."""
    out = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int32)
    pieces.clear()
    return out.astype(np.int32, copy=False)


class _SlotSums:
    """The entries of a fixed COO pattern that can be nonzero, in the order
    in which scipy's COO -> CSR/CSC conversion sums them into its slots.

    ``chunks`` yields the pattern a run of majors at a time, in ascending
    major order: the majors, their entry counts, and their entries' numbers
    and minor indices, major by major in ascending entry number, as the
    conversion buckets them stably by major.  scipy's in-line index sort
    is run on each chunk's entry numbers to fix the order in which
    duplicates meet (see ``_chunk_size``), and duplicates are then summed
    sequentially in that order, as ``csr_sum_duplicates`` sums them.

    ``where(e)`` gives each entry's position in a compact value array, or
    -1 for an entry that is an exact zero: leaving it out changes no bit of
    the sum it belongs to.  ``pos`` lists the compact positions to sum, in
    order, and ``run`` the slot each is summed into; the slots are
    ``(rows, cols)``.  With ``all_slots`` every slot of the conversion is
    listed, summed into or not (it then holds 0.0), as scipy stores it;
    otherwise only the slots that receive an entry.  All int32.
    """

    def __init__(self, chunks, shape, fmt, where, all_slots):
        # chunk by chunk, so that no index array spans the whole pattern:
        # plans are built inside a solve, where their transient memory is
        # peak memory
        n_minor = shape[0] if fmt == "csc" else shape[1]
        pos, run, majors, minors = [], [], [], []
        n_slots = 0
        for major, counts, entries, minor in chunks:
            indptr = np.zeros(len(counts) + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            tagged = scipy.sparse.csr_matrix(
                (np.arange(len(minor), dtype=np.float64), minor, indptr),
                shape=(len(counts), n_minor),
            )
            tagged.sort_indices()
            at = where(entries[tagged.data.astype(np.intp)])
            minor, major = tagged.indices, np.repeat(major, counts)
            del tagged, entries
            kept = at >= 0
            if not all_slots:
                at, minor, major = at[kept], minor[kept], major[kept]
            first = _starts(minor, major)
            slot = np.cumsum(first, dtype=np.int32)
            slot += n_slots - 1
            n_slots += int(np.count_nonzero(first))
            if all_slots:
                at, slot = at[kept], slot[kept]
            pos.append(at.astype(np.int32))
            run.append(slot)
            majors.append(major[first])
            minors.append(minor[first])
        self.pos, self.run = _joined(pos), _joined(run)
        major, minor = _joined(majors), _joined(minors)
        self.rows, self.cols = (minor, major) if fmt == "csc" else (major, minor)
        self.shape = shape


def _reach(A):
    """The entries (b, k, l, j, r) of the element Hessians that are not
    structural zeros, as a flat mask in that order: those where
    ``A[k, b, q, l] * A[j, b, q, r]`` is nonzero for some q."""
    m, B, Q, L = A.shape
    nz = A != 0.0
    left = nz.transpose(1, 0, 3, 2).reshape(B, m * L, Q)
    right = nz.transpose(1, 2, 0, 3).reshape(B, Q, m * L)
    return np.matmul(left, right).ravel()


def _hessian_sums(gidx, planes, reach, dim, batch_major):
    """Slot sums of the sparse Hessian from compact element Hessians on the
    (k, j) planes set in ``planes``, indexed (plane, b, l, r) when
    ``batch_major`` and (plane, l, r, b) otherwise.

    The COO entries are those of the per-interval dense blocks over the
    m * L local slots, in (b, k, l, j, r) order, converted to CSC.  Entries
    off the planes and the structural zeros outside ``reach`` are left out:
    each sums only products with an exact zero factor."""
    m, B, L = gidx.shape
    mL = m * L
    plane = np.full((m, m), -1, dtype=np.int32)
    ks, js = np.nonzero(planes)
    plane[ks, js] = np.arange(len(ks))

    def where(e):
        b, kl, jr = e // (mL * mL), e // mL % mL, e % mL
        p = plane[kl // L, jr // L]
        if batch_major:
            at = ((p * B + b) * L + kl % L) * L + jr % L
        else:
            at = ((p * L + kl % L) * L + jr % L) * B + b
        return np.where((p >= 0) & reach[e], at, -1)

    Gl = gidx.transpose(1, 0, 2).reshape(B, mL).astype(np.int32)
    sums = _SlotSums(_hessian_entries(Gl, dim, _chunk_size(Gl)), (dim, dim), "csc", where,
                     all_slots=False)
    sums.ks, sums.js, sums.plane = ks, js, plane
    return sums


def _jacobian_sums(gidx, n_quad, pairs, dim):
    """Slot sums of the quadrature-residual Jacobian block from compact
    values indexed (pair, b, q, l) on the (r, k) pairs set in ``pairs``.

    Rows are ordered (interval, node, residual component) as in
    ``constraint_vector``; the COO entries are in (b, q, r, k, l) order,
    converted to CSR.  Every slot is kept, zero or not."""
    m, B, L = gidx.shape
    nc = pairs.shape[0]
    pair = np.full((nc, m), -1, dtype=np.int32)
    rs, ks = np.nonzero(pairs)
    pair[rs, ks] = np.arange(len(rs))

    def where(e):
        row, kl = e // (m * L), e % (m * L)
        p = pair[row % nc, kl // L]
        return np.where(p >= 0, ((p * B + row // nc // n_quad) * n_quad
                                 + row // nc % n_quad) * L + kl % L, -1)

    Gl = gidx.transpose(1, 0, 2).reshape(B, m * L).astype(np.int32)
    sums = _SlotSums(_jacobian_entries(Gl, n_quad * nc, _chunk_size(Gl)),
                     (B * n_quad * nc, dim), "csr", where, all_slots=True)
    sums.rs, sums.ks = rs, ks
    return sums


def _union_pattern(n, parts):
    """The union of fixed slot lists ``(rows, cols)`` of an n x n matrix,
    each free of repeats, in canonical CSC order: its ``indices`` and
    ``indptr``, and where each list's slots sit in it.

    Built a chunk of columns at a time; a list that is not in column order
    is visited in its stable column order."""
    ptrs, orders = [], []
    for rows, cols in parts:
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=ptr[1:])
        ptrs.append(ptr)
        unordered = np.any(cols[1:] < cols[:-1])
        orders.append(np.argsort(cols, kind="stable").astype(np.int32) if unordered else None)
    indptr = np.zeros(n + 1, dtype=np.int32)
    pos = [np.empty(len(rows), dtype=np.int32) for rows, _ in parts]
    indices = []
    nnz = 0
    for c0, c1 in _chunks(sum(ptrs), _CHUNK_ENTRIES):
        at = [slice(p[c0], p[c1]) if o is None else o[p[c0] : p[c1]]
              for p, o in zip(ptrs, orders)]
        keys = [(cols[a] - c0).astype(np.int64) * n + rows[a]
                for (rows, cols), a in zip(parts, at)]
        uniq, inv = np.unique(np.concatenate(keys), return_inverse=True)
        inv = inv.astype(np.int32) + nnz
        for p, a, piece in zip(pos, at, np.split(inv, np.cumsum([len(k) for k in keys])[:-1])):
            p[a] = piece
        np.cumsum(np.bincount(uniq // n, minlength=c1 - c0), out=indptr[c0 + 1 : c1 + 1])
        indptr[c0 + 1 : c1 + 1] += nnz
        indices.append((uniq % n).astype(np.int32))
        nnz += len(uniq)
    return _joined(indices), indptr, pos


def _drop(data, indices, indptr, drop):
    """CSC arrays with the slots at the sorted positions ``drop`` left out."""
    if not len(drop):
        return data, indices, indptr
    return (np.delete(data, drop), np.delete(indices, drop),
            (indptr - np.searchsorted(drop, indptr)).astype(np.int32))


def _slot_values(run, weights, n):
    """``np.bincount(run, weights, minlength=n)``, in double precision also
    when nothing is summed (bincount then returns integers)."""
    return np.bincount(run, weights=weights, minlength=n).astype(np.float64, copy=False)


def _factor(K):
    if not np.all(np.isfinite(K.data)):
        # SuperLU neither raises nor warns cleanly on non-finite input
        raise ValueError("non-finite Newton matrix")
    return scipy.sparse.linalg.splu(K)


class _ShiftedPlan:
    """Fixed pattern of the Newton matrix H + JP^T JP / omega + E^T E /
    omega + mu I, as scipy's sparse additions form it.

    Each slot receives its Hessian sum, then the boundary term, then the
    linkage term, then the shift, one addition each and in that order, as
    ``H + X`` adds entry by entry.  Slots whose value is exactly zero are
    left out, as those additions drop them.  ``JP`` enters densely over the
    boundary dofs: ``JP^T JP`` sums ``JP[i, a] * JP[i, b]`` over rows i in
    ascending order, as scipy's product does, and an absent term adds a
    zero; its slots are those that ``jp_mask``, the nonzero pattern of JP
    over the boundary dofs, can reach.
    """

    def __init__(self, hess, dim, b_dofs, jp_mask, E):
        diag = np.arange(dim, dtype=np.int32)
        parts = [(hess.rows, hess.cols), (diag, diag)]
        self.jtj = None
        if jp_mask is not None:
            nd = len(b_dofs)
            reach = jp_mask.astype(np.int32)
            self.jtj = np.flatnonzero(reach.T @ reach)
            parts.append((b_dofs[self.jtj // nd], b_dofs[self.jtj % nd]))
        self.EtE = None
        if E is not None:
            self.EtE = (E.T @ E).tocoo()
            parts.append((self.EtE.row, self.EtE.col))
        self.n = dim
        self.indices, self.indptr, (pos_h, self.diag, *self.pos_extra) = \
            _union_pattern(dim, parts)
        # the Hessian sums go straight into their slots; the slot lists are
        # folded into the pattern and dropped, as the plan lives all solve
        self.run = pos_h[hess.run]
        del hess.rows, hess.cols, hess.run
        self.hess = hess

    def system(self, Hc, jp, omega):
        data = _slot_values(self.run, Hc.ravel()[self.hess.pos], len(self.indices))
        extra = iter(self.pos_extra)
        if jp is not None:
            jtj = np.zeros((jp.shape[1], jp.shape[1]))
            for row in jp:
                jtj += row[:, None] * row[None, :]
            data[next(extra)] += jtj.ravel()[self.jtj] * (1 / omega)
        if self.EtE is not None:
            data[next(extra)] += self.EtE.data * (1 / omega)
        # the shift ladder grows in units of this scale, so a zero
        # diagonal takes unit steps
        diag_scale = float(np.max(np.abs(data[self.diag]), initial=0.0)) or 1.0
        zero = data == 0
        zero[self.diag] = False
        return _ShiftedSystem(**_dropped(self, data, np.flatnonzero(zero)),
                              diag_scale=diag_scale)


def _dropped(plan, data, drop):
    """The CSC fields of ``plan``'s matrix with values ``data``, the slots
    at the sorted positions ``drop`` left out."""
    data, indices, indptr = _drop(data, plan.indices, plan.indptr, drop)
    diag = plan.diag - np.searchsorted(drop, plan.diag) if len(drop) else plan.diag
    return {"n": plan.n, "data": data, "indices": indices, "indptr": indptr, "diag": diag}


class _ShiftedSystem:
    """Newton model (H + mu I) d = -g solved by sparse LU.

    Holds the Newton matrix without its shift in CSC form, ``diag`` the
    positions of its diagonal; zeros on the diagonal are left out once the
    shift is added.  A system is rebuilt from its ``FIELDS`` alone, so it
    can be solved in another process."""

    FIELDS = ("n", "data", "indices", "indptr", "diag", "diag_scale")

    def __init__(self, n, data, indices, indptr, diag, diag_scale):
        self.n = n
        self.data, self.indices, self.indptr = data, indices, indptr
        self.diag = diag
        self.diag_scale = diag_scale

    def matrix(self, shift):
        """The Newton matrix handed to SuperLU at this shift."""
        data = self.data.copy()
        data[self.diag] += shift
        data, indices, indptr = _drop(data, self.indices, self.indptr,
                                      self.diag[data[self.diag] == 0])
        return scipy.sparse.csc_matrix((data, indices, indptr), shape=(self.n, self.n))

    def solve(self, g, shift):
        return _factor(self.matrix(shift)).solve(-np.asarray(g, dtype=np.float64))


class _SaddlePlan:
    """Fixed pattern of the saddle matrix [[B + mu I, J^T], [J, -omega I]]
    with J stacked as boundary rows JP, quadrature rows Jq and linear rows
    E, laid out as scipy's block assembly lays it out.

    Exact zeros are left out of B + mu I and of JP (scipy's product drops
    them), while Jq and E keep every slot they store, zero or not: those
    zeros are structural and shape SuperLU's ordering.  JP's slots are
    those of ``jp_mask``, its nonzero pattern over the boundary dofs.
    """

    def __init__(self, hess, jq, dim, b_dofs, jp_mask, E):
        n = dim
        jr, jc = [], []
        n_j = n_jp = n_q = 0
        if jp_mask is not None:
            k, a = np.nonzero(jp_mask)
            jr.append(k)
            jc.append(b_dofs[a])
            n_j, n_jp = jp_mask.shape[0], len(k)
        if jq is not None:
            jr.append(n_j + jq.rows)
            jc.append(jq.cols)
            n_j += jq.shape[0]
            n_q = len(jq.rows)
            del jq.rows, jq.cols
        self.E = E
        if E is not None:
            coo = E.tocoo()
            jr.append(n_j + coo.row)
            jc.append(coo.col)
            n_j += E.shape[0]
        # J's slots, rows offset by n: (jr, jc) below the Hessian block and
        # (jc, jr) to its right
        jr = np.concatenate(jr or [np.zeros(0)]).astype(np.int32)
        jr += n
        jc = np.concatenate(jc or [np.zeros(0)]).astype(np.int32)
        diag = np.arange(n, dtype=np.int32)
        tail = np.arange(n, n + n_j, dtype=np.int32)
        self.n = n + n_j
        self.indices, self.indptr, (pos_h, self.diag, lo, up, self.pos_omega) = \
            _union_pattern(self.n, [(hess.rows, hess.cols), (diag, diag),
                                    (jr, jc), (jc, jr), (tail, tail)])
        del jr, jc
        # the Hessian entries are summed straight into their slots, and the
        # Jq entries into one value per Jq slot that receives any, which
        # then fills that slot below and right of the Hessian block; the
        # slot lists are folded into the pattern and dropped, as the plan
        # lives all solve
        self.run = pos_h[hess.run]
        del hess.rows, hess.cols, hess.run
        if jq is not None:
            first = _starts(jq.run)
            slots = n_jp + jq.run[first]
            self.pos_jq = np.stack([lo[slots], up[slots]])
            jq.run = np.cumsum(first, dtype=np.int32) - 1
        self.hess, self.jq, self.jp_mask, self.dim = hess, jq, jp_mask, dim
        # JP's and E's slots, below and right of the Hessian block
        self.pos_jp = np.stack([lo[:n_jp], up[:n_jp]])
        self.pos_e = np.stack([lo[n_jp + n_q:], up[n_jp + n_q:]])
        # B's off-diagonal slots and JP's may hold a zero scipy drops
        optional = np.zeros(len(self.indices), dtype=bool)
        optional[pos_h] = True
        optional[self.pos_jp] = True
        optional[self.diag] = False
        self.optional = np.flatnonzero(optional).astype(np.int32)

    def system(self, Hc, jqv, jp, C, g_smooth, omega):
        data = _slot_values(self.run, Hc.ravel()[self.hess.pos], len(self.indices))
        if self.jq is not None:
            data[self.pos_jq] = _slot_values(self.jq.run, jqv.ravel()[self.jq.pos],
                                             self.pos_jq.shape[1])
        if jp is not None:
            data[self.pos_jp] = jp[self.jp_mask]
        if self.E is not None:
            data[self.pos_e] = self.E.data
        data[self.pos_omega] = -omega
        drop = self.optional[data[self.optional] == 0]
        diag_scale = max(float(np.max(np.abs(data[self.diag]), initial=0.0)), 1.0)
        return _SaddleSystem(**_dropped(self, data, drop), diag_scale=diag_scale,
                             C=C, g_smooth=g_smooth, dim=self.dim)


class _SaddleSystem(_ShiftedSystem):
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

    FIELDS = _ShiftedSystem.FIELDS + ("C", "g_smooth", "dim")

    def __init__(self, C, g_smooth, dim, **fields):
        super().__init__(**fields)
        self.C = C
        self.g_smooth = g_smooth
        self.dim = dim

    def solve(self, g, shift):
        K = self.matrix(shift)
        lu = _factor(K)
        rhs = np.concatenate([-self.g_smooth, -self.C])
        z = lu.solve(rhs)
        # one pass of iterative refinement: the graded factors lose a few
        # digits that the residual correction wins back
        z = z + lu.solve(rhs - K @ z)
        return z[: self.dim]


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
        return self._constraint_vector(x, self._call_fc(x, 0)[4])

    def _constraint_vector(self, x, cval) -> np.ndarray:
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

    def barrier(self, x) -> float:
        """Gamma_h: quadrature approximation of -sum_j int log z_j."""
        x = np.asarray(x)
        zvals = self.z_quad_values(x)
        if zvals.size and np.min(zvals) <= 0.0:
            j, b, q = np.unravel_index(int(np.argmin(zvals)), zvals.shape)
            raise BarrierDomainError(int(j), float(self.tq[b, q]), float(zvals[j, b, q]))
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
        C = self._constraint_vector(x, cval)
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
            return g, plan.system(Hc, jp, omega)

        # constraint values in the constraint_vector row order
        Cparts = [np.asarray(bval, dtype=np.float64)] if jp is not None else []
        jqv = None
        if cval.size:
            sw64 = np.sqrt(w64)
            rs, ks = plan.jq.rs, plan.jq.ks
            # einsum("bq,rkbq,kbql->bqrkl", sw, cgrad, A) on the pairs only,
            # with numpy's association of its one-pass product
            jqv = sw64[None, :, :, None] * (cgrad64[rs, ks][..., None] * A64[ks])
            Cparts.append(
                np.asarray(
                    (cval * self._cast("sqrt_w", np.sqrt(self.w), dt)[None])
                    .transpose(1, 2, 0)
                    .ravel(),
                    dtype=np.float64,
                )
            )
        if self.E is not None:
            rE = self._cast("E", self.E, dt) @ x + self._cast("e0", self.e0, dt)
            Cparts.append(np.asarray(rE, dtype=np.float64))
        C = np.concatenate(Cparts) if Cparts else np.zeros(0)
        return g, plan.system(Hc, jqv, jp, C, np.asarray(g_sm, dtype=np.float64), omega)

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
            plan = _SaddlePlan(hess, jq, self.dimension, b_dofs, jp_mask, self.E)
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
