"""Newton-matrix plans: the fixed sparse pattern of each Newton form.

A plan per Newton form -- the Gauss-Newton matrix H + mu I, or the saddle
matrix with the constraint Jacobian -- fixes the CSC pattern handed to
SuperLU and where each Hessian sum, Jacobian value and shift lands in it;
the plan is made on the first ``newton_system`` call of its form and
remade only if more entries turn nonzero.  It is made a chunk of columns
(or rows) at a time, replaying scipy's COO conversion and forming the
union of the slot lists chunk by chunk, so that its transient index
arrays stay small however large the mesh: plans are built inside a solve,
where their transient memory is peak memory.  A plan's slot values become a
Newton system of ``pbfem.newton``; the plan's ``orders`` keep each pattern's
column order and gather (one per pattern), and a remade plan starts with
none, so no order of an old plan's pattern serves it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .newton import _NewtonSystem

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


def _slot_values(run, weights, n):
    """``np.bincount(run, weights, minlength=n)``, in double precision also
    when nothing is summed (bincount then returns integers)."""
    return np.bincount(run, weights=weights, minlength=n).astype(np.float64, copy=False)


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
        self.dim = dim
        self.indices, self.indptr, (pos_h, self.diag, *self.pos_extra) = \
            _union_pattern(dim, parts)
        # the Hessian sums go straight into their slots; the slot lists are
        # folded into the pattern and dropped, as the plan lives all solve
        self.run = pos_h[hess.run]
        del hess.rows, hess.cols, hess.run
        self.hess = hess
        self.orders = {}

    def system(self, Hc, jp, omega, rhs):
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
        return _NewtonSystem(self, data, np.flatnonzero(zero), diag_scale, rhs, refine=False)


class _SaddlePlan:
    """Fixed pattern of the saddle matrix [[B + mu I, J^T], [J, -omega I]]
    with J stacked as boundary rows JP and quadrature rows Jq, laid out as
    scipy's block assembly lays it out.

    Exact zeros are left out of B + mu I and of JP (scipy's product drops
    them), while Jq keeps every slot it stores, zero or not: those zeros
    are structural and shape SuperLU's ordering.  JP's slots are those of
    ``jp_mask``, its nonzero pattern over the boundary dofs.
    """

    def __init__(self, hess, jq, dim, b_dofs, jp_mask):
        n = dim
        jr, jc = [], []
        n_j = n_jp = 0
        if jp_mask is not None:
            k, a = np.nonzero(jp_mask)
            jr.append(k)
            jc.append(b_dofs[a])
            n_j, n_jp = jp_mask.shape[0], len(k)
        if jq is not None:
            jr.append(n_j + jq.rows)
            jc.append(jq.cols)
            n_j += jq.shape[0]
            del jq.rows, jq.cols
        # J's slots, rows offset by n: (jr, jc) below the Hessian block and
        # (jc, jr) to its right
        jr = np.concatenate(jr or [np.zeros(0)]).astype(np.int32)
        jr += n
        jc = np.concatenate(jc or [np.zeros(0)]).astype(np.int32)
        diag = np.arange(n, dtype=np.int32)
        tail = np.arange(n, n + n_j, dtype=np.int32)
        self.indices, self.indptr, (pos_h, self.diag, lo, up, self.pos_omega) = \
            _union_pattern(n + n_j, [(hess.rows, hess.cols), (diag, diag),
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
        # JP's slots, below and right of the Hessian block
        self.pos_jp = np.stack([lo[:n_jp], up[:n_jp]])
        # B's off-diagonal slots and JP's may hold a zero scipy drops
        optional = np.zeros(len(self.indices), dtype=bool)
        optional[pos_h] = True
        optional[self.pos_jp] = True
        optional[self.diag] = False
        self.optional = np.flatnonzero(optional).astype(np.int32)
        self.orders = {}

    def system(self, Hc, jqv, jp, omega, rhs):
        data = _slot_values(self.run, Hc.ravel()[self.hess.pos], len(self.indices))
        if self.jq is not None:
            data[self.pos_jq] = _slot_values(self.jq.run, jqv.ravel()[self.jq.pos],
                                             self.pos_jq.shape[1])
        if jp is not None:
            data[self.pos_jp] = jp[self.jp_mask]
        data[self.pos_omega] = -omega
        drop = self.optional[data[self.optional] == 0]
        diag_scale = max(float(np.max(np.abs(data[self.diag]), initial=0.0)), 1.0)
        return _NewtonSystem(self, data, drop, diag_scale, rhs, refine=True)
