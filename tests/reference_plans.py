"""Whole-pattern Newton-matrix plans: the reference for the plan arrays.

This is how ``pbfem.transcription`` built its Newton-matrix plans before it
built them a chunk of the pattern at a time: every COO entry of the
element Hessians and of the quadrature Jacobian converted at once, with
``np.unique`` over int64 keys for the union of the slot lists.  It is kept
only as a reference; the engine's plans must hold exactly the integer
arrays it computes.
"""

import numpy as np
import scipy.sparse


def conversion_order(rows, cols, shape, fmt):
    """The symbolic half of scipy's COO -> CSR/CSC conversion of a fixed
    entry pattern: ``perm``, ``run``, ``major`` and ``minor``, all int32."""
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
    tagged.sort_indices()
    minor_s = tagged.indices
    perm = tagged.data.astype(np.int32)
    major_s = np.repeat(np.arange(n_major, dtype=np.int32), np.diff(indptr))
    first = np.empty(len(minor_s), dtype=bool)
    first[:1] = True
    np.not_equal(minor_s[1:], minor_s[:-1], out=first[1:])
    first[1:] |= major_s[1:] != major_s[:-1]
    run = np.cumsum(first, dtype=np.int32)
    run -= 1
    return perm, run, major_s[first], minor_s[first]


class SlotSums:
    """``pos``, ``run`` and the slots ``(rows, cols)`` of a fixed COO
    pattern, as the engine's ``_SlotSums`` documents them."""

    def __init__(self, rows, cols, shape, fmt, where, all_slots):
        perm, run, major, minor = conversion_order(rows, cols, shape, fmt)
        pos = where(perm)
        kept = pos >= 0
        self.pos, run = pos[kept].astype(np.int32), run[kept]
        if not all_slots:
            first = np.empty(len(run), dtype=bool)
            first[:1] = True
            np.not_equal(run[1:], run[:-1], out=first[1:])
            major, minor = major[run[first]], minor[run[first]]
            run = np.cumsum(first, dtype=np.int32) - 1
        self.run = run
        self.rows, self.cols = (minor, major) if fmt == "csc" else (major, minor)
        self.shape = shape


def hessian_sums(gidx, planes, reach, dim, batch_major):
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
    return SlotSums(np.repeat(Gl, mL, axis=1).ravel(), np.tile(Gl, (1, mL)).ravel(),
                    (dim, dim), "csc", where, all_slots=False)


def jacobian_sums(gidx, n_quad, pairs, dim):
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

    rows = np.repeat(np.arange(B * n_quad * nc, dtype=np.int32), m * L)
    gT = gidx.transpose(1, 0, 2).astype(np.int32)
    cols = np.broadcast_to(gT[:, None, None, :, :], (B, n_quad, nc, m, L)).ravel()
    return SlotSums(rows, cols, (B * n_quad * nc, dim), "csr", where, all_slots=True)


def union_pattern(n, parts):
    key = np.concatenate([c.astype(np.int64) * n + r for r, c in parts])
    uniq, inv = np.unique(key, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq // n, minlength=n), out=indptr[1:])
    pos = np.split(inv.astype(np.int32), np.cumsum([len(r) for r, _ in parts])[:-1])
    return (uniq % n).astype(np.int32), indptr, pos


def shifted_plan(hess, dim, b_dofs, jp_mask, E):
    """The Gauss-Newton plan's arrays: ``indices``, ``indptr``, ``diag``,
    ``run``, ``hess_pos`` and the extra terms' positions ``pos_extra``."""
    diag = np.arange(dim, dtype=np.int32)
    parts = [(hess.rows, hess.cols), (diag, diag)]
    if jp_mask is not None:
        nd = len(b_dofs)
        reach = jp_mask.astype(np.int32)
        jtj = np.flatnonzero(reach.T @ reach)
        parts.append((b_dofs[jtj // nd], b_dofs[jtj % nd]))
    if E is not None:
        EtE = (E.T @ E).tocoo()
        parts.append((EtE.row, EtE.col))
    indices, indptr, (pos_h, diag, *pos_extra) = union_pattern(dim, parts)
    return {"indices": indices, "indptr": indptr, "diag": diag, "run": pos_h[hess.run],
            "hess_pos": hess.pos, "pos_extra": pos_extra}


def saddle_plan(hess, jq, dim, b_dofs, jp_mask, E):
    """The saddle plan's arrays: ``indices``, ``indptr``, ``diag``,
    ``pos_omega``, ``run`` (Hessian entries, then the Jq entries below and
    right of the Hessian block), ``hess_pos``, ``jq_pos``, ``pos_jp``,
    ``pos_e`` and ``optional``."""
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
    if E is not None:
        coo = E.tocoo()
        jr.append(n_j + coo.row)
        jc.append(coo.col)
        n_j += E.shape[0]
    jr = np.concatenate(jr or [np.zeros(0)]).astype(np.int32)
    jc = np.concatenate(jc or [np.zeros(0)]).astype(np.int32)
    diag = np.arange(n, dtype=np.int32)
    tail = np.arange(n, n + n_j, dtype=np.int32)
    indices, indptr, (pos_h, diag, lo, up, pos_omega) = union_pattern(
        n + n_j, [(hess.rows, hess.cols), (diag, diag), (n + jr, jc), (jc, n + jr), (tail, tail)])
    runs = [pos_h[hess.run]]
    n_q = 0
    if jq is not None:
        runs += [lo[n_jp + jq.run], up[n_jp + jq.run]]
        n_q = len(jq.rows)
    pos_jp = np.concatenate([lo[:n_jp], up[:n_jp]])
    optional = np.zeros(len(indices), dtype=bool)
    optional[pos_h] = True
    optional[pos_jp] = True
    optional[diag] = False
    return {"indices": indices, "indptr": indptr, "diag": diag, "pos_omega": pos_omega,
            "run": np.concatenate(runs), "hess_pos": hess.pos,
            "jq_pos": None if jq is None else jq.pos, "pos_jp": pos_jp,
            "pos_e": np.concatenate([lo[n_jp + n_q:], up[n_jp + n_q:]]),
            "optional": np.flatnonzero(optional).astype(np.int32)}
