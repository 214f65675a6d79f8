"""Collocation baseline transcriptions: trapezoidal, Hermite-Simpson, and
Legendre-Gauss-Radau (Radau IIA).

All three produce the same NLP class as the finite-element transcription
and are minimized by the same continuation solver as a quadratic-penalty
relaxation of the collocation equations, so differences in outcomes are
attributable to the transcription, not the optimizer.
DAE residuals are enforced at the scheme's collocation nodes only, and the
nonnegativity of algebraic variables is kept by the same node-wise
log-barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .errors import InputError
from .mesh import FESpace
from .polynomials import basis_deriv_matrix, basis_matrix, legendre_eval
from .transcription import PenaltyBarrierParams, TranscribedNLP

__all__ = [
    "CollocationScheme",
    "transcribe_collocation",
    "radau_right",
    "detect_ringing",
]


@dataclass(frozen=True)
class CollocationScheme:
    """Scheme selector: kind in {"tr", "hs", "lgr"}; p is the stage count
    for LGR (ignored by TR and HS)."""

    kind: str
    p: int = 5

    def __post_init__(self):
        object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in ("tr", "hs", "lgr"):
            raise InputError("scheme kind must be one of tr, hs, lgr")
        if self.kind == "lgr" and self.p < 1:
            raise InputError("LGR stage count must be at least 1")


@lru_cache(maxsize=None)
def _radau_right_cached(n: int):
    # left-Radau abscissae: -1 plus the interior roots of P_{n-1} + P_n
    c = np.zeros(n + 1)
    c[n - 1] = 1.0
    c[n] = 1.0
    roots = np.polynomial.legendre.legroots(c)
    roots = np.real(roots[np.abs(np.imag(roots)) < 1e-10]) if np.iscomplexobj(roots) else roots
    interior = np.sort(roots[roots > -1.0 + 1e-8])
    nodes_left = np.concatenate(([-1.0], interior))
    weights_left = np.empty(n)
    weights_left[0] = 2.0 / n**2
    for i, x in enumerate(interior, start=1):
        pm = legendre_eval(n - 1, x)
        weights_left[i] = (1.0 - x) / (n**2 * pm**2)
    # mirror to the right-endpoint-included variant
    return tuple(-nodes_left[::-1]), tuple(weights_left[::-1])


def radau_right(n: int):
    """The n right-Radau abscissae on (-1, 1] and their quadrature weights
    (exact for polynomials of degree 2n - 2)."""
    if n < 1:
        raise InputError("need at least one Radau point")
    nodes, weights = _radau_right_cached(n)
    return np.array(nodes), np.array(weights)


def _node_based_nlp(problem, mesh, params, with_midpoints):
    """TR (endpoints) and HS (endpoints plus midpoints): one state, one
    slope, and one algebraic variable set per node, DAE residuals at the
    nodes, and linear linkage rows tying slopes to state increments."""
    ny, nz = problem.n_y, problem.n_z
    N = mesh.n_intervals
    h = mesh.lengths
    if with_midpoints:
        times = np.empty(2 * N + 1)
        times[0::2] = mesh.nodes
        times[1::2] = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    else:
        times = mesh.nodes.copy()
    S = len(times)
    per = 2 * ny + nz
    dim = S * per

    def y_var(i, j):
        return i * per + j

    def v_var(i, j):
        return i * per + ny + j

    def z_var(i, j):
        return i * per + 2 * ny + j

    # integration weights at the nodes (trapezoid / Simpson)
    w = np.zeros(S)
    for i in range(N):
        if with_midpoints:
            l, m_, r = 2 * i, 2 * i + 1, 2 * i + 2
            w[l] += h[i] / 6.0
            w[m_] += 4.0 * h[i] / 6.0
            w[r] += h[i] / 6.0
        else:
            w[i] += h[i] / 2.0
            w[i + 1] += h[i] / 2.0

    m = per
    A = np.ones((m, S, 1, 1))
    gidx = np.empty((m, S, 1), dtype=int)
    for j in range(ny):
        gidx[j, :, 0] = [v_var(i, j) for i in range(S)]
        gidx[ny + j, :, 0] = [y_var(i, j) for i in range(S)]
    for j in range(nz):
        gidx[2 * ny + j, :, 0] = [z_var(i, j) for i in range(S)]

    # linkage rows, scaled by h^(-1/2) so their penalty weight matches the
    # sqrt-quadrature-weight scaling of the nodal residuals
    rows, cols, data = [], [], []
    r = 0

    def add(row_entries):
        nonlocal r
        for col, val in row_entries:
            rows.append(r)
            cols.append(col)
            data.append(val)
        r += 1

    for i in range(N):
        s = 1.0 / np.sqrt(h[i])
        if with_midpoints:
            l, m_, rr = 2 * i, 2 * i + 1, 2 * i + 2
            for j in range(ny):
                # midpoint interpolation condition of the Hermite cubic
                add([(y_var(m_, j), s), (y_var(l, j), -0.5 * s), (y_var(rr, j), -0.5 * s),
                     (v_var(l, j), -h[i] / 8.0 * s), (v_var(rr, j), h[i] / 8.0 * s)])
                # Simpson increment condition
                add([(y_var(rr, j), s), (y_var(l, j), -s),
                     (v_var(l, j), -h[i] / 6.0 * s), (v_var(m_, j), -4.0 * h[i] / 6.0 * s),
                     (v_var(rr, j), -h[i] / 6.0 * s)])
        else:
            for j in range(ny):
                add([(y_var(i + 1, j), s), (y_var(i, j), -s),
                     (v_var(i, j), -0.5 * h[i] * s), (v_var(i + 1, j), -0.5 * h[i] * s)])
    E = scipy.sparse.csr_matrix((data, (rows, cols)), shape=(r, dim))
    e0 = np.zeros(r)

    # point-constraint evaluation by linear interpolation between nodes
    point_eval = []
    for tk in problem.point_times:
        i = int(np.clip(np.searchsorted(times, tk, side="left") - 1, 0, S - 2))
        theta = (tk - times[i]) / (times[i + 1] - times[i])
        per_point = []
        for j in range(ny):
            per_point.append((
                np.array([y_var(i, j), y_var(i + 1, j)]),
                np.array([1.0 - theta, theta]),
            ))
        point_eval.append(per_point)

    z_idx = np.array([z_var(i, j) for i in range(S) for j in range(nz)], dtype=int)

    p_exp = 3 if with_midpoints else 1
    space = FESpace(mesh, p_exp, ny, nz, z_continuous=True)
    gl = np.array(space.ref_nodes)

    def export_map(x):
        coeffs = space.zero_coeffs()
        for b in range(N):
            a, c = mesh.nodes[b], mesh.nodes[b + 1]
            hb = c - a
            if with_midpoints:
                l, m_, rr = 2 * b, 2 * b + 1, 2 * b + 2
                for j in range(ny):
                    yl, yr = x[y_var(l, j)], x[y_var(rr, j)]
                    vl, vr = x[v_var(l, j)], x[v_var(rr, j)]
                    # Hermite cubic on the interval, sampled at the FE nodes
                    s01 = 0.5 * (gl + 1.0)
                    h00 = 2 * s01**3 - 3 * s01**2 + 1
                    h10 = s01**3 - 2 * s01**2 + s01
                    h01 = -2 * s01**3 + 3 * s01**2
                    h11 = s01**3 - s01**2
                    coeffs[space.y_dofs[j, b]] = h00 * yl + h10 * hb * vl + h01 * yr + h11 * hb * vr
                for j in range(nz):
                    zl, zm, zr = x[z_var(l, j)], x[z_var(m_, j)], x[z_var(rr, j)]
                    B3 = basis_matrix((-1.0, 0.0, 1.0), gl)
                    coeffs[space.z_dofs[j, b]] = B3 @ np.array([zl, zm, zr])
            else:
                for j in range(ny):
                    coeffs[space.y_dofs[j, b]] = [x[y_var(b, j)], x[y_var(b + 1, j)]]
                for j in range(nz):
                    coeffs[space.z_dofs[j, b]] = [x[z_var(b, j)], x[z_var(b + 1, j)]]
        return coeffs

    def sample_plan(trajectory):
        x = np.zeros(dim)
        t = times
        for j in range(ny):
            x[[y_var(i, j) for i in range(S)]] = trajectory.component(j, t)
            x[[v_var(i, j) for i in range(S)]] = trajectory.component(j, t, 1)
        for j in range(nz):
            x[[z_var(i, j) for i in range(S)]] = trajectory.component(ny + j, t)
        return x

    return TranscribedNLP._of_tensors(problem, params, space, export_map, sample_plan, A, gidx,
                                      w[:, None], times[:, None], dim, z_idx,
                                      point_eval if problem.n_b else [], E, e0, extended=False)


def _lgr_nlp(problem, mesh, scheme, params):
    """Radau IIA collocation of stage count p: the state is a degree-p
    polynomial per interval (continuous across intervals), the algebraic
    variables live at the p Radau nodes, and the DAE holds at those nodes."""
    ny, nz = problem.n_y, problem.n_z
    p = scheme.p
    N = mesh.n_intervals
    h = mesh.lengths
    nodes_r, weights_r = radau_right(p)
    local = np.concatenate(([-1.0], nodes_r))  # p+1 state nodes per interval

    n_y_dofs = N * p + 1
    n_z_dofs = N * p
    dim = ny * n_y_dofs + nz * n_z_dofs

    def y_dof(j, b, l):  # local l in 0..p over `local`
        return j * n_y_dofs + b * p + l

    def z_dof(j, b, q):  # q in 0..p-1 over the Radau nodes
        return ny * n_y_dofs + j * n_z_dofs + b * p + q

    Bv = basis_matrix(tuple(local), nodes_r)  # (p, p+1)
    Bd = basis_deriv_matrix(tuple(local), nodes_r)

    m = 2 * ny + nz
    L = p + 1
    A = np.zeros((m, N, p, L))
    gidx = np.zeros((m, N, L), dtype=int)
    for j in range(ny):
        A[j] = Bd[None] * (2.0 / h)[:, None, None]
        A[ny + j] = Bv[None]
        for b in range(N):
            gidx[j, b] = [y_dof(j, b, l) for l in range(L)]
        gidx[ny + j] = gidx[j]
    for j in range(nz):
        for q in range(p):
            A[2 * ny + j, :, q, q] = 1.0
        for b in range(N):
            gidx[2 * ny + j, b, :p] = [z_dof(j, b, q) for q in range(p)]
            gidx[2 * ny + j, b, p] = z_dof(j, b, 0)  # padding, zero weight

    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    tq = mids[:, None] + 0.5 * h[:, None] * nodes_r[None, :]
    w = 0.5 * h[:, None] * weights_r[None, :]

    point_eval = []
    for tk in problem.point_times:
        b = int(np.clip(np.searchsorted(mesh.nodes, tk, side="left") - 1, 0, N - 1))
        a, c = mesh.nodes[b], mesh.nodes[b + 1]
        ref = (2.0 * tk - (a + c)) / (c - a)
        row = basis_matrix(tuple(local), [ref])[0]
        per_point = []
        for j in range(ny):
            per_point.append((np.array([y_dof(j, b, l) for l in range(L)]), row))
        point_eval.append(per_point)

    space = FESpace(mesh, p, ny, nz, z_continuous=False)
    gl = np.array(space.ref_nodes)
    By = basis_matrix(tuple(local), gl)  # (p+1, p+1)
    Bz = basis_matrix(tuple(nodes_r), gl)  # (p+1, p)

    def export_map(x):
        coeffs = space.zero_coeffs()
        for b in range(N):
            for j in range(ny):
                vals = x[[y_dof(j, b, l) for l in range(p + 1)]]
                coeffs[space.y_dofs[j, b]] = By @ vals
            for j in range(nz):
                vals = x[[z_dof(j, b, q) for q in range(p)]]
                coeffs[space.z_dofs[j, b]] = Bz @ vals
        return coeffs

    def sample_plan(trajectory):
        x = np.zeros(dim)
        for b in range(N):
            a, c = mesh.nodes[b], mesh.nodes[b + 1]
            ty = 0.5 * (a + c) + 0.5 * (c - a) * local
            tz = 0.5 * (a + c) + 0.5 * (c - a) * nodes_r
            for j in range(ny):
                x[[y_dof(j, b, l) for l in range(p + 1)]] = trajectory.component(j, ty)
            for j in range(nz):
                x[[z_dof(j, b, q) for q in range(p)]] = trajectory.component(ny + j, tz)
        return x

    return TranscribedNLP._of_tensors(problem, params, space, export_map, sample_plan, A, gidx,
                                      w, tq, dim, np.arange(ny * n_y_dofs, dim),
                                      point_eval if problem.n_b else [], extended=False)


def transcribe_collocation(problem, mesh, scheme: CollocationScheme,
                           params: PenaltyBarrierParams | None = None) -> TranscribedNLP:
    """Build the penalty-relaxed collocation transcription of a problem."""
    if scheme.kind == "tr":
        return _node_based_nlp(problem, mesh, params, with_midpoints=False)
    if scheme.kind == "hs":
        return _node_based_nlp(problem, mesh, params, with_midpoints=True)
    return _lgr_nlp(problem, mesh, scheme, params)


def detect_ringing(control_samples, window: int = 1) -> float:
    """Oscillation score of a uniformly sampled control signal.

    Counts sign changes of the discrete second difference (optionally after
    a moving-average smoothing of width ``window``) and divides by the
    sample count.  Scores near 1 mean node-to-node oscillation; smooth
    signals score well below 0.1.  A score above 0.3 is the conventional
    flag threshold for ringing.
    """
    s = np.asarray(control_samples, dtype=float)
    if s.ndim != 1 or len(s) < 5:
        raise InputError("need at least 5 uniformly spaced samples")
    n = len(s)
    if window > 1:
        s = np.convolve(s, np.ones(window) / window, mode="valid")
    d2 = np.diff(s, 2)
    sgn = np.sign(d2)
    sgn = sgn[sgn != 0.0]
    if len(sgn) < 2:
        return 0.0
    return float(np.sum(sgn[1:] != sgn[:-1])) / n
