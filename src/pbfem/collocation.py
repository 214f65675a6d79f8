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
    # the variables of each node: its states, slopes and algebraic variables
    var = np.arange(dim).reshape(S, per)
    Y, V, Z = var[:, :ny].T, var[:, ny:2 * ny].T, var[:, 2 * ny:].T  # (component, node)
    # the nodes of each interval: its ends, and the midpoint between them for HS
    step = 2 if with_midpoints else 1
    seg = step * np.arange(N)[:, None] + np.arange(step + 1)
    l, r = seg[:, 0], seg[:, -1]

    # integration weights at the nodes (trapezoid / Simpson)
    w = np.zeros(S)
    w_end = h / 6.0 if with_midpoints else h / 2.0
    w[l] += w_end
    w[r] += w_end
    if with_midpoints:
        w[1::2] = 4.0 * h / 6.0

    A = np.ones((per, S, 1, 1))
    gidx = np.concatenate([V, Y, Z])[:, :, None]

    # linkage rows, scaled by h^(-1/2) so their penalty weight matches the
    # sqrt-quadrature-weight scaling of the nodal residuals; each kind of
    # row lists its entries as (columns per component and interval, values
    # per interval), and there is one row per (interval, component, kind)
    s = 1.0 / np.sqrt(h)
    if with_midpoints:
        mid = seg[:, 1]
        link = [
            # midpoint interpolation condition of the Hermite cubic
            [(Y[:, mid], s), (Y[:, l], -0.5 * s), (Y[:, r], -0.5 * s),
             (V[:, l], -h / 8.0 * s), (V[:, r], h / 8.0 * s)],
            # Simpson increment condition
            [(Y[:, r], s), (Y[:, l], -s),
             (V[:, l], -h / 6.0 * s), (V[:, mid], -4.0 * h / 6.0 * s), (V[:, r], -h / 6.0 * s)],
        ]
    else:
        link = [[(Y[:, r], s), (Y[:, l], -s), (V[:, l], -0.5 * h * s), (V[:, r], -0.5 * h * s)]]
    cols = np.stack([np.stack([c.T for c, _ in kind], -1) for kind in link], 2)
    vals = np.stack([np.stack([v for _, v in kind], -1) for kind in link], 1)[:, None]
    n_link, k = cols.size // cols.shape[-1], cols.shape[-1]
    E = scipy.sparse.csr_matrix(
        (np.broadcast_to(vals, cols.shape).ravel(), (np.repeat(np.arange(n_link), k), cols.ravel())),
        shape=(n_link, dim))
    e0 = np.zeros(n_link)

    # point-constraint evaluation by linear interpolation between nodes
    point_eval = []
    for tk in problem.point_times:
        i = int(np.clip(np.searchsorted(times, tk, side="left") - 1, 0, S - 2))
        theta = (tk - times[i]) / (times[i + 1] - times[i])
        weights = np.array([1.0 - theta, theta])
        point_eval.append([(Y[j, i:i + 2], weights) for j in range(ny)])

    space = FESpace(mesh, 3 if with_midpoints else 1, ny, nz, z_continuous=True)
    if with_midpoints:
        # Hermite cubic for the states and the quadratic through the
        # interval's three nodes for the algebraic variables, at the FE nodes
        s01 = 0.5 * (space.ref_nodes + 1.0)
        h00 = 2 * s01**3 - 3 * s01**2 + 1
        h10 = s01**3 - 2 * s01**2 + s01
        h01 = -2 * s01**3 + 3 * s01**2
        h11 = s01**3 - s01**2
        B3 = basis_matrix((-1.0, 0.0, 1.0), space.ref_nodes)
    Y_seg, V_seg, Z_seg = Y[:, seg], V[:, seg], Z[:, seg]  # (component, interval, node)

    def export_map(x):
        coeffs = space.zero_coeffs()
        if with_midpoints:
            yl, yr = x[Y_seg[..., :1]], x[Y_seg[..., 2:]]
            vl, vr = x[V_seg[..., :1]], x[V_seg[..., 2:]]
            hb = h[:, None]
            coeffs[space.y_dofs] = h00 * yl + h10 * hb * vl + h01 * yr + h11 * hb * vr
            coeffs[space.z_dofs] = np.matmul(B3, x[Z_seg][..., None])[..., 0]
        else:
            coeffs[space.y_dofs] = x[Y_seg]
            coeffs[space.z_dofs] = x[Z_seg]
        return coeffs

    def sample_plan(trajectory):
        x = np.zeros(dim)
        for j in range(ny):
            x[Y[j]] = trajectory.component(j, times)
            x[V[j]] = trajectory.component(j, times, 1)
        for j in range(nz):
            x[Z[j]] = trajectory.component(ny + j, times)
        return x

    return TranscribedNLP._of_tensors(problem, params, space, export_map, sample_plan, A, gidx,
                                      w[:, None], times[:, None], dim, Z.T.ravel(),
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
    dim = ny * n_y_dofs + nz * N * p
    # state dofs per (component, interval, local node over `local`), and
    # algebraic dofs per (component, interval, Radau node)
    y_dofs = np.arange(ny * n_y_dofs).reshape(ny, n_y_dofs)
    Y = y_dofs[:, p * np.arange(N)[:, None] + np.arange(p + 1)]
    Z = np.arange(ny * n_y_dofs, dim).reshape(nz, N, p)

    Bv = basis_matrix(tuple(local), nodes_r)  # (p, p+1)
    Bd = basis_deriv_matrix(tuple(local), nodes_r)

    A = np.zeros((2 * ny + nz, N, p, p + 1))
    A[:ny] = Bd * (2.0 / h)[:, None, None]
    A[ny:2 * ny] = Bv
    A[2 * ny:, :, :, :p] = np.eye(p)
    # the algebraic rows read their Radau nodes, padded by the first (zero weight)
    gidx = np.concatenate([Y, Y, np.concatenate([Z, Z[:, :, :1]], axis=2)])

    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    tq = mids[:, None] + 0.5 * h[:, None] * nodes_r[None, :]
    w = 0.5 * h[:, None] * weights_r[None, :]

    point_eval = []
    for tk in problem.point_times:
        b = int(mesh.interval_index(tk))
        a, c = mesh.nodes[b], mesh.nodes[b + 1]
        ref = (2.0 * tk - (a + c)) / (c - a)
        row = basis_matrix(tuple(local), [ref])[0]
        point_eval.append([(Y[j, b], row) for j in range(ny)])

    space = FESpace(mesh, p, ny, nz, z_continuous=False)
    By = basis_matrix(tuple(local), space.ref_nodes)  # (p+1, p+1)
    Bz = basis_matrix(tuple(nodes_r), space.ref_nodes)  # (p+1, p)

    def export_map(x):
        coeffs = space.zero_coeffs()
        coeffs[space.y_dofs] = np.matmul(By, x[Y][..., None])[..., 0]
        coeffs[space.z_dofs] = np.matmul(Bz, x[Z][..., None])[..., 0]
        return coeffs

    # the time at which each state dof samples a trajectory: a dof shared
    # by two intervals takes the right interval's left node
    ty = mids[:, None] + 0.5 * h[:, None] * local[None, :]
    t_y = np.append(ty[:, :p], ty[-1, p])

    def sample_plan(trajectory):
        x = np.zeros(dim)
        for j in range(ny):
            x[y_dofs[j]] = trajectory.component(j, t_y)
        for j in range(nz):
            x[Z[j]] = trajectory.component(ny + j, tq.ravel()).reshape(N, p)
        return x

    return TranscribedNLP._of_tensors(problem, params, space, export_map, sample_plan, A, gidx,
                                      w, tq, dim, Z.ravel(),
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
    """Oscillation score of a uniformly sampled control.

    Counts sign changes of the discrete second difference (optionally after
    a moving-average smoothing of width ``window``) and divides by the
    sample count.  Scores near 1 mean node-to-node oscillation; smooth
    controls score well below 0.1.  A score above 0.3 is the conventional
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
