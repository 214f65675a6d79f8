"""Dynamic optimization problem model and the Bolza-form converter.

The canonical form minimizes an integral cost over a horizon subject to an
implicit DAE residual, point constraints tying together state values at
selected times, and nonnegativity of the algebraic variables:

    minimize    int_{t0}^{tE} f(ydot, y, z, t) dt
    subject to  b(y(t_1), ..., y(t_M)) = 0
                c(ydot, y, z, t) = 0     almost everywhere
                z(t) >= 0                almost everywhere

Problem callables receive per-component sequences whose entries may be
plain floats, numpy arrays, or differentiation scalars from :mod:`pbfem.ad`,
so they must be written against generic arithmetic (use ``pbfem.ad.sin``
and friends for transcendentals).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ad
from .errors import InputError
from .quadrature import _row_dots, gauss_legendre

__all__ = [
    "DynamicProblem",
    "BolzaProblem",
    "evaluate_dae_residual",
    "convert_bolza",
    "feasibility_residual_exact",
]


@dataclass(frozen=True)
class DynamicProblem:
    """An instance of the canonical dynamic optimization form.

    ``f(ydot, y, z, t)`` returns a scalar, ``c(ydot, y, z, t)`` a sequence
    of length ``n_c``; both receive ``ydot``/``y`` as sequences of ``n_y``
    entries and ``z`` of ``n_z`` entries.  ``b(y1, ..., yM)`` receives one
    state-value sequence per point time and returns length ``n_b``.
    ``metadata`` carries optional benchmark annotations (boundary values,
    control extractors, display names); it does not affect evaluation.
    """

    n_y: int
    n_z: int
    n_c: int
    n_b: int
    t0: float
    tE: float
    point_times: tuple
    f: callable
    c: callable
    b: callable
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_y < 0 or self.n_z < 0 or self.n_c < 0 or self.n_b < 0:
            raise InputError("dimensions must be nonnegative")
        if not self.t0 < self.tE:
            raise InputError("t0 must be smaller than tE")
        object.__setattr__(self, "point_times", tuple(float(t) for t in self.point_times))
        for tk in self.point_times:
            if tk < self.t0 - 1e-12 or tk > self.tE + 1e-12:
                raise InputError(f"point time {tk} outside horizon")


def evaluate_dae_residual(problem: DynamicProblem, ydot, y, z, t):
    """The DAE residual c(ydot, y, z, t) as a float array of length n_c."""
    ydot = list(ydot)
    y = list(y)
    z = list(z)
    if len(ydot) != problem.n_y or len(y) != problem.n_y or len(z) != problem.n_z:
        raise InputError(
            f"expected {problem.n_y} state and {problem.n_z} algebraic entries"
        )
    res = problem.c(ydot, y, z, t)
    out = np.array([ad.value(r) for r in res], dtype=float)
    if len(out) != problem.n_c:
        raise InputError(f"c returned {len(out)} residuals, expected {problem.n_c}")
    return out


def feasibility_residual_exact(problem: DynamicProblem, trajectory) -> float:
    """Independent feasibility measure r(x) = int ||c||^2 dt + ||b||^2.

    Uses its own Gauss rule, 2p + 4 points per interval (two orders beyond
    the transcription rule), so it cannot inherit the transcription's
    quadrature blind spots.
    """
    space = trajectory.space
    rule = gauss_legendre(2 * space.p + 4)
    # every interval's rule at once, as ``rule.mapped`` maps it
    a, bb = space.mesh.nodes[:-1, None], space.mesh.nodes[1:, None]
    half = 0.5 * (bb - a)
    t = 0.5 * (a + bb) + half * rule.nodes
    w = half * rule.weights

    def values(j, order=0):
        return trajectory.component(j, t.ravel(), order).reshape(t.shape)

    ydot = [values(j, 1) for j in range(problem.n_y)]
    y = [values(j) for j in range(problem.n_y)]
    z = [values(problem.n_y + j) for j in range(problem.n_z)]
    res = problem.c(ydot, y, z, t)
    total = 0.0
    if len(res):
        squares = np.stack([np.broadcast_to(np.asarray(r, dtype=float), t.shape) ** 2
                            for r in res])
        # np.dot's value per (interval, residual), added in that order
        for v in _row_dots(w, squares).reshape(len(res), -1).T.ravel():
            total += float(v)
    if problem.n_b > 0:
        ys = [
            [trajectory.component(j, tk)[0] for j in range(problem.n_y)]
            for tk in problem.point_times
        ]
        bvals = problem.b(*ys)
        total += float(sum(float(v) ** 2 for v in bvals))
    return total


@dataclass(frozen=True)
class BolzaProblem:
    """A Bolza-form problem: running plus terminal cost, equality and
    inequality path constraints, optional parameters and free end times.

    ``inputs`` declares each control channel as ``"free"`` (unrestricted),
    ``("box", lo, hi)``, or ``"nonneg"``.  ``f_r(chidot, chi, u, xi, tau)``
    is the running cost; ``f_E(chi, xi, tau)`` the terminal cost evaluated
    at the final time, which must then be the last point.  ``c_e`` and
    ``c_i`` share the running-cost signature; inequality rows are
    interpreted as c_i <= 0.  ``b_B`` receives one state-value sequence per
    point, then ``xi, tau0, tauE``.  Point times are given as fractions of
    the horizon in [0, 1] so they stay meaningful when end times are free.
    """

    n_chi: int
    inputs: tuple
    f_r: callable = None
    f_E: callable = None
    c_e: callable = None
    n_ce: int = 0
    c_i: callable = None
    n_ci: int = 0
    b_B: callable = None
    n_bB: int = 0
    n_xi: int = 0
    tau0: float = 0.0
    tauE: float = 1.0
    free_tau0: bool = False
    free_tauE: bool = False
    point_fracs: tuple = (0.0, 1.0)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_chi < 0 or self.n_xi < 0:
            raise InputError("dimensions must be nonnegative")
        if self.f_E is not None and self.point_fracs[-1] != 1.0:
            raise InputError("a terminal cost needs the final time as the last point")
        for spec in self.inputs:
            if spec == "free" or spec == "nonneg":
                continue
            if isinstance(spec, tuple) and len(spec) == 3 and spec[0] == "box":
                if not spec[1] < spec[2]:
                    raise InputError("box bounds must satisfy lo < hi")
                continue
            raise InputError(f"unknown input kind {spec!r}")
        if not (self.free_tau0 or self.free_tauE) and not self.tau0 < self.tauE:
            raise InputError("tau0 must be smaller than tauE")


def convert_bolza(bolza: BolzaProblem) -> DynamicProblem:
    """Restate a Bolza problem in the canonical form on the unit horizon.

    The terminal cost becomes a constant state phi, pinned to f_E at the
    last point and integrated over the unit horizon; inequalities gain
    nonnegative slacks; free inputs are split into differences of
    nonnegative channels and boxed inputs into complementary nonnegative
    pairs; phi, the parameters and free end times are constant states with
    zero-derivative rows.  Physical time is recovered as
    tau = tau0 + (tauE - tau0) * t.
    """
    nx = bolza.n_chi
    has_phi = bolza.f_E is not None

    # state layout: chi | [phi] | xi | [tau0] | [tauE]
    i_phi = nx if has_phi else None
    i_xi = nx + (1 if has_phi else 0)
    i_t0 = i_xi + bolza.n_xi if bolza.free_tau0 else None
    i_tE = (i_xi + bolza.n_xi + (1 if bolza.free_tau0 else 0)) if bolza.free_tauE else None
    n_y = i_xi + bolza.n_xi + (1 if bolza.free_tau0 else 0) + (1 if bolza.free_tauE else 0)

    # algebraic layout: split/boxed/nonneg inputs, then inequality slacks
    z_map = []  # per input: ("free", ia, ib) | ("box", ia, ib, lo, hi) | ("nonneg", ia)
    pos = 0
    for spec in bolza.inputs:
        if spec == "free":
            z_map.append(("free", pos, pos + 1))
            pos += 2
        elif spec == "nonneg":
            z_map.append(("nonneg", pos))
            pos += 1
        else:
            z_map.append(("box", pos, pos + 1, spec[1], spec[2]))
            pos += 2
    i_slack = pos
    n_z = pos + bolza.n_ci

    n_box = sum(1 for m in z_map if m[0] == "box")
    n_c = bolza.n_ce + bolza.n_ci + n_box + n_y - nx  # the constant states follow chi
    n_b = bolza.n_bB + (1 if has_phi else 0)

    def _times(y, t):
        t0 = y[i_t0] if i_t0 is not None else bolza.tau0
        tE = y[i_tE] if i_tE is not None else bolza.tauE
        return t0, tE, tE - t0

    def _controls(z):
        u = []
        for m in z_map:
            if m[0] == "free":
                u.append(z[m[1]] - z[m[2]])
            elif m[0] == "nonneg":
                u.append(z[m[1]])
            else:
                u.append(m[3] + z[m[1]])
        return u

    def _args(ydot, y, z, t):
        t0, tE, delta = _times(y, t)
        tau = t0 + delta * t
        chidot = [ydot[j] / delta for j in range(nx)]
        chi = [y[j] for j in range(nx)]
        xi = [y[i_xi + j] for j in range(bolza.n_xi)]
        return chidot, chi, _controls(z), xi, tau, delta

    def f(ydot, y, z, t):
        chidot, chi, u, xi, tau, delta = _args(ydot, y, z, t)
        total = 0.0
        if bolza.f_r is not None:
            total = delta * bolza.f_r(chidot, chi, u, xi, tau)
        if has_phi:
            total = total + y[i_phi]
        return total

    def c(ydot, y, z, t):
        chidot, chi, u, xi, tau, delta = _args(ydot, y, z, t)
        rows = []
        if bolza.c_e is not None:
            rows.extend(bolza.c_e(chidot, chi, u, xi, tau))
        if bolza.c_i is not None:
            ci = bolza.c_i(chidot, chi, u, xi, tau)
            rows.extend(z[i_slack + j] + ci[j] for j in range(bolza.n_ci))
        for m in z_map:
            if m[0] == "box":
                rows.append(z[m[1]] + z[m[2]] - (m[4] - m[3]))
        rows.extend(ydot[nx:])
        return rows

    def b(*ys):
        t0 = ys[0][i_t0] if i_t0 is not None else bolza.tau0
        tE = ys[0][i_tE] if i_tE is not None else bolza.tauE
        xi = [ys[0][i_xi + j] for j in range(bolza.n_xi)]
        rows = []
        if bolza.b_B is not None:
            chis = [[yk[j] for j in range(nx)] for yk in ys]
            rows.extend(bolza.b_B(*chis, xi, t0, tE))
        if has_phi:
            chi_E = [ys[-1][j] for j in range(nx)]
            rows.append(ys[-1][i_phi] - bolza.f_E(chi_E, xi, tE))
        return rows

    meta = dict(bolza.metadata)
    meta["bolza"] = {
        "z_map": z_map,
        "i_phi": i_phi,
        "i_xi": i_xi,
        "i_tau0": i_t0,
        "i_tauE": i_tE,
        "n_slack": bolza.n_ci,
    }
    return DynamicProblem(
        n_y=n_y,
        n_z=n_z,
        n_c=n_c,
        n_b=n_b,
        t0=0.0,
        tE=1.0,
        point_times=tuple(bolza.point_fracs),
        f=f,
        c=c,
        b=b,
        metadata=meta,
    )
