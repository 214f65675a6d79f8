"""Continuation solver for the penalty-barrier merit function.

The merit is minimized for a descending sequence of (omega, tau) pairs;
each stage runs damped Newton steps with an Armijo backtracking line
search, keeping every iterate strictly interior with respect to the
algebraic nonnegativity via a fraction-to-boundary step cap and rejection
of steps that leave the barrier domain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import newton
from .analysis import optimality_gap
from .errors import BarrierDomainError, InputError
from .mesh import Trajectory
from .problem import feasibility_residual_exact
from .transcription import PenaltyBarrierParams

__all__ = ["SolverConfig", "SolveReport", "solve", "initial_guess"]

# Lipschitz-style constants used only to size interior-margin thresholds
L_F_DEFAULT = 2.0
L_R_DEFAULT = 2.0

# ratio between consecutive continuation stages' omega
CONTINUATION_FACTOR = 10.0
# share of the distance to the barrier's boundary a Newton step may cover
FRACTION_TO_BOUNDARY = 0.995
# smallest Levenberg shift tried, relative to the Newton matrix's diagonal
REGULARIZATION_FLOOR = 1e-12

# iterations without a 10% gradient-norm improvement before an
# extended-precision stage is declared stalled
PLATEAU_ITERS = 30


@dataclass(frozen=True)
class SolverConfig:
    omega_target: float = 1e-10
    tau_target: float = 1e-10
    continuation_start: float = 1e-2
    grad_tol: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        if min(self.omega_target, self.tau_target, self.continuation_start,
               self.grad_tol) <= 0.0:
            raise InputError("solver parameters must be positive")
        if self.tau_target > self.omega_target:
            raise InputError("tau_target must not exceed omega_target")
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")


@dataclass
class SolveReport:
    trajectory: Trajectory
    F_h: float
    r_feas: float
    g_opt: float | None
    status: str  # converged | stalled | max_iters
    stages: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def success(self) -> bool:
        # a stall at the final, tiny (omega, tau) is the expected endpoint:
        # gradient round-off there is of size ~eps/omega
        return self.status in ("converged", "stalled")

    @property
    def iterations(self) -> int:
        return sum(s["iters"] for s in self.stages)


def _stage_schedule(config: SolverConfig):
    omegas = []
    w = min(config.continuation_start, 0.5)
    while w > config.omega_target * (1.0 + 1e-9):
        omegas.append(w)
        w /= CONTINUATION_FACTOR
    omegas.append(config.omega_target)
    ratio = config.tau_target / config.omega_target
    return [(w, min(w, max(w * ratio, config.tau_target))) for w in omegas]


def _make_interior(nlp, x, tau, omega):
    """Restore a strictly interior iterate with the least disturbance.

    Local margin shifts, the threshold growing fourfold per round, repair
    isolated dips of the algebraic quadrature values (typical between
    continuation stages, where they barely change the merit); after twenty
    failed rounds the last ``BarrierDomainError`` fails the solve."""
    l_omega = L_F_DEFAULT + L_R_DEFAULT / (2.0 * omega)
    threshold = max(tau / l_omega, 1e-14)
    for _ in range(19):
        x = nlp.interior_margin(x, threshold)
        try:
            nlp.barrier(x)
            return x
        except BarrierDomainError:
            threshold *= 4.0
    x = nlp.interior_margin(x, threshold)
    nlp.barrier(x)
    return x


def _max_step(nlp, x, d, frac):
    """Largest step keeping algebraic quadrature values positive, capped
    by the fraction-to-boundary rule."""
    zx = nlp.z_quad_values(x).ravel()
    if zx.size == 0:
        return 1.0
    zd = nlp.z_quad_values(d).ravel()
    neg = zd < 0.0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, frac * np.min(-zx[neg] / zd[neg])))


def _line_search(nlp, x, d, phi, slope, alpha0):
    alpha = alpha0
    while alpha > 1e-14:
        try:
            phi_new = nlp.merit(x + alpha * d)
        except BarrierDomainError:
            alpha *= 0.5
            continue
        if phi_new <= phi + 1e-4 * alpha * slope:
            return alpha, phi_new
        alpha *= 0.5
    return None, None


def _run_stage(nlp, x, config, ahead):
    """Damped Newton with an adaptive Levenberg shift.

    The shift mu grows whenever a step is rejected and shrinks after full
    steps.  It matters at small omega: merit and gradient values then carry
    round-off noise of size ~eps/omega, and an undamped Newton step
    amplifies that noise into weakly determined directions (singular-arc
    controls).  Steps whose predicted decrease is at round-off level are
    therefore never taken; the stage reports "stalled", which at the final
    continuation stage is the expected double-precision endpoint.

    Returns the iterate, its merit, the status, the accepted-step count
    and the gradient inf-norm the last accepted step started from.
    """
    phi = nlp.merit(x)
    # merit/gradient may be evaluated in extended precision at small omega;
    # the stall thresholds then follow the working precision.  Merit
    # decreases below double-precision resolution still move the (double)
    # coefficients along weakly curved directions -- on singular arcs a
    # merit change of ~1e-19 corresponds to a control change of ~1e-4, so
    # cutting off at float64 eps would freeze exactly the directions the
    # extended evaluation is there to resolve.
    eps_work = float(np.finfo(np.asarray(phi).dtype).eps)
    eps_phi = eps_work
    extended = eps_work < 1e-17
    status = "max_iters"
    mu = 0.0
    it = 0
    final_grad = None
    best_gnorm = np.inf
    since_best = 0
    ahead.new_stage()
    while it < config.max_iters:
        g, H = nlp.newton_system(x)
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= config.grad_tol * (1.0 + abs(phi)):
            status = "converged"
            break
        if gnorm < 0.9 * best_gnorm:
            best_gnorm = gnorm
            since_best = 0
        else:
            since_best += 1
            # only meaningful in extended precision, where the line search
            # keeps accepting decreases below double-precision resolution;
            # plain double-precision solves terminate on the merit tests
            if extended and since_best >= PLATEAU_ITERS:
                # long plateau of the gradient norm: the remaining descent
                # is confined to directions too weakly curved to matter
                status = "stalled"
                break
        # when the merit runs in extended precision the double-precision
        # Hessian entries carry representation noise ~eps64 * |H| that
        # swamps the true curvature of weakly determined directions; a
        # noise-level shift floor keeps those components damped instead of
        # letting the factorization amplify the noise into the step
        mu_floor = 0.0
        if extended:
            mu_floor = 1e-12 * H.diag_scale
        accepted = False
        for _ in range(12):
            d, mu_used = newton._newton_direction(H, g, REGULARIZATION_FLOOR,
                                                  max(mu, mu_floor), ahead)
            if d is None:
                break
            alpha_max = _max_step(nlp, x, d, FRACTION_TO_BOUNDARY)
            slope = float(g @ d)
            if -slope * alpha_max <= 50.0 * eps_phi * (1.0 + abs(phi)):
                # decrease indistinguishable from round-off: stop cleanly
                d = None
                break
            alpha, phi_new = _line_search(nlp, x, d, phi, slope, alpha_max)
            if alpha is not None:
                accepted = True
                break
            mu = max(10.0 * max(mu, mu_used), 1e-10)
        if not accepted:
            status = "stalled"
            break
        x = x + alpha * d
        it += 1
        final_grad = gnorm
        if alpha >= 0.99 * alpha_max:
            mu /= 3.0
            if mu < 1e-14:
                mu = 0.0
        if abs(phi - phi_new) <= 4.0 * eps_phi * (1.0 + abs(phi)):
            phi = phi_new
            status = "stalled"
            break
        phi = phi_new
    return x, phi, status, it, final_grad


def solve(nlp, initial, config: SolverConfig | None = None,
          reference_objective: float | None = None) -> SolveReport:
    """Minimize the merit of the transcription ``nlp`` along the (omega,
    tau) continuation path.

    At the start of each stage ``nlp.params`` is set to that stage's
    weights; the transcription itself, and so every Newton-matrix plan,
    stays the same for the whole solve, and ``nlp.params`` holds the last
    stage's weights afterwards.  ``initial`` is a Trajectory or a
    coefficient vector.  The report carries an independently computed
    feasibility residual, not the assembled one, so quadrature blind spots
    cannot hide infeasibility.

    On Linux with two or more CPUs, a solve whose Newton matrices need the
    second Levenberg shift forks one worker process that factors it beside
    the first (:class:`pbfem.newton._SecondShift`); the worker is stopped
    before ``solve`` returns or raises, and the results are the same bits
    as without it.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    x = initial if isinstance(initial, np.ndarray) else nlp.from_trajectory(initial)
    x = np.array(x, dtype=float)
    report_stages = []
    status = "converged"
    ahead = newton._SecondShift()
    try:
        for omega, tau in _stage_schedule(config):
            nlp.params = PenaltyBarrierParams(omega, tau)
            x = _make_interior(nlp, x, tau, omega)
            x, phi, status, iters, final_grad = _run_stage(nlp, x, config, ahead)
            report_stages.append(
                {"omega": omega, "tau": tau, "iters": iters, "status": status,
                 "final_merit": float(phi), "final_grad": final_grad}
            )
    finally:
        ahead.close()
    x = np.asarray(x, dtype=np.float64)
    trajectory = nlp.to_trajectory(x)
    F_h = float(nlp.objective(x))
    r_feas = feasibility_residual_exact(nlp.problem, trajectory)
    return SolveReport(
        trajectory=trajectory,
        F_h=F_h,
        r_feas=r_feas,
        g_opt=(optimality_gap(F_h, reference_objective)
               if reference_objective is not None else None),
        status=status,
        stages=report_stages,
        wall_time=time.perf_counter() - t_start,
    )


def initial_guess(problem, space, strategy: str = "constant") -> Trajectory:
    """Strictly interior starting trajectory.

    Every algebraic component is 1.  With registered boundary metadata
    (``boundary_start``/``boundary_end`` state vectors), the differential
    components interpolate linearly between them; otherwise they start at
    zero.  ``strategy`` is checked but does not change the guess: both
    ``"constant"`` and ``"linear-boundary"`` give the same trajectory.
    """
    if strategy not in ("constant", "linear-boundary"):
        raise InputError("strategy must be 'constant' or 'linear-boundary'")
    start = problem.metadata.get("boundary_start")
    end = problem.metadata.get("boundary_end")
    t0, tE = problem.t0, problem.tE
    funcs = []
    for j in range(problem.n_y):
        a = float(start[j]) if start is not None else 0.0
        b = float(end[j]) if end is not None else a
        funcs.append(lambda t, a=a, b=b: a + (b - a) * (t - t0) / (tE - t0))
    for _ in range(problem.n_z):
        funcs.append(lambda t: np.ones_like(t))
    return space.interpolate(funcs)
