"""Continuation solver for the penalty-barrier merit function.

The merit is minimized for a descending sequence of (omega, tau) pairs;
each stage runs damped Newton steps with an Armijo backtracking line
search, keeping every iterate strictly interior with respect to the
algebraic nonnegativity via a fraction-to-boundary step cap and rejection
of steps that leave the barrier domain.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import optimality_gap
from .errors import BarrierDomainError, InputError
from .mesh import Trajectory
from .problem import feasibility_residual_exact
from .transcription import PenaltyBarrierParams, _ColumnOrder, _NewtonSystem

__all__ = ["SolverConfig", "SolveReport", "solve", "initial_guess"]

# Lipschitz-style constants used only to size interior-push thresholds
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

    Local margin shifts repair isolated dips of the algebraic quadrature
    values (typical between continuation stages, where they barely change
    the merit); only if those fail does the coefficient clip and finally a
    unit reset take over."""
    l_omega = L_F_DEFAULT + L_R_DEFAULT / (2.0 * omega)
    threshold = max(tau / l_omega, 1e-14)
    for _ in range(20):
        x = nlp.interior_margin(x, threshold)
        try:
            nlp.barrier(x)
            return x
        except BarrierDomainError:
            threshold *= 4.0
    x = nlp.interior_push(x, max(tau, 1e-10))
    try:
        nlp.barrier(x)
        return x
    except BarrierDomainError:
        pass
    # pathological coefficient spread: fall back to a unit interior point
    x = np.array(x)
    x[nlp.z_dof_indices] = 1.0
    return x


# arrays shipped to the shift-ladder worker start at multiples of this many
# bytes of the shared buffer
_ALIGN = 64
# a worker that has not replied within this many seconds is taken as hung
# (its trial takes as long as the local one, milliseconds on every workload)
_REPLY_TIMEOUT_S = 10.0
# glibc's mallopt parameters, and the largest mmap threshold it takes on a
# 64-bit platform
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _shipment(system, shift=None):
    """The fields ``system`` is rebuilt from, and the column order its
    plan holds for its pattern at ``shift``, if any: the arrays that go
    through the shared buffer, each with its place in it, the other
    fields, and the buffer's size, which leaves room for an order."""
    arrays, scalars = [], {}
    for f in fields(system):
        value = getattr(system, f.name)
        if isinstance(value, np.ndarray):
            arrays.append((f.name, value))
        else:
            scalars[f.name] = value
    order = None if shift is None else system.orders.get(system.pattern(shift))
    if order is not None:
        arrays.append(("order", order.perm))
    places, size = [], 0
    for name, a in arrays:
        places.append((name, a.dtype.str, a.shape, size))
        size += -(-a.nbytes // _ALIGN) * _ALIGN
    if order is None:
        size += -(-np.dtype(np.intc).itemsize * (len(system.indptr) - 1) // _ALIGN) * _ALIGN
    return [a for _, a in arrays], places, scalars, size


def _keep_freed_memory():
    """Have glibc's malloc keep what this process frees.  SuperLU's
    workspace is then reused from one factorization to the next instead of
    being handed back to the system and page-faulted in again (on the
    second shift of pendulum-a, 4.8 against 4.2 ms per trial by LGR at 30
    elements, 4.7 against 3.9 ms by FE at 40).  Only the worker does so: it
    holds nothing else, and the memory it keeps is its own."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _shipped_trial(buf, places, scalars, shift):
    """The trial at ``shift`` of the system shipped through ``buf``, in the
    column order shipped with it, if any."""
    fields = {name: np.ndarray(shape, dtype, buffer=buf, offset=at)
              for name, dtype, shape, at in places}
    perm = fields.pop("order", None)
    system = _NewtonSystem(**fields, **scalars)
    if perm is not None:
        system.orders[system.pattern(shift)] = _ColumnOrder(perm)
    return _trial(system, shift)


def _serve(conn, main_end, buf):
    """Worker loop: rebuild each system shipped through ``buf`` and try its
    shift, until the main process hangs up."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    main_end.close()
    _keep_freed_memory()
    conn.send("ready")
    while True:
        try:
            places, scalars, shift = conn.recv()
        except (EOFError, OSError):
            return
        t0 = time.perf_counter()
        try:
            reply = (True, _shipped_trial(buf, places, scalars, shift))
        except Exception:
            # the main process tries the shift itself and meets the error there
            reply = (False, None)
        try:
            conn.send((*reply, time.perf_counter() - t0))
        except OSError:
            return


def _start_worker(size):
    """A forked shift-ladder worker and its shared buffer of ``size``
    bytes, or None where no second core is at hand."""
    if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing  # only solves that fork pay for the import
    if multiprocessing.current_process().daemon:
        return None  # a daemonic process may not have children
    buf = mmap.mmap(-1, size)
    main_end, worker_end = multiprocessing.Pipe()
    proc = multiprocessing.get_context("fork").Process(
        target=_serve, args=(worker_end, main_end, buf), daemon=True)
    try:
        proc.start()
    except OSError:
        main_end.close()
        buf.close()
        return None
    finally:
        worker_end.close()
    return proc, main_end, buf


class _SecondShift:
    """The shift ladder's second trial, factored in a forked worker while
    the first one runs here.

    Most direction calls of a collocation solve need the second shift,
    because SuperLU refuses the first matrix as singular; the worker puts
    the machine's second core to that factorization.  It gets each system's
    arrays through a buffer shared with it, rebuilds the system from its
    fields, right-hand side included, and tries the shift with the class's
    own ``solve``, so its direction is the one this process would compute.
    A trial is sent only when the previous direction call of the stage
    needed the second shift, to a worker that is not still busy, and only
    while the stage's trials pay for themselves: while the worker's time on
    the trials whose direction was taken exceeds the time this process
    spent sending trials and waiting for replies, both summed over the
    stage.  Each stage starts
    with a clean account, so that one late reply early on (a host's
    scheduling hiccup of a few milliseconds) does not end the trials for
    the whole solve.  The worker is forked at the first call that needs
    the second shift, and anew when a later system outgrows its buffer.
    A worker that fails or does not reply costs the local factorization,
    never a different result, and ends the trials for the solve.
    """

    def __init__(self):
        self._worker = None  # process, connection, buffer
        self._pending = False  # a message from the worker is due
        self._failed = False
        self.new_stage()

    def submit(self, system, shift) -> bool:
        """Send the trial at ``shift`` to the worker; False when it is not
        sent."""
        if not (self._wanted and self.paid) or self._worker is None:
            return False
        t0 = time.perf_counter()
        _, conn, buf = self._worker
        arrays, places, scalars, size = _shipment(system, shift)
        # a worker still starting, or still on a trial nobody took, is
        # not waited for
        if size > len(buf) or self._pending and not (conn.poll(0) and self._receive()):
            return False
        for a, (_, dtype, shape, at) in zip(arrays, places):
            np.ndarray(shape, dtype, buffer=buf, offset=at)[...] = a
        try:
            conn.send((places, scalars, shift))
        except OSError:
            self._fail()
            return False
        self._pending = True
        self._spent_s += time.perf_counter() - t0
        return True

    def take(self, system, shift):
        """The trial :meth:`submit` sent: the worker's direction, or the
        local one when the worker gave none."""
        t0 = time.perf_counter()
        reply = self._receive()
        if reply is None or not reply[0]:
            return _trial(system, shift)
        _, d, worker_s = reply
        self._saved_s += worker_s
        self._spent_s += time.perf_counter() - t0
        self.paid = self._saved_s > self._spent_s
        return d

    def new_stage(self):
        """The next call starts a stage: it has no previous call, and the
        stage's account starts clean.  The buffer's pages are handed back
        to the system until a trial is sent again: a later stage may use
        another Newton form."""
        self._wanted = False  # the previous call of the stage needed the second shift
        self.paid = True
        self._saved_s = 0.0  # the worker's time on the trials taken
        self._spent_s = 0.0  # this process's time sending and waiting
        if self._worker is not None and self._drain():
            self._worker[2].madvise(mmap.MADV_REMOVE)

    def after(self, system, needed_second):
        """Note whether a direction call needed the second shift; fork a
        worker that can take ``system`` if the next call will want one."""
        self._wanted = needed_second
        if not (needed_second and self.paid) or self._failed:
            return
        size = _shipment(system)[3]
        if self._worker is not None and size <= len(self._worker[2]):
            return
        self.close()
        self._worker = _start_worker(size)
        self._failed = self._worker is None
        self._pending = not self._failed  # its "ready"

    def _receive(self):
        """The message due from the worker (its "ready", or its reply to
        the trial in flight), or None when it died or did not send it in
        time."""
        self._pending = False
        conn = self._worker[1]
        try:
            if conn.poll(_REPLY_TIMEOUT_S):
                return conn.recv()
        except (EOFError, OSError):
            pass
        self._fail()
        return None

    def _drain(self) -> bool:
        """Wait out a message nobody took; False when the worker failed."""
        return not self._pending or self._receive() is not None

    def _fail(self):
        self.close()
        self._failed = True

    def close(self):
        """Stop the worker.  It holds nothing to save, so it is killed and
        not left to finish a trial in flight; a worker whose main process
        died without closing exits when its connection ends."""
        if self._worker is None:
            return
        proc, conn, buf = self._worker
        self._worker, self._pending = None, False
        conn.close()
        proc.kill()
        proc.join()
        proc.close()
        buf.close()


def _next_shift(shift, floor, scale):
    return max(floor * scale, 4.0 * shift) if shift else max(floor * scale, 1e-8 * scale)


def _trial(system, shift):
    """The Newton direction at ``shift``, or None when SuperLU refuses the
    matrix."""
    try:
        return system.solve(shift)
    except (RuntimeError, ValueError):
        return None


def _newton_direction(system, g, floor, mu, ahead=None):
    """Solve the shifted Newton model, escalating the shift until the
    factorization succeeds and yields a descent direction.  Returns the
    direction and the shift that produced it.

    With ``ahead`` (a :class:`_SecondShift`), the second shift may be tried
    in its worker while the first is tried here; the ladder's shifts and
    directions are the same either way."""
    scale = system.diag_scale
    shift = mu
    second = ahead is not None and ahead.submit(system, _next_shift(shift, floor, scale))
    for k in range(40):
        d = ahead.take(system, shift) if second and k == 1 else _trial(system, shift)
        if d is not None and np.all(np.isfinite(d)) and float(g @ d) < 0.0:
            break
        shift = _next_shift(shift, floor, scale)
    else:
        d = None
    if ahead is not None:
        ahead.after(system, needed_second=k > 0)
    return d, shift


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
            d, mu_used = _newton_direction(H, g, REGULARIZATION_FLOOR,
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
    the first (:class:`_SecondShift`); the worker is stopped before
    ``solve`` returns or raises, and the results are the same bits as
    without it.
    """
    config = config or SolverConfig()
    t_start = time.perf_counter()
    x = initial if isinstance(initial, np.ndarray) else nlp.from_trajectory(initial)
    x = np.array(x, dtype=float)
    report_stages = []
    status = "converged"
    ahead = _SecondShift()
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
