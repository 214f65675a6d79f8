"""The shift ladder's second trial in a forked worker (solver._SecondShift):
the same bits as the local ladder, and no process left behind."""

import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest
import scipy.sparse

from pbfem import (DynamicProblem, FESpace, PenaltyBarrierParams, SolverConfig,
                   TranscribedNLP, initial_guess, solve, solver, uniform_mesh)
from pbfem.benchmarks import build
from pbfem.cli import RunConfig, solve_benchmark
from pbfem.collocation import CollocationScheme, transcribe_collocation
from pbfem.errors import EvaluationError
from pbfem.solver import REGULARIZATION_FLOOR

TWO_CPUS = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
needs_worker = pytest.mark.skipif(not TWO_CPUS, reason="the worker needs Linux and 2 CPUs")


def pendulum_nlp(kind, n):
    problem = build("pendulum-a").problem
    mesh = uniform_mesh(problem.t0, problem.tE, n)
    space = FESpace(mesh, 5 if kind in ("pbf", "lgr") else 1, problem.n_y, problem.n_z)
    if kind == "pbf":
        nlp = TranscribedNLP(problem, space)
    else:
        nlp = transcribe_collocation(problem, mesh, CollocationScheme(kind, 5))
    return nlp, initial_guess(problem, space)


class _Found(Exception):
    pass


def first_refusal(monkeypatch, kind, n):
    """The Newton system, gradient and first shift of the first direction
    call of a pendulum-a solve that SuperLU refuses at that shift."""
    def direction(system, g, floor, mu, ahead=None):
        if solver._trial(system, mu) is None:
            raise _Found(system, g, mu)
        return newton_direction(system, g, floor, mu, ahead)

    newton_direction = solver._newton_direction
    monkeypatch.setattr(solver, "_newton_direction", direction)
    nlp, start = pendulum_nlp(kind, n)
    with pytest.raises(_Found) as found:
        solve(nlp, start)
    monkeypatch.undo()
    return found.value.args


def ladder(system, g, mu, worker):
    """The ladder's direction and shift, and the shifts it tried here, with
    the second shift given to a worker or not."""
    tried = []
    local = system.solve
    system.solve = lambda shift: tried.append(shift) or local(shift)
    ahead = None
    if worker:
        ahead = solver._SecondShift()
        ahead.after(system, needed_second=True)
        assert ahead._drain()  # the worker is ready
    try:
        d, shift = solver._newton_direction(system, g, REGULARIZATION_FLOOR, mu, ahead)
    finally:
        del system.solve
        if ahead is not None:
            ahead.close()
    return d, shift, tried


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def always_paid(monkeypatch):
    """Every call that follows a second shift sends one, however the last
    trial paid, so that a small solve exercises the worker throughout;
    counts the trials the worker answered."""
    taken = []
    take = solver._SecondShift.take

    def take_and_forget(self, *args):
        taken.append(self._worker is not None)
        d = take(self, *args)
        self.paid = True
        return d

    monkeypatch.setattr(solver._SecondShift, "take", take_and_forget)
    return taken


def no_worker(monkeypatch):
    monkeypatch.setattr(solver, "_start_worker", lambda size: None)


@needs_worker
class TestSameBits:
    @pytest.mark.parametrize("kind, n", [("lgr", 3), ("pbf", 3)])
    def test_refused_first_shift(self, monkeypatch, kind, n):
        system, g, mu = first_refusal(monkeypatch, kind, n)
        d0, shift0, tried0 = ladder(system, g, mu, worker=False)
        d1, shift1, tried1 = ladder(system, g, mu, worker=True)
        assert len(tried0) == 2 and shift0 == tried0[1]
        assert same_bits(d0, d1) and shift1 == shift0
        assert tried1 == tried0[:1]

    def test_second_trial_not_a_descent_direction(self, monkeypatch):
        # the refused FE system less twice its Gershgorin bound times I is
        # negative definite: small shifts give ascent directions, until
        # the shift outweighs the matrix
        system, g, mu = first_refusal(monkeypatch, "pbf", 3)
        H = scipy.sparse.csc_matrix((system.data, system.indices, system.indptr))
        system.data[system.diag] -= 2.0 * abs(H).sum(axis=1).max()
        system.diag_scale = float(np.max(np.abs(system.data[system.diag])))
        d0, shift0, tried0 = ladder(system, g, mu, worker=False)
        d1, shift1, tried1 = ladder(system, g, mu, worker=True)
        assert len(tried0) > 2 and d0 is not None
        assert same_bits(d0, d1) and shift1 == shift0
        assert tried1 == tried0[:1] + tried0[2:]

    def test_saddle_system_round_trip(self):
        # the FE saddle form, with its multiplier rows and its refinement
        # pass, from a gradient in extended precision where np.longdouble
        # has it
        nlp, start = pendulum_nlp("pbf", 3)
        nlp.params = PenaltyBarrierParams(1e-6, 1e-6)
        g, system = nlp.newton_system(nlp.interior_push(nlp.from_trajectory(start), 1e-6))
        assert system.refine and len(system.rhs) > system.dim
        ahead = solver._SecondShift()
        ahead.after(system, needed_second=True)
        assert ahead._drain()
        try:
            assert ahead.submit(system, 1e-3)
            d = ahead.take(system, 1e-3)
        finally:
            ahead.close()
        assert same_bits(d, system.solve(1e-3))

    def test_system_with_replaced_solve_ships(self, monkeypatch):
        # a tracer replaces solve on the instance; only the system's
        # fields are shipped, its right-hand side among them
        system, g, mu = first_refusal(monkeypatch, "lgr", 3)
        second = solver._next_shift(mu, REGULARIZATION_FLOOR, system.diag_scale)

        def first_only(shift):
            assert shift == mu, "the second shift is the worker's"
            return type(system).solve(system, shift)

        system.solve = first_only
        arrays, places, scalars, size = solver._shipment(system)
        assert set(scalars) == {"diag_scale", "dim", "refine"}
        assert "rhs" in [p[0] for p in places]
        ahead = solver._SecondShift()
        ahead.after(system, needed_second=True)
        assert ahead._drain()
        try:
            d, shift = solver._newton_direction(system, g, REGULARIZATION_FLOOR, mu, ahead)
        finally:
            ahead.close()
        assert shift == second
        assert same_bits(d, type(system).solve(system, second))

    def test_column_orders_the_worker_does_not_hold(self, monkeypatch):
        # the worker holds no column orders of its own: it factors in the
        # order shipped with a trial, and orders the pattern itself when
        # none is shipped; either way its direction is the bits this
        # process gets from the order it holds
        system, g, mu = first_refusal(monkeypatch, "lgr", 3)
        second = solver._next_shift(mu, REGULARIZATION_FLOOR, system.diag_scale)
        system.orders.clear()
        ahead = solver._SecondShift()
        ahead.after(system, needed_second=True)
        assert ahead._drain()
        local = solver._trial

        def no_local_trial(system, shift):
            raise AssertionError("the direction did not come from the worker")

        try:
            shipped = []
            for _ in range(2):
                places = solver._shipment(system, second)[1]
                shipped.append("order" in [p[0] for p in places])
                assert ahead.submit(system, second)
                here = system.solve(second)
                assert system.orders  # ordered here, by then
                monkeypatch.setattr(solver, "_trial", no_local_trial)
                d = ahead.take(system, second)
                monkeypatch.setattr(solver, "_trial", local)
                assert same_bits(d, here) and same_bits(d, system.solve(second))
        finally:
            ahead.close()
        assert shipped == [False, True]


@needs_worker
def test_trials_stop_in_a_stage_where_they_do_not_pay(monkeypatch):
    system, g, mu = first_refusal(monkeypatch, "lgr", 3)
    ahead = solver._SecondShift()
    ahead.after(system, needed_second=True)
    assert ahead._drain()
    # the worker reports its trial as free: waiting for it did not pay
    receive = ahead._receive
    monkeypatch.setattr(ahead, "_receive", lambda: (*receive()[:2], 0.0))
    try:
        assert ahead.submit(system, 1.0)
        ahead.take(system, 1.0)
        assert not ahead.paid
        ahead.after(system, needed_second=True)
        assert not ahead.submit(system, 1.0)
        ahead.new_stage()
        ahead.after(system, needed_second=True)
        assert ahead.paid and ahead.submit(system, 1.0)
    finally:
        ahead.close()


def report_bits(report):
    return (report.F_h, report.r_feas, report.status, report.stages,
            report.trajectory.coeffs.tobytes())


@needs_worker
class TestSolve:
    @pytest.mark.parametrize("kind, n", [("lgr", 3), ("hs", 2)])
    def test_same_report_without_the_worker(self, monkeypatch, always_paid, kind, n):
        with_worker = solve(*pendulum_nlp(kind, n))
        assert always_paid and all(always_paid)
        no_worker(monkeypatch)
        assert report_bits(solve(*pendulum_nlp(kind, n))) == report_bits(with_worker)

    def test_worker_killed_mid_solve(self, monkeypatch, always_paid):
        # the worker dies with the 10th trial sent to it in flight
        submit = solver._SecondShift.submit
        sent = []

        def submit_then_kill(self, *args):
            ok = submit(self, *args)
            sent.append(ok)
            if ok and sent.count(True) == 10:
                os.kill(self._worker[0].pid, signal.SIGKILL)
            return ok

        monkeypatch.setattr(solver._SecondShift, "submit", submit_then_kill)
        killed = solve(*pendulum_nlp("lgr", 3))
        assert sent.count(True) == 10 and len(sent) > sent.index(True) + 20
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        no_worker(monkeypatch)
        assert report_bits(solve(*pendulum_nlp("lgr", 3))) == report_bits(killed)

    def test_no_worker_left_after_return_or_raise(self, monkeypatch, always_paid):
        solve(*pendulum_nlp("lgr", 3))
        assert always_paid and multiprocessing.active_children() == []

        nlp, start = pendulum_nlp("lgr", 3)
        merit = nlp.merit
        calls = []

        def failing_merit(x):
            calls.append(x)
            if len(calls) > 150:
                raise RuntimeError("merit failed")
            return merit(x)

        nlp.merit = failing_merit
        started = len(always_paid)
        with pytest.raises(RuntimeError, match="merit failed"):
            solve(nlp, start)
        assert len(always_paid) > started
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_non_finite_output(self):
        # TestNonFiniteOutput's problem: NaN objective from t = 0.6 on
        problem = DynamicProblem(
            n_y=1, n_z=1, n_c=1, n_b=1, t0=0.0, tE=1.0, point_times=(0.0,),
            f=lambda yd, y, z, t: z[0] ** 2 + np.where(t > 0.6, np.nan, 0.0),
            c=lambda yd, y, z, t: [yd[0] - z[0]], b=lambda y0: [y0[0]])
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 1)
        with pytest.raises(EvaluationError):
            solve(TranscribedNLP(problem, space), initial_guess(problem, space))
        assert multiprocessing.active_children() == []


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("a worker was forked")
    monkeypatch.setattr(os, "fork", fork)


class TestNoWorker:
    def test_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forbid_fork(monkeypatch)
        assert solver._start_worker(1024) is None
        report = solve(*pendulum_nlp("lgr", 3))
        no_worker(monkeypatch)
        assert report_bits(solve(*pendulum_nlp("lgr", 3))) == report_bits(report)

    def test_vanderpol_never_needs_the_second_shift(self, monkeypatch):
        forbid_fork(monkeypatch)
        config = RunConfig(problem="vanderpol", method="pbf", n_elements=50, p=5)
        assert solve_benchmark(config, build("vanderpol")).iterations == 312


def test_zero_matrix_costs_two_factorizations():
    # f = y: no curvature and no constraints, so the Newton matrix is zero
    # and its diagonal gives the shift no scale
    problem = DynamicProblem(
        n_y=1, n_z=0, n_c=0, n_b=0, t0=0.0, tE=1.0, point_times=(),
        f=lambda yd, y, z, t: y[0], c=lambda yd, y, z, t: [], b=lambda: [])
    space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 0)
    nlp = TranscribedNLP(problem, space, params=PenaltyBarrierParams(1e-2, 1e-2))
    g, system = nlp.newton_system(np.zeros(space.dimension))
    assert not system.data.any() and system.diag_scale == 1.0
    d, shift, tried = ladder(system, g, 0.0, worker=False)
    assert tried == [0.0, 1e-8] and shift == 1e-8
    assert float(g @ d) < 0.0
