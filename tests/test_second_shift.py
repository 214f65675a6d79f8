"""The shift ladder's second trial in a forked worker (newton._SecondShift):
the same bits as the local ladder, and no process left behind."""

import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest
import scipy.sparse

from pbfem import (DynamicProblem, FESpace, PenaltyBarrierParams, SolverConfig,
                   TranscribedNLP, initial_guess, newton, plans, solve, uniform_mesh)
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
    call of a pendulum-a solve that SuperLU refuses at that shift.  Only
    this helper's own patch is undone, not those of earlier fixtures."""
    def direction(system, g, floor, mu, ahead=None):
        if newton._trial(system, mu) is None:
            raise _Found(system, g, mu)
        return newton_direction(system, g, floor, mu, ahead)

    newton_direction = newton._newton_direction
    with monkeypatch.context() as patch:
        patch.setattr(newton, "_newton_direction", direction)
        nlp, start = pendulum_nlp(kind, n)
        with pytest.raises(_Found) as found:
            solve(nlp, start)
    return found.value.args


def ladder(system, g, mu, worker):
    """The ladder's direction and shift, and the shifts it tried here, with
    the second shift given to a worker or not."""
    tried = []
    local = system.solve
    system.solve = lambda shift: tried.append(shift) or local(shift)
    ahead = None
    if worker:
        ahead = newton._SecondShift()
        ahead.after(system, needed_second=True)
        assert ahead._drain()  # the worker is ready
    try:
        d, shift = newton._newton_direction(system, g, REGULARIZATION_FLOOR, mu, ahead)
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
    take = newton._SecondShift.take

    def take_and_forget(self, *args):
        taken.append(self._worker is not None)
        d = take(self, *args)
        self.paid = True
        return d

    monkeypatch.setattr(newton._SecondShift, "take", take_and_forget)
    return taken


def no_worker(monkeypatch):
    monkeypatch.setattr(newton, "_start_worker", lambda size: None)


def test_first_refusal_keeps_the_fixtures_patches(monkeypatch, always_paid):
    take = newton._SecondShift.take
    first_refusal(monkeypatch, "lgr", 3)
    assert newton._SecondShift.take is take and take.__name__ == "take_and_forget"
    assert newton._newton_direction.__name__ == "_newton_direction"


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
        ahead = newton._SecondShift()
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
        second = newton._next_shift(mu, REGULARIZATION_FLOOR, system.diag_scale)

        def first_only(shift):
            assert shift == mu, "the second shift is the worker's"
            return type(system).solve(system, shift)

        system.solve = first_only
        arrays, places, scalars, size = newton._shipment(system)
        assert set(scalars) == {"diag_scale", "dim", "refine", "plan"}
        assert "rhs" in [p[0] for p in places]
        ahead = newton._SecondShift()
        ahead.after(system, needed_second=True)
        assert ahead._drain()
        try:
            d, shift = newton._newton_direction(system, g, REGULARIZATION_FLOOR, mu, ahead)
        finally:
            ahead.close()
        assert shift == second
        assert same_bits(d, type(system).solve(system, second))

    def test_worker_orders_each_pattern_itself(self, monkeypatch):
        # the worker's first trial of a pattern orders it, and its later
        # trials factor in that order; each gives this process's bits
        system, g, mu = first_refusal(monkeypatch, "lgr", 3)
        second = newton._next_shift(mu, REGULARIZATION_FLOOR, system.diag_scale)
        system.orders.clear()
        ahead = newton._SecondShift()
        ahead.after(system, needed_second=True)
        assert ahead._drain()
        local = newton._trial

        def no_local_trial(system, shift):
            raise AssertionError("the direction did not come from the worker")

        try:
            for _ in range(3):
                ahead.paid = True  # however the last trial paid
                assert ahead.submit(system, second)
                here = system.solve(second)
                monkeypatch.setattr(newton, "_trial", no_local_trial)
                d = ahead.take(system, second)
                monkeypatch.setattr(newton, "_trial", local)
                assert same_bits(d, here)
        finally:
            ahead.close()
        assert len(system.orders) == 1


@needs_worker
def test_trials_stop_in_a_stage_where_they_do_not_pay(monkeypatch):
    system, g, mu = first_refusal(monkeypatch, "lgr", 3)
    ahead = newton._SecondShift()
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


def hand_plan(H):
    """A Gauss-Newton plan of the slots of the sparse matrix H, each slot
    summing one value, and H's values."""
    coo = H.tocoo()
    slots = plans._SlotSums.__new__(plans._SlotSums)
    slots.rows, slots.cols = coo.row.astype(np.int32), coo.col.astype(np.int32)
    slots.pos = slots.run = np.arange(coo.nnz)
    return plans._ShiftedPlan(slots, H.shape[0], None, None, None), coo.data


def shipped(system):
    """The buffer, places and scalars of ``system``'s shipment, written as
    _SecondShift.submit writes them."""
    arrays, places, scalars, size = newton._shipment(system)
    buf = bytearray(size)
    for a, (_, dtype, shape, at) in zip(arrays, places):
        np.ndarray(shape, dtype, buffer=buf, offset=at)[...] = a
    return buf, places, scalars


def test_regrown_plan_gets_no_stale_order():
    # a plan remade with more slots, whose system leaves out the same
    # slots (none) as the old plan's: the worker keeps an order per plan
    # number, so the new system is ordered afresh, not in the old
    # pattern's order and relabelled structure
    rng = np.random.default_rng(3)
    old = scipy.sparse.random(12, 12, density=0.2, random_state=rng, format="csc")
    old = old + scipy.sparse.diags(10.0 + rng.random(12))
    extra = scipy.sparse.random(12, 12, density=0.1, random_state=rng, format="csc")
    new = old + extra + extra.T
    rhs = rng.standard_normal(12)
    systems = [plan.system(values, None, 1.0, rhs) for plan, values in map(hand_plan, (old, new))]
    a, b = systems
    assert a.pattern(0.0) == b.pattern(0.0) and a.plan != b.plan
    assert len(b.data) > len(a.data)
    kept = {}
    for system in (a, a, b, b):
        d = newton._shipped_trial(*shipped(system), 0.0, kept)
        assert same_bits(d, system.solve(0.0))
    assert list(kept) == [a.plan, b.plan]
    # each plan's order was made at its first trial and kept, with the
    # relabelled structure its later trial made
    for system in systems:
        (order,) = kept[system.plan].values()
        assert order.indices is not None and len(order.indices) == len(system.indices)


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

    def test_no_shipment_carries_an_order(self, monkeypatch, always_paid):
        shipments = []
        shipment = newton._shipment

        def spied(system):
            arrays, places, scalars, size = shipment(system)
            shipments.append(([p[0] for p in places], set(scalars)))
            return arrays, places, scalars, size

        monkeypatch.setattr(newton, "_shipment", spied)
        solve(*pendulum_nlp("lgr", 3))
        assert always_paid and len(shipments) > len(always_paid)
        fields = (["data", "indices", "indptr", "diag", "rhs", "drop"],
                  {"diag_scale", "dim", "refine", "plan"})
        assert all(shipped == fields for shipped in shipments)

    def test_worker_killed_mid_solve(self, monkeypatch, always_paid):
        # the worker dies with the 10th trial sent to it in flight
        submit = newton._SecondShift.submit
        sent = []

        def submit_then_kill(self, *args):
            ok = submit(self, *args)
            sent.append(ok)
            if ok and sent.count(True) == 10:
                os.kill(self._worker[0].pid, signal.SIGKILL)
            return ok

        monkeypatch.setattr(newton._SecondShift, "submit", submit_then_kill)
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
        assert newton._start_worker(1024) is None
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
