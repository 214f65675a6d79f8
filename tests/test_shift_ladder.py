"""The Levenberg shift ladder (newton._newton_direction): the shifts it
tries, in order, each factored by the system's own ``solve`` in the solving
process, and the column orders those factorizations keep per plan."""

import os

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from pbfem import (DynamicProblem, FESpace, PenaltyBarrierParams, TranscribedNLP,
                   initial_guess, newton, plans, solve, uniform_mesh)
from pbfem.benchmarks import build
from pbfem.cli import RunConfig, solve_benchmark
from pbfem.collocation import CollocationScheme, transcribe_collocation
from pbfem.solver import REGULARIZATION_FLOOR


def pendulum_nlp(kind, n):
    problem = build("pendulum-a").problem
    mesh = uniform_mesh(problem.t0, problem.tE, n)
    space = FESpace(mesh, 5, problem.n_y, problem.n_z)
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
    this helper's own patch is undone."""
    def direction(system, g, floor, mu):
        if newton._trial(system, mu) is None:
            raise _Found(system, g, mu)
        return newton_direction(system, g, floor, mu)

    newton_direction = newton._newton_direction
    with monkeypatch.context() as patch:
        patch.setattr(newton, "_newton_direction", direction)
        nlp, start = pendulum_nlp(kind, n)
        with pytest.raises(_Found) as found:
            solve(nlp, start)
    return found.value.args


def ladder(system, g, mu):
    """The ladder's direction and shift, and the shifts it tried, as a
    tracer sees them: through ``solve`` replaced on the instance."""
    tried = []
    own = system.solve
    system.solve = lambda shift: tried.append(shift) or own(shift)
    try:
        d, shift = newton._newton_direction(system, g, REGULARIZATION_FLOOR, mu)
    finally:
        del system.solve
    return d, shift, tried


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind, n", [("lgr", 3), ("pbf", 3)])
def test_refused_first_shift(monkeypatch, kind, n):
    system, g, mu = first_refusal(monkeypatch, kind, n)
    second = newton._next_shift(mu, REGULARIZATION_FLOOR, system.diag_scale)
    d, shift, tried = ladder(system, g, mu)
    assert tried == [mu, second] and shift == second
    assert same_bits(d, system.solve(second))


def test_second_trial_not_a_descent_direction(monkeypatch):
    # the refused FE system less twice its Gershgorin bound times I is
    # negative definite: small shifts give ascent directions, until the
    # shift outweighs the matrix
    system, g, mu = first_refusal(monkeypatch, "pbf", 3)
    H = scipy.sparse.csc_matrix((system.data, system.indices, system.indptr))
    system.data[system.diag] -= 2.0 * abs(H).sum(axis=1).max()
    system.diag_scale = float(np.max(np.abs(system.data[system.diag])))
    d, shift, tried = ladder(system, g, mu)
    assert len(tried) > 2 and d is not None and shift == tried[-1]
    for previous, later in zip(tried, tried[1:]):
        assert later == newton._next_shift(previous, REGULARIZATION_FLOOR, system.diag_scale)
    assert same_bits(d, system.solve(shift))


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
    d, shift, tried = ladder(system, g, 0.0)
    assert tried == [0.0, 1e-8] and shift == 1e-8
    assert float(g @ d) < 0.0


def hand_plan(H):
    """A Gauss-Newton plan of the slots of the sparse matrix H, each slot
    summing one value, and H's values."""
    coo = H.tocoo()
    slots = plans._SlotSums.__new__(plans._SlotSums)
    slots.rows, slots.cols = coo.row.astype(np.int32), coo.col.astype(np.int32)
    slots.pos = slots.run = np.arange(coo.nnz)
    return plans._ShiftedPlan(slots, H.shape[0], None, None, None), coo.data


def test_regrown_plan_gets_no_stale_order(monkeypatch):
    # a plan remade with more slots, whose system leaves out the same
    # slots (none) as the old plan's: the orders are the plan's own, so the
    # new system is ordered afresh, not in the old pattern's order and
    # relabelled structure
    rng = np.random.default_rng(3)
    old = scipy.sparse.random(12, 12, density=0.2, random_state=rng, format="csc")
    old = old + scipy.sparse.diags(10.0 + rng.random(12))
    extra = scipy.sparse.random(12, 12, density=0.1, random_state=rng, format="csc")
    new = old + extra + extra.T
    rhs = rng.standard_normal(12)
    systems = [plan.system(values, None, 1.0, rhs) for plan, values in map(hand_plan, (old, new))]
    a, b = systems
    assert a.pattern(0.0) == b.pattern(0.0) and a.orders is not b.orders
    assert len(b.data) > len(a.data)
    ordered = []
    factor = newton._factor

    def spied_factor(K, order=None):
        ordered.append(order is not None)
        return factor(K, order)

    monkeypatch.setattr(newton, "_factor", spied_factor)
    for system in (a, a, b, b):
        K = system.matrix(0.0)
        assert same_bits(system.solve(0.0), scipy.sparse.linalg.splu(K).solve(rhs))
    assert ordered == [False, True, False, True]
    # each plan's order was made at its first solve and kept, with the
    # relabelled structure its second solve made
    for system in systems:
        (order,) = system.orders.values()
        assert order.indices is not None and len(order.indices) == len(system.indices)


def recorded_shifts(monkeypatch):
    """The first shift and the returned shift of every direction call the
    solves that follow make."""
    shifts = []
    direction = newton._newton_direction

    def spied(system, g, floor, mu):
        d, shift = direction(system, g, floor, mu)
        shifts.append((mu, shift))
        return d, shift

    monkeypatch.setattr(newton, "_newton_direction", spied)
    return shifts


def test_solve_never_forks(monkeypatch):
    def fork():
        raise AssertionError("the solve forked")

    monkeypatch.setattr(os, "fork", fork)
    shifts = recorded_shifts(monkeypatch)
    assert solve(*pendulum_nlp("lgr", 3)).success
    assert sum(shift != mu for mu, shift in shifts) > 10


def test_vanderpol_never_needs_the_second_shift(monkeypatch):
    shifts = recorded_shifts(monkeypatch)
    config = RunConfig(problem="vanderpol", method="pbf", n_elements=50, p=5)
    assert solve_benchmark(config, build("vanderpol")).iterations == 312
    assert shifts and all(shift == mu for mu, shift in shifts)
