"""Factorizations in a cached column order (newton._OrderedLU) give
the bits of ``splu``.

Each pattern of a plan is ordered by COLAMD once, at its first accepted
``splu``; every later matrix of that pattern is relabelled by that order
and factored without ordering.  Along every shift ladder of a solve, each
such factorization must pick ``splu``'s pivots, give its solution bits and
refuse exactly the matrices ``splu`` refuses.
"""

import numpy as np
import pytest
import scipy.sparse.linalg

from pbfem import FESpace, initial_guess, newton, plans, solve, solver, uniform_mesh
from pbfem.benchmarks import build
from pbfem.collocation import CollocationScheme, transcribe_collocation
from pbfem.transcription import TranscribedNLP

SPLU = scipy.sparse.linalg.splu


def small_solve(name, method, n):
    problem = build(name).problem
    mesh = uniform_mesh(problem.t0, problem.tE, n)
    space = FESpace(mesh, 5, problem.n_y, problem.n_z)
    if method == "pbf":
        nlp = TranscribedNLP(problem, space)
    else:
        nlp = transcribe_collocation(problem, mesh, CollocationScheme(method, 5))
    return nlp, initial_guess(problem, space)


def splu_direction(system, shift):
    """The direction as the factorization with its own COLAMD ordering
    gives it, or the error it refuses the matrix with."""
    K = system.matrix(shift)
    try:
        lu = SPLU(K)
    except RuntimeError as error:
        return None, str(error)
    z = lu.solve(system.rhs)
    if system.refine:
        z = z + lu.solve(system.rhs - K @ z)
    return lu, z[: system.dim]


@pytest.mark.parametrize("name, method, n, form, refused", [
    ("pendulum-a", "pbf", 3, "gauss-newton", True),
    ("vanderpol", "pbf", 4, "saddle", False),
    ("pendulum-a", "lgr", 3, "gauss-newton", True),  # refused at shift 0, again and again
])
def test_every_ladder_matrix_equals_splu(monkeypatch, name, method, n, form, refused):
    colamd, factored, calls = [], [], []

    def counted_splu(K, *args, **kwargs):
        colamd.append(K.shape)
        return SPLU(K, *args, **kwargs)

    def spied_factor(K, order=None):
        lu = factor(K, order)
        factored.append(lu)
        return lu

    def checked_solve(system, shift):
        pattern = (id(system.orders), system.pattern(shift))
        order = system.orders.get(pattern[1])
        calls.append((pattern, order is not None, system.refine))
        ref_lu, ref = splu_direction(system, shift)
        del factored[:]
        try:
            d = solve_(system, shift)
        except RuntimeError as error:
            assert ref_lu is None and str(error) == ref
            refusals.append(order is not None)
            raise
        assert ref_lu is not None
        assert d.dtype == ref.dtype and d.tobytes() == ref.tobytes()
        (lu,) = factored
        if order is not None:
            # no ordering of its own, and splu's pivots in the new labels
            assert np.array_equal(lu._lu.perm_c, np.arange(len(order.perm)))
            assert np.array_equal(lu._lu.perm_r[order.perm], ref_lu.perm_r)
        return d

    refusals = []
    factor, solve_ = newton._factor, newton._NewtonSystem.solve
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
    monkeypatch.setattr(newton, "_factor", spied_factor)
    monkeypatch.setattr(newton._NewtonSystem, "solve", checked_solve)
    solve(*small_solve(name, method, n), solver.SolverConfig(max_iters=30))

    # one COLAMD ordering per pattern, at the pattern's first matrix; every
    # later matrix is factored in its order
    seen = set()
    for pattern, ordered, _ in calls:
        assert ordered == (pattern in seen)
        seen.add(pattern)
    assert len(colamd) == len(seen) < len(calls) / 50
    assert any(ordered and refine == (form == "saddle") for _, ordered, refine in calls)
    assert (sum(refusals) > 5) == refused and all(refusals)


@pytest.mark.parametrize("shift", [0.0, 1e-6, -2.0])
def test_relabelled_matrix_keeps_each_column_in_storage_order(shift):
    # test_diagonal_shift_matches_sparse_addition's matrix, with every
    # diagonal slot in the plan: (1, 1) and (2, 2) hold zeros, dropped at
    # shift 0, and (0, 0) + shift is exactly zero for shift = -2
    H = scipy.sparse.csc_matrix(
        (np.array([2.0, 1.0, 1.0, 0.0]), np.array([0, 2, 0, 2]), np.array([0, 2, 2, 4])),
        shape=(3, 3),
    ).tocoo()
    slots = plans._SlotSums.__new__(plans._SlotSums)
    slots.rows, slots.cols = H.row.astype(np.int32), H.col.astype(np.int32)
    slots.pos = slots.run = np.arange(H.nnz)
    plan = plans._ShiftedPlan(slots, 3, None, None, None)
    system = plan.system(H.data, None, 1.0, np.array([1.0, 2.0, 3.0]))
    K = system.matrix(shift)
    for perm in ([2, 0, 1], [1, 2, 0], [0, 1, 2]):
        order = newton._ColumnOrder(np.array(perm, dtype=np.intc))
        R = system.matrix(shift, order)
        for j in range(3):
            col = slice(K.indptr[j], K.indptr[j + 1])
            new = slice(R.indptr[perm[j]], R.indptr[perm[j] + 1])
            assert np.array_equal(R.indices[new], order.perm[K.indices[col]])
            assert R.data[new].tobytes() == K.data[col].tobytes()
    # the second solve of the pattern is factored in the first one's order
    d = [None, None]
    for k in range(2):
        try:
            d[k] = system.solve(shift)
        except RuntimeError as error:
            d[k] = str(error)
    assert len(plan.orders) == (0 if isinstance(d[0], str) else 1)
    assert (d[0] == d[1]) if isinstance(d[0], str) else d[0].tobytes() == d[1].tobytes()
