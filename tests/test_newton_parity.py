"""Bit parity of the Newton build and the merit with their direct references.

The transcription tracks derivative supports, sums element Hessians only over
nonzero planes and places every value of the Newton matrix on slots fixed
per transcription and Newton form.  None of that may change a single bit:
the gradient and every matrix handed to SuperLU must equal the ones built
the direct way -- dense forward-mode derivatives (tests/dense_ad.py), one
``np.einsum`` over all planes, ``coo_matrix(...).tocsc()``, scipy's sparse
additions, ``H + shift * I`` and ``bmat``.  The merit, evaluated in one
pass, must equal the sum of its separately evaluated pieces.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import dense_ad
import reference_plans
from pbfem import ad, transcription
from pbfem.benchmarks import build
from pbfem.collocation import CollocationScheme, transcribe_collocation
from pbfem.errors import BarrierDomainError, EvaluationError
from pbfem.mesh import FESpace, uniform_mesh
from pbfem.solver import initial_guess
from pbfem.transcription import PenaltyBarrierParams, TranscribedNLP

CASES = [
    # FE at Q = 10: numpy contracts the element Hessian in one pass, so the
    # plane-by-plane kernel runs (True); LGR at Q = 5 takes numpy's pairwise
    # path, which the batched kernel runs on the nonzero planes (False);
    # Hermite-Simpson and trapezoidal (Q = 1) add linear linkage rows E
    ("vanderpol", "pbf", 4, True),
    ("pendulum-a", "pbf", 3, True),
    ("pendulum-a", "lgr", 3, False),
    ("pendulum-a", "lgr", 30, False),  # the benchmark mesh
    ("pendulum-a", "hs", 3, None),
    ("pendulum-a", "tr", 3, None),
]


def _make_nlp(problem, method, n, omega, p=5):
    mesh = uniform_mesh(problem.t0, problem.tE, n)
    params = PenaltyBarrierParams(omega, omega)
    if method == "pbf":
        return TranscribedNLP(problem, FESpace(mesh, p, problem.n_y, problem.n_z),
                              params=params)
    return transcribe_collocation(problem, mesh, CollocationScheme(method, p), params)


def _point(nlp, problem, n):
    space = FESpace(uniform_mesh(problem.t0, problem.tE, n), 5, problem.n_y, problem.n_z)
    x = nlp.from_trajectory(initial_guess(problem, space))
    x = x + 0.1 * np.random.default_rng(3).standard_normal(x.size)
    return nlp.interior_push(x, 0.3)


def _nlp_and_point(name, method, n, omega, problem=None, p=5):
    problem = problem or build(name).problem
    nlp = _make_nlp(problem, method, n, omega, p)
    return nlp, _point(nlp, problem, n)


def _dense_parts(nlp, x):
    """Values and dense first and second derivatives of f and c at every
    node, evaluated with dense Duals."""
    m, shape = nlp.m, (nlp.n_batch, nlp.n_quad)
    vals = nlp.arg_values(x)
    ydot, y, z = nlp._split(dense_ad.seed(vals, m, second_order=True))
    fout = nlp.problem.f(ydot, y, z, nlp.tq)
    cout = nlp.problem.c(ydot, y, z, nlp.tq) if nlp.problem.n_c else []

    def parts(v):
        if isinstance(v, dense_ad.DenseDual):
            return (np.broadcast_to(np.asarray(v.val, dtype=float), shape),
                    np.broadcast_to(np.asarray(v.grad, dtype=float), (m,) + shape),
                    np.broadcast_to(np.asarray(v.hess, dtype=float), (m, m) + shape))
        return (np.broadcast_to(np.asarray(v, dtype=float), shape),
                np.zeros((m,) + shape), np.zeros((m, m) + shape))

    _, _, fhess = parts(fout)
    cp = [parts(r) for r in cout]
    cval = np.stack([p[0] for p in cp]) if cp else np.zeros((0,) + shape)
    cgrad = np.stack([p[1] for p in cp]) if cp else np.zeros((0, m) + shape)
    chess = np.stack([p[2] for p in cp]) if cp else np.zeros((0, m, m) + shape)
    return vals, fhess, cval, cgrad, chess


def _reference_matrices(nlp, x, params):
    """The Newton matrix as a function of the shift, assembled directly as
    SuperLU receives it (splu sums duplicates and sorts indices in place
    before factoring)."""
    omega, tau = params.omega, params.tau
    x = np.asarray(x, dtype=transcription._work_dtype(params, nlp.extended))
    vals, fhess, cval, cgrad, chess = _dense_parts(nlp, x)
    saddle = omega < transcription._EXTENDED_OMEGA and nlp.extended
    w, A = nlp.w, nlp.A
    m, B, Q, L, dim = nlp.m, nlp.n_batch, nlp.n_quad, nlp.L, nlp.dimension
    M = w[None, None] * fhess
    if cval.size:
        if not saddle:
            M = M + np.einsum("rkbq,rjbq,bq->kjbq", cgrad, cgrad, w / omega, optimize=True)
        if saddle or omega <= transcription._CURVATURE_OMEGA:
            M = M + np.einsum("rbq,rkjbq,bq->kjbq", cval, chess, w / omega, optimize=True)
    Hloc = np.einsum("kbql,kjbq,jbqr->bkljr", A, M, A, optimize=True)
    nz, k0 = nlp.problem.n_z, 2 * nlp.problem.n_y
    for j in range(nz):
        z = np.asarray(vals[k0 + j], dtype=np.float64)
        Hloc[:, k0 + j, :, k0 + j, :] += np.einsum(
            "bq,bql,bqr->blr", tau * w / z**2, A[k0 + j], A[k0 + j])
    Gl = nlp.gidx.transpose(1, 0, 2).reshape(B, m * L)
    H = scipy.sparse.coo_matrix(
        (Hloc.reshape(B, m * L, m * L).ravel(),
         (np.repeat(Gl, m * L, axis=1).ravel(), np.tile(Gl, (1, m * L)).ravel())),
        shape=(dim, dim),
    ).tocsc()
    JP = None
    if nlp.problem.n_b and nlp.Pb is not None:
        _, bjac = nlp._boundary(x, 1)
        JP = scipy.sparse.csr_matrix(np.asarray(bjac, dtype=np.float64)) @ nlp.Pb
    if saddle:
        parts = [JP] if JP is not None else []
        if cval.size:
            nc = cval.shape[0]
            jq_vals = np.einsum("bq,rkbq,kbql->bqrkl", np.sqrt(w), cgrad, A,
                                optimize=True)
            rows = np.repeat(np.arange(B * Q * nc), m * L)
            gT = nlp.gidx.transpose(1, 0, 2)
            cols = np.broadcast_to(gT[:, None, None, :, :], (B, Q, nc, m, L)).ravel()
            parts.append(scipy.sparse.coo_matrix(
                (jq_vals.ravel(), (rows, cols)), shape=(B * Q * nc, dim)).tocsr())
        if nlp.E is not None:
            parts.append(nlp.E)
        J = scipy.sparse.vstack(parts, format="csr")

        def matrix(shift):
            return scipy.sparse.bmat(
                [[H + shift * scipy.sparse.identity(dim, format="csc"), J.T],
                 [J, -omega * scipy.sparse.identity(J.shape[0], format="csc")]],
                format="csc",
            )
    else:
        if JP is not None:
            H = H + (JP.T @ JP) / omega
        if nlp.E is not None:
            H = H + (nlp.E.T @ nlp.E) / omega

        def matrix(shift):
            return (H.tocsc() + shift * scipy.sparse.identity(dim, format="csc")).tocsc()

    def canonical(shift):
        K = matrix(shift)
        K.sum_duplicates()
        return K

    return canonical


def _handed_matrices(monkeypatch, nlp, x, shifts):
    """g and the matrices handed to SuperLU along a shift ladder, all from
    one Newton-system object."""
    handed = []
    splu = scipy.sparse.linalg.splu

    def spy(K, *args, **kwargs):
        handed.append(K.copy())
        return splu(K, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    g, system = nlp.newton_system(x)
    for shift in shifts:
        try:
            system.solve(g, shift)
        except RuntimeError:  # exactly singular: the matrix was still handed
            pass
    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    assert len(handed) == len(shifts)
    return g, handed


def _assert_reference(monkeypatch, nlp, x, g, handed, shifts):
    # the reference runs the same problem callables on dense Duals
    monkeypatch.setattr(ad, "Dual", dense_ad.DenseDual)
    monkeypatch.setattr(ad, "seed", dense_ad.seed)
    g_ref = nlp.merit_gradient(x)
    reference = _reference_matrices(nlp, x, nlp.params)
    assert g.dtype == g_ref.dtype and np.array_equal(g, g_ref)
    for K, shift in zip(handed, shifts):
        K_ref = reference(shift)
        assert np.array_equal(K.indptr, K_ref.indptr)
        assert np.array_equal(K.indices, K_ref.indices)
        assert np.array_equal(K.data, K_ref.data)


def _ladder(shift):
    # the shift escalation visits several shifts on one system object
    return (0.0, shift, 4.0 * shift)


@pytest.mark.parametrize("shift", [0.0, 1e-6])
@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("name,method,n,planewise", CASES)
def test_newton_build_is_bit_exact(monkeypatch, name, method, n, planewise, omega, shift):
    nlp, x = _nlp_and_point(name, method, n, omega)
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(shift))
    if planewise is not None:
        assert nlp._hessian_kernel == ("planewise" if planewise else "batched")
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(shift))


@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("method,p,kernel", [
    # FE at p = 1 (Q = 2) takes numpy's pairwise path, so the batched kernel
    # runs on FE too; LGR at p = 1 has one node per interval
    ("pbf", 1, "batched"), ("pbf", 3, "planewise"), ("lgr", 1, "batched"), ("lgr", 3, "batched"),
])
def test_newton_build_is_bit_exact_at_other_degrees(monkeypatch, method, p, kernel, omega):
    nlp, x = _nlp_and_point("pendulum-a", method, 4, omega, p=p)
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    assert nlp._hessian_kernel == kernel
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


def _oscillator(linear):
    """Van der Pol without its control input, so n_z = 0.  ``linear``
    leaves a linear objective and no residual rows: then no element-Hessian
    plane can be nonzero at all."""
    problem = dataclasses.replace(build("vanderpol").problem, n_z=0, metadata={})
    if linear:
        return dataclasses.replace(problem, n_c=0, f=lambda yd, y, z, t: y[1],
                                   c=lambda *args: [])
    return dataclasses.replace(
        problem, n_c=2,
        c=lambda yd, y, z, t: [yd[0] - y[1], yd[1] - (-y[0] + y[1] * (1.0 - y[0] ** 2))])


@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("method", ["pbf", "lgr"])
def test_newton_build_without_algebraic_components(monkeypatch, method, linear, omega):
    problem = _oscillator(linear)
    nlp, x = _nlp_and_point(None, method, 4, omega, problem=problem)
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    planes = [len(plan.hess.ks) for plan in nlp._plans.values()]
    assert (planes == [0]) if linear else all(planes)
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


@pytest.mark.parametrize("method,p", [("lgr", 5), ("lgr", 1), ("pbf", 1)])
def test_batched_kernel_equals_einsum_over_all_planes(method, p):
    # random curvature weights M spanning 16 orders of magnitude on random
    # plane subsets (the empty one included): the batched kernel's planes
    # equal those of numpy's contraction over all m * m planes
    nlp = _make_nlp(build("pendulum-a").problem, method, 30, 1e-3, p)
    assert nlp._hessian_kernel == "batched"
    m, shape = nlp.m, (nlp.n_batch, nlp.n_quad)
    rng = np.random.default_rng(2024)
    for trial in range(40):
        planes = rng.random((m, m)) < (0.0 if trial == 0 else rng.uniform(0.05, 1.0))
        ks, js = np.nonzero(planes)
        M = np.zeros((m, m) + shape)
        size = (len(ks),) + shape
        M[ks, js] = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
        ref = np.einsum(transcription._ELEMENT_HESSIANS, nlp.A, M, nlp.A, optimize=True)
        Hc = nlp._element_hessians(M[ks, js], ks, js)
        assert np.array_equal(Hc, ref.transpose(1, 3, 0, 2, 4)[ks, js])


def test_batched_kernel_that_differs_from_einsum_is_not_used(monkeypatch):
    # a batched kernel whose bits differ from np.einsum's, as on numpy
    # releases that run the pairwise path's second step without matmul, is
    # found at construction: the einsum itself runs, in its layout
    kernel = transcription.TranscribedNLP._element_hessians

    def one_ulp_off(nlp, M, ks, js):
        Hc = kernel(nlp, M, ks, js)
        return np.nextafter(Hc, np.inf) if nlp._hessian_kernel == "batched" else Hc

    monkeypatch.setattr(transcription.TranscribedNLP, "_element_hessians", one_ulp_off)
    nlp, x = _nlp_and_point("pendulum-a", "lgr", 3, 1e-3)
    assert nlp._hessian_kernel == "einsum" and not nlp._batch_major
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


def test_lgr_plan_holds_no_structural_zero():
    # the LGR basis of the z rows is a set of unit vectors, so most products
    # A[k, b, q, l] * A[j, b, q, r] vanish for every q: the Gauss-Newton
    # plan sums exactly the entries where some product does not
    nlp, x = _nlp_and_point("pendulum-a", "lgr", 30, 1e-3)
    nlp.newton_system(x)
    hess = nlp._plans[False].hess
    A, B, L = nlp.A, nlp.n_batch, nlp.L
    nonzero = np.einsum("kbql,jbqr->kjblr", (A != 0).astype(int), (A != 0).astype(int)) > 0
    on_planes = nonzero[hess.ks, hess.js]
    if nlp._batch_major:
        p, b, l, r = np.unravel_index(hess.pos, (len(hess.ks), B, L, L))
    else:
        p, l, r, b = np.unravel_index(hess.pos, (len(hess.ks), L, L, B))
    assert on_planes[p, b, l, r].all()
    assert len(hess.pos) == np.count_nonzero(on_planes) < on_planes.size


@pytest.mark.parametrize("method", ["pbf", "lgr"])
def test_non_finite_curvature_refuses_every_factorization(method):
    # a residual with an infinite second derivative at the point (y^1.5 at
    # y = 0): its exact curvature enters the Newton matrix, which must be
    # refused at every shift although the structural zeros it would turn
    # into NaN (0 * inf) hold no slot
    problem = build("pendulum-a").problem
    c = problem.c
    problem = dataclasses.replace(
        problem, c=lambda yd, y, z, t: [c(yd, y, z, t)[0] + y[0] ** 1.5, *c(yd, y, z, t)[1:]])
    nlp, x = _nlp_and_point(None, method, 3, 1e-6, problem=problem)
    x = np.array(x)
    x[nlp.gidx[problem.n_y]] = 0.0  # the coefficients of y[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.all(nlp.arg_values(x)[problem.n_y] == 0.0)
        g, system = nlp.newton_system(x)
        for shift in (0.0, 1e-6, 1e-2, 1.0):
            with pytest.raises(ValueError, match="non-finite Newton matrix"):
                system.solve(g, shift)


@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("drop", ["n_b", "n_c"])
def test_newton_build_without_boundary_or_residual_rows(monkeypatch, drop, omega):
    # no point constraints (no JP rows) or no DAE residuals (no Jq rows),
    # in the Gauss-Newton and the saddle form
    problem = build("vanderpol").problem
    if drop == "n_b":
        problem = dataclasses.replace(problem, n_b=0, point_times=())
    else:
        problem = dataclasses.replace(problem, n_c=0, c=lambda *args: [])
    nlp, x = _nlp_and_point(None, "pbf", 4, omega, problem=problem)
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


@pytest.mark.parametrize("name,method,n", [("pendulum-a", "pbf", 3), ("pendulum-a", "lgr", 3)])
def test_shared_nlp_matches_fresh_nlps(monkeypatch, name, method, n):
    # one transcription whose weights move through the continuation, as the
    # solver moves them: its plans serve every stage
    problem = build(name).problem
    nlp = _make_nlp(problem, method, n, 1e-3)
    x = _point(nlp, problem, n)
    for omega in (1e-3, 1e-4, 1e-5, 1e-6):
        nlp.params = PenaltyBarrierParams(omega, omega)
        g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
        fresh = _make_nlp(problem, method, n, omega)
        g_fresh, handed_fresh = _handed_matrices(monkeypatch, fresh, x, _ladder(1e-6))
        assert np.array_equal(g, g_fresh) and g.dtype == g_fresh.dtype
        phi, phi_fresh = nlp.merit(x), fresh.merit(x)
        assert phi == phi_fresh and phi.dtype == phi_fresh.dtype
        for K, K_fresh in zip(handed, handed_fresh):
            assert np.array_equal(K.indptr, K_fresh.indptr)
            assert np.array_equal(K.indices, K_fresh.indices)
            assert np.array_equal(K.data, K_fresh.data)
    # one plan per Newton form: Gauss-Newton, and saddle for FE only
    assert len(nlp._plans) == (2 if method == "pbf" else 1)


def _assert_plan_grows(monkeypatch, term):
    # a curvature term that is scaled by 0 at the first Newton system and
    # by 1 at the next: the plan made for the first must be remade to
    # cover it
    problem = build("vanderpol").problem
    f, scale = problem.f, [0.0]
    problem = dataclasses.replace(
        problem, f=lambda ydot, y, z, t: f(ydot, y, z, t) + term(scale[0], ydot, y))
    nlp, x = _nlp_and_point(None, "pbf", 4, 1e-3, problem=problem)
    nlp.newton_system(x)
    planes = nlp._plans[False].masks[0].copy()
    scale[0] = 1.0
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    assert (nlp._plans[False].masks[0] & ~planes).any()
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


def test_plan_grows_with_the_nonzero_planes(monkeypatch):
    # times 0.0 the term keeps its support, with zero Hessian values
    _assert_plan_grows(monkeypatch, lambda scale, ydot, y: scale * (ydot[0] * y[0]))


def test_plan_grows_with_the_objective_support(monkeypatch):
    # left out at first, the term widens the objective's tracked support
    _assert_plan_grows(monkeypatch,
                       lambda scale, ydot, y: scale * (ydot[0] * y[0]) if scale else 0.0)


@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("method", ["pbf", "lgr"])
def test_newton_build_with_a_point_time_inside_an_element(monkeypatch, method, omega):
    # the second point constraint of pendulum-a moved from t = 3 to t = 1.3,
    # inside the second of three elements: its boundary rows read that
    # element's interior coefficients
    problem = dataclasses.replace(build("pendulum-a").problem, point_times=(0.0, 1.3))
    nlp, x = _nlp_and_point(None, method, 3, omega, problem=problem)
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def _assert_plan_equals_reference(nlp, saddle):
    """Every integer array of the NLP's plan equals the one the
    whole-pattern builder makes for the same masks."""
    plan = nlp._plans[saddle]
    planes, pairs, jp_mask = plan.masks
    hess = reference_plans.hessian_sums(nlp.gidx, planes, transcription._reach(nlp.A),
                                        nlp.dimension, nlp._batch_major)
    b_dofs = nlp._b_dofs if jp_mask is not None else None
    assert _same(plan.hess.pos, hess.pos)
    if not saddle:
        ref = reference_plans.shifted_plan(hess, nlp.dimension, b_dofs, jp_mask, nlp.E)
        assert len(plan.pos_extra) == len(ref["pos_extra"])
        assert all(_same(a, b) for a, b in zip(plan.pos_extra, ref["pos_extra"]))
        assert _same(plan.run, ref["run"])
    else:
        jq = None
        if pairs is not None:
            jq = reference_plans.jacobian_sums(nlp.gidx, nlp.n_quad, pairs, nlp.dimension)
        ref = reference_plans.saddle_plan(hess, jq, nlp.dimension, b_dofs, jp_mask, nlp.E)
        # the Hessian entries' slots, then the Jq entries' slots below and
        # right of the Hessian block
        n_h = len(plan.run)
        assert _same(plan.run, ref["run"][:n_h])
        if jq is None:
            assert plan.jq is None and n_h == len(ref["run"])
        else:
            assert _same(plan.jq.pos, ref["jq_pos"])
            assert _same(plan.pos_jq[:, plan.jq.run].ravel(), ref["run"][n_h:])
        for name in ("pos_jp", "pos_e"):
            assert _same(getattr(plan, name).ravel(), ref[name])
        for name in ("pos_omega", "optional"):
            assert _same(getattr(plan, name), ref[name])
    for name in ("indices", "indptr", "diag"):
        assert _same(getattr(plan, name), ref[name])


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("name,method,n,planewise",
                         CASES + [("pendulum-a", "pbf", 40, True)])  # the benchmark FE mesh
def test_plans_equal_whole_pattern_reference(monkeypatch, name, method, n, planewise, omega,
                                             chunk):
    # chunk 64 cuts every pattern into many chunks, some a single column
    # holding more entries than a chunk
    if chunk is not None:
        monkeypatch.setattr(transcription, "_CHUNK_ENTRIES", chunk)
    nlp, x = _nlp_and_point(name, method, n, omega)
    nlp.newton_system(x)
    for saddle in nlp._plans:
        _assert_plan_equals_reference(nlp, saddle)


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("layout", ["shared", "sorted", "mixed"])
def test_slot_sums_equal_whole_pattern_reference(monkeypatch, layout, chunk):
    # random dof maps: "shared" has intervals share dofs and rows repeat
    # dofs out of order, as the ydot and y rows do.  In "sorted" and
    # "mixed" interval b holds dofs 4b to 4b + 3, each several times;
    # "sorted" has every interval's local dofs ascend, so scipy skips its
    # index sort, and "mixed" half of them, so that the columns of those
    # intervals are sorted, and std::sort, which scipy then runs on them
    # too, may reorder their repeated rows: both are converted in one chunk
    if chunk is not None:
        monkeypatch.setattr(transcription, "_CHUNK_ENTRIES", chunk)
    rng = np.random.default_rng(17)
    for _ in range(5):
        m, B, L, Q, nc = 3, 4, 3, 2, 2
        if layout == "shared":
            gidx = rng.integers(0, 12, (m, B, L))
        else:
            Gl = 4 * np.arange(B)[:, None] + rng.integers(0, 4, (B, m * L))
            Gl[: B if layout == "sorted" else B // 2].sort(axis=1)
            gidx = Gl.reshape(B, m, L).transpose(1, 0, 2)
        dim = int(gidx.max()) + 1
        planes = rng.random((m, m)) < 0.6
        reach = rng.random(B * (m * L) ** 2) < 0.8
        for batch_major in (False, True):
            new = transcription._hessian_sums(gidx, planes, reach, dim, batch_major)
            ref = reference_plans.hessian_sums(gidx, planes, reach, dim, batch_major)
            for name in ("pos", "run", "rows", "cols"):
                assert _same(getattr(new, name), getattr(ref, name))
        pairs = rng.random((nc, m)) < 0.6
        new = transcription._jacobian_sums(gidx, Q, pairs, dim)
        ref = reference_plans.jacobian_sums(gidx, Q, pairs, dim)
        for name in ("pos", "run", "rows", "cols"):
            assert _same(getattr(new, name), getattr(ref, name))
        parts = [(new.rows, new.cols), (ref.cols[::-1].copy(), ref.rows[::-1].copy())]
        n = max(dim, B * Q * nc)
        new_u, ref_u = transcription._union_pattern(n, parts), reference_plans.union_pattern(n, parts)
        assert _same(new_u[0], ref_u[0]) and _same(new_u[1], ref_u[1])
        assert all(_same(a, b) for a, b in zip(new_u[2], ref_u[2]))


# tracemalloc peaks of the whole-pattern plan builds (tests/reference_plans.py)
# inside a pendulum-a FE solve at 40 elements, measured on NumPy 2.4 and
# SciPy 1.17
_WHOLE_PATTERN_PEAK_MIB = {False: 9.0, True: 15.7}


@pytest.mark.parametrize("saddle", [False, True])
def test_plan_build_takes_half_the_memory_of_the_whole_pattern(saddle):
    nlp, x = _nlp_and_point("pendulum-a", "pbf", 40, 1e-6 if saddle else 1e-3)
    nlp.newton_system(x)
    masks = nlp._plans.pop(saddle).masks
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nlp._plan(saddle, masks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * _WHOLE_PATTERN_PEAK_MIB[saddle] * 2**20


@pytest.mark.parametrize("method,n", [("pbf", 40), ("lgr", 30)])
def test_exact_curvature_allocates_no_dense_residual_hessians(monkeypatch, method, n):
    # the exact-curvature weights were the one part of the Newton build
    # that stacked every residual's Hessian over all planes, an (n_c, m, m,
    # B, Q) array (and einsum copied it once more); forming them now peaks
    # well below the size of one such array, on the benchmark meshes
    nlp, x = _nlp_and_point("pendulum-a", method, n, 1e-6)
    assert nlp._curvature_batched
    curvature, peaks = nlp._residual_curvature, []

    def traced(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = curvature(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(nlp, "_residual_curvature", traced)
    tracemalloc.start()
    try:
        g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    finally:
        tracemalloc.stop()
    dense = 8 * nlp.problem.n_c * nlp.m ** 2 * nlp.n_batch * nlp.n_quad
    assert len(peaks) == 1 and peaks[0] < dense / 2
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


@pytest.mark.parametrize("method,n", [("pbf", 40), ("lgr", 30), ("pbf", 3), ("lgr", 1)])
def test_curvature_kernel_equals_einsum(method, n):
    # random residual Hessians and values spanning 16 orders of magnitude
    # on random plane subsets (the empty one included): the kernel's planes
    # equal those of numpy's contraction over all m * m planes
    nlp = _make_nlp(build("pendulum-a").problem, method, n, 1e-6)
    assert nlp._curvature_batched
    nc, m, shape = nlp.problem.n_c, nlp.m, (nlp.n_batch, nlp.n_quad)
    rng = np.random.default_rng(2025)

    def wide(*s):
        return rng.standard_normal(s) * 10.0 ** rng.uniform(-8.0, 8.0, s)

    for _ in range(5):
        c, H, scale = wide(nc, *shape), wide(nc, m, m, *shape), wide(*shape)
        full = np.einsum(transcription._RESIDUAL_CURVATURE, c, H, scale, optimize=True)
        for trial in range(10):
            planes = rng.random((m, m)) < (0.0 if trial == 0 else rng.uniform(0.01, 1.0))
            ks, js = np.nonzero(planes)
            term = transcription._curvature_matmul(H[:, ks, js], c) * scale
            assert np.array_equal(term, full[ks, js])


@pytest.mark.parametrize("method", ["pbf", "lgr"])
def test_curvature_kernel_that_differs_from_einsum_is_not_used(monkeypatch, method):
    # a kernel one ulp off numpy's einsum is found at construction: the
    # einsum itself then runs, and the Newton build stays bit for bit
    matmul = transcription._curvature_matmul
    monkeypatch.setattr(transcription, "_curvature_matmul",
                        lambda block, cval: np.nextafter(matmul(block, cval), np.inf))
    nlp, x = _nlp_and_point("pendulum-a", method, 3, 1e-6)
    assert not nlp._curvature_batched
    g, handed = _handed_matrices(monkeypatch, nlp, x, _ladder(1e-6))
    _assert_reference(monkeypatch, nlp, x, g, handed, _ladder(1e-6))


@pytest.mark.parametrize("omega,exact", [(1e-3, False), (1e-5, True), (1e-6, True)])
@pytest.mark.parametrize("method", ["pbf", "lgr"])
def test_residuals_carry_second_derivatives_only_for_exact_curvature(method, omega, exact):
    # Gauss-Newton stages need only the residuals' gradients
    problem = build("pendulum-a").problem
    c, second = problem.c, []

    def spy(ydot, y, z, t):
        second.append(all(v.h is not None for v in (*ydot, *y, *z)))
        return c(ydot, y, z, t)

    problem = dataclasses.replace(problem, c=spy)
    nlp, x = _nlp_and_point(None, method, 3, omega, problem=problem)
    second.clear()
    nlp.newton_system(x)
    assert second == [exact]


def _row_by_row(nlp, x):
    """The objective and the barrier as the direct loops form them: one
    ``np.dot`` per (component, interval) row, added in that order."""
    zvals = nlp.z_quad_values(x)
    if zvals.size and np.min(zvals) <= 0.0:
        raise BarrierDomainError(0, 0.0, float(np.min(zvals)))
    w = nlp._cast("w", nlp.w, x.dtype)
    gamma = x.dtype.type(0.0)
    for j in range(zvals.shape[0]):
        for b in range(nlp.n_batch):
            gamma -= np.dot(w[b], np.log(zvals[j, b]))
    fval = nlp._call_fc(x, 0)[1]

    def objective():
        nlp._check_finite(fval, "objective integrand")
        F = x.dtype.type(0.0)
        for b in range(nlp.n_batch):
            F += np.dot(w[b], fval[b])
        return F

    return objective, gamma


def _reference_merit(nlp, x, params):
    """The merit from its pieces, each evaluating the problem on its own,
    with the objective and the barrier summed row by row."""
    x = np.asarray(x, dtype=transcription._work_dtype(params, nlp.extended))
    objective, gamma = _row_by_row(nlp, x)
    C = nlp.constraint_vector(x)
    return objective() + (C @ C) / (2.0 * params.omega) + params.tau * gamma


@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("name,method,n", [("pendulum-a", "pbf", 3), ("vanderpol", "pbf", 4),
                                           ("pendulum-a", "lgr", 3)])
def test_merit_matches_two_pass_reference(name, method, n, omega):
    # FE below omega = 1e-4 evaluates the merit in extended precision
    nlp, x = _nlp_and_point(name, method, n, omega)
    rng = np.random.default_rng(5)
    for _ in range(3):
        y = x + 1e-3 * rng.standard_normal(x.size)
        phi, ref = nlp.merit(y), _reference_merit(nlp, y, nlp.params)
        assert phi.dtype == ref.dtype and phi == ref
    if method == "pbf" and omega < 1e-4 and transcription._HAVE_LONGDOUBLE:
        assert phi.dtype == np.longdouble


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("name,method,n", [("pendulum-a", "pbf", 12), ("vanderpol", "pbf", 12),
                                           ("pendulum-a", "lgr", 12), ("constant-f", "pbf", 12)])
def test_objective_and_barrier_sum_row_by_row(name, method, n, dtype):
    # one matmul for all rows, its values added in row order; at 12
    # intervals a pairwise sum of the rows would round differently.  A
    # constant integrand reaches the sum as a broadcast (stride 0) array.
    problem = None
    if name == "constant-f":
        problem = dataclasses.replace(build("pendulum-a").problem, f=lambda *args: 0.7)
    nlp, x = _nlp_and_point(name, method, n, 1e-3, problem=problem)
    rng = np.random.default_rng(7)
    for _ in range(3):
        y = np.asarray(x + 1e-3 * rng.standard_normal(x.size), dtype=dtype)
        objective, gamma = _row_by_row(nlp, y)
        F, F_ref = nlp.objective(y), objective()
        assert F.dtype == F_ref.dtype and F == F_ref
        G = nlp.barrier(y)
        assert G.dtype == gamma.dtype and G == gamma


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("layout", ["contiguous", "scalar", "per-row"])
def test_row_dots_equal_np_dot(dtype, layout):
    # each row's value is np.dot's, also where the rows are broadcast views
    rng = np.random.default_rng(11)
    w = rng.uniform(0.01, 1.0, (40, 10)).astype(dtype)
    base = {"contiguous": (3, 40, 10), "scalar": (), "per-row": (3, 40, 1)}[layout]
    v = np.broadcast_to(rng.standard_normal(base).astype(dtype), (3, 40, 10))
    ref = [np.dot(w[b], v[j, b]) for j in range(3) for b in range(40)]
    rows = transcription._row_dots(w, v)
    assert rows.dtype == dtype and np.array_equal(rows, ref)


@pytest.mark.parametrize("bad", ["f", "c", "both", "z_and_both"])
def test_merit_raises_in_the_reference_order(bad):
    # barrier domain first, then the DAE residual, then the objective
    problem = build("pendulum-a").problem
    f, c = problem.f, problem.c
    poison_f = bad in ("f", "both", "z_and_both")
    poison_c = bad in ("c", "both", "z_and_both")
    problem = dataclasses.replace(
        problem,
        f=lambda *a: f(*a) * np.nan if poison_f else f(*a),
        c=lambda *a: [r * np.nan for r in c(*a)] if poison_c else c(*a),
    )
    nlp, x = _nlp_and_point(None, "pbf", 3, 1e-6, problem=problem)
    if bad == "z_and_both":
        x = np.array(x)
        x[nlp.z_dof_indices] = -1.0
    errors = []
    for merit in (nlp.merit, lambda y: _reference_merit(nlp, y, nlp.params)):
        with pytest.raises((BarrierDomainError, EvaluationError)) as info:
            merit(x)
        errors.append(info.value)
    expected = {"f": "objective integrand", "c": "DAE residual", "both": "DAE residual"}
    if bad == "z_and_both":
        assert all(isinstance(e, BarrierDomainError) for e in errors)
    else:
        assert all(isinstance(e, EvaluationError) and expected[bad] in str(e)
                   for e in errors)


@pytest.mark.parametrize("shift", [0.0, 1e-6, -2.0])
def test_diagonal_shift_matches_sparse_addition(shift):
    # column 1 stores no diagonal entry, (2, 2) stores an explicit zero, and
    # (0, 0) + shift is exactly zero for shift = -2
    H = scipy.sparse.csc_matrix(
        (np.array([2.0, 1.0, 1.0, 0.0]), np.array([0, 2, 0, 2]), np.array([0, 2, 2, 4])),
        shape=(3, 3),
    )
    coo = H.tocoo()
    # H's slots, each summing one entry of the value array handed in
    slots = transcription._SlotSums.__new__(transcription._SlotSums)
    slots.rows, slots.cols = coo.row.astype(np.int32), coo.col.astype(np.int32)
    slots.pos = slots.run = np.arange(coo.nnz)
    plan = transcription._ShiftedPlan(slots, 3, None, None, None)
    K = plan.system(coo.data, None, 1.0).matrix(shift)
    ref = (H + shift * scipy.sparse.identity(3, format="csc")).tocsc()
    ref.sum_duplicates()
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.array_equal(K.data, ref.data)
