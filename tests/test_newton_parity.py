"""Bit parity of the Newton build with its dense, per-iteration reference.

The engine tracks derivative supports, sums element Hessians only over
nonzero planes and fills sparse matrices from conversion plans fixed per
transcription.  None of that may change a single bit: the gradient and
the matrix handed to SuperLU must equal the ones built the direct way --
dense forward-mode derivatives (tests/dense_ad.py), one ``np.einsum`` over
all planes, ``coo_matrix(...).tocsc()``, ``H + shift * I`` and ``bmat``.
"""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import dense_ad
from pbfem import ad, transcription
from pbfem.benchmarks import build
from pbfem.collocation import CollocationScheme, transcribe_collocation
from pbfem.mesh import FESpace, uniform_mesh
from pbfem.solver import initial_guess
from pbfem.transcription import PenaltyBarrierParams, TranscribedNLP

CASES = [
    # FE at Q = 10: numpy contracts the element Hessian in one pass, so the
    # plane-by-plane kernel runs; LGR at Q = 5 keeps numpy's pairwise path;
    # Hermite-Simpson adds linear linkage rows to the Hessian
    ("vanderpol", "pbf", 4, True),
    ("pendulum-a", "pbf", 3, True),
    ("pendulum-a", "lgr", 3, False),
    ("pendulum-a", "hs", 3, None),
]


def _nlp_and_point(name, method, n, omega):
    problem = build(name).problem
    mesh = uniform_mesh(problem.t0, problem.tE, n)
    space = FESpace(mesh, 5, problem.n_y, problem.n_z)
    params = PenaltyBarrierParams(omega, omega)
    if method == "pbf":
        nlp = TranscribedNLP(problem, space, params=params)
    else:
        nlp = transcribe_collocation(problem, mesh, CollocationScheme(method, 5), params)
    strategy = "linear-boundary" if "boundary_end" in problem.metadata else "constant"
    x = nlp.from_trajectory(initial_guess(problem, space, strategy))
    x = x + 0.1 * np.random.default_rng(3).standard_normal(x.size)
    return nlp, nlp.interior_push(x, 0.3)


def _reference_matrix(engine, x, params, shift):
    """The Newton matrix assembled directly, as SuperLU receives it (splu
    sums duplicates and sorts indices in place before factoring)."""
    omega, tau = params.omega, params.tau
    x = np.asarray(x, dtype=transcription._work_dtype(params, engine.extended))
    vals, _, _, fhess, cval, cgrad, chess = engine._call_fc(x, 2)
    saddle = omega < transcription._EXTENDED_OMEGA and engine.extended
    w, A = engine.w, engine.A
    m, B, Q, L, dim = engine.m, engine.n_batch, engine.n_quad, engine.L, engine.dim
    M = w[None, None] * np.asarray(fhess, dtype=np.float64)
    cgrad64 = np.asarray(cgrad, dtype=np.float64)
    if cval.size:
        if not saddle:
            M = M + np.einsum("rkbq,rjbq,bq->kjbq", cgrad64, cgrad64, w / omega,
                              optimize=True)
        if saddle or omega <= transcription._CURVATURE_OMEGA:
            M = M + np.einsum("rbq,rkjbq,bq->kjbq", np.asarray(cval, dtype=np.float64),
                              np.asarray(chess, dtype=np.float64), w / omega,
                              optimize=True)
    Hloc = np.einsum("kbql,kjbq,jbqr->bkljr", A, M, A, optimize=True)
    nz, k0 = engine.problem.n_z, 2 * engine.problem.n_y
    for j in range(nz):
        z = np.asarray(vals[k0 + j], dtype=np.float64)
        Hloc[:, k0 + j, :, k0 + j, :] += np.einsum(
            "bq,bql,bqr->blr", tau * w / z**2, A[k0 + j], A[k0 + j])
    Gl = engine.gidx.transpose(1, 0, 2).reshape(B, m * L)
    H = scipy.sparse.coo_matrix(
        (Hloc.reshape(B, m * L, m * L).ravel(),
         (np.repeat(Gl, m * L, axis=1).ravel(), np.tile(Gl, (1, m * L)).ravel())),
        shape=(dim, dim),
    ).tocsc()
    JP = None
    if engine.problem.n_b and engine.Pb is not None:
        _, bjac = engine._boundary(x, 1)
        JP = scipy.sparse.csr_matrix(np.asarray(bjac, dtype=np.float64)) @ engine.Pb
    if saddle:
        parts = [JP] if JP is not None else []
        if cval.size:
            nc = cval.shape[0]
            jq_vals = np.einsum("bq,rkbq,kbql->bqrkl", np.sqrt(w), cgrad64, A,
                                optimize=True)
            rows = np.repeat(np.arange(B * Q * nc), m * L)
            gT = engine.gidx.transpose(1, 0, 2)
            cols = np.broadcast_to(gT[:, None, None, :, :], (B, Q, nc, m, L)).ravel()
            parts.append(scipy.sparse.coo_matrix(
                (jq_vals.ravel(), (rows, cols)), shape=(B * Q * nc, dim)).tocsr())
        if engine.E is not None:
            parts.append(engine.E)
        J = scipy.sparse.vstack(parts, format="csr")
        K = scipy.sparse.bmat(
            [[H + shift * scipy.sparse.identity(dim, format="csc"), J.T],
             [J, -omega * scipy.sparse.identity(J.shape[0], format="csc")]],
            format="csc",
        )
    else:
        if JP is not None:
            H = H + (JP.T @ JP) / omega
        if engine.E is not None:
            H = H + (engine.E.T @ engine.E) / omega
        K = (H.tocsc() + shift * scipy.sparse.identity(dim, format="csc")).tocsc()
    K.sum_duplicates()
    return K


@pytest.mark.parametrize("shift", [0.0, 1e-6])
@pytest.mark.parametrize("omega", [1e-3, 1e-6])
@pytest.mark.parametrize("name,method,n,planewise", CASES)
def test_newton_build_is_bit_exact(monkeypatch, name, method, n, planewise, omega, shift):
    nlp, x = _nlp_and_point(name, method, n, omega)
    handed = []
    splu = scipy.sparse.linalg.splu

    def spy(K, *args, **kwargs):
        lu = splu(K, *args, **kwargs)
        handed.append(K)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    g, system = nlp.newton_system(x)
    system.solve(g, shift)
    (K,) = handed
    if planewise is not None:
        assert nlp.engine._planewise is planewise

    # the reference runs the same problem callables on dense Duals
    monkeypatch.setattr(ad, "Dual", dense_ad.DenseDual)
    monkeypatch.setattr(ad, "seed", dense_ad.seed)
    g_ref = nlp.merit_gradient(x)
    K_ref = _reference_matrix(nlp.engine, x, nlp.params, shift)
    assert g.dtype == g_ref.dtype and np.array_equal(g, g_ref)
    assert np.array_equal(K.indptr, K_ref.indptr)
    assert np.array_equal(K.indices, K_ref.indices)
    assert np.array_equal(K.data, K_ref.data)


@pytest.mark.parametrize("shift", [0.0, 1e-6, -2.0])
def test_diagonal_shift_matches_sparse_addition(shift):
    # column 1 stores no diagonal entry, (2, 2) stores an explicit zero, and
    # (0, 0) + shift is exactly zero for shift = -2
    H = scipy.sparse.csc_matrix(
        (np.array([2.0, 1.0, 1.0, 0.0]), np.array([0, 2, 0, 2]), np.array([0, 2, 2, 4])),
        shape=(3, 3),
    )
    data, indices, indptr = transcription._shifted(
        H, transcription._diagonal_slots(H), shift)
    ref = (H + shift * scipy.sparse.identity(3, format="csc")).tocsc()
    ref.sum_duplicates()
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert np.array_equal(data, ref.data)
