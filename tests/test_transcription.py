import numpy as np
import pytest

from pbfem import (
    BarrierDomainError,
    DynamicProblem,
    FESpace,
    InputError,
    PenaltyBarrierParams,
    TranscribedNLP,
    gauss_legendre,
    uniform_mesh,
)
from pbfem import ad
from pbfem.benchmarks import build


def fd_gradient(func, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h * (1.0 + abs(x[i]))
        g[i] = (func(x + e) - func(x - e)) / (2.0 * e[i])
    return g


def simple_problem():
    """f = z^2, c = ydot - z, b = y(0); unique optimum pushes z to 0+."""
    return DynamicProblem(
        n_y=1, n_z=1, n_c=1, n_b=1, t0=0.0, tE=1.0, point_times=(0.0,),
        f=lambda yd, y, z, t: z[0] ** 2,
        c=lambda yd, y, z, t: [yd[0] - z[0]],
        b=lambda y0: [y0[0]],
    )


def interior_coeffs(nlp, space, seed=0):
    rng = np.random.default_rng(seed)
    x = 0.3 * rng.standard_normal(space.dimension)
    x[space.z_dof_indices] = rng.uniform(0.5, 2.0, len(space.z_dof_indices))
    return nlp.interior_push(x, 0.3)


class TestParams:
    def test_valid(self):
        p = PenaltyBarrierParams(0.5, 0.5)
        assert p.omega == p.tau == 0.5

    def test_omega_range(self):
        with pytest.raises(InputError):
            PenaltyBarrierParams(0.6, 0.1)
        with pytest.raises(InputError):
            PenaltyBarrierParams(0.0, 0.0)

    def test_tau_range(self):
        with pytest.raises(InputError):
            PenaltyBarrierParams(1e-3, 1e-2)
        with pytest.raises(InputError):
            PenaltyBarrierParams(1e-3, 0.0)


class TestAssembly:
    def test_feasible_constraint_vector_small(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 3, 1, 1)
        nlp = TranscribedNLP(prob, space)
        traj = space.interpolate([lambda t: 2.0 * t, lambda t: np.full_like(t, 2.0)])
        C = nlp.constraint_vector(traj.coeffs)
        assert np.linalg.norm(C) <= 1e-10

    def test_merit_identity(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 4), 2, 1, 1)
        params = PenaltyBarrierParams(1e-2, 1e-3)
        nlp = TranscribedNLP(prob, space, params=params)
        x = interior_coeffs(nlp, space)
        F = nlp.objective(x)
        C = nlp.constraint_vector(x)
        G = nlp.barrier(x)
        phi = nlp.merit(x)
        assert np.isclose(phi, F + (C @ C) / (2 * params.omega) + params.tau * G,
                          rtol=1e-14)

    def test_merit_approaches_objective(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 3, 1, 1)
        traj = space.interpolate([lambda t: 2.0 * t, lambda t: np.full_like(t, 2.0)])
        vals = []
        for eps in (1e-4, 1e-6, 1e-8):
            nlp = TranscribedNLP(prob, space, params=PenaltyBarrierParams(eps, eps))
            vals.append(nlp.merit(traj.coeffs))
        F = nlp.objective(traj.coeffs)
        assert abs(vals[-1] - F) < 1e-6
        assert abs(vals[-1] - F) < abs(vals[0] - F)

    def test_barrier_log_integral(self):
        prob = DynamicProblem(
            n_y=0, n_z=1, n_c=0, n_b=0, t0=0.0, tE=1.0, point_times=(),
            f=lambda yd, y, z, t: 0.0, c=lambda yd, y, z, t: [],
            b=lambda: [],
        )
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 2, 0, 1)
        nlp = TranscribedNLP(prob, space)
        traj = space.interpolate([lambda t: t + 1.0])
        gamma = nlp.barrier(traj.coeffs)
        assert abs(gamma - (-(2.0 * np.log(2.0) - 1.0))) < 1e-8

    def test_objective_quadrature_exact(self):
        # f polynomial of degree 4p-1 in t through y = t: the 2p-point rule
        # integrates it exactly
        p = 2
        prob = DynamicProblem(
            n_y=1, n_z=0, n_c=0, n_b=0, t0=0.0, tE=1.0, point_times=(),
            f=lambda yd, y, z, t: y[0] ** (4 * p - 1),
            c=lambda yd, y, z, t: [], b=lambda: [],
        )
        space = FESpace(uniform_mesh(0.0, 1.0, 3), p, 1, 0)
        nlp = TranscribedNLP(prob, space)
        traj = space.interpolate([lambda t: t])
        F = nlp.objective(traj.coeffs)
        assert abs(F - 1.0 / (4 * p)) < 1e-13

    def test_barrier_domain_error(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        nlp = TranscribedNLP(prob, space)
        x = np.zeros(space.dimension)
        x[space.z_dof_indices] = -1.0
        with pytest.raises(BarrierDomainError) as err:
            nlp.barrier(x)
        assert err.value.value < 0.0

    def test_space_mismatch(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 2, 1)
        with pytest.raises(InputError):
            TranscribedNLP(prob, space)


class TestGradients:
    def test_quadratic_problem_exact(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        params = PenaltyBarrierParams(0.1, 0.01)
        nlp = TranscribedNLP(prob, space, params=params)
        x = interior_coeffs(nlp, space, seed=3)
        g = nlp.merit_gradient(x)
        gfd = fd_gradient(nlp.merit, x, h=1e-7)
        assert np.max(np.abs(g - gfd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    @pytest.mark.parametrize("name", ["vanderpol", "regulator", "alychan",
                                      "pendulum-a", "pendulum-b", "pendulum-c"])
    def test_benchmark_gradients_vs_fd(self, name):
        prob = build(name).problem
        space = FESpace(uniform_mesh(prob.t0, prob.tE, 5), 2, prob.n_y, prob.n_z)
        nlp = TranscribedNLP(prob, space, params=PenaltyBarrierParams(1e-2, 1e-2))
        x = interior_coeffs(nlp, space, seed=11)
        g = nlp.merit_gradient(x)
        gfd = fd_gradient(nlp.merit, x)
        assert np.max(np.abs(g - gfd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))

    def test_newton_system_descent(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 1)
        nlp = TranscribedNLP(prob, space, params=PenaltyBarrierParams(1e-2, 1e-2))
        x = interior_coeffs(nlp, space, seed=7)
        g, H = nlp.newton_system(x)
        d = H.solve(1e-8 * H.diag_scale)
        assert float(g @ d) < 0.0


class TestInteriorOps:
    def test_push_examples(self):
        prob = DynamicProblem(
            n_y=0, n_z=3, n_c=0, n_b=0, t0=0.0, tE=1.0, point_times=(),
            f=lambda yd, y, z, t: 0.0, c=lambda yd, y, z, t: [], b=lambda: [],
        )
        space = FESpace(uniform_mesh(0.0, 1.0, 1), 1, 0, 3)
        nlp = TranscribedNLP(prob, space)
        x = np.zeros(space.dimension)
        for j, v in enumerate((-1.0, 0.5, 2.0)):
            x[space.z_dofs[j, 0]] = v
        out = nlp.interior_push(x, 1.0)
        assert np.allclose(np.sort(np.unique(out)), [1.0, 2.0])
        assert np.array_equal(nlp.interior_push(out, 0.5), out)
        with pytest.raises(InputError):
            nlp.interior_push(x, 0.0)

    def test_margin_is_minimal(self):
        prob = simple_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 4), 2, 1, 1)
        nlp = TranscribedNLP(prob, space)
        x = np.ones(space.dimension)
        # one interval dips slightly negative
        x[space.z_dofs[0, 2]] = [-2.0, 1.0, 1.0]
        out = nlp.interior_margin(x, 1e-3)
        assert np.min(nlp.z_quad_values(out)) >= 1e-3 - 1e-12
        # untouched intervals keep their coefficients exactly
        assert np.array_equal(out[space.z_dofs[0, 0]], x[space.z_dofs[0, 0]])


class TestMonotonicityHook:
    def test_residual_law_on_fixed_mesh(self):
        from pbfem import SolverConfig, initial_guess, solve

        prob = build("vanderpol").problem
        space = FESpace(uniform_mesh(prob.t0, prob.tE, 20), 3, prob.n_y, prob.n_z)

        nlp = TranscribedNLP(prob, space)
        guess = initial_guess(prob, space)
        rs = []
        omegas = [1e-2, 1e-4, 1e-6, 1e-8]
        for omega in omegas:
            rep = solve(nlp, guess, SolverConfig(omega_target=omega, tau_target=omega))
            assert rep.success
            rs.append(rep.r_feas)
        assert all(rs[i + 1] <= rs[i] * (1.0 + 1e-9) for i in range(len(rs) - 1))
        slope = np.polyfit(np.log(omegas), np.log(rs), 1)[0]
        assert slope >= 0.8
