import json

import numpy as np
import pytest

from pbfem import (
    FESpace,
    InputError,
    Mesh,
    Trajectory,
    best_approximation,
    evaluate,
    gauss_legendre,
    nested_step,
    norm_equivalence_bound_check,
    uniform_mesh,
)
from pbfem.polynomials import legendre_eval


class TestMesh:
    def test_uniform_examples(self):
        mesh = uniform_mesh(0.0, 4.0, 4)
        assert mesh.intervals == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
        assert mesh.h == 1.0 and mesh.sigma == 1.0
        assert np.isclose(uniform_mesh(0.0, 1.0, 100).h, 0.01)

    def test_invalid(self):
        with pytest.raises(InputError):
            uniform_mesh(0.0, 1.0, 0)
        with pytest.raises(InputError):
            uniform_mesh(1.0, 0.0, 3)
        with pytest.raises(InputError):
            Mesh([0.0, 0.0, 1.0])

    def test_from_intervals_disjoint_cover(self):
        mesh = Mesh.from_intervals([(0.5, 1.0), (0.0, 0.5)])
        assert mesh.n_intervals == 2
        with pytest.raises(InputError):
            Mesh.from_intervals([(0.0, 0.4), (0.6, 1.0)])

    def test_from_no_intervals(self):
        with pytest.raises(InputError):
            Mesh.from_intervals([])

    def test_interval_index_left_convention(self):
        mesh = uniform_mesh(0.0, 1.0, 4)
        assert mesh.interval_index(0.25) == 0
        assert mesh.interval_index(0.0) == 0
        assert mesh.interval_index(1.0) == 3


class TestLegendre:
    def test_value_at_one(self):
        for j in range(13):
            assert np.isclose(legendre_eval(j, 1.0), 1.0)
        assert np.isclose(legendre_eval(0, 0.37), 1.0)

    def test_orthogonality(self):
        rule = gauss_legendre(14)
        for j in range(13):
            for k in range(13):
                val = float(rule.weights @ (legendre_eval(j, rule.nodes)
                                            * legendre_eval(k, rule.nodes)))
                expect = 2.0 / (2 * j + 1) if j == k else 0.0
                assert abs(val - expect) < 1e-12


class TestTrajectory:
    def test_linear_evaluation(self):
        space = FESpace(uniform_mesh(0.0, 1.0, 1), 1, 1, 0)
        traj = space.interpolate([lambda t: 2.0 * t])
        assert np.isclose(traj.component(0, 0.5)[0], 1.0)
        assert np.isclose(traj.component(0, 0.5, 1)[0], 2.0)
        vals = evaluate(traj, 0.5)
        assert vals.shape == (1,)

    def test_constant_derivative_zero(self):
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 1)
        traj = space.interpolate([lambda t: np.full_like(t, 3.0)] * 2)
        assert np.allclose(evaluate(traj, np.linspace(0, 1, 11), 1), 0.0)

    def test_degree_reproduction(self):
        space = FESpace(uniform_mesh(0.0, 1.0, 1), 5, 1, 0)
        traj = space.interpolate([lambda t: t**5])
        ts = np.linspace(0.0, 1.0, 33)
        assert np.allclose(traj.component(0, ts), ts**5, atol=1e-14)

    def test_continuity_is_structural(self):
        space = FESpace(uniform_mesh(0.0, 1.0, 4), 3, 2, 1)
        for j in range(2):
            for b in range(1, 4):
                assert space.y_dofs[j, b, 0] == space.y_dofs[j, b - 1, 3]

    def test_json_roundtrip(self):
        space = FESpace(uniform_mesh(0.0, 2.0, 3), 2, 1, 2, z_continuous=True)
        rng = np.random.default_rng(5)
        traj = Trajectory(space, rng.standard_normal(space.dimension))
        back = Trajectory.from_json(traj.to_json())
        assert np.array_equal(back.coeffs, traj.coeffs)
        assert back.space.mesh == space.mesh

    def test_wrong_length_rejected(self):
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 0)
        with pytest.raises(InputError):
            Trajectory(space, np.zeros(space.dimension + 1))


class TestBestApproximation:
    def test_idempotent_on_members(self):
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 3, 1, 1)
        target = [lambda t: t**3 - t, lambda t: np.cos(t)]
        member = space.interpolate([target[0], lambda t: t**2])
        proj = best_approximation(space, [lambda t: member.component(0, t),
                                          lambda t: member.component(1, t)])
        ts = np.linspace(0, 1, 40)
        assert np.allclose(proj.component(0, ts), member.component(0, ts), atol=1e-11)
        assert np.allclose(proj.component(1, ts), member.component(1, ts), atol=1e-11)

    def test_nested_step_representable(self):
        k = 4
        n = int(2.0 / 2.0**-k)
        space = FESpace(uniform_mesh(-1.0, 1.0, n), 0, 0, 1)
        proj = best_approximation(space, [lambda t: nested_step(t, k)])
        ts = np.linspace(-0.999, 0.999, 2001)
        keep = np.min(np.abs(ts[:, None] - space.mesh.nodes[None, :]), axis=1) > 1e-3
        assert np.allclose(proj.component(0, ts[keep]), nested_step(ts[keep], k),
                           atol=1e-10)


class TestNormEquivalence:
    def test_constant(self):
        sup, l2, ok = norm_equivalence_bound_check([1.0], (0.0, 1.0), 3)
        assert np.isclose(sup, 1.0) and np.isclose(l2, 1.0) and ok

    @pytest.mark.parametrize("p", range(1, 9))
    def test_random_polynomials(self, p):
        rng = np.random.default_rng(p)
        for _ in range(125):
            coeffs = rng.standard_normal(p + 1)
            a = rng.uniform(-2.0, 1.0)
            length = rng.uniform(0.1, 3.0)
            sup, l2, ok = norm_equivalence_bound_check(coeffs, (a, a + length), p)
            assert ok

    @pytest.mark.parametrize("p", range(1, 9))
    def test_worst_case_tight(self, p):
        # minimizer of the L2 norm subject to value 1 at the right endpoint:
        # Legendre coefficients (2j+1)/(p+1)^2, squared norm 2/(p+1)^2
        coeffs = (2.0 * np.arange(p + 1) + 1.0) / (p + 1) ** 2
        sup, l2, ok = norm_equivalence_bound_check(coeffs, (-1.0, 1.0), p)
        assert ok
        assert abs(0.5 * l2**2 - 1.0 / (p + 1) ** 2) <= 1e-10 / (p + 1) ** 2
        bound = (p + 1) / np.sqrt(2.0) * l2
        assert sup >= bound * (1.0 - 1e-10)
