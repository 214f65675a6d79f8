import numpy as np
import pytest

from pbfem import (
    BolzaProblem,
    DynamicProblem,
    FESpace,
    InputError,
    Mesh,
    Trajectory,
    convert_bolza,
    evaluate_dae_residual,
    feasibility_residual_exact,
    gauss_legendre,
    uniform_mesh,
)
from pbfem import ad
from pbfem.benchmarks import build


def test_vanderpol_residual_row():
    prob = build("vanderpol").problem
    y = [0.3, 0.7]
    ydot = [0.7, 0.0]  # first equation ydot1 = y2 satisfied
    res = evaluate_dae_residual(prob, ydot, y, [1.0, 1.0], 0.5)
    assert res.shape == (3,)
    assert res[0] == 0.0


def test_pendulum_feasible_point():
    prob = build("pendulum-a").problem
    # initial rest state with zero tension and torque: only gravity acts
    y = [1.0, 0.0, 0.0, 0.0]
    ydot = [0.0, 0.0, 0.0, -9.81]
    z = [1.0, 1.0, 1.0, 1.0]
    res = evaluate_dae_residual(prob, ydot, y, z, 0.0)
    assert np.allclose(res, 0.0)


def test_sawtooth_pointwise():
    prob = DynamicProblem(
        n_y=1, n_z=0, n_c=1, n_b=0, t0=0.0, tE=1.0, point_times=(),
        f=lambda yd, y, z, t: 0.0,
        c=lambda yd, y, z, t: [ad.sin(np.pi * y[0])],
        b=lambda y0: [],
    )
    res = evaluate_dae_residual(prob, [0.0], [0.5], [], 0.0)
    assert np.isclose(res[0], 1.0)


def test_dimension_mismatch():
    prob = build("regulator").problem
    with pytest.raises(InputError):
        evaluate_dae_residual(prob, [0.0], [0.0, 0.0], [1.0, 1.0], 0.0)


class TestFeasibilityResidual:
    def _ode_problem(self):
        return DynamicProblem(
            n_y=1, n_z=1, n_c=1, n_b=1, t0=0.0, tE=1.0, point_times=(0.0,),
            f=lambda yd, y, z, t: z[0] ** 2,
            c=lambda yd, y, z, t: [yd[0] - z[0]],
            b=lambda y0: [y0[0] - 1.0],
        )

    def test_feasible_trajectory(self):
        prob = self._ode_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 4), 3, 1, 1)
        traj = space.interpolate([lambda t: 1.0 + 2.0 * t,
                                  lambda t: np.full_like(t, 2.0)])
        assert feasibility_residual_exact(prob, traj) < 1e-24

    def test_boundary_miss(self):
        prob = self._ode_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 2, 1, 1)
        traj = space.interpolate([lambda t: np.zeros_like(t),
                                  lambda t: np.zeros_like(t)])
        assert np.isclose(feasibility_residual_exact(prob, traj), 1.0)

    def test_sawtooth_half(self):
        n = 8
        prob = DynamicProblem(
            n_y=0, n_z=1, n_c=1, n_b=0, t0=0.0, tE=1.0, point_times=(),
            f=lambda yd, y, z, t: 0.0,
            c=lambda yd, y, z, t: [ad.sin(np.pi * z[0])],
            b=lambda: [],
        )
        space = FESpace(uniform_mesh(0.0, 1.0, n), 1, 0, 1)
        from pbfem import Trajectory

        coeffs = space.zero_coeffs()
        for b in range(n):
            coeffs[space.z_dofs[0, b]] = [-0.5, 0.5]
        saw = Trajectory(space, coeffs)
        assert abs(feasibility_residual_exact(prob, saw) - 0.5) < 1e-6

    @staticmethod
    def _interval_by_interval(problem, trajectory):
        """The measure one interval at a time, one ``np.dot`` per
        (interval, residual), as it was first written."""
        space = trajectory.space
        rule = gauss_legendre(2 * space.p + 4)
        total = 0.0
        for a, bb in space.mesh.intervals:
            t, w = rule.mapped(a, bb)
            ydot = [trajectory.component(j, t, 1) for j in range(problem.n_y)]
            y = [trajectory.component(j, t) for j in range(problem.n_y)]
            z = [trajectory.component(problem.n_y + j, t) for j in range(problem.n_z)]
            for r in problem.c(ydot, y, z, t):
                total += float(np.dot(w, np.broadcast_to(np.asarray(r, dtype=float), t.shape) ** 2))
        if problem.n_b > 0:
            ys = [[trajectory.component(j, tk)[0] for j in range(problem.n_y)]
                  for tk in problem.point_times]
            total += float(sum(float(v) ** 2 for v in problem.b(*ys)))
        return total

    @pytest.mark.parametrize("name", ["vanderpol", "pendulum-a", "regulator", "constant-c"])
    def test_all_intervals_at_once_equal_interval_by_interval(self, name):
        # the same bits on uniform and graded meshes and on trajectories
        # over several orders of magnitude; a constant residual reaches the
        # sum as a broadcast scalar
        if name == "constant-c":
            prob = DynamicProblem(
                n_y=1, n_z=0, n_c=2, n_b=0, t0=0.0, tE=2.0, point_times=(),
                f=lambda yd, y, z, t: 0.0, c=lambda yd, y, z, t: [yd[0] - y[0], 0.3],
                b=lambda: [])
        else:
            prob = build(name).problem
        rng = np.random.default_rng(23)
        for n, p in ((1, 1), (7, 3), (40, 5)):
            nodes = np.sort(np.concatenate([[prob.t0, prob.tE],
                                            rng.uniform(prob.t0, prob.tE, n - 1)]))
            for mesh in (uniform_mesh(prob.t0, prob.tE, n), Mesh(nodes)):
                space = FESpace(mesh, p, prob.n_y, prob.n_z)
                scale = 10.0 ** rng.uniform(-3.0, 2.0)
                traj = Trajectory(space, scale * rng.standard_normal(space.dimension))
                with np.errstate(all="ignore"):
                    r, ref = (feasibility_residual_exact(prob, traj),
                              self._interval_by_interval(prob, traj))
                assert float(r).hex() == float(ref).hex()


class TestBolzaConversion:
    def test_minimum_time(self):
        bolza = BolzaProblem(
            n_chi=1,
            inputs=(("box", -1.0, 1.0),),
            f_E=lambda chi, xi, tau: tau,
            c_e=lambda chidot, chi, u, xi, tau: [chidot[0] - u[0]],
            n_ce=1,
            free_tauE=True,
        )
        prob = convert_bolza(bolza)
        # phi is pinned to the free final time tE: a pure time objective
        assert prob.t0 == 0.0 and prob.tE == 1.0
        layout = prob.metadata["bolza"]
        assert layout["i_phi"] == 1
        assert prob.n_y == 3  # chi, phi, free tauE
        assert [ad.value(r) for r in prob.b([0.0, 2.5, 2.5], [1.0, 2.5, 2.5])] == [0.0]
        assert ad.value(prob.f([0.0, 0.0, 0.0], [0.5, 2.5, 2.5], [0.5, 0.5], 0.3)) == 2.5
        # chidot = 0.5 / 2.5 = u = -1 + 1.2, and the constant-state rows of phi and tE
        rows = [ad.value(r) for r in prob.c([0.5, 0.0, 0.0], [0.5, 2.5, 2.5], [1.2, 0.8], 0.3)]
        assert np.allclose(rows, 0.0) and len(rows) == 4
        assert [ad.value(r) for r in prob.c([0.5, 0.25, -0.5], [0.5, 2.5, 2.5],
                                            [1.2, 0.8], 0.3)[2:]] == [0.25, -0.5]

    def test_terminal_cost_is_the_objective(self):
        # minimize chi(1)^2 with chidot = u and chi(0) = 1: the constant
        # trajectory chi = 1, u = 0 has Bolza objective 1
        bolza = BolzaProblem(
            n_chi=1,
            inputs=("free",),
            f_E=lambda chi, xi, tau: chi[0] ** 2,
            c_e=lambda chidot, chi, u, xi, tau: [chidot[0] - u[0]],
            n_ce=1,
            b_B=lambda chi0, chiE, xi, t0, tE: [chi0[0] - 1.0],
            n_bB=1,
        )
        prob = convert_bolza(bolza)
        assert (prob.n_y, prob.n_c, prob.n_b) == (2, 2, 2)  # chi, phi; phi' = 0; phi = f_E
        ydot, y, z = [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]
        assert [ad.value(r) for r in prob.c(ydot, y, z, 0.5)] == [0.0, 0.0]
        assert [ad.value(r) for r in prob.b(y, y)] == [0.0, 0.0]
        # phi = 0 no longer satisfies b
        assert [ad.value(r) for r in prob.b([1.0, 0.0], [1.0, 0.0])] == [0.0, -1.0]
        # a constant integrand over the unit horizon: the objective is phi
        t = np.linspace(0.0, 1.0, 5)
        assert [ad.value(prob.f(ydot, y, z, tk)) for tk in t] == [1.0] * 5
        # phi follows chi at the final time, not at the start
        assert ad.value(prob.b([1.0, 4.0], [2.0, 4.0])[1]) == 0.0
        assert ad.value(prob.c([0.0, 3.0], y, z, 0.5)[1]) == 3.0

    def test_terminal_cost_needs_final_point(self):
        with pytest.raises(InputError):
            BolzaProblem(n_chi=1, inputs=("free",), f_E=lambda chi, xi, tau: chi[0],
                         point_fracs=(0.0, 0.5))

    def test_identity_like(self):
        bolza = BolzaProblem(
            n_chi=1,
            inputs=("free",),
            f_r=lambda chidot, chi, u, xi, tau: chi[0] ** 2 + u[0] ** 2,
            c_e=lambda chidot, chi, u, xi, tau: [chidot[0] - u[0]],
            n_ce=1,
            tau0=0.0, tauE=2.0,
        )
        prob = convert_bolza(bolza)
        assert prob.n_y == 1
        assert prob.n_z == 2  # split u = z1 - z2
        # running cost rescaled by the horizon length
        val = prob.f([0.0], [3.0], [1.5, 0.5], 0.25)
        assert np.isclose(ad.value(val), 2.0 * (9.0 + 1.0))

    def test_inequality_slack(self):
        bolza = BolzaProblem(
            n_chi=1,
            inputs=("nonneg",),
            f_r=lambda chidot, chi, u, xi, tau: u[0],
            c_i=lambda chidot, chi, u, xi, tau: [chi[0] - 8.0],
            n_ci=1,
        )
        prob = convert_bolza(bolza)
        assert prob.n_z == 2  # input channel plus slack
        # slack chosen as -c_i makes the converted row vanish
        res = prob.c([0.0], [5.0], [1.0, 3.0], 0.3)
        assert np.isclose(ad.value(res[0]), 0.0)

    def test_feasible_point_maps_to_zero(self):
        bolza = BolzaProblem(
            n_chi=1,
            inputs=(("box", -1.0, 1.0),),
            f_r=lambda chidot, chi, u, xi, tau: u[0] ** 2,
            c_e=lambda chidot, chi, u, xi, tau: [chidot[0] - u[0]],
            n_ce=1,
        )
        prob = convert_bolza(bolza)
        # u = 0.25 means z = (1.25, 0.75); chidot (converted) = u * delta
        res = prob.c([0.25], [0.0], [1.25, 0.75], 0.5)
        assert all(np.isclose(ad.value(r), 0.0) for r in res)

    def test_invalid_box(self):
        with pytest.raises(InputError):
            BolzaProblem(n_chi=1, inputs=(("box", 1.0, -1.0),))


def test_point_time_outside_horizon():
    with pytest.raises(InputError):
        DynamicProblem(
            n_y=1, n_z=0, n_c=0, n_b=1, t0=0.0, tE=1.0, point_times=(2.0,),
            f=lambda yd, y, z, t: 0.0, c=lambda yd, y, z, t: [],
            b=lambda y0: [y0[0]],
        )
