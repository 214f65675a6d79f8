import dataclasses

import numpy as np
import pytest

from pbfem import (
    DynamicProblem,
    FESpace,
    InputError,
    PenaltyBarrierParams,
    SolverConfig,
    TranscribedNLP,
    initial_guess,
    solve,
    uniform_mesh,
)
from pbfem.benchmarks import build
from pbfem.errors import BarrierDomainError, EvaluationError
from pbfem.solver import _make_interior, _stage_schedule


def trivial_problem():
    return DynamicProblem(
        n_y=1, n_z=1, n_c=1, n_b=1, t0=0.0, tE=1.0, point_times=(0.0,),
        f=lambda yd, y, z, t: z[0] ** 2,
        c=lambda yd, y, z, t: [yd[0] - z[0]],
        b=lambda y0: [y0[0]],
    )


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.omega_target == 1e-10 and cfg.tau_target == 1e-10

    def test_validation(self):
        with pytest.raises(InputError):
            SolverConfig(omega_target=-1.0)
        with pytest.raises(InputError):
            SolverConfig(omega_target=1e-10, tau_target=1e-8)
        with pytest.raises(InputError):
            SolverConfig(max_iters=0)


class TestTrivialProblem:
    def test_optimum_reached(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 4), 2, 1, 1)
        rep = solve(TranscribedNLP(prob, space), initial_guess(prob, space))
        assert rep.success
        assert rep.F_h <= 1e-6
        assert rep.r_feas <= 1e-8
        # z is held slightly positive by the barrier
        zvals = rep.trajectory.component(1, np.linspace(0.01, 0.99, 17))
        assert np.all(zvals > 0.0)
        assert np.max(zvals) < 1e-3

    def test_strict_interiorness(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 1)
        nlp = TranscribedNLP(prob, space)
        rep = solve(nlp, initial_guess(prob, space))
        assert float(np.min(nlp.z_quad_values(rep.trajectory.coeffs))) > 0.0

    def test_report_fields(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        rep = solve(TranscribedNLP(prob, space), initial_guess(prob, space),
                    reference_objective=0.0)
        assert rep.g_opt is not None and rep.g_opt >= 0.0
        assert rep.iterations == sum(s["iters"] for s in rep.stages)
        assert rep.wall_time > 0.0
        assert all(s["tau"] <= s["omega"] for s in rep.stages)

    def test_max_iters_reports_not_raises(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        rep = solve(TranscribedNLP(prob, space), initial_guess(prob, space),
                    SolverConfig(max_iters=1))
        assert rep.status in ("max_iters", "stalled", "converged")
        assert rep.trajectory is not None


class TestInitialGuess:
    def test_boundary_metadata(self):
        prob = build("pendulum-a").problem
        space = FESpace(uniform_mesh(prob.t0, prob.tE, 3), 2, prob.n_y, prob.n_z)
        traj = initial_guess(prob, space, "linear-boundary")
        assert np.allclose(traj.component(0, [0.0])[0], 1.0)
        assert np.allclose(traj.component(0, [3.0])[0], 0.0)
        assert np.allclose(traj.component(1, [3.0])[0], -1.0)
        assert np.allclose(traj.component(prob.n_y, np.linspace(0, 3, 7)), 1.0)

    def test_no_metadata_defaults(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        traj = initial_guess(prob, space)
        assert np.allclose(traj.component(0, [0.3])[0], 0.0)
        assert np.allclose(traj.component(1, [0.3])[0], 1.0)

    def test_merit_finite_after_guess(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        nlp = TranscribedNLP(prob, space)
        traj = initial_guess(prob, space)
        assert np.isfinite(nlp.merit(traj.coeffs))

    def test_unknown_strategy(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        with pytest.raises(InputError):
            initial_guess(prob, space, "oracle")


class TestContinuation:
    def test_stage_schedule_reaches_targets(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 2), 1, 1, 1)
        rep = solve(TranscribedNLP(prob, space), initial_guess(prob, space),
                    SolverConfig(omega_target=1e-6, tau_target=1e-6))
        omegas = [s["omega"] for s in rep.stages]
        assert omegas[0] == pytest.approx(1e-2)
        assert omegas[-1] == pytest.approx(1e-6)
        assert all(a > b for a, b in zip(omegas, omegas[1:]))

    def test_warm_start_not_worse_than_cold(self):
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 1)
        nlp = TranscribedNLP(prob, space)
        warm = solve(nlp, initial_guess(prob, space),
                     SolverConfig(omega_target=1e-8, tau_target=1e-8))
        cold = solve(nlp, initial_guess(prob, space),
                     SolverConfig(omega_target=1e-8, tau_target=1e-8,
                                  continuation_start=1e-8))
        assert warm.r_feas <= 10.0 * max(cold.r_feas, 1e-16)

    def test_stages_set_params_on_one_nlp(self):
        # merit and newton_system replaced on the instance, as a tracer
        # wraps them, see every stage's weights on the one transcription
        prob = trivial_problem()
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 1)
        nlp = TranscribedNLP(prob, space)
        seen = []

        def spy(method):
            def call(x):
                seen.append((nlp.params.omega, nlp.params.tau))
                return method(x)
            return call

        nlp.merit, nlp.newton_system = spy(nlp.merit), spy(nlp.newton_system)
        config = SolverConfig(omega_target=1e-6, tau_target=1e-7)
        rep = solve(nlp, initial_guess(prob, space), config)
        schedule = _stage_schedule(config)
        assert len(schedule) == 5
        stages = [p for i, p in enumerate(seen) if i == 0 or p != seen[i - 1]]
        assert stages == schedule
        assert [(s["omega"], s["tau"]) for s in rep.stages] == schedule
        assert nlp.params == PenaltyBarrierParams(*schedule[-1])


class TestNonFiniteOutput:
    def test_first_merit_raises_naming_the_node(self):
        # an objective that is NaN from t = 0.6 on: the solve stops at its
        # first merit evaluation, naming the first quadrature node past 0.6
        prob = trivial_problem()
        f = prob.f
        prob = dataclasses.replace(
            prob, f=lambda yd, y, z, t: f(yd, y, z, t) + np.where(t > 0.6, np.nan, 0.0))
        space = FESpace(uniform_mesh(0.0, 1.0, 3), 2, 1, 1)
        nlp = TranscribedNLP(prob, space)
        merits = []
        merit = nlp.merit
        nlp.merit = lambda x: merits.append(x) or merit(x)
        nlp.newton_system = lambda x: pytest.fail("no Newton system after a failed merit")
        with pytest.raises(EvaluationError) as info:
            solve(nlp, initial_guess(prob, space))
        tq = nlp.tq
        node = tq[tq > 0.6].min()
        assert len(merits) == 1
        assert info.value.node == node
        assert str(info.value) == f"non-finite objective integrand at t = {node:.6g}"


class _RepairStub:
    """An NLP whose barrier accepts x once every algebraic dof reaches
    ``floor``.  Its margin lifts the dofs to the threshold, or, with
    ``margin_works`` False, leaves them as they are; its clip lifts them."""

    z_dof_indices = np.array([1, 3])

    def __init__(self, floor, margin_works=True):
        self.floor, self.margin_works = floor, margin_works
        self.calls = []

    def barrier(self, x):
        z = x[self.z_dof_indices]
        if np.min(z) < self.floor:
            raise BarrierDomainError(int(np.argmin(z)), 0.0, float(np.min(z)))
        return -float(np.sum(np.log(z)))

    def _lift(self, x, threshold):
        out = np.array(x)
        out[self.z_dof_indices] = np.maximum(out[self.z_dof_indices], threshold)
        return out

    def interior_margin(self, x, threshold):
        self.calls.append(("margin", threshold))
        return self._lift(x, threshold) if self.margin_works else np.array(x)

    def interior_push(self, x, threshold):
        self.calls.append(("clip", threshold))
        return self._lift(x, threshold)


class TestMakeInterior:
    # below every floor used here; the differential dofs 0 and 2 must not move
    X = np.array([0.3, -1.0, 0.7, -2.0])
    TAU, OMEGA = 1e-3, 1e-2
    # the first margin threshold: tau / (L_F + L_R / (2 omega))
    T0 = TAU / (2.0 + 2.0 / (2.0 * OMEGA))

    def _repair(self, nlp):
        x = _make_interior(nlp, self.X, self.TAU, self.OMEGA)
        nlp.barrier(x)
        assert np.array_equal(x[[0, 2]], self.X[[0, 2]])
        return x, nlp.calls

    @pytest.mark.parametrize("k", [1, 2, 7, 20])
    def test_margin_succeeds_after_k_rounds(self, k):
        x, calls = self._repair(_RepairStub(self.T0 * 4.0 ** (k - 1)))
        assert calls == [("margin", self.T0 * 4.0 ** i) for i in range(k)]
        assert np.array_equal(x[[1, 3]], [self.T0 * 4.0 ** (k - 1)] * 2)

    def test_clip_after_twenty_failed_margins(self):
        x, calls = self._repair(_RepairStub(self.TAU, margin_works=False))
        assert calls == [("margin", self.T0 * 4.0 ** i) for i in range(20)] + [("clip", self.TAU)]
        assert np.array_equal(x[[1, 3]], [self.TAU] * 2)

    def test_unit_reset_when_the_clip_fails(self):
        x, calls = self._repair(_RepairStub(0.5, margin_works=False))
        assert calls[-1] == ("clip", self.TAU) and len(calls) == 21
        assert np.array_equal(x[[1, 3]], [1.0, 1.0])
