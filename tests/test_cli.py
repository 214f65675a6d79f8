import dataclasses
import json

import numpy as np
import pytest

from pbfem import (FESpace, SolverConfig, Trajectory, TranscribedNLP,
                   best_approximation, cli, solve, uniform_mesh)
from pbfem.benchmarks import build
from pbfem.cli import RunConfig, main
from pbfem.errors import BarrierDomainError, EvaluationError


FAST = ["--problem", "vanderpol", "--method", "pbf", "--elements", "4",
        "--p", "2", "--omega", "1e-6", "--tau", "1e-6"]
# each command's arguments and the prefix of its one-line failure report
COMMANDS = {"solve": (["solve", *FAST], "vanderpol pbf"),
            "compare": (["compare", *FAST, "--methods", "pbf", "tr"], "pbf")}


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(problem="vanderpol", method="pbf")
        assert cfg.n_elements == 100 and cfg.p == 5
        assert cfg.omega == 1e-10 and cfg.tau == 1e-10

    def test_validation(self):
        with pytest.raises(Exception):
            RunConfig(problem="vanderpol", method="pbf", p=-1)
        with pytest.raises(Exception):
            RunConfig(problem="vanderpol", method="nope")
        with pytest.raises(Exception):
            RunConfig(problem="vanderpol", method="pbf", omega=1e-10, tau=1e-8)

    def test_config_file_with_flag_override(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"problem": "regulator", "method": "lgr",
                                 "n_elements": 30}))
        cfg = RunConfig.from_sources(str(f), {"n_elements": 50})
        assert cfg.problem == "regulator"
        assert cfg.method == "lgr"
        assert cfg.n_elements == 50  # flag wins

    def test_unknown_field_rejected(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"problem": "vanderpol", "method": "pbf",
                                 "mesh_size": 10}))
        with pytest.raises(Exception):
            RunConfig.from_sources(str(f), {})


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["solve", "--problem", "vanderpol", "--method", "pbf",
                     "--p", "-1"]) == 2

    def test_unknown_problem_is_2(self):
        assert main(["solve", "--problem", "nope", "--method", "pbf"]) == 2

    def test_missing_config_file_is_2(self):
        assert main(["solve", "--config", "/nonexistent/run.json"]) == 2

    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        assert "vanderpol" in out and "pendulum-c" in out


class TestSolveArtifacts:
    def test_solve_writes_artifacts(self, tmp_path):
        assert main(["solve", *FAST, "--output-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "vanderpol_pbf_report.json").read_text())
        assert report["status"] in ("converged", "stalled")
        assert report["r_feas"] <= 1e-3
        traj_doc = (tmp_path / "vanderpol_pbf_trajectory.json").read_text()
        traj = Trajectory.from_json(traj_doc)
        assert traj.space.mesh.n_intervals == 4
        samples = (tmp_path / "vanderpol_pbf_samples.csv").read_text()
        assert samples.splitlines()[0].startswith("t,")

    def test_output_dir_flag(self, tmp_path):
        out = tmp_path / "nested"
        assert main(["solve", *FAST, "--output-dir", str(out)]) == 0
        assert (out / "vanderpol_pbf_report.json").exists()


class TestSolveFailure:
    def _assert_failed(self, capsys, tmp_path, message, command="solve"):
        argv, prefix = COMMANDS[command]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == f"{prefix}: failed ({message})\n" and err == ""
        assert not list(tmp_path.iterdir())

    def test_non_finite_problem_output(self, tmp_path, monkeypatch, capsys):
        spec = build("vanderpol")
        f = spec.problem.f
        poisoned = dataclasses.replace(
            spec, problem=dataclasses.replace(spec.problem, f=lambda *a: f(*a) * np.nan))
        monkeypatch.setattr(cli, "build", lambda name: poisoned)
        self._assert_failed(capsys, tmp_path, "non-finite objective integrand at t = "
                            f"{float(np.min(self._nodes(poisoned))):.6g}")

    @staticmethod
    def _nodes(spec):
        nlp = cli.TranscribedNLP(spec.problem, cli.FESpace(
            cli.uniform_mesh(spec.problem.t0, spec.problem.tE, 4), 2,
            spec.problem.n_y, spec.problem.n_z))
        return nlp.tq

    @pytest.mark.parametrize(
        "command, error",
        [(command, error) for command in COMMANDS
         for error in (BarrierDomainError(0, 1.5, -0.25),
                       RuntimeError("Factor is exactly singular"))],
        ids=["error0", "error1", "compare-error0", "compare-error1"])
    def test_solver_errors(self, tmp_path, monkeypatch, capsys, command, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "solve", failing)
        self._assert_failed(capsys, tmp_path, str(error), command)

    def test_stage_start_that_stays_outside(self, tmp_path, monkeypatch, capsys):
        # a barrier that rejects every point: the twenty margin rounds of the
        # first stage fail, and so does the solve, before any Newton step
        error = BarrierDomainError(0, 1.5, -0.25)
        calls = []

        def rejecting(nlp, x):
            calls.append(x)
            raise error

        monkeypatch.setattr(TranscribedNLP, "barrier", rejecting)
        monkeypatch.setattr(TranscribedNLP, "newton_system",
                            lambda *a: pytest.fail("no Newton step from outside the domain"))
        self._assert_failed(capsys, tmp_path, str(error))
        assert len(calls) == 20


class TestStudy:
    def test_study_csv(self, tmp_path):
        rc = main(["study", *FAST, "--output-dir", str(tmp_path),
                   "--element-counts", "4", "8"])
        assert rc == 0
        csv = (tmp_path / "vanderpol_pbf_study.csv").read_text().splitlines()
        assert csv[0] == ("h,n_elements,p,omega,tau,F_h,r_feas,g_opt,"
                          "err_l2,iters,wall_time_s")
        assert len(csv) == 3
        assert (tmp_path / "vanderpol_pbf_study_plot.dat").exists()

    @pytest.mark.parametrize("command", [["study", "--element-counts", "4", "8"], ["solve"],
                                         ["compare", "--methods", "pbf", "lgr"]])
    def test_infeasible_solve_exits_1(self, tmp_path, monkeypatch, command):
        # every command requires feasibility as well as the solver's success
        def infeasible(*args, **kwargs):
            report = solve(*args, **kwargs)
            assert report.success
            return dataclasses.replace(report, r_feas=1.0)

        monkeypatch.setattr(cli, "solve", infeasible)
        assert main([command[0], *FAST, *command[1:], "--output-dir", str(tmp_path)]) == 1

    def _study(self, tmp_path, monkeypatch, capsys, patched):
        monkeypatch.setattr(cli, "solve_benchmark", patched)
        rc = main(["study", *FAST, "--output-dir", str(tmp_path), "--element-counts", "4", "8"])
        csv = (tmp_path / "vanderpol_pbf_study.csv").read_text().splitlines()
        return rc, capsys.readouterr().out.splitlines(), csv

    def test_failed_count_exits_1_and_writes_the_others(self, tmp_path, monkeypatch, capsys):
        real = cli.solve_benchmark

        def failing_at_4(config, spec, *args, **kwargs):
            if config.n_elements == 4:
                raise EvaluationError("non-finite objective integrand at t = 0.5", 0.5)
            return real(config, spec, *args, **kwargs)

        rc, out, csv = self._study(tmp_path, monkeypatch, capsys, failing_at_4)
        assert rc == 1
        assert out[0] == "n=4: failed (non-finite objective integrand at t = 0.5)"
        assert out[1].startswith("n=8: status=") and len(out) == 2
        assert len(csv) == 2 and csv[1].split(",")[1] == "8"

    def test_rising_r_feas_is_flagged(self, tmp_path, monkeypatch, capsys):
        real = cli.solve_benchmark

        def rising(config, spec, *args, **kwargs):
            report = real(config, spec, *args, **kwargs)
            return dataclasses.replace(report, r_feas=1e-9 * config.n_elements)

        rc, out, csv = self._study(tmp_path, monkeypatch, capsys, rising)
        assert rc == 0 and len(csv) == 3
        assert out[-1] == "flagged: r_feas does not decrease monotonically under refinement"

    def test_study_needs_two_counts(self, tmp_path):
        rc = main(["study", *FAST, "--output-dir", str(tmp_path),
                   "--element-counts", "4"])
        assert rc == 2

    def test_study_needs_two_distinct_counts(self, tmp_path, monkeypatch):
        # a repeated count is one mesh: nothing is solved
        monkeypatch.setattr(cli, "solve_benchmark", lambda *a, **k: pytest.fail("solved"))
        rc = main(["study", *FAST, "--output-dir", str(tmp_path),
                   "--element-counts", "4", "4"])
        assert rc == 2


class TestCompare:
    def test_compare_writes_scores(self, tmp_path):
        rc = main(["compare", *FAST, "--output-dir", str(tmp_path),
                   "--methods", "pbf", "tr"])
        # rc 1 is allowed: the coarse TR baseline misses the feasibility gate
        assert rc in (0, 1)
        rep = json.loads((tmp_path / "vanderpol_compare_report.json").read_text())
        assert set(rep["ringing_scores"]) == {"pbf", "tr"}
        for m in ("pbf", "tr"):
            assert 0.0 <= rep["ringing_scores"][m] <= 1.0
        controls = (tmp_path / "vanderpol_compare_controls.csv").read_text()
        # the reference column is present whenever the benchmark ships a
        # stored reference trajectory
        assert controls.splitlines()[0] == "t,pbf,tr,reference"

    def test_compare_needs_two_methods(self, tmp_path):
        rc = main(["compare", *FAST, "--output-dir", str(tmp_path),
                   "--methods", "pbf"])
        assert rc == 2

    def test_compare_needs_two_distinct_methods(self, tmp_path, monkeypatch):
        # a repeated method would be solved again into the same column:
        # nothing is solved
        monkeypatch.setattr(cli, "solve_benchmark", lambda *a, **k: pytest.fail("solved"))
        rc = main(["compare", *FAST, "--output-dir", str(tmp_path),
                   "--methods", "lgr", "lgr"])
        assert rc == 2


class TestMeshSequencing:
    def test_warm_start_equals_projection_of_coarse_solution(self):
        spec = build("vanderpol")
        prob = spec.problem
        config = RunConfig(problem="vanderpol", n_elements=8, p=2, omega=1e-6, tau=1e-6)
        sequenced = cli.solve_benchmark(config, spec, sequence=(4,))
        assert sequenced.stages[0]["omega"] == 1e-4

        coarse = cli.solve_benchmark(dataclasses.replace(config, n_elements=4), spec)
        space = FESpace(uniform_mesh(prob.t0, prob.tE, 8), 2, prob.n_y, prob.n_z)
        start = best_approximation(
            space, [lambda t, j=j: coarse.trajectory.component(j, t)
                    for j in range(prob.n_y + prob.n_z)])
        warm = solve(TranscribedNLP(prob, space), start,
                     SolverConfig(omega_target=1e-6, tau_target=1e-6,
                                  continuation_start=1e-4, max_iters=600))
        assert np.array_equal(sequenced.trajectory.coeffs, warm.trajectory.coeffs)
        assert sequenced.stages == warm.stages
