"""Command-line driver: solve, study, compare, list-problems.

Artifacts are plain JSON and CSV so downstream plotting stays decoupled
from this package.  Exit codes:

- 0: success.
- 1: a solve did not converge or did not reach feasibility (``r_feas``
  above 1e-3); or a solve failed -- non-finite problem output
  (``EvaluationError``), a barrier domain error, or a numerical failure
  (``RuntimeError``).  A failed solve prints one line and writes no
  artifacts.  Flags (ringing, a non-monotone study) are printed but do
  not change the exit code.
- 2: configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ConvergenceStudy, StudyRow, control_error
from .benchmarks import build, control_values, registered_names
from .collocation import CollocationScheme, detect_ringing, transcribe_collocation
from .errors import BarrierDomainError, EvaluationError, InputError
from .mesh import FESpace, best_approximation, uniform_mesh
from .solver import SolverConfig, initial_guess, solve
from .transcription import TranscribedNLP

__all__ = ["RunConfig", "solve_benchmark", "main", "cmd_solve", "cmd_study",
           "cmd_compare"]

METHODS = ("pbf", "tr", "hs", "lgr")

# scoring convention for oscillation reports: resample every control on a
# uniform 400-point grid over the window of interest and average over a
# 9-sample moving window (about one element at the benchmark meshes), so
# sub-element dither is ignored while element-scale oscillation survives
RINGING_SAMPLES = 400
RINGING_WINDOW = 9


@dataclasses.dataclass
class RunConfig:
    problem: str
    method: str = "pbf"
    n_elements: int = 100
    p: int = 5
    omega: float = 1e-10
    tau: float = 1e-10
    continuation_start: float | None = None
    grad_tol: float | None = None
    max_iters: int | None = None
    output_dir: str = "."

    def __post_init__(self):
        if self.problem not in registered_names():
            raise InputError(
                f"unknown problem {self.problem!r}; registered: "
                + ", ".join(registered_names())
            )
        if self.method not in METHODS:
            raise InputError(f"method must be one of {', '.join(METHODS)}")
        if self.n_elements < 1:
            raise InputError("n_elements must be at least 1")
        if self.p < 1:
            raise InputError("p must be at least 1")
        if min(self.omega, self.tau) <= 0.0:
            raise InputError("omega and tau must be positive")
        if self.tau > self.omega:
            raise InputError("tau must not exceed omega")

    @classmethod
    def from_sources(cls, file_path: str | None, overrides: dict) -> "RunConfig":
        """Merge a JSON config file with command-line overrides; flags win.
        Unknown keys in either source are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        merged: dict = {}
        if file_path is not None:
            with open(file_path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise InputError("config file must hold a JSON object")
            unknown = set(doc) - known
            if unknown:
                raise InputError(f"unknown config fields: {', '.join(sorted(unknown))}")
            merged.update(doc)
        for key, val in overrides.items():
            if key not in known:
                raise InputError(f"unknown config field {key!r}")
            if val is not None:
                merged[key] = val
        if "problem" not in merged:
            raise InputError("a problem name is required")
        return cls(**merged)

    def solver_config(self, spec_metadata: dict | None = None) -> SolverConfig:
        kwargs = {"omega_target": self.omega, "tau_target": self.tau}
        hints = dict((spec_metadata or {}).get("solver_hints", ()))
        if self.method != "pbf":
            hints = {}
        for name in ("continuation_start", "grad_tol", "max_iters"):
            override = getattr(self, name)
            if override is not None:
                kwargs[name] = override
            elif name in hints:
                kwargs[name] = hints[name]
        return SolverConfig(**kwargs)


def _output_dir(config_dir: str) -> Path:
    out = Path(config_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def solve_benchmark(config: RunConfig, spec, mesh=None, sequence=()):
    """Solve ``spec``'s problem as ``config`` says, on ``mesh`` or else on
    ``config.n_elements`` uniform elements.

    The uniform meshes of the element counts in ``sequence`` are solved
    first, the first from the strictly interior guess; every later mesh
    starts from the L2 projection of the previous solution, with the
    continuation resumed near its tail.  On the index-3 pendulum a cold
    fine-mesh start leaves the first stage unconverged and the cascade then
    descends into a spurious local minimum.
    """
    problem = spec.problem
    cfg = config.solver_config(spec.metadata)
    meshes = [uniform_mesh(problem.t0, problem.tE, n) for n in sequence]
    meshes.append(mesh if mesh is not None
                  else uniform_mesh(problem.t0, problem.tE, config.n_elements))
    report = None
    for mesh in meshes:
        space = FESpace(mesh, config.p, problem.n_y, problem.n_z)
        if config.method == "pbf":
            nlp = TranscribedNLP(problem, space)
        else:
            nlp = transcribe_collocation(problem, mesh,
                                         CollocationScheme(config.method, config.p))
        if report is None:
            start = initial_guess(problem, space)
        else:
            warm = report.trajectory
            start = best_approximation(
                space, [lambda t, j=j: warm.component(j, t)
                        for j in range(problem.n_y + problem.n_z)])
            cfg = dataclasses.replace(cfg, continuation_start=1e-4, max_iters=600)
        report = solve(nlp, start, cfg, reference_objective=spec.reference_objective)
    return report


def _solve_or_fail(config: RunConfig, spec, label: str):
    """``solve_benchmark``'s report, or None after printing the failure under ``label``."""
    try:
        return solve_benchmark(config, spec)
    except (EvaluationError, BarrierDomainError, RuntimeError) as exc:
        print(f"{label}: failed ({exc})")
        return None


def _ringing_report(spec, trajectory) -> dict | None:
    window = spec.metadata.get("singular_window")
    if window is None:
        return None
    t = np.linspace(window[0], window[1], RINGING_SAMPLES)
    u = control_values(spec.problem, trajectory, t)
    score = detect_ringing(u, window=RINGING_WINDOW)
    return {"window": [float(window[0]), float(window[1])],
            "score": score, "flagged": score > 0.3}


def _reference_error(spec, trajectory) -> float | None:
    if spec.reference_trajectory is None:
        return None
    window = spec.metadata.get("singular_window",
                               (spec.problem.t0, spec.problem.tE))
    ref = lambda t: spec.reference_control(t)
    return control_error(trajectory, ref, window, "l2", problem=spec.problem)


def _write_columns_csv(path: Path, cols: dict):
    """A header of column names, then one row of ``repr(float)`` per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(cols))
        for row in zip(*cols.values()):
            writer.writerow([repr(float(v)) for v in row])


def _write_samples_csv(path: Path, problem, trajectory, p: int, n_elements: int):
    t = np.linspace(problem.t0, problem.tE, 10 * p * n_elements + 1)
    cols = {"t": t}
    for j in range(problem.n_y):
        cols[f"y{j + 1}"] = trajectory.component(j, t)
    for j in range(problem.n_z):
        cols[f"z{j + 1}"] = trajectory.component(problem.n_y + j, t)
    _write_columns_csv(path, cols)


def _converged(report) -> bool:
    """Whether a solve counts as a success for the exit code: the solver
    converged and the exact feasibility residual is small."""
    return report.success and report.r_feas <= 1e-3


def cmd_solve(config: RunConfig) -> int:
    spec = build(config.problem)
    out = _output_dir(config.output_dir)
    report = _solve_or_fail(config, spec, f"{config.problem} {config.method}")
    if report is None:
        return 1
    ringing = _ringing_report(spec, report.trajectory)
    err = _reference_error(spec, report.trajectory)
    converged = _converged(report)
    flagged = (not converged) or (ringing is not None and ringing["flagged"])
    doc = {
        "problem": config.problem,
        "method": config.method,
        "n_elements": config.n_elements,
        "p": config.p,
        "status": report.status,
        "F_h": report.F_h,
        "r_feas": report.r_feas,
        "g_opt": report.g_opt,
        "err_l2": err,
        "iterations": report.iterations,
        "wall_time_s": report.wall_time,
        "ringing": ringing,
        "non_convergence_flag": flagged,
        "stages": report.stages,
    }
    stem = f"{config.problem}_{config.method}"
    (out / f"{stem}_trajectory.json").write_text(report.trajectory.to_json())
    (out / f"{stem}_report.json").write_text(json.dumps(doc, indent=2))
    _write_samples_csv(out / f"{stem}_samples.csv", spec.problem,
                       report.trajectory, config.p, config.n_elements)
    print(f"{config.problem} {config.method}: status={report.status} "
          f"F_h={report.F_h:.8f} r_feas={report.r_feas:.3e}"
          + (f" err_l2={err:.3e}" if err is not None else "")
          + (f" ringing={ringing['score']:.3f}" if ringing else ""))
    if flagged:
        print("flagged: non-convergence (feasibility or ringing)")
    return 0 if converged else 1


def cmd_study(config: RunConfig, element_counts) -> int:
    counts = sorted(set(int(n) for n in element_counts))
    if len(counts) < 2:
        raise InputError("a study needs at least two distinct element counts")
    spec = build(config.problem)
    out = _output_dir(config.output_dir)
    study = ConvergenceStudy(config.problem, config.method)
    worst = 0
    for n in counts:
        report = _solve_or_fail(dataclasses.replace(config, n_elements=n), spec, f"n={n}")
        if report is None:
            worst = 1
            continue
        err = _reference_error(spec, report.trajectory)
        row = StudyRow(
            h=(spec.problem.tE - spec.problem.t0) / n,
            n_elements=n, p=config.p, omega=config.omega, tau=config.tau,
            F_h=report.F_h, r_feas=report.r_feas, g_opt=report.g_opt,
            err_l2=err, iters=report.iterations, wall_time_s=report.wall_time,
            status=report.status,
        )
        study.add(row)
        if not _converged(report):
            worst = 1
        print(f"n={n}: status={report.status} r_feas={report.r_feas:.3e}"
              + (f" g_opt={report.g_opt:.3e}" if report.g_opt is not None else ""))
    stem = f"{config.problem}_{config.method}_study"
    (out / f"{stem}.csv").write_text(study.to_csv())
    (out / f"{stem}_plot.dat").write_text(study.plot_data())
    rs = [r.r_feas for r in study.rows]
    non_monotone = any(rs[i] > rs[i - 1] for i in range(1, len(rs)))
    if non_monotone:
        print("flagged: r_feas does not decrease monotonically under refinement")
    return worst


def cmd_compare(config: RunConfig, methods) -> int:
    methods = list(dict.fromkeys(methods))
    if len(methods) < 2:
        raise InputError("compare needs at least two distinct methods")
    runs = [dataclasses.replace(config, method=m) for m in methods]
    spec = build(config.problem)
    out = _output_dir(config.output_dir)
    window = spec.metadata.get("singular_window",
                               (spec.problem.t0, spec.problem.tE))
    t = np.linspace(window[0], window[1], RINGING_SAMPLES)
    cols = {"t": t}
    scores = {}
    worst = 0
    for method, run in zip(methods, runs):
        report = _solve_or_fail(run, spec, method)
        if report is None:
            return 1
        u = control_values(spec.problem, report.trajectory, t)
        cols[method] = u
        scores[method] = detect_ringing(u, window=RINGING_WINDOW)
        if not _converged(report):
            worst = 1
        print(f"{method}: status={report.status} r_feas={report.r_feas:.3e} "
              f"ringing={scores[method]:.3f}")
    if spec.reference_trajectory is not None:
        cols["reference"] = spec.reference_control(t)
    stem = f"{config.problem}_compare"
    _write_columns_csv(out / f"{stem}_controls.csv", cols)
    (out / f"{stem}_report.json").write_text(json.dumps(
        {"problem": config.problem, "window": [float(window[0]), float(window[1])],
         "ringing_scores": scores}, indent=2))
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbfem",
        description="Penalty-barrier finite element transcription toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--problem")
        sp.add_argument("--method", choices=METHODS)
        sp.add_argument("--elements", type=int, dest="n_elements")
        sp.add_argument("--p", type=int)
        sp.add_argument("--omega", type=float)
        sp.add_argument("--tau", type=float)
        sp.add_argument("--continuation-start", type=float,
                        dest="continuation_start")
        sp.add_argument("--grad-tol", type=float, dest="grad_tol")
        sp.add_argument("--max-iters", type=int, dest="max_iters")
        sp.add_argument("--output-dir", dest="output_dir")

    add_common(sub.add_parser("solve", help="solve one problem, write artifacts"))
    study = sub.add_parser("study", help="mesh-refinement sweep")
    add_common(study)
    study.add_argument("--element-counts", type=int, nargs="+", required=True)
    comp = sub.add_parser("compare", help="side-by-side control comparison")
    add_common(comp)
    comp.add_argument("--methods", nargs="+", required=True)
    sub.add_parser("list-problems", help="print registered problem names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-problems":
        for name in registered_names():
            print(name)
        return 0
    overrides = {
        k: getattr(args, k)
        for k in ("problem", "method", "n_elements", "p", "omega", "tau",
                  "continuation_start", "grad_tol", "max_iters",
                  "output_dir")
    }
    try:
        config = RunConfig.from_sources(args.config, overrides)
        if args.command == "solve":
            return cmd_solve(config)
        if args.command == "study":
            return cmd_study(config, args.element_counts)
        return cmd_compare(config, args.methods)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
