"""Generate fine-mesh self-converged reference solutions for the built-in
benchmark problems and store them as package data.

Each reference is a 400-element p=5 solve driven to omega = tau = 1e-12,
written to src/pbfem/refdata/<name>.json together with its objective value
and provenance fields.  Rerun with --problems to refresh a subset.
"""

from __future__ import annotations

import argparse
import datetime
import json
from pathlib import Path

from pbfem import (
    FESpace,
    SolverConfig,
    TranscribedNLP,
    best_approximation,
    initial_guess,
    solve,
    uniform_mesh,
)
from pbfem.benchmarks import build, registered_names

REFDATA = Path(__file__).resolve().parent.parent / "src" / "pbfem" / "refdata"

# meshes solved first as warm starts: on the index-3 pendulum a cold start
# on a fine mesh leaves the first continuation stage unconverged and the
# later stages then descend into a spurious local minimum
SEQUENCES = {"pendulum-c": (40,)}


def _solve_on(problem, n_elements, p, config, init):
    mesh = uniform_mesh(problem.t0, problem.tE, n_elements)
    space = FESpace(mesh, p, problem.n_y, problem.n_z)
    if init is None:
        strategy = "linear-boundary" if "boundary_end" in problem.metadata else "constant"
        init = initial_guess(problem, space, strategy)
    else:
        # warm start: L2-project the coarser solution onto the finer space
        init = best_approximation(
            space, [lambda t, j=j: init.component(j, t)
                    for j in range(problem.n_y + problem.n_z)])
    return solve(TranscribedNLP(problem, space), init, config)


def make_reference(name: str, n_elements: int, p: int, target: float,
                   sequence: tuple[int, ...] = ()) -> dict:
    spec = build(name)
    problem = spec.problem
    hints = dict(problem.metadata.get("solver_hints", ()))
    warm = None
    for n_coarse in sequence:
        config = SolverConfig(omega_target=target, tau_target=target, **hints)
        rep = _solve_on(problem, n_coarse, p, config, warm)
        print(f"{name}: sequence n={n_coarse} status={rep.status} "
              f"F_h={rep.F_h:.12f} r_feas={rep.r_feas:.3e}")
        # after the first mesh, resume the continuation near its tail
        hints = {"continuation_start": 1e-4, "max_iters": 600}
        warm = rep.trajectory
    config = SolverConfig(omega_target=target, tau_target=target, **hints)
    report = _solve_on(problem, n_elements, p, config, warm)
    if not report.success:
        raise RuntimeError(f"{name}: reference solve failed ({report.status})")
    print(f"{name}: status={report.status} F_h={report.F_h:.12f} "
          f"r_feas={report.r_feas:.3e} wall={report.wall_time:.0f}s")
    return {
        "problem": name,
        "objective": report.F_h,
        "r_feas": report.r_feas,
        "trajectory": json.loads(report.trajectory.to_json()),
        "provenance": {
            "n_elements": n_elements,
            "p": p,
            "omega": target,
            "tau": target,
            "mesh_sequence": list(sequence),
            "solver_status": report.status,
            "generated": datetime.date.today().isoformat(),
            "generator": "scripts/make_references.py",
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problems", nargs="+", default=registered_names())
    parser.add_argument("--elements", type=int, default=400)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--omega", type=float, default=1e-12)
    args = parser.parse_args()
    REFDATA.mkdir(exist_ok=True)
    for name in args.problems:
        doc = make_reference(name, args.elements, args.p, args.omega,
                             SEQUENCES.get(name, ()))
        path = REFDATA / f"{name}.json"
        path.write_text(json.dumps(doc))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
