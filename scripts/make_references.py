"""Generate fine-mesh self-converged reference solutions for the built-in
benchmark problems and store them as package data.

Each reference is a p=5 PBF solve driven to omega = tau = 1e-12 by
``pbfem.cli.solve_benchmark`` on the last mesh of the problem's plan
(400 elements unless MESH_PLANS says otherwise), written to
src/pbfem/refdata/<name>.json together with its objective value and
provenance fields.  Rerun with --problems to refresh a subset.
"""

from __future__ import annotations

import argparse
import datetime
import json
from pathlib import Path

from pbfem.benchmarks import build, registered_names
from pbfem.cli import RunConfig, solve_benchmark

REFDATA = Path(__file__).resolve().parent.parent / "src" / "pbfem" / "refdata"

# element counts solved in turn, each solution warm-starting the next mesh:
# on the index-3 pendulum a cold start on a fine mesh leaves the first
# continuation stage unconverged and the later stages then descend into a
# spurious local minimum
MESH_PLANS = {"pendulum-c": (40, 80)}


def mesh_plan(name: str) -> tuple[int, ...]:
    return MESH_PLANS.get(name, (400,))


def make_reference(name: str, p: int, target: float) -> dict:
    *sequence, n_elements = mesh_plan(name)
    config = RunConfig(name, "pbf", n_elements, p, omega=target, tau=target)
    report = solve_benchmark(config, build(name), sequence=sequence)
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
            "mesh_sequence": sequence,
            "solver_status": report.status,
            "generated": datetime.date.today().isoformat(),
            "generator": "scripts/make_references.py",
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problems", nargs="+", default=registered_names())
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--omega", type=float, default=1e-12)
    args = parser.parse_args()
    REFDATA.mkdir(exist_ok=True)
    for name in args.problems:
        doc = make_reference(name, args.p, args.omega)
        path = REFDATA / f"{name}.json"
        path.write_text(json.dumps(doc))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
