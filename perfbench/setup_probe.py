"""The set-up path of one workload: everything before the first Newton
iteration can start.

``first_stage`` imports pbfem, loads the benchmark with its reference data
(``benchmarks.build``), builds the mesh and space, the initial guess and
the first continuation stage's NLP, and maps the guess to its coefficient
vector, as ``pbfem solve`` does before its first Newton iteration.

Run as a script, it does this once in a fresh interpreter and prints
``ready <dimension>``, so the caller can time interpreter start-up plus
set-up:

    python3 perfbench/setup_probe.py <src dir> <problem> <method> <elements> <p>
"""

from __future__ import annotations

import sys


def first_stage(problem_name, method, n_elements, p):
    """Return the benchmark spec, the first stage's NLP and its start vector."""
    from pbfem import (CollocationScheme, FESpace, PenaltyBarrierParams,
                       TranscribedNLP, initial_guess, transcribe_collocation,
                       uniform_mesh)
    from pbfem.benchmarks import build
    from pbfem.cli import RunConfig
    from pbfem.solver import _stage_schedule

    spec = build(problem_name)
    config = RunConfig(problem=problem_name, method=method,
                       n_elements=n_elements, p=p).solver_config(spec.metadata)
    params = PenaltyBarrierParams(*_stage_schedule(config)[0])

    problem = spec.problem
    mesh = uniform_mesh(problem.t0, problem.tE, n_elements)
    space = FESpace(mesh, p, problem.n_y, problem.n_z)
    strategy = "linear-boundary" if "boundary_end" in problem.metadata else "constant"
    guess = initial_guess(problem, space, strategy)
    if method == "pbf":
        nlp = TranscribedNLP(problem, space, params=params)
    else:
        nlp = transcribe_collocation(problem, mesh, CollocationScheme(method, p), params)
    return spec, nlp, nlp.from_trajectory(guess)


if __name__ == "__main__":
    src, problem_name, method, n_elements, p = sys.argv[1:6]
    sys.path.insert(0, src)
    _, nlp, x0 = first_stage(problem_name, method, int(n_elements), int(p))
    print(f"ready {x0.size}", flush=True)
