"""perfbench/tracing.py: a traced `pbfem solve` records every span that
perfbench/run.py reduces to its per-layer metrics."""

import importlib.util
from pathlib import Path

import pytest

from pbfem import cli, solver

_SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", _SCRIPT)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the spans whose self times and calls perfbench/run.py's layer_metrics reads
_SPANS = ("ad.eval", "benchmarks.build", "mesh.initial_guess", "solver.solve",
          "transcription.build", "transcription.merit", "transcription.newton_system",
          "transcription.factor", "problem.oracle")


@pytest.mark.parametrize("method", ["pbf", "lgr"])
def test_tracer_records_every_reduced_span(tmp_path, capsys, method):
    hooked = [cli.build, cli.initial_guess, cli.solve, cli.TranscribedNLP,
              cli.transcribe_collocation, solver.feasibility_residual_exact]
    with tracing.Tracer() as tracer:
        cli.main(["solve", "--problem", "pendulum-a", "--method", method, "--elements", "4",
                  "--p", "2", "--max-iters", "5", "--output-dir", str(tmp_path)])
    spans = tracer.summary()
    assert [name for name in _SPANS if spans.get(name, {}).get("calls", 0) < 1] == []
    assert spans["solver.solve"]["calls"] == 1
    # every name the tracer swapped is restored on exit
    assert hooked == [cli.build, cli.initial_guess, cli.solve, cli.TranscribedNLP,
                      cli.transcribe_collocation, solver.feasibility_residual_exact]
