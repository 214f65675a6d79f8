"""`pbfem solve` writes the same bits whatever the interpreter's string-hash
seed: two solves in fresh processes under different ``PYTHONHASHSEED``
values must leave byte-identical artifacts (scripts/compare_solves.py)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_solves",
                                               _ROOT / "scripts" / "compare_solves.py")
compare_solves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_solves)


def _solve(out, hash_seed, problem, method, elements):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(_ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pbfem.cli", "solve", "--problem", problem,
                           "--method", method, "--elements", str(elements), "--p", "3",
                           "--output-dir", str(out)], env=env, capture_output=True).returncode


@pytest.mark.parametrize("problem, method, elements",
                         [("vanderpol", "pbf", 10), ("pendulum-a", "lgr", 8)])
def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path, problem, method, elements):
    # pendulum-a by LGR at 8 elements is flagged (exit code 1) but still
    # writes its artifacts
    codes = {_solve(tmp_path / str(seed), seed, problem, method, elements) for seed in (0, 4242)}
    assert len(codes) == 1 and codes <= {0, 1}
    assert compare_solves.compare(tmp_path / "0", tmp_path / "4242") == []
