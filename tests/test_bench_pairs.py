"""scripts/bench_pairs.py: alternating before/after runs of two checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# a stand-in for perfbench/run.py: it logs its call next to the checkouts
# and prints the canned result that canned.json holds for its seed
_FAKE_RUN = '''
import json, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
seed, trace = args[args.index("--seed") + 1], args[args.index("--trace") + 1]
seconds = args[args.index("--seconds") + 1]
with open(root.parent / "calls.log", "a") as fh:
    fh.write(f"{root.name} {seed} {trace} {seconds}\\n")
result = json.loads((root / "canned.json").read_text())[seed]
print("status line of the runner")
print(json.dumps({"environment": {"python": "3.x", "nproc": 2, "git_commit": root.name,
                                  "pythonhashseed": seed},
                  "signature_drift": False, "problems": []}))
print(json.dumps(result))
'''

_BENCHMARK = {
    "run_seconds": 35,
    "end_to_end": [{"name": "solve_s", "better": "lower"},
                   {"name": "newton_iters", "better": "lower"}],
}


def _result(solve_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"solve_s": {"value": solve_s, "unit": "s"},
                        "newton_iters": {"value": 405, "unit": "count"}}}


def _checkout(root: Path, canned):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps(_BENCHMARK))
    (root / "canned.json").write_text(json.dumps({str(s): r for s, r in canned.items()}))
    return root


def _pair(tmp_path, parent_s, change_s, seed0=100, **change_result):
    parent = _checkout(tmp_path / "parent",
                       {seed0 + i: _result(v) for i, v in enumerate(parent_s)})
    change = _checkout(tmp_path / "change",
                       {seed0 + i: _result(v, **change_result) for i, v in enumerate(change_s)})
    return parent, change


def _run(capsys, *args):
    code = bench_pairs.main([str(a) for a in args])
    return code, capsys.readouterr()


def _calls(tmp_path):
    return (tmp_path / "calls.log").read_text().split("\n")[:-1]


def test_runs_alternate_which_side_goes_first(capsys, tmp_path):
    parent, change = _pair(tmp_path, [5.0] * 5, [4.0] * 5)
    out = tmp_path / "bench.json"
    code, _ = _run(capsys, parent, change, "--workload", "w", "--pairs", 3, "--seed0", 100,
                   "--out", out, "--trace-pairs", 2)
    assert code == 0
    # every run takes run_seconds from BENCHMARK.json; traced pairs follow
    # on the next seeds and alternate as well
    assert _calls(tmp_path) == [
        "parent 100 0 35", "change 100 0 35",
        "change 101 0 35", "parent 101 0 35",
        "parent 102 0 35", "change 102 0 35",
        "parent 103 1 35", "change 103 1 35",
        "change 104 1 35", "parent 104 1 35",
    ]
    doc = json.loads(out.read_text())["workloads"]["w"]
    assert [p["first"] for p in doc["pairs"]] == ["parent", "change", "parent"]
    assert [p["seed"] for p in doc["trace_pairs"]] == [103, 104]


def test_quartiles_and_wins_with_ties_for_neither(capsys, tmp_path):
    parent_s = [10.0, 12.0, 11.0, 9.0, 8.0]
    change_s = [9.0, 12.0, 10.0, 9.5, 8.0]  # two ties, one loss, two wins
    parent, change = _pair(tmp_path, parent_s, change_s)
    out = tmp_path / "bench.json"
    code, printed = _run(capsys, parent, change, "--workload", "w", "--pairs", 5,
                         "--seed0", 100, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    s = doc["workloads"]["w"]["summary"]["solve_s"]
    assert s["parent"] == {"median": 10.0, "q1": 9.0, "q3": 11.0}
    assert s["change"] == {"median": 9.5, "q1": 9.0, "q3": 10.0}
    assert (s["change_wins"], s["parent_wins"], s["ties"]) == (2, 1, 2)
    assert s["median_change_frac"] == pytest.approx(-0.05)
    iters = doc["workloads"]["w"]["summary"]["newton_iters"]
    assert (iters["change_wins"], iters["parent_wins"], iters["ties"]) == (0, 0, 5)
    # the environment keeps the host and drops what names a run
    assert doc["environment"] == {"python": "3.x", "nproc": 2}
    assert "change wins 2 of 5, parent wins 1" in printed.out


def test_other_workloads_in_the_file_are_kept(capsys, tmp_path):
    parent, change = _pair(tmp_path, [5.0], [4.0])
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"other": {"pairs": []}}}))
    code, _ = _run(capsys, parent, change, "--workload", "w", "--pairs", 1, "--seed0", 100,
                   "--out", out)
    assert code == 0
    assert set(json.loads(out.read_text())["workloads"]) == {"other", "w"}


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_incorrect_or_failed_run_is_refused(capsys, tmp_path, bad):
    parent, change = _pair(tmp_path, [5.0] * 2, [4.0] * 2, **bad)
    out = tmp_path / "bench.json"
    code, printed = _run(capsys, parent, change, "--workload", "w", "--pairs", 2,
                         "--seed0", 100, "--out", out)
    assert code == 1
    assert "refused: change seed 100" in printed.err
    assert not out.exists()


@pytest.mark.parametrize("args", [(), ("one",), ("one", "two", "three")])
def test_wrong_argument_count_exits_2(capsys, tmp_path, args):
    code, printed = _run(capsys, *args, "--workload", "w", "--pairs", 1, "--seed0", 1,
                         "--out", tmp_path / "bench.json")
    assert code == 2
    assert "usage: bench_pairs.py" in printed.err
