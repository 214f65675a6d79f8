"""scripts/compare_solves.py: the check that two solves wrote the same results."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_solves.py"
_spec = importlib.util.spec_from_file_location("compare_solves", _SCRIPT)
compare_solves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_solves)


def _write_solve(root: Path, wall_time=1.5):
    root.mkdir()
    (root / "vanderpol_pbf_trajectory.json").write_text('{"coeffs": [0.1, 0.2]}')
    (root / "vanderpol_pbf_samples.csv").write_text("t,y1\n0.0,0.1\n1.0,0.2\n")
    (root / "vanderpol_pbf_report.json").write_text(json.dumps(
        {"problem": "vanderpol", "iterations": 312, "wall_time_s": wall_time}, indent=2))
    return root


@pytest.fixture
def pair(tmp_path):
    a = _write_solve(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    return a, b


def _run(capsys, *args):
    code = compare_solves.main([str(a) for a in args])
    return code, capsys.readouterr()


def test_identical_directories_exit_0(capsys, pair):
    code, out = _run(capsys, *pair)
    assert code == 0
    assert out.out.startswith("identical")


def test_flipped_byte_in_samples_exits_1_and_names_the_file(capsys, pair):
    path = pair[1] / "vanderpol_pbf_samples.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 0x01
    path.write_bytes(bytes(data))
    code, out = _run(capsys, *pair)
    assert code == 1
    assert out.out.splitlines() == ["differs: vanderpol_pbf_samples.csv"]


def test_wall_time_is_ignored(capsys, tmp_path):
    a = _write_solve(tmp_path / "a", wall_time=1.5)
    b = _write_solve(tmp_path / "b", wall_time=9.25)
    code, _ = _run(capsys, a, b)
    assert code == 0


def test_other_report_field_differs(capsys, tmp_path):
    a = _write_solve(tmp_path / "a")
    b = _write_solve(tmp_path / "b")
    doc = json.loads((b / "vanderpol_pbf_report.json").read_text())
    doc["iterations"] = 313
    (b / "vanderpol_pbf_report.json").write_text(json.dumps(doc))
    code, out = _run(capsys, a, b)
    assert code == 1
    assert "differs: vanderpol_pbf_report.json" in out.out


def test_missing_artifact_is_reported(capsys, pair):
    (pair[1] / "vanderpol_pbf_trajectory.json").unlink()
    code, out = _run(capsys, *pair)
    assert code == 1
    assert out.out.splitlines() == [f"only in {pair[0]}: vanderpol_pbf_trajectory.json"]


def test_empty_directories_are_not_identical(capsys, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    code, out = _run(capsys, tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert "no solve artifacts to compare" in out.out


@pytest.mark.parametrize("args", [(), ("one",), ("one", "two", "three")])
def test_wrong_argument_count_exits_2(capsys, args):
    code, out = _run(capsys, *args)
    assert code == 2
    assert "compare_solves.py DIR_A DIR_B" in out.err
