"""Check that two `pbfem` output directories hold the same results.

    python3 scripts/compare_solves.py DIR_A DIR_B

Every ``*_trajectory.json``, ``*_samples.csv`` and, from `compare` and
`study`, ``*_controls.csv`` and ``*_plot.dat`` must be byte-identical, and
every ``*_report.json`` must be equal once ``wall_time_s`` is removed.
Both directories must hold the same set of such files.  Exit code 0 when
they agree, 1 (with one line per difference) when they do not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SUFFIXES = ("_trajectory.json", "_samples.csv", "_report.json", "_controls.csv",
            "_plot.dat")


def _artifacts(root: Path) -> set:
    return {p.name for p in root.iterdir() if p.name.endswith(SUFFIXES)}


def _report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("wall_time_s", None)
    return doc


def compare(a: Path, b: Path) -> list:
    names_a, names_b = _artifacts(a), _artifacts(b)
    problems = [f"only in {a if n in names_a else b}: {n}" for n in sorted(names_a ^ names_b)]
    if not names_a & names_b:
        problems.append("no solve artifacts to compare")
    for name in sorted(names_a & names_b):
        if name.endswith("_report.json"):
            same = _report(a / name) == _report(b / name)
        else:
            same = (a / name).read_bytes() == (b / name).read_bytes()
        if not same:
            problems.append(f"differs: {name}")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    problems = compare(Path(args[0]), Path(args[1]))
    for line in problems:
        print(line)
    if not problems:
        print("identical (reports differ at most in wall_time_s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
