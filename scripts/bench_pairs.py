"""Alternating before/after benchmark runs of two checkouts, as one JSON record.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed0 S --out FILE [--trace-pairs K]

Each pair runs ``perfbench/run.py --workload W --seed s --seconds T --trace 0``
once in each checkout, with the same seed ``s`` (``S``, ``S + 1``, ...) and
``T`` the ``run_seconds`` of CHANGE_DIR's ``BENCHMARK.json``.  The parent
goes first in even pairs and the change in odd ones, so that a drift of the
host's speed loads both sides alike.  ``--trace-pairs K`` adds K pairs with
``--trace 1`` on the next seeds, for the per-layer split.

A run that exits nonzero, prints no result, or reports ``correct: false``
or ``failed > 0`` is refused: the script stops with exit code 1 and writes
nothing.  Otherwise FILE holds, under ``workloads[W]``, every pair's
metrics and, per end-to-end metric, each side's median and quartiles and
the pairs each side won (a tie counts for neither).  Entries of other
workloads already in FILE are kept, so one file can gather them all.  Exit
code 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# details of a run that name the checkout or the hash seed, not the host
_RUN_SPECIFIC = ("git_commit", "source_sha256", "pythonhashseed")


class Refused(Exception):
    """A benchmark run whose result may not be used."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench_pairs.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-pairs", type=int, default=0)
    return parser.parse_args(argv)


def run_once(checkout: Path, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run: its result and its details lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    where = f"{checkout.name} seed {seed} trace {trace}"
    if proc.returncode != 0 or len(lines) < 2:
        raise Refused(f"{where}: exit {proc.returncode}, no result\n{proc.stderr.strip()}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) > 0:
        raise Refused(f"{where}: correct={result.get('correct')}, "
                      f"failed={result.get('failed')}, problems={details.get('problems')}")
    return result, details


def run_pairs(dirs, workload, seeds, seconds, trace):
    """Alternating pairs, one per seed (the parent runs first in even
    pairs), and the environment the last run reported."""
    pairs, env = [], {}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result, details = run_once(dirs[side], workload, seed, seconds, trace)
            env = details.get("environment", {})
            pair[side] = {
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "attempted": result["attempted"],
                "signature_drift": details.get("signature_drift"),
                "source": {k: env.get(k) for k in ("git_commit", "source_sha256")},
            }
        pairs.append(pair)
    return pairs, {k: v for k, v in env.items() if k not in _RUN_SPECIFIC}


def quartiles(values):
    """Median and first and third quartiles (linear interpolation)."""
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs, better):
    """Per metric: each side's quartiles, and the pairs each side won."""
    out = {}
    for name, direction in better.items():
        rows = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not rows:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        stats = {side: quartiles([r[i] for r in rows]) for i, side in enumerate(SIDES)}
        stats["change_wins"] = sum(sign * (c - p) < 0 for p, c in rows)
        stats["parent_wins"] = sum(sign * (c - p) > 0 for p, c in rows)
        stats["ties"] = len(rows) - stats["change_wins"] - stats["parent_wins"]
        base = stats["parent"]["median"]
        stats["median_change_frac"] = (stats["change"]["median"] - base) / base if base else None
        out[name] = stats
    return out


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse has printed the usage
        return exc.code
    dirs = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    first_traced = args.seed0 + args.pairs
    try:
        pairs, env = run_pairs(dirs, args.workload, range(args.seed0, first_traced),
                               seconds, 0)
        traced, env_traced = run_pairs(dirs, args.workload,
                                       range(first_traced, first_traced + args.trace_pairs),
                                       seconds, 1)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["environment"] = env or env_traced
    doc["workloads"][args.workload] = {
        "run_seconds": seconds,
        "summary": summarize(pairs, better),
        "pairs": pairs,
        "trace_pairs": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, stats in doc["workloads"][args.workload]["summary"].items():
        print(f"{args.workload} {name}: parent {stats['parent']['median']:.6g}, "
              f"change {stats['change']['median']:.6g}; change wins {stats['change_wins']} "
              f"of {len(pairs)}, parent wins {stats['parent_wins']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
