"""pbfem benchmark: `pbfem solve` on fixed workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One client, one solve at a time, in this process:
``pbfem.cli.main(["solve", ...])`` writes its artifacts to a temporary
directory under ``.bench_work/`` and the benchmark checks each solve's
report against the recorded values in ``workloads.json``.  Solves repeat
while the next one is expected to end within ``--seconds`` (at least one).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with every solve traced and prints the per-layer metrics, each the
median over the run's solves.
The workloads are fixed problems without random input: ``--seed`` only
sets ``PYTHONHASHSEED`` (the process re-executes itself once to apply it),
and each run reports whether its solves reproduce the iteration counts
recorded under other hash seeds.

The last stdout line is the result object; the line before it holds the
environment and the per-solve details.  Exit code 2, with no result, when
the checkout holds no ``src/pbfem``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# fresh interpreters timed per run for setup_s, half before and half after
# the solves; the median is reported
SETUP_REPEATS = 10
# the traced library solve must match the time the solver reports for
# itself within this fraction, or the tracer did not wrap the solve the
# CLI made, exactly once
TRACE_WALL_FRAC = 0.01
SETUP_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reexec_with_hash_seed(seed):
    """Make the hash seed a function of --seed, and keep artifacts where
    the benchmark puts them (``PBF_OUTPUT_DIR`` would override the CLI)."""
    want = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") == want and "PBF_OUTPUT_DIR" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED=want)
    env.pop("PBF_OUTPUT_DIR", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                               *sys.argv[1:]], env)


# -- environment ---------------------------------------------------------
# symbol names of the thread-count query across OpenBLAS builds
_OPENBLAS_THREAD_FNS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")

def _openblas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, name) for name in _OPENBLAS_THREAD_FNS
                   if hasattr(lib, name)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            out[Path(path).name] = fn()
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest():
    """sha256 over the package sources and reference data, so results from
    checkouts that are not git repositories still name the code they ran."""
    h = hashlib.sha256()
    pkg = SRC / "pbfem"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- set-up ----------------------------------------------------------------
def time_fresh_setup(wl):
    """Seconds from spawning a fresh interpreter until it reports that the
    first Newton iteration could start, and the dimension it reported."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           wl["problem"], wl["method"], str(wl["elements"]), str(wl["p"])]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, int(line.split()[1])


# -- one solve ---------------------------------------------------------------
def run_solve(cli_main, wl, out_dir):
    """One `pbfem solve`, timed from outside; returns its wall time, exit
    code, error and report (None when it crashed)."""
    argv = ["solve", "--problem", wl["problem"], "--method", wl["method"],
            "--elements", str(wl["elements"]), "--p", str(wl["p"]),
            "--output-dir", str(out_dir)]
    error = None
    t0 = time.perf_counter()
    try:
        # the CLI's status line would precede the result line otherwise
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
    except Exception:
        # a crashing solve is a failed attempt, not a crashed benchmark
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    stem = out_dir / f"{wl['problem']}_{wl['method']}"
    report = None
    if error is None:
        try:
            report = json.loads(Path(f"{stem}_report.json").read_text())
            for suffix in ("_trajectory.json", "_samples.csv"):
                if Path(f"{stem}{suffix}").stat().st_size == 0:
                    error = f"empty artifact {stem.name}{suffix}"
        except OSError as exc:
            report, error = None, f"missing artifact: {exc}"
    return {"solve_s": wall, "rc": rc, "error": error, "report": report}


def check_solve(res, expected, tol, f_ref):
    """Reasons the solve's output is wrong; empty when it is correct."""
    if res["error"] is not None:
        return [res["error"]]
    doc = res["report"]
    bad = []
    if res["rc"] != 0:
        bad.append(f"exit code {res['rc']}")
    if not doc["r_feas"] <= tol["r_feas_max"]:
        bad.append(f"r_feas {doc['r_feas']:.3e} > {tol['r_feas_max']:.0e}")
    gap_max = tol["objective_gap_rel"] * abs(f_ref)
    if doc["g_opt"] is None or not doc["g_opt"] <= gap_max:
        bad.append(f"objective gap {doc['g_opt']} > {gap_max:.3e}")
    err, want = doc["err_l2"], expected["err_l2"]
    if err is None or not abs(err - want) <= tol["err_l2_rel"] * abs(want):
        bad.append(f"err_l2 {err} drifted from recorded {want}")
    score = doc["ringing"]["score"] if doc["ringing"] else None
    want = expected["ringing"]
    if (score is None) != (want is None) or (
            want is not None and not abs(score - want) <= tol["ringing_abs"]):
        bad.append(f"ringing {score} drifted from recorded {want}")
    return bad


def signature(doc):
    """Newton iterations with each stage's iteration count and status."""
    return [doc["iterations"], [[s["iters"], s["status"]] for s in doc["stages"]]]


def solve_loop(one_solve, seconds):
    """Closed loop: the next solve starts after the previous one ended,
    while it is expected to end within ``seconds``."""
    solves = []
    start = time.perf_counter()
    while True:
        with tempfile.TemporaryDirectory(dir=WORK) as out:
            solves.append(one_solve(Path(out)))
        if time.perf_counter() - start + solves[-1]["solve_s"] > seconds:
            return solves


# -- per-layer split -----------------------------------------------------
def layer_metrics(spans, report, span_cost):
    """Per-layer metrics from one traced solve's span summary and report;
    ``span_cost`` is the seconds one span adds to a call."""
    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def errors(name):
        return spans.get(name, {}).get("errors", {})

    iters = report["iterations"]
    stages = report["stages"]
    useful = sum(s["iters"] for s in stages if s["status"] in ("converged", "stalled"))
    return {
        "ad.eval_s": self_s("ad.eval"),
        "ad.eval_calls": calls("ad.eval"),
        "transcription.newton_system_s": self_s("transcription.newton_system"),
        "transcription.newton_system_calls": calls("transcription.newton_system"),
        "transcription.factor_s": self_s("transcription.factor"),
        "transcription.factor_calls": calls("transcription.factor"),
        # SuperLU refusals (singular factor) that the solver retries with a
        # larger Levenberg shift
        "transcription.factor_failures": sum(errors("transcription.factor").values()),
        "transcription.merit_s": self_s("transcription.merit"),
        "transcription.merit_calls": calls("transcription.merit"),
        "transcription.build_s": self_s("transcription.build"),
        "transcription.build_calls": calls("transcription.build"),
        "solver.self_s": self_s("solver.solve"),
        "solver.iter_s": spans["solver.solve"]["total_s"] / iters,
        "solver.factor_per_iter": calls("transcription.factor") / iters,
        # each stage's first merit call is its starting value, not a trial
        "solver.merit_per_iter": (calls("transcription.merit") - len(stages)) / iters,
        "solver.barrier_rejections": errors("transcription.merit").get("BarrierDomainError", 0),
        "solver.useful_iter_frac": useful / iters,
        "solver.stages_max_iters": sum(s["status"] == "max_iters" for s in stages),
        "problem.oracle_s": self_s("problem.oracle"),
        "mesh.initial_guess_s": self_s("mesh.initial_guess"),
        "benchmarks.build_s": self_s("benchmarks.build"),
        "cli.post_s": self_s("cli.main"),
        # what the spans added, as a share of the traced solve
        "trace_overhead_frac": span_cost * sum(row["calls"] for row in spans.values())
                               / spans["cli.main"]["total_s"],
    }


def main(argv=None):
    args = _parse_args(argv)
    spec_doc = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec_doc["workloads"]:
        print(f"unknown workload {args.workload!r}; known: "
              + ", ".join(spec_doc["workloads"]), file=sys.stderr)
        return 2
    _reexec_with_hash_seed(args.seed)
    if not (SRC / "pbfem" / "__init__.py").is_file():
        print(f"no pbfem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pbfem
    if SRC.resolve() not in Path(pbfem.__file__).resolve().parents:
        print(f"pbfem imported from {pbfem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from pbfem.cli import main as cli_main
    from setup_probe import first_stage

    wl = spec_doc["workloads"][args.workload]
    expected, tol = wl["expected"], spec_doc["tolerances"]
    problems = []

    setup_samples = []

    def time_setups(count):
        for _ in range(0 if args.trace else count):
            elapsed, dim = time_fresh_setup(wl)
            setup_samples.append(elapsed)
            if dim != expected["dimension"]:
                problems.append(f"set-up dimension {dim}, recorded {expected['dimension']}")

    time_setups(SETUP_REPEATS // 2)
    spec, nlp, _ = first_stage(wl["problem"], wl["method"], wl["elements"], wl["p"])
    if nlp.dimension != expected["dimension"]:
        problems.append(f"dimension {nlp.dimension}, recorded {expected['dimension']}")
    f_ref = spec.reference_objective
    del spec, nlp

    WORK.mkdir(exist_ok=True)
    if args.trace:
        from tracing import Tracer, span_cost_s

        def one_solve(out):
            with Tracer() as tracer:
                res = run_solve(tracer.wrap("cli.main", cli_main), wl, out)
            res["spans"] = tracer.summary()
            return res
    else:
        def one_solve(out):
            return run_solve(cli_main, wl, out)
    solves = solve_loop(one_solve, args.seconds)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    time_setups(SETUP_REPEATS - SETUP_REPEATS // 2)

    layers = []
    if args.trace:
        span_cost = span_cost_s()
        for s in solves:
            if s["report"] is None:
                continue
            root = s["spans"].get("solver.solve", {"calls": 0, "total_s": 0.0})
            own = s["report"]["wall_time_s"]
            if root["calls"] != 1 or not abs(root["total_s"] - own) <= TRACE_WALL_FRAC * own:
                problems.append(f"traced solver.solve: {root['calls']} calls, "
                                f"{root['total_s']:.4f} s; the solver reports {own:.4f} s")
                continue
            layers.append(layer_metrics(s["spans"], s["report"], span_cost))

    failed = 0
    details = []
    recorded = [expected["newton_iters"], expected["stages"]]
    for s in solves:
        reasons = check_solve(s, expected, tol, f_ref)
        failed += bool(reasons)
        doc = s["report"] or {}
        details.append({
            "solve_s": s["solve_s"], "rc": s["rc"], "failures": reasons,
            **{k: doc.get(k) for k in ("status", "F_h", "r_feas", "g_opt",
                                        "err_l2", "iterations")},
            "ringing": (doc.get("ringing") or {}).get("score"),
            "signature": signature(doc) if doc else None,
        })
    # one code path and one process: any difference is nondeterminism
    signatures = {json.dumps(d["signature"]) for d in details if d["signature"]}
    if len(signatures) > 1:
        problems.append("iteration signatures differ between solves: "
                        + "; ".join(sorted(signatures)))
    # against the recording (other hash seeds, possibly other code): reported
    drift = [d["signature"] for d in details
             if d["signature"] and d["signature"] != recorded]
    if drift:
        print(f"iteration signature {drift[0]} differs from recorded {recorded}",
              file=sys.stderr)
    if args.trace:
        # median_low: a value one of the solves gave, so counts stay whole
        values = {k: statistics.median_low(m[k] for m in layers)
                  for k in (layers[0] if layers else ())}
    else:
        iters = [d["iterations"] for d in details if d["iterations"] is not None]
        values = {
            "solve_s": statistics.median(s["solve_s"] for s in solves),
            "newton_iters": statistics.median(iters) if iters else 0,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = {m["name"]: m["unit"] for m in bench[
        "per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        problems.append("metrics differ from BENCHMARK.json: "
                        + ", ".join(sorted(set(values) ^ set(declared))))
    metrics = {k: {"value": v, "unit": declared[k]}
               for k, v in values.items() if k in declared}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "problems": problems,
        "setup_samples_s": setup_samples, "solves": details,
        "recorded_signature": recorded, "signature_drift": bool(drift),
        "spans": [s.get("spans") for s in solves] if args.trace else None,
    }))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(solves), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
