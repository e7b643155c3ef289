"""Benchmark of the `fiberfields` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition is one CLI
invocation (see workloads.py) in a fresh interpreter; repetitions go on
until `--seconds` is used up and the metrics are their medians, in
seconds corrected for the host's speed (see child.py).  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced repetitions and prints the per-layer
metrics of the median traced one (see tracer.py).  Every report must hash
to the workload's pinned digest, and a seed-drawn sample of fibers is
checked against sympy (see oracle.py).

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it records the environment and every
repetition.  Items are fibers (values for squarefree-density); failed
items are unresolved fibers, every item of a repetition that exited
non-zero, overran or wrote a wrong report, and each oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# A repetition still running this long after the run began is killed, so
# the whole run ends well inside three minutes.
HARD_LIMIT_S = 150


def run_child(workload, n: int, out_dir: str, trace: bool, timeout: float,
              jobs: int | None = None) -> dict:
    """One repetition; failures come back as a record, never as an exception."""
    out_path = os.path.join(out_dir, "report.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload.name, str(n), out_path,
           "1" if trace else "0"] + ([] if jobs is None else [str(jobs)])
    t = time.perf_counter()
    # A process group of its own, so a timeout also stops the pool workers of --jobs 2.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        error = None if proc.returncode == 0 else f"child exited {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        error = "timeout"
    attempt_s = time.perf_counter() - t
    record = None
    if error is None:
        try:
            record = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = "no result"
    if record is not None:
        if record["status"] != 0:
            error = f"cli exited {record['status']}"
        elif n == workload.n and record["digest"] != workload.digest:
            error = "report digest differs from the pinned one"
    if error is not None:
        sys.stderr.write(f"{workload.name}: {error}\n{stderr[-2000:]}")
        return {"ok": False, "error": error, "traced": trace, "failed": n, "wall_s": attempt_s,
                "setup_s": attempt_s, "raw_wall_s": attempt_s, "slowdown": None,
                "peak_rss_mb": 0.0, "digest": None, "layers": None}
    return {"ok": True, "error": None, "traced": trace, "failed": record["unresolved"], **record}


def repeat(workload, n: int, seconds: float, trace: bool) -> tuple[list[dict], dict | None]:
    """Repetitions until `seconds` would be overrun by one more; with
    `trace`, alternately untraced and traced, at least one of each.  Then,
    for a workload with `pool_check`, one untimed `--jobs 2` repetition."""
    start = time.perf_counter()
    reps: list[dict] = []
    durations: list[float] = []
    pool = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        while True:
            t = time.perf_counter()
            timeout = HARD_LIMIT_S - (t - start)
            reps.append(run_child(workload, n, out_dir, trace and len(reps) % 2 == 1, timeout))
            durations.append(time.perf_counter() - t)
            if not reps[-1]["ok"] and reps[-1]["error"] == "timeout":
                break
            enough = len(reps) >= (2 if trace else 1)
            if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
                break
        if workload.pool_check:
            timeout = HARD_LIMIT_S - (time.perf_counter() - start)
            pool = run_child(workload, n, out_dir, False, timeout, jobs=2)
    return reps, pool


def environment() -> dict:
    import numpy

    from fiberfields import _kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip()

        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": _kernels.backend.name,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def end_to_end(workload, n: int, reps: list[dict]) -> dict:
    wall = statistics.median(r["wall_s"] for r in reps)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": n / wall, "unit": "items/s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in reps), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                        "unit": "MB"},
    }


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    traced = sorted((r for r in reps if r["traced"] and r["ok"]), key=lambda r: r["wall_s"])
    plain = [r["wall_s"] for r in reps if not r["traced"] and r["ok"]]
    if not traced or not plain:
        return {}, ["no successful traced and untraced repetition"]
    rep = traced[(len(traced) - 1) // 2]
    layers = dict(rep["layers"])
    layers["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(plain) - 1
    )
    problems = []
    if rep["residuals_factored"] is not None and (
        layers["sieve.residuals"] != rep["residuals_factored"]
    ):
        problems.append("sieve.residuals differs from the report's residuals_factored")
    return layers, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fiberfields", "cli.py")):
        sys.stderr.write("perfbench: no fiberfields source under src/; run it from a checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    n = workload.n
    reps, pool = repeat(workload, n, args.seconds, bool(args.trace))
    # Imported only now: a child's ru_maxrss starts from this process's
    # resident size at fork, which sympy would inflate.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import oracle

    problems = sorted({r["error"] for r in reps if not r["ok"]})
    if pool is not None and not pool["ok"]:
        problems.append(f"--jobs 2: {pool['error']}")
    try:
        checked = oracle.check(workload, n, args.seed)
    except Exception:  # a library failure on a sampled fiber is a result, not a crash
        traceback.print_exc()
        sampled = oracle.sample(n, args.seed)
        checked = {"sampled": sampled, "mismatches": sampled}
    if checked["mismatches"]:
        problems.append(f"oracle mismatch at n = {checked['mismatches']}")
    if args.trace:
        metrics, trace_problems = per_layer(reps)
        problems += trace_problems
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        metrics = end_to_end(workload, n, reps)

    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": workload.items, "N": n, "env": environment(),
        "oracle": checked, "problems": problems,
        "reps": [{k: r[k] for k in REP_KEYS} for r in reps],
        "pool_check": pool and {k: pool[k] for k in REP_KEYS},
    }
    runs = reps + ([pool] if pool is not None else [])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": n * len(runs),
        "failed": sum(r["failed"] for r in runs) + len(checked["mismatches"]),
        "metrics": metrics,
    }))
    return 0


REP_KEYS = ("traced", "ok", "error", "wall_s", "setup_s", "raw_wall_s", "slowdown",
            "peak_rss_mb", "failed")


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("checks_per_fiber"):
        return "checks/fiber"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
