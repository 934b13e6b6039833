"""qweyl benchmark: prime-limit transport, bracket transport and normal forms.

    python3 perfbench/run.py --workload hat|transport|normalize --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Every job runs in a fresh interpreter
(perfbench/job.py), one at a time.  Rounds repeat until S seconds have
passed and at least three plain jobs, or with --trace 1 two traced jobs,
have run.  Each job's outputs are checked against computations made apart
from qweyl (perfbench/checks.py).

--trace 0 runs rounds of one job and reports the end-to-end metrics: the
median job time, the median set-up time and the median peak resident
memory of the jobs.
--trace 1 first runs one child that times single layer calls, then rounds
of one plain and one traced job, and reports the per-layer metrics; the
spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("hat", "transport", "normalize")
# a run stops after --seconds, but not before this many plain jobs, or with
# --trace 1 this many traced jobs: a median of three plain jobs sets aside
# one job slowed by another tenant of the machine
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
# every child is killed and the run fails this many seconds after --seconds
# have passed: room for the last round, and for the rounds MIN_JOBS asks for
OVERRUN_S = 150.0


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # every set-up compiles qweyl from source, as with the default environment
    # of the machine the reference figures come from
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_child(argv, deadline: float):
    """Run one child to its end; return (spawn time, its last stdout line
    parsed as JSON)."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, JOB] + argv, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"job {argv} ran past the deadline of --seconds + {OVERRUN_S:.0f} s") \
            from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"job {argv} exited with {proc.returncode}:\n{stderr}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def _job_argv(args, mode: str, trace: bool = False):
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--mode", mode]
    return argv + (["--trace"] if trace else [])


def _tally(jobs):
    ops = [op for job in jobs for op in job["ops"]]
    for op in ops:
        if op["failed"] or op["problems"]:
            print(f"  {op['op']}: {op['failed'] or op['problems']}", file=sys.stderr)
    correct = not any(op["problems"] for op in ops)
    return correct, len(ops), sum(1 for op in ops if op["failed"])


def measure(args, deadline: float):
    """Returns (checked jobs, metrics dict, spans of the traced jobs)."""
    start = time.monotonic()
    plain, traced, setups = [], [], []
    kernels = _run_child(_job_argv(args, "kernels"), deadline)[1] if args.trace else None
    while True:
        argvs = [_job_argv(args, "job")]
        argvs += [_job_argv(args, "job", trace=True)] if args.trace else []
        for argv in argvs:
            spawned, res = _run_child(argv, deadline)
            setups.append(res["ready"] - spawned)
            (traced if "metrics" in res else plain).append(res)
            print(f"  job {'traced' if 'metrics' in res else 'plain'}: "
                  f"{res['job_s']:.3f} s", file=sys.stderr)
        enough = len(traced) >= MIN_TRACED_JOBS if args.trace else len(plain) >= MIN_JOBS
        if time.monotonic() - start >= args.seconds and enough:
            break

    job_s = statistics.median(r["job_s"] for r in plain)
    if args.trace:
        metrics = {name: statistics.median(r["metrics"][name] for r in traced)
                   for name in traced[0]["metrics"]}
        for name in metrics:
            if _unit(name) == "count":  # counts are exact: every traced job agrees
                seen = {r["metrics"][name] for r in traced}
                if len(seen) != 1:
                    raise RunFailed(f"traced jobs counted {name} differently: {sorted(seen)}")
                metrics[name] = seen.pop()
        metrics["trace_overhead_s"] = statistics.median(r["job_s"] for r in traced) - job_s
        metrics.update(kernels["metrics"])
        return plain + traced, {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()}, \
            [r["spans"] for r in traced]

    metrics = {
        "job_s": {"value": job_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
                        "unit": "MB"},
    }
    return plain, metrics, None


def _unit(name: str) -> str:
    for suffix, unit in (("_calls", "count"), ("_rows", "count"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return name.split(".")[1].rsplit("_", 1)[1]  # cyclo_mul_us -> us


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.seconds + OVERRUN_S

    if not os.path.isfile(os.path.join("src", "qweyl", "__init__.py")):
        print("perfbench: no ./src/qweyl here; run from the repository root", file=sys.stderr)
        return 2
    try:
        jobs, metrics, spans = measure(args, deadline)
    except RunFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    correct, attempted, failed = _tally(jobs)

    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "jobs": [
            {k: v for k, v in job.items() if k != "spans"} for job in jobs],
            "spans": spans, "metrics": metrics}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
