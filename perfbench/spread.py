"""Run the benchmark once per seed and report the spread of each metric.

    python3 perfbench/spread.py --workload hat --seeds 1-10 [--seconds 15] [--trace 0]

For each metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and the quartile distance as a share of the
median, which is what the bounds in BENCHMARK.json are compared with.  The
runs go to perfbench/out/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            seconds = str(json.load(fh)["run_seconds"])

    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                  if args.trace == "0"), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.2%}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares seen: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "seconds": seconds, "runs": runs, "summary": summary}, fh,
                  indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
