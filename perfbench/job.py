"""One benchmark job, run by run.py in a fresh interpreter.

    python3 perfbench/job.py --workload W --seed N --mode job|kernels [--trace]

Every qweyl cache lives as long as the process, so each job starts cold, as
each `qweyl` command does.  The child imports qweyl from ./src, builds the
workload's inputs and notes the monotonic clock: the parent subtracts the
moment it started the child, which gives the set-up time.  In `job` mode it
then times the workload, reads its peak resident memory and checks every
output.  In `kernels` mode it times single layer calls (kernels.py).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402  (found through the line above)

NORMALIZE_POWER = 20
NORMALIZE_TWO_PAIR_POWER = 12


def normalize_coefficients(seed: int):
    """a, b for (b*d1 + a*x1)^20: 2 and 3 in either order, each with a
    random sign.  The seed changes the values but not the size of the
    coefficients, on which the cost depends."""
    rng = random.Random(seed)
    a, b = rng.sample((2, 3), 2)
    return a * rng.choice((-1, 1)), b * rng.choice((-1, 1))


# ---------------------------------------------------------------------------
# workloads: setup builds inputs, job is timed, check is not
# ---------------------------------------------------------------------------


def hat_setup(q, seed):
    ctx = q.AlgebraContext.symbolic(1)
    return {f: q.lift_phi(ctx, q.parse_weyl(f, ctx)) for f in ("x1^2", "2")}


def hat_job(q, lifts):
    return {f: q.hat_endo(e) for f, e in lifts.items()}


def hat_check(q, lifts, out):
    square, two = out["x1^2"].reports, out["2"].reports
    return [
        ("x1^2:r1", [lambda: checks.converges_to(square["r1"],
                                                 {checks.R1: 1, checks.S1_SQUARED: 1})]),
        ("x1^2:s1", [lambda: checks.fixed_coordinate(square["s1"])]),
        ("2:r1", [lambda: checks.diverges(two["r1"])]),
        ("2:s1", [lambda: checks.fixed_coordinate(two["s1"])]),
    ]


def transport_setup(q, seed):
    r1, s1 = q.CenterPoly.r(1, 1), q.CenterPoly.s(1, 1)
    return [(r1, s1), (r1 * s1, s1)]


def transport_job(q, pairs):
    return [q.transport_limit(p, s) for p, s in pairs]


def transport_check(q, pairs, out):
    return [
        ("{r1,s1}", [lambda: checks.bracket_transport(out[0], q.embed)]),
        ("{r1*s1,s1}", [lambda: checks.leibniz(out[1], out[0])]),
    ]


def normalize_setup(q, seed):
    a, b = normalize_coefficients(seed)
    return [
        (f"({b}*d1 + {a}*x1)^{NORMALIZE_POWER}", q.AlgebraContext.symbolic(1),
         lambda: checks.closed_form_one_pair(NORMALIZE_POWER, a, b)),
        (f"(d1+x1+d2+x2)^{NORMALIZE_TWO_PAIR_POWER}", q.AlgebraContext.symbolic(2),
         lambda: checks.closed_form_two_pairs(NORMALIZE_TWO_PAIR_POWER)),
    ]


def normalize_job(q, sources):
    out = []
    for src, ctx, _ in sources:
        element = q.parse_weyl(src, ctx)
        out.append((element, q.print_weyl(element)))
    return out


def normalize_check(q, sources, out):
    return [
        (src, [lambda e=e, want=want: checks.closed_form(e, want()),
               lambda e=e, text=text: checks.round_trip(e, text, q.parse_weyl)])
        for (src, _, want), (e, text) in zip(sources, out)
    ]


WORKLOADS = {
    "hat": (hat_setup, hat_job, hat_check),
    "transport": (transport_setup, transport_job, transport_check),
    "normalize": (normalize_setup, normalize_job, normalize_check),
}


def _import_qweyl():
    """qweyl from ./src of the working directory, nowhere else."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import qweyl

    if not os.path.abspath(qweyl.__file__).startswith(src + os.sep):
        raise ImportError(f"qweyl was imported from {qweyl.__file__}, not from {src}")
    return qweyl


def run_checks(ops):
    """Each operation is (name, list of checks).  Every check runs, so a
    check that fails the operation hides no problem another one finds."""
    results = []
    for name, op_checks in ops:
        failed, problems = None, []
        for check in op_checks:
            try:
                problems += check()
            except checks.OperationFailed as err:
                failed = str(err)
        results.append({"op": name, "failed": failed, "problems": problems})
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("job", "kernels"), required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    setup, job, check = WORKLOADS[args.workload]

    q = _import_qweyl()
    inputs = setup(q, args.seed)
    result = {"ready": time.monotonic()}

    if args.mode == "kernels":
        import kernels

        result["metrics"] = kernels.measure(q, args.seed)
    else:
        recorder = None
        if args.trace:
            import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder)
        t0 = time.perf_counter()
        out = job(q, inputs)
        result["job_s"] = time.perf_counter() - t0
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            result["metrics"] = recorder.metrics()
            result["spans"] = recorder.spans
        result["ops"] = run_checks(check(q, inputs, out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
