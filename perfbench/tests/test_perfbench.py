"""Tests of the benchmark itself: every output check accepts a right result
and rejects a wrong one, and traced runs count the same work twice.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import job  # noqa: E402
import qweyl as q  # noqa: E402
import run  # noqa: E402

SMALL = (3, 5, 7, 11)
R1, S1 = q.CenterPoly.r(1, 1), q.CenterPoly.s(1, 1)


def report(results, verdict="converged", limit=None):
    """A stand-in for a ConvergenceReport with the fields the checks read."""
    limit = {m: SimpleNamespace(exact=(Fraction(v), Fraction(0))) for m, v in (limit or {}).items()}
    return SimpleNamespace(results=list(results), failed_levels=(), verdict=verdict, limit=limit)


def perturbed(poly, mono, delta=1):
    """The same center polynomial with one coefficient moved by delta."""
    coeffs = dict(poly.coeffs)
    coeffs[mono] = coeffs[mono] + delta
    return q.CenterPoly(poly.n, coeffs)


# ---------------------------------------------------------------------------
# hat
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lift_square():
    ctx = q.AlgebraContext.symbolic(1)
    return q.lift_phi(ctx, q.parse_weyl("x1^2", ctx))


def s1_results(lift, levels=SMALL):
    return [(lv, q.hat_step(lift, S1, lv)) for lv in levels]


def test_fixed_coordinate_accepts_exact_s1(lift_square):
    assert checks.fixed_coordinate(report(s1_results(lift_square), limit={checks.S1: 1}), SMALL) == []


def test_fixed_coordinate_rejects_a_perturbed_level(lift_square):
    results = s1_results(lift_square)
    level, poly = results[2]
    results[2] = (level, perturbed(poly, checks.S1))
    assert checks.fixed_coordinate(report(results, limit={checks.S1: 1}), SMALL)


def test_fixed_coordinate_rejects_a_wrong_limit(lift_square):
    assert checks.fixed_coordinate(report(s1_results(lift_square), limit={checks.S1: 2}), SMALL)


def test_converges_to_rejects_a_wrong_limit_or_verdict(lift_square):
    results = s1_results(lift_square)
    want = {checks.R1: 1, checks.S1_SQUARED: 1}
    assert checks.converges_to(report(results, limit=want), want, SMALL) == []
    assert checks.converges_to(report(results, limit={checks.R1: 1}), want, SMALL)
    assert checks.converges_to(report(results, verdict="diverged"), want, SMALL)


def test_centrality_failure_and_schedule_are_checked(lift_square):
    results = s1_results(lift_square)
    results[1] = (results[1][0], q.hatmap.CentralityFailure(results[1][0], "not central"))
    assert checks.diverges(report(results, verdict="diverged"), SMALL)
    assert checks.diverges(report(s1_results(lift_square), verdict="diverged"), SMALL) == []
    assert checks.diverges(report(s1_results(lift_square), verdict="converged"), SMALL)
    assert checks.diverges(report(s1_results(lift_square), verdict="diverged"))  # not 3..31


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def brackets():
    rs = [(lv, q.transported_bracket(R1, S1, lv)) for lv in SMALL]
    rss = [(lv, q.transported_bracket(R1 * S1, S1, lv)) for lv in SMALL]
    return rs, rss


def test_bracket_transport_accepts_the_program_output(brackets):
    rs, _ = brackets
    assert checks.bracket_transport(report(rs, limit={checks.ONE: 1}), q.embed, SMALL) == []


def test_bracket_closed_form_rejects_a_perturbed_coefficient(brackets):
    rs, _ = brackets
    rs = list(rs)
    level, poly = rs[3]
    rs[3] = (level, perturbed(poly, checks.R1S1, q.Cyclo.zeta(level, 2)))
    problems = checks.bracket_transport(report(rs, limit={checks.ONE: 1}), q.embed, SMALL)
    assert any("l(q-1)" in p for p in problems)


def test_bracket_transport_rejects_a_wrong_embedding_or_limit(brackets):
    rs, _ = brackets
    off = lambda c: q.embed(c) * (1 + 1e-7)  # noqa: E731
    assert checks.bracket_transport(report(rs, limit={checks.ONE: 1}), off, SMALL)
    assert checks.bracket_transport(report(rs, limit={checks.S1: 1}), q.embed, SMALL)


def test_bracket_transport_rejects_an_extra_term(brackets):
    rs, _ = brackets
    level, poly = rs[0]
    extra = q.CenterPoly(1, {**poly.coeffs, checks.R1: q.Cyclo.one(level)})
    bad = [(level, extra)] + list(rs[1:])
    assert checks.bracket_transport(report(bad, limit={checks.ONE: 1}), q.embed, SMALL)


def test_leibniz_accepts_and_rejects(brackets):
    rs, rss = brackets
    assert checks.leibniz(report(rss, limit={checks.S1: 1}), report(rs), SMALL) == []
    level, poly = rss[1]
    bad = [rss[0], (level, perturbed(poly, ((1,), (2,))))] + list(rss[2:])
    assert checks.leibniz(report(bad, limit={checks.S1: 1}), report(rs), SMALL)
    assert checks.leibniz(report(rss, limit={checks.ONE: 1}), report(rs), SMALL)


def test_bracket_modulus_matches_exact_l3():
    # at l = 3: c = 3(q-1)/(1+q) = 3(q-1)/(-q^2), |c| = 3|q-1| = 3*sqrt(3)
    assert checks.bracket_modulus(3) == pytest.approx(3 * 3 ** 0.5, rel=1e-14)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_closed_form_one_pair_small_case():
    # (a x + b d)^2 = a^2 x^2 + 2ab x d + ab + b^2 d^2 when d x = x d + 1
    assert checks.closed_form_one_pair(2, 3, 5) == {
        ((2,), (0,)): 9, ((1,), (1,)): 30, ((0,), (0,)): 15, ((0,), (2,)): 25}


@pytest.mark.parametrize("src, n, expected", [
    ("(-3*d1 + 2*x1)^7", 1, lambda: checks.closed_form_one_pair(7, 2, -3)),
    ("(d1+x1+d2+x2)^5", 2, lambda: checks.closed_form_two_pairs(5)),
])
def test_closed_form_accepts_and_rejects(src, n, expected):
    ctx = q.AlgebraContext.symbolic(n)
    element = q.parse_weyl(src, ctx)
    assert checks.closed_form(element, expected()) == []
    key = max(element.terms)
    bad = q.WeylElement(ctx, {**element.terms, key: element.terms[key] + q.LaurentPoly.t_power(3)})
    assert checks.closed_form(bad, expected())


def test_round_trip_accepts_rejects_and_reports_faults():
    ctx = q.AlgebraContext.symbolic(1)
    element = q.parse_weyl("(d1+x1)^4", ctx)
    text = q.print_weyl(element)
    assert checks.round_trip(element, text, q.parse_weyl) == []
    assert checks.round_trip(element, text + " + 1", q.parse_weyl)

    def raising(text, ctx):
        raise RecursionError("maximum recursion depth exceeded")

    with pytest.raises(checks.OperationFailed):
        checks.round_trip(element, text, raising)


@pytest.mark.parametrize("delta, correct", [(0, True), (1, False)])
def test_a_failed_round_trip_keeps_the_closed_form_check(delta, correct):
    # the n=2 normal form, with its round trip failing as (d1+x1+d2+x2)^12's does
    ctx = q.AlgebraContext.symbolic(2)
    element = q.parse_weyl("(d1+x1+d2+x2)^5", ctx)
    key = max(element.terms)
    element = q.WeylElement(ctx, {**element.terms,
                                  key: element.terms[key] + q.LaurentPoly.t_power(0) * delta})

    def raising(text, ctx):
        raise RecursionError("maximum recursion depth exceeded")

    sources = [("(d1+x1+d2+x2)^5", ctx, lambda: checks.closed_form_two_pairs(5))]
    ops = job.run_checks(job.normalize_check(SimpleNamespace(parse_weyl=raising), sources,
                                             [(element, q.print_weyl(element))]))
    assert run._tally([{"ops": ops}]) == (correct, 1, 1)


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def test_two_traced_jobs_count_the_same_work():
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "job.py"), "--workload", "normalize",
           "--seed", "4", "--mode", "job", "--trace"]
    procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    runs = []
    for proc in procs:
        out, _ = proc.communicate(timeout=170)
        assert proc.returncode == 0
        runs.append(json.loads(out.strip().splitlines()[-1]))
    counts = [{k: v for k, v in r["metrics"].items() if k.endswith(("_calls", "_rows"))}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["scalars.laurent_mul_calls"] > 0 and counts[0]["weylcore.mul_calls"] > 0
    assert {s[0] for s in runs[0]["spans"]} >= {"exprio.parse_weyl", "exprio.print_weyl"}
