"""Acceptance sweep: the library's exit criteria as runnable checks.

Each criterion is a function returning (ok, detail); the CLI `sweep`
subcommand and the pytest acceptance module both run this manifest, so the
table printed by the CLI and the test results can never drift apart.
Budgets are wall-clock seconds and are part of the pass condition.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .center import CenterPoly, f_power_closed_form, is_central, theta
from .hatmap import (
    hat,
    hat_endo,
    check_center_preservation,
    is_stable,
    transport_limit,
)
from .matrep import cross_check
from .morphisms import compose, lift_phi, lift_psi
from .poisson import bracket_of_lifts, lift, poisson_bracket, transported_bracket
from .scalars import Cyclo, Jet, cyclotomic_polynomial, embed, qint, specialize
from .weylcore import (
    AlgebraContext,
    act_on_polynomial,
    commutator,
    divisible_by_f,
    f_element,
    f_i,
    mul,
    power,
    q_commutator,
)

__all__ = ["CRITERIA", "CriterionResult", "run_criterion", "run_all"]


# ---------------------------------------------------------------------------
# randomized element helpers (seeded; acceptance must be reproducible)
# ---------------------------------------------------------------------------


def _random_element(rng: random.Random, ctx: AlgebraContext, max_terms=4,
                    max_exp=2, degree_cap=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            al = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
            be = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
            if sum(al) + sum(be) <= degree_cap:
                break
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            key = (al, be)
            terms[key] = terms.get(key, Fraction(0)) + c
    return ctx.from_terms({k: v for k, v in terms.items() if v})


def _random_center_poly(rng: random.Random, n: int, max_terms=3, max_exp=1):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(n))
        b = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            key = (a, b)
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
    poly = CenterPoly(n, {k: v for k, v in coeffs.items() if v})
    return poly if poly else CenterPoly.constant(n, 1)


def _random_x_poly(rng: random.Random, n: int, max_exp=4):
    poly = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = Fraction(rng.randint(-3, 3))
        if c:
            poly[key] = poly.get(key, Fraction(0)) + c
    return {k: v for k, v in poly.items() if v} or {(0,) * n: Fraction(1)}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_pbw_ring_axioms() -> Tuple[bool, str]:
    rng = random.Random(101)
    contexts = [
        AlgebraContext.symbolic(1),
        AlgebraContext.symbolic(2),
        AlgebraContext.root_of_unity(1, 3),
        AlgebraContext.root_of_unity(2, 4),
    ]
    checked = 0
    for ctx in contexts:
        for i in range(1, ctx.n + 1):
            if q_commutator(ctx.d(i), ctx.x(i)) != ctx.one():
                return False, f"q-commutator [d{i}, x{i}] != 1 in {ctx!r}"
            for j in range(1, ctx.n + 1):
                if i != j and commutator(ctx.d(i), ctx.x(j)):
                    return False, f"mixed commutator [d{i}, x{j}] != 0"
                if commutator(ctx.x(i), ctx.x(j)) or commutator(ctx.d(i), ctx.d(j)):
                    return False, "x/d family fails to commute"
        for _ in range(8):
            a = _random_element(rng, ctx)
            b = _random_element(rng, ctx)
            c = _random_element(rng, ctx)
            if mul(mul(a, b), c) != mul(a, mul(b, c)):
                return False, f"associativity fails in {ctx!r}"
            if mul(a, b + c) != mul(a, b) + mul(a, c):
                return False, f"distributivity fails in {ctx!r}"
            if mul(ctx.one(), a) != a or mul(a, ctx.one()) != a:
                return False, "1 is not a unit"
            checked += 1
        # normal-form soundness against the faithful polynomial action
        for _ in range(6):
            a = _random_element(rng, ctx)
            b = _random_element(rng, ctx)
            v = _random_x_poly(rng, ctx.n)
            lhs = act_on_polynomial(mul(a, b), v)
            rhs = act_on_polynomial(a, act_on_polynomial(b, v))
            if lhs != rhs:
                return False, f"action soundness fails in {ctx!r}"
            checked += 1
    return True, f"{checked} randomized identities over {len(contexts)} contexts"


def criterion_f_power_closed_form() -> Tuple[bool, str]:
    checked = 0
    for level in range(2, 13):
        qpows = [k for k in range(1, level) if math.gcd(k, level) == 1]
        for qpow in qpows:
            for n in (1, 2):
                ctx = AlgebraContext.root_of_unity(n, level, qpow)
                lhs = power(f_element(ctx), level)
                rhs = f_power_closed_form(ctx)
                if lhs != rhs:
                    return False, f"l={level}, qpow={qpow}, n={n}: power != closed form"
                checked += 1
    return True, f"{checked} (level, primitive root, n) combinations"


def _sr_coefficient(level: int) -> Cyclo:
    """l(q-1)/[l-1]_q!, the nonconstant bracket coefficient, via scalar ops."""
    q = Cyclo.zeta(level)
    fact = Cyclo.one(level)
    for k in range(1, level):
        fact = fact * specialize(qint(k), level)
    return (level * (q - Cyclo.one(level))) * fact.inverse()


def criterion_divided_bracket_closed_form() -> Tuple[bool, str]:
    for level in range(2, 13):
        ctx = AlgebraContext.root_of_unity(1, level)
        bracket = poisson_bracket(
            ctx.monomial((0,), (level,)), ctx.monomial((level,), (0,))
        )
        expected = ctx.one() + ctx.monomial((level,), (level,), _sr_coefficient(level))
        if bracket != expected:
            return False, f"l={level}: bracket of d^l, x^l mismatches the closed form"
        if level == 2:
            explicit = ctx.one() + ctx.monomial((2,), (2,), -4)
            if bracket != explicit:
                return False, "l=2 instance is not 1 - 4 x^2 d^2"
    # the statement is per index pair; exercise both pairs of a rank-two algebra
    for level in (2, 3, 5):
        ctx2 = AlgebraContext.root_of_unity(2, level)
        for i in range(2):
            dl = tuple(level if j == i else 0 for j in range(2))
            xl = tuple(level if j == i else 0 for j in range(2))
            bracket = poisson_bracket(
                ctx2.monomial((0, 0), dl), ctx2.monomial(xl, (0, 0))
            )
            expected = ctx2.one() + ctx2.monomial(xl, dl, _sr_coefficient(level))
            if bracket != expected:
                return False, f"l={level}, n=2, i={i+1}: closed form mismatch"
    return True, "levels 2..12 at n=1 (incl. the explicit l=2 value); both indices at n=2"


def criterion_poisson_axioms() -> Tuple[bool, str]:
    rng = random.Random(404)
    pairs = triples = 0
    for level in (2, 3, 5):
        for n in (1, 2) if level <= 3 else (1,):
            ctx = AlgebraContext.root_of_unity(n, level)
            # Phi_l(t) and t^l - 1 vanish at q
            phi, cycle = Jet(level, cyclotomic_polynomial(level)), Jet.t_power(level, level) - 1
            for _ in range(14):
                P = theta(_random_center_poly(rng, n), level)
                Q = theta(_random_center_poly(rng, n), level)
                br = poisson_bracket(P, Q)
                if poisson_bracket(Q, P) != -br:
                    return False, f"antisymmetry fails at l={level}"
                if not is_central(br):
                    return False, f"bracket output not central at l={level}"
                R = theta(_random_center_poly(rng, n), level)
                if poisson_bracket(P + R, Q) != br + poisson_bracket(R, Q):
                    return False, f"bilinearity fails at l={level}"
                # independence of the chosen lifts: inject Phi_l(t)*junk and
                # (t^l - 1)*junk
                junk = lift(_random_element(rng, ctx, max_terms=3))
                if bracket_of_lifts(lift(P) + junk.scale(phi), lift(Q) + junk.scale(cycle)) != br:
                    return False, f"lift-independence fails at l={level}"
                pairs += 1
            for _ in range(7):
                P = theta(_random_center_poly(rng, n), level)
                Q = theta(_random_center_poly(rng, n), level)
                R = theta(_random_center_poly(rng, n), level)
                leibniz = poisson_bracket(P, mul(Q, R)) - (
                    mul(poisson_bracket(P, Q), R) + mul(Q, poisson_bracket(P, R))
                )
                if leibniz:
                    return False, f"Leibniz fails at l={level}"
                jacobi = (
                    poisson_bracket(P, poisson_bracket(Q, R))
                    + poisson_bracket(Q, poisson_bracket(R, P))
                    + poisson_bracket(R, poisson_bracket(P, Q))
                )
                if jacobi:
                    return False, f"Jacobi fails at l={level}"
                triples += 1
    total = pairs + triples
    return total >= 100, f"{pairs} pairs + {triples} triples checked exactly"


def criterion_bracket_transport() -> Tuple[bool, str]:
    report = transport_limit(CenterPoly.r(1, 1), CenterPoly.s(1, 1))
    if not report.converged:
        return False, f"transport verdict {report.verdict}"
    if report.limit_polynomial() != CenterPoly.constant(1, 1):
        return False, "transport limit is not 1"
    if report.matches_standard is not True:
        return False, "limit does not match the standard bracket"
    # the independent numeric oracle for the nonconstant coefficient
    def oracle(level: int) -> float:
        q = cmath.exp(2j * math.pi / level)
        fact = 1.0 + 0j
        for k in range(1, level):
            fact *= sum(q ** j for j in range(k))
        return abs(level * (q - 1) / fact)

    if abs(oracle(11) - 1.8e-3) > 1e-4:
        return False, f"oracle magnitude at l=11 is {oracle(11):.3e}, expected ~1.8e-3"
    primes = [11, 13, 17, 19, 23, 29, 31]
    sr = ((1,), (1,))
    mags = []
    final_dev = None
    for level in primes:
        poly = transported_bracket(CenterPoly.r(1, 1), CenterPoly.s(1, 1), level)
        c = poly.coeffs.get(sr)
        mags.append(abs(embed(c)) if c is not None else 0.0)
        if level == 31:
            emb = poly.embed()
            dev = 0.0
            for mono, val in emb.coeffs.items():
                target = 1.0 if mono == (((0,), (0,))) else 0.0
                dev = max(dev, abs(val - target))
            final_dev = dev
    if abs(mags[0] - oracle(11)) > 1e-9:
        return False, "machinery and oracle disagree at l=11"
    if not all(mags[k] > mags[k + 1] for k in range(len(mags) - 1)):
        return False, f"magnitudes not strictly decreasing: {mags}"
    if final_dev is None or final_dev >= 1e-8:
        return False, f"deviation from 1 at l=31 is {final_dev}"
    return True, (
        f"limit 1; |sr| at 11 = {mags[0]:.3e}, decreasing to {mags[-1]:.3e}; "
        f"deviation at 31 = {final_dev:.2e}"
    )


def criterion_twisted_power_identity() -> Tuple[bool, str]:
    checked = 0
    for level in (3, 5, 7, 11, 13):
        ctx = AlgebraContext.root_of_unity(1, level)
        f = f_element(ctx)
        fcl = f_power_closed_form(ctx)
        for m in (0, 1, 2):
            if level <= m + 1:
                continue
            xm = ctx.monomial((m,), (0,))
            for lam in (Fraction(1), Fraction(1, 2), Fraction(2)):
                base = ctx.d(1) + mul(xm, f).scale(lam)
                lhs = power(base, level)
                rhs = ctx.monomial((0,), (level,)) + mul(
                    ctx.monomial((m * level,), (0,)), fcl
                ).scale(lam ** level)
                if lhs != rhs:
                    return False, f"l={level}, m={m}, lambda={lam}: expansion mismatch"
                checked += 1
    return True, f"{checked} (prime, m, lambda) instances, exact"


def criterion_hat_limits() -> Tuple[bool, str]:
    ctx = AlgebraContext.symbolic(1)
    for m in (0, 1, 2):
        result = hat_endo(lift_phi(ctx, {m: 1}))
        if not result.converged or result.induced is None:
            return False, f"m={m}: hat transport did not converge"
        expected_r = CenterPoly.r(1, 1) + CenterPoly.monomial(1, (0,), (m,))
        if result.induced["r1"] != expected_r:
            return False, f"m={m}: r-limit is not r + s^{m}"
        if result.induced["s1"] != CenterPoly.s(1, 1):
            return False, f"m={m}: s-limit moved"
    half = lift_phi(ctx, {0: Fraction(1, 2)})
    squared = compose(half, half)
    result = hat_endo(squared)
    if not result.converged or result.induced is None:
        return False, "composite of half-translations did not converge"
    if result.induced["r1"] != CenterPoly.r(1, 1) or result.induced["s1"] != CenterPoly.s(1, 1):
        return False, "composite limit is not the identity"
    doubled = hat_endo(lift_phi(ctx, {0: Fraction(2)}))
    if doubled.converged:
        return False, "doubling lift unexpectedly converged"
    if doubled.reports["r1"].verdict != "diverged":
        return False, f"r-coordinate verdict {doubled.reports['r1'].verdict}"
    return True, "limits r + s^m (m=0,1,2); composite -> identity; lambda=2 diverges"


def criterion_prime_necessity() -> Tuple[bool, str]:
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {1: 1})
    const = ((0,), (0,))
    # matched small ranges on both sides; only the constant coefficient's
    # trajectory is at stake here
    prime_report = hat(e, CenterPoly.r(1, 1), (3, 5, 7, 11, 13))
    prime_traj = prime_report.trajectories.get(const)
    if prime_traj is None:
        prime_traj = [0j] * len(prime_report.levels)
    if any(abs(v) > 1e-12 for v in prime_traj):
        return False, "constant coefficient is nonzero along primes"
    if not is_stable(prime_traj):
        return False, "prime-level constant trajectory fails the stability window"
    even_report = hat(e, CenterPoly.r(1, 1), [4, 6, 8, 10, 12])
    even_traj = even_report.trajectories.get(const)
    if even_report.failed_levels:
        return True, f"even levels fail centrality at {even_report.failed_levels}"
    if even_traj is None:
        return False, "constant coefficient absent along even levels"
    if is_stable(even_traj):
        return False, f"even-level constant trajectory unexpectedly stable: {even_traj}"
    mags = [abs(v) for v in even_traj]
    return True, (
        f"prime constant term 0; even-level constant magnitudes "
        f"{', '.join(f'{v:.3g}' for v in mags)} fail the stability window"
    )


def criterion_azumaya_vs_burnside() -> Tuple[bool, str]:
    grid = [Fraction(0), Fraction(1, 4), Fraction(1)]
    points = [(a, b) for a in grid for b in grid]
    result = cross_check(2, points)
    if not result["all_agree"]:
        return False, f"disagreement on the exact l=2 grid: {result}"
    rng = random.Random(909)
    total = 0
    for level in (3, 5):
        def point():
            return Cyclo(level, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                 for _ in range(level - 1)]) or Cyclo.one(level)

        pts = [(point(), point()) for _ in range(9)]
        boundary_a = point()
        pts.append((boundary_a, (1 - Cyclo.zeta(level)) ** -level / boundary_a))
        pts.append((Fraction(0), point()))
        res = cross_check(level, pts)
        if not res["all_agree"] or res["points"][-2]["full"]:
            return False, f"disagreement at l={level}: {res}"
        total += len(pts)
    return True, f"9 exact grid points at l=2 plus {total} exact points of Q(zeta_l) at l=3,5"


def criterion_center_preservation() -> Tuple[bool, str]:
    ctx = AlgebraContext.symbolic(1)
    polys = [
        {0: 1},
        {1: 1},
        {2: 1},
        {0: 1, 1: 1},
        {1: 1, 2: 1},
        {0: 1, 1: 1, 2: 1},
    ]
    lifts = [lift_phi(ctx, p) for p in polys] + [lift_psi(ctx, p) for p in polys]
    failures = []
    for level in (3, 5, 7, 11):
        for k, e in enumerate(lifts):
            if not check_center_preservation(e, level):
                failures.append((k, level))
    if failures:
        return False, f"center preservation failed at {failures}"
    return True, f"{len(lifts)} lifts x primes 3,5,7,11 all preserve the center"


def criterion_divisibility_oracle() -> Tuple[bool, str]:
    rng = random.Random(1111)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        n = 1 if checked % 3 else 2
        ctx = AlgebraContext.symbolic(n)
        i = 1 + (checked % n)
        a = _random_element(rng, ctx, max_terms=3, max_exp=2, degree_cap=3)
        if not a or divisible_by_f(a, i):
            continue  # insist on an f-free witness, certified by the quotient map
        if not divisible_by_f(mul(f_i(ctx, i), a), i):
            return False, f"left product by f{i} not detected as divisible"
        if not divisible_by_f(mul(a, f_i(ctx, i)), i):
            return False, f"right product by f{i} not detected as divisible"
        checked += 1
    if checked < 50:
        return False, f"could not assemble 50 f-free witnesses ({checked})"
    ctx1 = AlgebraContext.symbolic(1)
    if divisible_by_f(ctx1.one(), 1):
        return False, "1 reported divisible by f"
    if not divisible_by_f(f_element(ctx1), 1):
        return False, "f not reported divisible by itself"
    return True, "50 f-free witnesses, two-sided products detected, 1 excluded"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    number: int
    slug: str
    budget_seconds: float
    fn: Callable[[], Tuple[bool, str]]


CRITERIA: Tuple[Criterion, ...] = (
    Criterion(1, "pbw-ring-axioms", 10.0, criterion_pbw_ring_axioms),
    Criterion(2, "f-power-closed-form", 30.0, criterion_f_power_closed_form),
    Criterion(3, "divided-bracket-closed-form", 60.0, criterion_divided_bracket_closed_form),
    Criterion(4, "poisson-axioms", 120.0, criterion_poisson_axioms),
    Criterion(5, "bracket-transport", 60.0, criterion_bracket_transport),
    Criterion(6, "twisted-power-identity", 120.0, criterion_twisted_power_identity),
    Criterion(7, "hat-limits", 180.0, criterion_hat_limits),
    Criterion(8, "prime-necessity", 60.0, criterion_prime_necessity),
    Criterion(9, "azumaya-vs-burnside", 60.0, criterion_azumaya_vs_burnside),
    Criterion(10, "center-preservation", 120.0, criterion_center_preservation),
    Criterion(11, "divisibility-oracle", 30.0, criterion_divisibility_oracle),
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    slug: str
    passed: bool
    seconds: float
    detail: str


def run_criterion(c: Criterion) -> CriterionResult:
    start = time.perf_counter()
    try:
        ok, detail = c.fn()
    except Exception as exc:  # honest failure beats a crash mid-sweep
        elapsed = time.perf_counter() - start
        return CriterionResult(c.number, c.slug, False, elapsed, f"exception: {exc!r}")
    elapsed = time.perf_counter() - start
    if ok and elapsed > c.budget_seconds:
        return CriterionResult(
            c.number, c.slug, False, elapsed,
            f"{detail} [exceeded {c.budget_seconds:.0f}s budget]",
        )
    return CriterionResult(c.number, c.slug, ok, elapsed, detail)


def run_all(numbers: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    selected = [c for c in CRITERIA if numbers is None or c.number in numbers]
    return [run_criterion(c) for c in selected]
