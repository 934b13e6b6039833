"""Output checks for the benchmark workloads, computed apart from qweyl.

Every check compares a qweyl result with a closed form derived by hand and
evaluated here with plain integers, fractions and complex floats, or with a
property the method must have.  None compares with stored qweyl output.
Only raw data is read from qweyl objects: coefficient vectors, exponent
dictionaries, verdict strings and limit tables.

Each check returns a list of problems; an empty list means the output is
right.  A qweyl call made while checking that raises is reported as
OperationFailed, so a fault of the program is counted apart from a wrong
value.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Tuple

# the schedule hat_endo and transport_limit use when given none
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]
ONE: Mono = ((0,), (0,))
R1: Mono = ((1,), (0,))
S1: Mono = ((0,), (1,))
S1_SQUARED: Mono = ((0,), (2,))
R1S1: Mono = ((1,), (1,))


class OperationFailed(Exception):
    """qweyl raised while one of its outputs was being checked."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _is_one(c) -> bool:
    """True iff a cyclotomic coefficient is exactly 1."""
    return c.den == 1 and c.num[0] == 1 and not any(c.num[1:])


def _levels_and_failures(report, levels) -> List[str]:
    problems = []
    got = tuple(level for level, _ in report.results)
    if got != tuple(levels):
        problems.append(f"levels {got}, expected {tuple(levels)}")
    for level, res in report.results:
        if not hasattr(res, "coeffs"):
            problems.append(f"centrality failure at l={level}")
    if report.failed_levels:
        problems.append(f"failed levels {report.failed_levels}")
    return problems


def _limit_is(report, expected: Dict[Mono, int]) -> List[str]:
    if report.verdict != "converged":
        return [f"verdict {report.verdict!r}, expected 'converged'"]
    got = {mono: lc.exact for mono, lc in report.limit.items()}
    want = {mono: (Fraction(v), Fraction(0)) for mono, v in expected.items()}
    if got != want:
        return [f"limit {got}, expected {want}"]
    return []


# ---------------------------------------------------------------------------
# hat: prime-limit transport of the lifts of d -> d + F(x)
# ---------------------------------------------------------------------------


def fixed_coordinate(report, levels=PRIMES) -> List[str]:
    """The lifts fix x, so s1 = x^l is exactly s1 at every level."""
    problems = _levels_and_failures(report, levels)
    for level, res in report.results:
        coeffs = getattr(res, "coeffs", {})
        if set(coeffs) != {S1} or not _is_one(coeffs[S1]):
            problems.append(f"s1 image at l={level} is not exactly s1")
    return problems + _limit_is(report, {S1: 1})


def converges_to(report, expected: Dict[Mono, int], levels=PRIMES) -> List[str]:
    """Converged on every level of the schedule to the expected polynomial."""
    return _levels_and_failures(report, levels) + _limit_is(report, expected)


def diverges(report, levels=PRIMES) -> List[str]:
    """Diverged (acceptance criterion 7), with no centrality failure."""
    problems = _levels_and_failures(report, levels)
    if report.verdict != "diverged":
        problems.append(f"verdict {report.verdict!r}, expected 'diverged'")
    return problems


# ---------------------------------------------------------------------------
# transport: the Poisson bracket carried through the center isomorphism
# ---------------------------------------------------------------------------


def _cyclic_mul(a: List[int], b: List[int], level: int) -> List[int]:
    out = [0] * level
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[(i + j) % level] += ai * bj
    return out


def _quantum_factorial(level: int) -> List[int]:
    """prod_{k<l} [k]_q as a vector mod z^l - 1."""
    acc = [1] + [0] * (level - 1)
    for k in range(1, level):
        acc = _cyclic_mul(acc, [1] * k + [0] * (level - k), level)
    return acc


def bracket_closed_form(level: int, c) -> List[str]:
    """c * prod_{k<l} [k]_q == l (q - 1) in Q(zeta_l), l prime.

    Products are taken mod z^l - 1.  For prime l the kernel of
    Z[z]/(z^l - 1) -> Z[zeta_l] is spanned by 1 + z + ... + z^(l-1), so
    the two sides agree iff their difference has all entries equal.
    """
    num = list(c.num) + [0] * (level - len(c.num))
    lhs = _cyclic_mul(num, _quantum_factorial(level), level)
    rhs = [0] * level
    rhs[0], rhs[1] = -level * c.den, level * c.den
    diff = {x - y for x, y in zip(lhs, rhs)}
    return [] if len(diff) == 1 else [f"c * [l-1]_q! != l(q-1) at l={level}"]


def bracket_modulus(level: int) -> float:
    """|l (q - 1) / prod_{k<l} [k]_q| in plain complex floats."""
    q = cmath.exp(2j * cmath.pi / level)
    prod = 1
    for k in range(1, level):
        prod *= sum(q ** j for j in range(k))
    return abs(level * (q - 1) / prod)


def bracket_transport(report, embed, levels=PRIMES) -> List[str]:
    """The (r1, s1) bracket is exactly 1 + c r1 s1 at each level, with c
    fixed by the closed form, |embed(c)| within 1e-9 of the float value,
    and the limit is the standard bracket 1."""
    problems = _levels_and_failures(report, levels)
    for level, res in report.results:
        coeffs = getattr(res, "coeffs", {})
        if not set(coeffs) <= {ONE, R1S1} or ONE not in coeffs or not _is_one(coeffs[ONE]):
            problems.append(f"bracket at l={level} is not 1 + c*r1*s1")
            continue
        if R1S1 not in coeffs:
            problems.append(f"bracket at l={level} has no r1*s1 term")
            continue
        c = coeffs[R1S1]
        problems += bracket_closed_form(level, c)
        want = bracket_modulus(level)
        got = abs(embed(c))
        if abs(got - want) > 1e-9 * want:
            problems.append(f"|embed(c)| = {got!r} at l={level}, float value {want!r}")
    return problems + _limit_is(report, {ONE: 1})


def leibniz(report_rs, report_r, levels=PRIMES) -> List[str]:
    """{r1 s1, s1} = s1 {r1, s1} at each level, and the limit is s1."""
    problems = _levels_and_failures(report_rs, levels)
    for (level, rs), (_, r) in zip(report_rs.results, report_r.results):
        if not (hasattr(rs, "coeffs") and hasattr(r, "coeffs")):
            continue
        want = {(a, (b[0] + 1,)): (c.num, c.den) for (a, b), c in r.coeffs.items()}
        got = {mono: (c.num, c.den) for mono, c in rs.coeffs.items()}
        if got != want:
            problems.append(f"{{r1*s1, s1}} != s1*{{r1, s1}} at l={level}")
    return problems + _limit_is(report_rs, {S1: 1})


# ---------------------------------------------------------------------------
# normalize: PBW normal forms at generic t
# ---------------------------------------------------------------------------


def _pair_coefficient(k: int, i: int, j: int, a: int, b: int) -> Fraction:
    """Coefficient of x^i d^j in (a x + b d)^k when d x = x d + 1.

    From e^{s(ax+bd)} = e^{sax} e^{sbd} e^{s^2 ab/2}:
    k! a^i b^j (ab)^m / (i! j! m! 2^m) with i + j + 2m = k.
    """
    rest = k - i - j
    if rest < 0 or rest % 2:
        return Fraction(0)
    m = rest // 2
    return Fraction(factorial(k) * a ** i * b ** j * (a * b) ** m,
                    factorial(i) * factorial(j) * factorial(m) * 2 ** m)


def closed_form_one_pair(k: int, a: int, b: int) -> Dict[Mono, Fraction]:
    """(b d1 + a x1)^k at t = 1, as {((i,), (j,)): coefficient}."""
    out = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            c = _pair_coefficient(k, i, j, a, b)
            if c:
                out[((i,), (j,))] = c
    return out


def closed_form_two_pairs(k: int) -> Dict[Mono, Fraction]:
    """(d1 + x1 + d2 + x2)^k at t = 1.  The pairs commute, so the
    coefficient sums C(k, k1) times one-pair terms over the split of k."""
    out: Dict[Mono, Fraction] = {}
    for k1 in range(k + 1):
        first = closed_form_one_pair(k1, 1, 1)
        second = closed_form_one_pair(k - k1, 1, 1)
        for ((i1,), (j1,)), c1 in first.items():
            for ((i2,), (j2,)), c2 in second.items():
                key = ((i1, i2), (j1, j2))
                out[key] = out.get(key, Fraction(0)) + comb(k, k1) * c1 * c2
    return out


def at_t_one(terms) -> Dict[Mono, Fraction]:
    """Each Laurent coefficient replaced by the sum of its coefficients."""
    out = {}
    for mono, c in terms.items():
        value = sum(map(Fraction, c.coeffs.values()), Fraction(0))
        if value:
            out[mono] = value
    return out


def closed_form(element, expected: Dict[Mono, Fraction]) -> List[str]:
    got = at_t_one(element.terms)
    if got == expected:
        return []
    wrong = sorted(set(got) ^ set(expected) | {m for m in got if got[m] != expected.get(m)})
    return [f"{len(wrong)} coefficients differ from the t=1 closed form, first {wrong[0]}"]


def round_trip(element, text: str, parse_weyl) -> List[str]:
    """parse_weyl(print_weyl(a)) == a."""
    try:
        back = parse_weyl(text, element.context)
    except Exception as err:  # any qweyl error is a failed operation
        raise OperationFailed(f"parse_weyl of the printed form raised {type(err).__name__}") from err
    return [] if back == element else ["printed form parses to a different element"]
