"""Prime-limit transport of endomorphisms to the commutative model.

For each level l in a schedule the endomorphism is specialized at the
principal l-th root zeta_l, conjugated through the center isomorphism, and the
resulting polynomial's complex-embedded coefficients are tracked as
trajectories.  A trajectory family converges when the supports stabilize and
the last three values of every surviving coefficient agree to EPS_CONV;
converged limits are rounded to nearby small rationals so integrality of the
limit endomorphism is checkable without being assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .center import CenterPoly, NotCentralError, theta, theta_inverse
from .morphisms import (
    Endomorphism,
    apply_endo,
    check_apply_cost,
    specialize_endomorphism,
)
from .poisson import standard_bracket, transported_bracket
from .scalars import _check_level, _power, embed as _embed
from .torus import central_power
from .weylcore import ROOT, SYMBOLIC, DegreeLimitExceeded, _degree_limit, power, specialize_element

__all__ = [
    "CentralityFailure",
    "ConvergenceReport",
    "HatEndoReport",
    "hat_step",
    "hat",
    "hat_endo",
    "check_center_preservation",
    "transport_limit",
    "EPS_CONV",
    "EPS_KILL",
    "ROUND_TOL",
    "MAX_ROUND_DEN",
    "DEFAULT_PRIMES",
]

EPS_CONV = 1e-6       # last-three stability window
EPS_KILL = 1e-9       # coefficients below this at the last two levels vanish
ROUND_TOL = 1e-6      # distance to a small rational that justifies rounding
MAX_ROUND_DEN = 64

# Largest default level keeps exact expansion sizes comfortably bounded.
DEFAULT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_CENTRALITY_FAILED = "centrality-failed"


ScheduleLike = Optional[Sequence[int]]


def _schedule_levels(schedule: ScheduleLike) -> List[int]:
    """The levels of a schedule: DEFAULT_PRIMES for None, else the given
    distinct ascending levels >= 2, at least three of them, none above
    scalars.MAX_LEVEL."""
    if schedule is None:
        return list(DEFAULT_PRIMES)
    levels = [int(v) for v in schedule]
    if levels != sorted(set(levels)) or any(v < 2 for v in levels):
        raise ValueError("levels must be distinct, ascending, and >= 2")
    if len(levels) < 3:
        raise ValueError("the stability criterion needs at least three levels")
    _check_level(levels[-1])
    return levels


@dataclass(frozen=True)
class CentralityFailure:
    """Recorded when the transported image has no central decomposition."""

    level: int
    reason: str


Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class LimitCoeff:
    """Rounded limiting coefficient: exact (re, im) rational pair when the
    rounding tolerance justifies it, always the raw complex value."""

    exact: Optional[Tuple[Fraction, Fraction]]
    approx: complex

    def exact_text(self) -> Optional[str]:
        if self.exact is None:
            return None
        re, im = self.exact
        if im == 0:
            return str(re)
        return f"{re}{'+' if im >= 0 else '-'}{abs(im)}*i"


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-level polynomials, coefficient trajectories, and the verdict;
    `standard` and `matches_standard` are set for bracket transports."""

    n: int
    poly: CenterPoly
    levels: Tuple[int, ...]
    results: Tuple[Tuple[int, Union[CenterPoly, CentralityFailure]], ...]
    failed_levels: Tuple[int, ...]
    trajectories: Dict[Mono, List[complex]]
    verdict: str
    witness: Optional[Mono]
    limit: Dict[Mono, LimitCoeff]
    standard: Optional[CenterPoly] = None
    matches_standard: Optional[bool] = None

    @property
    def converged(self) -> bool:
        return self.verdict == VERDICT_CONVERGED

    def limit_polynomial(self) -> Optional[CenterPoly]:
        """The rounded limit as an exact polynomial, when every coefficient
        rounded to a real rational; None otherwise."""
        if self.verdict != VERDICT_CONVERGED:
            return None
        return _limit_polynomial(self.n, self.limit)

    def limit_expr(self) -> Optional[str]:
        from .exprio import print_center

        poly = self.limit_polynomial()
        return None if poly is None else print_center(poly)

    def to_json(self) -> dict:
        from .exprio import print_center

        per_level = []
        for level, res in self.results:
            entry: dict = {"l": level}
            if isinstance(res, CentralityFailure):
                entry["centrality"] = False
                entry["reason"] = res.reason
            else:
                entry["centrality"] = True
                entry["coeffs"] = [
                    {
                        "monomial": [list(mono[0]), list(mono[1])],
                        "exact": str(res.coeffs[mono]),
                        "approx": _reim(_embed(res.coeffs[mono])),
                    }
                    for mono in sorted(res.coeffs)
                ]
            per_level.append(entry)
        out = {
            "poly": print_center(self.poly),
            "primes": per_level,
            "verdict": self.verdict,
            "tolerances": {
                "eps_conv": EPS_CONV,
                "eps_kill": EPS_KILL,
                "round_tol": ROUND_TOL,
                "max_round_den": MAX_ROUND_DEN,
            },
        }
        if self.witness is not None:
            out["witness"] = [list(self.witness[0]), list(self.witness[1])]
        if self.failed_levels:
            out["failed_levels"] = list(self.failed_levels)
        if self.verdict == VERDICT_CONVERGED:
            out["limit"] = {
                "expr": self.limit_expr(),
                "coeffs": [
                    {
                        "monomial": [list(mono[0]), list(mono[1])],
                        "exact": lc.exact_text(),
                        "approx": _reim(lc.approx),
                    }
                    for mono, lc in sorted(self.limit.items())
                ],
            }
        else:
            out["limit"] = None
        if self.standard is not None:
            out["standard"] = print_center(self.standard)
            out["matches_standard"] = self.matches_standard
        return out


def _limit_polynomial(n: int, limit: Dict[Mono, LimitCoeff]) -> Optional[CenterPoly]:
    coeffs = {}
    for mono, lc in limit.items():
        if lc.exact is None or lc.exact[1] != 0:
            return None
        coeffs[mono] = lc.exact[0]
    return CenterPoly(n, coeffs)


def _reim(c: complex) -> List[float]:
    return [c.real, c.imag]


# ---------------------------------------------------------------------------
# single transport step
# ---------------------------------------------------------------------------


def hat_step(e: Endomorphism, p: CenterPoly,
             level: int) -> Union[CenterPoly, CentralityFailure]:
    """Specialize at the level, push p through the center isomorphism, apply,
    and decompose; a missing decomposition is returned as data, because
    center preservation is only guaranteed for almost every root.  e may
    also be the specialization at the level (specialize_endomorphism), which
    is then used as it is: hat_endo specializes once for every coordinate.

    The image of theta(p) is p with r_i and s_i replaced by the center
    polynomials of e(d_i)^l and e(x_i)^l, which are raised and read in the
    quantum torus (torus.central_power), with no normal ordering.  Before
    that, check_apply_cost refuses what apply_endo would.  When one of those
    powers is not central, the image is made by apply_endo, and
    theta_inverse gives the result or the reason it has none."""
    ctx = e.context
    at_level = ctx.kind == ROOT and ctx.level == level and ctx.qpow == 1
    if ctx.kind != SYMBOLIC and not at_level:
        raise ValueError("transport needs a symbolic endomorphism")
    if p.n != ctx.n:
        raise ValueError("polynomial arity mismatch")
    if level < 2:
        raise ValueError("need level >= 2")
    e_l = e if at_level else specialize_endomorphism(e, level)
    if not e_l.validated:
        return CentralityFailure(level, "specialized map violates the relations")
    image = theta(p, level)
    check_apply_cost(e_l.images_x, e_l.images_d, image)
    n = p.n
    powers = {}
    for a, b in p.coeffs:
        for i in range(n):
            if a[i] and ("r", i) not in powers:
                powers["r", i] = central_power(e_l.images_d[i])
            if b[i] and ("s", i) not in powers:
                powers["s", i] = central_power(e_l.images_x[i])
    if None in powers.values():
        try:
            return theta_inverse(apply_endo(e_l, image))
        except NotCentralError as err:
            return CentralityFailure(level, str(err))
    one = CenterPoly.constant(n, e_l.context.one_scalar())
    out = CenterPoly.zero(n)
    for (a, b), c in p.coeffs.items():
        term = one.scale(c)
        for i in range(n):
            if a[i]:
                term = term * _power(powers["r", i], a[i], one)
            if b[i]:
                term = term * _power(powers["s", i], b[i], one)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# convergence machinery
# ---------------------------------------------------------------------------


def is_stable(values: Sequence[complex]) -> bool:
    """Last-three stability: both earlier values within EPS_CONV of the last."""
    if len(values) < 3:
        return False
    last = values[-1]
    return abs(values[-2] - last) < EPS_CONV and abs(values[-3] - last) < EPS_CONV


def _round_component(x: float) -> Optional[Fraction]:
    for den in range(1, MAX_ROUND_DEN + 1):
        num = round(x * den)
        if abs(x - num / den) <= ROUND_TOL:
            return Fraction(num, den)
    return None


def round_coefficient(c: complex) -> LimitCoeff:
    re = _round_component(c.real)
    im = _round_component(c.imag)
    if re is not None and im is not None:
        return LimitCoeff((re, im), c)
    return LimitCoeff(None, c)


def _assemble_report(poly: CenterPoly, levels: Sequence[int], results,
                     standard: Optional[CenterPoly] = None) -> ConvergenceReport:
    """Judge the per-level results; with a standard bracket, also whether
    the rounded limit equals it."""
    good_polys = []
    failed = []
    for level, res in results:
        if isinstance(res, CentralityFailure):
            failed.append(level)
        else:
            good_polys.append(res)

    support = set()
    for gp in good_polys:
        support.update(gp.coeffs)
    trajectories: Dict[Mono, List[complex]] = {
        mono: [_embed(gp.coeffs[mono]) if mono in gp.coeffs else 0j for gp in good_polys]
        for mono in support
    }

    witness = None
    limit: Dict[Mono, LimitCoeff] = {}
    if len(good_polys) < 3:
        verdict = VERDICT_CENTRALITY_FAILED
    else:
        for mono in sorted(support):
            vals = trajectories[mono]
            if abs(vals[-1]) < EPS_KILL and abs(vals[-2]) < EPS_KILL:
                continue  # vanishing tail: excluded from the limit
            if not is_stable(vals):
                witness = mono
                break
            lc = round_coefficient(vals[-1])
            if lc.exact == (Fraction(0), Fraction(0)):
                continue  # rounds to zero: purge from the limit polynomial
            limit[mono] = lc
        if witness is None:
            verdict = VERDICT_CONVERGED
        else:
            verdict, limit = VERDICT_DIVERGED, {}

    matches = None
    if standard is not None and verdict == VERDICT_CONVERGED:
        lim = _limit_polynomial(poly.n, limit)
        matches = None if lim is None else lim == standard
    return ConvergenceReport(
        poly.n, poly, tuple(levels), tuple(results), tuple(failed), trajectories,
        verdict, witness, limit, standard, matches,
    )


def hat(e: Endomorphism, p: CenterPoly,
        schedule: ScheduleLike = None) -> ConvergenceReport:
    """Run the transport over the schedule and judge convergence.

    Refuses, before the first level runs, a schedule with a level at which
    apply_endo would refuse the substitution (_check_schedule_cost)."""
    levels = _schedule_levels(schedule)
    _check_schedule_cost(e, [p], levels)
    return _transport([e] * len(levels), p, levels)


def _transport(endos: Sequence[Endomorphism], p: CenterPoly,
               levels: Sequence[int]) -> ConvergenceReport:
    """The report of hat_step(endos[i], p, levels[i]) over the levels."""
    return _assemble_report(p, levels, [(level, hat_step(e, p, level))
                                        for e, level in zip(endos, levels)])


def _check_schedule_cost(e: Endomorphism, polys: Sequence[CenterPoly],
                         levels: Sequence[int]) -> None:
    """Raise DegreeLimitExceeded when hat_step of a polynomial at a level
    would be refused by apply_endo's guards (check_apply_cost).  The
    estimate of lift_phi(x1^2) on r1 is 3.0M at level 31, 24.7M at 53 and
    120M at 79, against POWER_COST_LIMIT = 25M.  The images are only
    specialized: the relations they satisfy do not change the estimate.

    The estimate is of the PBW power chain that apply_endo runs, while
    hat_step raises the images in the quantum torus, so it overstates the
    cost of hat_step: on a 2-core machine r1 on lift_phi(x1^2) took 0.18 s
    at level 53 in the torus, against 1.3 s by the PBW chain."""
    if e.context.kind != SYMBOLIC:
        raise ValueError("transport needs a symbolic endomorphism")
    if any(p.n != e.context.n for p in polys):
        raise ValueError("polynomial arity mismatch")
    for level in levels:
        xs = [specialize_element(img, level) for img in e.images_x]
        ds = [specialize_element(img, level) for img in e.images_d]
        for p in polys:
            check_apply_cost(xs, ds, theta(p, level))


@dataclass(frozen=True)
class HatEndoReport:
    """Transport of all 2n coordinates plus the composite verdict."""

    reports: Dict[str, ConvergenceReport]
    converged: bool
    induced: Optional[Dict[str, CenterPoly]]

    def to_json(self) -> dict:
        out = {
            "converged": self.converged,
            "coordinates": {k: r.to_json() for k, r in sorted(self.reports.items())},
        }
        if self.induced is not None:
            from .exprio import print_center

            out["induced"] = {k: print_center(v) for k, v in sorted(self.induced.items())}
        else:
            out["induced"] = None
        return out


def hat_endo(e: Endomorphism, schedule: ScheduleLike = None) -> HatEndoReport:
    """Transport every coordinate polynomial; converged iff all converge.

    When all coordinates converge to exact real-rational limits, the induced
    endomorphism of the polynomial ring is assembled.
    """
    n = e.context.n
    levels = _schedule_levels(schedule)
    coords = {}
    for i in range(1, n + 1):
        coords[f"r{i}"] = CenterPoly.r(n, i)
        coords[f"s{i}"] = CenterPoly.s(n, i)
    _check_schedule_cost(e, list(coords.values()), levels)
    specialized = [specialize_endomorphism(e, level) for level in levels]
    reports = {k: _transport(specialized, p, levels) for k, p in coords.items()}
    converged = all(r.converged for r in reports.values())
    induced = None
    if converged:
        polys = {k: r.limit_polynomial() for k, r in reports.items()}
        if all(v is not None for v in polys.values()):
            induced = polys
    return HatEndoReport(reports, converged, induced)


def check_center_preservation(e: Endomorphism, level: int) -> bool:
    """True iff the image of every generator's l-th power decomposes over
    the center at this level: the l-th power of each generator image is
    read in the quantum torus, as hat_step reads it (torus.central_power).
    check_apply_cost refuses first what apply_endo would."""
    e_l = specialize_endomorphism(e, level)
    if not e_l.validated:
        return False
    ctx = e_l.context
    for i in range(1, ctx.n + 1):
        for gen, image in ((ctx.x(i), e_l.images_x[i - 1]), (ctx.d(i), e_l.images_d[i - 1])):
            check_apply_cost(e_l.images_x, e_l.images_d, power(gen, level))
            if central_power(image) is None:
                return False
    return True


def transport_limit(p: CenterPoly, q: CenterPoly,
                    schedule: ScheduleLike = None) -> ConvergenceReport:
    """Bracket transport over the schedule, compared against the standard
    symplectic bracket when a rounded exact limit exists.

    Refuses, before the first level runs, a schedule whose largest level l
    would give the product of the lifts of p and q a Bernstein degree
    l * (deg p + deg q) over the guard (QWEYL_MAX_DEGREE, default 512)."""
    levels = _schedule_levels(schedule)
    degree = levels[-1] * (p.total_degree() + q.total_degree())
    limit = _degree_limit()
    if degree > limit:
        raise DegreeLimitExceeded(
            f"bracket of lifts of degree {degree} at level {levels[-1]} exceeds the guard {limit}"
        )
    results = [(level, transported_bracket(p, q, level)) for level in levels]
    return _assemble_report(p, levels, results, standard_bracket(p, q))
