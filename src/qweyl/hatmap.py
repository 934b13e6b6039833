"""Prime-limit transport of endomorphisms to the commutative model.

For each level l in a schedule the endomorphism is read at the principal
l-th root zeta_l, conjugated through the center isomorphism, and the
resulting polynomial's complex-embedded coefficients are tracked as
trajectories.  The generator images are put in the quantum torus once per
schedule, over Q(t), and each level only evaluates their coefficients at
zeta_l (torus.specialize_torus).  A trajectory family converges when the
supports stabilize and the last three values of every surviving coefficient
agree to EPS_CONV; converged limits are rounded to nearby small rationals so
integrality of the limit endomorphism is checkable without being assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .center import CenterPoly
from .morphisms import Endomorphism, check_substituted_degree, specialize_endomorphism
from .poisson import standard_bracket, transported_bracket
from .scalars import _check_level, _sparse_power, embed as _embed
from .torus import Torus, central_power, specialize_torus, to_torus, torus_power_cost
from .weylcore import (DEFAULT_DEGREE_LIMIT, POWER_COST_LIMIT, ROOT, SYMBOLIC, DegreeLimitExceeded,
                       WeylElement)

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


def hat_step(e: Endomorphism, p: CenterPoly, level: int,
             tori: Optional[Dict[str, Torus]] = None) -> Union[CenterPoly, CentralityFailure]:
    """Specialize at the level, push p through the center isomorphism, apply,
    and decompose; a missing decomposition is returned as data, because
    center preservation is only guaranteed for almost every root.  e may
    also be a map at the level's principal root (specialize_endomorphism,
    or make_endomorphism in that context), which is then used as it is.

    The image of theta(p) is p with r_i and s_i replaced by the center
    polynomials of e(d_i)^l and e(x_i)^l, raised and read in the quantum
    torus (torus.central_power), with no normal ordering: an image of one
    or two torus terms is raised in closed form (the q-binomial theorem);
    at one pair, an image A + B f linear in f, as d1 of every lift_phi and
    x1 of every lift_psi at every level (for a map given at its root, at a
    prime-power level or l = 6), by its reduced norm, a^l = A^l + N(B) f^l;
    of other images of three or more terms, at one pair and a prime level the
    chain stops at the power l - floor(l/2), centrality is decided exactly
    by reduced traces and the l-th power's central terms are read by
    contraction; elsewhere the chain runs to the l-th power.
    When one is not central, the level fails and names its generator.
    Their powers in p are taken by the routine CenterPoly.__pow__ runs
    (scalars._sparse_power), without its guard: hat refuses before the
    first level runs, and its degree guard (_guarded_tori) bounds them.
    tori holds the images' torus forms, guarded, as hat and hat_endo make
    them before the first level runs; without it, hat_step makes its own,
    for a symbolic e by evaluating the images' forms over Q(t) at the level
    (_symbolic_forms, _guarded_tori), and for a map given at its root by
    converting its images there (torus.to_torus)."""
    ctx = e.context
    at_level = ctx.kind == ROOT and ctx.level == level and ctx.qpow == 1
    if ctx.kind != SYMBOLIC and not at_level:
        raise ValueError("transport needs a symbolic endomorphism")
    if p.n != ctx.n:
        raise ValueError("polynomial arity mismatch")
    if level < 2:
        raise ValueError("need level >= 2")
    e_l = e if at_level else specialize_endomorphism(e, level)
    if tori is None:
        tori = _guarded_tori(e_l, p, level, None if at_level else _symbolic_forms(e, [p]))
    powers = {}
    for name, t in tori.items():
        powers[name] = central_power(t)
        if powers[name] is None:
            return CentralityFailure(
                level, f"the {level}-th power of the image of {name} is not central")
    n = p.n
    one = CenterPoly.constant(n, e_l.context.one_scalar())
    out = CenterPoly.zero(n)
    for (a, b), c in p.coeffs.items():
        term = one.scale(c)
        for i in range(n):
            for name, k in ((f"d{i + 1}", a[i]), (f"x{i + 1}", b[i])):
                if k:
                    term = term * _sparse_power(powers[name], k, one, len(powers[name].coeffs))
        out = out + term
    return out


def _guarded_tori(e_l: Endomorphism, p: CenterPoly, level: int,
                  forms: Optional[Dict[str, Torus]]) -> Dict[str, Torus]:
    """The torus forms of the images whose l-th powers hat_step substitutes
    into p, by generator name: d_i's for r_i, x_i's for s_i.  forms holds
    those images' forms over Q(t) (_symbolic_forms), which are evaluated at
    the level (torus.specialize_torus); without it, as for a map given at
    its root, e_l's own images are converted there (torus.to_torus).
    Refuses first (DegreeLimitExceeded) a substitution into theta(p) over
    the degree guard, read off p's monomials scaled by the level
    (r_i -> d_i^l, s_i -> x_i^l) and e_l's images with no element built,
    and then a power whose chain estimates (torus.torus_power_cost), on
    the level's form, over POWER_COST_LIMIT: on lift_phi(x1^2), d1's is
    4.1M at level 53, 20.0M at 79 and 32.1M at 89.
    The estimate is of the chain to the l-th power, so it overstates the
    work where central_power runs less: on an image of one or two torus
    terms, which it raises in closed form with no chain (d1's of
    lift_phi(2), 1.03M at level 101); on an image A + B f at one pair,
    raised by its reduced norm with no chain (d1's of lift_phi(x1^2),
    refused at level 89, takes about 0.02 s there); and at one pair and a
    prime level, where it stops at about half of the chain."""
    check_substituted_degree(e_l.images_x, e_l.images_d, [
        (tuple(level * e for e in b), tuple(level * e for e in a)) for a, b in p.coeffs])
    tori = {name: to_torus(image) if forms is None else specialize_torus(forms[name], e_l.context)
            for name, image in _substituted(e_l, p).items()}
    for name, t in tori.items():
        cost = torus_power_cost(t, level)
        if cost > POWER_COST_LIMIT:
            raise DegreeLimitExceeded(
                f"torus power chain of the image of {name} at level {level} of "
                f"estimated cost {cost} exceeds the guard {POWER_COST_LIMIT}")
    return tori


def _substituted(e: Endomorphism, p: CenterPoly) -> Dict[str, WeylElement]:
    """The images of e whose l-th powers hat_step substitutes into p, by
    generator name: d_i's where p has r_i, x_i's where it has s_i."""
    images = {}
    for i in range(p.n):
        if any(a[i] for a, _ in p.coeffs):
            images[f"d{i + 1}"] = e.images_d[i]
        if any(b[i] for _, b in p.coeffs):
            images[f"x{i + 1}"] = e.images_x[i]
    return images


def _symbolic_forms(e: Endomorphism, polys) -> Dict[str, Torus]:
    """The torus forms over Q(t) (torus.to_torus) of the images of a
    symbolic e that hat_step substitutes into any of polys, by generator
    name: each built once, for every level (_guarded_tori)."""
    images = {}
    for p in polys:
        images.update(_substituted(e, p))
    return {name: to_torus(image) for name, image in images.items()}


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
    hat_step would refuse the substitution or the power (_guarded_tori)."""
    return _transport(e, {"p": p}, _schedule_levels(schedule))["p"]


def _transport(e: Endomorphism, polys: Dict[str, CenterPoly],
               levels: Sequence[int]) -> Dict[str, ConvergenceReport]:
    """The report of hat_step on each polynomial over the levels.  The
    images the polynomials substitute are put in the torus once, over Q(t)
    (_symbolic_forms), for the whole call.  Then each level is specialized,
    for the degree guard, and the forms are evaluated at it and guarded
    (_guarded_tori), once per level, every level before the first one runs."""
    if e.context.kind != SYMBOLIC:
        raise ValueError("transport needs a symbolic endomorphism")
    if any(p.n != e.context.n for p in polys.values()):
        raise ValueError("polynomial arity mismatch")
    forms = _symbolic_forms(e, polys.values())
    specialized = [specialize_endomorphism(e, level) for level in levels]
    tori = [{k: _guarded_tori(e_l, p, level, forms) for k, p in polys.items()}
            for e_l, level in zip(specialized, levels)]
    return {k: _assemble_report(p, levels, [(level, hat_step(e_l, p, level, t[k]))
                                            for level, e_l, t in zip(levels, specialized, tori)])
            for k, p in polys.items()}


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


def _coordinates(n: int) -> Dict[str, CenterPoly]:
    return {f"{v}{i}": make(n, i) for i in range(1, n + 1)
            for v, make in (("r", CenterPoly.r), ("s", CenterPoly.s))}


def hat_endo(e: Endomorphism, schedule: ScheduleLike = None) -> HatEndoReport:
    """Transport every coordinate polynomial; converged iff all converge.

    When all coordinates converge to exact real-rational limits, the induced
    endomorphism of the polynomial ring is assembled.
    """
    reports = _transport(e, _coordinates(e.context.n), _schedule_levels(schedule))
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
    read in the quantum torus, as hat_step reads it (torus.central_power),
    from the images' forms over Q(t) evaluated at the level
    (_symbolic_forms), after hat_step's guards (_guarded_tori).
    The relations need no check: e was certified where it was built, and
    specialization keeps them."""
    e_l = specialize_endomorphism(e, level)
    coordinates = _coordinates(e.context.n).values()
    forms = _symbolic_forms(e, coordinates)
    return all(central_power(t) is not None
               for p in coordinates for t in _guarded_tori(e_l, p, level, forms).values())


def transport_limit(p: CenterPoly, q: CenterPoly,
                    schedule: ScheduleLike = None) -> ConvergenceReport:
    """Bracket transport over the schedule, compared against the standard
    symplectic bracket when a rounded exact limit exists.

    Refuses, before the first level runs, a schedule whose largest level l
    would give the product of the lifts of p and q a Bernstein degree
    l * (deg p + deg q) over the guard DEFAULT_DEGREE_LIMIT (512)."""
    levels = _schedule_levels(schedule)
    degree = levels[-1] * (p.total_degree() + q.total_degree())
    if degree > DEFAULT_DEGREE_LIMIT:
        raise DegreeLimitExceeded(f"bracket of lifts of degree {degree} at level {levels[-1]} "
                                  f"exceeds the guard {DEFAULT_DEGREE_LIMIT}")
    results = [(level, transported_bracket(p, q, level)) for level in levels]
    return _assemble_report(p, levels, results, standard_bracket(p, q))
