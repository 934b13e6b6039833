"""Poisson bracket on the center via divided commutators of lifts.

The bracket of two central elements P, Q at a primitive l-th root q is the
normalizer lambda_q times the value at t = q of [P~, Q~]/(t - q), where P~
and Q~ are lifts to the generic algebra.  Since only the value and the first
divided difference at q survive, the commutator of lifts is computed over
first-order expansions around q; this is an exact homomorphic image of the
computation over the full Laurent ring and detects non-vanishing values the
same way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Tuple

from .center import CenterPoly, NotCentralError, is_central, theta, theta_inverse
from .scalars import Cyclo, Jet
from .weylcore import JET, ROOT, AlgebraContext, WeylElement, mul

__all__ = [
    "PoissonContext",
    "DivisionFailureError",
    "lift",
    "poisson_bracket",
    "bracket_of_lifts",
    "standard_bracket",
    "transported_bracket",
]


class DivisionFailureError(ArithmeticError):
    """A commutator coefficient failed to vanish at the root; with central
    inputs this indicates an arithmetic bug upstream."""


class PoissonContext:
    """Caches the bracket normalizer lambda_q for a fixed primitive l-th root q.

    lambda_q is the value at t = q of the removable singularity of
    (t - q) / [l]_t!, in closed form
        lambda_q = -q (1-q)^l / l^2,
    which follows from prod_{k<l} (1 - q^k) = l and [l]'(q) = l / (q (q-1)).
    """

    __slots__ = ("level", "qpow", "q", "lam")

    def __init__(self, level: int, qpow: int = 1):
        if level < 2:
            raise ValueError("the bracket needs level >= 2")
        if math.gcd(qpow % level, level) != 1:
            raise ValueError("qpow must be coprime to the level")
        q = Cyclo.zeta(level, qpow)
        lam = -q * (1 - q) ** level * Fraction(1, level * level)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "qpow", qpow % level)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonContext is immutable")


_PC_CACHE: Dict[Tuple[int, int], PoissonContext] = {}


def _poisson_context(level: int, qpow: int) -> PoissonContext:
    key = (level, qpow % level)
    got = _PC_CACHE.get(key)
    if got is None:
        got = _PC_CACHE[key] = PoissonContext(level, qpow)
    return got


def lift(a: WeylElement) -> WeylElement:
    """Canonical t-constant lift of a specialized element.

    Each coefficient is promoted to a constant in t, carried to first order
    around the root; specializing back recovers the input exactly.
    """
    ctx = a.context
    if ctx.kind != ROOT:
        raise ValueError("only root-of-unity elements are lifted")
    jctx = AlgebraContext.first_order_at_root(ctx.n, ctx.level, ctx.qpow)
    zero = Cyclo.zero(ctx.level)
    return WeylElement(jctx, {k: Jet(c, zero) for k, c in a.terms.items()})


def bracket_of_lifts(lift_p: WeylElement, lift_q: WeylElement) -> WeylElement:
    """Divided-commutator bracket from caller-supplied lifts.

    Intended for checking independence of the chosen lifts; ordinary use goes
    through poisson_bracket, which picks the canonical lifts itself.
    """
    jctx = lift_p.context
    if jctx.kind != JET or jctx != lift_q.context:
        raise ValueError("lifts must share a first-order context")
    pc = _poisson_context(jctx.level, jctx.qpow)
    comm = mul(lift_p, lift_q) - mul(lift_q, lift_p)
    target = AlgebraContext.root_of_unity(jctx.n, jctx.level, jctx.qpow)
    out = {}
    for key, jet in comm.terms.items():
        if jet.val:
            raise DivisionFailureError(
                "commutator coefficient does not vanish at the root; "
                "inputs were not lifts of central elements"
            )
        c = pc.lam * jet.dt
        if c:
            out[key] = c
    return WeylElement(target, out)


def poisson_bracket(p: WeylElement, q: WeylElement) -> WeylElement:
    """Bracket of two central elements; the result is again central."""
    ctx = p.context
    if ctx != q.context:
        raise ValueError("operands live in different contexts")
    if ctx.kind != ROOT or ctx.level < 2:
        raise ValueError("the bracket is defined at roots of unity of level >= 2")
    if not is_central(p):
        raise NotCentralError("first bracket argument is not central")
    if not is_central(q):
        raise NotCentralError("second bracket argument is not central")
    return bracket_of_lifts(lift(p), lift(q))


def standard_bracket(p: CenterPoly, q: CenterPoly) -> CenterPoly:
    """Symplectic bracket sum_i dp/dr_i dq/ds_i - dq/dr_i dp/ds_i."""
    if p.n != q.n:
        raise ValueError("variable count mismatch")
    out = CenterPoly.zero(p.n)
    for i in range(1, p.n + 1):
        out = out + p.partial_r(i) * q.partial_s(i) - q.partial_r(i) * p.partial_s(i)
    return out


def transported_bracket(p: CenterPoly, q: CenterPoly, level: int, qpow: int = 1) -> CenterPoly:
    """One term of the limit family: the bracket conjugated through the
    center isomorphism at a fixed level."""
    if level < 2:
        raise ValueError("need level >= 2")
    bracket = poisson_bracket(theta(p, level, qpow), theta(q, level, qpow))
    return theta_inverse(bracket)
