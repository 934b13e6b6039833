"""Center of the root-of-unity algebra: centrality tests, the isomorphism with
a commutative polynomial ring in 2n variables, and the Azumaya-locus criterion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .scalars import Cyclo, DegreeLimitExceeded, _check_power_height, _sparse_power, embed as _embed
from .weylcore import (
    ROOT,
    AlgebraContext,
    WeylElement,
    _check_pairs,
    _unit,
    mul,
)

__all__ = [
    "CenterPoly",
    "MaxIdealPoint",
    "NotCentralError",
    "is_central",
    "theta",
    "theta_inverse",
    "f_power_closed_form",
    "azumaya_test",
    "AZUMAYA_MAX_LEVEL",
]

# The locus test raises 1 - q to the l-th power in Q(zeta_l), with
# coordinates about l bits wide.  On a 2-core machine it took 0.13 s at
# l = 1009, 0.87 s at l = 2003, 0.75 s at l = 2048 and 5.5 s at l = 4001.
AZUMAYA_MAX_LEVEL = 2048

# Largest estimated work of a CenterPoly power (CenterPoly._power_cost), in
# coefficient products.  On a 2-core machine a unit took 1.1-3.7 us over
# (r1 + 1)^e, (2*r1 - 3*s1)^e, (r1 + s1 + 1)^e and (r1 + s1 + r2 + s2 + 1)^e:
# (r1 + 1)^1000 (estimate 2.0 * 10^6) took 4.3 s, and (r1 + s1 + 1)^100
# (1.5 * 10^6) 2.6 s.
CENTER_POWER_COST_LIMIT = 10 ** 6


class NotCentralError(ValueError):
    """Input fails to lie in (or decompose over) the center."""


ExpPair = Tuple[Tuple[int, ...], Tuple[int, ...]]


class CenterPoly:
    """Commutative polynomial in r_1..r_n, s_1..s_n.

    Keys are exponent pairs (r-exponents, s-exponents); zero coefficients are
    never stored.  Under the center isomorphism at level l, r_i corresponds
    to d_i^l and s_i to x_i^l.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Optional[Mapping[ExpPair, object]] = None):
        if n < 1:
            raise ValueError("need at least one variable pair")
        _check_pairs(n)
        clean: Dict[ExpPair, object] = {}
        if coeffs:
            for (a, b), c in coeffs.items():
                if isinstance(c, int):
                    c = Fraction(c)
                if not c:
                    continue
                a = tuple(int(v) for v in a)
                b = tuple(int(v) for v in b)
                if len(a) != n or len(b) != n or min(a + b, default=0) < 0:
                    raise ValueError("bad exponent pair")
                clean[(a, b)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CenterPoly values are immutable")

    @staticmethod
    def _raw(n: int, coeffs: Dict[ExpPair, object]) -> "CenterPoly":
        """Wrap a map whose keys are valid and whose coefficients are
        nonzero and never int, as arithmetic results are; no checks."""
        obj = object.__new__(CenterPoly)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    # constructors -------------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CenterPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "CenterPoly":
        _check_pairs(n)
        z = (0,) * n
        return cls(n, {(z, z): c})

    @classmethod
    def r(cls, n: int, i: int) -> "CenterPoly":
        return cls.monomial(n, _unit(n, i), (0,) * n)

    @classmethod
    def s(cls, n: int, i: int) -> "CenterPoly":
        return cls.monomial(n, (0,) * n, _unit(n, i))

    @classmethod
    def monomial(cls, n: int, a: Sequence[int], b: Sequence[int], c=1) -> "CenterPoly":
        return cls(n, {(tuple(a), tuple(b)): c})

    # queries --------------------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        z = ((0,) * self.n, (0,) * self.n)
        return not self.coeffs or set(self.coeffs) == {z}

    def constant_value(self):
        z = ((0,) * self.n, (0,) * self.n)
        return self.coeffs.get(z, Fraction(0))

    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(a) + sum(b) for (a, b) in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CenterPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    # arithmetic -------------------------------------------------------------------

    def _check(self, other: "CenterPoly"):
        if self.n != other.n:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, CenterPoly):
            return NotImplemented
        self._check(other)
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cur = d.get(k)
            s = c if cur is None else cur + c
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        return CenterPoly._raw(self.n, d)

    def __neg__(self):
        return CenterPoly._raw(self.n, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, CenterPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CenterPoly):
            self._check(other)
            d: Dict[ExpPair, object] = {}
            for (a1, b1), c1 in self.coeffs.items():
                for (a2, b2), c2 in other.coeffs.items():
                    key = (
                        tuple(x + y for x, y in zip(a1, a2)),
                        tuple(x + y for x, y in zip(b1, b2)),
                    )
                    p = c1 * c2
                    cur = d.get(key)
                    s = p if cur is None else cur + p
                    if s:
                        d[key] = s
                    else:
                        d.pop(key, None)
            return CenterPoly._raw(self.n, d)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, CenterPoly):
            return NotImplemented
        return self.scale(other)

    def scale(self, c) -> "CenterPoly":
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return CenterPoly.zero(self.n)
        return CenterPoly._raw(self.n, {k: v * c for k, v in self.coeffs.items()})

    def __pow__(self, e: int) -> "CenterPoly":
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        _check_power_height(self.coeffs.values(), e)
        cost = self._power_cost(e)
        if cost > CENTER_POWER_COST_LIMIT:
            raise DegreeLimitExceeded(f"polynomial power of estimated cost {cost} exceeds "
                                      f"the guard {CENTER_POWER_COST_LIMIT}")
        return _sparse_power(self, e, CenterPoly.constant(self.n, 1), len(self.coeffs))

    def _power_cost(self, e: int) -> int:
        """Estimated coefficient products of self**e: e steps, each
        multiplying the terms of the power by the m terms of self.  The
        power has at most as many terms as there are monomials of its
        degree in 2n variables, and as there are ways to choose e of the
        m terms."""
        m = len(self.coeffs)
        if not m:
            return 0
        terms = min(math.comb(e * self.total_degree() + 2 * self.n, 2 * self.n),
                    math.comb(e + m - 1, m - 1))
        return e * terms * m

    # calculus and embedding ----------------------------------------------------

    def partial_r(self, i: int) -> "CenterPoly":
        i0 = i - 1
        d = {}
        for (a, b), c in self.coeffs.items():
            if a[i0]:
                a2 = a[:i0] + (a[i0] - 1,) + a[i0 + 1:]
                d[(a2, b)] = c * a[i0]
        return CenterPoly(self.n, d)

    def partial_s(self, i: int) -> "CenterPoly":
        i0 = i - 1
        d = {}
        for (a, b), c in self.coeffs.items():
            if b[i0]:
                b2 = b[:i0] + (b[i0] - 1,) + b[i0 + 1:]
                d[(a, b2)] = c * b[i0]
        return CenterPoly(self.n, d)

    def map_coefficients(self, fn) -> "CenterPoly":
        return CenterPoly(self.n, {k: fn(c) for k, c in self.coeffs.items()})

    def embed(self) -> "CenterPoly":
        """Coefficientwise complex embedding (for limit detection)."""
        return self.map_coefficients(_embed)

    def __repr__(self):
        if not self.coeffs:
            return "<CenterPoly 0>"
        bits = []
        for (a, b) in sorted(self.coeffs, key=lambda k: (sum(k[0]) + sum(k[1]), k)):
            mono = _center_mono(a, b)
            c = self.coeffs[(a, b)]
            bits.append(f"({c!s})" + ("*" + mono if mono else ""))
        return "<CenterPoly " + " + ".join(bits) + ">"


def _center_mono(a, b):
    parts = []
    for i, e in enumerate(a):
        if e:
            parts.append(f"r{i+1}" + (f"^{e}" if e > 1 else ""))
    for i, e in enumerate(b):
        if e:
            parts.append(f"s{i+1}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts)


# ---------------------------------------------------------------------------
# centrality and the center isomorphism
# ---------------------------------------------------------------------------


def _noncentral_term(a: WeylElement):
    """The first term key (alpha, beta) of a with an exponent not divisible
    by the level, or None."""
    ctx = a.context
    if ctx.kind != ROOT or ctx.level < 2:
        raise ValueError("need a root-of-unity context of level >= 2")
    for alpha, beta in a.terms:
        if any(e % ctx.level for e in alpha + beta):
            return alpha, beta
    return None


def is_central(a: WeylElement) -> bool:
    """True iff a lies in the center.

    At a primitive l-th root of unity with l >= 2 the center is the
    polynomial algebra on x_i^l and d_i^l, so an element is central exactly
    when every exponent of every term of its normal form is a multiple of l;
    the exponents are read, nothing is multiplied.  At level 1 (q = 1) the
    algebra is the classical Weyl algebra, whose center is the scalars.
    """
    ctx = a.context
    if not ctx.is_specialized:
        raise ValueError("centrality is tested in specialized contexts")
    if ctx.level == 1:
        return a.is_scalar()
    return _noncentral_term(a) is None


def theta(p: CenterPoly, level: int, qpow: int = 1) -> WeylElement:
    """Central element with r_i -> d_i^level and s_i -> x_i^level.

    The image monomials commute, so the substitution is monomial-by-monomial
    and already in normal form.
    """
    if level < 2:
        raise ValueError("the center isomorphism needs level >= 2")
    ctx = AlgebraContext.root_of_unity(p.n, level, qpow)
    terms = {}
    for (a, b), c in p.coeffs.items():
        alpha = tuple(level * e for e in b)
        beta = tuple(level * e for e in a)
        terms[(alpha, beta)] = ctx.scalar(c)
    return WeylElement(ctx, terms)


def theta_inverse(a: WeylElement) -> CenterPoly:
    """Decompose a central element over the commutative model.

    The centrality test is is_central's exponent read: a term with an
    exponent not divisible by the level raises NotCentralError.
    """
    bad = _noncentral_term(a)
    level = a.context.level
    if bad is not None:
        raise NotCentralError(
            f"monomial x^{list(bad[0])} d^{list(bad[1])} has an exponent "
            f"not divisible by {level}"
        )
    coeffs = {}
    for (alpha, beta), c in a.terms.items():
        key = (tuple(e // level for e in beta), tuple(e // level for e in alpha))
        coeffs[key] = c
    return CenterPoly(a.context.n, coeffs)


def f_power_closed_form(ctx: AlgebraContext) -> WeylElement:
    """The l-th power of the distinguished element, built directly as
    the product over i of (1 - (1-q)^l x_i^l d_i^l)."""
    if ctx.kind != ROOT or ctx.level < 2:
        raise ValueError("need a root-of-unity context of level >= 2")
    level = ctx.level
    one = ctx.one_scalar()
    c = -((one - ctx.t_power(1)) ** level)
    out = ctx.one()
    for i in range(1, ctx.n + 1):
        e = tuple(level if j == i - 1 else 0 for j in range(ctx.n))
        factor = WeylElement(ctx, {((0,) * ctx.n, (0,) * ctx.n): one, (e, e): c})
        out = mul(out, factor)
    return out


# ---------------------------------------------------------------------------
# Azumaya locus
# ---------------------------------------------------------------------------


class MaxIdealPoint:
    """Point of the maximal spectrum of the center: values of x_i^l and d_i^l,
    each a rational or a Cyclo."""

    __slots__ = ("a", "b")

    def __init__(self, a: Sequence, b: Sequence):
        a, b = tuple(map(_exact_coordinate, a)), tuple(map(_exact_coordinate, b))
        if len(a) != len(b):
            raise ValueError("point components must have equal arity")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("MaxIdealPoint is immutable")

    @property
    def n(self) -> int:
        return len(self.a)

    def __repr__(self):
        return f"MaxIdealPoint(a={self.a}, b={self.b})"


def _exact_coordinate(v):
    """v as a Fraction or a Cyclo; any other type raises TypeError."""
    if isinstance(v, Cyclo):
        return v
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError(f"point coordinates are exact scalars, not {type(v).__name__}")


def azumaya_test(pt: MaxIdealPoint, level: int) -> bool:
    """True iff the fiber at the point is a full matrix algebra.

    The criterion is a_i * b_i != (1-q)^(-level) for every i, at
    q = zeta_level, decided exactly as a_i * b_i * (1-q)^level != 1.
    Levels above AZUMAYA_MAX_LEVEL raise ValueError before any work.
    """
    if level < 2:
        raise ValueError("need level >= 2")
    if level > AZUMAYA_MAX_LEVEL:
        raise ValueError(f"the Azumaya test is limited to l <= {AZUMAYA_MAX_LEVEL}")
    unit = (Cyclo.one(level) - Cyclo.zeta(level)) ** level
    return all(ai * bi * unit != 1 for ai, bi in zip(pt.a, pt.b))
