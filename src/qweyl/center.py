"""Center of the root-of-unity algebra: centrality tests, the isomorphism with
a commutative polynomial ring in 2n variables, and the Azumaya-locus criterion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .scalars import Cyclo, _sparse_power, embed as _embed
from .weylcore import (
    ROOT,
    AlgebraContext,
    WeylElement,
    _unit,
    commutator,
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
    "NUMERIC_AZUMAYA_TOL",
]

NUMERIC_AZUMAYA_TOL = 1e-9


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
        return _sparse_power(self, e, CenterPoly.constant(self.n, 1), len(self.coeffs))

    # calculus and evaluation ----------------------------------------------------

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

    def evaluate(self, r_values: Sequence, s_values: Sequence):
        if len(r_values) != self.n or len(s_values) != self.n:
            raise ValueError("need one value per variable")
        acc = None
        for (a, b), c in self.coeffs.items():
            term = c
            for i in range(self.n):
                if a[i]:
                    term = term * r_values[i] ** a[i]
                if b[i]:
                    term = term * s_values[i] ** b[i]
            acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)

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


def is_central(a: WeylElement) -> bool:
    """True iff a commutes with every generator (sufficient, they generate)."""
    ctx = a.context
    if not ctx.is_specialized:
        raise ValueError("centrality is tested in specialized contexts")
    for i in range(1, ctx.n + 1):
        if commutator(a, ctx.x(i)) or commutator(a, ctx.d(i)):
            return False
    return True


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

    A PBW combination lies in the center exactly when every exponent is a
    multiple of the level, so the divisibility scan is the centrality check.
    """
    ctx = a.context
    if ctx.kind != ROOT or ctx.level < 2:
        raise ValueError("need a root-of-unity context of level >= 2")
    level = ctx.level
    coeffs = {}
    for (alpha, beta), c in a.terms.items():
        if any(e % level for e in alpha) or any(e % level for e in beta):
            raise NotCentralError(
                f"monomial x^{list(alpha)} d^{list(beta)} has an exponent "
                f"not divisible by {level}"
            )
        key = (tuple(e // level for e in beta), tuple(e // level for e in alpha))
        coeffs[key] = c
    return CenterPoly(ctx.n, coeffs)


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
    """Point of the maximal spectrum of the center: values of x_i^l and d_i^l."""

    __slots__ = ("a", "b")

    def __init__(self, a: Sequence, b: Sequence):
        a = tuple(Fraction(v) if isinstance(v, int) else v for v in a)
        b = tuple(Fraction(v) if isinstance(v, int) else v for v in b)
        if len(a) != len(b):
            raise ValueError("point components must have equal arity")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("MaxIdealPoint is immutable")

    @property
    def n(self) -> int:
        return len(self.a)

    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, Cyclo)) for v in self.a + self.b)

    def __repr__(self):
        return f"MaxIdealPoint(a={self.a}, b={self.b})"


def azumaya_test(pt: MaxIdealPoint, level: int, qpow: int = 1) -> bool:
    """True iff the fiber at the point is a full matrix algebra.

    The criterion is a_i * b_i != (1-q)^(-level) for every i; exact equality
    in exact mode, a 1e-9 window in numeric mode.
    """
    if level < 2:
        raise ValueError("need level >= 2")
    q = Cyclo.zeta(level, qpow)
    bad = (Cyclo.one(level) - q) ** (-level)
    if pt.is_exact():
        for ai, bi in zip(pt.a, pt.b):
            if ai * bi == bad:
                return False
        return True
    bad_c = bad.embed()
    for ai, bi in zip(pt.a, pt.b):
        prod = complex(_embed(ai)) * complex(_embed(bi))
        if abs(prod - bad_c) <= NUMERIC_AZUMAYA_TOL:
            return False
    return True
