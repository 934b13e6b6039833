"""Sparse PBW-normal-form arithmetic in the quantized Weyl algebra.

Elements are finite maps from exponent pairs (alpha, beta) to scalars of the
ambient coefficient domain; every operation returns a normal form with all
x-factors to the left of all d-factors.  Three coefficient domains are
supported, all exact: Laurent polynomials in t (the generic algebra),
cyclotomic numbers at a fixed primitive root of unity, and first-order
expansions around such a root (for divided differences).
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .scalars import (
    Cyclo,
    Jet,
    LaurentPoly,
    qint as _qint_poly,
    specialize as _specialize_scalar,
)

import math

__all__ = [
    "AlgebraContext",
    "WeylElement",
    "ContextMismatchError",
    "DegreeLimitExceeded",
    "DEFAULT_DEGREE_LIMIT",
    "mul",
    "power",
    "commutator",
    "q_commutator",
    "f_i",
    "f_element",
    "specialize_element",
    "bernstein_degree",
    "twist_by_f",
    "divisible_by_f",
    "act_on_polynomial",
]

SYMBOLIC = "t"
ROOT = "root"
JET = "jet"


DEFAULT_DEGREE_LIMIT = 512


class ContextMismatchError(ValueError):
    """Operands live in different algebras."""


class DegreeLimitExceeded(ValueError):
    """A power or substitution would exceed the Bernstein-degree guard."""


def _degree_limit(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("QWEYL_MAX_DEGREE")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULT_DEGREE_LIMIT


class AlgebraContext:
    """Ambient algebra: the number of generator pairs and the scalar domain.

    Values built from a context are immutable; the context itself only
    mutates internal memo tables, so sharing across threads is safe under
    the usual CPython memory model.
    """

    __slots__ = (
        "n",
        "kind",
        "level",
        "qpow",
        "_tpow_cache",
        "_qint_cache",
        "_exp_cache",
    )

    def __init__(self, n: int, kind: str, level: Optional[int] = None,
                 qpow: int = 1):
        if n < 1:
            raise ValueError("need at least one generator pair")
        if kind in (ROOT, JET):
            if level is None or level < 1:
                raise ValueError("root-of-unity contexts need a positive level")
            if math.gcd(qpow % level if level > 1 else 1, level) != 1:
                raise ValueError("qpow must be coprime to the level")
            qpow = qpow % level if level > 1 else 0
        elif kind != SYMBOLIC:
            raise ValueError(f"unknown context kind {kind!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "qpow", qpow)
        object.__setattr__(self, "_tpow_cache", {})
        object.__setattr__(self, "_qint_cache", {})
        object.__setattr__(self, "_exp_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraContext is immutable")

    # constructors; interned so rewrite tables persist across call sites ----

    @classmethod
    def _interned(cls, *args, **kwargs) -> "AlgebraContext":
        ctx = cls(*args, **kwargs)
        return _CONTEXTS.setdefault(ctx._key(), ctx)

    @classmethod
    def symbolic(cls, n: int) -> "AlgebraContext":
        return cls._interned(n, SYMBOLIC)

    @classmethod
    def root_of_unity(cls, n: int, level: int, qpow: int = 1) -> "AlgebraContext":
        return cls._interned(n, ROOT, level=level, qpow=qpow)

    @classmethod
    def first_order_at_root(cls, n: int, level: int, qpow: int = 1) -> "AlgebraContext":
        """Coefficients carry value and first divided difference at t = q."""
        return cls._interned(n, JET, level=level, qpow=qpow)

    # identity --------------------------------------------------------------

    def _key(self):
        return (self.n, self.kind, self.level, self.qpow)

    def __eq__(self, other):
        return isinstance(other, AlgebraContext) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == SYMBOLIC:
            return f"AlgebraContext(n={self.n}, symbolic t)"
        if self.kind == ROOT:
            return f"AlgebraContext(n={self.n}, q=zeta_{self.level}^{self.qpow})"
        return f"AlgebraContext(n={self.n}, first order at zeta_{self.level}^{self.qpow})"

    @property
    def is_symbolic(self) -> bool:
        return self.kind == SYMBOLIC

    @property
    def is_specialized(self) -> bool:
        return self.kind == ROOT

    @property
    def q(self):
        """The deformation scalar of a specialized context."""
        if self.kind == ROOT:
            return Cyclo.zeta(self.level, self.qpow)
        if self.kind == JET:
            return Jet(Cyclo.zeta(self.level, self.qpow), Cyclo.zero(self.level))
        raise ValueError("symbolic contexts have no fixed q")

    # scalar domain ----------------------------------------------------------

    def scalar(self, x):
        """Coerce a rational (or domain value) into this context's scalars."""
        if self.kind == SYMBOLIC:
            if isinstance(x, LaurentPoly):
                return x
            if isinstance(x, (int, Fraction)):
                return LaurentPoly.constant(x)
        elif self.kind == ROOT:
            if isinstance(x, Cyclo):
                if x.level != self.level:
                    r = x.as_rational()
                    if r is None:
                        raise ValueError("cyclotomic level mismatch")
                    return Cyclo.from_rational(self.level, r)
                return x
            if isinstance(x, (int, Fraction)):
                return Cyclo.from_rational(self.level, x)
        else:
            if isinstance(x, Jet):
                return x
            if isinstance(x, Cyclo):
                return Jet(x, Cyclo.zero(self.level))
            if isinstance(x, (int, Fraction)):
                return Jet(Cyclo.from_rational(self.level, x), Cyclo.zero(self.level))
        raise TypeError(f"cannot coerce {type(x).__name__} into {self!r}")

    def one_scalar(self):
        return self.scalar(1)

    def t_power(self, e: int):
        """Image of t**e in the coefficient domain."""
        got = self._tpow_cache.get(e)
        if got is not None:
            return got
        if self.kind == SYMBOLIC:
            val = LaurentPoly.t_power(e)
        elif self.kind == ROOT:
            val = Cyclo.zeta(self.level, (e * self.qpow) % self.level)
        else:
            lv = self.level
            zeta_e = Cyclo.zeta(lv, (e * self.qpow) % lv)
            zeta_prev = Cyclo.zeta(lv, ((e - 1) * self.qpow) % lv)
            val = Jet(zeta_e, e * zeta_prev)
        self._tpow_cache[e] = val
        return val

    def qint(self, m: int):
        """Image of the quantum integer [m] in the coefficient domain."""
        got = self._qint_cache.get(m)
        if got is not None:
            return got
        if self.kind == SYMBOLIC:
            val = _qint_poly(m)
        else:
            acc = self.scalar(0)
            for j in range(m):
                acc = acc + self.t_power(j)
            val = acc
        self._qint_cache[m] = val
        return val

    # element factories -------------------------------------------------------

    def zero(self) -> "WeylElement":
        return WeylElement(self, {})

    def one(self) -> "WeylElement":
        z = (0,) * self.n
        return WeylElement(self, {(z, z): self.one_scalar()})

    def scalar_element(self, c) -> "WeylElement":
        z = (0,) * self.n
        return WeylElement(self, {(z, z): self.scalar(c)})

    def x(self, i: int) -> "WeylElement":
        return self.monomial(_unit(self.n, i), (0,) * self.n)

    def d(self, i: int) -> "WeylElement":
        return self.monomial((0,) * self.n, _unit(self.n, i))

    def monomial(self, alpha: Sequence[int], beta: Sequence[int], c=1) -> "WeylElement":
        alpha = tuple(int(a) for a in alpha)
        beta = tuple(int(b) for b in beta)
        if len(alpha) != self.n or len(beta) != self.n:
            raise ValueError("exponent tuples must have length n")
        if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
            raise ValueError("exponents must be non-negative")
        return WeylElement(self, {(alpha, beta): self.scalar(c)})

    def from_terms(self, terms: Mapping[Tuple[Tuple[int, ...], Tuple[int, ...]], object]) -> "WeylElement":
        return WeylElement(self, {k: self.scalar(c) for k, c in terms.items()})

    # the rewrite core ---------------------------------------------------------

    def _pair_expansion(self, k: int, m: int):
        """Coefficients C_j with  d^k * x^m = sum_j C_j x^(m-j) d^(k-j).

        Built by iterating the single-d closed form over the d-exponent;
        rows are memoized per context.  Entry j may be exactly zero at a
        root of unity, in which case it is stored but skipped by callers.
        """
        cache = self._exp_cache
        got = cache.get((k, m))
        if got is not None:
            return got
        one = self.one_scalar()
        for mm in range(m + 1):
            if (0, mm) not in cache:
                cache[(0, mm)] = (one,)
        for kk in range(k + 1):
            if (kk, 0) not in cache:
                cache[(kk, 0)] = (one,)
        for kk in range(1, k + 1):
            for mm in range(1, m + 1):
                if (kk, mm) in cache:
                    continue
                qm = self.qint(mm)
                tm = self.t_power(mm)
                down = cache[(kk - 1, mm - 1)]
                same = cache[(kk - 1, mm)]
                row = []
                for j in range(min(kk, mm) + 1):
                    acc = None
                    if j < len(same):
                        acc = tm * same[j]
                    if 1 <= j <= len(down):
                        term = qm * down[j - 1]
                        acc = term if acc is None else acc + term
                    row.append(acc if acc is not None else self.scalar(0))
                cache[(kk, mm)] = tuple(row)
        return cache[(k, m)]


_CONTEXTS: Dict[tuple, "AlgebraContext"] = {}


def _unit(n: int, i: int) -> Tuple[int, ...]:
    if not 1 <= i <= n:
        raise IndexError(f"generator index {i} out of range 1..{n}")
    return tuple(1 if j == i - 1 else 0 for j in range(n))


class WeylElement:
    """Element of the algebra in PBW normal form (x-factors left of d-factors)."""

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: Mapping):
        clean = {k: c for k, c in terms.items() if c}
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement values are immutable")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.context != other.context:
            raise ContextMismatchError("cannot add across contexts")
        d = dict(self.terms)
        for k, c in other.terms.items():
            cur = d.get(k)
            s = c if cur is None else cur + c
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        return WeylElement(self.context, d)

    def __neg__(self):
        return WeylElement(self.context, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, WeylElement):
            return NotImplemented
        return self.scale(other)

    def __pow__(self, k: int):
        return power(self, k)

    def scale(self, c) -> "WeylElement":
        c = self.context.scalar(c)
        if not c:
            return self.context.zero()
        return WeylElement(self.context, {k: v * c for k, v in self.terms.items()})

    def is_scalar(self) -> bool:
        z = ((0,) * self.context.n, (0,) * self.context.n)
        return not self.terms or set(self.terms) == {z}

    def scalar_value(self):
        z = ((0,) * self.context.n, (0,) * self.context.n)
        return self.terms.get(z, self.context.scalar(0))

    def support(self):
        return sorted(self.terms, key=_grlex_key)

    def __repr__(self):
        if not self.terms:
            return "<WeylElement 0>"
        bits = []
        for (al, be) in self.support():
            mono = _plain_mono(al, be)
            c = self.terms[(al, be)]
            bits.append(f"({c!s})" + ("*" + mono if mono else ""))
        return "<WeylElement " + " + ".join(bits) + ">"


def _grlex_key(key):
    al, be = key
    return (sum(al) + sum(be), al, be)


def _plain_mono(al, be):
    parts = []
    for i, a in enumerate(al):
        if a:
            parts.append(f"x{i+1}" + (f"^{a}" if a > 1 else ""))
    for i, b in enumerate(be):
        if b:
            parts.append(f"d{i+1}" + (f"^{b}" if b > 1 else ""))
    return "*".join(parts)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product in PBW normal form; bilinear over the coefficient domain."""
    if a.context != b.context:
        raise ContextMismatchError("cannot multiply across contexts")
    ctx = a.context
    n = ctx.n
    expansion = ctx._pair_expansion
    out: Dict = {}
    for (al, be), ca in a.terms.items():
        for (ga, de), cb in b.terms.items():
            coeff = ca * cb
            if not coeff:
                continue
            hot = [i for i in range(n) if be[i] and ga[i]]
            if not hot:
                key = (
                    tuple(al[i] + ga[i] for i in range(n)),
                    tuple(be[i] + de[i] for i in range(n)),
                )
                cur = out.get(key)
                out[key] = coeff if cur is None else cur + coeff
                continue
            if len(hot) == 1:
                i = hot[0]
                rows = expansion(be[i], ga[i])
                asum = tuple(al[p] + ga[p] for p in range(n))
                bsum = tuple(be[p] + de[p] for p in range(n))
                for j, rj in enumerate(rows):
                    if not rj:
                        continue
                    c = coeff * rj
                    if not c:
                        continue
                    key = (
                        asum[:i] + (asum[i] - j,) + asum[i + 1:],
                        bsum[:i] + (bsum[i] - j,) + bsum[i + 1:],
                    )
                    cur = out.get(key)
                    out[key] = c if cur is None else cur + c
                continue
            combos = [((), coeff)]
            for i in hot:
                rows = expansion(be[i], ga[i])
                combos = [
                    (js + (j,), c * rows[j])
                    for js, c in combos
                    for j in range(len(rows))
                    if rows[j]
                ]
            for js, c in combos:
                if not c:
                    continue
                alpha = [al[i] + ga[i] for i in range(n)]
                beta = [be[i] + de[i] for i in range(n)]
                for pos, i in enumerate(hot):
                    alpha[i] -= js[pos]
                    beta[i] -= js[pos]
                key = (tuple(alpha), tuple(beta))
                cur = out.get(key)
                out[key] = c if cur is None else cur + c
    return WeylElement(ctx, out)


def power(a: WeylElement, k: int) -> WeylElement:
    """k-th power; a**0 = 1.

    Refuses, before any work, a power whose Bernstein degree k*deg(a)
    would exceed the guard (QWEYL_MAX_DEGREE, default 512).  Bases with
    more than two terms are raised by sequential multiplication, which
    keeps the small factor on the right of every product; binary powering
    would square mid-sized intermediates and swell the rewrite.
    """
    if k < 0:
        raise ValueError("negative powers are not defined in the algebra")
    if a.terms:
        degree = k * bernstein_degree(a)
        limit = _degree_limit(None)
        if degree > limit:
            raise DegreeLimitExceeded(
                f"power of degree {degree} exceeds the guard {limit}"
            )
    if k == 0:
        return a.context.one()
    if len(a.terms) <= 2:
        result = None
        base = a
        e = k
        while e:
            if e & 1:
                result = base if result is None else mul(result, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return result
    acc = a
    for _ in range(k - 1):
        acc = mul(acc, a)
    return acc


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return mul(a, b) - mul(b, a)


def q_commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """a*b - t*b*a (with t read as q in specialized contexts)."""
    return mul(a, b) - mul(b, a).scale(a.context.t_power(1))


def f_i(ctx: AlgebraContext, i: int) -> WeylElement:
    """The distinguished degree-2 element 1 - (1-t) x_i d_i."""
    z = (0,) * ctx.n
    e = _unit(ctx.n, i)
    one = ctx.one_scalar()
    c = ctx.t_power(1) - one
    return WeylElement(ctx, {(z, z): one, (e, e): c})


def f_element(ctx: AlgebraContext) -> WeylElement:
    """Product of f_i over all generator pairs."""
    out = f_i(ctx, 1)
    for i in range(2, ctx.n + 1):
        out = mul(out, f_i(ctx, i))
    return out


def specialize_element(a: WeylElement, level: int, qpow: int = 1) -> WeylElement:
    """Coefficientwise specialization t -> q into the root-of-unity algebra.

    Also lowers first-order expansions back to their value at the root.
    """
    ctx = a.context
    target = AlgebraContext.root_of_unity(ctx.n, level, qpow)
    if ctx.kind == SYMBOLIC:
        terms = {k: _specialize_scalar(c, level, qpow) for k, c in a.terms.items()}
    elif ctx.kind == JET:
        if ctx.level != level or ctx.qpow != qpow % level:
            raise ValueError("first-order expansions specialize at their own root")
        terms = {k: c.val for k, c in a.terms.items()}
    else:
        raise ValueError("element is already specialized")
    return WeylElement(target, terms)


def bernstein_degree(a: WeylElement) -> int:
    """Total degree with deg x_i = deg d_i = 1; undefined on zero."""
    if not a.terms:
        raise ValueError("the zero element has no degree")
    return max(sum(al) + sum(be) for (al, be) in a.terms)


def twist_by_f(a: WeylElement, i: int) -> WeylElement:
    """The unique Q with f_i * a = Q * f_i: scales each term by t^(alpha_i - beta_i)."""
    ctx = a.context
    _unit(ctx.n, i)  # index check
    i0 = i - 1
    return WeylElement(
        ctx,
        {k: c * ctx.t_power(k[0][i0] - k[1][i0]) for k, c in a.terms.items()},
    )


def divisible_by_f(a: WeylElement, i: int) -> bool:
    """Membership test for the two-sided ideal generated by f_i.

    Substitutes x_i -> X, d_i -> X^(-1)/(1-t) into the quotient ring, which
    is a Laurent-polynomial ring over the remaining pairs, and tests zero.
    Denominators are cleared by the power of (1-t) needed per group, which
    is harmless because (1-t) is a central non-zero-divisor.
    """
    ctx = a.context
    if ctx.kind != SYMBOLIC:
        raise ValueError("divisibility testing requires the symbolic algebra")
    _unit(ctx.n, i)
    i0 = i - 1
    groups: Dict[tuple, List[Tuple[int, LaurentPoly]]] = {}
    for (al, be), c in a.terms.items():
        rest_a = tuple(v for j, v in enumerate(al) if j != i0)
        rest_b = tuple(v for j, v in enumerate(be) if j != i0)
        key = (al[i0] - be[i0], rest_a, rest_b)
        groups.setdefault(key, []).append((be[i0], c))
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    for entries in groups.values():
        top = max(b for b, _ in entries)
        acc = LaurentPoly.zero()
        for b, c in entries:
            acc = acc + c * one_minus_t ** (top - b)
        if acc:
            return False
    return True


def act_on_polynomial(a: WeylElement, poly: Mapping[Tuple[int, ...], object]) -> Dict[Tuple[int, ...], object]:
    """Faithful action on polynomials in the x-variables.

    x_i acts by multiplication and d_i by the quantum derivative
    d_i(x_i^m) = [m] x_i^(m-1); this is the independent oracle for the
    normal-form rewrite.
    """
    ctx = a.context
    n = ctx.n
    out: Dict[Tuple[int, ...], object] = {}
    for (al, be), c in a.terms.items():
        for gamma, v in poly.items():
            if len(gamma) != n:
                raise ValueError("polynomial exponent arity mismatch")
            if any(gamma[i] < be[i] for i in range(n)):
                continue
            coeff = c * v
            for i in range(n):
                for step in range(be[i]):
                    coeff = coeff * ctx.qint(gamma[i] - step)
            if not coeff:
                continue
            key = tuple(al[i] + gamma[i] - be[i] for i in range(n))
            cur = out.get(key)
            s = coeff if cur is None else cur + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out
