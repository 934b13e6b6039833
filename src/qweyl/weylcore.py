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
from itertools import islice
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .scalars import (
    Cyclo,
    Jet,
    LaurentPoly,
    pack_cyclo_products,
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
# The largest estimated cost (_power_cost) of a power that is computed.  On
# a 2-core Python 3.11 machine powers ran at 1.3 to 6 million units a second,
# so a power that passes takes at most about 20 s there.
POWER_COST_LIMIT = 25_000_000


class ContextMismatchError(ValueError):
    """Operands live in different algebras."""


class DegreeLimitExceeded(ValueError):
    """A power or substitution would exceed the Bernstein-degree guard, or a
    power the cost guard."""


def _degree_limit(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("QWEYL_MAX_DEGREE")
    if not env:
        return DEFAULT_DEGREE_LIMIT
    try:
        limit = int(env)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"QWEYL_MAX_DEGREE must be a non-negative integer, not {env!r}")
    return limit


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
        "_binom_rows",
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
        object.__setattr__(self, "_binom_rows", [])

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

        q-binomial normal ordering (Kac-Cheung, Quantum Calculus, 2002):
            C_j = [k choose j]_t [m]_t [m-1]_t ... [m-j+1]_t t^((k-j)(m-j)).
        Only sums and products are taken, so nothing is divided by a quantum
        integer that may vanish at the root.  Rows are memoized per context;
        entry j may be exactly zero at a root of unity, in which case it is
        stored but skipped by callers.
        """
        got = self._exp_cache.get((k, m))
        if got is not None:
            return got
        binom = self._gauss_binomials(k)
        falling = self.one_scalar()
        row = []
        for j in range(min(k, m) + 1):
            if j:
                falling = falling * self.qint(m - j + 1)
            row.append(binom[j] * falling * self.t_power((k - j) * (m - j)))
        row = self._exp_cache[(k, m)] = tuple(row)
        return row

    def _gauss_binomials(self, k: int):
        """Row ([k choose j]_t for j = 0..k), memoized.

        q-Pascal rule: [n choose j] = [n-1 choose j-1] + t^j [n-1 choose j].
        """
        rows = self._binom_rows
        if not rows:
            rows.append((self.one_scalar(),))
        while len(rows) <= k:
            prev = rows[-1]
            inner = tuple(prev[j - 1] + self.t_power(j) * prev[j]
                          for j in range(1, len(prev)))
            rows.append((prev[0],) + inner + (prev[0],))
        return rows[k]


_CONTEXTS: Dict[tuple, "AlgebraContext"] = {}


def _unit(n: int, i: int) -> Tuple[int, ...]:
    if not 1 <= i <= n:
        raise IndexError(f"generator index {i} out of range 1..{n}")
    return tuple(1 if j == i - 1 else 0 for j in range(n))


class WeylElement:
    """Element of the algebra in PBW normal form (x-factors left of d-factors).

    The only state besides the terms is a memo: the scaled rows of the
    element as a right factor (_scaled_rows), filled by mul, so multiplying
    by the same element again, as a power chain does, builds them once.
    """

    __slots__ = ("context", "terms", "_rows")

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


def _scaled_rows(ctx: AlgebraContext, be: Tuple[int, ...], b: WeylElement):
    """d^be * b as the offsets (ga - js, be + de - js) and the coefficients
    cb * C_js of its terms, in two lists.

    A term x^al d^be meets a term cb x^ga d^de of b in the terms
    (cb * C_js) x^(al + ga - js) d^(be + de - js), where C_js is the product
    of the pair-expansion entries over the pairs i with be[i] and ga[i]
    nonzero.  These scaled rows depend on be alone, so they are built once
    per distinct be (and kept on b) and each contribution costs one product.
    """
    n = ctx.n
    expansion = ctx._pair_expansion
    offsets, coeffs = [], []
    for (ga, de), cb in b.terms.items():
        hot = [i for i in range(n) if be[i] and ga[i]]
        combos = [((), cb)]
        for i in hot:
            entries = expansion(be[i], ga[i])
            combos = [(js + (j,), c * e) for js, c in combos
                      for j, e in enumerate(entries) if e]
        for js, c in combos:
            if not c:
                continue
            shift = list(ga)
            beta = [be[i] + de[i] for i in range(n)]
            for i, j in zip(hot, js):
                shift[i] -= j
                beta[i] -= j
            offsets.append((tuple(shift), tuple(beta)))
            coeffs.append(c)
    return offsets, coeffs


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product in PBW normal form; bilinear over the coefficient domain."""
    if a.context != b.context:
        raise ContextMismatchError("cannot multiply across contexts")
    ctx = a.context
    rows = getattr(b, "_rows", None)
    if rows is None:
        rows = {}
        object.__setattr__(b, "_rows", rows)
    used = {}
    for _, be in a.terms:
        if be not in used:
            row = rows.get(be)
            if row is None:
                row = rows[be] = _scaled_rows(ctx, be, b)
            used[be] = row
    lhs = list(a.terms.values())
    finish = None
    if ctx.kind == ROOT:
        # At a root of unity the coefficients are multiplied and summed as
        # Kronecker-packed integers and unpacked once per output term.  One
        # packing width serves the whole call, so it is chosen from every
        # row this product uses.
        lhs, packed, finish = pack_cyclo_products(
            ctx.level, lhs, [coeffs for _, coeffs in used.values()])
        used = {be: (offsets, p) for (be, (offsets, _)), p in zip(used.items(), packed)}
    out: Dict = {}
    for (al, be), ca in zip(a.terms, lhs):
        offsets, coeffs = used[be]
        for (shift, beta), cb in zip(offsets, coeffs):
            c = ca * cb
            if not c:
                continue
            key = (tuple(map(add, al, shift)), beta)
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    if finish is not None:
        out = {k: finish(v) for k, v in out.items()}
    return WeylElement(ctx, out)


def _powers(base: WeylElement):
    """1, base, base**2, ... without end, each power the previous one times
    base.

    Every step multiplies by the same base, so its scaled rows are built
    once for the whole chain.  Keeping the base on the right also keeps
    powering cheap: binary powering would multiply large powers by each
    other, and every pair of their terms expands under normal ordering.
    """
    acc = base.context.one()
    while True:
        yield acc
        acc = mul(acc, base)


def power(a: WeylElement, k: int) -> WeylElement:
    """k-th power; a**0 = 1.

    Refuses, before any work, a power whose Bernstein degree k*deg(a)
    would exceed the guard (QWEYL_MAX_DEGREE, default 512), or whose
    estimated work (_power_cost) exceeds POWER_COST_LIMIT.  A single term
    in which no pair carries both x and d commutes with itself and is
    raised in closed form; any other base is multiplied up one factor at a
    time (see _powers).
    """
    if k < 0:
        raise ValueError("negative powers are not defined in the algebra")
    if not a.terms:
        return a.context.one() if k == 0 else a
    degree = k * bernstein_degree(a)
    limit = _degree_limit(None)
    if degree > limit:
        raise DegreeLimitExceeded(f"power of degree {degree} exceeds the guard {limit}")
    if len(a.terms) == 1:
        ((al, be), c), = a.terms.items()
        if not any(x and y for x, y in zip(al, be)):
            key = (tuple(k * x for x in al), tuple(k * y for y in be))
            return WeylElement(a.context, {key: c ** k})
    cost = _power_cost(a, k)
    if cost > POWER_COST_LIMIT:
        raise DegreeLimitExceeded(
            f"power of estimated cost {cost} exceeds the guard {POWER_COST_LIMIT}"
        )
    return next(islice(_powers(a), k, None))


def _power_cost(a: WeylElement, k: int) -> int:
    """Estimated work of a**k by _powers: k steps times the output terms
    times one more than the t-degree of a coefficient.

    Terms: the monomials of degree at most k*deg(a), and no more than the
    weights al - be in their box times the contractions of each x_i against
    d_i.  t-degree: k times the t-span of a, plus the most inversions of a
    d_i before an x_i; at a root of unity t^level = 1, so the level.
    """
    ctx = a.context
    n = ctx.n
    top = k * bernstein_degree(a)
    max_x = [k * max(al[i] for al, _ in a.terms) for i in range(n)]
    max_d = [k * max(be[i] for _, be in a.terms) for i in range(n)]
    weights = [[al[i] - be[i] for al, be in a.terms] for i in range(n)]
    terms = min(
        math.comb(top + 2 * n, 2 * n),
        math.prod(k * (max(w) - min(w)) + 1 for w in weights)
        * math.prod(min(x, d) + 1 for x, d in zip(max_x, max_d)),
    )
    if ctx.kind == SYMBOLIC:
        span = max(c.max_exponent() for c in a.terms.values()) - min(
            c.min_exponent() for c in a.terms.values())
        inversions = min(sum(x * d for x, d in zip(max_x, max_d)), top * top // 4)
        t_degree = k * span + inversions
    else:
        t_degree = ctx.level
    return k * terms * (t_degree + 1)


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
