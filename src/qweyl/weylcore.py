"""Sparse PBW-normal-form arithmetic in the quantized Weyl algebra.

Elements are finite maps from exponent pairs (alpha, beta) to scalars of the
ambient coefficient domain; every operation returns a normal form with all
x-factors to the left of all d-factors.  Three coefficient domains are
supported, all exact: Laurent polynomials in t over Q (the generic
algebra), cyclotomic numbers at a fixed primitive root of unity, and
first-order expansions around such a root (for divided differences), which
are residues mod Phi_level(t)^2.  Each scalar is an integer vector over a
denominator, and in each domain products and powers multiply and sum
coefficients as Kronecker-packed integers (scalars.PackedPowers).  Powers
have one routine, _powers, behind one guard, _check_power: power and
apply_endo both run it, and mul is one step of its power chain (_chain).
The chain's driver (_packed_chain) takes its rows from a row builder, so the
quantum torus (torus.py) runs it too, with rows of twisted monomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .scalars import (
    Cyclo,
    DegreeLimitExceeded,
    Jet,
    LaurentPoly,
    PackedPowers,
    _at_root,
    _check_power_height,
    _LevelData,
    _reduce_vec,
    _slot_codec,
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
    "divisible_by_f",
    "act_on_polynomial",
]

SYMBOLIC = "t"
ROOT = "root"
JET = "jet"


# The largest Bernstein degree of a power (power), of a substitution of
# generator images (morphisms.check_substituted_degree, which apply_endo and
# hat run) and of a product of lifts (hatmap.transport_limit).  It is fixed,
# so a refusal depends on the input alone.
DEFAULT_DEGREE_LIMIT = 512
# The largest estimated cost of a power that is computed: by power and each
# power of a generator image apply_endo builds (_check_power), and by each
# l-th power of a generator image that hat raises in the quantum torus
# (torus_power_cost).
# On a 2-core Python 3.11 machine, symbolic powers ran at 20 to 80 million
# units a second (k = 40 powers of two terms with integer or rational
# coefficients, and of 1 + d1 + x1, the slowest), and powers of the lifts of
# x1^2 and 2 at levels 31 to 101, PBW or torus, at 11 to 31 million, so such
# a power that passes takes at most about 2 s there.  Neither estimate counts
# coordinate height: PBW powers of the lift of 1 + x1 - 3*x1^3 ran at 5 to 6
# million.
POWER_COST_LIMIT = 25_000_000


# Largest number of generator pairs.  Every monomial holds 2n exponents:
# x1 alone took 0.28 s at n = 10^4, 7.2 s at 10^5 and over 5 minutes at
# 10^6, and n = 10^8 ran out of memory; at this bound it takes 0.1 s on a
# 2-core machine.
MAX_PAIRS = 1 << 12


def _check_pairs(n: int) -> None:
    """Refuse, before any n-tuple is built, more than MAX_PAIRS pairs."""
    if n > MAX_PAIRS:
        raise ValueError(f"n = {n} exceeds the pair bound {MAX_PAIRS}")


class ContextMismatchError(ValueError):
    """Operands live in different algebras."""


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
        _check_pairs(n)
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
        object.__setattr__(self, "_qint_cache", [])
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
        """Coefficients are residues mod Phi_level(t)^2 (scalars.Jet), which
        carry the value and first divided difference at t = q."""
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
        if self.kind != ROOT:
            raise ValueError("only root-of-unity contexts have a fixed q")
        return Cyclo.zeta(self.level, self.qpow)

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
            if isinstance(x, Cyclo) and x.level == self.level:
                return Jet.lift(x, self.qpow)
            if isinstance(x, (int, Fraction)):
                return Jet.from_rational(self.level, x)
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
            val = Jet.t_power(self.level, e)
        self._tpow_cache[e] = val
        return val

    def qint(self, m: int):
        """Image of the quantum integer [m] in the coefficient domain,
        tabulated up to the largest m asked for: [j + 1] = [j] + t^j."""
        if m < 0:
            raise ValueError("quantum integers are defined for m >= 0")
        table = self._qint_cache
        if not table:
            table.append(self.scalar(0))
        while len(table) <= m:
            table.append(table[-1] + self.t_power(len(table) - 1))
        return table[m]

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

        The Gauss binomials past [k choose 1]_t = [k]_t are built in the
        cover ring of the domain (_gauss_row), for the entries that are not
        zero only, and each is mapped into the domain once: a row of at most
        two entries, such as the lifts' rows d^k x and d x^m, builds none.
        The falling product gains one factor [a]_t per entry, a window sum
        of its coordinates (_times_qint).  Phi_l divides [a]_t, once,
        exactly when l > 1 divides a, so it divides [k choose j]_t
        k//l - j//l - (k-j)//l times and the falling product
        m//l - (m-j)//l times: C_j is zero at a root of unity when that is
        at least 1, and for a jet (mod Phi_l^2) when it is at least 2.  At
        q = zeta^qpow the row is the row at q = zeta sent to q by
        t -> zeta^qpow (scalars._at_root).
        """
        got = self._exp_cache.get((k, m))
        if got is not None:
            return got
        if self.kind == ROOT and self.qpow > 1:
            level = self.level
            base = AlgebraContext.root_of_unity(self.n, level)._pair_expansion(k, m)
            row = tuple(_at_root(c.num, 0, c.den, level, self.qpow) for c in base)
        else:
            row = tuple(self._expansion_row(k, m))
        self._exp_cache[(k, m)] = row
        return row

    def _expansion_row(self, k: int, m: int) -> List:
        """The row of _pair_expansion, at q = zeta for a root of unity: the
        falling products up to the first that is zero, then the entries
        that Phi_l does not divide to the order of the modulus."""
        cols = min(k, m)
        falling = [self.one_scalar(), self.qint(m)][:cols + 1]
        while len(falling) <= cols and falling[-1]:
            falling.append(_times_qint(falling[-1], m + 1 - len(falling)))
        if not falling[-1]:  # so is every later falling product
            falling.pop()
        data = None
        if self.kind != SYMBOLIC:
            data = (Cyclo if self.kind == ROOT else Jet)._data(self.level)
        l, order = (data.level if data else 0), (2 if self.kind == JET else 1)
        live = [j for j in range(1, len(falling)) if l < 2 or
                k // l - j // l - (k - j) // l + m // l - (m - j) // l < order]
        wide = [j for j in live if j > 1]
        vecs = dict(zip(wide, _gauss_row(k, wide, data))) if wide else {}
        row = [self.scalar(0)] * (cols + 1)
        row[0] = self.t_power(k * m)
        for j in live:
            if j == 1:
                binom = self.qint(k)
            elif data:
                binom = data.kind._normalized(l, _reduce_vec(vecs[j], data), 1)
            else:
                binom = LaurentPoly._normalized(0, vecs[j], 1)
            row[j] = binom * falling[j] * self.t_power((k - j) * (m - j))
        return row


_CONTEXTS: Dict[tuple, "AlgebraContext"] = {}


def _gauss_row(k: int, cols: Sequence[int], data: Optional[_LevelData]) -> List[List[int]]:
    """The Gauss binomials [k choose j]_t for j in cols, as coordinate
    vectors of the cover ring of data: the ring before its reduction by the
    modulus, Z[t]/(c) for c its sparse cycle (stages[0]), or Z[t] for None.

    Built row by row by the q-Pascal rule
        [n choose j] = [n-1 choose j-1] + t^j [n-1 choose j]
    on the columns up to the largest min(j, k - j) of cols, since
    [k choose j] = [k choose k - j], and only the cells asked for are read.
    For u = t^l - 1 at the level l, a cell is A + B u with A and B of
    degree below l (B = 0 unless c = u^2):
        t^(Ml + r) (A + B u) = rot A + (rot B + wrap A + M rot A) u,
    for rot the rotation by r of the l coordinates and wrap A the r top
    coordinates of A moved to the bottom, since t^l = 1 + u and u^2 = 0 in
    Z[t]/(u^2) (and u = 0 in Z[t]/(u)).  The coefficients of a Gauss
    binomial are non-negative, so A and B are too: at most
    C(n, j) <= 2^k and C(n, j) * j(n - j) / l, every partial sum of a cell
    below the cell.  So each is one packed int of non-negative slots, and a
    cell is a few shifts, masks and sums of integers, with no product and
    no reduction.  The vector of A + B u is A - B then B, its coordinates
    at t^0..t^(2l-1).
    """
    level = data.level if data else 0
    square = bool(data) and not data.fold
    codec = _slot_codec((1 << k) * (k * k // (4 * level) + 1 if square else 1))
    bits = codec.bits
    mask = cache(lambda s: (1 << bits * s) - 1)  # the low s slots, for this row only

    def times_t(a: int, b: int, e: int) -> Tuple[int, int]:
        if not level:
            return a << bits * e, 0
        m, r = divmod(e, level)
        if r:
            s = level - r
            wrap = a >> bits * s
            a = (a & mask(s)) << bits * r | wrap
            if square:
                b = ((b & mask(s)) << bits * r | b >> bits * s) + wrap
        if square and m:
            b += m * a
        return a, b

    cols = [min(j, k - j) for j in cols]
    one, top = (1, 0), max(cols)
    row = [one]
    for n in range(1, k + 1):
        nxt = [one]
        for j in range(1, min(n - 1, top) + 1):
            (a, b), (c, d) = row[j - 1], times_t(*row[j], j)
            nxt.append((a + c, b + d))
        if n <= top:
            nxt.append(one)
        row = nxt

    def read(v: int, n: int) -> List[int]:
        return list(codec.read(v + codec.flip(n), n))

    out = []
    for j in cols:
        a, b = row[j]
        if not level:
            out.append(read(a, codec.slots(a)))
        elif not square:
            out.append(read(a, level))
        else:
            a, b = read(a, level), read(b, level)
            out.append([x - y for x, y in zip(a, b)] + b)
    return out


def _times_qint(c, a: int):
    """c * [a]_t, for c a LaurentPoly, or a Cyclo or Jet with the generator
    read as t: the window sums of a coordinates of c, each a running sum
    less the running sum a places lower, reduced once."""
    run = list(accumulate(list(c.num) + [0] * (a - 1)))
    vec = run[:a] + list(map(sub, run[a:], run))
    if isinstance(c, LaurentPoly):
        return LaurentPoly._normalized(c.low, vec, c.den)
    return c._normalized(c.level, _reduce_vec(vec, c._data(c.level)), c.den)


def _unit(n: int, i: int) -> Tuple[int, ...]:
    if not 1 <= i <= n:
        raise IndexError(f"generator index {i} out of range 1..{n}")
    _check_pairs(n)
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


class _Keys:
    """Monomials x^al d^be coded as ints: each exponent is a field of s bits,
    al[0] the highest and be[-1] the lowest, so adding two codes adds their
    exponents whenever every field of the sum lies in 0 .. 2**s - 1.  A code
    may have negative fields (an offset), as long as the sums it is added
    into do not.

    With a shift, the al fields of the k-th value of a chain hold al plus k
    times the shift, so that exponents down to -k * shift code as fields
    of 0 and up: each row offset adds the shift once (exps reads it back)."""

    __slots__ = ("n", "s", "_half", "_low", "shift")

    def __init__(self, n: int, top: int, shift: Optional[Tuple[int, ...]] = None):
        # top: the largest field of any monomial that is coded
        self.n, self.s = n, max(top, 1).bit_length()
        self._half = n * self.s
        self._low = (1 << self._half) - 1
        self.shift = shift

    def code(self, al: Sequence[int], be: Sequence[int]) -> int:
        key = 0
        for e in (*al, *be):
            key = (key << self.s) + e
        return key

    def exps(self, key: int, k: int = 0) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The exponents of the code of a k-th value of a chain."""
        n, s = self.n, self.s
        mask = (1 << s) - 1
        fields = tuple((key >> (s * i)) & mask for i in range(2 * n - 1, -1, -1))
        if self.shift:
            return tuple(a - k * h for a, h in zip(fields, self.shift)), fields[n:]
        return fields[:n], fields[n:]

    def part(self, key: int, x_side: bool) -> int:
        """The x-exponent fields (x_side) or the d-exponent fields of key,
        as a code that part_exps reads."""
        return key >> self._half if x_side else key & self._low

    def part_exps(self, code: int) -> Tuple[int, ...]:
        """The n exponents of a code made by part."""
        return self.exps(code)[1]


def _scaled_rows(ctx: AlgebraContext, exps: Tuple[int, ...], b: WeylElement,
                 keys: _Keys, right: bool = True):
    """d^exps * b (right) or b * x^exps (left), as the distinct key offsets
    and the nonzero coefficients of its terms, in two lists.

    A term x^al d^be meets a term cb x^ga d^de of b, on the right, in the
    terms (cb * C_js) x^(al + ga - js) d^(be + de - js), where C_js is the
    product of the pair-expansion entries of d^be[i] x^ga[i] over the pairs
    i where both are nonzero.  On the left, x^ga d^de meets cb x^al d^be in
    (cb * C_js) x^(al + ga - js) d^(be + de - js), with d^be[i] x^ga[i]
    expanded the same way.  Either way the term moves by the offset
    (X - js, D - js), for x^X d^D the term of b, and the scaled rows depend
    only on exps, the d-exponents (right) or x-exponents (left) of the term
    they meet, so they are built once per distinct exps and each
    contribution costs one product.  Entries that land on the same offset
    are summed, and sums that cancel dropped: for the lift d + F(x) f of d,
    f = dx - xd, the entries telescope (on the lift of x1^2, 1 * x^2 and
    -(1 - q)[a] * x^3 d meet at one offset as q^a).  So a row's offsets are
    distinct, which the slot bound of PackedPowers counts on.
    """
    n = ctx.n
    expansion = ctx._pair_expansion
    row: Dict[int, object] = {}
    for (ga, de), cb in b.terms.items():
        ks, ms = (exps, ga) if right else (de, exps)
        hot = [i for i in range(n) if ks[i] and ms[i]]
        combos = [((), cb)]
        for i in hot:
            entries = expansion(ks[i], ms[i])
            combos = [(js + (j,), c * e) for js, c in combos
                      for j, e in enumerate(entries) if e]
        for js, c in combos:
            x, d = list(ga), list(de)
            for i, j in zip(hot, js):
                x[i] -= j
                d[i] -= j
            off = keys.code(x, d)
            cur = row.get(off)
            row[off] = c if cur is None else cur + c
    row = {off: c for off, c in row.items() if c}
    return list(row), list(row.values())


def _mac(terms) -> Dict[int, int]:
    """The multiply-accumulate loop of the power chain: for each
    (key, value, row) of terms, each entry of the row is multiplied by
    value and added into the sum at key + its offset.  Values are packed
    ints, and a row (PackedPowers.row) lists its dense entries as
    (offset, packed int), and its entries with one or two nonzero
    coordinates as (offset, coordinate, bit shift) and (offset,
    coordinate, shift, coordinate, shift): a shifted small multiple of the
    value is that entry's packed int times it, bit for bit."""
    out: Dict[int, int] = {}
    get = out.get
    for key, ca, (dense, mono, pair) in terms:
        for off, cb in dense:
            c = ca * cb
            k = key + off
            cur = get(k)
            out[k] = c if cur is None else cur + c
        for off, c1, s1 in mono:
            c = ca * c1 << s1
            k = key + off
            cur = get(k)
            out[k] = c if cur is None else cur + c
        for off, c1, s1, c2, s2 in pair:
            c = (ca * c1 << s1) + (ca * c2 << s2)
            k = key + off
            cur = get(k)
            out[k] = c if cur is None else cur + c
    return out


def _top_exponent(a: WeylElement) -> int:
    return max(max(al + be) for al, be in a.terms)


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product in PBW normal form; bilinear over the coefficient domain.

    One step of the power chain (_chain) that starts from a and multiplies
    by b.
    """
    if a.context != b.context:
        raise ContextMismatchError("cannot multiply across contexts")
    if not (a.terms and b.terms):
        return a.context.zero()
    return _chain(a, b, {1}, False)[1]


def _powers(base: WeylElement, wanted) -> Dict[int, WeylElement]:
    """{k: base**k for each k >= 0 in wanted}, the one power routine of
    the algebra; power and apply_endo guard it first (_check_power).

    A single term in which no pair carries both x and d commutes with
    itself and is raised in closed form, by the power of its coefficient.
    Any other base is multiplied up one factor at a time: mul squares it,
    and one power chain (_chain) multiplies the square by base on the side
    _left_side picks and unpacks only the exponents wanted.  Both orders
    give the same power, as base commutes with its own powers.  Binary
    powering would multiply large powers by each other, and every pair of
    their terms expands under normal ordering.
    """
    ctx = base.context
    wanted = set(wanted)
    term = _commuting_term(base)
    if term:
        (al, be), c = term
        return {k: WeylElement(ctx, {(tuple(k * x for x in al), tuple(k * y for y in be)): c ** k})
                for k in wanted}
    out = {k: base if k else ctx.one() for k in wanted if k < 2}
    if max(wanted, default=0) < 2:
        return out
    square = mul(base, base)
    later = {k - 2 for k in wanted if k > 2}
    chain = _chain(square, base, later, _left_side(base)) if later and square.terms else {}
    # base**2 is the square; so is every later power when the square is 0,
    # as it is for base 0
    out.update((k, chain.get(k - 2, square)) for k in wanted if k > 1)
    return out


def _commuting_term(a: WeylElement):
    """The one term ((al, be), c) of a, when a is a single term in which no
    pair carries both x and d, so that it commutes with itself; else None."""
    if len(a.terms) == 1:
        ((al, be), c), = a.terms.items()
        if not any(x and y for x, y in zip(al, be)):
            return (al, be), c
    return None


def _left_side(base: WeylElement) -> bool:
    """Whether a chain of powers of base multiplies by base on the left:
    acc * base expands each x-exponent ga of base against acc (sum of
    prod(ga_i + 1) over its terms), base * acc each d-exponent of base,
    and the side with fewer pair expansions is taken."""
    return sum(math.prod(e + 1 for e in ga) for ga, _ in base.terms) > sum(
        math.prod(e + 1 for e in de) for _, de in base.terms)


def _chain(start: WeylElement, base: WeylElement, wanted, left: bool) -> Dict[int, WeylElement]:
    """{k: start * base**k (base**k * start when left) for each k >= 1 in
    wanted}, for nonzero start and base, multiplying by base one factor at
    a time: the packed chain (_packed_chain) with the normal-ordering rows
    (_scaled_rows) of base."""
    ctx = base.context
    keys = _Keys(ctx.n, _top_exponent(start) + max(wanted) * _top_exponent(base))
    start = {keys.code(al, be): c for (al, be), c in start.terms.items()}

    def rows(scaled):
        scaled = WeylElement(ctx, scaled)
        return lambda exps: _scaled_rows(ctx, exps, scaled, keys, not left)

    packer, values = _packed_chain(start, base.terms, wanted, keys, left, rows)
    return {k: WeylElement(ctx, {keys.exps(c, k): packer.unpack(v, k, codec) for c, v in acc.items()})
            for k, (acc, codec) in values.items()}


def _packed_chain(start: Mapping[int, object], base: Mapping, wanted, keys: _Keys, left: bool,
                  rows) -> Tuple[PackedPowers, Dict[int, Tuple[Dict, object]]]:
    """(packer, {k: (values, codec)}) for each k >= 1 in wanted, for a
    chain that multiplies the nonzero start, given by the codes (keys) of
    its monomials, by the nonzero base one factor at a time.

    Each term of a value meets the row of its group, the x-fields of its
    code (left) or its d-fields.  rows(scaled), for scaled the terms of
    base with their coefficients as PackedPowers scales them, gives the
    function of a group's exponents that returns the distinct offsets and
    the nonzero coefficients of its row.  The chain keeps each value as
    codes and as coefficients packed by PackedPowers, and hands the values
    asked for over so, with the codec of their step: the callers unpack
    what they read (packer.unpack).  Rows are built once per group, for
    the whole chain, and each step's slot bound
    is a bound on the height (largest |coordinate|) of its values times the
    per-offset widths of the rows it meets (PackedPowers).
    """
    packer = PackedPowers(list(base.values()), list(start.values()))
    acc, height = packer.start(start)
    row_of = rows({k: packer.scaled(c) for k, c in base.items()})
    part = keys.part
    table, out = {}, {}
    for k in range(1, max(wanted) + 1):
        groups = [part(key, left) for key in acc]
        used = set(groups)
        for g in used - table.keys():
            offsets, coeffs = row_of(keys.part_exps(g))
            table[g] = (offsets, coeffs, [packer.norm(c) for c in coeffs])
        # a sum meets at most one product per offset: the largest sum|b_i|
        # of each offset bounds its share
        widths: Dict[int, int] = {}
        for g in used:
            offsets, _, norms = table[g]
            for off, w in zip(offsets, norms):
                if w > widths.get(off, 0):
                    widths[off] = w
        values = packer.step(acc.values(), height * sum(widths.values()))
        packed = {g: packer.row(g, *table[g][:2]) for g in used}
        acc, height = packer.settle(_mac(zip(acc, values, map(packed.__getitem__, groups))))
        if k in wanted:
            out[k] = acc, packer.codec
    return packer, out


def power(a: WeylElement, k: int) -> WeylElement:
    """k-th power; a**0 = 1.  Guarded before any work (_check_power), then
    computed by the one power routine (_powers)."""
    _check_power(a, k)
    return _powers(a, {k})[k]


def _check_power(a: WeylElement, k: int) -> None:
    """Refuse, before any work, the k-th power of a that _powers would
    compute: k < 0; then a Bernstein degree k*deg(a) over the guard
    DEFAULT_DEGREE_LIMIT (512); then, for a base _powers raises in closed
    form, a power of its coefficient over the scalar height bound
    (scalars.MAX_POWER_BITS); then an estimated work (_power_cost) over
    POWER_COST_LIMIT.  A closed form costs a few products unless its
    coefficient is a Laurent polynomial of more than one term, so only
    that one is held to the cost guard."""
    if k < 0:
        raise ValueError("negative powers are not defined in the algebra")
    if not a.terms:
        return
    degree = k * bernstein_degree(a)
    if degree > DEFAULT_DEGREE_LIMIT:
        raise DegreeLimitExceeded(
            f"power of degree {degree} exceeds the guard {DEFAULT_DEGREE_LIMIT}")
    term = _commuting_term(a)
    if term:
        c = term[1]
        _check_power_height((c,), k)
        if not isinstance(c, LaurentPoly) or c.is_monomial():
            return
    cost = _power_cost(a, k)
    if cost > POWER_COST_LIMIT:
        raise DegreeLimitExceeded(
            f"power of estimated cost {cost} exceeds the guard {POWER_COST_LIMIT}"
        )


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


def specialize_element(a: WeylElement, level: int) -> WeylElement:
    """Coefficientwise specialization t -> zeta_level of a symbolic element
    into the root-of-unity algebra."""
    ctx = a.context
    if ctx.kind != SYMBOLIC:
        raise ValueError("element is already specialized")
    target = AlgebraContext.root_of_unity(ctx.n, level)
    return WeylElement(target, {k: _specialize_scalar(c, level) for k, c in a.terms.items()})


def bernstein_degree(a: WeylElement) -> int:
    """Total degree with deg x_i = deg d_i = 1; undefined on zero."""
    if not a.terms:
        raise ValueError("the zero element has no degree")
    return max(sum(al) + sum(be) for (al, be) in a.terms)


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
