"""Exact scalar tower: rationals, Laurent polynomials in t, cyclotomic fields.

Every value here is immutable and arithmetic never mutates its operands, so
scalars can be shared freely across threads.  All exact domains have decidable
equality, which the normal-form layers above rely on; floating point enters
only through explicit embeddings used for limit detection.

Cyclotomic numbers (Cyclo), first-order expansions (Jet) and Laurent
polynomials over Q (LaurentPoly) are all stored as integer vectors over a
positive denominator with content 1 (_lowest_terms), and share one
arithmetic: their products multiply the vectors by _product, and the
algebra's products and powers multiply and sum them as Kronecker-packed
integers (PackedPowers), in one slot codec (_SlotCodec) for every domain.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import sub
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Rational",
    "Cyclo",
    "LaurentPoly",
    "Jet",
    "cyclotomic_polynomial",
    "euler_phi",
    "qint",
    "specialize",
    "embed",
]

Rational = Fraction
RationalLike = Union[int, Fraction]


class DegreeLimitExceeded(ValueError):
    """A power or substitution would exceed the Bernstein-degree guard, or a
    power or an inverse its cost guard."""


# ---------------------------------------------------------------------------
# powering, shared by every domain of the tower and by the algebras above it
# ---------------------------------------------------------------------------


def _power(base, e: int, one):
    """base**e for e >= 0 by square-and-multiply; one is returned for e = 0.

    The result starts empty rather than at one, and the base is never squared
    past the top bit of e, so no product is spent on one or on a square that
    is not used.
    """
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


def _sparse_power(base, e: int, one, size: int):
    """base**e for a sparse polynomial of size terms.

    Square-and-multiply for at most two terms.  Larger bases are multiplied
    up one factor at a time, keeping the small factor on the right: binary
    powering would square mid-sized intermediates, which swells the work when
    the terms are not homogeneous.
    """
    if size <= 2 or not e:
        return _power(base, e, one)
    acc = base
    for _ in range(e - 1):
        acc = acc * base
    return acc


# Largest estimated height, in bits, of a scalar power: the exponent times
# the bits of the sum of the base's coordinates and of its denominator.  On a
# 2-core machine 3^1000000 - 3^1000000 + x1, whose power is estimated at
# 2 * 10^6 bits, normalizes in 0.4 s, and 3^30000000 ran for 21.6 s before
# its digits could not be printed.
MAX_POWER_BITS = 1 << 21


def _check_power_height(values: Iterable, k: int) -> None:
    """Refuse, before any work, the k-th or -k-th power of an exact scalar in
    values whose estimated height exceeds MAX_POWER_BITS."""
    for c in values:
        num, den = ((c.numerator,), c.denominator) if isinstance(c, (int, Fraction)) else (c.num, c.den)
        bits = abs(k) * max(sum(map(abs, num)) - 1, den - 1).bit_length()
        if bits > MAX_POWER_BITS:
            raise ValueError(f"scalar power of estimated height {bits} bits exceeds the "
                             f"height bound {MAX_POWER_BITS}")


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-level reduction tables
# ---------------------------------------------------------------------------


_CYCLO_CACHE: Dict[int, Tuple[int, ...]] = {}

# Largest level with reduction tables.  Phi_l has phi(l) + 1 coefficients,
# so a level of 10^9 would ask for a list of about 8 GB; at this bound the
# table builds in about 0.02 s on a 2-core machine.
MAX_LEVEL = 1 << 16


# Largest estimated work of a Cyclo inverse by its product of conjugates
# (_inverse_cost).  On a 2-core machine the inverse of 1 - q + 2q^3 took
# 0.25-0.32 s at l = 257 (estimate 1.9 * 10^10) and 4.1 s at l = 509
# (3.0 * 10^11), and that of a dense value with coordinates in -9..9 took
# 0.17 s at l = 127 (1.2 * 10^10) and 1.5 s at l = 211 (9.6 * 10^10).
INVERSE_COST_LIMIT = 10 ** 11


def _inverse_cost(num: Sequence[int]) -> int:
    """Estimated work of the product of the phi - 1 conjugates of a value of
    phi coordinates num: the product has phi coordinates of up to
    (phi - 1) * h bits, for h the bits of sum|num|, and multiplying it up
    one conjugate at a time costs about half the square of that size."""
    phi = len(num)
    return (phi * (phi - 1) * sum(map(abs, num)).bit_length()) ** 2 // 2


def _check_level(level: int) -> None:
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the level bound {MAX_LEVEL}")


def cyclotomic_polynomial(level: int) -> Tuple[int, ...]:
    """Integer coefficients (ascending) of the level-th cyclotomic polynomial.

    For level n > 1, Phi_n = prod over d | n of (1 - t^d)^mu(n/d), where
    only the d with n/d squarefree count.  As power series the factors
    commute and Phi_n has degree phi(n), so each is applied mod
    t^(phi(n) + 1) by one pass over the coefficients: times 1 - t^d, or
    divided by it, a running sum along each residue class mod d.
    """
    if level < 1:
        raise ValueError("level must be positive")
    _check_level(level)
    got = _CYCLO_CACHE.get(level)
    if got is not None:
        return got
    if level == 1:
        poly: Tuple[int, ...] = (-1, 1)
    else:
        primes, rest, p = [], level, 2
        while p * p <= rest:
            if rest % p == 0:
                primes.append(p)
                while rest % p == 0:
                    rest //= p
            p += 1
        if rest > 1:
            primes.append(rest)
        deg = level
        for p in primes:
            deg = deg // p * (p - 1)
        vec = [1] + [0] * deg
        for mask in range(1 << len(primes)):
            d = level // math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
            if d > deg:
                continue
            if bin(mask).count("1") % 2:  # mu(n/d) = -1
                for r in range(d):
                    vec[r::d] = accumulate(vec[r::d])
            else:
                vec[d:] = map(sub, vec[d:], vec)
        poly = tuple(vec)
    _CYCLO_CACHE[level] = poly
    return poly


def euler_phi(level: int) -> int:
    return len(cyclotomic_polynomial(level)) - 1


def _division(f: Tuple[int, ...]) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """(d, the nonzero (k, f_k) for k < d) of a monic f of degree d, whose
    synthetic division rewrites z^d as -sum f_k z^k."""
    d = len(f) - 1
    return d, tuple((k, c) for k, c in enumerate(f[:d]) if c)


class _LevelData:
    """The ring Z[z]/(f) of the coordinate vectors of one class at one
    level, for a monic f of degree `degree`: Phi_level for Cyclo and
    Phi_level^2 for Jet.  A vector is reduced first by cycle, a sparse
    multiple of f: z^level - 1, or (z^level - 1)^2 = z^(2 level) -
    2 z^level + 1, both divisible by f; then by f itself."""

    __slots__ = ("level", "kind", "degree", "stages", "fold", "block")

    def __init__(self, level: int, kind: type, modulus: Tuple[int, ...],
                 cycle: Tuple[int, ...]):
        self.level, self.kind = level, kind
        self.stages = (_division(cycle), _division(modulus))
        d = self.degree = len(modulus) - 1
        # z^level = 1 holds, so packed sums fold inside the integer
        self.fold = len(cycle) - 1 == level
        # m = p^(k-1) at a level p^k, p prime, where Phi(z) = Phi_p(z^m) is
        # 1 + z^m + ... + z^d; 0 at other levels and for Jet
        m = level - d
        self.block = m if self.fold and level > 1 and modulus == (1, *(0,) * (m - 1)) * (d // m) + (1,) else 0


_LEVELS: Dict[int, _LevelData] = {}
_JET_LEVELS: Dict[int, _LevelData] = {}


def _leveldata(level: int) -> _LevelData:
    got = _LEVELS.get(level)
    if got is None:
        phi = cyclotomic_polynomial(level)  # checks the level first
        got = _LEVELS[level] = _LevelData(level, Cyclo, phi, (-1, *(0,) * (level - 1), 1))
    return got


def _jetdata(level: int) -> _LevelData:
    got = _JET_LEVELS.get(level)
    if got is None:
        phi, zeros = cyclotomic_polynomial(level), (0,) * (level - 1)
        got = _JET_LEVELS[level] = _LevelData(level, Jet, tuple(_product(phi, phi)),
                                              (1, *zeros, -2, *zeros, 1))
    return got


def _reduce_vec(vec: List[int], data: _LevelData) -> List[int]:
    """Reduce an integer coefficient vector mod the ring's modulus, in place,
    by synthetic division from the top entry down: by the sparse cycle, then
    by the modulus."""
    for d, low in data.stages:
        for idx in range(len(vec) - 1, d - 1, -1):
            c = vec[idx]
            if c:
                base = idx - d
                for k, p in low:
                    vec[base + k] -= c * p
        del vec[d:]
    d = data.degree
    if len(vec) < d:
        vec.extend([0] * (d - len(vec)))
    return vec


# ---------------------------------------------------------------------------
# fixed-point complex embedding
# ---------------------------------------------------------------------------

# The embedding midpoint is accepted once its error radius is below
# 2**-_EMBED_GUARD of its size.
_EMBED_GUARD = 60


def _atan_inv(x: int, q: int) -> int:
    """arctan(1/x) * 2**q by its Taylor series, within q units for x >= 5."""
    total = term = (1 << q) // x
    x2 = x * x
    k = 1
    while term:
        term //= x2
        k += 2
        total += -(term // k) if k & 2 else term // k
    return total


@cache
def _zeta_fixed(level: int, prec: int) -> Tuple[int, int]:
    """cos and sin of 2*pi/level times 2**prec, each within 2 units.

    Each (level, prec) is computed at prec itself and cached, so the result,
    and every embedding made from it, depends on the arguments alone.
    """
    # The guard bits absorb the truncation errors of Machin's formula (a few
    # units per term) and of the Taylor series, whose errors grow by at most
    # e**(2*pi) < 2**10 along the terms.
    g = 2 * prec.bit_length() + 32
    q = prec + g
    theta = 2 * (16 * _atan_inv(5, q) - 4 * _atan_inv(239, q)) // level
    cos, sin, term, k = 1 << q, 0, 1 << q, 0
    while term:
        k += 1
        term = term * theta // (k << q)  # theta**k / k!
        if k & 1:
            sin += -term if k & 2 else term
        else:
            cos += -term if k & 2 else term
    half = 1 << (g - 1)
    return (cos + half) >> g, (sin + half) >> g


# ---------------------------------------------------------------------------
# coordinate vectors: cyclotomic numbers and first-order expansions
# ---------------------------------------------------------------------------


def _product(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Coefficients of the product of two dense integer polynomials.

    When a factor has at most two nonzero coefficients, a shifted multiple
    of the other is added for each; otherwise one Kronecker-packed integer
    product (_SlotCodec) gives them all, in slots that hold
    max|a_i| * sum|b_i|, the largest coefficient the product can have.
    """
    n = len(a) + len(b) - 1
    if len(a) - a.count(0) > 2:
        if len(b) - b.count(0) > 2:
            codec = _slot_codec(max(map(abs, a)) * sum(map(abs, b)))
            return list(codec.read(codec.pack(a) * codec.pack(b) + codec.flip(n), n))
        a, b = b, a
    out, m = [0] * n, len(b)
    for i, ai in enumerate(a):
        if ai:
            out[i:i + m] = [c + ai * bj for c, bj in zip(out[i:i + m], b)]
    return out


def _lowest_terms(num: Sequence[int], den: int) -> Tuple[Sequence[int], int]:
    """(num, den) for the vector num / den, with den positive and
    gcd(den, *num) = 1, so den = 1 for zero: the normal form of every
    coordinate vector of the tower."""
    if den < 0:
        den = -den
        num = [-c for c in num]
    if den > 1:  # den == 1 forces content gcd 1, nothing to cancel
        g = math.gcd(den, *num)
        if g > 1:
            den //= g
            num = [c // g for c in num]
    return num, den


def _signed_terms(c, var: str) -> List[str]:
    """The terms of sum_k c.num[k] var^(c.low + k) / c.den, a Cyclo in q or
    a LaurentPoly in t, in one pass over the coordinates: each term is
    written after its sign, " + " or " - ", with its rational coefficient
    in lowest terms, and a coefficient 1 before a power is left out."""
    den = c.den
    out = []
    for e, num in enumerate(c.num, c.low):
        if not num:
            continue
        sign = " + "
        if num < 0:
            sign, num = " - ", -num
        if den == 1:
            body = str(num)
        else:
            g = math.gcd(num, den)
            body = str(num // g) if g == den else f"{num // g}/{den // g}"
        if not e:
            out.append(sign + body)
        else:
            power = var if e == 1 else f"{var}^{e}"
            out.append(sign + power if body == "1" else f"{sign}{body}*{power}")
    return out


def _sum_text(terms: List[str]) -> str:
    """Signed terms (_signed_terms) joined into one sum, the text form of
    every exact scalar: the first term's sign, rewritten in the list, is
    dropped or written "-"."""
    if terms:
        first = terms[0]
        terms[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(terms)


class _Residue:
    """Element of Q[z]/(f) for the monic integer polynomial f of a class and
    level (_LevelData), the one arithmetic of Cyclo and Jet.

    The residue is stored reduced mod f as an integer vector of deg f
    coordinates over a positive common denominator with content 1, so
    equality is a plain tuple comparison.  Each subclass names its ring by
    _data.  low, the exponent of the first coordinate, is always 0:
    PackedPowers reads low and den of every value, as of a LaurentPoly.
    """

    __slots__ = ("level", "num", "den")
    low = 0

    def __init__(self, level: int, coeffs: Iterable[RationalLike], den: int = 1):
        data = self._data(level)
        fracs = [Fraction(c) for c in coeffs]
        common = den
        for f in fracs:
            common = common * f.denominator // math.gcd(common, f.denominator)
        vec = [int(f * common) for f in fracs]
        if len(vec) > data.degree:
            _reduce_vec(vec, data)
        elif len(vec) < data.degree:
            vec.extend([0] * (data.degree - len(vec)))
        obj = self._normalized(level, vec, common)
        object.__setattr__(self, "level", obj.level)
        object.__setattr__(self, "num", obj.num)
        object.__setattr__(self, "den", obj.den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    @classmethod
    def _raw(cls, level: int, num: Tuple[int, ...], den: int):
        obj = object.__new__(cls)
        object.__setattr__(obj, "level", level)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def _normalized(cls, level: int, num: List[int], den: int):
        num, den = _lowest_terms(num, den)
        return cls._raw(level, tuple(num), den)

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, level: int):
        return cls._raw(level, (0,) * cls._data(level).degree, 1)

    @classmethod
    def one(cls, level: int):
        return cls.from_rational(level, 1)

    @classmethod
    def from_rational(cls, level: int, value: RationalLike):
        f = Fraction(value)
        d = cls._data(level).degree
        return cls._raw(level, (f.numerator,) + (0,) * (d - 1), f.denominator)

    # queries ---------------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def as_rational(self) -> Optional[Fraction]:
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def coefficients(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        cls = type(self)
        if isinstance(other, cls):
            if other.level == self.level:
                return other
            r = other.as_rational()
            if r is not None:
                return cls.from_rational(self.level, r)
            if self.as_rational() is not None:
                return None  # handled by reflected op on the other side
            raise ValueError(
                f"{cls.__name__} level mismatch: {self.level} vs {other.level}"
            )
        if isinstance(other, (int, Fraction)):
            return cls.from_rational(self.level, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = [a * o.den + b * self.den for a, b in zip(self.num, o.num)]
        return self._normalized(self.level, num, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = [a * o.den - b * self.den for a, b in zip(self.num, o.num)]
        return self._normalized(self.level, num, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self._raw(self.level, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vec = _reduce_vec(_product(self.num, o.num), self._data(self.level))
        return self._normalized(self.level, vec, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        return _power(self, exponent, self.one(self.level))

    # comparisons / misc ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            if other.level == self.level:
                return self.num == other.num and self.den == other.den
            a, b = self.as_rational(), other.as_rational()
            return a is not None and a == b
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == Fraction(other)
        return NotImplemented

    def __hash__(self):
        r = self.as_rational()
        if r is not None:
            return hash(r)
        return hash((self.level, self.num, self.den))

    def __repr__(self):
        return f"{type(self).__name__}({self.level}, {list(self.num)!r}, den={self.den})"


class Cyclo(_Residue):
    """Element of the cyclotomic field Q(zeta_level), reduced mod the
    level-th cyclotomic polynomial.  The distinguished embedding sends the
    generator to exp(2*pi*i/level).
    """

    __slots__ = ()
    _data = staticmethod(_leveldata)

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "Cyclo":
        data = _leveldata(level)
        vec = [0] * max(data.degree, (power % level) + 1)
        vec[power % level] = 1
        return cls._normalized(level, _reduce_vec(vec, data), 1)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "Cyclo":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return super().__pow__(exponent)

    def inverse(self) -> "Cyclo":
        """x^-1 = rest / N(x), where rest is the product of the conjugates
        sigma_k(x) (z -> z^k for k coprime to the level, k != 1) and the
        field norm N(x) = x * rest is a nonzero rational.

        A value (c / den) z^j of one coordinate is inverted in closed form,
        as (den / c) z^-j.  Any other value whose estimated work
        (_inverse_cost) exceeds INVERSE_COST_LIMIT is refused before work.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        level = self.level
        nonzero = [j for j, c in enumerate(self.num) if c]
        if len(nonzero) == 1:
            j, = nonzero
            zeta = Cyclo.zeta(level, -j).num
            return Cyclo._normalized(level, [self.den * c for c in zeta], self.num[j])
        cost = _inverse_cost(self.num)
        if cost > INVERSE_COST_LIMIT:
            raise DegreeLimitExceeded(f"cyclotomic inverse of estimated cost {cost} exceeds "
                                      f"the guard {INVERSE_COST_LIMIT}")
        data = _leveldata(level)
        rest = Cyclo.one(level)
        for k in range(2, level):
            if math.gcd(k, level) == 1:
                vec = [0] * level
                for j, c in enumerate(self.num):
                    vec[j * k % level] += c
                rest = rest * Cyclo._normalized(level, _reduce_vec(vec, data), self.den)
        return rest * (1 / (self * rest).as_rational())

    def embed(self) -> complex:
        """Distinguished complex embedding, generator -> exp(2*pi*i/level).

        The returned value z satisfies  |z - x| <= 2**-52 * |x|  for the
        exact value x whenever |x| is 0 or in the normal double range.

        Coordinates can be hundreds of bits wide while the value cancels to
        something exponentially small, so the sum is evaluated as a
        midpoint-radius ball: Horner's rule in integers scaled by 2**prec
        gives a midpoint within a radius fixed by the coordinate sizes, and
        prec grows until the radius is below 2**-60 of the midpoint.  The
        midpoint is then divided by the denominator with correct rounding.
        """
        num = self.num
        maxc = max(map(abs, num))
        if not maxc:
            return 0j
        d = len(num)
        # With zeta known to 2 units per component, each Horner step adds at
        # most 2*sqrt(2) * |partial sum| + sqrt(2) units of error, and the
        # partial sums are bounded by k * maxc; rad covers the total.
        rad = 2 * d * (d * maxc + 1)
        prec = maxc.bit_length() + 2 * d.bit_length() + 64
        while True:
            zr, zi = _zeta_fixed(self.level, prec)
            re = im = 0
            for c in reversed(num):
                re, im = ((re * zr - im * zi) >> prec) + (c << prec), (re * zi + im * zr) >> prec
            size = max(abs(re), abs(im))
            if size >> _EMBED_GUARD >= rad:
                scale = self.den << prec
                return complex(re / scale, im / scale)
            # a zero midpoint says only that the value is below the radius
            prec += rad.bit_length() + _EMBED_GUARD + 1 - size.bit_length() if size else prec

    def __str__(self):
        return _sum_text(_signed_terms(self, "q")) or "0"


def _at_root(num: Sequence[int], low: int, den: int, level: int, qpow: int) -> Cyclo:
    """sum_k num[k] q^(low + k) / den at q = zeta_level^qpow, as a Cyclo:
    the coordinates are added into one vector of level entries, since
    q^level = 1, which is reduced once."""
    data = _leveldata(level)  # checks the level before the vector is made
    vec = [0] * level
    for e, c in enumerate(num, low):
        if c:
            vec[e * qpow % level] += c
    return Cyclo._normalized(level, _reduce_vec(vec, data), den)


def inverse_one_minus_q(level: int, qpow: int = 1) -> Cyclo:
    """1/(1 - q) at q = zeta_level^qpow, for level >= 2, in closed form:
    -(1/l) sum_{j<l} j q^j, since (1 - q) sum_{j<l} j q^j =
    sum_{0<j<l} q^j - (l - 1) q^l = -l when q^l = 1 and q != 1.  One
    vector of l coordinates, reduced once, where Cyclo.inverse would
    multiply phi(l) - 1 conjugates."""
    return _at_root(range(0, -level, -1), 0, level, level, qpow)


# ---------------------------------------------------------------------------
# Kronecker-packed sums of products
# ---------------------------------------------------------------------------


def _residue_reducer(codec: "_SlotCodec", data: _LevelData):
    """The function that reduces mod the ring's modulus f a sum of packed
    products of coordinate vectors, of at most 2*deg f - 1 slots: at a
    prime-power level to a packed value of phi slots, at any other level,
    and for a Jet, to its coordinate list.

    The sum's slots are made digits by the bias (see _SlotCodec.flip).
    Slots at or past the level are added onto slot - level inside the
    integer (z^level = 1): a folded slot is a coordinate of the cyclic
    product, where each b_i meets each a_j at most once because
    phi <= level, so it obeys the width bound of PackedPowers.  At a level
    p^k, Phi(z) = 1 + z^m + ... + z^(phi - m) for m = p^(k-1), so the top
    block of m slots, times that sparse repunit, is subtracted from the phi
    slots below it: each slot then loses one slot of the block, so it is
    at most twice the bound, which the codec's spare bit holds.  Other
    levels, and jets, where z^level = 1 does not hold, read their slots and
    reduce them by _reduce_vec.
    """
    level, d, bits, flip = data.level, data.degree, codec.bits, codec.flip
    n = 2 * d - 1
    bias = flip(n)
    fold = data.fold and n > level
    if fold:
        low, shift, refold = codec.mask(level), bits * level, flip(n - level)
        n = level

    m = data.block
    if not m:
        def reduce(acc: int) -> List[int]:
            v = acc + bias
            if fold:
                v = (v & low) + (v >> shift) - refold
            return _reduce_vec(list(codec.read(v, n)), data)
        return reduce
    if n <= d:
        return lambda acc: acc
    # the top block and the phi slots below it, with their biases taken off
    mask, top, repunit = codec.mask(d), bits * d, codec.ones(m, d // m)
    unbias = flip(n - d) * repunit - flip(d)

    def reduce_packed(acc: int) -> int:
        v = acc + bias
        if fold:
            v = (v & low) + (v >> shift) - refold
        return (v & mask) - (v >> top) * repunit + unbias

    return reduce_packed


def _over(v: _Residue, den: int) -> Sequence[int]:
    """Coordinates of v over den, a multiple of its denominator."""
    f = den // v.den
    return v.num if f == 1 else [c * f for c in v.num]


def _slot_codec(bound: int) -> "_SlotCodec":
    """The codec whose signed slots hold every integer of absolute value at
    most 2 * bound, for bound the slot bound of a PackedPowers step or of
    a product (_product): the factor 2 is a spare bit for the sums that
    _residue_reducer reduces at a prime-power level.

    With w the fewest bytes with bound < 2**(8w - 2), a slot is k limbs of
    L bytes: L is the smallest of 1, 2, 4, 8 that is at least w, and
    k = ceil(w / L) once w > 8.  Then bits = 8kL >= 8w, so 2 * bound is
    below 2**(bits - 1) in absolute value: it is one signed slot.
    """
    w = (bound.bit_length() + 9) // 8
    limb = min(1 << (w - 1).bit_length(), 8)
    layout = (limb, -(-w // limb))
    codec = _CODECS.get(layout)
    if codec is None:
        codec = _CODECS[layout] = _SlotCodec(*layout)
    return codec


class PackedPowers:
    """The coefficients of a power chain start * base**k, kept as packed
    ints between its steps: cyclotomic numbers or first-order expansions
    (Cyclo or Jet) at a level, or Laurent polynomials over Q, as the base's
    coefficients are.  Each is an integer vector num from t^low (low = 0
    for a Cyclo or Jet) over a denominator den.

    Kronecker substitution (Harvey, arXiv:0712.4046): an integer vector is
    evaluated at 2**bits, so one C-level integer product stands for a
    polynomial product.  The start values are put over den0, their common
    denominator (start).  The chain multiplies by the scaled base, whose
    coefficients are the base's times den, their common denominator
    (scaled).  So every value is an integer vector, and the k-th value is
    divided by den0 * den**k once, when it is unpacked.  A Laurent value is
    its coefficients from t^(low0 + k * low) up, for low0 and low the lowest
    exponents of the start and of the base; low also bounds the exponents
    of every scaled row.

    In a step each term's value a meets the row of its group, whose entries
    b sit at distinct key offsets.  The terms' keys are distinct too, so a
    sum at one key receives at most one product a * b per offset, and a
    coordinate of a * b is at most max|a_i| * sum|b_i| (norm).  So no slot
    of a step's sums exceeds
        M * (sum over the distinct offsets o of the rows the step meets
             of the largest sum|b_i| of an entry at o)
    in absolute value, for M a bound on every coordinate of the step's
    values.  step packs the values by the codec of that bound
    (_slot_codec), and row the rows they meet; a value stays as it is while
    the limb layout does.  An entry with one or two nonzero coordinates is
    kept as each coordinate and its bit shift, so multiplying by it is a
    shifted small multiple of the value, the same integer as the packed
    product.  settle then reduces each sum mod the ring's modulus
    (_residue_reducer), drops the sums that are zero, and bounds the
    coordinates of the rest in one pass (_SlotCodec.top), below twice the
    largest, for the next step's M; start's M is the largest.
    """

    __slots__ = ("data", "den", "low", "den0", "low0", "codec", "rows")

    def __init__(self, coeffs: Sequence, start: Sequence):
        c = coeffs[0]
        self.data = None if isinstance(c, LaurentPoly) else c._data(c.level)
        self.den, self.low = math.lcm(*(c.den for c in coeffs)), min(c.low for c in coeffs)
        self.den0, self.low0 = math.lcm(*(c.den for c in start)), min(c.low for c in start)
        self.codec = None
        self.rows: Dict[object, Tuple[List, List, List]] = {}

    def scaled(self, c):
        """The integral multiple c * den of a base coefficient."""
        num = tuple(_over(c, self.den))
        return c._raw(c.level, num, 1) if self.data else LaurentPoly._normalized(c.low, num, 1)

    def _vec(self, c, den: int, low: int) -> Sequence[int]:
        """The integer vector of c * den from t^low up: a Cyclo's or Jet's
        coordinates, or a Laurent value's coefficients shifted by c.low - low."""
        vec = _over(c, den)
        return [0] * (c.low - low) + list(vec) if c.low > low else vec

    def start(self, terms: Mapping) -> Tuple[Dict, int]:
        """(values, M) of the start terms, as settle gives them: each value
        times den0 as an integer vector, and the largest |coordinate|."""
        out = {key: self._vec(c, self.den0, self.low0) for key, c in terms.items()}
        return out, max(max(map(abs, vec)) for vec in out.values())

    @staticmethod
    def norm(c) -> int:
        """sum |b_i| over the coordinates of a scaled row value."""
        return sum(map(abs, c.num))

    def step(self, values: Iterable, bound: int) -> List[int]:
        """The packed values of a step whose slot sums are at most bound."""
        old, codec = self.codec, _slot_codec(bound)
        if codec is old:
            return [v if type(v) is int else codec.pack(v) for v in values]
        self.codec = codec
        self.rows.clear()
        return [codec.pack(v if type(v) is not int else self._read(old, v)) for v in values]

    def row(self, key, offsets: Sequence[int], coeffs: Sequence) -> Tuple[List, List, List]:
        """The scaled row values coeffs at offsets, for the current codec,
        as weylcore._mac reads them: (dense, mono, pair), the entries with
        more than two nonzero coordinates as (offset, packed int), and the
        others as (offset, coordinate, bit shift) or (offset, coordinate,
        shift, coordinate, shift).  Built once per key and codec."""
        got = self.rows.get(key)
        if got is None:
            bits, pack = self.codec.bits, self.codec.pack
            got = self.rows[key] = dense, mono, pair = [], [], []
            for off, c in zip(offsets, coeffs):
                vec = self._vec(c, 1, self.low)
                hot = [(x, bits * i) for i, x in enumerate(vec) if x]
                if len(hot) == 1:
                    mono.append((off, *hot[0]))
                elif len(hot) == 2:
                    pair.append((off, *hot[0], *hot[1]))
                else:
                    dense.append((off, pack(vec)))
        return got

    def _read(self, codec: "_SlotCodec", v: int) -> Sequence[int]:
        n = self.data.degree if self.data else codec.slots(v)
        return codec.read(v + codec.flip(n), n)

    def settle(self, sums: Dict) -> Tuple[Dict, int]:
        """(values, M): the nonzero sums of a step as values of the chain,
        and a bound on their coordinates.  A reduced packed value is 0
        exactly when every coordinate is, so only the survivors are read,
        all in one pass (_SlotCodec.top); coordinate lists, read by the
        reduction, give their largest |coordinate|."""
        codec, data = self.codec, self.data
        reduce = _residue_reducer(codec, data) if data else (lambda v: v)
        out = {}
        for key, v in sums.items():
            v = reduce(v)
            if v if type(v) is int else any(v):
                out[key] = v
        values = list(out.values())
        if values and type(values[0]) is not int:
            return out, max(max(map(abs, vec)) for vec in values)
        n = data.degree if data else max(map(codec.slots, values), default=1)
        return out, codec.top(values, n)

    def unpack(self, v, k: int):
        """The value v of start * base**k, a packed value or a coordinate
        list as settle gives it, as a scalar."""
        den, data = self.den0 * self.den ** k, self.data
        vec = self._read(self.codec, v) if type(v) is int else v
        if data:
            return data.kind._normalized(data.level, vec, den)
        return LaurentPoly._normalized(self.low0 + k * self.low, vec, den)


# struct codes of the signed and unsigned limbs of each size in bytes
_LIMB_CODES = {1: ("b", "B"), 2: ("h", "H"), 4: ("i", "I"), 8: ("q", "Q")}

# slots joined into one integer by _SlotCodec.top
_JOIN_SLOTS = 1 << 11


class _SlotCodec:
    """Signed slots of k limbs of L bytes, the one slot layout of
    PackedPowers for both of its domains.

    pack writes a vector as two's-complement limbs with one struct.pack
    call; flipping each slot's sign bit makes each slot the digit
    c + 2**(bits - 1), and subtracting that bias from every slot leaves the
    value at 2**bits.  A sum of packed products is read back by adding the
    bias of its slots (flip), which makes every slot one digit, and then by
    read: flipping the sign bits again makes the digits two's-complement
    slots, which one struct.unpack call reads; only slots of more than one
    limb join their limbs in Python.

    structs(n), the Struct of n slots, flip(n), the sign bits of n slots,
    mask(n), the low n slots, and ones(m, count), the value with a 1 in
    every m-th of m * count slots, are built when first used and cached,
    so a codec holds only the layouts its products need.
    """

    __slots__ = ("bits", "k", "flip", "mask", "ones", "structs")

    def __init__(self, limb: int, k: int):
        self.bits = bits = 8 * limb * k
        self.k = k
        signed, unsigned = _LIMB_CODES[limb]
        # little-endian: the lower limbs of a slot are unsigned, its top one signed
        codes = unsigned * (k - 1) + signed
        # geometric sums in 2**bits
        self.ones = cache(lambda m, count: ((1 << bits * m * count) - 1) // ((1 << bits * m) - 1))
        self.flip = cache(lambda n: self.ones(1, n) << (bits - 1))
        self.mask = cache(lambda n: (1 << bits * n) - 1)
        self.structs = cache(lambda n: struct.Struct("<" + codes * n))

    def pack(self, vec: Sequence[int]) -> int:
        k, n = self.k, len(vec)
        if k > 1:  # only 8-byte limbs come in more than one per slot
            limbs = [0] * (k * n)
            for j in range(k - 1):
                limbs[j::k] = [(c >> (64 * j)) & 0xFFFFFFFFFFFFFFFF for c in vec]
            limbs[k - 1::k] = [c >> (64 * (k - 1)) for c in vec]
            vec = limbs
        flip = self.flip(n)
        return (int.from_bytes(self.structs(n).pack(*vec), "little") ^ flip) - flip

    def slots(self, acc: int) -> int:
        """A slot count that covers a sum of packed values: |acc| >=
        2**(bits*top - 2) when slot top is its highest nonzero one."""
        return (acc.bit_length() + 1) // self.bits + 1

    def read(self, v: int, n: int) -> Sequence[int]:
        """The n signed slots of v, whose slots hold digits (see flip)."""
        vals = self.structs(n).unpack((v ^ self.flip(n)).to_bytes(self.bits // 8 * n, "little"))
        k = self.k
        if k > 1:
            coords = vals[k - 1::k]
            for j in range(k - 2, -1, -1):
                coords = [(c << 64) + lo for c, lo in zip(coords, vals[j::k])]
            vals = coords
        return vals

    def top(self, values: Sequence[int], n: int) -> int:
        """A bound on |c| over the slots c of the packed values, of at most
        n slots each, below twice the largest |c|: one more than the
        bitwise OR of every c >= 0 and every ~c = -c - 1 for c < 0.

        The values' two's-complement slots are joined, _JOIN_SLOTS slots
        at a time, into one integer.  A negative slot is complemented by
        an XOR with its sign bit spread over the slot, and the upper half
        of the slots is OR-ed onto the lower until one slot is left: a few
        passes over the integer, and no slot is read on its own."""
        bits, flip = self.bits, self.flip(n)
        size, per = bits // 8 * n, max(1, _JOIN_SLOTS // n)
        sign = bytes(bits // 8 - 1) + b"\x80"  # the sign bit of a slot, little-endian
        acc = 0
        for i in range(0, len(values), per):
            chunk = values[i:i + per]
            count = n * len(chunk)
            x = int.from_bytes(b"".join(((v + flip) ^ flip).to_bytes(size, "little")
                                        for v in chunk), "little")
            signs = x & int.from_bytes(sign * count, "little")
            x ^= (signs << 1) - (signs >> (bits - 1))
            while count > 1:
                half = (count + 1) // 2
                x = (x >> bits * half) | (x & ((1 << bits * half) - 1))
                count = half
            acc |= x
        return acc + 1


# codecs by (limb bytes, limbs per slot)
_CODECS: Dict[Tuple[int, int], _SlotCodec] = {}


# ---------------------------------------------------------------------------
# Laurent polynomials in t
# ---------------------------------------------------------------------------


# Longest coefficient vector of a Laurent polynomial, in powers of t.  A
# power that passes weylcore's cost guard (POWER_COST_LIMIT) has a shorter
# one; a sum such as t^(10^11) + 1 would ask for a list of 10^11 entries.
MAX_SPAN = 1 << 24


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise ValueError(f"a Laurent polynomial spanning {span} powers of t "
                         f"exceeds the span bound {MAX_SPAN}")


def _rational(c) -> RationalLike:
    """c, which must be an int or a Fraction, as a Laurent coefficient."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"Laurent polynomials are over Q, not over {type(c).__name__}")
    return c


class LaurentPoly:
    """Laurent polynomial over Q in the single deformation variable t.

    Stored as a Cyclo is: low, the lowest exponent, and num, the integer
    coefficients of t^low, t^(low + 1), ... with no zero at either end,
    over den, a positive denominator with content 1 (gcd(den, *num) = 1).
    Zero is num = () at low = 0, so equality compares the three fields.
    Products multiply the vectors by _product: shifted sums when a factor
    has at most two terms, else one Kronecker-packed product; the algebra's
    products pack them (PackedPowers).  coeffs reads the value as a map
    from exponent to coefficient, with integral coefficients as int.
    """

    __slots__ = ("low", "num", "den")

    def __new__(cls, coeffs: Optional[Mapping[int, RationalLike]] = None):
        items = [(int(e), _rational(c)) for e, c in coeffs.items()] if coeffs else []
        low = min((e for e, _ in items), default=0)
        span = max((e for e, _ in items), default=low - 1) - low + 1
        _check_span(span)
        den = math.lcm(*(c.denominator for _, c in items))
        vec = [0] * span
        for e, c in items:
            vec[e - low] += c.numerator * (den // c.denominator)
        return cls._normalized(low, vec, den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly values are immutable")

    @classmethod
    def _normalized(cls, low: int, num: Sequence[int], den: int) -> "LaurentPoly":
        """The value sum_k num[k] t^(low + k) / den, with the zeros at both
        ends of num dropped and in lowest terms."""
        if not (num and num[0] and num[-1]):
            end = len(num)
            while end and not num[end - 1]:
                end -= 1
            start = 0
            while start < end and not num[start]:
                start += 1
            num = num[start:end]
            low = low + start if num else 0
        if den != 1:
            num, den = _lowest_terms(num, den)
        obj = object.__new__(cls)
        object.__setattr__(obj, "low", low)
        object.__setattr__(obj, "num", tuple(num))
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._normalized(0, (), 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._normalized(0, (1,), 1)

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls.t_power(0, c)

    @classmethod
    def t_power(cls, e: int, c=1) -> "LaurentPoly":
        return cls._normalized(int(e), (_rational(c).numerator,), c.denominator)

    # queries ----------------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, RationalLike]:
        """Read-only map of the nonzero coefficients by exponent, ascending;
        integral coefficients are ints, the others Fractions."""
        den, out = self.den, {}
        for e, c in enumerate(self.num, self.low):
            if c:
                q, r = divmod(c, den)
                out[e] = Fraction(c, den) if r else q
        return MappingProxyType(out)

    def __bool__(self):
        return bool(self.num)

    def constant_value(self):
        return self.coeffs.get(0, 0)

    def is_monomial(self) -> bool:
        return len(self.num) == 1

    def min_exponent(self) -> int:
        return self.low

    def max_exponent(self) -> int:
        return self.low + len(self.num) - 1 if self.num else 0

    # arithmetic ---------------------------------------------------------------

    def _plus(self, o: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * o."""
        if not o.num:
            return self
        if not self.num:
            return o if sign > 0 else -o
        low = min(self.low, o.low)
        span = max(self.low + len(self.num), o.low + len(o.num)) - low
        _check_span(span)
        vec = [0] * span
        i, j, k = self.low - low, o.low - low, o.low - low + len(o.num)
        vec[i:i + len(self.num)] = [o.den * c for c in self.num]
        f = sign * self.den
        vec[j:k] = [a + f * c for a, c in zip(vec[j:k], o.num)]
        return LaurentPoly._normalized(low, vec, self.den * o.den)

    def __add__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._normalized(self.low, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if not (self.num and other.num):
                return LaurentPoly.zero()
            _check_span(len(self.num) + len(other.num) - 1)
            return LaurentPoly._normalized(self.low + other.low, _product(self.num, other.num),
                                           self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return LaurentPoly._normalized(self.low, [c * other.numerator for c in self.num],
                                           self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if self.is_monomial():
            c, den, k = self.num[0], self.den, exponent
            if k < 0:
                c, den, k = den, c, -k
            return LaurentPoly._normalized(self.low * exponent, (c ** k,), den ** k)
        if exponent < 0:
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        return _power(self, exponent, LaurentPoly.one())

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.low == other.low and self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.num
            return not self.low and self.num == (other.numerator,) and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes like one
        if not self.low and len(self.num) <= 1:
            return hash(Fraction(self.num[0], self.den) if self.num else 0)
        return hash((self.low, self.num, self.den))

    def __repr__(self):
        bits = [f"({c})" + ("" if not e else "*t" if e == 1 else f"*t^{e}")
                for e, c in self.coeffs.items()]
        return "LaurentPoly(" + (" + ".join(bits) or "0") + ")"


def _as_laurent(x) -> Optional[LaurentPoly]:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly._normalized(0, (x.numerator,), x.denominator)
    return None


# ---------------------------------------------------------------------------
# first-order expansions around a root of unity
# ---------------------------------------------------------------------------


class Jet(_Residue):
    """Element of Q[t]/(Phi_level(t)^2): the coefficients of a first-order
    context, 2*phi(level) coordinates.

    For every primitive level-th root of unity q, (t - q)^2 divides
    Phi_level(t)^2, so this ring maps onto Q(q)[t]/(t - q)^2: a residue w
    gives the value w(q) and the first divided difference w'(q) (at_root)
    of every Laurent polynomial in t that reduces to it.  This is the
    coefficient domain of divided commutators.

    Reduction folds by (t^level - 1)^2, a sparse multiple of Phi_level^2,
    before it divides by Phi_level^2 itself.  The fold alone would keep the
    residue mod (t^level - 1)^2, which carries the values at every root of
    t^level = 1, t = 1 among them: there the q-binomial coefficients of the
    normal ordering are ordinary binomials, and their coordinates grew to
    about four times the bits of those mod Phi_level^2.
    """

    __slots__ = ()
    _data = staticmethod(_jetdata)

    @classmethod
    def t_power(cls, level: int, e: int) -> "Jet":
        """t^e for e = m*level + r, 0 <= r < level: mod (t^level - 1)^2,
        t^e = (1 + (t^level - 1))^m t^r = m t^(level + r) - (m - 1) t^r."""
        m, r = divmod(e, level)
        vec = [0] * (2 * level)
        vec[r], vec[level + r] = 1 - m, m
        return cls._raw(level, tuple(_reduce_vec(vec, _jetdata(level))), 1)

    @classmethod
    def lift(cls, c: Cyclo, qpow: int) -> "Jet":
        """The residue of sum_k c_k t^(k / qpow mod level), for c_k the
        coordinates of c, whose value at q = zeta^qpow is c."""
        level = c.level
        inv = pow(qpow, -1, level)
        vec = [0] * (2 * level)
        for k, ck in enumerate(c.num):
            vec[k * inv % level] = ck
        return cls._normalized(level, _reduce_vec(vec, _jetdata(level)), c.den)

    def at_root(self, qpow: int) -> Tuple[Cyclo, Cyclo]:
        """(w(q), w'(q)) at q = zeta^qpow, for w the residue's polynomial
        sum_e w_e t^e and w' = sum_e e w_e t^(e - 1) its formal derivative."""
        num, den, level = self.num, self.den, self.level
        return (_at_root(num, 0, den, level, qpow),
                _at_root([e * c for e, c in enumerate(num)], -1, den, level, qpow))


# ---------------------------------------------------------------------------
# quantum integers and the module-level operations
# ---------------------------------------------------------------------------


def qint(m: int) -> LaurentPoly:
    """The quantum integer 1 + t + ... + t^(m-1); zero for m = 0."""
    if m < 0:
        raise ValueError("quantum integers are defined for m >= 0")
    return LaurentPoly._normalized(0, (1,) * m, 1)


def specialize(p: LaurentPoly, level: int, qpow: int = 1) -> Cyclo:
    """Evaluate a Laurent polynomial at the root of unity zeta_level^qpow,
    a ring homomorphism into Q(zeta_level)."""
    return _at_root(p.num, p.low, p.den, level, qpow)


def embed(value) -> complex:
    """Distinguished complex embedding (generator of level l -> exp(2*pi*i/l)).

    Exact scalars x embed to z with  |z - x| <= 2**-52 * |x|  (see
    Cyclo.embed); floats and complex numbers pass through unchanged.
    """
    if isinstance(value, Cyclo):
        return value.embed()
    if isinstance(value, (int, Fraction)):
        return complex(Fraction(value))
    if isinstance(value, (float, complex)):
        return complex(value)
    raise TypeError(f"cannot embed {type(value).__name__}")
