"""Exact scalar tower: rationals, Laurent polynomials in t, cyclotomic fields.

Every value here is immutable and arithmetic never mutates its operands, so
scalars can be shared freely across threads.  All exact domains have decidable
equality, which the normal-form layers above rely on; floating point enters
only through explicit embeddings used for limit detection.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import cache, partial
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Rational",
    "Cyclo",
    "LaurentPoly",
    "Jet",
    "ExactDivisionError",
    "cyclotomic_polynomial",
    "euler_phi",
    "qint",
    "specialize",
    "embed",
]

Rational = Fraction
RationalLike = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a remainder."""


# ---------------------------------------------------------------------------
# integer polynomial convolution
# ---------------------------------------------------------------------------

def _conv(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Coefficients of the product of two dense integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


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


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-level reduction tables
# ---------------------------------------------------------------------------


def _poly_div_exact_int(num: Sequence[int], den: Sequence[int]) -> List[int]:
    """Quotient of integer polynomials; den must be monic and divide num."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            out[k - dd] = c
            for j, dj in enumerate(den):
                num[k - dd + j] -= c * dj
    if any(num):
        raise ExactDivisionError("non-exact integer polynomial division")
    return out


_CYCLO_CACHE: Dict[int, Tuple[int, ...]] = {}


def cyclotomic_polynomial(level: int) -> Tuple[int, ...]:
    """Integer coefficients (ascending) of the level-th cyclotomic polynomial."""
    if level < 1:
        raise ValueError("level must be positive")
    got = _CYCLO_CACHE.get(level)
    if got is not None:
        return got
    if level == 1:
        poly: Tuple[int, ...] = (-1, 1)
    else:
        num = [-1] + [0] * (level - 1) + [1]  # t^level - 1
        quot = num
        for d in range(1, level):
            if level % d == 0:
                quot = _poly_div_exact_int(quot, cyclotomic_polynomial(d))
        poly = tuple(quot)
    _CYCLO_CACHE[level] = poly
    return poly


def euler_phi(level: int) -> int:
    return len(cyclotomic_polynomial(level)) - 1


class _LevelData:
    __slots__ = ("level", "phi", "degree", "low")

    def __init__(self, level: int):
        self.level = level
        self.phi = cyclotomic_polynomial(level)
        d = len(self.phi) - 1
        self.degree = d
        # the nonzero (k, phi_k), k < d: Phi is monic, so z^d = -sum phi_k z^k
        self.low = tuple((k, c) for k, c in enumerate(self.phi[:d]) if c)


_LEVELS: Dict[int, _LevelData] = {}


def _leveldata(level: int) -> _LevelData:
    got = _LEVELS.get(level)
    if got is None:
        got = _LEVELS[level] = _LevelData(level)
    return got


def _reduce_vec(vec: List[int], data: _LevelData) -> List[int]:
    """Reduce an integer coefficient vector mod Phi_level, in place."""
    level, d = data.level, data.degree
    if len(vec) > level:
        # z^level = 1 holds mod every cyclotomic polynomial of that level;
        # folding from the top lets entries past 2*level fold twice
        for idx in range(len(vec) - 1, level - 1, -1):
            vec[idx - level] += vec[idx]
        del vec[level:]
    # synthetic division by Phi, from the top entry down
    low = data.low
    for idx in range(len(vec) - 1, d - 1, -1):
        c = vec[idx]
        if c:
            base = idx - d
            for k, p in low:
                vec[base + k] -= c * p
    del vec[d:]
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


_ZETA_FIXED: Dict[int, Tuple[int, int, int]] = {}


def _zeta_fixed(level: int, prec: int) -> Tuple[int, int]:
    """cos and sin of 2*pi/level times 2**prec, each within 2 units.

    Values are cached per level at the highest precision asked for so far;
    lower precisions are read off by shifting.
    """
    got = _ZETA_FIXED.get(level)
    if got is None or got[0] < prec:
        top = max(prec, 2 * got[0]) if got else prec
        # The guard bits absorb the truncation errors of Machin's formula
        # (a few units per term) and of the Taylor series, whose errors grow
        # by at most e**(2*pi) < 2**10 along the terms.
        g = 2 * top.bit_length() + 32
        q = top + g
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
        got = _ZETA_FIXED[level] = (top, (cos + half) >> g, (sin + half) >> g)
    top, cos, sin = got
    return cos >> (top - prec), sin >> (top - prec)


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------


class Cyclo:
    """Element of the cyclotomic field Q(zeta_level).

    The residue is stored reduced mod the level-th cyclotomic polynomial as an
    integer vector over a positive common denominator with content 1, so
    equality is a plain tuple comparison.  The distinguished embedding sends
    the generator to exp(2*pi*i/level).
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: Iterable[RationalLike], den: int = 1):
        data = _leveldata(level)
        fracs = [Fraction(c) for c in coeffs]
        common = den
        for f in fracs:
            common = common * f.denominator // math.gcd(common, f.denominator)
        vec = [int(f * common) for f in fracs]
        if len(vec) > data.degree:
            _reduce_vec(vec, data)
        elif len(vec) < data.degree:
            vec.extend([0] * (data.degree - len(vec)))
        obj = Cyclo._normalized(level, vec, common)
        object.__setattr__(self, "level", obj.level)
        object.__setattr__(self, "num", obj.num)
        object.__setattr__(self, "den", obj.den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo values are immutable")

    @staticmethod
    def _raw(level: int, num: Tuple[int, ...], den: int) -> "Cyclo":
        obj = object.__new__(Cyclo)
        object.__setattr__(obj, "level", level)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @staticmethod
    def _normalized(level: int, num: List[int], den: int) -> "Cyclo":
        if den < 0:
            den = -den
            num = [-c for c in num]
        if den > 1:  # den == 1 forces content gcd 1, nothing to cancel
            g = math.gcd(den, *num)
            if g > 1:
                den //= g
                num = [c // g for c in num]
            if not any(num):
                den = 1
        return Cyclo._raw(level, tuple(num), den)

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "Cyclo":
        return cls._raw(level, (0,) * euler_phi(level), 1)

    @classmethod
    def one(cls, level: int) -> "Cyclo":
        return cls.from_rational(level, 1)

    @classmethod
    def from_rational(cls, level: int, value: RationalLike) -> "Cyclo":
        f = Fraction(value)
        d = euler_phi(level)
        return cls._raw(level, (f.numerator,) + (0,) * (d - 1), f.denominator)

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "Cyclo":
        data = _leveldata(level)
        vec = [0] * max(data.degree, (power % level) + 1)
        vec[power % level] = 1
        return cls._normalized(level, _reduce_vec(vec, data), 1)

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

    def _coerce(self, other) -> Optional["Cyclo"]:
        if isinstance(other, Cyclo):
            if other.level == self.level:
                return other
            r = other.as_rational()
            if r is not None:
                return Cyclo.from_rational(self.level, r)
            if self.as_rational() is not None:
                return None  # handled by reflected op on the other side
            raise ValueError(
                f"cyclotomic level mismatch: {self.level} vs {other.level}"
            )
        if isinstance(other, (int, Fraction)):
            return Cyclo.from_rational(self.level, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = [a * o.den + b * self.den for a, b in zip(self.num, o.num)]
        return Cyclo._normalized(self.level, num, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = [a * o.den - b * self.den for a, b in zip(self.num, o.num)]
        return Cyclo._normalized(self.level, num, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyclo._raw(self.level, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vec = _conv(self.num, o.num)
        _reduce_vec(vec, _leveldata(self.level))
        return Cyclo._normalized(self.level, vec, self.den * o.den)

    __rmul__ = __mul__

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
        return _power(self, exponent, Cyclo.one(self.level))

    def inverse(self) -> "Cyclo":
        """x^-1 = rest / N(x), where rest is the product of the conjugates
        sigma_k(x) (z -> z^k for k coprime to the level, k != 1) and the
        field norm N(x) = x * rest is a nonzero rational.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        level = self.level
        data = _leveldata(level)
        rest = Cyclo.one(level)
        for k in range(2, level):
            if math.gcd(k, level) == 1:
                vec = [0] * level
                for j, c in enumerate(self.num):
                    vec[j * k % level] += c
                rest = rest * Cyclo._normalized(level, _reduce_vec(vec, data), self.den)
        return rest * (1 / (self * rest).as_rational())

    # comparisons / misc ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclo):
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

    def __repr__(self):
        return f"Cyclo({self.level}, {list(self.num)!r}, den={self.den})"

    def __str__(self):
        terms = []
        for j, c in enumerate(self.num):
            if not c:
                continue
            coef = Fraction(c, self.den)
            if j == 0:
                terms.append(str(coef))
            else:
                zj = "q" if j == 1 else f"q^{j}"
                terms.append(zj if coef == 1 else f"{coef}*{zj}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


# ---------------------------------------------------------------------------
# Kronecker-packed sums of cyclotomic products
# ---------------------------------------------------------------------------


def pack_cyclo_products(level: int, lhs: Sequence[Cyclo],
                        rhs_groups: Sequence[Sequence[Cyclo]]):
    """Pack cyclotomic numbers so that sums of their products are integer sums.

    Returns (packed lhs, packed groups, unpack).  Take any sum of products
    P(lhs[i]) * P(r) in which each lhs value meets entries r of at most one
    group, each entry at most once; unpack turns it into the sum of the
    cyclotomic products, as a reduced Cyclo.  Kronecker substitution
    (Harvey, arXiv:0712.4046): one C-level integer product stands for a
    polynomial product.

    Format.  Each side is put over its common denominator, Da for lhs and Db
    for the groups, and its coordinate vector is evaluated at 2**bits.  A
    product then holds the 2*phi - 1 coordinates of the unreduced polynomial
    product in slots of bits bits.  A coordinate of A*B is at most
    max|a_i| * sum|b_i|, so no slot of an admissible sum exceeds
        bound = (sum over lhs of max|a_i|) * (max over groups of sum |b_i|)
    in absolute value.  With w the fewest bytes with bound < 2**(8w - 1), a
    slot is k limbs of L bytes: L is the smallest of 1, 2, 4, 8 that is at
    least w, and k = ceil(w / L) once w > 8.  Then bits = 8kL >= 8w, so
    every slot sum, and every coordinate of either side, is below
    2**(bits - 1) in absolute value: it is one signed slot.

    pack writes the coordinates as two's-complement limbs with one
    struct.pack call; flipping each slot's sign bit makes each slot the
    digit c + 2**(bits - 1), and subtracting that bias from every slot
    leaves the value at 2**bits.  unpack adds the bias back, reading slots
    only up to the top one that the sum's bit length allows, so every slot
    is one digit.  Slots at or past the level are then added onto
    slot - level inside the integer (z^level = 1): a folded slot is a
    coordinate of the cyclic product, where each b_i meets each a_j at most
    once because phi <= level, so it obeys the same bound.  Flipping the
    sign bits again makes the digits two's-complement slots, which one
    struct.unpack call reads.  The digits are then reduced mod the
    cyclotomic polynomial and divided by Da * Db.
    """
    data = _leveldata(level)
    den_a = math.lcm(*(v.den for v in lhs))
    den_b = math.lcm(*(v.den for g in rhs_groups for v in g))
    vecs_a = [_over(v, den_a) for v in lhs]
    vecs_b = [[_over(v, den_b) for v in g] for g in rhs_groups]
    # each factor is at least 1, so the bound also covers every coordinate
    norm_a = sum(max(map(abs, v)) for v in vecs_a) or 1
    norm_b = max((sum(sum(map(abs, v)) for v in g) for g in vecs_b), default=0) or 1
    w = ((norm_a * norm_b).bit_length() + 8) // 8
    limb = min(1 << (w - 1).bit_length(), 8)
    layout = (level, limb, -(-w // limb))
    codec = _CODECS.get(layout)
    if codec is None:
        codec = _CODECS[layout] = _Codec(data, limb, layout[2])
    return ([codec.pack(v) for v in vecs_a],
            [[codec.pack(v) for v in g] for g in vecs_b],
            partial(codec.unpack, den=den_a * den_b))


# struct codes of the signed and unsigned limbs of each size in bytes
_LIMB_CODES = {1: ("b", "B"), 2: ("h", "H"), 4: ("i", "I"), 8: ("q", "Q")}


class _Codec:
    """Slot layout of pack_cyclo_products at one level: k limbs of L bytes.

    Holds structs(n), the Struct of n slots, and flip(n), the sign bits of
    n slots, which is also the bias that makes n slot sums digits.  Each is
    built when its slot count is first used and cached, so a codec holds
    only the layouts its products need.
    """

    __slots__ = ("data", "bits", "k", "top", "low", "flip", "structs")

    def __init__(self, data: _LevelData, limb: int, k: int):
        self.data = data
        self.bits = bits = 8 * limb * k
        self.k = k
        signed, unsigned = _LIMB_CODES[limb]
        # little-endian: the lower limbs of a slot are unsigned, its top one signed
        codes = unsigned * (k - 1) + signed
        self.top = 2 * data.degree - 1  # the slots of an unreduced product
        self.low = (1 << (bits * data.level)) - 1
        # the sign bit of each of n slots: a geometric sum in 2**bits
        self.flip = cache(lambda n: ((1 << bits * n) - 1) // ((1 << bits) - 1) << (bits - 1))
        self.structs = cache(lambda n: struct.Struct("<" + codes * n))

    def pack(self, vec: Sequence[int]) -> int:
        k = self.k
        if k > 1:  # only 8-byte limbs come in more than one per slot
            limbs = [0] * (k * len(vec))
            for j in range(k - 1):
                limbs[j::k] = [(c >> (64 * j)) & 0xFFFFFFFFFFFFFFFF for c in vec]
            limbs[k - 1::k] = [c >> (64 * (k - 1)) for c in vec]
            vec = limbs
        d = self.data.degree
        flip = self.flip(d)
        return (int.from_bytes(self.structs(d).pack(*vec), "little") ^ flip) - flip

    def unpack(self, acc: int, den: int) -> Cyclo:
        data, bits, flip = self.data, self.bits, self.flip
        level = data.level
        # |acc| >= 2**(bits*top - 2) when slot top is the highest nonzero one
        n = min(self.top, (acc.bit_length() + 1) // bits + 1)
        v = acc + flip(n)
        if n > level:
            v = (v & self.low) + (v >> (bits * level)) - flip(n - level)
            n = level
        vals = self.structs(n).unpack((v ^ flip(n)).to_bytes(bits // 8 * n, "little"))
        k = self.k
        if k > 1:
            coords = vals[k - 1::k]
            for j in range(k - 2, -1, -1):
                coords = [(c << 64) + lo for c, lo in zip(coords, vals[j::k])]
            vals = coords
        return Cyclo._normalized(level, _reduce_vec(list(vals), data), den)


# codecs by (level, limb bytes, limbs per slot)
_CODECS: Dict[Tuple[int, int, int], _Codec] = {}


def _over(v: Cyclo, den: int) -> Sequence[int]:
    """Coordinates of v over den, a multiple of its denominator."""
    f = den // v.den
    return v.num if f == 1 else [c * f for c in v.num]


# ---------------------------------------------------------------------------
# Laurent polynomials in t
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Sparse Laurent polynomial in the single deformation variable t.

    Coefficients are rationals or cyclotomic elements; exponents may be
    negative.  Zero coefficients are never stored.  Integral rationals are
    stored as Python ints and Fraction holds only non-integral ones, so
    integer sums and products stay in fast int arithmetic.  An int equals
    and hashes like the Fraction of the same value, so equality and hashing
    do not depend on which of the two a coefficient is.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[int, object]] = None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if isinstance(c, Fraction) and c.denominator == 1:
                    c = c.numerator
                if c:
                    d[int(e)] = c
        object.__setattr__(self, "coeffs", d)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly values are immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def t_power(cls, e: int, c=1) -> "LaurentPoly":
        return cls({e: c})

    # queries ----------------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def constant_value(self):
        return self.coeffs.get(0, 0)

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def min_exponent(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def max_exponent(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cur = d.get(e)
            s = c if cur is None else cur + c
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "coeffs", d)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "coeffs", {e: -c for e, c in self.coeffs.items()})
        return out

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_laurent(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            d: Dict[int, object] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    p = c1 * c2
                    cur = d.get(e)
                    s = p if cur is None else cur + p
                    if s:
                        d[e] = s
                    else:
                        d.pop(e, None)
            out = LaurentPoly.__new__(LaurentPoly)
            object.__setattr__(out, "coeffs", d)
            return out
        if isinstance(other, (int, Fraction, Cyclo)):
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if self.is_monomial():
            (e, c), = self.coeffs.items()
            if exponent < 0 and isinstance(c, int):
                c = Fraction(c)
            return LaurentPoly({e * exponent: c ** exponent})
        if exponent < 0:
            raise ValueError("negative power of a non-monomial Laurent polynomial")
        return _power(self, exponent, LaurentPoly.one())

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, Cyclo)):
            if not other:
                return not self.coeffs
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            te = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
            if te:
                bits.append(f"({c})*{te}")
            else:
                bits.append(f"({c})")
        return "LaurentPoly(" + " + ".join(bits) + ")"


def _as_laurent(x) -> Optional[LaurentPoly]:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction, Cyclo)):
        return LaurentPoly({0: x})
    return None


# ---------------------------------------------------------------------------
# first-order expansions around a root of unity
# ---------------------------------------------------------------------------


class Jet:
    """Truncated expansion  val + dt*(t - root)  of a scalar around a fixed
    root of unity; products drop the (t - root)^2 term.

    This is the coefficient domain used for divided commutators: it carries
    exactly the value at the root and the first divided difference.
    """

    __slots__ = ("val", "dt")

    def __init__(self, val: Cyclo, dt: Cyclo):
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "dt", dt)

    def __setattr__(self, name, value):
        raise AttributeError("Jet values are immutable")

    @property
    def level(self) -> int:
        return self.val.level

    def _coerce(self, other) -> Optional["Jet"]:
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, Fraction)):
            lv = self.level
            return Jet(Cyclo.from_rational(lv, other), Cyclo.zero(lv))
        if isinstance(other, Cyclo):
            return Jet(other, Cyclo.zero(other.level))
        return None

    def __bool__(self):
        return bool(self.val) or bool(self.dt)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.val + o.val, self.dt + o.dt)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.dt)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.val - o.val, self.dt - o.dt)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.val * o.val, self.val * o.dt + self.dt * o.val)

    __rmul__ = __mul__

    def inverse(self) -> "Jet":
        vi = self.val.inverse()
        return Jet(vi, -(vi * vi * self.dt))

    def __pow__(self, exponent: int) -> "Jet":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        lv = self.level
        return _power(self, exponent, Jet(Cyclo.one(lv), Cyclo.zero(lv)))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.val == o.val and self.dt == o.dt

    def __hash__(self):
        return hash((self.val, self.dt))

    def __repr__(self):
        return f"Jet({self.val!s}, dt={self.dt!s})"


def _scalar_invert(v):
    """Inverse of an exact scalar: a rational, Cyclo, Jet or monomial LaurentPoly.

    Raises ZeroDivisionError on zero and ValueError on a Laurent polynomial
    with more than one term.
    """
    if isinstance(v, (int, Fraction)):
        return 1 / Fraction(v)
    if isinstance(v, (Cyclo, Jet)):
        return v.inverse()
    if isinstance(v, LaurentPoly):
        return v ** -1
    raise TypeError(f"cannot invert {type(v).__name__}")


# ---------------------------------------------------------------------------
# quantum integers and the module-level operations
# ---------------------------------------------------------------------------


def qint(m: int) -> LaurentPoly:
    """The quantum integer 1 + t + ... + t^(m-1); zero for m = 0."""
    if m < 0:
        raise ValueError("quantum integers are defined for m >= 0")
    return LaurentPoly({j: 1 for j in range(m)})


def specialize(p: LaurentPoly, level: int, qpow: int = 1) -> Cyclo:
    """Evaluate a Laurent polynomial at the chosen primitive root of unity.

    Rational coefficients land in Q(zeta_level); cyclotomic coefficients must
    already live there.  This is a ring homomorphism.
    """
    if level < 1:
        raise ValueError("level must be positive")
    acc = Cyclo.zero(level)
    for e, c in p.coeffs.items():
        z = Cyclo.zeta(level, (e * qpow) % level)
        acc = acc + c * z
    return acc


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
