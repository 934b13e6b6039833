"""Exact scalar tower: rationals, Laurent polynomials in t, cyclotomic fields.

Every value here is immutable and arithmetic never mutates its operands, so
scalars can be shared freely across threads.  All exact domains have decidable
equality, which the normal-form layers above rely on; floating point enters
only through explicit embeddings used for limit detection.

The algebra's products and powers multiply and sum cyclotomic numbers, or
Laurent polynomials over Q, as Kronecker-packed integers (PackedPowers), in
one slot codec (_SlotCodec) for both domains.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import sub
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


_CYCLO_CACHE: Dict[int, Tuple[int, ...]] = {}

# Largest level with reduction tables.  Phi_l has phi(l) + 1 coefficients,
# so a level of 10^9 would ask for a list of about 8 GB; at this bound the
# table builds in about 0.02 s on a 2-core machine.
MAX_LEVEL = 1 << 16


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


class _LevelData:
    __slots__ = ("level", "phi", "degree", "low", "block")

    def __init__(self, level: int):
        self.level = level
        self.phi = cyclotomic_polynomial(level)
        d = len(self.phi) - 1
        self.degree = d
        # the nonzero (k, phi_k), k < d: Phi is monic, so z^d = -sum phi_k z^k
        self.low = tuple((k, c) for k, c in enumerate(self.phi[:d]) if c)
        # m = p^(k-1) at a level p^k, p prime, where Phi(z) = Phi_p(z^m) is
        # 1 + z^m + ... + z^d; 0 at other levels
        m = level - d
        self.block = m if level > 1 and self.phi == (1, *(0,) * (m - 1)) * (d // m) + (1,) else 0


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
# Kronecker-packed sums of products
# ---------------------------------------------------------------------------


def _cyclo_value(codec: "_SlotCodec", data: _LevelData, vec, den: int) -> Cyclo:
    """The Cyclo of a reduced value over den: a packed value of phi slots,
    or a coordinate list."""
    if type(vec) is int:
        d = data.degree
        vec = list(codec.read(vec + codec.flip(d), d))
    return Cyclo._normalized(data.level, vec, den)


def _cyclo_reducer(codec: "_SlotCodec", data: _LevelData):
    """The function that reduces mod Phi a sum of packed products of
    coordinate vectors, of at most 2*phi - 1 slots: at a prime-power level
    to a packed value of phi slots, at any other level to its coordinate
    list.

    The sum's slots are made digits by the bias (see _SlotCodec.flip).
    Slots at or past the level are added onto slot - level inside the
    integer (z^level = 1): a folded slot is a coordinate of the cyclic
    product, where each b_i meets each a_j at most once because
    phi <= level, so it obeys the width bound of PackedPowers.  At a level
    p^k, Phi(z) = 1 + z^m + ... + z^(phi - m) for m = p^(k-1), so the top
    block of m slots, times that sparse repunit, is subtracted from the phi
    slots below it: each slot then loses one slot of the block, so it is
    at most twice the bound, which the codec's spare bit holds.  Other
    levels read their slots and reduce them by _reduce_vec.
    """
    level, d, bits, flip = data.level, data.degree, codec.bits, codec.flip
    n = 2 * d - 1
    bias = flip(n)
    fold = n > level
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


def _over(v: Cyclo, den: int) -> Sequence[int]:
    """Coordinates of v over den, a multiple of its denominator."""
    f = den // v.den
    return v.num if f == 1 else [c * f for c in v.num]


def _laurent_sum(codec: "_SlotCodec", low: int, den: int, acc: int) -> "LaurentPoly":
    n = codec.slots(acc)
    vals = codec.read(acc + codec.flip(n), n)
    if den == 1:
        return LaurentPoly._raw({e: c for e, c in enumerate(vals, low) if c})
    coeffs = {}
    for e, c in enumerate(vals, low):
        if c:
            q, r = divmod(c, den)
            coeffs[e] = Fraction(c, den) if r else q
    return LaurentPoly._raw(coeffs)


def _slot_codec(bound: int) -> "_SlotCodec":
    """The codec whose signed slots hold every integer of absolute value at
    most 2 * bound, for bound the slot bound of a PackedPowers step: the
    factor 2 is a spare bit for the sums that _cyclo_reducer reduces at a
    prime-power level.

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
    ints between its steps: cyclotomic numbers at a level, or Laurent
    polynomials over Q for level None.

    Kronecker substitution (Harvey, arXiv:0712.4046): an integer vector is
    evaluated at 2**bits, so one C-level integer product stands for a
    polynomial product.  The start values are put over den0, their common
    denominator (start).  The chain multiplies by the scaled base, whose
    coefficients are the base's times den, their common denominator
    (scaled).  So every value is an integer vector, and the k-th value is
    divided by den0 * den**k once, when it is unpacked.  A Laurent value is its coefficients from
    t^(low0 + k * low) up, for low0 and low the lowest exponents of the
    start and of the base; low also bounds the exponents of every scaled
    row.

    In a step each term's value a meets the scaled row values b of one
    group, each at most once.  A coordinate of a * b is at most
    max|a_i| * sum|b_i|, so no slot of a step's sums exceeds
        (sum over the terms of max|a_i|) * (largest sum of |b_i| over a group)
    in absolute value, and step packs the terms (values) and the rows they
    meet (group) by the codec of that bound (_slot_codec); a term stays as
    it is while the limb layout does.  settle then reduces each sum mod Phi
    inside the integer (_cyclo_reducer) and reads it once for its max|a_i|,
    for the next step's bound.
    """

    __slots__ = ("data", "den", "low", "den0", "low0", "codec", "groups")

    def __init__(self, level: Optional[int], coeffs: Sequence, start: Sequence):
        self.data = _leveldata(level) if level else None
        self.den, self.low = self._common(coeffs)
        self.den0, self.low0 = self._common(start)
        self.codec = None
        self.groups: Dict[object, List[int]] = {}

    def _common(self, values: Sequence) -> Tuple[int, int]:
        """The common denominator of values and, for Laurent values, their
        lowest exponent (0 for cyclotomic ones)."""
        if self.data:
            return math.lcm(*(c.den for c in values)), 0
        return (math.lcm(*(c.denominator for p in values for c in p.coeffs.values())),
                min(min(p.coeffs) for p in values))

    def scaled(self, c):
        """The integral multiple c * den of a base coefficient."""
        if self.data:
            return Cyclo._raw(c.level, tuple(_over(c, self.den)), 1)
        return LaurentPoly._raw({e: v.numerator * (self.den // v.denominator)
                                 for e, v in c.coeffs.items()})

    def _vec(self, c, den: int, low: int) -> Sequence[int]:
        """The integer vector of c * den: its coordinates, or its
        coefficients from t^low up."""
        if self.data:
            return _over(c, den)
        vec = [0] * (max(c.coeffs) - low + 1)
        for e, v in c.coeffs.items():
            vec[e - low] = v.numerator * (den // v.denominator)
        return vec

    def start(self, terms: Mapping) -> Tuple[Dict, int]:
        """(values, norm) of the start terms, as settle gives them: each
        value times den0 as an integer vector, and the sum of their
        max|a_i|."""
        out, norm = {}, 0
        for key, c in terms.items():
            vec = out[key] = self._vec(c, self.den0, self.low0)
            norm += max(map(abs, vec))
        return out, norm

    def norm(self, coeffs: Sequence) -> int:
        """sum |b_i| over the coordinates of a group of scaled row values."""
        return sum(sum(map(abs, self._vec(c, 1, self.low))) for c in coeffs)

    def step(self, values: Iterable, bound: int) -> List[int]:
        """The packed values of a step whose slot sums are at most bound."""
        old, codec = self.codec, _slot_codec(bound)
        if codec is old:
            return [v if type(v) is int else codec.pack(v) for v in values]
        self.codec = codec
        self.groups.clear()
        return [codec.pack(v if type(v) is not int else self._read(old, v)) for v in values]

    def group(self, key, coeffs: Sequence) -> List[int]:
        """A group of scaled row values, packed by the current codec."""
        got = self.groups.get(key)
        if got is None:
            got = self.groups[key] = [self.codec.pack(self._vec(c, 1, self.low))
                                      for c in coeffs]
        return got

    def _read(self, codec: "_SlotCodec", v: int) -> Sequence[int]:
        n = self.data.degree if self.data else codec.slots(v)
        return codec.read(v + codec.flip(n), n)

    def settle(self, sums: Dict) -> Tuple[Dict, int]:
        """(values, norm): the nonzero sums of a step as values of the
        chain, and the sum of their max|a_i|."""
        codec, data = self.codec, self.data
        if data:
            reduce, read, d = _cyclo_reducer(codec, data), codec.read, data.degree
            bias = codec.flip(d)
        out, norm = {}, 0
        for key, v in sums.items():
            if data:
                v = reduce(v)
                vec = read(v + bias, d) if type(v) is int else v
            else:
                vec = self._read(codec, v)
            top = max(max(vec), -min(vec))
            if top:
                out[key] = v
                norm += top
        return out, norm

    def unpack(self, v, k: int):
        """The value v of start * base**k as a scalar."""
        den, codec = self.den0 * self.den ** k, self.codec
        if not self.data:
            return _laurent_sum(codec, self.low0 + k * self.low, den, v)
        return _cyclo_value(codec, self.data, v, den)


# struct codes of the signed and unsigned limbs of each size in bytes
_LIMB_CODES = {1: ("b", "B"), 2: ("h", "H"), 4: ("i", "I"), 8: ("q", "Q")}


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


# codecs by (limb bytes, limbs per slot)
_CODECS: Dict[Tuple[int, int], _SlotCodec] = {}


# ---------------------------------------------------------------------------
# Laurent polynomials in t
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Sparse Laurent polynomial in the single deformation variable t.

    Coefficients are rationals or cyclotomic elements; the scalars of a
    symbolic algebra are the rational ones only, which the algebra's
    products pack (PackedPowers).  Exponents may be negative.  Zero coefficients
    are never stored.  Integral rationals are stored as Python ints and
    Fraction holds only non-integral ones, so integer sums and products
    stay in fast int arithmetic.  An int equals
    and hashes like the Fraction of the same value, so equality and hashing
    do not depend on which of the two a coefficient is.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[int, object]] = None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _integral(c)
                if c:
                    d[int(e)] = c
        object.__setattr__(self, "coeffs", d)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly values are immutable")

    @staticmethod
    def _raw(coeffs: Dict[int, object]) -> "LaurentPoly":
        """Wrap a dict that already holds no zero coefficient."""
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "coeffs", coeffs)
        return out

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
            s = c if cur is None else _integral(cur + c)
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        return LaurentPoly._raw(d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self.coeffs.items()})

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
                    p = _integral(c1 * c2)
                    cur = d.get(e)
                    s = p if cur is None else _integral(cur + p)
                    if s:
                        d[e] = s
                    else:
                        d.pop(e, None)
            return LaurentPoly._raw(d)
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


def _integral(c):
    """c, with an integral Fraction turned into an int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


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
