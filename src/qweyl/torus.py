"""The quantum torus of the algebra at a root of unity, where the l-th powers
of generator images are raised without normal ordering and read in the
center.

For one pair, f = dx - xd = 1 + (q - 1) x d satisfies f x = q x f and
f d = q^-1 d f, and

    d = x^-1 (f - 1) / (q - 1),        x = (f - 1) d^-1 / (q - 1).

So the algebra maps injectively into Q(q)<y^(+-1), f>, for y = x (the x
side) or y = d (the d side), where a product of monomials is one twisted
monomial:

    y^a f^b * y^c f^e = q^(s b c) y^(a + c) f^(b + e),

with s = 1 on the x side and s = -1 on the d side.  With n pairs each pair
takes its own side, and the twist is the product over the pairs.  So the
rows of a power chain in the torus are the base's own terms, each rotated
by a power of q: no pair expansion and no quantum integer.

The rewriting holds over Q(t) as well, with t for q, and t -> zeta is a
ring homomorphism that commutes with it: the torus form of a symbolic
element is built once (to_torus), its power of t - 1 lowered while t - 1
divides every coefficient, and each level evaluates its coefficients
(specialize_torus), one reduction each and no product.  The result is the
element times a power of q - 1, a nonzero scalar, as the conversion at the
root gives it, so the powers read in the center are the same.

A central element has central torus terms only, those with every exponent
a multiple of l, and y_i^l is s_i = x_i^l or r_i = d_i^l, while
f_i^l = 1 - (1 - q)^l s_i r_i (center.f_power_closed_form): the center
polynomial is read off the torus terms, with no conversion back to PBW form
(central_power).  An image of one or two terms is raised in closed form,
by the q-binomial theorem at a root of unity, at every level and every n.
At one pair, an image A + B f linear in f, with A zero or c y^e for e
prime to l, is raised by its reduced norm, a^l = A^l + N(B) f^l, whose
norm comes from Newton's identities with no chain, at every level where
the lowest coefficient of B is a rational times a power of q: d1 of
every lift_phi and x1 of every lift_psi at every level when their form
is built over Q(t), where that coefficient is 1, and when it is built at
the root, at a prime power level or l = 6, where 1 - q is no unit or
q - 1 = q^2 (elsewhere the lowering divides by q - 1).  Of other images of
three or more terms, at one pair and a prime level, the powers stay
Kronecker-packed integers, and only the central terms of the l-th power
are built as scalars, from two powers near l/2, once reduced traces have
shown it central; elsewhere the chain runs to the l-th power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Optional, Tuple

from .center import CenterPoly
from .scalars import (Cyclo, LaurentPoly, _at_root, _residue_reducer, _slot_codec, euler_phi,
                      inverse_one_minus_q, specialize)
from .weylcore import ROOT, SYMBOLIC, AlgebraContext, WeylElement, _Keys, _packed_chain

__all__ = ["Torus", "to_torus", "specialize_torus", "torus_powers", "torus_power_cost",
           "central_power"]

Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class Torus:
    """An element a of the algebra, at a root of unity or over Q(t), in
    the quantum torus: (q - 1)^m a is the sum of c y^a f^b over terms,
    keyed (a, b), where y_i is x_i when x_side[i] and d_i otherwise."""

    context: AlgebraContext
    x_side: Tuple[bool, ...]
    terms: Dict[Mono, object]
    m: int


def to_torus(a: WeylElement) -> Torus:
    """a in the quantum torus, for a at a root of unity or over Q(t).  The
    pairs are rewritten one at a time, each localized on the side that
    gives fewer terms, x on a tie, and the image is scaled by a power of
    q - 1 (of t - 1 over Q(t)) that keeps its coefficients polynomial
    (_convert_pair), and then lowered while q - 1 divides every
    coefficient: at a root, as long as dividing by it keeps every
    coefficient as integral as it was (on the lift d + 2f of d, the
    rewritten d - 2(1 - q) x d is d + 2f, with m = 0); over Q(t), as long
    as every coefficient p has p(1) = 0, by one synthetic division each
    (_over_t_minus_1).

    The form over Q(t) serves every level (specialize_torus): t -> q is a
    ring homomorphism, so evaluating its coefficients gives the element
    (q - 1)^m a, where the conversion at the root gives (q - 1)^m' a, with
    the same support wherever both take the same side, since q - 1 is
    nonzero.  m' is less at a level where q - 1 is a unit (l not a prime
    power), or where a coefficient vanishes to a higher order at q than at
    t = 1; and a side can differ where a coefficient vanishes at q and so
    changes the count of terms."""
    ctx = a.context
    if ctx.kind != SYMBOLIC and (ctx.kind != ROOT or ctx.level < 2):
        raise ValueError("need a root-of-unity context of level >= 2")
    # per pair, its PBW exponents until it is rewritten, its torus ones after
    terms = {tuple(zip(al, be)): c for (al, be), c in a.terms.items()}
    sides, m = [], 0
    for i in range(ctx.n):
        x_terms, x_m = _convert_pair(ctx, terms, i, True)
        d_terms, d_m = _convert_pair(ctx, terms, i, False)
        x_side = len(x_terms) <= len(d_terms)
        terms = x_terms if x_side else d_terms
        sides.append(x_side)
        m += x_m if x_side else d_m
    if ctx.kind == SYMBOLIC:
        while m:
            lower = {key: _over_t_minus_1(c) for key, c in terms.items()}
            if None in lower.values():
                break
            terms, m = lower, m - 1
    else:
        inverse = -inverse_one_minus_q(ctx.level, ctx.qpow)  # 1/(q - 1)
        while m:
            lower = {key: c * inverse for key, c in terms.items()}
            if any(c.den % v.den for c, v in zip(terms.values(), lower.values())):
                break
            terms, m = lower, m - 1
    return Torus(ctx, tuple(sides), {(tuple(u for u, _ in key), tuple(v for _, v in key)): c
                                     for key, c in terms.items()}, m)


def _over_t_minus_1(c: LaurentPoly) -> Optional[LaurentPoly]:
    """c / (t - 1) when t - 1 divides c, that is c(1) = 0, else None.  For
    c = t^low sum_k n_k t^k, the quotient's coefficients are the running
    sums -(n_0 + ... + n_k), k below the top (synthetic division at 1)."""
    if sum(c.num):
        return None
    out, acc = [], 0
    for v in c.num[:-1]:
        acc -= v
        out.append(acc)
    return LaurentPoly._normalized(c.low, out, c.den)


def specialize_torus(t: Torus, ctx: AlgebraContext) -> Torus:
    """The torus form over Q(t) of to_torus evaluated at the root of ctx,
    a context of the same n at a level >= 2: each coefficient at t = q
    (scalars.specialize), and the terms that vanish there dropped.  The
    sides and m stay those of t; the result is (q - 1)^m a (to_torus)."""
    level, qpow = ctx.level, ctx.qpow
    terms = {}
    for key, c in t.terms.items():
        v = specialize(c, level, qpow)
        if v:
            terms[key] = v
    return Torus(ctx, t.x_side, terms, t.m)


def _convert_pair(ctx: AlgebraContext, terms: Dict, i: int, x_side: bool):
    """(terms with pair i rewritten in the torus times (q - 1)^m, m) for
    the least m that clears the denominators the rewriting makes:

        x^al d^be = x^(al - be) P_be(f) / (q - 1)^be              (x side)
                  = d^(be - al) P_al(q^(al - be) f) / (q - 1)^al   (d side)

    for P_k(f) = prod_{j<k} (q^-j f - 1), since f^c x^-1 = q^-c x^-1 f^c,
    and d^-1 f = q^-1 f d^-1, f^c d = q^-c d f^c."""
    m = max(key[i][1 if x_side else 0] for key in terms)
    q_minus_1 = ctx.t_power(1) - ctx.one_scalar()
    out: Dict = {}
    for key, c in terms.items():
        al, be = key[i]
        k, y = (be, al - be) if x_side else (al, be - al)
        if m > k:
            c = c * q_minus_1 ** (m - k)
        for b, pb in enumerate(_falling(ctx, k)):
            if not pb:
                continue
            coeff = c * pb if x_side else c * pb * ctx.t_power((al - be) * b)
            new = key[:i] + ((y, b),) + key[i + 1:]
            cur = out.get(new)
            total = coeff if cur is None else cur + coeff
            if total:
                out[new] = total
            else:
                del out[new]
    return out, m


def _falling(ctx: AlgebraContext, k: int):
    """The coefficients of P_k(f) = prod_{j<k} (q^-j f - 1), from f^0 up."""
    poly = [ctx.one_scalar()]
    for j in range(k):
        qj = ctx.t_power(-j)
        poly = [(poly[b - 1] * qj if b else 0) - (poly[b] if b < len(poly) else 0)
                for b in range(len(poly) + 1)]
    return poly


def torus_powers(t: Torus, wanted) -> Dict[int, Dict[Mono, object]]:
    """{k: the terms of ((q - 1)^m a)^k} for each k >= 1 in wanted, for t
    the torus image of a (to_torus): the packed chain (_packed), unpacked."""
    keys, packer, values = _packed(t, wanted)
    return {k: {keys.exps(key, k): packer.unpack(v, k, codec) for key, v in acc.items()}
            for k, (acc, codec) in values.items()}


def _packed(t: Torus, wanted):
    """(keys, packer, {k: (values, codec)}) of weylcore's packed chain from
    1 (so den0 = 1) to the powers in wanted, whose rows are the terms of t,
    each times q^(s <b, c>) (_packed_chain groups a value's terms by their
    f-exponents b).  The y-exponents of the k-th value go down to k times
    the most negative one of t, so each row offset adds that shift once."""
    ctx, n = t.context, t.context.n
    shift = tuple(max(0, -min(a[i] for a, _ in t.terms)) for i in range(n))
    top = max(max(max(a[i] + shift[i], b[i]) for i in range(n)) for a, b in t.terms)
    keys = _Keys(n, max(wanted) * top, shift)
    signs = [1 if x_side else -1 for x_side in t.x_side]
    level = ctx.level

    def rows(scaled):
        offsets = [keys.code([u + h for u, h in zip(a, shift)], e) for a, e in scaled]

        def row(b):
            twists = [sum(s * u * v for s, u, v in zip(signs, b, a)) % level for a, _ in scaled]
            return offsets, [c * ctx.t_power(j) if j else c for j, c in zip(twists, scaled.values())]
        return row

    # the code of y^0 f^0 is 0
    return (keys, *_packed_chain({0: ctx.one_scalar()}, t.terms, wanted, keys, False, rows))


def torus_power_cost(t: Torus, k: int) -> int:
    """Estimated work of the chain to the k-th power (torus_powers): step
    j < k multiplies the j-th value's terms by t's T terms, products of
    vectors of phi(l) coordinates.  The j-th value has at most C(j + T - 1,
    T - 1) terms, the multisets of j terms, and at most its exponent box,
    the product over the pairs of (j da_i + 1)(j db_i + 1) for da_i and
    db_i the spans of t's y- and f-exponents.  The estimate for k = l
    overstates what central_power does where it runs less than the chain
    to the l-th power: a form of one or two terms takes a closed form of
    at most l + 1 terms and no chain; at one pair a form A + B f takes the
    norm route, about l D products for B of degree D, and no chain; and
    at one pair and a prime level another form of three or more runs the
    chain to l - floor(l/2) only."""
    spans = [max(u[i] for u in parts) - min(u[i] for u in parts)
             for parts in zip(*t.terms) for i in range(t.context.n)]
    size = len(t.terms)
    return euler_phi(t.context.level) * size * sum(
        min(math.comb(j + size - 1, size - 1), math.prod(j * r + 1 for r in spans if r))
        for j in range(k))


def central_power(t: Torus) -> Optional[CenterPoly]:
    """theta_inverse(a**l) for a nonzero element a of the algebra at a root
    of unity of level l, given by its torus form t = to_torus(a), or the
    form of a's symbolic lift evaluated at the level (specialize_torus),
    and computed in the quantum torus; None when a**l is not central.

    A form of one or two terms is raised in closed form, at every level
    and every n (_binomial_power).  At one pair, a form A + B f, with A
    zero or c y^e for gcd(e, l) = 1 and B a Laurent polynomial in y whose
    lowest coefficient is a rational times a power of q, is raised by its
    reduced norm at every level (_norm_power).  Of other forms of three or
    more terms: at one pair and a prime level the chain runs to a^(l - h)
    only, for h = floor(l/2), and its values stay packed: centrality is
    decided by reduced traces, and only the central terms of
    a^l = a^h a^(l - h), read by contraction (_contract), become scalars
    (_half_route).  Elsewhere (a composite level, or n >= 2) the chain runs
    to a^l, and a^l is central when none of its terms survives off the
    central keys.

    The norm route.  Let n = 1 and q a primitive l-th root, at any l >= 2.
    Over the fraction field K of the center, the torus is the cyclic
    algebra (L/K, sigma, f^l), L = K(y), sigma(y) = q^s y, of degree l, in
    which f c = sigma(c) f.  On the L-basis 1, f, ..., f^(l - 1), right
    multiplication by a = A + B f is a cyclic bidiagonal matrix, with the
    sigma^k A on its diagonal and the sigma^k B, one times f^l, off it.
    Its determinant expansion makes the reduced characteristic polynomial

        prod_(k<l) (X - sigma^k A) - N(B) f^l,   N(B) = prod_(k<l) sigma^k B.

    For A = c y^e with gcd(e, l) = 1 the sigma^k A = q^(s k e) A are A
    times every l-th root of unity, so the product is X^l - A^l (and X^l
    for A = 0), and Cayley-Hamilton in this central simple algebra gives

        a^l = A^l + N(B) f^l.

    At n = 1 every term of it is central.  N(B) needs no chain: with
    B = b0 y^lo prod_k (1 - g_k y), each prod_(j<l) (1 - g_k q^(s j) y)
    is 1 - g_k^l y^l, and Newton's identities turn the power sums of the
    g_k into the coefficients of prod_k (1 - g_k^l y^l) (_norm_power)."""
    ctx, level = t.context, t.context.level
    if len(t.terms) <= 2:
        return _readout(t, _binomial_power(t))
    if ctx.n == 1:
        terms = _norm_power(t)
        if terms is not None:
            return _readout(t, terms)
    if ctx.n > 1 or euler_phi(level) != level - 1:
        return _readout(t, torus_powers(t, {level})[level])
    return _half_route(t)


def _half_route(t: Torus) -> Optional[CenterPoly]:
    """central_power at one pair and a prime level, by the chain to
    a^(l - h), h = floor(l/2), with packed values, reduced traces and the
    contraction.

    The reduced-trace criterion.  Let n = 1 and q a primitive l-th root.
    Over the fraction field K of the center, the torus is the symbol
    algebra (y^l, f^l)_q of degree l, a division algebra.  Let tau(b) be
    b's central part, its terms whose every exponent is divisible by l;
    the reduced trace is Trd(b) = l tau(b).  For a non-central a:

        a^l is central  <=>  tau(a^k) = 0 for 1 <= k <= l - 1.

    <= (at any l): Trd(a^k) = 0 for k < l makes the reduced characteristic
    polynomial X^l - c by Newton's identities (characteristic 0), and
    Cayley-Hamilton gives a^l = c.  => (l prime): K(a) is a field of
    degree l, so a's minimal polynomial has degree l and divides X^l - a^l;
    its power sums p_k = Trd(a^k) vanish for l not dividing k.  Scaling by
    (q - 1)^m changes nothing.  At n >= 2 the criterion fails: x1 + x2 has
    tau(a^k) = 0 for every k < l, and its l-th power is not central.

    tau(a^k) for k <= l - h is nonzero exactly when the chain's k-th
    value, whose zero sums are dropped, has a term in the class (0, 0)
    (_meets_center); past l - h it is the contraction of the floor(k/2)-th
    and ceil(k/2)-th values, whose classes (_classes) are built for the
    values a contraction reads only, from the floor((l - h + 1)/2)-th up.
    An all-central t skips the test: its powers are central, and the
    contraction of two of them is their whole product."""
    level = t.context.level
    h = level // 2
    keys, packer, values = _packed(t, range(1, level - h + 1))
    classes = {k: _classes(t, keys, k, *values[k])
               for k in range((level - h + 1) // 2, level - h + 1)}
    if not all(_central(key, level) for key in t.terms) and any(
            _contract(t, packer, *classes[k // 2], *classes[k - k // 2])[0] if k > level - h
            else _meets_center(keys, k, values[k][0], level) for k in range(1, level)):
        return None
    sums, codec = _contract(t, packer, *classes[h], *classes[level - h])
    return _readout(t, {key: packer.unpack(v, level, codec) for key, v in sums.items()})


def _binomial_power(t: Torus) -> Dict[Mono, object]:
    """The terms of ((q - 1)^m a)^l for a torus form t of one or two terms.

    One term u = c y^a f^b:  u^k = c^k q^(s<b, a> k(k - 1)/2) y^(ka) f^(kb),
    for s<b, a> the sum over the pairs of s_i b_i a_i.  Two terms u and
    v = c' y^c f^e: v u = zeta u v for zeta = q^w, w = s<e, a> - s<b, c>,
    of order d = l / gcd(w, l).  By the q-binomial theorem and q-Lucas at
    a primitive d-th root, (u + v)^l is the sum over the j that d divides
    of C(l/d, j/d) u^j v^(l - j), and u^j v^(l - j) twists by
    q^(j (l - j) s<b, c>).  At a prime level and zeta != 1 that is
    u^l + v^l."""
    ctx, level = t.context, t.context.level
    signs = [1 if x_side else -1 for x_side in t.x_side]

    def twist(b, c):
        """The exponent of q in y^. f^b * y^c f^. = q^(s<b, c>) y^. f^."""
        return sum(s * u * v for s, u, v in zip(signs, b, c))

    def power(key, c, k):
        """u^k for u = c y^a f^b, as (ka, kb, its coefficient)."""
        a, b = key
        r = twist(b, a) * (k * (k - 1) // 2) % level
        c = c ** k
        return tuple(k * e for e in a), tuple(k * e for e in b), c * ctx.t_power(r) if r else c

    (u, cu), *rest = t.terms.items()
    if not rest:
        a, b, c = power(u, cu, level)
        return {(a, b): c}
    (v, cv), = rest
    twist_uv = twist(u[1], v[0])
    d = level // math.gcd(twist(v[1], u[0]) - twist_uv, level)
    out = {}
    for j in range(0, level + 1, d):
        a, b, c = power(u, cu, j)
        e, f, c2 = power(v, cv, level - j)
        r = j * (level - j) * twist_uv % level
        c = math.comb(level // d, j // d) * c * c2
        out[tuple(map(add, a, e)), tuple(map(add, b, f))] = c * ctx.t_power(r) if r else c
    return out


def _norm_power(t: Torus) -> Optional[Dict[Mono, object]]:
    """The terms of ((q - 1)^m a)^l = A^l + N(B) f^l for a torus form t =
    A + B f at one pair, A zero or one term c y^e with gcd(e, l) = 1 and B
    a Laurent polynomial in y (central_power); None for any other form,
    and for a B whose lowest coefficient b0 is not a rational times a
    power of q (_unit_inverse).

    Write B = b0 y^lo R(y), R = 1 + sum_i r_i y^i = prod_k (1 - g_k y) of
    degree D.  Since prod_(j<l) (1 - g q^(s j) y) = 1 - g^l y^l,

        N(B) = b0^l q^(s lo l(l - 1)/2) y^(lo l) prod_k (1 - g_k^l y^l).

    Newton's identities give the power sums p_i of the g_k up to p_(D l),
    p_i = -i r_i - sum_(0<j<i) r_j p_(i - j), skipping the zero r_j and
    p_(i - j), and then the coefficients of prod_k (1 - g_k^l Y) from
    p_l, p_2l, ..., p_(D l): e_0 = 1 and e_j = -(1/j) sum_(i<j) e_i
    p_((j - i) l).  With b0 = c q^j, b0^l = c^l."""
    ctx, level = t.context, t.context.level
    monos, linear = [], {}
    for ((e,), (b,)), c in t.terms.items():
        if b == 1:
            linear[e] = c
        elif b or monos or math.gcd(e, level) != 1:
            return None
        else:
            monos.append((e, c))
    lo = min(linear)
    unit = _unit_inverse(linear[lo])
    if unit is None:
        return None
    b0, inverse = unit
    r = {e - lo: c * inverse for e, c in linear.items() if e > lo}
    degree = max(r)
    zero = ctx.scalar(0)
    window, sums = [zero] * degree, []  # p_(i - degree) .. p_(i - 1); p_l, p_2l, ...
    for i in range(1, degree * level + 1):
        p = -i * r[i] if i in r else zero
        for j, rj in r.items():
            if window[-j]:
                p -= rj * window[-j]
        window = window[1:] + [p]
        if not i % level:
            sums.append(p)
    coeffs = [ctx.one_scalar()]  # e_0, e_1, ...
    for j in range(1, degree + 1):
        acc = zero
        for ei, p in zip(coeffs, reversed(sums[:j])):
            if ei and p:
                acc += ei * p
        coeffs.append(Cyclo._normalized(level, [-v for v in acc.num], acc.den * j))
    sign = 1 if t.x_side[0] else -1
    scale = ctx.t_power(sign * lo * (level * (level - 1) // 2)) * b0 ** level
    out = {((e * level,), (0,)): c ** level for e, c in monos}
    for j, ej in enumerate(coeffs):
        if ej:
            out[((lo + j) * level,), (level,)] = ej * scale
    return out


def _unit_inverse(c) -> Optional[Tuple[Fraction, object]]:
    """(b, 1/c) for a Cyclo c = b z^k with b rational, else None, and no
    Cyclo.inverse of a value of more than one coordinate.  b z^k has one
    coordinate for k < phi(l); for phi(l) <= k < l, c z^(l - k) = b."""
    level = c.level
    nonzero = [k for k, v in enumerate(c.num) if v]
    if len(nonzero) == 1:
        return Fraction(c.num[nonzero[0]], c.den), c.inverse()
    for k in range(1, level - euler_phi(level) + 1):
        z = Cyclo.zeta(level, k)
        b = (c * z).as_rational()
        if b is not None:
            return b, z * (1 / b)
    return None


def _central(key: Mono, level: int) -> bool:
    """Whether the level divides every exponent of a torus monomial."""
    return not any(e % level for part in key for e in part)


def _exps(keys: _Keys, k: int, code: int) -> Tuple[int, int]:
    """(a, b) of the code of y^a f^b in the k-th value of t's chain at one
    pair (_packed)."""
    return (code >> keys.s) - k * keys.shift[0], code & ((1 << keys.s) - 1)


def _meets_center(keys: _Keys, k: int, value: Dict[int, int], level: int) -> bool:
    """Whether the k-th value of t's chain at one pair (_packed) has a
    term y^a f^b with l dividing a and b."""
    return any(not (a % level or b % level) for a, b in (_exps(keys, k, code) for code in value))


def _classes(t: Torus, keys: _Keys, k: int, value: Dict[int, int], codec):
    """(classes, codec): the terms (a, b, packed coefficient) of y^a f^b of
    the k-th value of t's chain at one pair (_packed), by (a, b) mod l."""
    level = t.context.level
    out: Dict[Tuple[int, int], list] = {}
    for code, v in value.items():
        a, b = _exps(keys, k, code)
        out.setdefault((a % level, b % level), []).append((a, b, v))
    return out, codec


def _contract(t: Torus, packer, left, lcodec, right, rcodec):
    """(sums, codec): the nonzero central terms of the product of the k1-th
    and k2-th values of t's chain at one pair and a prime level l, given by
    their classes (_classes), packed by codec over den^(k1 + k2).  A term
    u y^a f^b meets the terms v y^c f^e in the class -(a, b) mod l, with
    the twist q^(-s a b): u is read, rotated by -s a b qpow places
    (z^l = 1) and reduced to l - 1 coordinates.  Each key's products are
    one Kronecker sum, reduced once, in the codec of max|u| max sum|v|
    times the pairs at a key, at most the fewer terms that meet on a side."""
    level, d, twist = t.context.level, packer.data.degree, (-1 if t.x_side[0] else 1) * t.context.qpow
    met = []
    for (x, y), us in left.items():
        vs = right.get((-x % level, -y % level))
        if vs:
            rotated = []
            for a, b, u in us:
                r = twist * a * b % level
                u = [*lcodec.read(u + lcodec.flip(d), d), 0]
                u = u[-r:] + u[:-r]
                rotated.append((a, b, [c - u[-1] for c in u[:-1]]))
            met.append((rotated, [(c, e, rcodec.read(v + rcodec.flip(d), d)) for c, e, v in vs]))
    codec = _slot_codec(max((max(map(abs, u)) for us, _ in met for _, _, u in us), default=0)
                        * max((sum(map(abs, v)) for _, vs in met for _, _, v in vs), default=0)
                        * min(sum(len(us) for us, _ in met), sum(len(vs) for _, vs in met)))
    sums: Dict[Tuple[int, int], int] = {}
    for us, vs in met:
        vs = [(c, e, codec.pack(v)) for c, e, v in vs]
        for a, b, u in us:
            u = codec.pack(u)
            for c, e, v in vs:
                sums[a + c, b + e] = sums.get((a + c, b + e), 0) + u * v
    reduce = _residue_reducer(codec, packer.data)
    return {((a,), (b,)): v for (a, b), v in zip(sums, map(reduce, sums.values())) if v}, codec


def _readout(t: Torus, terms: Dict[Mono, object]) -> Optional[CenterPoly]:
    """theta_inverse(a**l) from the terms of ((q - 1)^m a)^l, or their
    central terms; None when a term is not central.

    Each central term c y^(l a) f^(l b) is c times the product over the
    pairs of y_i^(l a_i) (1 - (1 - q)^l s_i r_i)^b_i, for y_i^l = s_i on
    the x side and r_i on the d side.  Negative powers of
    s_i or r_i cancel in the sum, since a**l lies in the algebra.  The sum
    is then divided by (q - 1)^(m l), as 1/(q - 1) = -1/(1 - q)
    (scalars.inverse_one_minus_q)."""
    ctx, level = t.context, t.context.level
    if not all(_central(key, level) for key in terms):
        return None
    top = max(max(b) for _, b in terms) // level
    eps_powers = [ctx.one_scalar()]
    if top:  # f_i^l = 1 + eps s_i r_i, eps = -(1 - q)^l = -sum_k C(l, k) (-q)^k
        eps = _at_root([(-1) ** (k + 1) * math.comb(level, k) for k in range(level + 1)],
                       0, 1, level, ctx.qpow)
        while len(eps_powers) <= top:
            eps_powers.append(eps_powers[-1] * eps)
    out: Dict = {}
    for (ys, fs), c in terms.items():
        parts = [((), (), c)]
        for y, f, x_side in zip(ys, fs, t.x_side):
            y, f = y // level, f // level
            parts = [(r + (j if x_side else y + j,), s + (y + j if x_side else j,),
                      v * (math.comb(f, j) * eps_powers[j]) if j else v)
                     for r, s, v in parts for j in range(f + 1)]
        for r, s, v in parts:
            cur = out.get((r, s))
            out[(r, s)] = v if cur is None else cur + v
    if t.m:
        scale = (-inverse_one_minus_q(level, ctx.qpow)) ** (t.m * level)
        out = {key: v * scale for key, v in out.items()}
    return CenterPoly(ctx.n, {key: v for key, v in out.items() if v})
