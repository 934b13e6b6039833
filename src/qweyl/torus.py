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

A central element has central torus terms only, those with every exponent
a multiple of l, and y_i^l is s_i = x_i^l or r_i = d_i^l, while
f_i^l = 1 - (1 - q)^l s_i r_i (center.f_power_closed_form): the center
polynomial is read off the torus terms, with no conversion back to PBW form
(central_power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .center import CenterPoly
from .scalars import inverse_one_minus_q
from .weylcore import ROOT, AlgebraContext, WeylElement, _Keys, _packed_chain

__all__ = ["Torus", "to_torus", "torus_powers", "central_power"]

Mono = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class Torus:
    """An element a of the algebra at a root of unity in the quantum torus:
    (q - 1)^m a is the sum of c y^a f^b over terms, keyed (a, b), where
    y_i is x_i when x_side[i] and d_i otherwise."""

    context: AlgebraContext
    x_side: Tuple[bool, ...]
    terms: Dict[Mono, object]
    m: int


def to_torus(a: WeylElement) -> Torus:
    """a in the quantum torus.  The pairs are rewritten one at a time, each
    localized on the side that gives fewer terms, x on a tie, and the
    image is scaled by a power of q - 1 that keeps its coefficients as
    integral as a's (_convert_pair): the least one, as long as q - 1
    divides every coefficient of the image (on the lift d + 2f of d, the
    rewritten d - 2(1 - q) x d is d + 2f, with m = 0)."""
    ctx = a.context
    if ctx.kind != ROOT or ctx.level < 2:
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
    inverse = -inverse_one_minus_q(ctx.level, ctx.qpow)  # 1/(q - 1)
    while m:
        lower = {key: c * inverse for key, c in terms.items()}
        if any(c.den % v.den for c, v in zip(terms.values(), lower.values())):
            break
        terms, m = lower, m - 1
    return Torus(ctx, tuple(sides), {(tuple(u for u, _ in key), tuple(v for _, v in key)): c
                                     for key, c in terms.items()}, m)


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
    the torus image of a (to_torus): the packed chain of weylcore, whose
    rows are the terms of t, each times q^(s <b, c>) (_packed_chain groups
    a value's terms by their f-exponents b).  The y-exponents of the k-th
    value go down to k times the most negative one of t, so each row
    offset adds that shift once (weylcore._Keys)."""
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
    return _packed_chain({0: ctx.one_scalar()}, t.terms, wanted, keys, False, rows)


def central_power(a: WeylElement) -> Optional[CenterPoly]:
    """theta_inverse(a**l) for a nonzero element a of the algebra at a root
    of unity of level l, computed in the quantum torus; None when a**l is
    not central.

    Each central term c y^(l a) f^(l b) of ((q - 1)^m a)^l is c times the
    product over the pairs of y_i^(l a_i) (1 - (1 - q)^l s_i r_i)^b_i, for
    y_i^l = s_i on the x side and r_i on the d side.  Negative powers of
    s_i or r_i cancel in the sum, since a**l lies in the algebra.  The sum
    is then divided by (q - 1)^(m l), as 1/(q - 1) = -1/(1 - q)
    (scalars.inverse_one_minus_q)."""
    t = to_torus(a)
    ctx, level = t.context, t.context.level
    terms = torus_powers(t, {level})[level]
    if any(e % level for key in terms for part in key for e in part):
        return None
    eps = -((ctx.one_scalar() - ctx.t_power(1)) ** level)  # f_i^l = 1 + eps s_i r_i
    top = max(max(b) for _, b in terms) // level
    eps_powers = [ctx.one_scalar()]
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
    scale = (-inverse_one_minus_q(level, ctx.qpow)) ** (t.m * level)
    return CenterPoly(ctx.n, {key: v * scale for key, v in out.items() if v})
