"""Endomorphisms given by generator images: validation, application,
composition, characters, and the canonical lifts of the translation-type
automorphisms of the classical algebra.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .scalars import inverse_one_minus_q
from .weylcore import (
    DEFAULT_DEGREE_LIMIT,
    POWER_COST_LIMIT,
    ROOT,
    SYMBOLIC,
    AlgebraContext,
    ContextMismatchError,
    DegreeLimitExceeded,
    WeylElement,
    _degree_limit,
    _power_cost,
    _powers,
    bernstein_degree,
    f_element,
    mul,
    specialize_element,
)

__all__ = [
    "Endomorphism",
    "UnvalidatedError",
    "DegreeLimitExceeded",
    "DEFAULT_DEGREE_LIMIT",
    "make_endomorphism",
    "identity_endomorphism",
    "validate",
    "apply_endo",
    "check_apply_cost",
    "compose",
    "one_dim_rep",
    "lift_phi",
    "lift_psi",
    "specialize_endomorphism",
]

class UnvalidatedError(ValueError):
    """Application of an endomorphism whose relation certificate is missing."""


class Endomorphism:
    """Algebra endomorphism stored as the images of the 2n generators.

    `validated` certifies that all defining relations map to zero; the list
    of violated relations (if any) is kept as data.
    """

    __slots__ = ("context", "images_x", "images_d", "validated", "violations")

    def __init__(self, context: AlgebraContext,
                 images_x: Sequence[WeylElement],
                 images_d: Sequence[WeylElement],
                 validated: bool,
                 violations: Tuple[Tuple[str, WeylElement], ...]):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "images_x", tuple(images_x))
        object.__setattr__(self, "images_d", tuple(images_d))
        object.__setattr__(self, "validated", validated)
        object.__setattr__(self, "violations", violations)

    def __setattr__(self, name, value):
        raise AttributeError("Endomorphism values are immutable")

    def __eq__(self, other):
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return (self.context == other.context
                and self.images_x == other.images_x
                and self.images_d == other.images_d)

    def max_image_degree(self) -> int:
        deg = 0
        for img in self.images_x + self.images_d:
            if img:
                deg = max(deg, bernstein_degree(img))
        return deg

    def __repr__(self):
        return (f"<Endomorphism on {self.context!r}, validated={self.validated}, "
                f"deg<={self.max_image_degree()}>")


def validate(images_x, images_d: Optional[Sequence[WeylElement]] = None
             ) -> Tuple[bool, List[Tuple[str, WeylElement]]]:
    """Substitute the images into every defining relation.

    Accepts either an endomorphism or the two image families directly;
    returns (all relations vanish, list of (relation label, residual)).
    """
    if isinstance(images_x, Endomorphism):
        images_x, images_d = images_x.images_x, images_x.images_d
    ctx = images_x[0].context
    n = ctx.n
    t1 = ctx.t_power(1)
    violations: List[Tuple[str, WeylElement]] = []
    for i in range(n):
        for j in range(n):
            res = mul(images_d[i], images_x[j]) - mul(images_x[j], images_d[i]).scale(
                t1 if i == j else ctx.one_scalar()
            )
            if i == j:
                res = res - ctx.one()
            if res:
                violations.append((f"d{i+1}*x{j+1} relation", res))
    for i in range(n):
        for j in range(i + 1, n):
            res = mul(images_x[i], images_x[j]) - mul(images_x[j], images_x[i])
            if res:
                violations.append((f"x{i+1}*x{j+1} commutation", res))
            res = mul(images_d[i], images_d[j]) - mul(images_d[j], images_d[i])
            if res:
                violations.append((f"d{i+1}*d{j+1} commutation", res))
    return (not violations, violations)


def make_endomorphism(ctx: AlgebraContext,
                      images_x: Sequence[WeylElement],
                      images_d: Sequence[WeylElement]) -> Endomorphism:
    """Build and certify an endomorphism from generator images."""
    if len(images_x) != ctx.n or len(images_d) != ctx.n:
        raise ValueError("need one image per generator")
    for img in tuple(images_x) + tuple(images_d):
        if img.context != ctx:
            raise ContextMismatchError("image lives in a different context")
    ok, violations = validate(images_x, images_d)
    return Endomorphism(ctx, images_x, images_d, ok, tuple(violations))


def identity_endomorphism(ctx: AlgebraContext) -> Endomorphism:
    xs = [ctx.x(i) for i in range(1, ctx.n + 1)]
    ds = [ctx.d(i) for i in range(1, ctx.n + 1)]
    return Endomorphism(ctx, xs, ds, True, ())


def apply_endo(e: Endomorphism, a: WeylElement) -> WeylElement:
    """Image of an element under a validated endomorphism.

    Substitutes monomial by monomial, multiplying the powers of the
    generator images in PBW order (all x-images first, then all d-images).
    The powers of each image come from one power chain (_powers), which
    unpacks only the exponents that a uses.  Refuses, before any product,
    the inputs that check_apply_cost refuses.
    """
    if not e.validated:
        raise UnvalidatedError("endomorphism failed (or skipped) validation")
    ctx = e.context
    if a.context != ctx:
        raise ContextMismatchError("element lives in a different context")
    check_apply_cost(e.images_x, e.images_d, a)
    n = ctx.n
    pow_x = [_powers(e.images_x[i], {al[i] for al, _ in a.terms if al[i]}) for i in range(n)]
    pow_d = [_powers(e.images_d[i], {be[i] for _, be in a.terms if be[i]}) for i in range(n)]
    out = ctx.zero()
    for (al, be), c in a.terms.items():
        factors = ([pow_x[i][al[i]] for i in range(n) if al[i]]
                   + [pow_d[i][be[i]] for i in range(n) if be[i]])
        acc = factors[0] if factors else ctx.one()
        for factor in factors[1:]:
            acc = mul(acc, factor)
        out = out + acc.scale(c)
    return out


def check_apply_cost(images_x: Sequence[WeylElement], images_d: Sequence[WeylElement],
                     a: WeylElement) -> None:
    """Refuse, before any product, what apply_endo with these generator
    images would refuse: a substituted Bernstein degree above the guard
    (QWEYL_MAX_DEGREE, default 512), or a power chain of an image whose
    estimated cost (_power_cost) exceeds POWER_COST_LIMIT."""
    limit = _degree_limit()
    n = a.context.n
    deg_x = [bernstein_degree(img) if img else 0 for img in images_x]
    deg_d = [bernstein_degree(img) if img else 0 for img in images_d]
    worst = 0
    for (al, be) in a.terms:
        est = sum(al[i] * deg_x[i] for i in range(n)) + sum(
            be[i] * deg_d[i] for i in range(n)
        )
        worst = max(worst, est)
    if worst > limit:
        raise DegreeLimitExceeded(
            f"substituted degree {worst} exceeds the guard {limit}"
        )
    max_a = [max((al[i] for al, _ in a.terms), default=0) for i in range(n)]
    max_b = [max((be[i] for _, be in a.terms), default=0) for i in range(n)]
    for img, k in zip(list(images_x) + list(images_d), max_a + max_b):
        if k and img:
            cost = _power_cost(img, k)
            if cost > POWER_COST_LIMIT:
                raise DegreeLimitExceeded(
                    f"power chain of estimated cost {cost} exceeds the guard {POWER_COST_LIMIT}"
                )


def compose(e1: Endomorphism, e2: Endomorphism) -> Endomorphism:
    """e1 after e2: images of the composite are e1 applied to e2's images."""
    if e1.context != e2.context:
        raise ContextMismatchError("cannot compose across contexts")
    if not (e1.validated and e2.validated):
        raise UnvalidatedError("compose requires validated endomorphisms")
    xs = [apply_endo(e1, img) for img in e2.images_x]
    ds = [apply_endo(e1, img) for img in e2.images_d]
    # a composite of certified homomorphisms is a homomorphism
    return Endomorphism(e1.context, xs, ds, True, ())


def one_dim_rep(ctx: AlgebraContext, a: Sequence) -> Endomorphism:
    """Character x_i -> a_i, d_i -> a_i^(-1)/(1-q); needs q != 1.

    Composing with the inclusion of scalars, this is the standard
    one-dimensional representation; it validates against the relations and
    is visibly non-injective.
    """
    if ctx.kind != ROOT or ctx.level < 2:
        raise ValueError("characters exist only at roots of unity q != 1")
    if len(a) != ctx.n:
        raise ValueError("need one scalar per pair")
    inv_one_minus_q = inverse_one_minus_q(ctx.level, ctx.qpow)
    xs = []
    ds = []
    for ai in a:
        c = ctx.scalar(ai)
        if not c:
            raise ValueError("character parameters must be nonzero")
        xs.append(ctx.scalar_element(c))
        ds.append(ctx.scalar_element(inv_one_minus_q * c.inverse()))
    return make_endomorphism(ctx, xs, ds)


def _as_x_poly(ctx: AlgebraContext, poly: Union[WeylElement, Mapping[int, object]],
               generator: str) -> WeylElement:
    if isinstance(poly, WeylElement):
        if poly.context != ctx:
            raise ContextMismatchError("polynomial lives in a different context")
        for (al, be) in poly.terms:
            pure = (not any(be)) if generator == "x" else (not any(al))
            if not pure:
                raise ValueError(f"expected a polynomial in {generator} only")
        return poly
    terms = {}
    for m, c in poly.items():
        key = ((m,), (0,)) if generator == "x" else ((0,), (m,))
        terms[key] = c
    return ctx.from_terms(terms)


def lift_phi(ctx: AlgebraContext, coeff_poly: Union[WeylElement, Mapping[int, object]]) -> Endomorphism:
    """The lift  x -> x,  d -> d + F(x) * f  of the translation d -> d + F(x).

    Single-pair construction (n = 1); validation must succeed and is asserted.
    """
    if ctx.n != 1:
        raise ValueError("lifts are constructed for a single generator pair")
    if ctx.kind != SYMBOLIC:
        raise ValueError("lifts are built over symbolic t")
    F = _as_x_poly(ctx, coeff_poly, "x")
    e = make_endomorphism(ctx, [ctx.x(1)], [ctx.d(1) + mul(F, f_element(ctx))])
    if not e.validated:  # pragma: no cover - construction guarantee
        raise AssertionError("canonical lift failed validation")
    return e


def lift_psi(ctx: AlgebraContext, coeff_poly: Union[WeylElement, Mapping[int, object]]) -> Endomorphism:
    """The lift  x -> x + f * G(d),  d -> d  of the translation x -> x + G(d)."""
    if ctx.n != 1:
        raise ValueError("lifts are constructed for a single generator pair")
    if ctx.kind != SYMBOLIC:
        raise ValueError("lifts are built over symbolic t")
    G = _as_x_poly(ctx, coeff_poly, "d")
    e = make_endomorphism(ctx, [ctx.x(1) + mul(f_element(ctx), G)], [ctx.d(1)])
    if not e.validated:  # pragma: no cover - construction guarantee
        raise AssertionError("canonical lift failed validation")
    return e


def specialize_endomorphism(e: Endomorphism, level: int) -> Endomorphism:
    """Specialize the generator images at q = zeta_level and re-certify.

    Re-validation matters: some maps satisfy the relations only at specific
    values of the parameter.
    """
    if e.context.kind != SYMBOLIC:
        raise ValueError("only symbolic endomorphisms specialize")
    xs = [specialize_element(img, level) for img in e.images_x]
    ds = [specialize_element(img, level) for img in e.images_d]
    return make_endomorphism(xs[0].context, xs, ds)
