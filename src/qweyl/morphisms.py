"""Endomorphisms given by generator images: validation, application,
composition, and the canonical lifts of the translation-type automorphisms
of the classical algebra.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple, Union

from .weylcore import (
    DEFAULT_DEGREE_LIMIT,
    SYMBOLIC,
    AlgebraContext,
    ContextMismatchError,
    DegreeLimitExceeded,
    WeylElement,
    _check_power,
    _powers,
    bernstein_degree,
    commutator,
    f_element,
    mul,
    q_commutator,
    specialize_element,
)

__all__ = [
    "Endomorphism",
    "UnvalidatedError",
    "DegreeLimitExceeded",
    "DEFAULT_DEGREE_LIMIT",
    "make_endomorphism",
    "validate",
    "apply_endo",
    "check_substituted_degree",
    "compose",
    "lift_phi",
    "lift_psi",
    "specialize_endomorphism",
]

class UnvalidatedError(ValueError):
    """Generator images that violate a defining relation: make_endomorphism
    names the first one and builds no map."""


class Endomorphism:
    """Algebra endomorphism stored as the images of the 2n generators.

    Holding one certifies it: make_endomorphism builds it from images that
    satisfy every defining relation, and a constructor that already has a
    proof (compose, specialize_endomorphism) builds it directly.
    """

    __slots__ = ("context", "images_x", "images_d")

    def __init__(self, context: AlgebraContext,
                 images_x: Sequence[WeylElement],
                 images_d: Sequence[WeylElement]):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "images_x", tuple(images_x))
        object.__setattr__(self, "images_d", tuple(images_d))

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
        return f"<Endomorphism on {self.context!r}, deg<={self.max_image_degree()}>"


def validate(images_x: Sequence[WeylElement], images_d: Sequence[WeylElement]
             ) -> Tuple[bool, List[Tuple[str, WeylElement]]]:
    """Substitute the images into every defining relation; returns (all
    relations vanish, list of (relation label, residual))."""
    ctx = images_x[0].context
    n = ctx.n
    violations: List[Tuple[str, WeylElement]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                res = q_commutator(images_d[i], images_x[i]) - ctx.one()
            else:
                res = commutator(images_d[i], images_x[j])
            if res:
                violations.append((f"d{i+1}*x{j+1} relation", res))
    for i in range(n):
        for j in range(i + 1, n):
            res = commutator(images_x[i], images_x[j])
            if res:
                violations.append((f"x{i+1}*x{j+1} commutation", res))
            res = commutator(images_d[i], images_d[j])
            if res:
                violations.append((f"d{i+1}*d{j+1} commutation", res))
    return (not violations, violations)


def make_endomorphism(ctx: AlgebraContext,
                      images_x: Sequence[WeylElement],
                      images_d: Sequence[WeylElement]) -> Endomorphism:
    """Build an endomorphism from generator images, certified: raises
    UnvalidatedError naming the first defining relation they violate.  A
    map that holds only at a root of unity is built in that root's context,
    AlgebraContext.root_of_unity(n, l)."""
    if len(images_x) != ctx.n or len(images_d) != ctx.n:
        raise ValueError("need one image per generator")
    for img in tuple(images_x) + tuple(images_d):
        if img.context != ctx:
            raise ContextMismatchError("image lives in a different context")
    ok, violations = validate(images_x, images_d)
    if not ok:
        raise UnvalidatedError(f"the images violate the {violations[0][0]}")
    return Endomorphism(ctx, images_x, images_d)


def apply_endo(e: Endomorphism, a: WeylElement) -> WeylElement:
    """Image of an element under an endomorphism.

    Substitutes monomial by monomial, multiplying the powers of the
    generator images in PBW order (all x-images first, then all d-images).
    The powers of each image come from one call of the power routine
    (_powers), which unpacks only the exponents that a uses.  Refuses,
    before any product, a substitution over the degree guard
    (check_substituted_degree), then the highest power of any image that
    power would refuse (_check_power).
    """
    ctx = e.context
    if a.context != ctx:
        raise ContextMismatchError("element lives in a different context")
    check_substituted_degree(e.images_x, e.images_d, a.terms)
    images = e.images_x + e.images_d
    keys = [al + be for al, be in a.terms]
    wanted = [{key[i] for key in keys if key[i]} for i in range(2 * ctx.n)]
    for img, ks in zip(images, wanted):
        if ks:
            _check_power(img, max(ks))
    powers = [_powers(img, ks) for img, ks in zip(images, wanted)]
    out = ctx.zero()
    for key, c in zip(keys, a.terms.values()):
        factors = [powers[i][k] for i, k in enumerate(key) if k]
        acc = factors[0] if factors else ctx.one()
        for factor in factors[1:]:
            acc = mul(acc, factor)
        out = out + acc.scale(c)
    return out


def check_substituted_degree(images_x: Sequence[WeylElement],
                             images_d: Sequence[WeylElement], monomials) -> None:
    """Refuse a substitution of these generator images into the monomials
    x^al d^be, given as their keys (al, be), whose Bernstein degree exceeds
    the guard DEFAULT_DEGREE_LIMIT (512)."""
    deg_x = [bernstein_degree(img) if img else 0 for img in images_x]
    deg_d = [bernstein_degree(img) if img else 0 for img in images_d]
    worst = 0
    for (al, be) in monomials:
        est = sum(e * d for e, d in zip(al + be, deg_x + deg_d))
        worst = max(worst, est)
    if worst > DEFAULT_DEGREE_LIMIT:
        raise DegreeLimitExceeded(
            f"substituted degree {worst} exceeds the guard {DEFAULT_DEGREE_LIMIT}"
        )


def compose(e1: Endomorphism, e2: Endomorphism) -> Endomorphism:
    """e1 after e2: images of the composite are e1 applied to e2's images.
    A composite of homomorphisms is one, so it is built without validation."""
    if e1.context != e2.context:
        raise ContextMismatchError("cannot compose across contexts")
    xs = [apply_endo(e1, img) for img in e2.images_x]
    ds = [apply_endo(e1, img) for img in e2.images_d]
    return Endomorphism(e1.context, xs, ds)


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

    Single-pair construction (n = 1), validated by make_endomorphism.
    """
    if ctx.n != 1:
        raise ValueError("lifts are constructed for a single generator pair")
    if ctx.kind != SYMBOLIC:
        raise ValueError("lifts are built over symbolic t")
    F = _as_x_poly(ctx, coeff_poly, "x")
    return make_endomorphism(ctx, [ctx.x(1)], [ctx.d(1) + mul(F, f_element(ctx))])


def lift_psi(ctx: AlgebraContext, coeff_poly: Union[WeylElement, Mapping[int, object]]) -> Endomorphism:
    """The lift  x -> x + f * G(d),  d -> d  of the translation x -> x + G(d)."""
    if ctx.n != 1:
        raise ValueError("lifts are constructed for a single generator pair")
    if ctx.kind != SYMBOLIC:
        raise ValueError("lifts are built over symbolic t")
    G = _as_x_poly(ctx, coeff_poly, "d")
    return make_endomorphism(ctx, [ctx.x(1) + mul(f_element(ctx), G)], [ctx.d(1)])


def specialize_endomorphism(e: Endomorphism, level: int) -> Endomorphism:
    """Specialize the generator images at q = zeta_level.

    t -> zeta_level is a ring homomorphism, so the specialized images
    satisfy the relations at the root and need no validation.
    """
    if e.context.kind != SYMBOLIC:
        raise ValueError("only symbolic endomorphisms specialize")
    xs = [specialize_element(img, level) for img in e.images_x]
    ds = [specialize_element(img, level) for img in e.images_d]
    return Endomorphism(xs[0].context, xs, ds)
