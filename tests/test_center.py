import math
from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    MaxIdealPoint,
    NotCentralError,
    azumaya_test,
    commutator,
    embed,
    f_element,
    f_power_closed_form,
    is_central,
    mul,
    power,
    theta,
    theta_inverse,
)


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------


def test_generator_powers_are_central():
    for level in (2, 3, 5):
        ctx = AlgebraContext.root_of_unity(1, level)
        assert is_central(ctx.monomial((level,), (0,)))
        assert is_central(ctx.monomial((0,), (level,)))


def test_generators_not_central():
    ctx = AlgebraContext.root_of_unity(1, 3)
    assert not is_central(ctx.x(1))
    assert not is_central(ctx.d(1))


def test_f_power_is_central():
    for level in (2, 3, 5):
        ctx = AlgebraContext.root_of_unity(1, level)
        assert is_central(power(f_element(ctx), level))


# ---------------------------------------------------------------------------
# the center isomorphism
# ---------------------------------------------------------------------------


def test_theta_basics():
    p = CenterPoly.r(1, 1)
    assert theta(p, 3) == AlgebraContext.root_of_unity(1, 3).monomial((0,), (3,))
    sr = CenterPoly.r(1, 1) * CenterPoly.s(1, 1)
    assert theta(sr, 3) == AlgebraContext.root_of_unity(1, 3).monomial((3,), (3,))
    assert theta(CenterPoly.constant(1, 1), 3) == AlgebraContext.root_of_unity(1, 3).one()


def test_theta_is_ring_hom(rng):
    for level in (2, 3, 5):
        for _ in range(8):
            n = rng.choice((1, 2))
            p = _random_center(rng, n)
            q = _random_center(rng, n)
            assert theta(p * q, level) == mul(theta(p, level), theta(q, level))
            assert theta(p + q, level) == theta(p, level) + theta(q, level)


def test_theta_images_central(rng):
    for level in (2, 3, 5):
        for _ in range(5):
            assert is_central(theta(_random_center(rng, 1), level))


def test_theta_inverse_examples():
    ctx = AlgebraContext.root_of_unity(1, 3)
    assert theta_inverse(ctx.monomial((0,), (3,))) == CenterPoly.r(1, 1)
    q = Cyclo.zeta(3)
    fl = f_power_closed_form(ctx)
    expected = CenterPoly.constant(1, 1) + CenterPoly.monomial(
        1, (1,), (1,), -((Cyclo.one(3) - q) ** 3)
    )
    assert theta_inverse(fl) == expected
    with pytest.raises(NotCentralError):
        theta_inverse(ctx.x(1))


def test_theta_roundtrip(rng):
    for level in (2, 5):
        for _ in range(8):
            p = _random_center(rng, rng.choice((1, 2)))
            assert theta_inverse(theta(p, level)) == p


def _random_center(rng, n, max_terms=3):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        a = tuple(rng.randint(0, 2) for _ in range(n))
        b = tuple(rng.randint(0, 2) for _ in range(n))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            coeffs[(a, b)] = c
    p = CenterPoly(n, coeffs)
    return p if p else CenterPoly.constant(n, 1)


# ---------------------------------------------------------------------------
# closed form of the distinguished power
# ---------------------------------------------------------------------------


def test_f_power_closed_form_examples():
    ctx2 = AlgebraContext.root_of_unity(1, 2)
    assert f_power_closed_form(ctx2) == ctx2.one() - ctx2.monomial((2,), (2,), 4)
    ctx3 = AlgebraContext.root_of_unity(1, 3)
    q = Cyclo.zeta(3)
    assert f_power_closed_form(ctx3) == ctx3.one() - ctx3.monomial(
        (3,), (3,), (Cyclo.one(3) - q) ** 3
    )


def test_f_power_closed_form_matches_power():
    for level in range(2, 8):
        for qpow in range(1, level):
            if math.gcd(qpow, level) != 1:
                continue
            for n in (1, 2):
                ctx = AlgebraContext.root_of_unity(n, level, qpow)
                assert power(f_element(ctx), level) == f_power_closed_form(ctx)


def test_f_power_two_pairs_is_product_of_factors():
    ctx = AlgebraContext.root_of_unity(2, 2)
    got = f_power_closed_form(ctx)
    a = ctx.one() - ctx.monomial((2, 0), (2, 0), 4)
    b = ctx.one() - ctx.monomial((0, 2), (0, 2), 4)
    assert got == mul(a, b)


# ---------------------------------------------------------------------------
# Azumaya criterion
# ---------------------------------------------------------------------------


def test_azumaya_level_two_examples():
    assert azumaya_test(MaxIdealPoint([1], [1]), 2)
    assert not azumaya_test(MaxIdealPoint([1], [Fraction(1, 4)]), 2)
    assert azumaya_test(MaxIdealPoint([0], [0]), 2)


def test_azumaya_numeric_mode():
    q = embed(Cyclo.zeta(3))
    bad = (1 - q) ** -3
    assert not azumaya_test(MaxIdealPoint([1.0 + 0j], [bad]), 3)
    assert azumaya_test(MaxIdealPoint([1.0 + 0j], [bad + 1]), 3)


def test_azumaya_componentwise():
    # every pair must avoid the bad locus
    bad = Fraction(1, 4)
    assert not azumaya_test(MaxIdealPoint([1, 1], [1, bad]), 2)
    assert azumaya_test(MaxIdealPoint([1, 1], [1, 1]), 2)


def test_azumaya_matches_f_power_vanishing(rng):
    # the criterion is exactly the nonvanishing of the decomposed f-power
    for level in (2, 3):
        ctx = AlgebraContext.root_of_unity(1, level)
        poly = theta_inverse(f_power_closed_form(ctx))
        for _ in range(12):
            a = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
            b = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
            value = poly.evaluate([b], [a])  # r = d-power values, s = x-power values
            assert azumaya_test(MaxIdealPoint([a], [b]), level) == bool(value)


def _commutes_with_generators(a):
    """Reference centrality: a commutes with every generator, which suffices
    because they generate the algebra; 2n commutators of products."""
    ctx = a.context
    gens = [g for i in range(1, ctx.n + 1) for g in (ctx.x(i), ctx.d(i))]
    return not any(commutator(a, g) for g in gens)


def _mixed_sum(rng, ctx, central_terms, other_terms):
    """Sum of monomials whose exponents are multiples of the level and of
    monomials with any exponents up to level + 1, coefficients in Q(q)."""
    level, n = ctx.level, ctx.n
    out = ctx.zero()
    for k in range(central_terms + other_terms):
        if k < central_terms:
            al = tuple(level * rng.randint(0, 2) for _ in range(n))
            be = tuple(level * rng.randint(0, 1) for _ in range(n))
        else:
            al = tuple(rng.randint(0, level + 1) for _ in range(n))
            be = tuple(rng.randint(0, level + 1) for _ in range(n))
        c = ctx.scalar(Fraction(rng.randint(1, 4), rng.randint(1, 3))) * ctx.t_power(k)
        out = out + ctx.monomial(al, be, c)
    return out


def test_central_monomials_have_divisible_exponents(rng):
    # is_central reads exponents; the reference multiplies out commutators
    verdicts = []
    for level in range(1, 13):
        for qpow in [k for k in range(1, max(level, 2)) if math.gcd(k, level) == 1]:
            for n in (1, 2):
                ctx = AlgebraContext.root_of_unity(n, level, qpow)
                elements = [ctx.zero(), ctx.one().scale(3), ctx.x(n), ctx.d(1)]
                elements += [_mixed_sum(rng, ctx, 2, 0), _mixed_sum(rng, ctx, 0, 2)]
                elements += [_mixed_sum(rng, ctx, rng.randint(1, 3), 1) for _ in range(2)]
                for a in elements:
                    verdict = is_central(a)
                    assert verdict == _commutes_with_generators(a), (level, qpow, a)
                    verdicts.append(verdict)
    assert len(verdicts) > 500 and verdicts.count(False) > 100 and verdicts.count(True) > 100


