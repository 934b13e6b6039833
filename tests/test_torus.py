"""The quantum torus route of hat_step against the PBW route it replaces:
theta_inverse(apply_endo(e_l, theta(p, l)))."""

import time
from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    check_center_preservation,
    compose,
    hat_step,
    identity_endomorphism,
    lift_phi,
    lift_psi,
    make_endomorphism,
    one_dim_rep,
    parse_weyl,
    specialize_element,
)
from qweyl import hatmap
from qweyl.center import NotCentralError, theta, theta_inverse
from qweyl.hatmap import CentralityFailure
from qweyl.morphisms import Endomorphism, apply_endo, specialize_endomorphism
from qweyl.scalars import inverse_one_minus_q
from qweyl.torus import central_power, to_torus, torus_powers
from qweyl.weylcore import f_i, power

from conftest import random_element

PHI = ("x1^2", "2", "1 + x1 - 3*x1^3")
PSI = ("d1^2", "2", "1 + d1 - 3*d1^3")


def _lifts():
    ctx = AlgebraContext.symbolic(1)
    return ([lift_phi(ctx, parse_weyl(f, ctx)) for f in PHI]
            + [lift_psi(ctx, parse_weyl(g, ctx)) for g in PSI])


def _pbw_route(e, p, level):
    e_l = specialize_endomorphism(e, level)
    try:
        return theta_inverse(apply_endo(e_l, theta(p, level)))
    except NotCentralError as err:
        return CentralityFailure(level, str(err))


@pytest.fixture
def torus_only(monkeypatch):
    """hat_step with no way back to the PBW route, so that a fault of the
    torus that makes a power look non-central cannot hide behind it."""
    def refused(*args):
        raise AssertionError("hat_step fell back to apply_endo")

    monkeypatch.setattr(hatmap, "apply_endo", refused)


def test_hat_step_equals_the_pbw_route_on_the_pair_lifts(torus_only):
    r1, s1 = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    polys = (r1, s1, r1 * s1, r1 * r1 + s1)
    for e in _lifts():
        for level in (2, 3, 4, 6, 9, 12, 13):
            for p in polys:
                assert hat_step(e, p, level) == _pbw_route(e, p, level), (level, p)


def _shear_maps():
    ctx = AlgebraContext.symbolic(2)
    x1, x2, d1, d2 = ctx.x(1), ctx.x(2), ctx.d(1), ctx.d(2)
    shear = make_endomorphism(ctx, [x1, x2], [d1 + x2 * f_i(ctx, 1), d2 + x1 * f_i(ctx, 2)])
    pair = make_endomorphism(ctx, [x1, x2], [d1 + x1 * x1 * f_i(ctx, 1), d2])
    assert shear.validated and pair.validated
    return [identity_endomorphism(ctx), shear, compose(shear, pair), compose(pair, shear)]


def test_hat_step_equals_the_pbw_route_at_two_pairs(torus_only):
    r1, s1, r2, s2 = (CenterPoly.r(2, 1), CenterPoly.s(2, 1),
                      CenterPoly.r(2, 2), CenterPoly.s(2, 2))
    for e in _shear_maps():
        for level in (3, 5, 7):
            for p in (r1, s1, r2, s2, r1 * s2 + 2 * r2):
                assert hat_step(e, p, level) == _pbw_route(e, p, level), (level, p)


def test_central_power_equals_the_normal_ordered_power(rng):
    # random elements, central powers or not: x1*d1 = (f - 1)/(q - 1) has
    # (f - 1)^l, which is not central
    seen = set()
    for level in (2, 3, 4, 5, 6):
        for n in (1, 2):
            ctx = AlgebraContext.root_of_unity(n, level)
            elements = [random_element(rng, ctx, max_exp=2, degree_cap=3) for _ in range(4)]
            for a in elements + [ctx.x(1) * ctx.d(1), ctx.d(n) + ctx.x(1)]:
                if not a:
                    continue
                try:
                    want = theta_inverse(power(a, level))
                except NotCentralError:
                    want = None
                assert central_power(a) == want, (level, a)
                seen.add(want is None)
    assert seen == {True, False}


def test_torus_powers_equal_the_converted_normal_ordered_powers(rng):
    # every step of the chain, not only the l-th one, whose central part
    # alone would not see a twist q^(-s <b, c>) in place of q^(s <b, c>)
    for level in (5, 6):
        for n in (1, 2):
            ctx = AlgebraContext.root_of_unity(n, level)
            q_minus_1 = ctx.t_power(1) - ctx.one_scalar()
            elements = [random_element(rng, ctx, max_exp=2, degree_cap=3) for _ in range(3)]
            lifted = lift_phi(AlgebraContext.symbolic(1), {2: 1}).images_d[0]
            if n == 1:
                elements.append(specialize_element(lifted, level))
            for a in elements:
                if not a:
                    continue
                t = to_torus(a)
                for k, terms in torus_powers(t, range(1, 5)).items():
                    # terms are (q - 1)^(m k) a^k, and want's (q - 1)^m' a^k
                    want = to_torus(power(a, k))
                    assert ({key: c * q_minus_1 ** want.m for key, c in terms.items()}
                            == {key: c * q_minus_1 ** (t.m * k)
                                for key, c in want.terms.items()}), (a, k)


def test_the_side_with_fewer_terms_is_taken():
    ctx = AlgebraContext.symbolic(1)
    level = 7

    def side(e, x_image):
        img = (e.images_x if x_image else e.images_d)[0]
        return to_torus(specialize_element(img, level))

    # d + x^2 f = x^-1 (f - 1)/(q - 1) + x^2 f on the x side
    square = side(lift_phi(ctx, {2: 1}), False)
    assert square.x_side == (True,) and square.m == 1 and len(square.terms) == 3
    # d + 2f: the d side does not rewrite d at all
    two = side(lift_phi(ctx, {0: 2}), False)
    assert two.x_side == (False,) and two.m == 0
    assert two.terms == {((1,), (0,)): 1, ((0,), (1,)): 2}
    assert side(lift_psi(ctx, {2: 1}), True).x_side == (False,)
    # a tie takes x
    assert side(lift_phi(ctx, {0: 2}), True).x_side == (True,)


def test_torus_powers_of_a_two_term_image_stay_small():
    # d + 2f on the d side: (d + 2f)^k has at most k + 1 terms d^i f^j
    ctx = AlgebraContext.symbolic(1)
    level = 31
    image = specialize_element(lift_phi(ctx, {0: 2}).images_d[0], level)
    t = to_torus(image)
    powers = torus_powers(t, range(1, level + 1))
    for k, terms in powers.items():
        assert len(terms) <= k + 1, k
        assert all(a[0] >= 0 and a[0] + b[0] == k for a, b in terms)


def test_a_non_central_power_returns_the_pbw_reason():
    # a map that claims to be validated, with x1 -> x1 d1, whose l-th power
    # is not central: hat_step reads the reason off apply_endo's image
    level = 5
    ctx = AlgebraContext.root_of_unity(1, level)
    e = Endomorphism(ctx, [ctx.x(1) * ctx.d(1)], [ctx.d(1)], True, ())
    s1 = CenterPoly.s(1, 1)
    got = hat_step(e, s1, level)
    with pytest.raises(NotCentralError) as err:
        theta_inverse(apply_endo(e, theta(s1, level)))
    assert got == CentralityFailure(level, str(err.value))


def test_center_preservation_reads_the_torus(torus_only):
    for e in _lifts():
        for level in (3, 4, 5):
            assert check_center_preservation(e, level)


def test_inverse_one_minus_q_in_closed_form():
    for level in (2, 3, 4, 7, 9, 12, 30, 127):
        one_minus_q = Cyclo.one(level) - Cyclo.zeta(level)
        assert inverse_one_minus_q(level) == one_minus_q.inverse()
    for qpow in (1, 2, 3, 4):
        assert inverse_one_minus_q(5, qpow) * (Cyclo.one(5) - Cyclo.zeta(5, qpow)) == 1


def test_one_dim_rep_builds_where_the_inverse_is_refused():
    # 1 - q has two coordinates, so Cyclo.inverse would multiply phi(l) - 1
    # conjugates: refused from l = 509 on
    for level in (509, 1021):
        ctx = AlgebraContext.root_of_unity(1, level)
        start = time.perf_counter()
        e = one_dim_rep(ctx, [Fraction(1, 2)])
        assert time.perf_counter() - start < 2
        assert e.validated
        inv = e.images_d[0].scalar_value() * Fraction(1, 2)
        assert inv * (Cyclo.one(level) - Cyclo.zeta(level)) == 1


def test_r1_on_the_square_lift_at_level_53_in_process():
    ctx = AlgebraContext.symbolic(1)
    e_l = specialize_endomorphism(lift_phi(ctx, {2: 1}), 53)
    start = time.perf_counter()
    got = hat_step(e_l, CenterPoly.r(1, 1), 53)
    elapsed = time.perf_counter() - start
    q = Cyclo.zeta(53)
    assert got == (CenterPoly.r(1, 1) + CenterPoly.monomial(1, (0,), (2,))
                   + CenterPoly.monomial(1, (1,), (3,), -(Cyclo.one(53) - q) ** 53))
    assert elapsed < 1.5  # about 0.2 s on a 2-core machine; 1.3 s by the PBW route
