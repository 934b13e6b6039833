from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    Cyclo,
    DegreeLimitExceeded,
    LaurentPoly,
    UnvalidatedError,
    apply_endo,
    compose,
    f_element,
    identity_endomorphism,
    lift_phi,
    lift_psi,
    make_endomorphism,
    mul,
    one_dim_rep,
    specialize_element,
    specialize_endomorphism,
    validate,
)
from conftest import random_element


@pytest.fixture
def sym1():
    return AlgebraContext.symbolic(1)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_identity_validates(sym1):
    e = identity_endomorphism(sym1)
    assert e.validated and not e.violations


def test_translation_by_f_validates(sym1):
    e = make_endomorphism(sym1, [sym1.x(1)], [sym1.d(1) + f_element(sym1)])
    assert e.validated


def test_translation_by_x_fails_off_one(sym1):
    e = make_endomorphism(sym1, [sym1.x(1)], [sym1.d(1) + sym1.x(1)])
    assert not e.validated
    # residual of the defining relation: (1 - t) x^2
    assert len(e.violations) == 1
    name, residual = e.violations[0]
    assert residual == sym1.monomial((2,), (0,), LaurentPoly({0: 1, 1: -1}))
    # but the same map is valid in the classical algebra t = 1
    c1 = AlgebraContext.root_of_unity(1, 1)
    classical = make_endomorphism(c1, [c1.x(1)], [c1.d(1) + c1.x(1)])
    assert classical.validated


def test_translation_by_scalar_fails_off_one(sym1):
    e = make_endomorphism(sym1, [sym1.x(1)], [sym1.d(1) + sym1.one()])
    assert not e.validated
    _, residual = e.violations[0]
    assert residual == sym1.monomial((1,), (0,), LaurentPoly({0: 1, 1: -1}))


def test_validate_two_pairs():
    sym2 = AlgebraContext.symbolic(2)
    ok, violations = validate(
        [sym2.x(1), sym2.x(2)], [sym2.d(1), sym2.d(2)]
    )
    assert ok and not violations
    # swapping a pair still validates (relations are symmetric in the pairs)
    ok, _ = validate([sym2.x(2), sym2.x(1)], [sym2.d(2), sym2.d(1)])
    assert ok


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def test_apply_identity(sym1):
    e = identity_endomorphism(sym1)
    f = f_element(sym1)
    assert apply_endo(e, f) == f


def test_apply_translation_to_dx(sym1):
    e = make_endomorphism(sym1, [sym1.x(1)], [sym1.d(1) + f_element(sym1)])
    got = apply_endo(e, mul(sym1.d(1), sym1.x(1)))
    # (d + f)x = 1 + t x d + t x f, expanded by hand
    t = LaurentPoly.t_power(1)
    expected = (
        sym1.one()
        + sym1.monomial((1,), (1,), t)
        + mul(sym1.monomial((1,), (0,), t), f_element(sym1))
    )
    assert got == expected


def test_apply_respects_relation(sym1):
    e = make_endomorphism(sym1, [sym1.x(1)], [sym1.d(1) + f_element(sym1)])
    rel = mul(sym1.d(1), sym1.x(1)) - mul(sym1.x(1), sym1.d(1)).scale(LaurentPoly.t_power(1))
    assert apply_endo(e, rel) == sym1.one()


def test_apply_is_ring_hom(rng, sym1):
    e = lift_phi(sym1, {1: 1})
    for _ in range(6):
        a = random_element(rng, sym1, max_terms=3, degree_cap=3)
        b = random_element(rng, sym1, max_terms=3, degree_cap=3)
        assert apply_endo(e, mul(a, b)) == mul(apply_endo(e, a), apply_endo(e, b))


def test_apply_requires_validation(sym1):
    bad = make_endomorphism(sym1, [sym1.x(1)], [sym1.d(1) + sym1.x(1)])
    with pytest.raises(UnvalidatedError):
        apply_endo(bad, sym1.x(1))


def test_degree_guard(sym1, monkeypatch):
    e = lift_phi(sym1, {2: 1})  # d-image has degree 4
    big = sym1.monomial((0,), (200,))
    with pytest.raises(DegreeLimitExceeded):
        apply_endo(e, big)
    small = sym1.monomial((0,), (3,))
    monkeypatch.setenv("QWEYL_MAX_DEGREE", "8")
    with pytest.raises(DegreeLimitExceeded):
        apply_endo(e, small)
    monkeypatch.setenv("QWEYL_MAX_DEGREE", "12")
    assert apply_endo(e, small)  # the raised guard computes


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_with_identity(sym1):
    e = lift_phi(sym1, {1: 1})
    i = identity_endomorphism(sym1)
    assert compose(i, e) == e
    assert compose(e, i) == e


def test_compose_half_translations(sym1):
    half = lift_phi(sym1, {0: Fraction(1, 2)})
    squared = compose(half, half)
    f = f_element(sym1)
    expected_d = sym1.d(1) + f.scale(Fraction(1, 2)) + apply_endo(half, f).scale(Fraction(1, 2))
    assert squared.images_d[0] == expected_d
    assert squared.images_x[0] == sym1.x(1)


def test_compose_associative(rng, sym1):
    es = [lift_phi(sym1, {m: 1}) for m in (0, 1)] + [lift_psi(sym1, {1: 1})]
    for a in es:
        for b in es:
            for c in es:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_character_level_two():
    ctx = AlgebraContext.root_of_unity(1, 2)
    e = one_dim_rep(ctx, [1])
    assert e.validated
    assert e.images_x[0] == ctx.one()
    assert e.images_d[0] == ctx.scalar_element(Fraction(1, 2))


def test_character_level_three_at_zeta():
    ctx = AlgebraContext.root_of_unity(1, 3)
    e = one_dim_rep(ctx, [Cyclo.zeta(3)])
    assert e.validated


def test_character_rejects_zero():
    ctx = AlgebraContext.root_of_unity(1, 3)
    with pytest.raises(ValueError):
        one_dim_rep(ctx, [0])


def test_character_kills_witness():
    # the kernel visibly contains d - (1-q)^(-1) a^(-1)
    ctx = AlgebraContext.root_of_unity(1, 3)
    e = one_dim_rep(ctx, [2])
    q = Cyclo.zeta(3)
    witness = ctx.d(1) - ctx.scalar_element(
        (Cyclo.one(3) - q).inverse() * Fraction(1, 2)
    )
    assert not apply_endo(e, witness)
    assert apply_endo(e, ctx.x(1))  # but not everything dies


# ---------------------------------------------------------------------------
# canonical lifts
# ---------------------------------------------------------------------------


def test_lift_phi_constant(sym1):
    e = lift_phi(sym1, {0: 1})
    assert e.images_x[0] == sym1.x(1)
    assert e.images_d[0] == sym1.d(1) + f_element(sym1)
    assert e.validated


def test_lift_phi_monomial(sym1):
    lam = Fraction(2)
    e = lift_phi(sym1, {3: lam})
    expected = sym1.d(1) + mul(sym1.monomial((3,), (0,), lam), f_element(sym1))
    assert e.images_d[0] == expected


def test_lift_psi(sym1):
    e = lift_psi(sym1, {1: 1})
    assert e.images_x[0] == sym1.x(1) + mul(f_element(sym1), sym1.d(1))
    assert e.images_d[0] == sym1.d(1)
    assert e.validated


def test_lifts_specialize_to_classical_translations(sym1):
    # at t = 1 the f-factor collapses to 1 and the lifts become the
    # translations they cover
    e = lift_phi(sym1, {2: 1})
    at_one = specialize_endomorphism(e, 1)
    c1 = at_one.context
    assert at_one.images_d[0] == c1.d(1) + c1.monomial((2,), (0,))
    g = lift_psi(sym1, {1: Fraction(1, 2)})
    g_at_one = specialize_endomorphism(g, 1)
    assert g_at_one.images_x[0] == c1.x(1) + c1.monomial((0,), (1,), Fraction(1, 2))


def test_two_lifts_of_identity(sym1):
    # Id and x -> x, d -> d + (t-1) f both specialize to Id at t = 1
    t_minus_1 = LaurentPoly({1: 1, 0: -1})
    e = make_endomorphism(
        sym1, [sym1.x(1)], [sym1.d(1) + f_element(sym1).scale(t_minus_1)]
    )
    assert e.validated
    i = identity_endomorphism(sym1)
    assert lift_phi(sym1, {}) == i  # the zero-polynomial lift is the identity
    assert e != i
    assert specialize_endomorphism(e, 1) == specialize_endomorphism(i, 1)


def test_specialization_commutes_with_application(rng, sym1):
    e = lift_phi(sym1, {1: 1})
    for level in (2, 3, 5):
        e_l = specialize_endomorphism(e, level)
        assert e_l.validated
        for _ in range(5):
            a = random_element(rng, sym1, max_terms=3, degree_cap=3)
            assert specialize_element(apply_endo(e, a), level) == apply_endo(
                e_l, specialize_element(a, level)
            )
