from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    DegreeLimitExceeded,
    Endomorphism,
    LaurentPoly,
    UnvalidatedError,
    apply_endo,
    compose,
    f_element,
    lift_phi,
    lift_psi,
    make_endomorphism,
    mul,
    specialize_element,
    specialize_endomorphism,
    validate,
)
from qweyl import morphisms, weylcore
from conftest import identity_endomorphism, random_element


@pytest.fixture
def sym1():
    return AlgebraContext.symbolic(1)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_identity_validates(sym1):
    e = identity_endomorphism(sym1)
    assert validate(e.images_x, e.images_d) == (True, [])


def test_translation_by_f_validates(sym1):
    e = make_endomorphism(sym1, [sym1.x(1)], [sym1.d(1) + f_element(sym1)])
    assert validate(e.images_x, e.images_d) == (True, [])


def test_translation_by_x_fails_off_one(sym1):
    images = [sym1.x(1)], [sym1.d(1) + sym1.x(1)]
    with pytest.raises(UnvalidatedError, match=r"d1\*x1 relation"):
        make_endomorphism(sym1, *images)
    # residual of the defining relation: (1 - t) x^2
    ok, violations = validate(*images)
    assert not ok and len(violations) == 1
    name, residual = violations[0]
    assert name == "d1*x1 relation"
    assert residual == sym1.monomial((2,), (0,), LaurentPoly({0: 1, 1: -1}))
    # but the same map is built in the classical algebra t = 1
    c1 = AlgebraContext.root_of_unity(1, 1)
    classical = make_endomorphism(c1, [c1.x(1)], [c1.d(1) + c1.x(1)])
    assert apply_endo(classical, c1.d(1)) == c1.d(1) + c1.x(1)


def test_translation_by_scalar_fails_off_one(sym1):
    images = [sym1.x(1)], [sym1.d(1) + sym1.one()]
    with pytest.raises(UnvalidatedError, match=r"d1\*x1 relation"):
        make_endomorphism(sym1, *images)
    _, violations = validate(*images)
    _, residual = violations[0]
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


def test_apply_requires_validation():
    # apply_endo takes no invalid map, since none is built: at n = 2, d2 ->
    # d2 + x1 breaks the d2*x2 relation and the d1*d2 commutation, and the
    # refusal names the first of them
    sym2 = AlgebraContext.symbolic(2)
    images = [sym2.x(1), sym2.x(2)], [sym2.d(1), sym2.d(2) + sym2.x(1)]
    with pytest.raises(UnvalidatedError, match=r"the images violate the d2\*x2 relation$"):
        make_endomorphism(sym2, *images)
    ok, violations = validate(*images)
    assert not ok
    assert [name for name, _ in violations] == ["d2*x2 relation", "d1*d2 commutation"]


def test_degree_guard(sym1):
    e = lift_phi(sym1, {2: 1})  # d-image has degree 4
    big = sym1.monomial((0,), (200,))
    with pytest.raises(DegreeLimitExceeded):
        apply_endo(e, big)
    # the guard is 512, whatever the environment
    identity = identity_endomorphism(sym1)
    at_guard = sym1.monomial((512,), (0,))
    assert apply_endo(identity, at_guard) == at_guard
    with pytest.raises(DegreeLimitExceeded, match="substituted degree 513 exceeds the guard 512"):
        apply_endo(identity, sym1.monomial((513,), (0,)))


def test_apply_guards_every_power_before_any_product(sym1, monkeypatch):
    # the image of d1 raised to the 50th is over the cost guard, as power
    # refuses it; the image of x1, whose square needs a product, is guarded
    # first but not raised, since no product runs before every image passes
    base = sym1.d(1) + sym1.x(1)
    e = Endomorphism(sym1, [base], [base])

    def no_product(*args):
        raise AssertionError("apply_endo multiplied before its guards passed")

    monkeypatch.setattr(weylcore, "mul", no_product)
    monkeypatch.setattr(morphisms, "mul", no_product)
    refusal = "^power of estimated cost [0-9]+ exceeds the guard 25000000$"
    with pytest.raises(DegreeLimitExceeded, match=refusal):
        apply_endo(e, sym1.monomial((2,), (50,)))


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
# canonical lifts
# ---------------------------------------------------------------------------


def test_lift_phi_constant(sym1):
    e = lift_phi(sym1, {0: 1})
    assert e.images_x[0] == sym1.x(1)
    assert e.images_d[0] == sym1.d(1) + f_element(sym1)


def test_lift_phi_monomial(sym1):
    lam = Fraction(2)
    e = lift_phi(sym1, {3: lam})
    expected = sym1.d(1) + mul(sym1.monomial((3,), (0,), lam), f_element(sym1))
    assert e.images_d[0] == expected


def test_lift_psi(sym1):
    e = lift_psi(sym1, {1: 1})
    assert e.images_x[0] == sym1.x(1) + mul(f_element(sym1), sym1.d(1))
    assert e.images_d[0] == sym1.d(1)


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
    i = identity_endomorphism(sym1)
    assert lift_phi(sym1, {}) == i  # the zero-polynomial lift is the identity
    assert e != i
    assert specialize_endomorphism(e, 1) == specialize_endomorphism(i, 1)


def test_specialization_commutes_with_application(rng, sym1):
    e = lift_phi(sym1, {1: 1})
    for level in (2, 3, 5):
        e_l = specialize_endomorphism(e, level)
        assert validate(e_l.images_x, e_l.images_d) == (True, [])
        for _ in range(5):
            a = random_element(rng, sym1, max_terms=3, degree_cap=3)
            assert specialize_element(apply_endo(e, a), level) == apply_endo(
                e_l, specialize_element(a, level)
            )
