import random
from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    DivisionFailureError,
    ExactDivisionError,
    Jet,
    LaurentPoly,
    NotCentralError,
    PoissonContext,
    bracket_of_lifts,
    embed,
    is_central,
    lift,
    mul,
    poisson_bracket,
    qint,
    specialize,
    specialize_element,
    standard_bracket,
    theta,
    transported_bracket,
)


def _random_central(rng, ctx, max_terms=3):
    n, level = ctx.n, ctx.level
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        a = tuple(rng.randint(0, 1) for _ in range(n))
        b = tuple(rng.randint(0, 1) for _ in range(n))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            coeffs[(a, b)] = c
    p = CenterPoly(n, coeffs)
    if not p:
        p = CenterPoly.constant(n, 1)
    return theta(p, level, ctx.qpow)


def _sr_coefficient(level):
    q = Cyclo.zeta(level)
    fact = Cyclo.one(level)
    for k in range(1, level):
        fact = fact * specialize(qint(k), level)
    return (level * (q - Cyclo.one(level))) * fact.inverse()


# ---------------------------------------------------------------------------
# the normalizer
# ---------------------------------------------------------------------------


def test_lambda_at_level_two_is_one():
    pc = PoissonContext(2)
    assert pc.lam == Cyclo.one(2)


def test_lambda_is_always_nonzero():
    for level in range(2, 13):
        assert PoissonContext(level).lam


def test_lambda_matches_division_route():
    # lambda_q = 1 / (h(q) [l-1]_q!) with h = [l]_t / (t - q), divided exactly
    cases = [(level, qpow) for level in (2, 3, 5, 6, 12, 23, 31) for qpow in (1, level - 1)]
    for level, qpow in cases + [(5, 2), (7, 3)]:
        q = Cyclo.zeta(level, qpow)
        hq = evaluate(exact_div(qint(level), q), q)
        fact = Cyclo.one(level)
        for k in range(1, level):
            fact = fact * specialize(qint(k), level, qpow)
        assert PoissonContext(level, qpow).lam == (hq * fact).inverse()


@pytest.mark.parametrize("level, qpow", [(6, 2), (4, 2), (5, 0), (5, 5)])
def test_non_primitive_root_is_rejected(level, qpow):
    with pytest.raises(ValueError, match="coprime"):
        PoissonContext(level, qpow)


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def test_lift_is_a_section():
    # a first-order expansion specializes at its own root, principal or not
    rng = random.Random(3)
    for level, qpow in ((2, 1), (3, 1), (5, 1), (5, 2)):
        ctx = AlgebraContext.root_of_unity(1, level, qpow)
        for _ in range(6):
            a = _random_central(rng, ctx)
            assert specialize_element(lift(a), level) == a


def test_lift_examples():
    ctx = AlgebraContext.root_of_unity(1, 3)
    a = ctx.monomial((3,), (0,))
    la = lift(a)
    assert la.context.kind == "jet"
    assert specialize_element(la, 3) == a
    assert lift(ctx.zero()) == la.context.zero()


# ---------------------------------------------------------------------------
# the divided-commutator bracket
# ---------------------------------------------------------------------------


def test_bracket_closed_form_all_levels():
    # 2..12, then every prime level of the transport schedule above 11
    for level in (*range(2, 13), 13, 17, 19, 23, 29, 31):
        ctx = AlgebraContext.root_of_unity(1, level)
        br = poisson_bracket(ctx.monomial((0,), (level,)), ctx.monomial((level,), (0,)))
        expected = ctx.one() + ctx.monomial((level,), (level,), _sr_coefficient(level))
        assert br == expected


def test_bracket_level_two_value():
    ctx = AlgebraContext.root_of_unity(1, 2)
    br = poisson_bracket(ctx.monomial((0,), (2,)), ctx.monomial((2,), (0,)))
    assert br == ctx.one() - ctx.monomial((2,), (2,), 4)


def test_bracket_closed_form_second_index():
    ctx = AlgebraContext.root_of_unity(2, 3)
    br = poisson_bracket(ctx.monomial((0, 0), (0, 3)), ctx.monomial((0, 3), (0, 0)))
    assert br == ctx.one() + ctx.monomial((0, 3), (0, 3), _sr_coefficient(3))
    # mixed-index pairs bracket to zero
    assert not poisson_bracket(ctx.monomial((0, 0), (3, 0)), ctx.monomial((0, 3), (0, 0)))


def test_bracket_with_self_vanishes():
    ctx = AlgebraContext.root_of_unity(1, 3)
    p = theta(CenterPoly.r(1, 1) + CenterPoly.s(1, 1), 3)
    assert not poisson_bracket(p, p)


def test_bracket_rejects_non_central():
    ctx = AlgebraContext.root_of_unity(1, 3)
    with pytest.raises(NotCentralError):
        poisson_bracket(ctx.x(1), ctx.monomial((3,), (0,)))


def test_bracket_axioms_random(rng):
    for level in (2, 3, 5):
        ctx = AlgebraContext.root_of_unity(1, level)
        for _ in range(8):
            P = _random_central(rng, ctx)
            Q = _random_central(rng, ctx)
            R = _random_central(rng, ctx)
            br = poisson_bracket(P, Q)
            assert poisson_bracket(Q, P) == -br
            assert is_central(br)
            assert poisson_bracket(P + R, Q) == br + poisson_bracket(R, Q)
            assert poisson_bracket(P, mul(Q, R)) == mul(br, R) + mul(Q, poisson_bracket(P, R))
            jacobi = (
                poisson_bracket(P, poisson_bracket(Q, R))
                + poisson_bracket(Q, poisson_bracket(R, P))
                + poisson_bracket(R, poisson_bracket(P, Q))
            )
            assert not jacobi


def test_bracket_independent_of_lift(rng):
    for level in (2, 3, 5):
        ctx = AlgebraContext.root_of_unity(1, level)
        eps = Jet(Cyclo.zero(level), Cyclo.one(level))
        for _ in range(6):
            P = _random_central(rng, ctx)
            Q = _random_central(rng, ctx)
            br = poisson_bracket(P, Q)
            junk = lift(ctx.from_terms({
                ((rng.randint(0, 3),), (rng.randint(0, 3),)): Fraction(rng.randint(-3, 3))
            })).scale(eps)
            assert bracket_of_lifts(lift(P) + junk, lift(Q)) == br
            assert bracket_of_lifts(lift(P), lift(Q) + junk) == br


def test_bracket_of_bad_lifts_raises():
    ctx = AlgebraContext.root_of_unity(1, 3)
    # lifts of non-central elements leave a nonzero value at the root
    with pytest.raises(DivisionFailureError):
        bracket_of_lifts(lift(ctx.x(1)), lift(ctx.d(1)))


def test_degeneracy_witness():
    # the sr-coefficient is nonzero at every level: the bracket never equals
    # the flat one with invertible Poisson matrix
    for level in range(2, 13):
        assert _sr_coefficient(level)


def test_embedded_magnitude_decreasing_over_primes():
    mags = [abs(embed(_sr_coefficient(level))) for level in (5, 7, 11, 13)]
    assert all(a > b for a, b in zip(mags, mags[1:]))


# ---------------------------------------------------------------------------
# the standard bracket and transport
# ---------------------------------------------------------------------------


def test_standard_bracket_pairings():
    r1, s1 = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    assert standard_bracket(r1, s1) == CenterPoly.constant(1, 1)
    r1n, r2n = CenterPoly.r(2, 1), CenterPoly.r(2, 2)
    s1n, s2n = CenterPoly.s(2, 1), CenterPoly.s(2, 2)
    assert not standard_bracket(r1n, r2n)
    assert not standard_bracket(s1n, s2n)
    assert not standard_bracket(r1n, s2n)
    assert standard_bracket(r1n * s1n, s1n) == s1n


def test_standard_bracket_axioms(rng):
    for _ in range(15):
        n = rng.choice((1, 2))
        P = _rand_center(rng, n)
        Q = _rand_center(rng, n)
        R = _rand_center(rng, n)
        assert standard_bracket(P, Q) == -standard_bracket(Q, P)
        assert standard_bracket(P, Q * R) == standard_bracket(P, Q) * R + Q * standard_bracket(P, R)
        jac = (
            standard_bracket(P, standard_bracket(Q, R))
            + standard_bracket(Q, standard_bracket(R, P))
            + standard_bracket(R, standard_bracket(P, Q))
        )
        assert not jac


def _rand_center(rng, n):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        a = tuple(rng.randint(0, 2) for _ in range(n))
        b = tuple(rng.randint(0, 2) for _ in range(n))
        c = Fraction(rng.randint(-3, 3))
        if c:
            coeffs[(a, b)] = c
    p = CenterPoly(n, coeffs)
    return p if p else CenterPoly.constant(n, 1)


def test_transported_bracket_level_two():
    got = transported_bracket(CenterPoly.r(1, 1), CenterPoly.s(1, 1), 2)
    expected = CenterPoly.constant(1, 1) + CenterPoly.monomial(1, (1,), (1,), -4)
    assert got == expected


def test_transported_bracket_trivial_pairs():
    assert not transported_bracket(CenterPoly.r(1, 1), CenterPoly.r(1, 1), 3)
    assert not transported_bracket(CenterPoly.r(2, 1), CenterPoly.s(2, 2), 3)
    assert not transported_bracket(CenterPoly.r(2, 1), CenterPoly.r(2, 2), 3)


# ---------------------------------------------------------------------------
# reference route: commutator over symbolic t, coefficientwise exact division
# by (t - q), specialization, and scaling -- cross-checks the production path
# ---------------------------------------------------------------------------


def exact_div(p, root):
    """Exact quotient p / (t - root) of a LaurentPoly; raises unless p vanishes at root.

    root must be invertible (a root of unity here), so the Laurent case is
    ordinary synthetic division after factoring out the lowest power of t.
    """
    if not p:
        return LaurentPoly.zero()
    lo = p.min_exponent()
    dense = [p.coeffs.get(e, 0) for e in range(lo, p.max_exponent() + 1)]
    quot = [None] * (len(dense) - 1)
    carry = dense[-1]
    for k in range(len(dense) - 2, -1, -1):
        quot[k] = carry
        carry = dense[k] + root * carry
    if carry:
        raise ExactDivisionError("polynomial does not vanish at the given root")
    return LaurentPoly({lo + k: c for k, c in enumerate(quot)})


def evaluate(p, root):
    """Value of a LaurentPoly at a root of unity."""
    return sum((c * root ** e for e, c in p.coeffs.items()), Cyclo.zero(root.level))


def test_exact_div_simple_factorization():
    p = LaurentPoly({2: 1, 0: -1})  # t^2 - 1
    root = Cyclo.zeta(2)            # -1
    assert exact_div(p, root) == LaurentPoly({1: 1, 0: -1})


def test_exact_div_of_quantum_integer():
    for level in range(2, 10):
        z = Cyclo.zeta(level)
        h = exact_div(qint(level), z)
        assert evaluate(h, z)  # the root is simple


def test_exact_div_zero_and_errors():
    assert exact_div(LaurentPoly.zero(), Cyclo.zeta(3)) == LaurentPoly.zero()
    with pytest.raises(ExactDivisionError):
        exact_div(LaurentPoly.one(), Cyclo.zeta(3))


def test_exact_div_recomposes():
    rng = random.Random(19)
    for level in (2, 3, 5):
        z = Cyclo.zeta(level)
        t_minus_z = LaurentPoly({1: Cyclo.one(level), 0: -z})
        for _ in range(10):
            g = LaurentPoly({rng.randint(-2, 4): Fraction(rng.randint(-3, 3)) for _ in range(3)})
            p = g * t_minus_z
            assert exact_div(p, z) * t_minus_z == p


def test_exact_div_laurent_support():
    # negative exponents: p = t^-1 (t - zeta3) * (t - zeta3)... built directly
    z = Cyclo.zeta(3)
    g = LaurentPoly({-2: Cyclo.one(3), 1: z})
    t_minus_z = LaurentPoly({1: Cyclo.one(3), 0: -z})
    p = g * t_minus_z
    assert exact_div(p, z) == g


def _bracket_reference(p_center, q_center, level, qpow=1):
    from qweyl import WeylElement, specialize_element
    from qweyl.poisson import _poisson_context

    n = p_center.n
    sym = AlgebraContext.symbolic(n)
    root = Cyclo.zeta(level, qpow)
    ctx = AlgebraContext.root_of_unity(n, level, qpow)
    lift_p = theta_symbolic(p_center, sym, level)
    lift_q = theta_symbolic(q_center, sym, level)
    comm = mul(lift_p, lift_q) - mul(lift_q, lift_p)
    lam = _poisson_context(level, qpow).lam
    out = {}
    for key, laurent in comm.terms.items():
        quotient = exact_div(laurent, root)  # raises unless it vanishes at q
        value = lam * evaluate(quotient, root)
        if value:
            out[key] = value
    return WeylElement(ctx, out)


def theta_symbolic(p_center, sym, level):
    """t-constant lift of the center substitution, over rational coefficients."""
    terms = {}
    for (a, b), c in p_center.coeffs.items():
        alpha = tuple(level * e for e in b)
        beta = tuple(level * e for e in a)
        terms[(alpha, beta)] = c
    return sym.from_terms(terms)


def test_bracket_matches_reference_route(rng):
    for level, qpow in ((2, 1), (3, 1), (5, 1), (5, 2), (7, 3)):
        for _ in range(4):
            p = _rand_center(rng, 1)
            q = _rand_center(rng, 1)
            fast = transported_bracket(p, q, level, qpow)
            reference = _bracket_reference(p, q, level, qpow)
            assert theta(fast, level, qpow) == reference


def test_bracket_at_non_principal_roots():
    # the closed form holds at every primitive root
    for level, qpow in ((5, 2), (5, 3), (7, 5)):
        ctx = AlgebraContext.root_of_unity(1, level, qpow)
        q = Cyclo.zeta(level, qpow)
        fact = Cyclo.one(level)
        for k in range(1, level):
            fact = fact * specialize(qint(k), level, qpow)
        coef = (level * (q - Cyclo.one(level))) * fact.inverse()
        br = poisson_bracket(ctx.monomial((0,), (level,)), ctx.monomial((level,), (0,)))
        assert br == ctx.one() + ctx.monomial((level,), (level,), coef)
