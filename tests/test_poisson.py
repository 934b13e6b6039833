import math
import random
from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    DivisionFailureError,
    Jet,
    LaurentPoly,
    NotCentralError,
    PoissonContext,
    bracket_of_lifts,
    cyclotomic_polynomial,
    embed,
    is_central,
    lift,
    mul,
    poisson_bracket,
    qint,
    specialize,
    standard_bracket,
    theta,
    transported_bracket,
)
from qweyl.scalars import euler_phi


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
        hq = evaluate(exact_div(qint(level).coeffs, q), q)
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


def _at_root(a):
    """A first-order expansion read at its own root, principal or not:
    each coefficient's value there (Jet.at_root)."""
    ctx = a.context
    return AlgebraContext.root_of_unity(ctx.n, ctx.level, ctx.qpow).from_terms(
        {k: c.at_root(ctx.qpow)[0] for k, c in a.terms.items()})


def test_lift_is_a_section():
    rng = random.Random(3)
    for level, qpow in ((2, 1), (3, 1), (5, 1), (5, 2)):
        ctx = AlgebraContext.root_of_unity(1, level, qpow)
        for _ in range(6):
            a = _random_central(rng, ctx)
            assert _at_root(lift(a)) == a


def test_lift_examples():
    ctx = AlgebraContext.root_of_unity(1, 3)
    a = ctx.monomial((3,), (0,))
    la = lift(a)
    assert la.context.kind == "jet"
    assert _at_root(la) == a
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
        # Phi_l(t) and t^l - 1 vanish at q, so they change a lift but not
        # its value
        vanishing = [Jet(level, cyclotomic_polynomial(level)), Jet.t_power(level, level) - 1]
        for _ in range(6):
            P = _random_central(rng, ctx)
            Q = _random_central(rng, ctx)
            br = poisson_bracket(P, Q)
            junk = lift(ctx.from_terms({
                ((rng.randint(0, 3),), (rng.randint(0, 3),)): Fraction(rng.randint(-3, 3))
            }))
            for eps in vanishing:
                assert bracket_of_lifts(lift(P) + junk.scale(eps), lift(Q)) == br
                assert bracket_of_lifts(lift(P), lift(Q) + junk.scale(eps)) == br


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
# by (t - q), specialization, and scaling -- cross-checks the production path.
# Its Laurent polynomials have cyclotomic coefficients, so they are plain
# {exponent: coefficient} maps with no zero coefficient.
# ---------------------------------------------------------------------------


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact leaves a remainder."""


def exact_div(p, root):
    """Exact quotient p / (t - root) of a Laurent map; raises unless p vanishes at root.

    root must be invertible (a root of unity here), so the Laurent case is
    ordinary synthetic division after factoring out the lowest power of t.
    """
    if not p:
        return {}
    lo = min(p)
    dense = [p.get(e, 0) for e in range(lo, max(p) + 1)]
    quot = [None] * (len(dense) - 1)
    carry = dense[-1]
    for k in range(len(dense) - 2, -1, -1):
        quot[k] = carry
        carry = dense[k] + root * carry
    if carry:
        raise ExactDivisionError("polynomial does not vanish at the given root")
    return {lo + k: c for k, c in enumerate(quot) if c}


def times(a, b):
    """Product of two Laurent maps."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def evaluate(p, root):
    """Value of a Laurent map at a root of unity."""
    return sum((c * root ** e for e, c in p.items()), Cyclo.zero(root.level))


def test_exact_div_simple_factorization():
    p = {2: 1, 0: -1}     # t^2 - 1
    root = Cyclo.zeta(2)  # -1
    assert exact_div(p, root) == {1: 1, 0: -1}


def test_exact_div_of_quantum_integer():
    for level in range(2, 10):
        z = Cyclo.zeta(level)
        h = exact_div(qint(level).coeffs, z)
        assert evaluate(h, z)  # the root is simple


def test_exact_div_zero_and_errors():
    assert exact_div({}, Cyclo.zeta(3)) == {}
    with pytest.raises(ExactDivisionError):
        exact_div({0: 1}, Cyclo.zeta(3))


def test_exact_div_recomposes():
    rng = random.Random(19)
    for level in (2, 3, 5):
        z = Cyclo.zeta(level)
        t_minus_z = {1: Cyclo.one(level), 0: -z}
        for _ in range(10):
            g = {rng.randint(-2, 4): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            p = times(g, t_minus_z)
            assert times(exact_div(p, z), t_minus_z) == p


def test_exact_div_laurent_support():
    # negative exponents: p = t^-1 (t - zeta3) * (t - zeta3)... built directly
    z = Cyclo.zeta(3)
    g = {-2: Cyclo.one(3), 1: z}
    t_minus_z = {1: Cyclo.one(3), 0: -z}
    p = times(g, t_minus_z)
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
        quotient = exact_div(laurent.coeffs, root)  # raises unless it vanishes at q
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


# ---------------------------------------------------------------------------
# oracle from the generic algebra: the bracket is lambda_q times the
# derivative at q of the commutator of rational Laurent lifts
# ---------------------------------------------------------------------------


def _laurent_lift(a, sym):
    """a with each coefficient sum_k c_k zeta^k lifted to the Laurent
    polynomial sum_k c_k t^(k / qpow mod l) over Q, whose value at
    q = zeta^qpow it is."""
    level = a.context.level
    inv = pow(a.context.qpow, -1, level)
    return sym.from_terms({
        key: LaurentPoly({k * inv % level: Fraction(v, c.den) for k, v in enumerate(c.num)})
        for key, c in a.terms.items()
    })


def _bracket_by_derivative(p, q):
    """lambda_q w'(q) for each coefficient w of the commutator of the
    lifts, which must vanish at q; [l]! and Jet take no part."""
    from qweyl import WeylElement
    from qweyl.poisson import _poisson_context

    ctx = p.context
    level, qpow = ctx.level, ctx.qpow
    sym = AlgebraContext.symbolic(ctx.n)
    lp, lq = _laurent_lift(p, sym), _laurent_lift(q, sym)
    lam = _poisson_context(level, qpow).lam
    out = {}
    for key, w in (mul(lp, lq) - mul(lq, lp)).terms.items():
        assert not specialize(w, level, qpow)
        slope = LaurentPoly({e - 1: e * c for e, c in w.coeffs.items()})
        out[key] = lam * specialize(slope, level, qpow)
    return WeylElement(ctx, out)


def _central_with_cyclotomic_coefficients(rng, ctx):
    """Two or three monomials x_i^(l a) d_j^(l b), a and b 0 or 1, with
    coefficients that are not rational."""
    n, level = ctx.n, ctx.level
    out = ctx.zero()
    for _ in range(rng.randint(2, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        al = tuple(level * rng.randint(0, 1) * (k == i) for k in range(n))
        be = tuple(level * rng.randint(0, 1) * (k == j) for k in range(n))
        c = Cyclo(level, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(euler_phi(level))])
        out = out + ctx.monomial(al, be, c)
    return out


@pytest.mark.parametrize("level", range(2, 8))
def test_bracket_matches_the_derivative_of_the_generic_commutator(level):
    rng = random.Random(level)
    for qpow in range(1, level):
        if math.gcd(qpow, level) != 1:
            continue
        for n in (1, 2):
            ctx = AlgebraContext.root_of_unity(n, level, qpow)
            # x1^l and d1^l make the bracket nonzero
            unit, zero = (level,) + (0,) * (n - 1), (0,) * n
            p = _central_with_cyclotomic_coefficients(rng, ctx) + ctx.monomial(unit, zero)
            q = _central_with_cyclotomic_coefficients(rng, ctx) + ctx.monomial(zero, unit)
            br = poisson_bracket(p, q)
            assert br and br == _bracket_by_derivative(p, q)
