import math
import random
import time
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl.scalars import (
    MAX_LEVEL,
    Cyclo,
    Jet,
    LaurentPoly,
    _CYCLO_CACHE,
    _conv,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    qint,
    specialize,
)
from qweyl.center import CenterPoly
from qweyl.weylcore import AlgebraContext, power


# ---------------------------------------------------------------------------
# integer convolution (every Cyclo product runs through it)
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=-(10 ** 24), max_value=10 ** 24), min_size=1, max_size=40),
    st.lists(st.integers(min_value=-(10 ** 24), max_value=10 ** 24), min_size=1, max_size=40),
)
@settings(max_examples=120, deadline=None)
def test_conv_backends_agree(a, b):
    expected = [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]
    assert _conv(a, b) == expected


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------


def test_cyclotomic_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for p in (5, 7, 11, 13):
        assert cyclotomic_polynomial(p) == (1,) * p


def test_cyclotomic_degree_is_totient():
    def phi(m):
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

    for level in range(1, 31):
        assert euler_phi(level) == phi(level)
    # the largest level with tables, 2^16, and the first one refused
    assert euler_phi(MAX_LEVEL) == MAX_LEVEL // 2
    with pytest.raises(ValueError, match="level 65537 exceeds the level bound 65536"):
        cyclotomic_polynomial(MAX_LEVEL + 1)


def _poly_div_exact_int(num, den):
    """Quotient of integer polynomials; den must be monic and divide num."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            out[k - dd] = c
            for j, dj in enumerate(den):
                num[k - dd + j] -= c * dj
    assert not any(num), "non-exact integer polynomial division"
    return out


def _cyclotomic_by_division(level, table):
    """The reference route: t^level - 1 divided by Phi_d for every proper
    divisor d of the level, memoized in table."""
    if level not in table:
        quot = [-1] + [0] * (level - 1) + [1]
        for d in range(1, level):
            if level % d == 0:
                quot = _poly_div_exact_int(quot, _cyclotomic_by_division(d, table))
        table[level] = tuple(quot)
    return table[level]


def test_cyclotomic_polynomial_matches_the_division_route():
    table = {}
    for level in range(1, 301):
        assert cyclotomic_polynomial(level) == _cyclotomic_by_division(level, table)


def test_cyclotomic_polynomial_of_a_high_level_is_fast():
    # 30030 = 2*3*5*7*11*13: the division route divides by 63 polynomials,
    # each step linear in the level
    _CYCLO_CACHE.pop(30030, None)
    began = time.perf_counter()
    poly = cyclotomic_polynomial(30030)
    assert time.perf_counter() - began < 1
    assert len(poly) == 5761 and poly[0] == poly[-1] == 1


def test_zeta_primitivity():
    for level in (2, 3, 4, 5, 6, 8, 12):
        z = Cyclo.zeta(level)
        acc = Cyclo.one(level)
        for k in range(1, level):
            acc = acc * z
            assert acc != 1, (level, k)
        assert acc * z == 1


# ---------------------------------------------------------------------------
# cyclotomic field arithmetic
# ---------------------------------------------------------------------------


def test_cyclo_field_axioms_random():
    rng = random.Random(7)
    for level in (1, 2, 3, 4, 5, 8, 12, 15, 23, 31):
        d = euler_phi(level)
        for _ in range(25):
            a = Cyclo(level, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)])
            b = Cyclo(level, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)])
            c = Cyclo(level, [rng.randint(-5, 5) for _ in range(d)])
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * a.inverse() == 1
                assert (a * b) / a == b


def _powering_cases():
    cyclo = Cyclo(7, [1, Fraction(-1, 3), 0, 2])
    jet = Jet(Cyclo(5, [Fraction(1, 2), 1]), Cyclo(5, [0, 2, 0, -1]))
    monomial = LaurentPoly({3: Fraction(-2, 3)})
    ctx = AlgebraContext.symbolic(1)
    return [
        pytest.param(cyclo, Cyclo.one(7), cyclo.inverse(), id="cyclo"),
        pytest.param(jet, Jet(Cyclo.one(5), Cyclo.zero(5)), jet.inverse(), id="jet"),
        pytest.param(LaurentPoly({-1: 2, 0: Fraction(1, 3), 2: -1}), LaurentPoly.one(), None,
                     id="laurent"),
        pytest.param(monomial, LaurentPoly.one(), LaurentPoly({-3: Fraction(-3, 2)}),
                     id="laurent-monomial"),
        pytest.param(CenterPoly(1, {((1,), (0,)): 1, ((0,), (1,)): 2, ((0,), (0,)): Fraction(-1, 2)}),
                     CenterPoly.constant(1, 1), None, id="center"),
        # two terms take power's square-and-multiply branch, three its sequential one
        pytest.param(ctx.d(1) - 2 * ctx.x(1), ctx.one(), None, id="weyl-binary"),
        pytest.param(ctx.d(1) + ctx.x(1) + ctx.one(), ctx.one(), None, id="weyl-sequential"),
    ]


@pytest.mark.parametrize("x, one, inverse", _powering_cases())
def test_power_is_repeated_product(x, one, inverse):
    expected, expected_inverse = one, one
    for e in range(10):
        assert x ** e == expected
        if inverse is not None:
            assert x ** -e == expected_inverse
            expected_inverse = expected_inverse * inverse
        expected = expected * x


def test_cyclo_rational_interop():
    z = Cyclo.zeta(5)
    assert z + 1 - 1 == z
    assert Fraction(1, 2) * z * 2 == z
    assert Cyclo.from_rational(5, Fraction(3, 4)).as_rational() == Fraction(3, 4)
    assert (z - z).as_rational() == 0
    assert Cyclo.from_rational(3, 2) == Cyclo.from_rational(7, 2)  # both rational


def test_cyclo_zeta_squares():
    # zeta_2 = -1; zeta_4^2 = -1
    assert Cyclo.zeta(2) == Fraction(-1)
    z4 = Cyclo.zeta(4)
    assert z4 * z4 == Fraction(-1)


# ---------------------------------------------------------------------------
# Laurent coefficient storage
# ---------------------------------------------------------------------------


def test_integral_laurent_coefficients_are_ints():
    ctx = AlgebraContext.symbolic(1)
    element = power(3 * ctx.d(1) - 2 * ctx.x(1), 12)
    types = {type(c) for p in element.terms.values() for c in p.coeffs.values()}
    assert types == {int}
    p = LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 2)})
    assert type(p.coeffs[0]) is int and p.coeffs[0] == 2
    assert type(p.coeffs[1]) is Fraction and p.coeffs[1] == Fraction(1, 2)
    doubled = LaurentPoly({0: Fraction(1, 2)}) * 2
    assert doubled == LaurentPoly.one()
    assert hash(doubled) == hash(LaurentPoly.one())


def test_laurent_arithmetic_stores_integral_results_as_int():
    # A sum, difference or product of Laurent polynomials whose Fraction
    # coefficients meet in an integer stores that integer as an int.
    half, third = LaurentPoly({0: Fraction(1, 2)}), LaurentPoly({1: Fraction(2, 3)})
    cases = [
        (half + half, {0: 1}),
        (half * LaurentPoly({0: 2}), {0: 1}),
        (LaurentPoly({0: Fraction(3, 2)}) - half, {0: 1}),
        (third * LaurentPoly({-1: Fraction(3, 2), 0: 3}), {0: 1, 1: 2}),
        (half * half + half * half, {0: Fraction(1, 2)}),
        (LaurentPoly({0: Fraction(5, 2), 2: 1}) + LaurentPoly({0: Fraction(-1, 2)}), {0: 2, 2: 1}),
    ]
    for got, want in cases:
        assert got.coeffs == want
        assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.values()]


# ---------------------------------------------------------------------------
# quantum integers and factorials
# ---------------------------------------------------------------------------


def test_qint_small():
    assert qint(0) == 0
    assert qint(1) == 1
    assert qint(3) == LaurentPoly({0: 1, 1: 1, 2: 1})


def test_qint_telescopes():
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    for m in range(0, 65):
        expected = LaurentPoly({0: 1}) - LaurentPoly({m: 1})  # 1 - t^m
        assert qint(m) * one_minus_t == expected


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


def test_specialize_examples():
    assert specialize(LaurentPoly({2: 1}), 2) == 1          # (-1)^2
    assert specialize(LaurentPoly({0: 1, 1: -1}), 2) == 2   # 1 - (-1)
    for level in range(2, 13):
        assert not specialize(qint(level), level)


def test_specialize_is_ring_hom():
    rng = random.Random(11)
    for level in (2, 3, 5, 8):
        for _ in range(20):
            p = LaurentPoly({rng.randint(-3, 6): Fraction(rng.randint(-4, 4)) for _ in range(4)})
            q = LaurentPoly({rng.randint(-3, 6): Fraction(rng.randint(-4, 4)) for _ in range(4)})
            assert specialize(p * q, level) == specialize(p, level) * specialize(q, level)
            assert specialize(p + q, level) == specialize(p, level) + specialize(q, level)


def test_specialize_other_primitive_roots():
    # at qpow=3, t evaluates to zeta_5^3
    p = LaurentPoly({1: 1})
    assert specialize(p, 5, 3) == Cyclo.zeta(5, 3)
    assert not specialize(qint(5), 5, 3)


# ---------------------------------------------------------------------------
# complex embedding
# ---------------------------------------------------------------------------


def test_embed_examples():
    assert embed(Cyclo.one(4)) == 1
    assert abs(embed(Cyclo.zeta(4)) - 1j) < 1e-12
    z3 = Cyclo.zeta(3)
    assert abs(embed(z3 + z3 * z3) - (-1)) < 1e-12


def test_embed_additive_on_tall_elements():
    rng = random.Random(13)
    for level in (5, 7, 12):
        d = euler_phi(level)
        for _ in range(20):
            a = Cyclo(level, [rng.randint(-10 ** 6, 10 ** 6) for _ in range(d)])
            b = Cyclo(level, [rng.randint(-10 ** 6, 10 ** 6) for _ in range(d)])
            assert abs(embed(a + b) - (embed(a) + embed(b))) <= 1e-10 * max(1.0, abs(embed(a)) + abs(embed(b)))


def test_embed_multiplicative():
    rng = random.Random(17)
    for level in (3, 5, 8):
        d = euler_phi(level)
        for _ in range(10):
            a = Cyclo(level, [rng.randint(-50, 50) for _ in range(d)])
            b = Cyclo(level, [rng.randint(-50, 50) for _ in range(d)])
            assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-6


def _decimal_embed(x):
    """Horner's rule for x at exp(2*pi*i/level) in the current decimal context."""
    # pi by the series in the decimal module documentation
    lasts, t, pi, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while pi != lasts:
        lasts = pi
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        pi += t
    theta = 2 * pi / x.level
    eps = Decimal(10) ** -getcontext().prec
    zr, zi, term, k = Decimal(1), Decimal(0), Decimal(1), 0
    while term > eps:
        k += 1
        term = term * theta / k
        sign = -1 if k & 2 else 1
        if k & 1:
            zi += sign * term
        else:
            zr += sign * term
    re = im = Decimal(0)
    for c in reversed(x.num):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    return re / x.den, im / x.den


def test_embed_error_bound_under_cancellation():
    # 212-bit coordinates whose value cancels to about 1e-30
    x = (Cyclo.zeta(31) - 1) ** 95 * 3 ** 76 / 7
    assert max(abs(c) for c in x.num).bit_length() >= 200
    got = embed(x)
    with localcontext() as ctx:
        ctx.prec = 240  # about twice the working precision embed needs here
        re, im = _decimal_embed(x)
        size = (re * re + im * im).sqrt()
        assert Decimal("1e-31") < size < Decimal("1e-29")
        err = ((Decimal(got.real) - re) ** 2 + (Decimal(got.imag) - im) ** 2).sqrt()
        assert err <= size * Decimal(2) ** -52  # the bound stated by Cyclo.embed


# ---------------------------------------------------------------------------
# first-order expansions
# ---------------------------------------------------------------------------


def test_jet_ring_rules():
    lv = 5
    z = Cyclo.zeta(lv)
    t = Jet(z, Cyclo.one(lv))  # t = zeta + (t - zeta)
    # derivative of t^3 at zeta is 3 zeta^2
    cube = t * t * t
    assert cube.val == z ** 3
    assert cube.dt == 3 * z ** 2
    inv = t.inverse()
    assert (t * inv).val == 1 and not (t * inv).dt


def test_jet_matches_divided_difference():
    # for p(t) = 2 t^2 - t: p(z) and p'(z)
    lv = 7
    z = Cyclo.zeta(lv)
    t = Jet(z, Cyclo.one(lv))
    p = 2 * (t * t) - t
    assert p.val == 2 * z ** 2 - z
    assert p.dt == 4 * z - 1
