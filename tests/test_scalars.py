import math
import random
import time
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import scalars
from qweyl.scalars import (
    INVERSE_COST_LIMIT,
    MAX_LEVEL,
    Cyclo,
    DegreeLimitExceeded,
    Jet,
    LaurentPoly,
    _CYCLO_CACHE,
    _inverse_cost,
    _power,
    _product,
    _slot_codec,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    qint,
    specialize,
)
from qweyl.center import CenterPoly
from qweyl.weylcore import AlgebraContext, power


# ---------------------------------------------------------------------------
# integer convolution (every Cyclo, Jet and LaurentPoly product runs through it)
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=-(10 ** 24), max_value=10 ** 24), min_size=1, max_size=40),
    st.lists(st.integers(min_value=-(10 ** 24), max_value=10 ** 24), min_size=1, max_size=40),
)
@settings(max_examples=120, deadline=None)
def test_conv_backends_agree(a, b):
    # shifted sums when a factor has at most two nonzero entries, else one
    # packed integer product
    expected = [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]
    assert _product(a, b) == expected
    assert _product(b, a) == expected


@given(
    st.integers(min_value=0, max_value=130),
    st.lists(st.lists(st.integers(min_value=-(2 ** 130), max_value=2 ** 130), min_size=1, max_size=40),
             min_size=1, max_size=120),
)
@settings(max_examples=120, deadline=None)
def test_slot_top_bounds_the_largest_slot(shift, vecs):
    # The power chain's M: a bound on every slot of packed sums, below
    # twice the largest, read without reading single slots.  Up to 4,800
    # slots span several joined chunks; the codec holds 2 * bound as its
    # steps do, and its layout runs from one 1-byte limb to three 8-byte
    # limbs.
    vecs = [[c >> shift for c in vec] for vec in vecs]
    largest = max(abs(c) for vec in vecs for c in vec)
    codec = _slot_codec(largest)
    n = max(map(len, vecs))
    top = codec.top([codec.pack(vec) for vec in vecs], n)
    assert largest <= top <= max(2 * largest, 1)


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


def test_cyclo_inverse_of_one_coordinate_is_closed_form():
    rng = random.Random(11)
    for level in (1, 2, 3, 5, 8, 12, 31, 4099):
        d = euler_phi(level)
        for j in {0, min(1, d - 1), d // 2, d - 1}:
            c = Fraction(rng.choice((1, -1, 3, -7)), rng.choice((1, 2, 5)))
            x = Cyclo(level, [c if i == j else 0 for i in range(d)])
            assert x * x.inverse() == 1
    # a product of 4097 conjugates at level 4099, were it not closed form
    assert _inverse_cost(Cyclo.zeta(4099).num) > INVERSE_COST_LIMIT


def test_cyclo_inverse_over_its_cost_guard_is_refused_before_work():
    x = Cyclo(509, [1, -1, 0, 2])
    start = time.perf_counter()
    with pytest.raises(DegreeLimitExceeded, match="estimated cost 298507919112 exceeds the "
                                                  "guard 100000000000"):
        x.inverse()
    assert time.perf_counter() - start < 0.5
    with pytest.raises(DegreeLimitExceeded):
        x ** -2
    # under the guard the conjugate product runs
    y = Cyclo(127, [1, -1, 0, 2])
    assert _inverse_cost(y.num) < INVERSE_COST_LIMIT
    assert y * y.inverse() == 1


def _powering_cases():
    cyclo = Cyclo(7, [1, Fraction(-1, 3), 0, 2])
    jet = Jet(5, [Fraction(1, 2), 1, 0, 2, 0, 0, -1, 0, 0, Fraction(-3, 4)])
    monomial = LaurentPoly({3: Fraction(-2, 3)})
    ctx = AlgebraContext.symbolic(1)
    return [
        pytest.param(cyclo, Cyclo.one(7), cyclo.inverse(), id="cyclo"),
        pytest.param(jet, Jet.one(5), None, id="jet"),
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


@pytest.mark.parametrize("cls, level", [(Cyclo, 7), (Cyclo, 12), (Jet, 5)])
def test_a_rational_value_is_raised_as_a_rational(cls, level, monkeypatch):
    # num^k / den^k, with no product, equals square-and-multiply
    cases = [(cls.from_rational(level, value), k)
             for value in (0, 1, -1, 2, Fraction(3, 4)) for k in (0, 1, 31)]
    want = [_power(x, k, cls.one(level)) for x, k in cases]

    def product(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(scalars, "_product", product)
    for (x, k), w in zip(cases, want):
        got = x ** k
        assert (type(got), got.level, got.num, got.den) == (cls, level, w.num, w.den), (x, k)


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


def test_constant_laurent_polynomials_hash_like_their_value():
    # A constant equals its int or Fraction, so sets and dicts must not
    # keep the two apart; Cyclo already hashes a rational this way.
    third = Fraction(-1, 3)
    for p, value in ((LaurentPoly.one(), 1), (LaurentPoly.zero(), 0),
                     (LaurentPoly.constant(third), third), (LaurentPoly({0: 6}) * third, -2)):
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
        table = {value: "rational"}
        table[p] = "laurent"
        assert table == {value: "laurent"}
    assert len({LaurentPoly.one(), 1, Fraction(1)}) == 1
    # non-constant values stay apart from every rational
    assert len({LaurentPoly.t_power(1), LaurentPoly.t_power(-1), 1}) == 3


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


def _ref_sum(a, b, sign=1):
    """a + sign * b for {exponent: Fraction} maps with no zero value."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_power(a, k):
    if k < 0:
        (e, c), = a.items()
        return {e * k: c ** k}
    out = {0: Fraction(1)}
    for _ in range(k):
        out = _ref_product(out, a)
    return out


def _assert_matches(p, ref):
    """p holds the value of the reference map, read through every query."""
    assert p.coeffs == ref
    assert list(p.coeffs) == sorted(ref)
    assert all(type(c) is (int if ref[e].denominator == 1 else Fraction)
               for e, c in p.coeffs.items())
    assert (p.min_exponent(), p.max_exponent()) == (min(ref, default=0), max(ref, default=0))
    assert p.constant_value() == ref.get(0, 0)
    assert type(p.constant_value()) is (int if ref.get(0, Fraction(0)).denominator == 1 else Fraction)
    assert bool(p) == bool(ref)
    rebuilt = LaurentPoly(ref)
    assert p == rebuilt and hash(p) == hash(rebuilt)
    if set(ref) <= {0}:
        assert p == ref.get(0, 0)


def test_laurent_matches_a_dict_reference():
    rng = random.Random(17)
    cases = [
        {rng.randint(-6, 6): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
         for _ in range(rng.randint(0, 6))}
        for _ in range(30)
    ]
    cases += [
        {1: Fraction(2, 4)},                      # content to cancel: 1/2 t
        {-2: 1, 0: 1, 3: 1}, {-2: 1, 3: 1},       # their difference cancels at both ends
        {-3: Fraction(-2, 3)}, {5: Fraction(7)},  # monomials, for negative powers
        {}, {0: Fraction(-5, 3)},
    ]
    # the dense operands of the benchmark's Laurent kernel: 48-bit, degree 100
    cases += [{e: Fraction(rng.randrange(1, 2 ** 48) * rng.choice((-1, 1))) for e in range(101)}
              for _ in range(2)]
    refs = [{e: Fraction(c) for e, c in case.items() if c} for case in cases]
    polys = [LaurentPoly(case) for case in cases]
    for p, ref in zip(polys, refs):
        _assert_matches(p, ref)
        _assert_matches(-p, {e: -c for e, c in ref.items()})
        for k in range(4):
            _assert_matches(p ** k, _ref_power(ref, k))
        if len(ref) == 1:
            for k in (-1, -2, -3):
                _assert_matches(p ** k, _ref_power(ref, k))
        else:
            with pytest.raises(ValueError):
                p ** -1
    pairs = [(rng.randrange(len(cases)), rng.randrange(len(cases))) for _ in range(120)]
    pairs += [(i, j) for i in range(len(cases) - 9, len(cases)) for j in range(len(cases) - 9, len(cases))]
    for i, j in pairs:
        p, q, a, b = polys[i], polys[j], refs[i], refs[j]
        _assert_matches(p + q, _ref_sum(a, b))
        _assert_matches(p - q, _ref_sum(a, b, -1))
        _assert_matches(p * q, _ref_product(a, b))
        assert (p == q) == (a == b)
        for c in (3, Fraction(-2, 5), 0):
            _assert_matches(p + c, _ref_sum(a, {0: Fraction(c)} if c else {}))
            _assert_matches(c - p, _ref_sum({0: Fraction(c)} if c else {}, a, -1))
            _assert_matches(c * p, _ref_product(a, {0: Fraction(c)}))
    # (t^-2 + 1 + t^3) - (t^-2 + t^3) is 1, with low and both ends moved
    one = LaurentPoly({-2: 1, 0: 1, 3: 1}) - LaurentPoly({-2: 1, 3: 1})
    assert (one.low, one.num, one.den) == (0, (1,), 1)
    half = LaurentPoly({1: Fraction(2, 4)})
    assert (half.low, half.num, half.den) == (1, (1,), 2)


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


def test_embed_is_a_function_of_the_value():
    # cos and sin are cached per level and precision: a wider value embedded
    # at the same level, which needs more precision, moves no digit of the
    # real part of x, which is 0 up to the stated bound
    z = Cyclo.zeta(103)
    x = 5 * (z - z ** 102) + 3 * (z ** 2 - z ** 101)
    before = embed(x)
    assert abs(before.real) <= 2 ** -52 * abs(before)
    embed(Cyclo(103, [2 ** 400 + 1, -(2 ** 400), 3, 1]))
    assert embed(x) == before


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
    t = Jet(lv, [0, 1])
    # t^l = 1 + (t^l - 1) and (t^l - 1)^2 = 0, so t^(m l + r) = m t^(l+r) - (m-1) t^r
    assert (t ** lv - 1) * (t ** lv - 1) == 0
    assert t ** (2 * lv) == 2 * t ** lv - 1
    assert t ** (3 * lv + 2) == 3 * t ** (lv + 2) - 2 * t ** 2
    assert Jet(lv, [1] * (3 * lv)) == Jet(lv, [0] * lv + [3] * lv)  # 1 + t^l + t^2l = 3 t^l
    # the value and derivative of t^3 at every primitive root q are q^3, 3 q^2
    cube = t * t * t
    for qpow in (1, 2, 3, 4):
        q = Cyclo.zeta(lv, qpow)
        assert cube.at_root(qpow) == (q ** 3, 3 * q ** 2)
    with pytest.raises(ValueError):
        t ** -1


def test_jet_matches_divided_difference():
    # for p(t) = 2 t^2 - t: p(q) and p'(q), also through the reduction of
    # t^(2l + 1) = 2 t^(l+1) - t (its derivative at q is 2l + 1 times q^(2l))
    lv = 7
    t = Jet(lv, [0, 1])
    p = 2 * (t * t) - t
    for qpow in (1, 3, 6):
        q = Cyclo.zeta(lv, qpow)
        assert p.at_root(qpow) == (2 * q ** 2 - q, 4 * q - 1)
        assert (t ** (2 * lv + 1)).at_root(qpow) == (q, (2 * lv + 1) * q ** (2 * lv))
    # lifting a cyclotomic number keeps its value at its root
    c = Cyclo(lv, [Fraction(1, 3), 0, -2, 5])
    for qpow in (1, 3, 6):
        assert Jet.lift(c, qpow).at_root(qpow)[0] == c
