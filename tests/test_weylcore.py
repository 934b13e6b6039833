import time
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import (
    AlgebraContext,
    ContextMismatchError,
    Cyclo,
    DegreeLimitExceeded,
    LaurentPoly,
    act_on_polynomial,
    bernstein_degree,
    commutator,
    divisible_by_f,
    f_element,
    f_i,
    mul,
    power,
    q_commutator,
    qint,
    specialize_element,
    twist_by_f,
)
from qweyl.scalars import PackedPowers, euler_phi
from qweyl.weylcore import JET, ROOT, SYMBOLIC, WeylElement, _Keys, _powers, _scaled_rows
from conftest import random_element, standard_contexts


@pytest.fixture
def sym1():
    return AlgebraContext.symbolic(1)


@pytest.fixture
def sym2():
    return AlgebraContext.symbolic(2)


# ---------------------------------------------------------------------------
# the rewrite rule
# ---------------------------------------------------------------------------


def test_defining_relation(sym1):
    # d*x = 1 + t*x*d
    lhs = mul(sym1.d(1), sym1.x(1))
    rhs = sym1.one() + sym1.monomial((1,), (1,), LaurentPoly.t_power(1))
    assert lhs == rhs


def test_d_against_x_squared(sym1):
    # d*x^2 = [2] x + t^2 x^2 d
    lhs = mul(sym1.d(1), sym1.monomial((2,), (0,)))
    rhs = sym1.monomial((1,), (0,), qint(2)) + sym1.monomial((2,), (1,), LaurentPoly.t_power(2))
    assert lhs == rhs


def test_x_d_already_normal(sym1):
    assert mul(sym1.x(1), sym1.d(1)) == sym1.monomial((1,), (1,))


def test_d_power_against_x(sym1):
    # d^m x = [m] d^(m-1) + t^m x d^m
    for m in range(1, 7):
        lhs = mul(sym1.monomial((0,), (m,)), sym1.x(1))
        rhs = sym1.monomial((0,), (m - 1,), qint(m)) + sym1.monomial(
            (1,), (m,), LaurentPoly.t_power(m)
        )
        assert lhs == rhs


def test_distinct_indices_commute(sym2):
    assert mul(sym2.d(1), sym2.x(2)) == sym2.monomial((0, 1), (1, 0))
    assert commutator(sym2.d(1), sym2.x(2)) == sym2.zero()
    assert commutator(sym2.x(1), sym2.x(2)) == sym2.zero()
    assert commutator(sym2.d(1), sym2.d(2)) == sym2.zero()


def test_q_commutator_is_one(sym1, sym2):
    assert q_commutator(sym1.d(1), sym1.x(1)) == sym1.one()
    for i in (1, 2):
        assert q_commutator(sym2.d(i), sym2.x(i)) == sym2.one()


def test_commutator_with_self_vanishes(sym1):
    x = sym1.x(1)
    assert commutator(x, x) == sym1.zero()


def test_commutator_gives_f(sym1):
    assert commutator(sym1.d(1), sym1.x(1)) == f_element(sym1)


def _recursive_pair_table(ctx, k, m):
    """Rows (k', m') for k' <= k, m' <= m by peeling one d at a time:
    d^k' x^m' = t^m' (d^(k'-1) x^m') d + [m'] d^(k'-1) x^(m'-1)."""
    one = ctx.one_scalar()
    table = {(0, mm): (one,) for mm in range(m + 1)}
    table.update({(kk, 0): (one,) for kk in range(k + 1)})
    for kk in range(1, k + 1):
        for mm in range(1, m + 1):
            same, down = table[(kk - 1, mm)], table[(kk - 1, mm - 1)]
            row = []
            for j in range(min(kk, mm) + 1):
                acc = ctx.scalar(0)
                if j < len(same):
                    acc = acc + ctx.t_power(mm) * same[j]
                if j >= 1:
                    acc = acc + ctx.qint(mm) * down[j - 1]
                row.append(acc)
            table[(kk, mm)] = tuple(row)
    return table


@pytest.mark.parametrize("kind, level", [(SYMBOLIC, None), (ROOT, 5), (ROOT, 12), (JET, 7)])
def test_pair_expansion_matches_recursion(kind, level):
    table = _recursive_pair_table(AlgebraContext(1, kind, level=level), 12, 12)
    ctx = AlgebraContext(1, kind, level=level)  # fresh, so every row is built cold
    for (k, m), row in table.items():
        got = ctx._pair_expansion(k, m)
        assert len(got) == len(row) == min(k, m) + 1
        for j, (a, b) in enumerate(zip(got, row)):
            assert a == b, (k, m, j)


@pytest.mark.parametrize("ctx", standard_contexts(), ids=repr)
def test_qint_is_defined_from_zero(ctx):
    assert ctx.qint(3) == ctx.one_scalar() + ctx.t_power(1) + ctx.t_power(2)
    with pytest.raises(ValueError):
        ctx.qint(-1)
    assert ctx.qint(0) == ctx.scalar(0)


# ---------------------------------------------------------------------------
# the distinguished element
# ---------------------------------------------------------------------------


def test_f_single_pair(sym1):
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    expected = sym1.one() - sym1.monomial((1,), (1,), one_minus_t)
    assert f_element(sym1) == expected
    assert f_i(sym1, 1) == expected


def test_f_two_pairs_hand_expansion(sym2):
    c = LaurentPoly({0: 1, 1: -1})
    expected = (
        sym2.one()
        - sym2.monomial((1, 0), (1, 0), c)
        - sym2.monomial((0, 1), (0, 1), c)
        + sym2.monomial((1, 1), (1, 1), c * c)
    )
    assert f_element(sym2) == expected
    # the cross factors commute
    assert mul(f_i(sym2, 1), f_i(sym2, 2)) == mul(f_i(sym2, 2), f_i(sym2, 1))


def test_f_specialized_at_minus_one():
    ctx = AlgebraContext.root_of_unity(1, 2)
    assert f_element(ctx) == ctx.one() - ctx.monomial((1,), (1,), 2)


def test_f_index_out_of_range(sym1):
    with pytest.raises(IndexError):
        f_i(sym1, 2)


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


def test_power_of_x(sym1):
    assert power(sym1.x(1), 3) == sym1.monomial((3,), (0,))
    assert power(sym1.x(1), 0) == sym1.one()


def test_power_of_f_at_level_two():
    ctx = AlgebraContext.root_of_unity(1, 2)
    assert power(f_element(ctx), 2) == ctx.one() - ctx.monomial((2,), (2,), 4)


def test_power_of_d_plus_x_by_hand(sym1):
    base = sym1.d(1) + sym1.x(1)
    expected = (
        sym1.monomial((2,), (0,))
        + sym1.monomial((1,), (1,), LaurentPoly({0: 1, 1: 1}))
        + sym1.monomial((0,), (2,))
        + sym1.one()
    )
    assert power(base, 2) == expected


def test_power_matches_repeated_mul(rng):
    for ctx in standard_contexts()[:3]:
        for _ in range(5):
            a = random_element(rng, ctx, max_terms=3, degree_cap=3)
            direct = ctx.one()
            for _ in range(3):
                direct = mul(direct, a)
            assert power(a, 3) == direct


@pytest.mark.parametrize("a, b", [
    (Fraction(1, 2), Fraction(-3, 2)),
    (2, Fraction(1, 2)),
    (-3, 1),
])
def test_power_at_t_one_matches_closed_form(sym1, a, b):
    # At t = 1, where a LaurentPoly is the sum of its coefficients, d x = x d + 1
    # and (b d + a x)^k has coefficient k! a^i b^j (ab)^m / (i! j! m! 2^m) at
    # x^i d^j, where i + j + 2m = k.
    base = b * sym1.d(1) + a * sym1.x(1)
    for k in range(11):
        at_one = {key: sum(c.coeffs.values()) for key, c in power(base, k).terms.items()}
        got = {key: v for key, v in at_one.items() if v}
        expected = {}
        for i in range(k + 1):
            for j in range(k + 1 - i):
                m, odd = divmod(k - i - j, 2)
                if not odd:
                    num = Fraction(factorial(k) * a ** i * b ** j * (a * b) ** m)
                    den = factorial(i) * factorial(j) * factorial(m) * 2 ** m
                    expected[((i,), (j,))] = num / den
        assert got == expected


def test_power_degree_guard(sym1, monkeypatch):
    monkeypatch.setenv("QWEYL_MAX_DEGREE", "20")
    base = sym1.d(1) + sym1.x(1)
    with pytest.raises(DegreeLimitExceeded):
        power(base, 21)
    assert bernstein_degree(power(base, 20)) == 20
    assert power(sym1.zero(), 21) == sym1.zero()  # zero has no degree


def test_power_cost_guard(sym1):
    # (d1+x1)^60 has degree 120, under the degree guard, but would take
    # about 40 s; the cost guard refuses it before any product.
    base = sym1.d(1) + sym1.x(1)
    start = time.perf_counter()
    with pytest.raises(DegreeLimitExceeded, match="estimated cost"):
        power(base, 60)
    assert time.perf_counter() - start < 0.5
    # a monomial power is built in closed form and costs nothing
    xd = sym1.monomial((0,), (3,), LaurentPoly.t_power(1)) * 2
    assert power(xd, 150) == sym1.monomial((0,), (450,), LaurentPoly.t_power(150, 2 ** 150))


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


def test_specialize_f():
    sym = AlgebraContext.symbolic(1)
    lowered = specialize_element(f_element(sym), 3)
    ctx = AlgebraContext.root_of_unity(1, 3)
    assert lowered == f_element(ctx)


def test_specialize_kills_quantum_integer():
    sym = AlgebraContext.symbolic(1)
    a = sym.monomial((1,), (0,), qint(3))
    assert not specialize_element(a, 3)


def test_specialize_dx():
    sym = AlgebraContext.symbolic(1)
    a = mul(sym.d(1), sym.x(1))
    ctx = AlgebraContext.root_of_unity(1, 2)
    assert specialize_element(a, 2) == ctx.one() - ctx.monomial((1,), (1,))


def test_specialize_commutes_with_ring_ops(rng):
    sym = AlgebraContext.symbolic(1)
    for level in (2, 3, 5):
        for _ in range(6):
            a = random_element(rng, sym, max_terms=3, degree_cap=3)
            b = random_element(rng, sym, max_terms=3, degree_cap=3)
            assert specialize_element(mul(a, b), level) == mul(
                specialize_element(a, level), specialize_element(b, level)
            )
            assert specialize_element(a + b, level) == specialize_element(
                a, level
            ) + specialize_element(b, level)
            assert specialize_element(power(a, 2), level) == power(
                specialize_element(a, level), 2
            )


def test_classical_specialization_at_one():
    # level 1 is the classical algebra: dx - xd = 1
    ctx = AlgebraContext.root_of_unity(1, 1)
    assert commutator(ctx.d(1), ctx.x(1)) == ctx.one()


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------


def test_bernstein_degree_examples(sym1):
    assert bernstein_degree(f_element(sym1)) == 2
    assert bernstein_degree(sym1.one()) == 0
    assert bernstein_degree(sym1.monomial((3,), (1,)) + sym1.x(1)) == 4
    with pytest.raises(ValueError):
        bernstein_degree(sym1.zero())


def test_degree_multiplicative(rng):
    for ctx in standard_contexts():
        for _ in range(6):
            a = random_element(rng, ctx, max_terms=3, degree_cap=3)
            b = random_element(rng, ctx, max_terms=3, degree_cap=3)
            if a and b:
                assert bernstein_degree(mul(a, b)) == bernstein_degree(a) + bernstein_degree(b)


# ---------------------------------------------------------------------------
# twisted commutation with f
# ---------------------------------------------------------------------------


def test_twist_examples(sym1):
    assert twist_by_f(sym1.x(1), 1) == sym1.monomial((1,), (0,), LaurentPoly.t_power(1))
    assert twist_by_f(sym1.d(1), 1) == sym1.monomial((0,), (1,), LaurentPoly.t_power(-1))
    xd = sym1.monomial((1,), (1,))
    assert twist_by_f(xd, 1) == xd


def test_f_commutation_relations(sym2):
    t = LaurentPoly.t_power(1)
    for i in (1, 2):
        for j in (1, 2):
            fj = f_i(sym2, j)
            scale = t if i == j else LaurentPoly.one()
            assert mul(sym2.d(i), fj) == mul(fj, sym2.d(i)).scale(scale)
            assert mul(fj, sym2.x(i)) == mul(sym2.x(i), fj).scale(scale)


def test_twist_identity_random(rng):
    for ctx in (AlgebraContext.symbolic(1), AlgebraContext.symbolic(2)):
        for i in range(1, ctx.n + 1):
            for _ in range(8):
                a = random_element(rng, ctx)
                assert mul(f_i(ctx, i), a) == mul(twist_by_f(a, i), f_i(ctx, i))


# ---------------------------------------------------------------------------
# divisibility test
# ---------------------------------------------------------------------------


def test_divisible_examples(sym1):
    assert divisible_by_f(f_element(sym1), 1)
    assert not divisible_by_f(sym1.x(1), 1)
    a = sym1.d(1) + sym1.x(1)
    assert divisible_by_f(mul(f_element(sym1), a), 1)
    assert not divisible_by_f(sym1.one(), 1)


def test_divisible_two_pairs(sym2):
    f = f_element(sym2)
    assert divisible_by_f(f, 1) and divisible_by_f(f, 2)
    assert divisible_by_f(f_i(sym2, 1), 1)
    assert not divisible_by_f(f_i(sym2, 1), 2)


def test_divisible_products_random(rng):
    for ctx in (AlgebraContext.symbolic(1), AlgebraContext.symbolic(2)):
        for i in range(1, ctx.n + 1):
            for _ in range(10):
                a = random_element(rng, ctx, max_terms=3, degree_cap=3)
                if not a:
                    continue
                assert divisible_by_f(mul(f_i(ctx, i), a), i)
                assert divisible_by_f(mul(a, f_i(ctx, i)), i)


# ---------------------------------------------------------------------------
# ring axioms and the faithful action
# ---------------------------------------------------------------------------


def test_ring_axioms_random(rng):
    for ctx in standard_contexts():
        for _ in range(6):
            a = random_element(rng, ctx)
            b = random_element(rng, ctx)
            c = random_element(rng, ctx)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, b + c) == mul(a, b) + mul(a, c)
            assert mul(b + c, a) == mul(b, a) + mul(c, a)
            assert mul(ctx.one(), a) == a == mul(a, ctx.one())


def test_action_derivative_rule(sym1):
    # d acts as the quantum derivative
    v = {(3,): Fraction(1)}
    out = act_on_polynomial(sym1.d(1), v)
    assert out == {(2,): qint(3)}


def test_action_soundness_random(rng):
    for ctx in standard_contexts():
        for _ in range(6):
            a = random_element(rng, ctx, max_terms=3)
            b = random_element(rng, ctx, max_terms=3)
            v = {
                tuple(rng.randint(0, 4) for _ in range(ctx.n)): Fraction(rng.randint(-3, 3))
                for _ in range(3)
            }
            v = {k: c for k, c in v.items() if c} or {(0,) * ctx.n: Fraction(1)}
            lhs = act_on_polynomial(mul(a, b), v)
            rhs = act_on_polynomial(a, act_on_polynomial(b, v))
            assert lhs == rhs


def test_context_mismatch_raises():
    a = AlgebraContext.symbolic(1).x(1)
    b = AlgebraContext.symbolic(2).x(1)
    with pytest.raises(ContextMismatchError):
        mul(a, b)


def test_contexts_are_interned():
    assert AlgebraContext.symbolic(1) is AlgebraContext.symbolic(1)
    assert AlgebraContext.root_of_unity(1, 5) is AlgebraContext.root_of_unity(1, 5)
    assert AlgebraContext.root_of_unity(1, 5) is not AlgebraContext.root_of_unity(1, 5, 2)


def test_ring_axioms_with_cyclotomic_coefficients(rng):
    from qweyl import Cyclo

    for level in (3, 5, 8):
        ctx = AlgebraContext.root_of_unity(1, level)
        d = len(Cyclo.zero(level).num)

        def rand():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                key = ((rng.randint(0, 2),), (rng.randint(0, 2),))
                c = Cyclo(level, [rng.randint(-3, 3) for _ in range(d)])
                if c:
                    terms[key] = c
            return ctx.from_terms(terms)

        for _ in range(6):
            a, b, c = rand(), rand(), rand()
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, b + c) == mul(a, b) + mul(a, c)


# ---------------------------------------------------------------------------
# packed multiply-accumulate
# ---------------------------------------------------------------------------


def _plain_mul(a, b):
    """The reference route of mul: the same scaled rows of b as a right
    factor, but each contribution is one product of coefficients
    (LaurentPoly.__mul__, Cyclo.__mul__ or Jet.__mul__), summed one at a
    time, with nothing packed."""
    keys = _Keys(a.context.n, sum(max((max(al + be) for al, be in x.terms), default=0)
                                  for x in (a, b)))
    out = {}
    for (al, be), ca in a.terms.items():
        offsets, coeffs = _scaled_rows(a.context, be, b, keys)
        for off, cb in zip(offsets, coeffs):
            key = keys.exps(keys.code(al, be) + off)
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return WeylElement(a.context, out)


_WIDE = st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
_LAURENT = st.dictionaries(
    st.integers(min_value=-3, max_value=6),
    st.builds(Fraction, _WIDE, st.integers(min_value=1, max_value=2 ** 40)),
    min_size=1,
    max_size=3,
).map(LaurentPoly)


@st.composite
def _symbolic_pair(draw):
    """Two symbolic elements with wide signed rational coefficients; n = 2
    reaches the branch where two pairs need the q-binomial rewrite."""
    n = draw(st.sampled_from((1, 2)))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    ctx = AlgebraContext.symbolic(n)
    terms = st.dictionaries(st.tuples(exps, exps), _LAURENT, min_size=1, max_size=4)
    return ctx.from_terms(draw(terms)), ctx.from_terms(draw(terms))


@given(st.sampled_from((1, 2, 4, 9, 12, 15, 31)), _symbolic_pair())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_packed_mul_matches_the_symbolic_product(level, pair):
    # specialization is a ring homomorphism between the two packed domains
    a, b = pair
    assert specialize_element(mul(a, b), level) == mul(
        specialize_element(a, level), specialize_element(b, level)
    )


def _integral(element):
    return all(type(c) is int or c.denominator != 1
               for p in element.terms.values() for c in p.coeffs.values())


@given(_symbolic_pair(), _LAURENT, _LAURENT, st.sampled_from((1, 12)))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_packed_symbolic_mul_matches_the_plain_product(pair, c, u, level):
    # Coefficients are Fractions with different denominators on each side,
    # exponents from -3, and numerators up to 2**200, so slots take several
    # 8-byte limbs.  n is 1 or 2.
    a, b = pair
    assert mul(a, b) == _plain_mul(a, b)
    assert _integral(mul(a, b))  # integral coefficients are stored as int
    zero = a.context.zero()
    assert mul(a, zero) == mul(zero, b) == zero
    # c (x1 + 1) * u (1 - x1) = c u (1 - x1^2): the x1 key cancels to zero
    ctx = AlgebraContext.symbolic(1)
    one, x = ctx.one(), ctx.x(1)
    left, right = (x + one).scale(c), (one - x).scale(u)
    assert mul(left, right) == _plain_mul(left, right) == (one - x * x).scale(c * u)
    # the packed product at a root of unity against the same plain route
    sa, sb = specialize_element(a, level), specialize_element(b, level)
    assert mul(sa, sb) == _plain_mul(sa, sb)


def _split(total):
    return [total - total // 3, total // 3]


def _packed_sum(level, lhs, rhs):
    """sum(a * b for a in lhs for b in rhs) by one step of the power
    chain's packer: lhs are the start values, rhs one group of integral
    scaled row values, and level None packs Laurent polynomials."""
    packer = PackedPowers(level, rhs, lhs)
    values, norm = packer.start(dict(enumerate(lhs)))
    packed = packer.step(values.values(), norm * packer.norm(rhs))
    acc = sum(a * b for a in packed for b in packer.group(0, rhs))
    sums, _ = packer.settle({0: acc})
    return packer.unpack(sums[0], 1)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize(
    "lhs_sum, rhs_sum",
    [(217, 151), (255, 257)] + [(2 ** (8 * w - 1) - 1, 1) for w in (1, 2, 4, 8, 16, 24)],
)
def test_packed_slot_at_the_width_bound(lhs_sum, rhs_sum, sign):
    # The start values are sign * c/7 * (z - z^j) for c in _split(lhs_sum)
    # and the group holds rhs_sum values z^(d-1), d = phi(level).  Over
    # their denominator 7 the start values' max|a_i| sum to lhs_sum, and
    # the group's sum |b_i| is rhs_sum, so the width comes from the bound
    # B = lhs_sum * rhs_sum.  Every product adds to slots d and d - 1 + j,
    # so both reach B.  At the prime level 31 (j = 2) and at 9 = 3^2 (j = 4),
    # d - 1 + j is the level: that slot folds onto slot 0, and reducing
    # slot d mod Phi subtracts B from it again, so slot 0 reaches -2B, the
    # most the codec's spare bit holds.  Every case but 255 * 257 needs
    # that bit: 2B is 2**16 - 2 for 217 * 151 and 2**(8w) - 2 for
    # 2**(8w - 1) - 1, one bit past the bytes that hold B.  255 * 257 needs
    # the sign bit of a third byte for B itself.  A codec chosen from the
    # group's largest value, 1, in place of its sum would hold 2 * lhs_sum,
    # which 217 * 151 and 255 * 257 overflow.  Level 12 (j = 3) reads slots
    # 4 and 6 and reduces them in Python.
    for level, j in ((31, 2), (9, 4), (12, 3)):
        d = euler_phi(level)
        z = lambda e: Cyclo.zeta(level, e)
        lhs = [sign * Fraction(c, 7) * (z(1) - z(j)) for c in _split(lhs_sum)]
        rhs = [z(d - 1)] * rhs_sum
        got = _packed_sum(level, lhs, rhs)
        assert got == sum(a * b for a in lhs for b in rhs)
        assert got == sign * Fraction(lhs_sum * rhs_sum, 7) * (z(d) - z(d - 1 + j))


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize(
    "lhs_sum, rhs_sum, parts",
    [(217, 151, 2), (255, 257, 2), (127, 256, 256)]
    + [(2 ** (8 * w - 1) - 1, 1, 2) for w in (1, 2, 4, 8, 16, 24)],
)
def test_packed_laurent_slot_at_the_width_bound(lhs_sum, rhs_sum, parts, sign):
    # As above, with Laurent polynomials: each start value is
    # sign * c/7 * (t^-3 + t^-2), with max|a_i| = c over the denominator 7,
    # and the group holds parts values c * t^5 whose c sum to rhs_sum, so
    # every product has the slots of t^2 and t^3 at the bound
    # lhs_sum * rhs_sum.  Laurent sums are not reduced, so a slot reaches
    # the bound, not twice it.  The shifts of the two sides, -3 and 5, and
    # the start's denominator are taken back on unpacking.  127 * 256 is
    # the sum over a group of 256 values.
    lhs = [LaurentPoly({-3: sign * Fraction(c, 7), -2: sign * Fraction(c, 7)})
           for c in _split(lhs_sum)]
    rhs = [LaurentPoly({5: rhs_sum // parts + (i < rhs_sum % parts)}) for i in range(parts)]
    rhs = [b for b in rhs if b]  # scaled rows hold no zero
    got = _packed_sum(None, lhs, rhs)
    assert got == sum((a * b for a in lhs for b in rhs), LaurentPoly.zero())
    bound = Fraction(sign * lhs_sum * rhs_sum, 7)
    assert got.coeffs == {2: bound, 3: bound}


def test_symbolic_scalars_are_laurent_polynomials_over_q(sym1):
    # mul packs rational coefficients only
    half = LaurentPoly({-1: Fraction(1, 2), 2: 3})
    assert sym1.scalar(half) is half
    for bad in (LaurentPoly({1: Cyclo.zeta(3)}), LaurentPoly({0: 1, 1: Cyclo.one(5)})):
        with pytest.raises(TypeError, match="over Q"):
            sym1.scalar(bad)
        with pytest.raises(TypeError, match="over Q"):
            sym1.x(1).scale(bad)


def test_level_tables_stay_small_at_a_high_level():
    # d1*x1 at level 4096 packs two vectors of phi = 2048 slots.  A codec
    # builds the Struct and sign bits of a slot count only when a product
    # uses it, and reduction mod Phi_4096 = z^2048 + 1 keeps no table of
    # reduced powers; building either for every slot count or power took
    # about 300 MiB.
    tracemalloc.start()
    try:
        ctx = AlgebraContext.root_of_unity(1, 4096)
        product = mul(ctx.d(1), ctx.x(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product == ctx.one() + ctx.monomial((1,), (1,)).scale(ctx.t_power(1))
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("ctx", standard_contexts(), ids=repr)
def test_power_chain_is_repeated_mul(ctx):
    # The two bases have the same d-exponents, so rows shared between their
    # chains would give wrong products.
    bases = [ctx.d(1) + ctx.x(1), ctx.d(1) * 3 - ctx.monomial((2,) + (0,) * (ctx.n - 1),
                                                              (1,) + (0,) * (ctx.n - 1))]
    chains = [_powers(b, range(6)) for b in bases]
    want = [ctx.one(), ctx.one()]
    for k in range(6):
        for i, (chain, b) in enumerate(zip(chains, bases)):
            assert chain[k] == want[i]
            want[i] = mul(want[i], b)


# ---------------------------------------------------------------------------
# the packed power chain
# ---------------------------------------------------------------------------


def _expansions(base):
    """The pair expansions of a chain step: (acc * base, base * acc)."""
    return (sum(prod(e + 1 for e in ga) for ga, _ in base.terms),
            sum(prod(e + 1 for e in be) for _, be in base.terms))


def _chain_bases(ctx):
    """Two bases with denominators in their coefficients, which the chain
    multiplies from each side: d1 + x1^2 + c x1^3 d1 expands 8 pairs as
    acc * base and 5 as base * acc, and d1 + 2/3 + c x1 d1 4 and 5."""
    n = ctx.n
    mono = lambda al, be, c=1: ctx.monomial(al + (0,) * (n - 1), be + (0,) * (n - 1), c)
    c = ctx.t_power(-1) * ctx.scalar(Fraction(2, 3)) - ctx.scalar(Fraction(1, 2))
    left = mono((0,), (1,)) + mono((2,), (0,)) + mono((3,), (1,), c)
    right = mono((0,), (1,)) + mono((0,), (0,), Fraction(2, 3)) + mono((1,), (1,), c)
    if n == 2:  # a second pair: x2 and d2 meet x1 and d1 without expanding
        left = left + ctx.monomial((0, 1), (0, 1), Fraction(-5, 7))
        right = right + ctx.monomial((1, 0), (0, 2), Fraction(3, 4))
    return left, right


@pytest.mark.parametrize("ctx, top", [
    (AlgebraContext.symbolic(1), 5),
    (AlgebraContext.symbolic(2), 4),
    *[(AlgebraContext.root_of_unity(1, level), 5) for level in (3, 7, 8, 9, 6, 12, 15)],
    (AlgebraContext.root_of_unity(1, 31), 4),
    (AlgebraContext.root_of_unity(2, 9), 4),
    (AlgebraContext.first_order_at_root(1, 5), 4),
], ids=repr)
def test_power_chain_matches_repeated_plain_products(ctx, top):
    # Levels 3, 7, 31 (prime), 8 and 9 (prime powers) reduce mod the
    # cyclotomic polynomial inside the packed integer; 6, 12 and 15 read
    # their slots and reduce them in Python.  First-order expansions keep
    # plain products.
    left, right = _chain_bases(ctx)
    assert _expansions(left)[0] > _expansions(left)[1]
    assert _expansions(right)[0] < _expansions(right)[1]
    for base in (left, right):
        want = [ctx.one()]
        for _ in range(top):
            want.append(_plain_mul(want[-1], base))
        assert _powers(base, range(top + 1)) == dict(enumerate(want))
        # only the powers asked for are unpacked
        assert _powers(base, {top - 2, top}) == {top - 2: want[-3], top: want[-1]}
        assert power(base, top) == want[-1]


@given(_symbolic_pair(), st.sampled_from((1, 2, 6, 8, 9, 31)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_power_chain_matches_plain_products_on_random_bases(pair, level):
    # wide rational coefficients with negative exponents, n = 1 and 2, and
    # their specializations, which are prime, prime-power and other levels
    base = pair[0]
    for b in (base, specialize_element(base, level)):
        want = [b.context.one()]
        for _ in range(3):
            want.append(_plain_mul(want[-1], b))
        assert _powers(b, range(4)) == dict(enumerate(want))


def test_power_chain_slot_needs_the_spare_bit():
    # (7 (1 - q) x1)^2 at level 3: the second step's slot bound is
    # 7 * (7 + 7) = 98, under 2**7, but its reduced product
    # 49 (1 - q)^2 = -147 q does not fit a signed byte.  The spare bit of
    # the codec widens the slots; without it the value reads back wrong.
    ctx = AlgebraContext.root_of_unity(1, 3)
    base = ctx.x(1).scale(7 - 7 * ctx.t_power(1))
    want = ctx.monomial((2,), (0,), -147 * ctx.t_power(1))
    assert _powers(base, {2}) == {2: want}
    assert mul(base, base) == _plain_mul(base, base) == want


def test_power_chain_at_level_4096_stays_small():
    # Phi_4096 = z^2048 + 1, so the reduction subtracts the top 2048 slots
    # from the low ones; the codec tables hold only the slot counts used.
    ctx = AlgebraContext.root_of_unity(1, 4096)
    base = ctx.d(1) + ctx.x(1).scale(ctx.t_power(-1))
    want = [ctx.one()]
    for _ in range(3):
        want.append(_plain_mul(want[-1], base))
    tracemalloc.start()
    try:
        got = _powers(base, range(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == dict(enumerate(want))
    assert peak < 16 * 2 ** 20
