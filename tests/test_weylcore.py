import itertools
import random
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
from qweyl.scalars import Jet, PackedPowers, _jetdata, _leveldata, euler_phi
from qweyl.weylcore import (JET, ROOT, SYMBOLIC, WeylElement, _gauss_row, _Keys, _powers,
                             _scaled_rows, _times_qint, _top_exponent)
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


# Jet levels 2 and 5 shift past 2l, so t^(Ml + r) folds with M >= 2; Phi_9^2
# and Phi_12^2 are dense; q = zeta_7^3 checks that the row is sent to q
_PAIR_CASES = [(SYMBOLIC, None, 1), (ROOT, 5, 1), (ROOT, 12, 1), (JET, 7, 1), (JET, 2, 1),
               (JET, 5, 1), (JET, 9, 1), (JET, 12, 1), (ROOT, 7, 3)]


@pytest.mark.parametrize("kind, level, qpow", _PAIR_CASES,
                         ids=[f"{k}-{l}" + (f"-q^{p}" if p > 1 else "") for k, l, p in _PAIR_CASES])
def test_pair_expansion_matches_recursion(kind, level, qpow):
    table = _recursive_pair_table(AlgebraContext(1, kind, level=level, qpow=qpow), 12, 12)
    ctx = AlgebraContext(1, kind, level=level, qpow=qpow)  # fresh, so every row is built cold
    for (k, m), row in table.items():
        got = ctx._pair_expansion(k, m)
        assert len(got) == len(row) == min(k, m) + 1
        for j, (a, b) in enumerate(zip(got, row)):
            assert a == b, (k, m, j)


def _gauss_in_zt(k):
    """[k choose j]_t for j = 0..k as coefficient lists over Z[t], by the
    q-Pascal rule on plain lists."""
    row = [[1]]
    for n in range(1, k + 1):
        nxt = [[1]]
        for j in range(1, n):
            # t^j [n-1 choose j] has degree j(n - j), at least (j - 1)(n - j)
            a, b = row[j - 1], [0] * j + row[j]
            nxt.append([x + y for x, y in zip(a + [0] * (len(b) - len(a)), b)])
        row = nxt + [[1]]
    return row


@pytest.mark.parametrize("cover, level", [(None, 0), ("root", 1), ("root", 2), ("root", 5),
                                          ("root", 12), ("jet", 1), ("jet", 2), ("jet", 5),
                                          ("jet", 9)])
def test_gauss_row_is_the_binomial_in_the_cover_ring(cover, level):
    # each exponent e = M l + r of [k choose j] in Z[t] lands on t^r mod
    # t^l - 1, and on M t^(l + r) - (M - 1) t^r mod (t^l - 1)^2
    data = {None: None, "root": _leveldata, "jet": _jetdata}[cover]
    data = data and data(level)
    for k in range(21):  # columns up to 10 reach past each level
        want = []
        for poly in _gauss_in_zt(k):
            if cover is None:
                vec = poly
            else:
                vec = [0] * (level if cover == "root" else 2 * level)
                for e, c in enumerate(poly):
                    m, r = divmod(e, level)
                    if cover == "root":
                        vec[r] += c
                    else:
                        vec[level + r] += m * c
                        vec[r] -= (m - 1) * c
            want.append(vec)
        for cols in (list(range(k + 1)), [k // 2, k]):
            got = _gauss_row(k, cols, data)
            # a vector over Z[t] may end in zero slots
            assert len(got) == len(cols) and all(
                v == want[j] + [0] * (len(v) - len(want[j])) for j, v in zip(cols, got)), (k, cols)


@pytest.mark.parametrize("kind, level", [(LaurentPoly, None), (Cyclo, 7), (Cyclo, 12),
                                         (Jet, 2), (Jet, 7), (Jet, 12)])
def test_times_qint_is_the_product_by_the_quantum_integer(kind, level):
    rng = random.Random(level)
    for _ in range(5):
        coeffs = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 6)) for _ in range(9)]
        if kind is LaurentPoly:
            c = LaurentPoly({e - 3: x for e, x in enumerate(coeffs)})
        else:
            c = kind(level, coeffs)
        for a in range(3 * (level or 5)):
            got = _times_qint(c, a)
            want = c * (qint(a) if kind is LaurentPoly else kind(level, [1] * a))
            assert got == want and got.num == want.num and got.den == want.den, a


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


def _step_bound(a, b):
    """The slot bound of the chain step a * b (PackedPowers): M, the
    largest coordinate of a's coefficients over their denominator, times
    the sum over the distinct offsets of the rows of b that a's terms meet
    of the largest sum|b_i| of an entry at the offset."""
    keys = _Keys(a.context.n, sum(_top_exponent(x) for x in (a, b)))
    packer = PackedPowers(list(b.terms.values()), list(a.terms.values()))
    _, top = packer.start({keys.code(al, be): c for (al, be), c in a.terms.items()})
    scaled = WeylElement(b.context, {k: packer.scaled(c) for k, c in b.terms.items()})
    widths = {}
    for be in {be for _, be in a.terms}:
        for off, c in zip(*_scaled_rows(a.context, be, scaled, keys)):
            widths[off] = max(widths.get(off, 0), packer.norm(c))
    return top * sum(widths.values())


def _hot_pairs(ctx, value, weights):
    """value * prod_i (u_i + v_i x_i d_i) over the pairs i, for weights
    ((u_1, v_1), ..., (u_n, v_n))."""
    terms = {}
    for hot in itertools.product((0, 1), repeat=ctx.n):
        terms[hot, hot] = value * prod(w[h] for w, h in zip(weights, hot))
    return ctx.from_terms(terms)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize(
    "top, weights",
    [pytest.param(151, ((3, 2), (11, 10)), id="217-151"),
     pytest.param(257, ((5, 5), (5, 6)), id="255-257")]
    + [pytest.param(2 ** (8 * w - 1) - 1, ((1, 0), (1, 0)), id=f"{2 ** (8 * w - 1) - 1}-1")
       for w in (1, 2, 4, 8, 16, 24)],
)
def test_packed_slot_at_the_width_bound(top, weights, sign):
    # One chain step, mul(a, b), for a = A * prod_i (1 + x_i d_i) and
    # b = beta * prod_i (u_i + v_i x_i d_i), whose prod_i x_i d_i
    # coefficient is A * beta * W for W = prod_i (u_i + 2 v_i).  The terms of a meet
    # the rows of 1, d_1, d_2 and d_1 d_2.  In the row of d_i the entries
    # u_i of 1 and v_i [1] of x_i d_i (d_i x_i = 1 + q x_i d_i) meet at one
    # offset and merge to u_i + v_i, and v_i q sits one offset up, so the
    # largest sum|b_i| per offset adds up to W, and the step's bound is
    # B = top * W: 217 * 151 = 151 * 7 * 31, 255 * 257 = 257 * 15 * 17,
    # and 2**(8w - 1) - 1 with one offset.  A = sign * top/2 * (z^p - z^r)
    # and beta = z^(d - p), d = phi(level), so the products that add into
    # prod_i x_i d_i, one per offset, put +B on slot d and -B on slot
    # d - p + r.  At the
    # prime level 31 that slot is the level: it folds onto slot 0, and
    # reducing slot d mod Phi subtracts B from it again, so slot 0 reaches
    # -2B, the most the codec's spare bit holds; so does 9 = 3^2, with one
    # pair.  Every case but 255 * 257 needs that bit: 2B is 2**16 - 2 for
    # 217 * 151 and 2**(8w) - 2 for 2**(8w - 1) - 1, one bit past the
    # bytes that hold B.  255 * 257 needs the sign bit of a third byte for
    # B itself.  Without the merge the rows' offsets would bound W by
    # prod_i (max(u_i, v_i) + v_i), which for 217 * 151 is 5 * 21 and
    # drops the width to 2 bytes.  Level 12, also with one pair, reads
    # slots 4 and 5 and reduces them in Python.  Levels 9 and 12 take one
    # pair of weights (W - 2v, v), v = W // 3: the entry v_1 v_2 q^2 * beta
    # of two pairs would reach past their d coordinates.
    W = prod(u + 2 * v for u, v in weights)
    B, one_pair = top * W, ((W - 2 * (W // 3), W // 3),)
    cases = ((31, 3, 4, weights), (9, 2, 5, one_pair), (12, 2, 3, one_pair))
    for level, p, r, pairs in cases:
        ctx = AlgebraContext.root_of_unity(len(pairs), level)
        d = euler_phi(level)
        z = lambda e: Cyclo.zeta(level, e)
        A = sign * Fraction(top, 2) * (z(p) - z(r))
        a = _hot_pairs(ctx, A, [(1, 1)] * ctx.n)
        b = _hot_pairs(ctx, z(d - p), pairs)
        assert _step_bound(a, b) == B
        got = mul(a, b)
        assert got == _plain_mul(a, b)
        hot = (1,) * ctx.n
        assert got.terms[hot, hot] == sign * Fraction(B, 2) * (z(d) - z(d - p + r))
        q = ctx.t_power(1)
        expected = {}
        for e in itertools.product((0, 1, 2), repeat=ctx.n):
            c = A * z(d - p)
            for (u, v), k in zip(pairs, e):
                c = c * (u, u + 2 * v, v * q)[k]
            expected[e, e] = c
        assert got == ctx.from_terms(expected)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize(
    "top, width, parts",
    [(217, 151, 2), (255, 257, 2), (127, 256, 256)]
    + [(2 ** (8 * w - 1) - 1, 1, 2) for w in (1, 2, 4, 8, 16, 24)],
)
def test_packed_laurent_slot_at_the_width_bound(top, width, parts, sign):
    # As above, with Laurent polynomials: mul(a, b) for
    # a = A * (1 + x + ... + x^(parts - 1)) and b = sum_i w_i t^5 x^i, with
    # the w_i summing to width, so the rows of b are its terms at parts
    # distinct offsets.  A = sign * top/2 * (t^-3 + t^-2) has max|a_i| = top
    # over the denominator 2, so the bound is top * width, and the x^(parts
    # - 1) coefficient A * width * t^5 has the slots of t^2 and t^3 at it.
    # Laurent sums are not reduced, so a slot reaches the bound, not twice
    # it.  The shifts of the two sides, -3 and 5, and the start's
    # denominator are taken back on unpacking.  127 * 256 is a row of 256
    # entries.
    ctx = AlgebraContext.symbolic(1)
    A = LaurentPoly({-3: sign * Fraction(top, 2), -2: sign * Fraction(top, 2)})
    a = ctx.from_terms({((i,), (0,)): A for i in range(parts)})
    # a zero w_i leaves no term of b, and no row entry
    b = ctx.from_terms({((i,), (0,)): LaurentPoly({5: width // parts + (i < width % parts)})
                        for i in range(parts)})
    assert _step_bound(a, b) == top * width
    got = mul(a, b)
    assert got == _plain_mul(a, b)
    bound = Fraction(sign * top * width, 2)
    assert got.terms[(parts - 1,), (0,)].coeffs == {2: bound, 3: bound}


def _sparse_row_factors(ctx):
    """Right factors whose rows (_scaled_rows) merge entries, cancel them,
    and hold entries of one, two and many nonzero coordinates.

    The lift of 2, d -> d + 2(dx - xd) = d + 2 - 2(1 - q) x d: in the row
    of d^k the entries 2 and -2(1 - q)[k] meet and merge to 2 q^k.  In
    c(1 - x d) the entries c and -c [1] of the row of d cancel.  q^3 x^2 and
    (1 - q) x d^2 scale by one and two coordinates, [5] x^3 d by five.
    With two pairs, (1 + x1 d1)(1 - q x2 d2) + [3] x1 x2 d2 merges entries in
    both pairs at once."""
    q, one = ctx.t_power(1), ctx.one_scalar()
    if ctx.n == 1:
        x, d = ctx.x(1), ctx.d(1)
        lift2 = d + (mul(d, x) - mul(x, d)).scale(2)
        cancel = (ctx.one() - mul(x, d)).scale(ctx.scalar(Fraction(-3, 5)))
        mixed = (ctx.monomial((2,), (0,), q ** 3) + ctx.monomial((1,), (2,), one - q)
                 + ctx.monomial((3,), (1,), ctx.qint(5)) + d)
        return [lift2, cancel, mixed, lift2 + cancel]
    x1d1, x2d2 = ctx.monomial((1, 0), (1, 0)), ctx.monomial((0, 1), (0, 1))
    pairs = mul(ctx.one() + x1d1, ctx.one() - x2d2.scale(q))
    return [pairs + ctx.monomial((1, 1), (0, 1), ctx.qint(3)), pairs + ctx.d(1) + ctx.x(2)]


@pytest.mark.parametrize("ctx", [
    AlgebraContext.root_of_unity(n, level) for level in (31, 9, 25, 12) for n in (1, 2)
] + [AlgebraContext.first_order_at_root(n, 5) for n in (1, 2)]
  + [AlgebraContext.symbolic(n) for n in (1, 2)], ids=repr)
def test_sparse_and_merged_rows_match_the_plain_product(ctx):
    # The chain multiplies by an entry of one or two nonzero coordinates as
    # shifted small multiples of the value (PackedPowers.row), and by the
    # others as packed products; both must give the plain product, and the
    # action on polynomials must see an algebra map.
    n, q = ctx.n, ctx.t_power(1)
    unit = lambda *e: tuple(e) + (0,) * (n - len(e))
    left = (ctx.monomial(unit(2), unit(3)) + ctx.monomial(unit(1), unit(2), q)
            + ctx.monomial(unit(0), unit(1), 3) + ctx.monomial(unit(3), unit(0), ctx.one_scalar() - q))
    if n == 2:
        left = left + ctx.monomial((1, 1), (2, 1), q ** 2) + ctx.monomial((0, 2), (1, 3), -2)
    poly = {unit(3, 4)[:n]: ctx.one_scalar(), unit(5)[:n]: q, unit(0, 2)[:n]: ctx.scalar(7)}
    for right in _sparse_row_factors(ctx):
        got = mul(left, right)
        assert got == _plain_mul(left, right)
        assert act_on_polynomial(got, poly) == act_on_polynomial(left, act_on_polynomial(right, poly))
        # three steps of a chain, each bounded by the previous one's values
        cube = power(right, 3)
        assert cube == _plain_mul(_plain_mul(right, right), right)
        assert act_on_polynomial(cube, poly) == act_on_polynomial(
            right, act_on_polynomial(right, act_on_polynomial(right, poly)))


def test_symbolic_scalars_are_laurent_polynomials_over_q(sym1):
    # mul packs rational coefficients only, and a LaurentPoly holds no other
    half = LaurentPoly({-1: Fraction(1, 2), 2: 3})
    assert sym1.scalar(half) is half
    for bad in ({1: Cyclo.zeta(3)}, {0: 1, 1: Cyclo.one(5)}, {0: 1, 2: 0.5}):
        with pytest.raises(TypeError, match="over Q"):
            LaurentPoly(bad)


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
    (AlgebraContext.first_order_at_root(2, 6, 5), 3),
], ids=repr)
def test_power_chain_matches_repeated_plain_products(ctx, top):
    # Levels 3, 7, 31 (prime), 8 and 9 (prime powers) reduce mod the
    # cyclotomic polynomial inside the packed integer; 6, 12 and 15 read
    # their slots and reduce them in Python, as do first-order expansions,
    # residues mod Phi_l^2, which fold by t^(2l) = 2 t^l - 1, not t^l = 1.
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
