from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    LaurentPoly,
    ParseError,
    f_element,
    mul,
    parse_center,
    parse_weyl,
    power,
    print_center,
    print_weyl,
    qint,
)
from conftest import random_element


@pytest.fixture
def sym1():
    return AlgebraContext.symbolic(1)


@pytest.fixture
def sym2():
    return AlgebraContext.symbolic(2)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_defining_relation_normalizes_to_one(sym1):
    assert parse_weyl("d1*x1 - t*x1*d1", sym1) == sym1.one()


def test_parse_f_symbol(sym1):
    assert parse_weyl("f", sym1) == f_element(sym1)
    assert parse_weyl("f1", sym1) == f_element(sym1)


def test_parse_monomial(sym2):
    e = parse_weyl("x1^2*d2", sym2)
    assert e == sym2.monomial((2, 0), (0, 1))


def test_parse_rational_literals(sym1):
    assert parse_weyl("3/2", sym1) == sym1.scalar_element(Fraction(3, 2))
    assert parse_weyl("-3/2*x1", sym1) == sym1.monomial((1,), (0,), Fraction(-3, 2))


def test_parse_precedence(sym1):
    # '^' binds tighter than unary minus, which binds tighter than '*'
    assert parse_weyl("-x1^2", sym1) == -sym1.monomial((2,), (0,))
    assert parse_weyl("2*x1 + 3*d1", sym1) == sym1.monomial((1,), (0,), 2) + sym1.monomial((0,), (1,), 3)
    assert parse_weyl("(x1 + d1)^2", sym1) == parse_weyl("x1^2 + (1+t)*x1*d1 + d1^2 + 1", sym1)


def test_parse_t_and_q():
    sym = AlgebraContext.symbolic(1)
    assert parse_weyl("t^-1", sym) == sym.scalar_element(LaurentPoly.t_power(-1))
    with pytest.raises(ParseError):
        parse_weyl("q", sym)
    root = AlgebraContext.root_of_unity(1, 3)
    assert parse_weyl("q", root) == root.scalar_element(Cyclo.zeta(3))
    # t specializes to q
    assert parse_weyl("t", root) == parse_weyl("q", root)


def test_parse_errors_carry_positions(sym1):
    with pytest.raises(ParseError) as err:
        parse_weyl("x1 + %", sym1)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_weyl("x3", sym1)
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_weyl("x1 x1", sym1)  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse_weyl("f^-1", sym1)  # f is not invertible
    with pytest.raises(ParseError):
        parse_weyl("0.5*x1", sym1)  # there are no float literals


def test_nesting_is_bounded(sym1):
    assert parse_weyl("(" * 50 + "x1" + ")" * 50, sym1) == sym1.x(1)
    assert parse_weyl("- " * 50 + "x1", sym1) == sym1.x(1)
    for src in ("(" * 51 + "x1" + ")" * 51, "-" * 51 + "x1", "(" * 5000 + "x1"):
        with pytest.raises(ParseError) as err:
            parse_weyl(src, sym1)
        assert err.value.position == 50
    with pytest.raises(ParseError):
        parse_center("(" * 5000 + "r1", 1)


def test_operand_order_matters():
    ctx = AlgebraContext.root_of_unity(1, 3)
    assert parse_weyl("d1*x1", ctx) != parse_weyl("x1*d1", ctx)


def test_parse_center_examples():
    assert parse_center("r1 + s1^2", 1) == CenterPoly.r(1, 1) + CenterPoly.monomial(1, (0,), (2,))
    assert parse_center("r1*s1 - s1*r1", 1) == CenterPoly.zero(1)
    assert parse_center("3/2*s2", 2) == CenterPoly.s(2, 2).scale(Fraction(3, 2))
    with pytest.raises(ParseError):
        parse_center("x1", 1)
    with pytest.raises(ParseError):
        parse_center("r2", 1)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_print_golden(sym1):
    assert print_weyl(sym1.zero()) == "0"
    assert print_weyl(sym1.one() + sym1.monomial((1,), (1,), LaurentPoly.t_power(1))) == "1 + t*x1*d1"
    assert print_weyl(sym1.monomial((1,), (0,), qint(2))) == "(1 + t)*x1"
    assert print_weyl(f_element(sym1)) == "1 + (-1 + t)*x1*d1"


def test_print_term_order_is_graded_lex(sym2):
    e = sym2.one() + sym2.monomial((2, 0), (0, 0)) + sym2.monomial((0, 1), (0, 0))
    assert print_weyl(e) == "1 + x2 + x1^2"


def test_roundtrip_spec_examples(sym1, sym2):
    for src, ctx in [
        ("1 + t*x1*d1", sym1),
        ("(1 + t)*x1", sym1),
        ("x1^2*d2", sym2),
        ("1 + (-1 + t)*x1*d1", sym1),
        ("t^-2*d1^3", sym1),
    ]:
        e = parse_weyl(src, ctx)
        assert parse_weyl(print_weyl(e), ctx) == e


def test_roundtrip_random_symbolic(rng, sym1, sym2):
    for ctx in (sym1, sym2):
        for _ in range(30):
            e = random_element(rng, ctx, max_terms=5, max_exp=3, degree_cap=6)
            assert parse_weyl(print_weyl(e), ctx) == e


def test_roundtrip_random_at_roots(rng):
    for level in (2, 3, 5, 8):
        ctx = AlgebraContext.root_of_unity(1, level)
        d = max(1, len(Cyclo.zero(level).num))
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                key = ((rng.randint(0, 3),), (rng.randint(0, 3),))
                c = Cyclo(level, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)])
                if c:
                    terms[key] = c
            e = ctx.from_terms(terms)
            assert parse_weyl(print_weyl(e), ctx) == e


def test_roundtrip_center(rng):
    for _ in range(25):
        n = rng.choice((1, 2))
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            a = tuple(rng.randint(0, 2) for _ in range(n))
            b = tuple(rng.randint(0, 2) for _ in range(n))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if c:
                coeffs[(a, b)] = c
        p = CenterPoly(n, coeffs)
        assert parse_center(print_center(p), n) == p


def _many_exponent_pairs():
    """1600 distinct exponent pairs for n = 2: more terms than Python's
    default recursion limit, so a parser that nests once per term fails."""
    return [((a, b), (c, d)) for a in range(5) for b in range(8)
            for c in range(8) for d in range(5)]


def test_roundtrip_many_terms(sym2):
    terms = {}
    for k, key in enumerate(_many_exponent_pairs(), 1):
        c = Fraction((-1) ** k * k, 1 + k % 3)
        terms[key] = LaurentPoly({0: c, k % 4 - 1: 1}) if k % 5 == 0 else c
    e = sym2.from_terms(terms)
    assert len(e.terms) >= 1500
    assert parse_weyl(print_weyl(e), sym2) == e


def test_printed_terms_build_their_monomials(sym2):
    # Terms already in PBW order become monomials; a d before an x of the
    # same pair, or a sum as a factor, is still rewritten in the algebra.
    x1, x2, d1, d2 = sym2.x(1), sym2.x(2), sym2.d(1), sym2.d(2)
    t = LaurentPoly.t_power(1)
    src = ("(2 - t)*x1^2*x2*d1*d2^3 - 3/2*t^-1*x2^2*d1^2 + x2*d2*x1 + d1*x1*x2"
           " + d2*x1^2 + x1*(d1 + x2)*d1")
    want = (sym2.monomial((2, 1), (1, 3), 2 - t)
            + sym2.monomial((0, 2), (2, 0), LaurentPoly({-1: Fraction(-3, 2)}))
            + mul(mul(x2, d2), x1) + mul(mul(d1, x1), x2) + mul(d2, mul(x1, x1))
            + mul(mul(x1, d1 + x2), d1))
    assert parse_weyl(src, sym2) == want
    e = power(d1 + x1 + d2 + x2, 6)
    assert parse_weyl(print_weyl(e), sym2) == e


def test_roundtrip_center_many_terms():
    p = CenterPoly(2, {key: Fraction(k, 1 + k % 7)
                       for k, key in enumerate(_many_exponent_pairs(), 1)})
    assert len(p.coeffs) >= 1500
    assert parse_center(print_center(p), 2) == p


# ---------------------------------------------------------------------------
# totality: random token soup never crashes the parser
# ---------------------------------------------------------------------------

_SOUP = st.text(
    alphabet="xd rsfqt0123456789+-*/^() .",
    min_size=0,
    max_size=40,
)


@given(_SOUP)
@example("f^969")  # a power past the degree guard is a ParseError at the '^'
@settings(max_examples=300, deadline=None)
def test_parser_total_on_weyl(src):
    ctx = AlgebraContext.symbolic(2)
    try:
        parse_weyl(src, ctx)
    except ParseError as err:
        assert isinstance(err.position, int)
        assert 0 <= err.position <= len(src)


@given(_SOUP)
@settings(max_examples=200, deadline=None)
def test_parser_total_on_center(src):
    try:
        parse_center(src, 2)
    except ParseError as err:
        assert 0 <= err.position <= len(src)
