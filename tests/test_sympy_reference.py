"""Laurent and cyclotomic arithmetic against sympy as an independent reference.

sympy is not a dependency of qweyl; without it these tests are skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qweyl.scalars import Cyclo, LaurentPoly, euler_phi

T = sympy.Symbol("t")
Z = sympy.Symbol("z")


def _rational(c) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def _random_coefficient(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-(2 ** 40), 2 ** 40)
    if kind == 1:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 30))
    return 0


# ---------------------------------------------------------------------------
# Laurent polynomials: shift by t^-lo so that sympy sees ordinary polynomials
# ---------------------------------------------------------------------------


def _random_laurent(rng) -> LaurentPoly:
    return LaurentPoly({rng.randint(-6, 6): _random_coefficient(rng)
                        for _ in range(rng.randint(0, 8))})


def _to_sympy(p: LaurentPoly, lo: int) -> sympy.Poly:
    expr = sum((_rational(c) * T ** (e - lo) for e, c in p.coeffs.items()), sympy.Integer(0))
    return sympy.Poly(expr, T, domain="QQ")


def _from_sympy(poly: sympy.Poly, lo: int) -> LaurentPoly:
    return LaurentPoly({lo + e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms()})


def test_laurent_sums_and_products_match_sympy():
    rng = random.Random(5)
    for _ in range(200):
        p, q = _random_laurent(rng), _random_laurent(rng)
        lo = min(p.min_exponent(), q.min_exponent())
        ps, qs = _to_sympy(p, lo), _to_sympy(q, lo)
        for got, expected in ((p + q, _from_sympy(ps + qs, lo)),
                              (p - q, _from_sympy(ps - qs, lo)),
                              (p * q, _from_sympy(ps * qs, 2 * lo))):
            assert got == expected
            assert all(got.coeffs.values())  # zeros are never stored


# ---------------------------------------------------------------------------
# cyclotomic numbers: products and reduction against sympy.rem
# ---------------------------------------------------------------------------


def _poly_z(coeffs) -> sympy.Poly:
    return sympy.Poly([_rational(c) for c in reversed(coeffs)], Z, domain="QQ")


def _fractions(c: Cyclo):
    """The coordinates of c as fractions, lowest power first."""
    return tuple(Fraction(v, c.den) for v in c.num)


def _coordinates(poly: sympy.Poly, degree: int):
    low_first = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(low_first + [Fraction(0)] * (degree - len(low_first)))


@pytest.mark.parametrize("level", [5, 23, 31, 12, 15])
def test_cyclo_products_match_sympy(level):
    rng = random.Random(level)
    phi = sympy.Poly(sympy.cyclotomic_poly(level, Z), Z, domain="QQ")
    degree = euler_phi(level)
    for _ in range(20):
        a = [_random_coefficient(rng) for _ in range(degree)]
        b = [_random_coefficient(rng) for _ in range(degree)]
        expected = sympy.rem(_poly_z(a) * _poly_z(b), phi)
        assert _fractions(Cyclo(level, a) * Cyclo(level, b)) == _coordinates(expected, degree)
        # vectors longer than the level also fold by z^level = 1 first
        long = [_random_coefficient(rng) for _ in range(rng.randint(degree + 1, 2 * level + 3))]
        expected = sympy.rem(_poly_z(long), phi)
        assert _fractions(Cyclo(level, long)) == _coordinates(expected, degree)



@pytest.mark.parametrize("level", [5, 12, 15, 23, 31])
def test_cyclo_inverse_matches_sympy(level):
    # small coordinates keep sympy's Euclid quick; the inverse's own
    # coordinates still run to hundreds of bits at l = 31
    rng = random.Random(100 + level)
    phi = sympy.Poly(sympy.cyclotomic_poly(level, Z), Z, domain="QQ")
    degree = euler_phi(level)
    samples = [[1, -1], [Fraction(-1, 2)] + [0] * (degree - 2) + [3]]
    samples += [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * rng.randrange(2)
                 for _ in range(degree)] for _ in range(4)]
    for a in samples:
        if not any(a):
            continue
        expected = sympy.invert(_poly_z(a), phi)
        assert _fractions(Cyclo(level, a).inverse()) == _coordinates(expected, degree)
