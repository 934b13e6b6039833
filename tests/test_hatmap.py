import time
from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    check_center_preservation,
    compose,
    hat,
    hat_endo,
    hat_step,
    identity_endomorphism,
    lift_phi,
    lift_psi,
    make_endomorphism,
    parse_weyl,
    specialize_element,
    standard_bracket,
    transport_limit,
)
from qweyl.hatmap import (
    DEFAULT_PRIMES,
    CentralityFailure,
    _check_schedule_cost,
    is_stable,
    round_coefficient,
)
from qweyl.center import theta
from qweyl.morphisms import apply_endo, specialize_endomorphism
from qweyl.weylcore import POWER_COST_LIMIT, DegreeLimitExceeded, _power_cost

# large enough that the decaying tails drop below the kill threshold
MID = DEFAULT_PRIMES[:8]


def _subst(poly: CenterPoly, images: dict) -> CenterPoly:
    """Substitute coordinate images into a center polynomial."""
    n = poly.n
    out = CenterPoly.zero(n)
    for (a, b), c in poly.coeffs.items():
        term = CenterPoly.constant(n, c)
        for i in range(n):
            term = term * images[f"r{i+1}"] ** a[i] * images[f"s{i+1}"] ** b[i]
        out = out + term
    return out


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_validation():
    e = identity_endomorphism(AlgebraContext.symbolic(1))
    r1 = CenterPoly.r(1, 1)
    for bad in ((5, 3, 7), (3, 3, 5, 7), (1, 3, 5), (), (3, 5, 65537)):
        with pytest.raises(ValueError):
            hat(e, r1, bad)
    assert hat(e, r1).levels == DEFAULT_PRIMES
    assert DEFAULT_PRIMES[-1] == 31
    # composite levels are accepted as given
    assert hat(e, r1, (4, 6, 9)).levels == (4, 6, 9)


def test_schedule_cost_guard():
    # hat_step(r1) on lift_phi(x1^2) raises d1 + x1^2 + (q - 1)*x1^3*d1 to
    # the l-th power.  Its estimate is 3.0M at l = 31 and 24.7M at l = 53,
    # under POWER_COST_LIMIT = 25M, so the default schedule and every level
    # up to 53 pass; at l = 79 it is 120M, which is refused before any level
    # runs (the chain alone took minutes).
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {2: 1})
    r1, s1 = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    cost = {level: _power_cost(specialize_endomorphism(e, level).images_d[0], level)
            for level in (31, 53, 79)}
    assert cost == {31: 2_983_936, 53: 24_727_680, 79: 120_332_800}
    assert cost[53] <= POWER_COST_LIMIT < cost[79]
    _check_schedule_cost(e, [r1, s1], DEFAULT_PRIMES + (37, 41, 43, 47, 53))
    start = time.perf_counter()
    with pytest.raises(DegreeLimitExceeded, match="estimated cost 120332800"):
        hat(e, r1, (31, 53, 79))
    with pytest.raises(DegreeLimitExceeded, match="estimated cost 120332800"):
        hat_endo(e, (79, 83, 89))
    with pytest.raises(DegreeLimitExceeded, match="estimated cost 120332800"):
        apply_endo(specialize_endomorphism(e, 79), theta(r1, 79))
    assert time.perf_counter() - start < 2
    # s1 maps to x1^l and x1 -> x1, so its only chain is cheap at any level
    assert hat(e, s1, (79, 83, 89)).limit_expr() == "s1"


def test_reports_are_immutable():
    e = identity_endomorphism(AlgebraContext.symbolic(1))
    result = hat_endo(e, DEFAULT_PRIMES[:3])
    report = result.reports["r1"]
    with pytest.raises(AttributeError):
        report.verdict = "diverged"
    with pytest.raises(AttributeError):
        report.standard = CenterPoly.r(1, 1)
    with pytest.raises(AttributeError):
        result.converged = False
    bracket = transport_limit(CenterPoly.r(1, 1), CenterPoly.s(1, 1), DEFAULT_PRIMES[:3])
    with pytest.raises(AttributeError):
        bracket.matches_standard = False


def test_short_schedules_rejected():
    e = lift_phi(AlgebraContext.symbolic(1), {0: 1})
    with pytest.raises(ValueError):
        hat(e, CenterPoly.r(1, 1), [3, 5])


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_hat_step_identity():
    e = identity_endomorphism(AlgebraContext.symbolic(1))
    for level in (3, 5, 7):
        for p in (CenterPoly.r(1, 1), CenterPoly.s(1, 1),
                  CenterPoly.r(1, 1) * CenterPoly.s(1, 1)):
            assert hat_step(e, p, level) == p


def test_hat_step_translation_closed_form():
    # For l > m + 1, hat_step(lift_phi(lam * x^m), r1, l) is exactly
    #   r1 + lam^l s1^m - lam^l (1-q)^l r1 s1^(m+1).
    # (1, 2) and (2, 0) are the two lifts of the hat benchmark, checked at
    # every level of its schedule.
    ctx = AlgebraContext.symbolic(1)
    cases = [(1, 0, (5, 7)), (1, 1, (5, 7)), (1, 2, DEFAULT_PRIMES), (2, 0, DEFAULT_PRIMES)]
    for lam, m, levels in cases:
        e = lift_phi(ctx, {m: lam})
        for level in levels:
            if level <= m + 1:
                continue
            got = hat_step(e, CenterPoly.r(1, 1), level)
            q = Cyclo.zeta(level)
            scale = Fraction(lam) ** level
            expected = (
                CenterPoly.r(1, 1)
                + CenterPoly.monomial(1, (0,), (m,), scale)
                + CenterPoly.monomial(1, (1,), (m + 1,), -scale * (Cyclo.one(level) - q) ** level)
            )
            assert got == expected
            assert hat_step(e, CenterPoly.s(1, 1), level) == CenterPoly.s(1, 1)


def _fiber_value(image, level, lam, b):
    """(M^l)_00 for M = image(X, Y), the image of d1 at the fiber point
    (a, b) = (lam^l, b) of the l-dimensional representation, computed
    without normal ordering.

    There x1^l acts as a and d1^l as b: X = diag(lam q^i), and Y has
    diagonal 1/(lam q^i (1-q)), superdiagonal 1 and corner
    b - 1/(a (1-q)^l) at (l-1, 0).  An image whose terms have d-degree at
    most 1 is then cyclic bidiagonal, with diagonal d_i and u_i at
    (i, i+1 mod l).  A closed walk of l steps of 0 or +1 on a cycle of
    length l takes no forward step or l of them, so
    (M^l)_00 = d_0^l + prod u_i.
    """
    inv = (Cyclo.one(level) - Cyclo.zeta(level)).inverse()  # 1/(1-q)
    corner = b - inv ** level / lam ** level
    diag, upper = [], []
    for i in range(level):
        d_i = u_i = Cyclo.zero(level)
        for ((al,), (be,)), c in image.terms.items():
            x_power = Cyclo.zeta(level, i * al) * lam ** al  # x_i^al
            if be == 0:
                d_i = d_i + c * x_power
            elif be == 1:
                d_i = d_i + c * x_power * Cyclo.zeta(level, -i) * inv / lam
                u_i = u_i + c * x_power * (corner if i == level - 1 else 1)
            else:
                raise ValueError("the image is not bidiagonal")
        diag.append(d_i)
        upper.append(u_i)
    walk = Cyclo.one(level)
    for u_i in upper:
        walk = walk * u_i
    return diag[0] ** level + walk


def test_hat_step_matches_the_fiber_oracle():
    # hat_step(e, r1, l) evaluated at r1 = b, s1 = a is the scalar by which
    # e(d1)^l acts on the fiber over (a, b); the oracle reads it off the
    # matrix, through no product of the algebra.  The cubic lift has no
    # closed form for its transport, and t*x1 has a coefficient in t.
    ctx = AlgebraContext.symbolic(1)
    points = [(2, 3), (1, Fraction(1, 7)), (3, 0), (Fraction(-1, 2), 5)]
    for poly in ("1 + x1 - 3*x1^3", "t*x1"):
        e = lift_phi(ctx, parse_weyl(poly, ctx))
        for level in (5, 7, 11):
            got = hat_step(e, CenterPoly.r(1, 1), level)
            image = specialize_element(e.images_d[0], level)
            for lam, b in points:
                a = Fraction(lam) ** level
                value = sum((c * Fraction(b) ** r * a ** s
                             for ((r,), (s,)), c in got.coeffs.items()), Cyclo.zero(level))
                assert value == _fiber_value(image, level, Fraction(lam), Fraction(b)), \
                    (poly, level, lam, b)


def test_hat_step_multiplicative_per_level():
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {1: 1})
    r, s = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    for level in (3, 5):
        pq = hat_step(e, r * s, level)
        assert pq == hat_step(e, r, level) * hat_step(e, s, level)


def test_hat_step_degree_bound():
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {1: 1})  # image degree N = 3
    p = CenterPoly.r(1, 1) * CenterPoly.s(1, 1)  # degree 2
    for level in (3, 5, 7):
        out = hat_step(e, p, level)
        assert out.total_degree() <= p.total_degree() * 3


def test_hat_step_records_relation_failure():
    ctx = AlgebraContext.symbolic(1)
    bad = make_endomorphism(ctx, [ctx.x(1)], [ctx.d(1) + ctx.x(1)])
    out = hat_step(bad, CenterPoly.r(1, 1), 5)
    assert isinstance(out, CentralityFailure)
    assert out.level == 5
    # the map specialized at the level gives the same step
    assert hat_step(specialize_endomorphism(bad, 5), CenterPoly.r(1, 1), 5) == out


def test_hat_step_takes_the_map_specialized_at_its_level():
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, parse_weyl("x1^2", ctx))
    r = CenterPoly.r(1, 1)
    for level in (5, 7):
        assert hat_step(specialize_endomorphism(e, level), r, level) == hat_step(e, r, level)
    with pytest.raises(ValueError, match="symbolic"):
        hat_step(specialize_endomorphism(e, 5), r, 7)


def test_hat_endo_specializes_each_level_once(monkeypatch):
    from qweyl import hatmap

    calls = []

    def counted(e, level):
        calls.append(level)
        return specialize_endomorphism(e, level)

    monkeypatch.setattr(hatmap, "specialize_endomorphism", counted)
    ctx = AlgebraContext.symbolic(2)
    report = hat_endo(identity_endomorphism(ctx), MID[:4])
    assert sorted(report.reports) == ["r1", "r2", "s1", "s2"] and report.converged
    assert calls == list(MID[:4])


# ---------------------------------------------------------------------------
# convergence machinery
# ---------------------------------------------------------------------------


def test_stability_predicate():
    assert is_stable([0j, 0j, 0j])
    assert is_stable([1.0, 1.0 + 1e-9, 1.0 - 1e-9])
    assert not is_stable([1.0, 1.0])
    assert not is_stable([0j, 0j, 1.0])
    assert not is_stable([1.0, 2.0, 3.0])


def test_round_coefficient():
    assert round_coefficient(1.0000000001 + 0j).exact == (Fraction(1), Fraction(0))
    assert round_coefficient(1 / 3 + 0j).exact == (Fraction(1, 3), Fraction(0))
    assert round_coefficient(0.5 + 1j).exact == (Fraction(1, 2), Fraction(1))
    assert round_coefficient(0.12345 + 0j).exact is None
    assert round_coefficient(complex(0, 0)).exact == (Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# full transport
# ---------------------------------------------------------------------------


def test_hat_identity_converges_to_identity():
    e = identity_endomorphism(AlgebraContext.symbolic(1))
    result = hat_endo(e, DEFAULT_PRIMES[:3])
    assert result.converged
    assert result.induced == {"r1": CenterPoly.r(1, 1), "s1": CenterPoly.s(1, 1)}


def test_hat_translation_limits():
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {1: 1})
    report = hat(e, CenterPoly.r(1, 1), MID)
    assert report.converged
    assert report.limit_polynomial() == CenterPoly.r(1, 1) + CenterPoly.s(1, 1)


def test_hat_psi_translation_limits():
    ctx = AlgebraContext.symbolic(1)
    e = lift_psi(ctx, {1: 1})
    result = hat_endo(e, MID)
    assert result.converged
    assert result.induced["s1"] == CenterPoly.s(1, 1) + CenterPoly.r(1, 1)
    assert result.induced["r1"] == CenterPoly.r(1, 1)


def test_hat_composition_property():
    ctx = AlgebraContext.symbolic(1)
    e1 = lift_phi(ctx, {1: 1})
    e2 = lift_phi(ctx, {2: 1})
    r1 = hat_endo(e1, MID)
    r2 = hat_endo(e2, MID)
    rc = hat_endo(compose(e1, e2), MID)
    assert r1.converged and r2.converged and rc.converged
    for coord in ("r1", "s1"):
        assert rc.induced[coord] == _subst(r2.induced[coord], r1.induced)


def test_hat_poisson_preservation_at_limit():
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {1: 1})
    r, s = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    pairs = [(r, s), (r, r * s)]
    induced = hat_endo(e, MID).induced
    for p, q in pairs:
        lhs_report = hat(e, standard_bracket(p, q), MID)
        assert lhs_report.converged
        rhs = standard_bracket(_subst(p, induced), _subst(q, induced))
        assert lhs_report.limit_polynomial() == rhs


def test_hat_divergence_witness():
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {0: 2})
    report = hat(e, CenterPoly.r(1, 1), DEFAULT_PRIMES[:5])
    assert report.verdict == "diverged"
    assert report.witness == ((0,), (0,))  # the 2^l constant coefficient


def test_mixed_lift_diverges_while_the_composition_converges():
    # Transport is not additive in F: the lift of x1 + x1^2 diverges on r1
    # over the primes 3..23, its constant coefficient growing from 1 at
    # l = 3 to about 7.8e2 at l = 11 and 2.8e10 at l = 23, while the lifts
    # of x1 and of x1^2, composed, converge to r1 + s1 + s1^2.
    ctx = AlgebraContext.symbolic(1)
    r, s = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    mixed = hat(lift_phi(ctx, {1: 1, 2: 1}), r, MID)
    assert MID[-1] == 23
    assert mixed.verdict == "diverged"
    assert mixed.witness == ((0,), (0,))
    constant = [abs(v) for v in mixed.trajectories[(0,), (0,)]]
    assert constant[0] == 1 and 7e2 < constant[3] < 9e2 and constant[-1] > 2e10
    composed = hat(compose(lift_phi(ctx, {1: 1}), lift_phi(ctx, {2: 1})), r, MID)
    assert composed.converged
    assert composed.limit_polynomial() == r + s + s * s


def test_hat_centrality_failures_reported():
    ctx = AlgebraContext.symbolic(1)
    bad = make_endomorphism(ctx, [ctx.x(1)], [ctx.d(1) + ctx.x(1)])
    report = hat(bad, CenterPoly.r(1, 1), DEFAULT_PRIMES[:3])
    assert report.verdict == "centrality-failed"
    assert report.failed_levels == (3, 5, 7)


def test_hat_json_shape():
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {0: 1})
    report = hat(e, CenterPoly.r(1, 1), MID)
    blob = report.to_json()
    assert blob["verdict"] == "converged"
    assert blob["limit"]["expr"] == "1 + r1"
    assert blob["primes"][0]["l"] == 3
    for entry in blob["primes"]:
        assert entry["centrality"] is True
        for coeff in entry["coeffs"]:
            assert len(coeff["monomial"]) == 2
            assert isinstance(coeff["exact"], str)


# ---------------------------------------------------------------------------
# center preservation checks
# ---------------------------------------------------------------------------


def test_center_preservation_for_lifts():
    ctx = AlgebraContext.symbolic(1)
    for e in (identity_endomorphism(ctx), lift_phi(ctx, {1: 1}), lift_psi(ctx, {2: 1})):
        for level in (3, 5):
            assert check_center_preservation(e, level)


def test_center_preservation_fails_for_invalid_map():
    ctx = AlgebraContext.symbolic(1)
    bad = make_endomorphism(ctx, [ctx.x(1)], [ctx.d(1) + ctx.x(1)])
    assert not check_center_preservation(bad, 5)


# ---------------------------------------------------------------------------
# bracket transport
# ---------------------------------------------------------------------------


def test_transport_limit_pairing():
    report = transport_limit(CenterPoly.r(1, 1), CenterPoly.s(1, 1), MID)
    assert report.converged
    assert report.limit_polynomial() == CenterPoly.constant(1, 1)
    assert report.matches_standard is True


def test_transport_limit_trivial_pair():
    report = transport_limit(CenterPoly.r(1, 1), CenterPoly.r(1, 1), DEFAULT_PRIMES[:3])
    assert report.converged
    assert report.limit_polynomial() == CenterPoly.zero(1)
    assert report.matches_standard is True


def test_transport_limit_leibniz_pair():
    p = CenterPoly.r(1, 1) * CenterPoly.s(1, 1)
    report = transport_limit(p, CenterPoly.s(1, 1), MID)
    assert report.converged
    assert report.limit_polynomial() == CenterPoly.s(1, 1)
    assert report.matches_standard is True
