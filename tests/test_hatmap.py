from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    PrimeSchedule,
    check_center_preservation,
    compose,
    hat,
    hat_endo,
    hat_step,
    identity_endomorphism,
    lift_phi,
    lift_psi,
    make_endomorphism,
    standard_bracket,
    transport_limit,
)
from qweyl.hatmap import (
    DEFAULT_PRIMES,
    CentralityFailure,
    is_stable,
    round_coefficient,
)

# large enough that the decaying tails drop below the kill threshold
MID = PrimeSchedule.up_to(23)


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
    with pytest.raises(ValueError):
        PrimeSchedule((3, 4, 5))
    with pytest.raises(ValueError):
        PrimeSchedule((5, 3))
    with pytest.raises(ValueError):
        PrimeSchedule(())
    s = PrimeSchedule((3, 5, 7), skip=frozenset({5}))
    assert s.levels() == [3, 7]
    assert PrimeSchedule.default().levels()[-1] == 31


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
    result = hat_endo(e, PrimeSchedule.up_to(7))
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
    report = hat(e, CenterPoly.r(1, 1), PrimeSchedule.up_to(13))
    assert report.verdict == "diverged"
    assert report.witness == ((0,), (0,))  # the 2^l constant coefficient


def test_hat_centrality_failures_reported():
    ctx = AlgebraContext.symbolic(1)
    bad = make_endomorphism(ctx, [ctx.x(1)], [ctx.d(1) + ctx.x(1)])
    report = hat(bad, CenterPoly.r(1, 1), PrimeSchedule.up_to(7))
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
    report = transport_limit(CenterPoly.r(1, 1), CenterPoly.r(1, 1), PrimeSchedule.up_to(7))
    assert report.converged
    assert report.limit_polynomial() == CenterPoly.zero(1)
    assert report.matches_standard is True


def test_transport_limit_leibniz_pair():
    p = CenterPoly.r(1, 1) * CenterPoly.s(1, 1)
    report = transport_limit(p, CenterPoly.s(1, 1), MID)
    assert report.converged
    assert report.limit_polynomial() == CenterPoly.s(1, 1)
    assert report.matches_standard is True
