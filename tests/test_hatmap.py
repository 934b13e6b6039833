import hashlib
import json
import sys
import time
from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    Endomorphism,
    check_center_preservation,
    compose,
    hat,
    hat_endo,
    hat_step,
    lift_phi,
    lift_psi,
    make_endomorphism,
    parse_weyl,
    specialize_element,
    standard_bracket,
    transport_limit,
)
from qweyl import hatmap, morphisms, torus, weylcore
from qweyl.hatmap import (
    DEFAULT_PRIMES,
    is_stable,
    round_coefficient,
)
from qweyl.center import theta
from qweyl.morphisms import apply_endo, specialize_endomorphism
from qweyl.torus import central_power, to_torus, torus_power_cost
from qweyl.weylcore import POWER_COST_LIMIT, DegreeLimitExceeded, _power_cost, f_i

from conftest import identity_endomorphism

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


def test_schedule_cost_guard(monkeypatch):
    # hat_step(r1) on lift_phi(x1^2) raises the image of d1, in the torus
    # x^-1 f - x^-1 + (q - 1) x^2 f, to the l-th power.  Its chain estimates
    # phi(l) * 3 * sum_{j<l} C(j + 2, 2): 4.1M at l = 53, 20.0M at 79 and
    # 24.3M at 83, under POWER_COST_LIMIT = 25M, and 32.1M at 89, which is
    # refused before any level runs.  apply_endo's PBW chain, which hat no
    # longer runs, is still refused at l = 79.
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, {2: 1})
    r1, s1 = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    cost = {level: torus_power_cost(to_torus(specialize_endomorphism(e, level).images_d[0]),
                                    level)
            for level in (53, 79, 83, 89)}
    assert cost == {53: 4_092_660, 79: 19_964_880, 83: 24_297_420, 89: 32_072_040}
    assert cost[83] <= POWER_COST_LIMIT < cost[89]
    refusal = "image of d1 at level 89 of estimated cost 32072040 exceeds the guard 25000000"
    start = time.perf_counter()
    with monkeypatch.context() as patch:
        def no_level(*args):
            raise AssertionError("a level ran before the guard refused the schedule")

        patch.setattr(hatmap, "hat_step", no_level)
        with pytest.raises(DegreeLimitExceeded, match=refusal):
            hat(e, r1, (31, 53, 89))
        with pytest.raises(DegreeLimitExceeded, match=refusal):
            hat_endo(e, (79, 83, 89))
    assert _power_cost(specialize_endomorphism(e, 79).images_d[0], 79) == 120_332_800
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


def test_hat_step_raises_central_powers_as_center_powers_do():
    # hat_step raises the center polynomial of e(d1)^l by the routine of
    # CenterPoly.__pow__, which _subst runs through its guards
    ctx = AlgebraContext.symbolic(1)
    e = lift_phi(ctx, parse_weyl("x1^2", ctx))
    r, s = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    images = {"r1": hat_step(e, r, 3), "s1": hat_step(e, s, 3)}
    assert len(images["r1"].coeffs) > 2
    for k in (2, 10, 20):
        p = CenterPoly.monomial(1, (k,), (0,))
        assert hat_step(e, p, 3) == _subst(p, images)


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


def test_hat_endo_converts_each_image_once(monkeypatch):
    # the images' torus forms are built over Q(t) once per call, and each
    # level evaluates them: as many conversions on ten levels as on three
    calls = []
    convert = torus._convert_pair

    def counted(*args):
        calls.append(args[0])
        return convert(*args)

    monkeypatch.setattr(torus, "_convert_pair", counted)
    e = lift_phi(AlgebraContext.symbolic(1), {2: 1})
    counts = []
    for schedule in (DEFAULT_PRIMES, DEFAULT_PRIMES[:3]):
        calls.clear()
        hat_endo(e, schedule)
        counts.append(len(calls))
        assert all(ctx.kind == weylcore.SYMBOLIC for ctx in calls)
    assert counts == [4, 4]


def test_composite_levels_take_the_norm_route(monkeypatch):
    # at 10, 12, 14 and 15, where q - 1 is a unit, the root conversion of
    # d1 of lift_phi(x1^2) divides by it and runs the chain; the form over
    # Q(t) keeps B's lowest coefficient 1, so hat_endo runs no chain there
    e = lift_phi(AlgebraContext.symbolic(1), {2: 1})
    levels = [10, 12, 14, 15]
    want = {}
    for level in levels:
        e_l = specialize_endomorphism(e, level)
        want[level] = {"r1": central_power(to_torus(e_l.images_d[0])),
                       "s1": central_power(to_torus(e_l.images_x[0]))}

    def chain(*args):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(torus, "_packed_chain", chain)
    with pytest.raises(AssertionError, match="the chain ran"):
        central_power(to_torus(specialize_endomorphism(e, 10).images_d[0]))
    report = hat_endo(e, levels)
    for name in ("r1", "s1"):
        assert report.reports[name].results == tuple(
            (level, want[level][name]) for level in levels), name


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


def test_n2_shears_converge_on_the_default_schedule():
    # the shear S and the quartic shear transport to the classical shears by
    # s1 s2 and s1^2 s2^2 / 2 over the primes 3..31, and S after the pair
    # lift P to the substitution of their limits over 3..23: the torus
    # estimate of each image is at most 0.5M at l = 31
    ctx = AlgebraContext.symbolic(2)
    x1, x2, d1, d2 = ctx.x(1), ctx.x(2), ctx.d(1), ctx.d(2)
    f1, f2 = f_i(ctx, 1), f_i(ctx, 2)
    shear = make_endomorphism(ctx, [x1, x2], [d1 + x2 * f1, d2 + x1 * f2])
    quartic = make_endomorphism(ctx, [x1, x2], [d1 + x1 * x2 * x2 * f1, d2 + x1 * x1 * x2 * f2])
    pair = make_endomorphism(ctx, [x1, x2], [d1 + x1 * x1 * f1, d2])
    r1, s1, r2, s2 = (CenterPoly.r(2, 1), CenterPoly.s(2, 1),
                      CenterPoly.r(2, 2), CenterPoly.s(2, 2))
    start = time.perf_counter()
    sheared = hat_endo(shear).induced
    assert sheared == {"r1": r1 + s2, "s1": s1, "r2": r2 + s1, "s2": s2}
    assert hat_endo(quartic).induced == {"r1": r1 + s1 * s2 * s2, "s1": s1,
                                         "r2": r2 + s1 * s1 * s2, "s2": s2}
    composite = hat_endo(compose(shear, pair), MID).induced
    assert composite == {"r1": r1 + s2 + s1 * s1, "s1": s1, "r2": r2 + s1, "s2": s2}
    paired = hat_endo(pair, MID).induced
    assert paired == {"r1": r1 + s1 * s1, "s1": s1, "r2": r2, "s2": s2}
    assert composite == {k: _subst(v, sheared) for k, v in paired.items()}
    assert time.perf_counter() - start < 10  # about 0.9 s on a 2-core machine


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


def _forged(ctx):
    """x1 -> x1 d1, d1 -> d1, built without validation: the l-th power of
    x1 d1 is not central at any level."""
    return Endomorphism(ctx, [ctx.x(1) * ctx.d(1)], [ctx.d(1)])


def test_hat_centrality_failures_reported():
    report = hat(_forged(AlgebraContext.symbolic(1)), CenterPoly.s(1, 1), DEFAULT_PRIMES[:3])
    assert report.verdict == "centrality-failed"
    assert report.failed_levels == (3, 5, 7)
    assert report.to_json()["primes"][0]["reason"] == \
        "the 3-th power of the image of x1 is not central"


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
    assert not check_center_preservation(_forged(AlgebraContext.symbolic(1)), 5)


def test_transport_makes_no_product_and_no_validation(monkeypatch):
    # hat reads the images' powers in the torus, reads its degree guard off
    # p's monomials and trusts the maps it is given, so once the lifts are
    # built it calls neither validate nor mul, and builds no theta(p)
    ctx = AlgebraContext.symbolic(1)
    lifts = {poly: lift_phi(ctx, parse_weyl(poly, ctx)) for poly in ("x1^2", "2")}

    def no_call(*args):
        raise AssertionError("transport validated a map or built a PBW element")

    monkeypatch.setattr(morphisms, "validate", no_call)
    for name, module in list(sys.modules.items()):
        for fn in (weylcore.mul, theta):
            if name.startswith("qweyl") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, no_call)
    reports = {poly: hat_endo(e).to_json() for poly, e in lifts.items()}
    assert {poly: (r["converged"], r["induced"]) for poly, r in reports.items()} == {
        "x1^2": (True, {"r1": "r1 + s1^2", "s1": "s1"}), "2": (False, None)}
    # digest of both reports' JSON on the default schedule, as hat printed
    # it while every level was still validated
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "b096f53bc729db5b1dbbf1bc3a1b185d0133d740d964220542b7507bb911c34f"
    for e in lifts.values():
        for level in (3, 5, 7):
            assert check_center_preservation(e, level)


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
