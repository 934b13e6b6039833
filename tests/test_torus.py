"""The quantum torus route of hat_step against the PBW route it replaces:
theta_inverse(apply_endo(e_l, theta(p, l)))."""

import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from qweyl import (
    AlgebraContext,
    CenterPoly,
    Cyclo,
    check_center_preservation,
    compose,
    hat_step,
    lift_phi,
    lift_psi,
    make_endomorphism,
    parse_weyl,
    specialize_element,
)
from qweyl import hatmap, torus
from qweyl.center import NotCentralError, theta, theta_inverse
from qweyl.hatmap import CentralityFailure
from qweyl.morphisms import Endomorphism, apply_endo, specialize_endomorphism
from qweyl.scalars import LaurentPoly, euler_phi, inverse_one_minus_q, specialize
from qweyl.torus import (Torus, _binomial_power, _classes, _contract, _half_route, _norm_power,
                         _over_t_minus_1, _packed, _readout, central_power, specialize_torus,
                         to_torus, torus_power_cost, torus_powers)
from qweyl.weylcore import WeylElement, f_i, power

from conftest import identity_endomorphism, random_element

PHI = ("x1^2", "2", "1 + x1 - 3*x1^3")
PSI = ("d1^2", "2", "1 + d1 - 3*d1^3")


def _lifts():
    ctx = AlgebraContext.symbolic(1)
    return ([lift_phi(ctx, parse_weyl(f, ctx)) for f in PHI]
            + [lift_psi(ctx, parse_weyl(g, ctx)) for g in PSI])


def _full_chain(t):
    """central_power by the chain to the l-th power, read as the composite
    levels read it: the oracle of the half route."""
    level = t.context.level
    return _readout(t, torus_powers(t, {level})[level])


def _central_product(t, left, right):
    """The nonzero central terms of left * right, for two unpacked values
    of t's chain at one pair, by Cyclo products: the oracle of the packed
    contraction (torus._contract).  A term u = y^a f^b of left meets only
    the terms y^c f^e of right with c = -a and e = -b mod l, and then the
    twist q^(s b c) of the product rule is q^(-s a b), one rotation per
    term of left."""
    ctx, level = t.context, t.context.level
    sign = 1 if t.x_side[0] else -1
    classes = {}
    for ((c,), (e,)), v in right.items():
        classes.setdefault((c % level, e % level), []).append((c, e, v))
    out = {}
    for ((a,), (b,)), u in left.items():
        meets = classes.get((-a % level, -b % level))
        if not meets:
            continue
        j = -sign * a * b % level
        if j:
            u = u * ctx.t_power(j)
        for c, e, v in meets:
            key = ((a + c,), (b + e,))
            cur = out.get(key)
            out[key] = u * v if cur is None else cur + u * v
    return {key: v for key, v in out.items() if v}


def _pbw_route(e, p, level):
    e_l = specialize_endomorphism(e, level)
    try:
        return theta_inverse(apply_endo(e_l, theta(p, level)))
    except NotCentralError as err:
        return CentralityFailure(level, str(err))


@pytest.fixture
def torus_only():
    """hat_step has no way back to the PBW route, so that a fault of the
    torus that makes a power look non-central cannot hide behind it."""
    assert not hasattr(hatmap, "apply_endo") and not hasattr(hatmap, "theta_inverse")


def test_hat_step_equals_the_pbw_route_on_the_pair_lifts(torus_only):
    r1, s1 = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    polys = (r1, s1, r1 * s1, r1 * r1 + s1)
    for e in _lifts():
        for level in (2, 3, 4, 6, 9, 12, 13):
            for p in polys:
                assert hat_step(e, p, level) == _pbw_route(e, p, level), (level, p)


def _shear_maps():
    ctx = AlgebraContext.symbolic(2)
    x1, x2, d1, d2 = ctx.x(1), ctx.x(2), ctx.d(1), ctx.d(2)
    shear = make_endomorphism(ctx, [x1, x2], [d1 + x2 * f_i(ctx, 1), d2 + x1 * f_i(ctx, 2)])
    pair = make_endomorphism(ctx, [x1, x2], [d1 + x1 * x1 * f_i(ctx, 1), d2])
    return [identity_endomorphism(ctx), shear, compose(shear, pair), compose(pair, shear)]


def test_hat_step_equals_the_pbw_route_at_two_pairs(torus_only):
    r1, s1, r2, s2 = (CenterPoly.r(2, 1), CenterPoly.s(2, 1),
                      CenterPoly.r(2, 2), CenterPoly.s(2, 2))
    for e in _shear_maps():
        for level in (3, 5, 7):
            for p in (r1, s1, r2, s2, r1 * s2 + 2 * r2):
                assert hat_step(e, p, level) == _pbw_route(e, p, level), (level, p)


def test_central_power_equals_the_normal_ordered_power(rng):
    # random elements, central powers or not: x1*d1 = (f - 1)/(q - 1) has
    # (f - 1)^l, which is not central
    seen = set()
    for level in (2, 3, 4, 5, 6):
        for n in (1, 2):
            ctx = AlgebraContext.root_of_unity(n, level)
            elements = [random_element(rng, ctx, max_exp=2, degree_cap=3) for _ in range(4)]
            for a in elements + [ctx.x(1) * ctx.d(1), ctx.d(n) + ctx.x(1)]:
                if not a:
                    continue
                try:
                    want = theta_inverse(power(a, level))
                except NotCentralError:
                    want = None
                assert central_power(to_torus(a)) == want, (level, a)
                seen.add(want is None)
    assert seen == {True, False}


def test_central_power_equals_the_full_chain_on_the_lifts():
    # at prime levels central_power stops the chain at a^(l - floor(l/2))
    ctx = AlgebraContext.symbolic(1)
    maps = _lifts() + [compose(lift_phi(ctx, {1: 1}), lift_phi(ctx, {2: 1})),
                       compose(lift_psi(ctx, {2: 1}), lift_phi(ctx, {0: 2}))]
    for level in (2, 3, 5, 7, 13, 31):
        for e in maps:
            for image in e.images_x + e.images_d:
                t = to_torus(specialize_element(image, level))
                got = central_power(t)
                assert got is not None and got == _full_chain(t), (level, image)


def _forged(rng, ctx):
    """Torus elements (x side or d side) of four kinds: y^a u(f) and
    u(y) f^b, whose l-th powers are norms, so central, for l not dividing
    a or b; random sums, mostly not; and central sums."""
    level = ctx.level

    def coeff():
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        return c * ctx.t_power(rng.randrange(level))

    a = rng.randint(1, 3)
    kinds = [{((a,), (b,)): coeff() for b in rng.sample(range(4), rng.randint(1, 3))},
             {((b,), (a,)): coeff() for b in rng.sample(range(4), rng.randint(1, 3))},
             {((rng.randint(0, 3),), (rng.randint(0, 3),)): coeff() for _ in range(3)},
             {((level * rng.randint(0, 1),), (level * j,)): coeff() for j in range(2)}]
    return [Torus(ctx, (x_side,), terms, rng.randint(0, 1)) for terms in kinds
            for x_side in (True, False)]


def test_central_power_equals_the_full_chain_on_random_elements(rng):
    # at each prime level >= 3 also at one primitive q = zeta^qpow, qpow != 1,
    # which the twists of the chain and of the contraction rotate by
    seen = set()
    for level in range(2, 12):
        prime = euler_phi(level) == level - 1
        for qpow in (1, rng.randrange(2, level)) if prime and level > 2 else (1,):
            ctx = AlgebraContext.root_of_unity(1, level, qpow)
            elements = [to_torus(a) for a in (random_element(rng, ctx, max_exp=2, degree_cap=3)
                                              for _ in range(6)) if a]
            for t in elements + _forged(rng, ctx):
                got = central_power(t)
                assert got == _full_chain(t), (level, qpow, t.terms)
                if prime:
                    seen.add(got is None)
    assert seen == {True, False}


def test_the_packed_contraction_equals_the_cyclo_products():
    # the half route contracts the chain's packed values; the oracle
    # multiplies their Cyclo terms.  The lift of x1/2 + 3 x1^2 has
    # denominators 2^k; on the cubic lift at l = 31 and 43 the contracted
    # values come from steps of different slot widths.  Below a^l every
    # central sum of a lift cancels (tau(a^k) = 0), at a^l some survive.
    # The forged (5 - 5q)(y + y^2) at l = 3 has -150 q in a * a, a slot
    # that the reduction takes past its bound of 100 (two pairs of max|u|
    # 5 and sum|v| 10): the codec's spare bit holds it.
    ctx = AlgebraContext.symbolic(1)
    cases = [(to_torus(specialize_element(image, level)), True)
             for f, levels in (("(1/2)*x1 + 3*x1^2", (2, 3, 5, 7, 13)),
                               ("1 + x1 - 3*x1^3", (31, 43)))
             for e in [lift_phi(ctx, parse_weyl(f, ctx))]
             for level in levels for image in e.images_x + e.images_d]
    c = 5 - 5 * Cyclo.zeta(3)
    cases.append((Torus(AlgebraContext.root_of_unity(1, 3), (True,),
                        {((1,), (0,)): c, ((2,), (0,)): c}, 0), False))
    outcomes, same_codec = set(), set()
    for t, lift in cases:
        level = t.context.level
        wanted = range(1, level - level // 2 + 1)
        keys, packer, values = _packed(t, wanted)
        unpacked = torus_powers(t, wanted)
        for k in range(2, level + 1):
            k1, k2 = k // 2, k - k // 2
            sums, codec = _contract(t, packer, *_classes(t, keys, k1, *values[k1]),
                                    *_classes(t, keys, k2, *values[k2]))
            got = {key: packer.unpack(v, k, codec) for key, v in sums.items()}
            assert got == _central_product(t, unpacked[k1], unpacked[k2]), (t.terms, k)
            if lift:
                outcomes.add((k == level, bool(got)))
            same_codec.add(values[k1][1] is values[k2][1])
    assert outcomes == {(False, False), (True, True)} and same_codec == {True, False}


def _square_lift_power(level):
    """theta_inverse of the l-th power of d1 of lift_phi(x1^2): r1 + s1^2 +
    eps s1^3 r1, eps = -(1 - q)^l."""
    q = Cyclo.zeta(level)
    return (CenterPoly.r(1, 1) + CenterPoly.monomial(1, (0,), (2,))
            + CenterPoly.monomial(1, (1,), (3,), -(Cyclo.one(level) - q) ** level))


def test_central_power_of_the_square_lift_at_level_101():
    # the half route, which central_power no longer takes for this image
    # (the norm route below): the chain to a^51 and 50 contractions read it
    level = 101
    image = lift_phi(AlgebraContext.symbolic(1), {2: 1}).images_d[0]
    t = to_torus(specialize_element(image, level))
    start = time.perf_counter()
    got = _half_route(t)
    elapsed = time.perf_counter() - start
    assert got == _square_lift_power(level)
    assert elapsed < 2.5  # about 0.4 s on a 2-core machine; the full chain 3.9 s


def test_the_norm_route_of_the_square_lift_at_levels_101_and_211():
    # a^l = N(B) f^l + A^l, with no chain: the value of the half route above
    image = lift_phi(AlgebraContext.symbolic(1), {2: 1}).images_d[0]
    for level, bound in ((101, 0.5), (211, 2.5)):
        t = to_torus(specialize_element(image, level))
        assert _norm_power(t) is not None
        start = time.perf_counter()
        got = central_power(t)
        elapsed = time.perf_counter() - start
        assert got == _square_lift_power(level)
        # about 0.013 s and 0.1 s on a 2-core machine; the half route 0.4 s
        # and 13.5 s
        assert elapsed < bound, level


def test_central_power_keeps_the_chain_packed():
    # on the half route the chain to a^27 stays packed integers, and only
    # the central terms of a^53 become Cyclo: a traced peak of about 2.3 MB,
    # where unpacking every value of the chain peaks at 7.9 MB
    level = 53
    image = lift_phi(AlgebraContext.symbolic(1), {2: 1}).images_d[0]
    t = to_torus(specialize_element(image, level))
    tracemalloc.start()
    try:
        assert _half_route(t) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_two_pairs_keep_the_full_chain():
    # x1 + x2 has no central part below its l-th power, which is not
    # central: the reduced-trace criterion holds at n = 1 only
    level = 5
    ctx = AlgebraContext.root_of_unity(2, level)
    t = to_torus(ctx.x(1) + ctx.x(2))
    for k, terms in torus_powers(t, range(1, level)).items():
        assert not any(all(e % level == 0 for e in a + b) for a, b in terms), k
    assert central_power(t) is None


def test_two_pairs_keep_the_full_chain_past_two_terms():
    # x1 + x2 above is raised in closed form; three or more terms at n = 2
    # take the chain to the l-th power, central or not
    outcomes = set()
    for level in (3, 5, 6):
        ctx = AlgebraContext.root_of_unity(2, level)
        x1, x2, d1 = ctx.x(1), ctx.x(2), ctx.d(1)
        elements = [x1 + x2 + d1, x1 * x2 + x2 + 3 * x1]
        elements += [specialize_element(image, level) for e in _shear_maps()[2:]
                     for image in e.images_d]
        for t in (t for t in map(to_torus, elements) if len(t.terms) >= 3):
            got = central_power(t)
            assert got == _full_chain(t), (level, t.terms)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def _twist(t, b, c):
    """s<b, c>: the exponent of q in y^. f^b * y^c f^. at t's sides."""
    return sum((1 if x_side else -1) * u * v for x_side, u, v in zip(t.x_side, b, c))


def _closed_form_cases(rng):
    """Torus forms of one and two terms at l = 2..13, n = 1 and 2, each
    side, qpow = 1 and != 1, m from 0 to 2.  In the pairs u = y^a f^b,
    v = y^c f^e, with v u = q^w u v, the exponent e runs over 0..l - 1, so
    w = s<e, a> - s<b, c> takes every class mod l, and q^w every order d
    that divides l."""
    for level in range(2, 14):
        for qpow in sorted({1, max(j for j in range(1, level) if math.gcd(j, level) == 1)}):
            for n in (1, 2):
                ctx = AlgebraContext.root_of_unity(n, level, qpow)

                def coeff():
                    c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
                    return c * ctx.t_power(rng.randrange(level))

                if n == 1:
                    sides = [(True,), (False,)]
                    monos = [((a,), (b,)) for a in (-1, 0, 2) for b in (0, 1, 3)]
                    pairs = [(((1,), (1,)), ((2,), (e,))) for e in range(level)]
                    pairs += [(((-1,), (2,)), ((1,), (e,))) for e in range(0, level, 3)]
                else:
                    sides = [(True, False), (False, True)]
                    monos = [((1, -1), (2, 1)), ((0, 2), (1, 0))]
                    pairs = [(((1, 0), (1, 1)), ((2, 1), (e, 0))) for e in range(level)]
                for x_side in sides:
                    for terms in ([{u: coeff()} for u in monos]
                                  + [{u: coeff(), v: coeff()} for u, v in pairs]):
                        yield Torus(ctx, x_side, terms, rng.randint(0, 2))


def test_the_closed_form_equals_the_chain(rng):
    # the q-binomial theorem and the monomial power against torus_powers,
    # term for term, at every order d of q^w: commuting pairs (d = 1),
    # u^l + v^l (d = l) and, at composite levels, 1 < d < l
    orders = {}
    for t in _closed_form_cases(rng):
        level = t.context.level
        assert _binomial_power(t) == torus_powers(t, {level})[level], (level, t.x_side, t.terms)
        if len(t.terms) == 2:
            (a, b), (c, e) = t.terms
            w = _twist(t, e, a) - _twist(t, b, c)
            orders.setdefault(level, set()).add(level // math.gcd(w, level))
    for level, seen in orders.items():
        assert seen == {d for d in range(1, level + 1) if level % d == 0}, level


def test_one_and_two_terms_take_the_closed_form(monkeypatch):
    # with the chain raising, central_power still answers every form of at
    # most two terms: the images of the pair lifts and of the n = 2 maps,
    # and x1 d1 = (f - 1)/(q - 1) and x1 + x2, whose powers are not central
    cases = [to_torus(specialize_element(image, level))
             for level in range(2, 14)
             for e in _lifts() + _shear_maps()
             for image in e.images_x + e.images_d]
    for level in (3, 4, 5):
        one, two = AlgebraContext.root_of_unity(1, level), AlgebraContext.root_of_unity(2, level)
        cases += [to_torus(one.x(1) * one.d(1)), to_torus(two.x(1) + two.x(2))]
    cases = [t for t in cases if len(t.terms) <= 2]
    want = [_full_chain(t) for t in cases]
    three = to_torus(specialize_element(_outside_the_norm_shape(), 5))
    assert len(three.terms) >= 3 and _norm_power(three) is None

    def chain(*args):
        raise AssertionError("the chain ran")

    # the name torus calls, weylcore's _packed_chain
    monkeypatch.setattr(torus, "_packed_chain", chain)
    with pytest.raises(AssertionError, match="the chain ran"):
        central_power(three)
    for t, expected in zip(cases, want):
        assert central_power(t) == expected, (t.context, t.terms)
    assert {expected is None for expected in want} == {True, False}


def _outside_the_norm_shape():
    """d1 of psi(d1^2) o phi(x1^2), whose torus form has f-exponents up to
    3: no torus form of it takes the norm route."""
    ctx = AlgebraContext.symbolic(1)
    return compose(lift_psi(ctx, {2: 1}), lift_phi(ctx, {2: 1})).images_d[0]


def _norm_cases(rng, levels=(*range(2, 14), 17, 19, 23, 31)):
    """Torus forms A + B f of three or more terms at one pair: the images
    of the phi and psi lifts and of x1 o x1^2 (A = c y^-1 and B of 2 to 4
    terms) at each level, at q = zeta and, below l = 31, at a second
    primitive root q = zeta^qpow; and, up to l = 13, forged forms B f
    (A = 0) on each side, whose lowest coefficient of B runs over rational
    multiples of every power of q, those of more than one coordinate among
    them."""
    ctx = AlgebraContext.symbolic(1)
    images = [image for e in _lifts() + [compose(lift_phi(ctx, {1: 1}), lift_phi(ctx, {2: 1}))]
              for image in e.images_x + e.images_d]
    for level in levels:
        qpows = {1, max(j for j in range(1, level) if math.gcd(j, level) == 1)}
        for qpow in sorted(qpows) if level < 31 else (1,):
            root = AlgebraContext.root_of_unity(1, level, qpow)
            for image in images:
                t = to_torus(WeylElement(root, {key: specialize(c, level, qpow)
                                                for key, c in image.terms.items()}))
                if len(t.terms) >= 3:
                    yield t
            if level > 13:
                continue
            for j in range(level):
                b0 = Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 3)) * root.t_power(j)
                rest = [rng.randint(-2, 2) + root.t_power(rng.randrange(level)) for _ in range(2)]
                terms = {((1,), (1,)): b0, ((2,), (1,)): rest[0], ((4,), (1,)): rest[1]}
                yield Torus(root, (j % 2 == 0,), terms, rng.randint(0, 1))


def test_the_norm_route_equals_the_chain(rng):
    # A^l + N(B) f^l against the chain's l-th power, term for term, and
    # read out; b0 = c q^j of one coordinate and of more than one.  Some
    # forms decline the route: at l = 2 one image is rewritten on the side
    # where f^3 appears, and at l = 10 and 12, where 1 - q is a unit,
    # to_torus divides the lifts by q - 1, so b0 = +-1/(q - 1), which is
    # no rational multiple of a power of q.
    levels, sides, qpows, spread, declined = set(), set(), set(), set(), set()
    for t in _norm_cases(rng):
        level = t.context.level
        terms, chain = _norm_power(t), torus_powers(t, {level})[level]
        assert central_power(t) == _readout(t, chain), (level, t.x_side, t.terms)
        if terms is None:
            declined.add(level)
            continue
        assert terms == chain, (level, t.x_side, t.terms)
        b0 = t.terms[min(key for key in t.terms if key[1] == (1,))]
        levels.add(level)
        sides.add(t.x_side)
        qpows.add(t.context.qpow != 1)
        spread.add(sum(1 for c in b0.num if c) > 1)
    assert levels == {*range(2, 14), 17, 19, 23, 31} and declined == {2, 10, 12}
    assert sides == {(True,), (False,)} and qpows == spread == {True, False}


def test_the_norm_route_runs_no_chain(rng, monkeypatch):
    # with the chain raising, central_power still answers every form of the
    # norm route's shape
    cases = [t for t in _norm_cases(rng, range(2, 14)) if _norm_power(t) is not None]
    want = [_full_chain(t) for t in cases]
    three = to_torus(specialize_element(_outside_the_norm_shape(), 7))

    def chain(*args):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(torus, "_packed_chain", chain)
    with pytest.raises(AssertionError, match="the chain ran"):
        central_power(three)
    for t, expected in zip(cases, want):
        assert central_power(t) == expected, (t.context.level, t.terms)


def test_the_norm_route_declines_other_forms():
    # A = c y^e with gcd(e, l) > 1, where the conjugates of A repeat and
    # a^l is not A^l + N(B) f^l; a b0 that is no rational multiple of a
    # power of q; and f-exponents past 1.  Each takes the chain.
    cases = []
    for level, e in ((4, 4), (4, 2), (6, 3), (6, 12), (9, 3), (5, 5)):
        ctx = AlgebraContext.root_of_unity(1, level)
        q = ctx.t_power(1)
        for x_side in (True, False):
            cases.append(Torus(ctx, (x_side,), {((e,), (0,)): 2 * q, ((1,), (1,)): q ** 0,
                                                ((2,), (1,)): q - 1}, 1))
    for level in (5, 6):
        ctx = AlgebraContext.root_of_unity(1, level)
        q = ctx.t_power(1)
        cases.append(Torus(ctx, (True,), {((1,), (0,)): -q ** 0, ((1,), (1,)): 1 + 2 * q,
                                          ((2,), (1,)): q - 1}, 1))
    cases.append(to_torus(specialize_element(_outside_the_norm_shape(), 6)))
    for t in cases:
        assert _norm_power(t) is None, (t.context.level, t.terms)
        assert central_power(t) == _full_chain(t), (t.context.level, t.terms)


def test_torus_powers_equal_the_converted_normal_ordered_powers(rng):
    # every step of the chain, not only the l-th one, whose central part
    # alone would not see a twist q^(-s <b, c>) in place of q^(s <b, c>)
    for level in (5, 6):
        for n in (1, 2):
            ctx = AlgebraContext.root_of_unity(n, level)
            q_minus_1 = ctx.t_power(1) - ctx.one_scalar()
            elements = [random_element(rng, ctx, max_exp=2, degree_cap=3) for _ in range(3)]
            lifted = lift_phi(AlgebraContext.symbolic(1), {2: 1}).images_d[0]
            if n == 1:
                elements.append(specialize_element(lifted, level))
            for a in elements:
                if not a:
                    continue
                t = to_torus(a)
                for k, terms in torus_powers(t, range(1, 5)).items():
                    # terms are (q - 1)^(m k) a^k, and want's (q - 1)^m' a^k
                    want = to_torus(power(a, k))
                    assert ({key: c * q_minus_1 ** want.m for key, c in terms.items()}
                            == {key: c * q_minus_1 ** (t.m * k)
                                for key, c in want.terms.items()}), (a, k)


def test_the_side_with_fewer_terms_is_taken():
    ctx = AlgebraContext.symbolic(1)
    level = 7

    def side(e, x_image):
        img = (e.images_x if x_image else e.images_d)[0]
        return to_torus(specialize_element(img, level))

    # d + x^2 f = x^-1 (f - 1)/(q - 1) + x^2 f on the x side
    square = side(lift_phi(ctx, {2: 1}), False)
    assert square.x_side == (True,) and square.m == 1 and len(square.terms) == 3
    # d + 2f: the d side does not rewrite d at all
    two = side(lift_phi(ctx, {0: 2}), False)
    assert two.x_side == (False,) and two.m == 0
    assert two.terms == {((1,), (0,)): 1, ((0,), (1,)): 2}
    assert side(lift_psi(ctx, {2: 1}), True).x_side == (False,)
    # a tie takes x
    assert side(lift_phi(ctx, {0: 2}), True).x_side == (True,)


ORACLE = ("x1^2", "2", "1 + x1 - 3*x1^3", "x1 + x1^2", "t*x1", "(1/2)*x1 + 3*x1^2", "-x1^2",
          "x1^3")


def _oracle_images():
    """(label, symbolic image): both images of the phi and psi lifts of the
    ORACLE polynomials (psi's in d1), of x1 o x1^2, and of the n = 2 shear
    S and the quartic shear."""
    ctx = AlgebraContext.symbolic(1)
    images = []
    for f in ORACLE:
        for kind, lift, g in (("phi", lift_phi, f), ("psi", lift_psi, f.replace("x1", "d1"))):
            e = lift(ctx, parse_weyl(g, ctx))
            images += [(f"{kind}({g}) x1", e.images_x[0]), (f"{kind}({g}) d1", e.images_d[0])]
    composite = compose(lift_phi(ctx, {1: 1}), lift_phi(ctx, {2: 1}))
    images += [("x1 o x1^2 x1", composite.images_x[0]), ("x1 o x1^2 d1", composite.images_d[0])]
    two = AlgebraContext.symbolic(2)
    x1, x2, d1, d2 = two.x(1), two.x(2), two.d(1), two.d(2)
    f1, f2 = f_i(two, 1), f_i(two, 2)
    for name, images_d in (("shear", [d1 + x2 * f1, d2 + x1 * f2]),
                           ("quartic", [d1 + x1 * x2 * x2 * f1, d2 + x1 * x1 * x2 * f2])):
        e = make_endomorphism(two, [x1, x2], images_d)
        images += [(f"{name} d{i + 1}", image) for i, image in enumerate(e.images_d)]
    return images


def _at_root(image, root):
    """The image specialized at the root of the context root, any qpow."""
    return WeylElement(root, {key: specialize(c, root.level, root.qpow)
                              for key, c in image.terms.items()})


def test_the_symbolic_form_evaluates_to_the_root_conversion():
    # to_torus over Q(t), evaluated at a level, against to_torus at the
    # root: the same support wherever both take the same side, the same
    # terms wherever m agrees as well, and the same central_power.  The
    # forms differ by (q - 1)^(m - m') only: m' < m at the levels that are
    # no prime power, where q - 1 is a unit and the root conversion divides
    # by it to m' = 0, on every image of three terms; the side differs where
    # a coefficient vanishes at the level and makes a tie of term counts.
    # A coefficient vanishes at zeta_l^qpow as at zeta_l, so the sets do not
    # depend on qpow; central_power is compared on both forms at qpow = 1,
    # and at qpow != 1 where the side differs.  The full chain, which the
    # root conversion's forms of three terms run at those levels, takes
    # about 4 s of this test on a 2-core machine.
    levels = (*range(2, 24), 29, 31)
    sides, ms = set(), set()
    for label, image in _oracle_images():
        form = to_torus(image)
        for level in levels:
            for qpow in sorted({1, max(j for j in range(1, level) if math.gcd(j, level) == 1)}):
                root = AlgebraContext.root_of_unity(image.context.n, level, qpow)
                got, want = specialize_torus(form, root), to_torus(_at_root(image, root))
                if got.x_side != want.x_side:
                    sides.add((label, level))
                    assert central_power(got) == central_power(want), (label, level, qpow)
                    continue
                assert set(got.terms) == set(want.terms), (label, level, qpow)
                if got.m == want.m:
                    assert got.terms == want.terms, (label, level, qpow)
                    continue
                ms.add((label, level, got.m, want.m))
                scale = (root.t_power(1) - 1) ** (got.m - want.m)
                assert got.terms == {key: c * scale for key, c in want.terms.items()}
                if qpow == 1:
                    assert central_power(got) == central_power(want), (label, level)
    assert sides == {("psi(d1^2) x1", 2), ("psi(-d1^2) x1", 2), ("psi(d1^3) x1", 3)}
    three = ({f"phi({f}) d1" for f in ORACLE if f != "2"}
             | {f"psi({f.replace('x1', 'd1')}) x1" for f in ORACLE if f != "2"}
             | {"x1 o x1^2 d1", "quartic d1", "quartic d2"})
    assert ms == {(label, level, 1, 0) for label in three
                  for level in (6, 10, 12, 14, 15, 18, 20, 21, 22)}


def test_forged_symbolic_forms_evaluate_to_the_root_conversion():
    # each against the central_power of the root conversion: a coefficient
    # that vanishes at the level is dropped; a form whose coefficients
    # (t - 1)^2 divides lowers m twice; and a coefficient 3, which
    # (1 - q)^2 divides at l = 3 but no power of t - 1 divides, keeps the
    # m of Q(t), where the root conversion lowers it
    ctx = AlgebraContext.symbolic(1)
    x1, d1, f = ctx.x(1), ctx.d(1), f_i(ctx, 1)
    t = ctx.t_power(1)

    def check(a, level):
        root = AlgebraContext.root_of_unity(1, level)
        got, want = specialize_torus(to_torus(a), root), to_torus(specialize_element(a, level))
        assert central_power(got) == central_power(want), (a, level)
        return got, want

    vanishing = d1 + x1 * x1 * f + (1 + t + t * t) * x1 * x1 * x1 * f
    form = to_torus(vanishing)
    assert form.x_side == (True,) and ((3,), (1,)) in form.terms
    got, want = check(vanishing, 3)
    assert set(got.terms) == set(want.terms) == {((-1,), (0,)), ((-1,), (1,)), ((2,), (1,))}
    for level in (2, 4, 5, 6):
        assert ((3,), (1,)) in check(vanishing, level)[0].terms

    plain = d1 * d1 + x1 + x1 * x1 + x1 * x1 * x1
    squared = (t - 1) ** 2 * plain
    low, high = to_torus(squared), to_torus(plain)
    assert (low.m, high.m) == (0, 2) and low.x_side == high.x_side == (True,)
    assert low.terms == high.terms
    for level in (2, 3, 4, 5, 6, 7):
        check(squared, level)

    three = 3 * (d1 + x1 * x1 * f)
    got, want = check(three, 3)
    assert (got.m, want.m) == (1, 0)
    assert (to_torus(three).m, check(three, 5)[1].m) == (1, 1)


def test_the_lowering_divides_by_t_minus_1_exactly(rng):
    # synthetic division at 1: (t - 1) p / (t - 1) is p, and a p with
    # p(1) != 0 is not divided
    t_minus_1 = LaurentPoly({1: 1, 0: -1})
    for _ in range(50):
        low = rng.randint(-3, 3)
        p = LaurentPoly({low + k: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                         for k in range(rng.randint(1, 6))})
        if not p:
            continue
        assert _over_t_minus_1(t_minus_1 * p) == p, p
        assert _over_t_minus_1(t_minus_1 * t_minus_1 * p) == t_minus_1 * p, p
        if sum(p.coeffs.values()):
            assert _over_t_minus_1(p) is None, p


def test_torus_powers_of_a_two_term_image_stay_small():
    # d + 2f on the d side: (d + 2f)^k has at most k + 1 terms d^i f^j
    ctx = AlgebraContext.symbolic(1)
    level = 31
    image = specialize_element(lift_phi(ctx, {0: 2}).images_d[0], level)
    t = to_torus(image)
    powers = torus_powers(t, range(1, level + 1))
    for k, terms in powers.items():
        assert len(terms) <= k + 1, k
        assert all(a[0] >= 0 and a[0] + b[0] == k for a, b in terms)


def test_torus_terms_stay_under_the_estimate_bound():
    # after step k the chain holds at most min(C(k + T - 1, T - 1), box_k)
    # terms, box_k the product over the pairs of (k da_i + 1)(k db_i + 1),
    # which torus_power_cost sums over the steps
    ctx = AlgebraContext.symbolic(1)
    images = [img for e in _lifts() for img in e.images_x + e.images_d]
    images += list(compose(lift_phi(ctx, {1: 1}), lift_phi(ctx, {2: 1})).images_d)
    for e in _shear_maps()[1:]:
        images += list(e.images_d)
    reached = 0
    for level in (5, 7, 13):
        for image in images:
            t = to_torus(specialize_element(image, level))
            size = len(t.terms)
            spans = [max(key[s][i] for key in t.terms) - min(key[s][i] for key in t.terms)
                     for s in (0, 1) for i in range(image.context.n)]
            bounds = [min(math.comb(k + size - 1, size - 1), math.prod(k * d + 1 for d in spans))
                      for k in range(level + 1)]
            for k, terms in torus_powers(t, range(1, level + 1)).items():
                assert len(terms) <= bounds[k], (image, level, k)
                reached += len(terms) == bounds[k]
            assert torus_power_cost(t, level) == euler_phi(level) * size * sum(bounds[:level])
    assert reached


def test_a_non_central_power_names_its_generator():
    # a map built without validation, with x1 -> x1 d1, whose l-th power
    # is not central, as the PBW route finds too: the level fails on s1 and
    # names x1, while r1 uses only d1 -> d1
    level = 5
    ctx = AlgebraContext.root_of_unity(1, level)
    e = Endomorphism(ctx, [ctx.x(1) * ctx.d(1)], [ctx.d(1)])
    r1, s1 = CenterPoly.r(1, 1), CenterPoly.s(1, 1)
    assert hat_step(e, s1, level) == CentralityFailure(
        level, "the 5-th power of the image of x1 is not central")
    with pytest.raises(NotCentralError):
        theta_inverse(apply_endo(e, theta(s1, level)))
    assert hat_step(e, r1, level) == r1
    assert hat_step(e, r1 * s1, level) == hat_step(e, s1, level)


def test_center_preservation_reads_the_torus(torus_only):
    for e in _lifts():
        for level in (3, 4, 5):
            assert check_center_preservation(e, level)


def test_inverse_one_minus_q_in_closed_form():
    for level in (2, 3, 4, 7, 9, 12, 30, 127):
        one_minus_q = Cyclo.one(level) - Cyclo.zeta(level)
        assert inverse_one_minus_q(level) == one_minus_q.inverse()
    for qpow in (1, 2, 3, 4):
        assert inverse_one_minus_q(5, qpow) * (Cyclo.one(5) - Cyclo.zeta(5, qpow)) == 1


def test_inverse_one_minus_q_builds_where_the_inverse_is_refused():
    # 1 - q has two coordinates, so Cyclo.inverse would multiply phi(l) - 1
    # conjugates: refused from l = 509 on.  1/(1 - q), which the torus
    # readout takes, is built in closed form at any level.
    for level in (509, 1021):
        start = time.perf_counter()
        inv = inverse_one_minus_q(level)
        assert time.perf_counter() - start < 2
        assert inv * (Cyclo.one(level) - Cyclo.zeta(level)) == 1


def test_r1_on_the_square_lift_at_level_53_in_process():
    ctx = AlgebraContext.symbolic(1)
    e_l = specialize_endomorphism(lift_phi(ctx, {2: 1}), 53)
    start = time.perf_counter()
    got = hat_step(e_l, CenterPoly.r(1, 1), 53)
    elapsed = time.perf_counter() - start
    q = Cyclo.zeta(53)
    assert got == (CenterPoly.r(1, 1) + CenterPoly.monomial(1, (0,), (2,))
                   + CenterPoly.monomial(1, (1,), (3,), -(Cyclo.one(53) - q) ** 53))
    assert elapsed < 1.5  # about 0.2 s on a 2-core machine; 1.3 s by the PBW route
