import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qweyl import (
    Cyclo,
    MaxIdealPoint,
    NoExactRootError,
    azumaya_test,
    build_rep,
    burnside_span_dim,
    cross_check,
    embed,
)
from qweyl.matrep import (
    EXACT_RANK_MAX_LEVEL,
    NUMERIC_RANK_MAX_LEVEL,
    MatRep,
    NilpotentRep,
    _int_nth_root,
    _matmul,
)


def _max_entry(m):
    return max(abs(embed(v)) for row in m for v in row)


def _residual(rep):
    """max |YX - qXY - I| entrywise, after embedding."""
    YX, XY = _matmul(rep.Y, rep.X), _matmul(rep.X, rep.Y)
    return _max_entry([[v - rep.q * w - int(i == j) for j, (v, w) in enumerate(zip(yx, xy))]
                       for i, (yx, xy) in enumerate(zip(YX, XY))])


def _powers(m, count):
    """m^0, ..., m^(count-1), over the field of m's entries."""
    zero = m[0][0] * 0
    out = [[[zero + int(i == j) for j in range(len(m))] for i in range(len(m))]]
    for _ in range(1, count):
        out.append(_matmul(out[-1], m))
    return out


def _power_residual(rep):
    """max |X^l - a I| and |Y^l - b I| entrywise, after embedding."""
    l = rep.level
    return max(
        _max_entry([[v - value * int(i == j) for j, v in enumerate(row)]
                    for i, row in enumerate(_matmul(_powers(m, l)[-1], m))])
        for m, value in ((rep.X, rep.a), (rep.Y, rep.b))
    )


def _exact_rank(rows):
    """Rank of exact rows by elimination on the first nonzero entry."""
    work = [row[:] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pinv = 1 / prow[col]
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                scale = work[r][col] * pinv
                work[r] = [v - scale * w for v, w in zip(work[r], prow)]
        rank += 1
    return rank


def _span_rank_reference(l, a, b):
    """Rank of the l^2 flattened products X^i Y^j of build_rep(l, a, b): the
    l^2 x l^2 route that burnside_span_dim reduces to l ranks of l x l."""
    rep = build_rep(l, a, b)
    assert rep.exact
    xs, ys = _powers(rep.X, l), _powers(rep.Y, l)
    return _exact_rank([[v for row in _matmul(Xi, Yj) for v in row] for Xi in xs for Yj in ys])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_level_two_explicit():
    rep = build_rep(2, 1, 1)
    assert rep.exact
    assert rep.X[0][0] == 1 and rep.X[1][1] == Fraction(-1)
    assert rep.X[0][1] == 0 and rep.X[1][0] == 0
    assert rep.Y[0][0] == Fraction(1, 2) and rep.Y[1][1] == Fraction(-1, 2)
    # band product solves Y^2 = I
    Y2 = _matmul(rep.Y, rep.Y)
    assert Y2[0][0] == 1 and Y2[1][1] == 1 and Y2[0][1] == 0 and Y2[1][0] == 0


def test_relations_exact_mode():
    for l, a, b in [(2, 1, 1), (2, Fraction(1, 4), 1), (3, 1, 2), (5, 1, Fraction(1, 3))]:
        rep = build_rep(l, a, b)
        assert rep.exact
        assert _residual(rep) < 1e-9
        assert _power_residual(rep) < 1e-9


def test_relations_numeric_mode():
    rng = random.Random(5)
    for l in (2, 3, 5):
        for _ in range(4):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            rep = build_rep(l, a, b)
            assert not rep.exact
            assert _residual(rep) < 1e-9
            assert _power_residual(rep) < 1e-9


def test_mirrored_construction_when_a_vanishes():
    rep = build_rep(3, 0, 1)
    assert isinstance(rep, MatRep)
    assert _residual(rep) < 1e-9
    assert _power_residual(rep) < 1e-9


def test_nilpotent_representation():
    rep = build_rep(3, 0, 0)
    assert isinstance(rep, NilpotentRep)
    assert _residual(rep) < 1e-12
    # quantum-derivative action: Y x^m = [m]_q x^(m-1)
    q = Cyclo.zeta(3)
    assert rep.Y[0][1] == Cyclo.one(3)
    assert rep.Y[1][2] == Cyclo.one(3) + q


def test_power_constraints_hold_exactly():
    for l, a, b in [(2, 1, 1), (2, Fraction(1, 4), Fraction(1, 4)), (3, 1, 2), (3, 0, 1)]:
        rep = build_rep(l, a, b)
        assert rep.exact
        Xl = rep.X
        Yl = rep.Y
        for _ in range(l - 1):
            Xl = _matmul(Xl, rep.X)
            Yl = _matmul(Yl, rep.Y)
        for i in range(l):
            for j in range(l):
                assert Xl[i][j] == (rep.a if i == j else 0)
                assert Yl[i][j] == (rep.b if i == j else 0)


def test_eigenvalues_distinct():
    for l in (2, 3, 5):
        rep = build_rep(l, 1, 1)
        eig = [rep.X[i][i] for i in range(l)]
        assert len({str(v) for v in eig}) == l


def test_x_powers_independent():
    # I, X, ..., X^(l-1) are linearly independent for a != 0
    l = 3
    rep = build_rep(l, 1, 1)
    assert _exact_rank([[v for row in P for v in row] for P in _powers(rep.X, l)]) == l


def test_exact_root_handling():
    with pytest.raises(NoExactRootError):
        build_rep(3, 2, 1)  # 2 has no rational cube root
    rep = build_rep(3, 8, 1)  # but 8 does
    assert rep.exact and rep.X[0][0] == 2


def test_int_nth_root_is_exact_at_every_size():
    # past 2**53 a float root is off by more than a unit; past 2**1024 a
    # float cannot hold the value at all
    root = 2 ** 60 + 12345
    assert _int_nth_root(root ** 3, 3) == root
    assert _int_nth_root(root ** 3 + 1, 3) is None
    assert _int_nth_root(-(root ** 3), 3) == -root
    assert _int_nth_root(10 ** 400, 3) is None
    assert _int_nth_root(10 ** 402, 3) == 10 ** 134
    assert build_rep(3, root ** 3, 1).exact


# ---------------------------------------------------------------------------
# Burnside spanning
# ---------------------------------------------------------------------------


def test_burnside_full_at_generic_point():
    assert burnside_span_dim(2, 1, 1) == 4
    assert burnside_span_dim(3, 1, 1) == 9


def test_burnside_deficient_on_boundary():
    assert burnside_span_dim(2, 1, Fraction(1, 4)) < 4
    z = Cyclo.zeta(3)
    bad = ((Cyclo.one(3) - z) ** (-3))
    assert burnside_span_dim(3, 1, bad) < 9


def test_burnside_nilpotent_full():
    assert burnside_span_dim(3, 0, 0) == 9


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_burnside_rows_match_the_full_span_rank(l):
    locus = (Cyclo.one(l) - Cyclo.zeta(l)) ** (-l)
    deficient = l * (l + 1) // 2
    for a, b in [(0, 1), (0, 3 ** l), (0, Fraction(1, 2) ** l), (0, 0),
                 (2 ** l, 3), (Fraction(-1, 2) ** l, 1)]:
        assert burnside_span_dim(l, a, b) == _span_rank_reference(l, a, b)
    for a, b in [(1, locus), (2 ** l, locus / 2 ** l)]:
        assert burnside_span_dim(l, a, b) == _span_rank_reference(l, a, b) == deficient
    # a = 2 has no rational l-th root, so no exact representation to compare
    assert burnside_span_dim(l, 2, 3) == l * l
    assert burnside_span_dim(l, 2, locus / 2) == deficient


def test_rank_dichotomy_random_numeric():
    rng = random.Random(6)
    for l in (3, 5):
        for _ in range(5):
            a = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            rank = burnside_span_dim(l, a, b)
            point = MaxIdealPoint([a], [b])
            assert (rank == l * l) == azumaya_test(point, l)


# ---------------------------------------------------------------------------
# the consistency sweep
# ---------------------------------------------------------------------------


def test_cross_check_level_two_grid():
    grid = [Fraction(0), Fraction(1, 4), Fraction(1)]
    result = cross_check(2, [(a, b) for a in grid for b in grid])
    assert result["all_agree"]
    deficient = [e for e in result["points"] if not e["full"]]
    # exactly the pairs with a*b = 1/4
    assert len(deficient) == 2


def test_cross_check_boundary_level_three():
    z = Cyclo.zeta(3)
    bad = (Cyclo.one(3) - z) ** (-3)
    result = cross_check(3, [(Fraction(1), bad)])
    assert result["all_agree"]
    assert not result["points"][0]["full"]


def test_cross_check_rejects_large_levels():
    with pytest.raises(ValueError, match=f"l <= {EXACT_RANK_MAX_LEVEL}"):
        cross_check(EXACT_RANK_MAX_LEVEL + 1, [(1, 1)])
    with pytest.raises(ValueError, match=f"l <= {NUMERIC_RANK_MAX_LEVEL}"):
        cross_check(NUMERIC_RANK_MAX_LEVEL + 1, [(1.0, 1)])


def test_importing_qweyl_leaves_numpy_unloaded():
    # no part of qweyl needs numpy, the numeric Burnside rank included
    import qweyl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qweyl.__file__)))
    code = (
        "import sys, qweyl, qweyl.cli\n"
        "assert qweyl.cli.run(['azumaya', '--l', '3', '--a', '1.0', '--b', '1', '--burnside']) == 0\n"
        "assert qweyl.cli.run(['sweep', '--only', '9']) == 0\n"
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"
