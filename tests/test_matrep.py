import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
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
from qweyl.matrep import MatRep, NilpotentRep, _identity, _int_nth_root, _matmul


def _residual(rep):
    """max |YX - qXY - I| entrywise, after embedding."""
    l = rep.level
    X = [[complex(embed(v)) for v in row] for row in rep.X]
    Y = [[complex(embed(v)) for v in row] for row in rep.Y]
    X, Y = np.array(X), np.array(Y)
    q = complex(embed(rep.q))
    return float(np.abs(Y @ X - q * X @ Y - np.eye(l)).max())


def _power_residual(rep):
    l = rep.level
    X = np.array([[complex(embed(v)) for v in row] for row in rep.X])
    Y = np.array([[complex(embed(v)) for v in row] for row in rep.Y])
    a = complex(embed(rep.a))
    b = complex(embed(rep.b))
    rx = float(np.abs(np.linalg.matrix_power(X, l) - a * np.eye(l)).max())
    ry = float(np.abs(np.linalg.matrix_power(Y, l) - b * np.eye(l)).max())
    return max(rx, ry)


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
    rows = []
    P = _identity(l, rep.q)
    for _ in range(l):
        rows.append([complex(embed(v)) for row in P for v in row])
        P = _matmul(P, rep.X)
    assert np.linalg.matrix_rank(np.array(rows)) == l


def test_exact_root_handling():
    with pytest.raises(NoExactRootError):
        build_rep(3, 2, 1)  # 2 has no rational cube root
    rep = build_rep(3, 8, 1)  # but 8 does
    assert rep.exact and rep.X[0][0] == 2
    rep2 = build_rep(3, 2, 1, lroot_of_a=complex(2) ** (1 / 3))
    assert not rep2.exact
    with pytest.raises(Exception):
        build_rep(3, 8, 1, lroot_of_a=3)  # 3^3 != 8


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
    assert burnside_span_dim(build_rep(2, 1, 1)) == 4
    assert burnside_span_dim(build_rep(3, 1, 1)) == 9


def test_burnside_deficient_on_boundary():
    assert burnside_span_dim(build_rep(2, 1, Fraction(1, 4))) < 4
    z = Cyclo.zeta(3)
    bad = ((Cyclo.one(3) - z) ** (-3))
    rep = build_rep(3, 1, bad)
    assert rep.exact
    assert burnside_span_dim(rep) < 9


def test_burnside_nilpotent_full():
    assert burnside_span_dim(build_rep(3, 0, 0)) == 9


def test_rank_dichotomy_random_numeric():
    rng = random.Random(6)
    for l in (3, 5):
        for _ in range(5):
            a = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            rep = build_rep(l, a, b)
            rank = burnside_span_dim(rep)
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
    with pytest.raises(ValueError):
        cross_check(11, [(1, 1)])


def test_importing_qweyl_leaves_numpy_unloaded():
    # numpy serves only the numeric Burnside rank, which imports it itself
    import qweyl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qweyl.__file__)))
    code = "import sys, qweyl, qweyl.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
