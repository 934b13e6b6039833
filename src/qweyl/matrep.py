"""Explicit l-dimensional representations at a maximal central ideal, with
Burnside spanning as a full-matrix-algebra oracle.

For a nonzero value a of x^l the representation has X diagonal with
eigenvalues lambda*q^i and Y a cyclic band matrix whose diagonal is forced by
the defining relation; the band entries are only constrained through their
product, which is solved exactly from Y^l = b.  The a = b = 0 point uses the
truncated-polynomial representation instead.

The oracle ranks the span of X^i Y^j as l ranks of l x l matrices, one per
row, so it needs no l-th root: exact points rank exactly over Q(zeta_l), in
about a second at l = 19.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .center import MaxIdealPoint, azumaya_test
from .scalars import Cyclo, embed as _embed

__all__ = [
    "MatRep",
    "NilpotentRep",
    "NoExactRootError",
    "build_rep",
    "burnside_span_dim",
    "cross_check",
    "NUMERIC_RANK_TOL",
    "EXACT_RANK_MAX_LEVEL",
    "NUMERIC_RANK_MAX_LEVEL",
]

NUMERIC_RANK_TOL = 1e-9

# Exact Burnside ranks eliminate over l cyclotomic l x l matrices: in
# CPython 3.11 on a 2-core machine a rank takes 0.2 s at l = 13, 1.0-1.6 s at
# l = 19 and 2.8-5.1 s at l = 23, the most for a 40-digit coordinate.
EXACT_RANK_MAX_LEVEL = 19

# Float ranks of the rows of C^j (see burnside_span_dim) miss the deficiency
# at points near the locus a*b = (1-q)^(-l) from l = 15 on.  At l <= 14 they
# matched the locus verdict on 141 points per level: random, near the locus,
# a = 0, and coordinates from 1e-12 to 1e12.  The bound keeps a margin.
NUMERIC_RANK_MAX_LEVEL = 11


class NoExactRootError(ValueError):
    """Exact mode needs an l-th root that is not available; fall back to
    numeric mode."""


Matrix = List[List[object]]


@dataclass(frozen=True)
class MatRep:
    """Representation at the point (a, b) over the field of q: cyclotomic
    numbers when exact, complex floats otherwise.  X is diagonalizable when
    a != 0, and Y when a = 0 != b."""

    level: int
    q: object
    X: Matrix
    Y: Matrix
    a: object
    b: object

    @property
    def exact(self) -> bool:
        return isinstance(self.q, Cyclo)


class NilpotentRep(MatRep):
    """Truncated-polynomial representation at the point a = b = 0."""


# ---------------------------------------------------------------------------
# scalar helpers shared by exact and numeric modes
# ---------------------------------------------------------------------------


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction, Cyclo))


def _int_nth_root(v: int, l: int) -> Optional[int]:
    if v < 0:
        if l % 2 == 0:
            return None
        r = _int_nth_root(-v, l)
        return None if r is None else -r
    if v in (0, 1):
        return v
    # Newton's method in integers from 2**ceil(bits / l), which is above the
    # root, decreases to the floor of the root; exact at every size.
    x = 1 << -(-v.bit_length() // l)
    while True:
        y = ((l - 1) * x + v // x ** (l - 1)) // l
        if y >= x:
            return x if x ** l == v else None
        x = y


def _exact_lth_root(value, l: int):
    """l-th root inside the exact tower, if one is stored there."""
    if isinstance(value, Cyclo):
        r = value.as_rational()
        if r is None:
            return None
        value = r
    value = Fraction(value)
    num = _int_nth_root(value.numerator, l)
    den = _int_nth_root(value.denominator, l)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _as_complex(v) -> complex:
    return complex(_embed(v)) if _is_exact(v) else complex(v)


def _units(q):
    """Zero and one of the field q lives in: Cyclo or complex."""
    one = q ** 0
    return one - one, one


def _zeros(l: int, zero) -> Matrix:
    return [[zero] * l for _ in range(l)]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    size = len(a)
    out = []
    for i in range(size):
        row = []
        arow = a[i]
        for j in range(size):
            acc = None
            for k in range(size):
                v = arow[k]
                if not v:
                    continue
                w = b[k][j]
                if not w:
                    continue
                p = v * w
                acc = p if acc is None else acc + p
            row.append(acc if acc is not None else a[0][0] * 0)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_rep(l: int, a, b) -> MatRep:
    """Representation realizing the point (a, b) of the center's spectrum,
    at q = zeta_l.

    The construction is exact when a and b are both exact scalars, and runs
    over complex floats when either is numeric.  Exact mode needs the
    relevant l-th root to be rational; when it is not, NoExactRootError is
    raised (see _rep_at for the numeric fallback).  The relation
    Y X - q X Y = I holds by construction for every output.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    if _is_exact(a) and _is_exact(b):
        q = Cyclo.zeta(l)
        a_s, b_s = _coerce_exact(a, l), _coerce_exact(b, l)
    else:
        q = cmath.exp(2j * math.pi / l)
        a_s, b_s = _as_complex(a), _as_complex(b)

    if not a_s and not b_s:
        return _nilpotent_rep(l, q)
    if a_s:
        lam = _pick_root(a_s, l)
        X, Y = _band_pair(l, q, lam, a_s, b_s, diag_is_x=True)
    else:
        mu = _pick_root(b_s, l)
        Y, X = _band_pair(l, q, mu, b_s, a_s, diag_is_x=False)
    return MatRep(l, q, X, Y, a_s, b_s)


def _rep_at(l: int, a, b) -> MatRep:
    """build_rep at (a, b): exact when the l-th root is stored in the exact
    tower, otherwise over the complex embeddings of a and b."""
    try:
        return build_rep(l, a, b)
    except NoExactRootError:
        try:
            a_c, b_c = complex(_embed(a)), complex(_embed(b))
        except OverflowError:
            raise ValueError(
                f"no exact {l}-th root is stored, and the point is too large "
                "for the complex fallback"
            ) from None
        return build_rep(l, a_c, b_c)


def _coerce_exact(v, level: int):
    if isinstance(v, Cyclo):
        if v.level != level:
            r = v.as_rational()
            if r is None:
                raise ValueError("cyclotomic level mismatch")
            return Cyclo.from_rational(level, r)
        return v
    return Cyclo.from_rational(level, v)


def _pick_root(value, l: int):
    if isinstance(value, Cyclo):
        r = _exact_lth_root(value, l)
        if r is None:
            raise NoExactRootError(f"no stored exact {l}-th root; use numeric mode")
        return _coerce_exact(r, value.level)
    return value ** (1.0 / l)


def _band_pair(l: int, q, lam, diag_power_value, band_power_value,
               diag_is_x: bool):
    """Diagonal matrix with eigenvalues lam*q^i (resp. lam*q^-i) paired with
    the cyclic band matrix forced by the defining relation.

    The band's off-diagonal entries are set to one except the corner, which
    closes the cycle: the power constraint only pins the product of the band
    entries.
    """
    zero, one = _units(q)
    one_minus_q = one - q
    D = _zeros(l, zero)
    B = _zeros(l, zero)
    qi = one
    diag_vals = []
    for i in range(l):
        diag_vals.append(lam * qi)
        qi = qi * q
    for i in range(l):
        D[i][i] = diag_vals[i]
        B[i][i] = 1 / (diag_vals[i] * one_minus_q)
    # band product must equal  band_power_value - 1/(diag_power_value (1-q)^l)
    corner = band_power_value - 1 / (diag_power_value * one_minus_q ** l)
    if diag_is_x:
        for i in range(l - 1):
            B[i][i + 1] = one
        B[l - 1][0] = corner
    else:
        for i in range(l - 1):
            B[i + 1][i] = one
        B[0][l - 1] = corner
    return D, B


def _nilpotent_rep(l: int, q) -> NilpotentRep:
    zero, one = _units(q)
    X = _zeros(l, zero)
    Y = _zeros(l, zero)
    qk = one
    qints = [zero]
    for _ in range(1, l):
        qints.append(qints[-1] + qk)
        qk = qk * q
    for m in range(l - 1):
        X[m + 1][m] = one           # multiplication by x on 1, x, .., x^(l-1)
        Y[m][m + 1] = qints[m + 1]  # quantum derivative of x^(m+1)
    return NilpotentRep(l, q, X, Y, zero, zero)


# ---------------------------------------------------------------------------
# Burnside spanning oracle
# ---------------------------------------------------------------------------


def burnside_span_dim(l: int, a, b) -> int:
    """Dimension of the span of X^i Y^j for 0 <= i, j < l in the
    representation at the point (a, b), at q = zeta_l.

    Equals l^2 exactly when the representation generates the full matrix
    algebra fiber.  Exact points rank exactly; a point with a float
    coordinate ranks in complex floats.  Levels above EXACT_RANK_MAX_LEVEL,
    or NUMERIC_RANK_MAX_LEVEL for floats, raise ValueError before any work.
    """
    exact = _is_exact(a) and _is_exact(b)
    if l > (EXACT_RANK_MAX_LEVEL if exact else NUMERIC_RANK_MAX_LEVEL):
        raise ValueError(
            f"exact Burnside ranks are limited to l <= {EXACT_RANK_MAX_LEVEL}" if exact else
            f"numeric Burnside ranks are limited to l <= {NUMERIC_RANK_MAX_LEVEL}; "
            "give an exact value such as 1 in place of 1.0 for the exact rank"
        )
    if l < 2:
        raise ValueError("need l >= 2")
    if exact:
        q, a, b = Cyclo.zeta(l), _coerce_exact(a, l), _coerce_exact(b, l)
        size, tol = bool, 0
    else:
        q, a, b = cmath.exp(2j * math.pi / l), _as_complex(a), _as_complex(b)
        size, tol = abs, NUMERIC_RANK_TOL
    zero, one = _units(q)
    if not a and not b:
        # X^i Y^j is Y^j moved down i rows, so it lies on the diagonal at
        # offset j - i and the span splits by offset; ys[j][s] = Y^j[s][s+j].
        Y = _nilpotent_rep(l, q).Y
        ys = [[one] * l]
        for j in range(1, l):
            ys.append([ys[-1][s] * Y[s + j - 1][s + j] for s in range(l - j)])
        total = 0
        for d in range(1 - l, l):
            span = range(max(0, -d), min(l, l - d))
            total += _rank([[ys[i + d][r - i] if r >= i else zero for r in span]
                            for i in span], size, tol)
        return total
    # One of X, Y is diagonal with l distinct eigenvalues, so its powers span
    # the diagonal matrices and the span splits into the rows of the other's
    # powers (columns when Y is the diagonal one).  Scaling the other by the
    # l-th root and conjugating by a diagonal matrix keeps each row's rank and
    # turns it into the band C (its transpose when Y is diagonal) with
    # diagonal 1/(q^i (1-q)), superdiagonal 1 and corner a*b - (1-q)^(-l).
    # Row k of C^j is row k of C^(j-1) times C.
    diag = [1 / (q ** i * (one - q)) for i in range(l)]
    band = [a * b - (one - q) ** -l] + [one] * (l - 1)
    total = 0
    for k in range(l):
        rows = [[one if c == k else zero for c in range(l)]]
        for _ in range(1, l):
            row = rows[-1]
            rows.append([row[c] * diag[c] + row[c - 1] * band[c] for c in range(l)])
        total += _rank(rows, size, tol)
    return total


def _rank(rows: Matrix, size, tol) -> int:
    """Rank of the rows by Gaussian elimination, pivoting on the entry of
    largest size.

    An entry counts as zero when its size is at most tol times the largest
    size in its row as given, so rows of any scale rank alike: size = bool
    with tol = 0 decides exactly, size = abs with NUMERIC_RANK_TOL in floats.
    """
    work = [(list(row), tol * max(map(size, row))) for row in rows]
    rank = 0
    while True:
        live = [(size(v), i, j) for i, (row, cut) in enumerate(work)
                for j, v in enumerate(row) if size(v) > cut]
        if not live:
            return rank
        _, i, j = max(live, key=lambda e: e[0])
        prow = work.pop(i)[0]
        pinv = 1 / prow.pop(j)
        for row, _ in work:
            f = row.pop(j) * pinv
            if f:
                row[:] = [v - f * w if w else v for v, w in zip(row, prow)]
        rank += 1


# ---------------------------------------------------------------------------
# consistency sweep
# ---------------------------------------------------------------------------


def cross_check(l: int, sample_points: Sequence[Tuple[object, object]]) -> dict:
    """Compare the locus criterion against the Burnside oracle pointwise."""
    entries = []
    all_agree = True
    for a, b in sample_points:
        point = MaxIdealPoint([a], [b])
        on_locus = azumaya_test(point, l)
        rank = burnside_span_dim(l, a, b)
        agree = (rank == l * l) == on_locus
        all_agree = all_agree and agree
        entries.append(
            {
                "a": str(a),
                "b": str(b),
                "azumaya": on_locus,
                "rank": rank,
                "full": rank == l * l,
                "agree": agree,
                "exact": point.is_exact(),
            }
        )
    return {"l": l, "points": entries, "all_agree": all_agree}
