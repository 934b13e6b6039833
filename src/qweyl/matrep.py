"""Explicit l-dimensional representations at a maximal central ideal, with
Burnside spanning as a brute-force full-matrix-algebra oracle.

For a nonzero value a of x^l the representation has X diagonal with
eigenvalues lambda*q^i and Y a cyclic band matrix whose diagonal is forced by
the defining relation; the band entries are only constrained through their
product, which is solved exactly from Y^l = b.  The a = b = 0 point uses the
truncated-polynomial representation instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .center import MaxIdealPoint, azumaya_test
from .scalars import Cyclo, embed as _embed

__all__ = [
    "MatRep",
    "NilpotentRep",
    "NoExactRootError",
    "InconsistentPointError",
    "build_rep",
    "burnside_span_dim",
    "cross_check",
    "NUMERIC_RANK_TOL",
    "EXACT_RANK_MAX_LEVEL",
]

NUMERIC_RANK_TOL = 1e-9

# Exact Burnside ranks eliminate over l^2 x l^2 cyclotomic matrices, whose
# cost grows steeply with l: in CPython 3.11 the rank at (a, b) = (1, 1)
# takes 0.3 s at l = 7, 5-8 s at l = 11 and about 22 s at l = 13.
EXACT_RANK_MAX_LEVEL = 7


class NoExactRootError(ValueError):
    """Exact mode needs an l-th root that is not available; supply one or
    fall back to numeric mode."""


class InconsistentPointError(ArithmeticError):
    """The band solver could not satisfy the power constraints (asserted
    impossible for points on the spectrum)."""


Matrix = List[List[object]]


@dataclass(frozen=True)
class MatRep:
    """Representation with X diagonalizable (a != 0) or Y diagonalizable."""

    level: int
    qpow: int
    q: object
    X: Matrix
    Y: Matrix
    a: object
    b: object
    exact: bool


@dataclass(frozen=True)
class NilpotentRep:
    """Truncated-polynomial representation at the point a = b = 0."""

    level: int
    qpow: int
    q: object
    X: Matrix
    Y: Matrix
    exact: bool

    @property
    def a(self):
        return Fraction(0) if self.exact else 0j

    @property
    def b(self):
        return Fraction(0) if self.exact else 0j


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


def _zero_like(exact: bool, level: int):
    return Cyclo.zero(level) if exact else 0j


def _one_like(exact: bool, level: int):
    return Cyclo.one(level) if exact else 1 + 0j


def _zeros(l: int, exact: bool, level: int) -> Matrix:
    z = _zero_like(exact, level)
    return [[z for _ in range(l)] for _ in range(l)]


def _identity(l: int, exact: bool, level: int) -> Matrix:
    m = _zeros(l, exact, level)
    one = _one_like(exact, level)
    for i in range(l):
        m[i][i] = one
    return m


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


def build_rep(l: int, a, b, lroot_of_a=None, qpow: int = 1,
              exact: Optional[bool] = None) -> Union[MatRep, NilpotentRep]:
    """Representation realizing the point (a, b) of the center's spectrum.

    The construction is exact when a, b (and lroot_of_a) are exact scalars
    and runs over complex floats when any of them is numeric or exact=False.
    Exact mode needs the relevant l-th root to be rational or supplied; when
    it is not, NoExactRootError is raised (see _rep_at for the numeric
    fallback).  The relation Y X - q X Y = I holds by construction for
    every output.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    if math.gcd(qpow % l, l) != 1:
        raise ValueError("qpow must be coprime to l")
    inputs_exact = _is_exact(a) and _is_exact(b) and (
        lroot_of_a is None or _is_exact(lroot_of_a)
    )
    if exact is None:
        exact = inputs_exact
    if exact and not inputs_exact:
        raise ValueError("exact mode requested with numeric inputs")

    if exact:
        q = Cyclo.zeta(l, qpow)
        a_s = _coerce_exact(a, l)
        b_s = _coerce_exact(b, l)
    else:
        q = cmath.exp(2j * math.pi * (qpow % l) / l)
        a_s = complex(_embed(a)) if _is_exact(a) else complex(a)
        b_s = complex(_embed(b)) if _is_exact(b) else complex(b)

    if not a_s and not b_s:
        return _nilpotent_rep(l, qpow, q, exact)
    if a_s:
        lam = _pick_root(a_s, lroot_of_a, l, exact)
        X, Y = _band_pair(l, q, lam, a_s, b_s, exact, diag_is_x=True)
        return MatRep(l, qpow % l, q, X, Y, a_s, b_s, exact)
    mu = _pick_root(b_s, None, l, exact)
    Y, X = _band_pair(l, q, mu, b_s, a_s, exact, diag_is_x=False)
    return MatRep(l, qpow % l, q, X, Y, a_s, b_s, exact)


def _rep_at(l: int, a, b, qpow: int) -> Union[MatRep, NilpotentRep]:
    """build_rep at (a, b): exact when the l-th root is stored in the exact
    tower, otherwise over the complex embeddings of a and b."""
    try:
        return build_rep(l, a, b, qpow=qpow)
    except NoExactRootError:
        try:
            a_c, b_c = complex(_embed(a)), complex(_embed(b))
        except OverflowError:
            raise ValueError(
                f"no exact {l}-th root is stored, and the point is too large "
                "for the complex fallback"
            ) from None
        return build_rep(l, a_c, b_c, qpow=qpow)


def _coerce_exact(v, level: int):
    if isinstance(v, Cyclo):
        if v.level != level:
            r = v.as_rational()
            if r is None:
                raise ValueError("cyclotomic level mismatch")
            return Cyclo.from_rational(level, r)
        return v
    return Cyclo.from_rational(level, v)


def _pick_root(value, supplied, l: int, exact: bool):
    if exact:
        if supplied is not None:
            root = _coerce_exact(supplied, value.level)
            if root ** l != value:
                raise InconsistentPointError("supplied root does not power to the value")
            return root
        r = _exact_lth_root(value, l)
        if r is None:
            raise NoExactRootError(
                f"no stored exact {l}-th root; pass lroot_of_a or use numeric mode"
            )
        return _coerce_exact(r, value.level)
    if supplied is not None:
        return complex(_embed(supplied)) if _is_exact(supplied) else complex(supplied)
    return complex(value) ** (1.0 / l)


def _band_pair(l: int, q, lam, diag_power_value, band_power_value,
               exact: bool, diag_is_x: bool):
    """Diagonal matrix with eigenvalues lam*q^i (resp. lam*q^-i) paired with
    the cyclic band matrix forced by the defining relation.

    The band's off-diagonal entries are set to one except the corner, which
    closes the cycle: the power constraint only pins the product of the band
    entries.
    """
    level = getattr(q, "level", l)
    one = _one_like(exact, level)
    one_minus_q = one - q
    D = _zeros(l, exact, level)
    B = _zeros(l, exact, level)
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


def _nilpotent_rep(l: int, qpow: int, q, exact: bool) -> NilpotentRep:
    level = getattr(q, "level", l)
    X = _zeros(l, exact, level)
    Y = _zeros(l, exact, level)
    one = _one_like(exact, level)
    qk = one
    qints = [_zero_like(exact, level)]
    for _ in range(1, l):
        qints.append(qints[-1] + qk)
        qk = qk * q
    for m in range(l - 1):
        X[m + 1][m] = one           # multiplication by x on 1, x, .., x^(l-1)
        Y[m][m + 1] = qints[m + 1]  # quantum derivative of x^(m+1)
    return NilpotentRep(l, qpow % l, q, X, Y, exact)


# ---------------------------------------------------------------------------
# Burnside spanning oracle
# ---------------------------------------------------------------------------


def burnside_span_dim(rep: Union[MatRep, NilpotentRep]) -> int:
    """Dimension of the span of X^i Y^j for 0 <= i, j < l.

    Equals l^2 exactly when the representation generates the full matrix
    algebra fiber.
    """
    l = rep.level
    xs = _power_list(rep.X, l, rep.exact)
    ys = _power_list(rep.Y, l, rep.exact)
    rows = []
    for Xi in xs:
        for Yj in ys:
            prod = _matmul(Xi, Yj)
            rows.append([prod[r][c] for r in range(l) for c in range(l)])
    if rep.exact:
        return _exact_rank(rows)
    import numpy as np  # only the numeric rank needs it; importing qweyl does not

    mat = np.array([[complex(v) for v in row] for row in rows], dtype=complex)
    sv = np.linalg.svd(mat, compute_uv=False)
    tol = NUMERIC_RANK_TOL * max(1.0, float(sv[0]) if len(sv) else 1.0)
    return int(np.sum(sv > tol))


def _power_list(m: Matrix, upto: int, exact: bool) -> List[Matrix]:
    level = getattr(m[0][0], "level", len(m))
    out = [_identity(len(m), exact, level if exact else 0)]
    for _ in range(1, upto):
        out.append(_matmul(out[-1], m))
    return out


def _exact_rank(rows: List[List[object]]) -> int:
    work = [row[:] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        pinv = 1 / prow[col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            if factor:
                scale = factor * pinv
                work[r] = [v - scale * w for v, w in zip(work[r], prow)]
        rank += 1
        if rank == ncols:
            break
    return rank


# ---------------------------------------------------------------------------
# consistency sweep
# ---------------------------------------------------------------------------


def cross_check(l: int, sample_points: Sequence[Tuple[object, object]],
                qpow: int = 1) -> dict:
    """Compare the locus criterion against the Burnside oracle pointwise."""
    if l > EXACT_RANK_MAX_LEVEL:
        raise ValueError(f"exact rank sweeps are limited to l <= {EXACT_RANK_MAX_LEVEL}")
    entries = []
    all_agree = True
    for a, b in sample_points:
        point = MaxIdealPoint([a], [b])
        on_locus = azumaya_test(point, l, qpow)
        rep = _rep_at(l, a, b, qpow)
        rank = burnside_span_dim(rep)
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
                "exact": rep.exact,
            }
        )
    return {"l": l, "points": entries, "all_agree": all_agree}
