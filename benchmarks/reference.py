"""Reference computations for the benchmark's checks.

Nothing here imports sgqi.  The splines come from the truncated-power
formula rather than piecewise tables, the reconstruction is evaluated
densely over every stored shift instead of over a window of candidates,
grid points are identified by integers on the finest lattice instead of by
reduced dyadic pairs, and the integrals are closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

ORDERS = (1, 2, 3, 4)


def centered_bspline(r: int, t) -> np.ndarray:
    """Centered cardinal B-spline of order r at t, from the truncated-power
    formula M_r(t) = sum_j (-1)^j C(r, j) (t + r/2 - j)_+^(r-1) / (r-1)!.

    Support is [-r/2, r/2); the order-1 box is 1 on [-1/2, 1/2), so point
    values at knots are single-valued.  Outside the support the value is
    set to exactly 0 instead of the rounding residue of the sum.
    """
    if r not in ORDERS:
        raise ValueError(f"order {r} not in {ORDERS}")
    t = np.asarray(t, dtype=float)
    half = r / 2.0
    total = np.zeros_like(t)
    for j in range(r + 1):
        x = t + half - j
        if r == 1:
            piece = (x >= 0.0).astype(float)
        else:
            piece = np.where(x > 0.0, x, 0.0) ** (r - 1)
        total += (-1) ** j * math.comb(r, j) * piece
    total /= math.factorial(r - 1)
    return np.where((t >= -half) & (t < half), total, 0.0)


def shift_denominator(r: int) -> int:
    """Even orders use integer shifts, odd orders half-integer shifts."""
    return 1 if r % 2 == 0 else 2


def evaluate(rec, X, chunk: int = 256) -> np.ndarray:
    """Direct value of sum_k sum_s c_{k,s} prod_i M(2^{k_i} x_i - s_i/den).

    Reads the coefficients from rec.surplus, where level k holds a dense
    array whose entry [i_1, ..., i_d] is the coefficient of shift
    s_min + i.  Every stored shift is evaluated, with no windowing and no
    skipping of levels.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r, d = rec.r, rec.d
    den = shift_denominator(r)
    out = np.zeros(X.shape[0])
    for start in range(0, X.shape[0], chunk):
        P = X[start:start + chunk]
        acc = np.zeros(P.shape[0])
        for k, lvl in rec.surplus.items():
            T = np.asarray(lvl.coeffs, dtype=float)
            mats = []
            for i in range(d):
                s = lvl.s_min[i] + np.arange(T.shape[i])
                mats.append(centered_bspline(
                    r, math.ldexp(1.0, k[i]) * P[:, i:i + 1] - s[None, :] / den))
            # contract axis 0 against every point, then the rest in turn
            V = mats[0] @ T.reshape(T.shape[0], -1)
            for i in range(1, d):
                V = V.reshape(P.shape[0], T.shape[i], -1)
                V = np.einsum("pa,par->pr", mats[i], V)
            acc += V.reshape(-1)
        out[start:start + chunk] = acc
    return out


# ---------------------------------------------------------------------------
# grid points as integers on the finest lattice


def finest_levels(levels) -> tuple:
    levels = list(levels)
    d = len(levels[0])
    return tuple(max(k[i] for k in levels) for i in range(d))


def level_ids(k, K) -> np.ndarray:
    """Integer ids of the points j / 2^{k_i} of the full level-k grid.

    Coordinate i maps to j * 2^{K_i - k_i} on the lattice 0..2^{K_i}; the
    id is the mixed-radix number of those lattice coordinates.
    """
    ids = np.zeros(1, dtype=np.int64)
    for ki, Ki in zip(k, K):
        axis = np.arange((1 << ki) + 1, dtype=np.int64) << (Ki - ki)
        ids = (ids[:, None] * ((1 << Ki) + 1) + axis[None, :]).reshape(-1)
    return ids


def grid_ids(levels) -> np.ndarray:
    """Sorted distinct ids of the union of the level grids."""
    K = finest_levels(levels)
    return np.unique(np.concatenate([level_ids(k, K) for k in levels]))


def distinct_point_count(levels) -> int:
    return int(grid_ids(levels).size)


def point_ids(X, K) -> np.ndarray:
    """Ids of points on the lattice of finest levels K; raises if a point
    is not on that lattice."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ids = np.zeros(X.shape[0], dtype=np.int64)
    for i, Ki in enumerate(K):
        u = X[:, i] * float(1 << Ki)
        j = np.rint(u)
        if not np.array_equal(j, u) or (j < 0).any() or (j > (1 << Ki)).any():
            raise ValueError("point off the dyadic lattice")
        ids = ids * ((1 << Ki) + 1) + j.astype(np.int64)
    return ids


# ---------------------------------------------------------------------------
# the benchmark's test functions and their exact integrals


def kink(lams):
    """Product kink prod_i |x_i - 1/2|^{lam_i} on (npts, d) arrays."""
    lams = np.asarray(lams, dtype=float)
    return lambda X: np.prod(np.abs(X - 0.5) ** lams, axis=1)


def kink_integral(lams) -> float:
    return math.prod(0.5 ** lam / (lam + 1.0) for lam in lams)


def sinprod(X) -> np.ndarray:
    return np.prod(np.sin(np.pi * X), axis=1)


def sinprod_integral(d: int) -> float:
    return (2.0 / math.pi) ** d


def tensor_poly(coef):
    """prod_i sum_j coef[i][j] x_i^j on (npts, d) arrays."""
    coef = [np.asarray(c, dtype=float) for c in coef]

    def f(X):
        out = np.ones(X.shape[0])
        for i, c in enumerate(coef):
            out *= np.polynomial.polynomial.polyval(X[:, i], c)
        return out

    return f


def monomial_integral(exps) -> Fraction:
    return math.prod((Fraction(1, a + 1) for a in exps), start=Fraction(1))
