"""Centered cardinal B-splines and their dyadic dilates.

The splines here are the r-fold convolutions of the unit box, centered at
the origin, for orders r = 1..4, held once: as the integer-coefficient
polynomial pieces _PIECES, which every evaluation runs by Horner's rule
and integral_vector integrates exactly in rationals.  The test suite
validates them against closed-form pieces, a Cox-de Boor recursion and a
truncated-power integral written independently.

Conventions:
  * order r has support [-r/2, r/2],
  * even r uses integer shifts M(2^k x - s), odd r half-integer shifts
    M(2^k x - s/2); shift_bounds(r, k) indexes every level-k coefficient
    vector of the package, and an integer shift of odd r is index 2s,
  * only this module derives the translation denominator from r,
  * the r = 1 box is right-continuous (value 1 on [-1/2, 1/2)) so point
    evaluation is single-valued at the jump.

Expansions are evaluated on integer knots (_integer_knots), padded so
that every spline nonzero on [0, 1] has a coefficient, and summed one
axis at a time with the last axis innermost: eval_knots at scattered
points, quasi_interp.contract over collocation tables on lattices, with
the same floating-point operations.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

ORDERS = (1, 2, 3, 4)
SLAB = 1 << 16  # points per evaluation slab, and per lattice estimator tile


def _check_order(r: int) -> None:
    if r not in ORDERS:
        raise ValueError("order out of range")


def shift_denominator(r: int) -> int:
    """2 for odd orders (half-integer translation scheme), 1 for even."""
    _check_order(r)
    return 1 if r % 2 == 0 else 2


def _as_level(k, name="k"):
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    k = tuple(int(v) for v in k)
    if any(v < 0 for v in k):
        raise ValueError(f"{name} must be nonnegative")
    return k


def shift_bounds(r: int, k: int) -> tuple[int, int]:
    """Inclusive bounds of the univariate active-shift set at level k.

    Even r: integer s with -r/2 < s < 2^k + r/2.
    Odd r:  integer s with -r  < s < 2^(k+1) + r (half-integer scheme).

    The order-1 box is right-open, so the shift just past the right edge
    (support meeting [0,1] only at x = 1) still evaluates to 1 there and
    must stay active; dropping it would break the level telescoping at
    that single point.  Higher orders vanish at their support edge.
    """
    _check_order(r)
    if r % 2 == 0:
        return (-(r // 2) + 1, (1 << k) + r // 2 - 1)
    if r == 1:
        return (0, (1 << (k + 1)) + 1)
    return (-r + 1, (1 << (k + 1)) + r - 1)


# (r-1)! N_r(t + r - 1 - j) on t in [0, 1) for j = 0..r-1, highest power of
# t first; N_r(v - b) = M(v - b - r/2) is the B-spline on the knots b..b+r
_PIECES = {
    1: ((1,),),
    2: ((-1, 1), (1, 0)),
    3: ((1, -2, 1), (-2, 2, 1), (1, 0, 0)),
    4: ((-1, 3, -3, 1), (3, -6, 0, 4), (-3, 3, 3, 1), (1, 0, 0, 0)),
}


@lru_cache(maxsize=None)
def _clipped_integrals(r: int) -> np.ndarray:
    """T[a, b], the integral of N_r over [a/2, b/2] for 0 <= a <= b <= 2r:
    the pieces integrated exactly at the half-integers, as integer
    numerators over lcm(1..r) 2^r (r-1)!, each difference divided once."""
    L = math.lcm(*range(1, r + 1))
    F = [0]  # numerators of the antiderivative of N_r at 0, 1/2, ..., r
    for j in reversed(range(r)):  # piece j is N_r on [r - 1 - j, r - j)
        F += [F[-1] + sum(c * L // (r - i) << (i if half else r)
                          for i, c in enumerate(_PIECES[r][j]))
              for half in (True, False)]
    F = np.array(F)
    return (F - F[:, None]) / ((L << r) * math.factorial(r - 1))


@lru_cache(maxsize=None)
def integral_vector(r: int, k: int) -> np.ndarray:
    """Integrals over [0,1] of M(2^k x - s/den), one per shift s of
    shift_bounds(r, k), each the correctly rounded exact value.

    Substituting v = 2^k x - s/den + r/2 leaves N_r integrated over its
    support [0, r] clipped to [r/2 - s/den, 2^k + r/2 - s/den], whose ends
    are half-integers, scaled by 2^-k: interior shifts get exactly 2^-k,
    and an empty interval (the right-open order-1 box past x = 1) 0.
    """
    lo, hi = shift_bounds(r, k)
    a = r - 2 // shift_denominator(r) * np.arange(lo, hi + 1)  # 2v at x = 0
    out = np.ldexp(_clipped_integrals(r)[np.maximum(a, 0),
                                         np.minimum(a + (2 << k), 2 * r)], -k)
    out.flags.writeable = False  # the cache hands it to every caller
    return out


def _basis_values(r: int, t: np.ndarray) -> np.ndarray:
    """N_r(t + r - 1 - j), j = 0..r-1, along a new first axis, by Horner."""
    v = np.zeros((r,) + t.shape)
    for c in np.array(_PIECES[r], dtype=float).T:
        v *= t
        v += c.reshape((r,) + (1,) * t.ndim)
    v /= math.factorial(r - 1)
    return v


def _integer_knots(r: int, k: tuple, s_min, coeffs: np.ndarray):
    """(K, P): the same expansion written as sum_b c_b N_r(2^K x - b), with
    P[i] = c_b at b = 1 - r + i per axis, for the 2^K + r left knots
    1 - r .. 2^K of every spline nonzero somewhere on [0, 1], zero where
    coeffs has no entry.  Even r: b = s - r/2 and K = k.  Odd r:
    M(2^k x - s/2) = 2^{1-r} sum_j C(r, j) N_r(2^{k+1} x - (s + j - r)) by
    the two-scale relation, so each axis is convolved once with the
    binomial weights and lands on integer knots at K = k + 1; the
    convolution writes straight into the padded array."""
    if r % 2 == 0:  # shift s is P index s + r/2 - 1, inside P
        P = np.zeros([(1 << ki) + r for ki in k])
        P[tuple(slice(s + r // 2 - 1, s + r // 2 - 1 + n)
                for s, n in zip(s_min, coeffs.shape))] = coeffs
        return k, P
    K = tuple(ki + 1 for ki in k)
    w = [math.comb(r, j) / (1 << (r - 1)) for j in range(r + 1)]
    for axis, (Ki, s) in enumerate(zip(K, s_min)):
        P = np.zeros(coeffs.shape[:axis] + ((1 << Ki) + r,)
                     + coeffs.shape[axis + 1:])
        out, c = np.moveaxis(P, axis, 0), np.moveaxis(coeffs, axis, 0)
        for j, wj in enumerate(w):  # c[i] feeds out[s - 1 + j + i]
            a, b = max(s - 1 + j, 0), min(s - 1 + j + len(c), len(out))
            if a < b:
                out[a:b] += wj * c[a - s + 1 - j:b - s + 1 - j]
        coeffs = P
    return K, coeffs


def _candidates(r: int, Ki: int, x: np.ndarray):
    """Per coordinate x in [0, 1], the index floor(2^Ki x) into a padded
    axis of _integer_knots, where its r nonzero splines start, and their
    values, candidate j along the first axis."""
    u = x * float(1 << Ki)
    fl = np.floor(u)
    return fl.astype(np.intp), _basis_values(r, u - fl)


def eval_expansion(r: int, k, s_min, coeffs: np.ndarray, X,
                   out=None) -> np.ndarray:
    """Values of a single-level tensor spline expansion at the (npts, d)
    points X in [0, 1]^d, added into out (length npts) when it is given.

    coeffs[i_1,...,i_d] is the coefficient of the shift s_min + i (per
    dimension) of shift_bounds(r, k).  Shifts outside the coefficient
    array contribute nothing.  Put on integer knots once, the expansion is
    summed by eval_knots in slabs of SLAB points, bounding its temporaries.
    """
    _check_order(r)
    K, P = _integer_knots(r, _as_level(k), s_min, coeffs)
    if out is None:
        out = np.zeros(len(X))
    for i in range(0, len(X), SLAB):
        out[i:i + SLAB] += eval_knots(r, K, P, X[i:i + SLAB])
    return out


def eval_knots(r: int, K: tuple, P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Value of the padded integer-knot expansion (K, P) of _integer_knots
    at the scattered (npts, d) points X in [0, 1]^d, summed in nested
    order, last axis innermost: v = sum_{c_0} B_0[c_0] (sum_{c_1} B_1[c_1]
    (... P[c])), each sum starting at 0.0 and adding its r candidates in
    turn.  quasi_interp.contract sums a lattice in this order, so a
    lattice point gets the same bits either way.  The padding puts every
    candidate inside P: a point reads P at one flat base index plus a
    constant offset per candidate combination.
    """
    d, flat = len(K), P.reshape(-1)
    strides = [math.prod(P.shape[i + 1:]) for i in range(d)]
    base, vals = np.zeros(len(X), np.intp), []
    for Ki, x, stride in zip(K, X.T, strides):
        first, B = _candidates(r, Ki, x)
        first *= stride
        base += first
        vals.append(B)
    # acc[i] is the partial sum over axes i.. for the current c_0..c_i-1
    acc, term = [np.zeros(len(X)) for _ in K], np.empty(len(X))
    for combo in np.ndindex(*([r] * d)):
        off = sum(c * stride for c, stride in zip(combo, strides))
        # base + off stays inside flat; clip mode skips a bounds buffer
        np.take(flat[off:], base, out=term, mode="clip")
        term *= vals[-1][combo[-1]]
        acc[-1] += term
        i = d - 1
        while i and combo[i] == r - 1:  # the sum over axis i is complete
            np.multiply(acc[i], vals[i - 1][combo[i - 1]], out=term)
            acc[i - 1] += term
            acc[i].fill(0.0)
            i -= 1
    return acc[0]
