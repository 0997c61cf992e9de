"""Quasi-interpolation machinery on dyadic grids over [0,1]^d.

Univariate building blocks, each a sparse Table over the node values of
one level: the sample functionals a_{k,s} (a finite even mask Lambda
applied to the samples, extended past [0,1] by Lagrange extrapolation),
the surplus functionals c_{k,s} that express the level difference
q_k = Q_k - Q_{k-1} in the dilated B-spline basis, and the two-scale
refinement from one level to the next.  Tensorization is coordinatewise,
dimension 1 outermost.

Every table weight is a rational over the mask's denominator (1, 1, 8, 6
for r = 1..4): Lagrange extension weights at integer offsets are integers
and two-scale weights are dyadic.  Tables are built as numerators, which
floating point holds exactly, and divided by the denominator once, so
each entry is the correctly rounded exact weight.  Floating-point error
enters only when a table is applied to sample values.

The surplus convention used throughout: level 0 carries Q_0 itself and,
for k > 0, the surplus table is the level-k sample table minus the
level-(k-1) one carried to level k by refine_matrix.  For odd orders the
level-k sample functionals sit at the even half-integer shifts and the
refined -Q_{k-1} lands on the odd ones.  With this convention the
telescoping identity sum_{k' <= k} q_{k'} = Q_k holds exactly for every
order, which the test suite checks directly, and evaluation relies on it:
it sums a built chain of levels along axis 0 by one sample table.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bspline

__all__ = [
    "SurplusLevel", "Table", "q_level", "apply_Q", "sample_matrix",
    "surplus_matrix", "refine_matrix", "collocation_matrix",
    "vectorize_handle", "contract",
]

# order -> (common denominator D, {j: D lam(j)}) of the finite even mask
# Lambda, |j| <= mu, sum lam(j) = 1
_MASKS = {
    1: (1, {0: 1}),
    2: (1, {0: 1}),
    3: (8, {-1: -1, 0: 10, 1: -1}),
    4: (6, {-1: -1, 0: 8, 1: -1}),
}


# ---------------------------------------------------------------------------
# level tables


def _fbar_weights(r: int, k: int, tau: int) -> list:
    """Node weights (node, integer weight) of the extended sample
    fbar_k(tau 2^{-k}) for tau outside [0, 2^k]: the Lagrange polynomial
    through the r nearest boundary nodes, evaluated at tau.  When the level
    has fewer than r nodes the stencil is capped at what exists, so every
    level is defined (full degree r-1 extension needs 2^k + 1 >= r).
    Lagrange weights of consecutive integer nodes at an integer point are
    integers, so the divisions below are exact.
    """
    n = 1 << k
    m = min(r, n + 1)
    nodes = range(m) if tau < 0 else range(n - m + 1, n + 1)
    out = []
    for xi in nodes:
        others = [xj for xj in nodes if xj != xi]
        num = math.prod(tau - xj for xj in others)
        if num:
            out.append((xi, num // math.prod(xi - xj for xj in others)))
    return out


def _sample_numerators(r: int, k: int):
    """Triplets (row, node, D a_{k,s}) on the rows of shift_bounds(r, k),
    integer weights, a node possibly repeated within a row.

    Integer shift s is row den s - lo, so for odd r the rows of odd
    half-integer index stay empty.  Row s holds the mask taps D lam(j) at
    the nodes s - j; only the O(r) rows whose taps leave [0, 2^k] spread a
    tap over extension weights.
    """
    lam = _MASKS[r][1]
    n = 1 << k
    lo, hi = bspline.shift_bounds(r, k)
    den = bspline.shift_denominator(r)
    s = np.arange(-(-lo // den), hi // den + 1)
    parts = []
    for j, w in lam.items():
        tau = s - j
        inside = (tau >= 0) & (tau <= n)
        parts.append((den * s[inside] - lo, tau[inside],
                      np.full(np.count_nonzero(inside), float(w))))
        for si in s[~inside].tolist():
            parts += [([den * si - lo], [node], [float(w * wn)])
                      for node, wn in _fbar_weights(r, k, si - j)]
    return tuple(map(np.concatenate, zip(*parts)))


def _refine_rows(r: int, k: int, rows, cols, vals) -> list:
    """Triplets on the level-k shift rows carried to the level-k+1 rows by
    the two-scale relation M(x) = 2^{1-r} sum_j C(r, j) M(2x - j + r/2):
    shift s/den feeds t/den with t = 2s + den j - den r/2.  Targets outside
    shift_bounds(r, k + 1) vanish on [0,1], the right-open order-1 box at
    x = 1 included, and are dropped.  The weights are dyadic.  One part per
    j, so no (nnz, r + 1) array is ever alive."""
    lo = bspline.shift_bounds(r, k)[0]
    t_lo, t_hi = bspline.shift_bounds(r, k + 1)
    den = bspline.shift_denominator(r)
    parts = []
    for j in range(r + 1):
        t = 2 * (rows + lo) + den * j - den * r // 2
        keep = (t >= t_lo) & (t <= t_hi)
        parts.append((t[keep] - t_lo, cols[keep],
                      vals[keep] * (math.comb(r, j) / (1 << (r - 1)))))
    return parts


@lru_cache(maxsize=None)
def _csr_matvecs():
    """scipy's compiled kernel csr_matvecs(M, N, n_vecs, indptr, indices,
    data, X, Y), which adds table @ X to Y, loaded from the extension file
    scipy/sparse/_sparsetools without importing scipy.sparse (about 0.2 s
    and 20 MB)."""
    scipy = importlib.util.find_spec("scipy")
    spec = importlib.machinery.PathFinder.find_spec(
        "_sparsetools", [os.path.join(p, "sparse")
                         for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError("scipy/sparse/_sparsetools not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.csr_matvecs


@dataclass(eq=False)
class Table:
    """A univariate table in CSR form: indices sorted, index arrays int32,
    data float64.  table @ X runs scipy's compiled CSR kernel on these
    arrays, so it is bitwise scipy.sparse's product.  Only collocation
    tables store zeros."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def __matmul__(self, X) -> np.ndarray:
        # the kernel checks no bounds: the operand's shape is checked here
        X = np.asarray(X, dtype=np.float64, order="C")
        if X.ndim not in (1, 2) or X.shape[0] != self.shape[1]:
            raise ValueError(f"table of shape {self.shape} cannot apply to "
                             f"an operand of shape {X.shape}")
        Y = np.zeros(self.shape[:1] + X.shape[1:])
        _csr_matvecs()(*self.shape, X.shape[1] if X.ndim == 2 else 1,
                       self.indptr, self.indices, self.data, X.ravel(),
                       Y.ravel())
        return Y


def _table(parts, shape, den: int = 1) -> Table:
    """Table of the summed (row, col, weight) triplets of parts, each sum
    divided by den.  The weights are integers or dyadic, so the sums are
    exact in any order and each entry is the correctly rounded quotient."""
    keys = np.concatenate([rows * shape[1] + cols for rows, cols, _ in parts])
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], np.concatenate([v for *_, v in parts])[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    keys, sums = keys[first], np.add.reduceat(vals, first)
    keys, sums = keys[sums != 0], sums[sums != 0]
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    return Table(indptr.astype(np.int32), (keys % shape[1]).astype(np.int32),
                 sums / den, shape)


def _level_table(r: int, k: int, parts) -> Table:
    lo, hi = bspline.shift_bounds(r, k)
    return _table(parts, (hi - lo + 1, (1 << k) + 1), _MASKS[r][0])


@lru_cache(maxsize=None)
def sample_matrix(r: int, k: int) -> Table:
    """Table of the sample functionals a_{k,s} over the node values, on the
    rows of shift_bounds(r, k)."""
    return _level_table(r, k, [_sample_numerators(r, k)])


@lru_cache(maxsize=None)
def surplus_matrix(r: int, k: int) -> Table:
    """Table of all surplus functionals at level k over the node values,
    on the rows of shift_bounds(r, k).

    Level k's sample table minus level k-1's carried up by the two-scale
    relation, its node j being node 2j of level k.
    """
    parts = [_sample_numerators(r, k)]
    if k > 0:
        parts += [(rows, 2 * cols, -vals) for rows, cols, vals in
                  _refine_rows(r, k - 1, *_sample_numerators(r, k - 1))]
    return _level_table(r, k, parts)


@lru_cache(maxsize=None)
def refine_matrix(r: int, k: int) -> Table:
    """Table taking the coefficients of a level-k expansion (shifts of
    shift_bounds(r, k)) to those of the same function on [0,1] at level
    k + 1: _refine_rows applied to the identity."""
    lo, hi = bspline.shift_bounds(r, k)
    t_lo, t_hi = bspline.shift_bounds(r, k + 1)
    s = np.arange(hi - lo + 1)
    return _table(_refine_rows(r, k, s, s, np.ones(len(s))),
                  (t_hi - t_lo + 1, len(s)))


def collocation_matrix(r: int, K: int, x: np.ndarray):
    """(table, window) for a nonempty x in [0, 1]: window slices an axis of
    2^K + r padded coefficients of bspline._integer_knots from the first to
    the last one a coordinate reaches; the table holds, per coordinate, the
    values of its r nonzero splines N_r(2^K x - b) in the window's columns,
    zeros included, so contract over these tables sums a lattice in the
    order of bspline.eval_knots."""
    first, B = bspline._candidates(r, K, x)
    lo, hi = int(first.min()), int(first.max()) + r
    cols = (first - lo)[:, None] + np.arange(r)
    return Table(np.arange(0, r * len(x) + 1, r, dtype=np.int32),
                 cols.reshape(-1).astype(np.int32), B.T.reshape(-1),
                 (len(x), hi - lo)), slice(lo, hi)


def _one_per_row(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape == (n, 1):
        y = y.reshape(n)
    if y.shape != (n,):
        raise ValueError(f"f returned shape {y.shape} for {n} points")
    return y


def vectorize_handle(f, d: int):
    """Adapt a user function handle to the internal (npts, d) -> (npts,)
    calling convention.

    f may take the (npts, d) array, one array per coordinate, d scalars or
    one row.  The convention is found on the first input f is really asked
    for, trying each in that order, so f is called on no other points.
    Every result must hold one finite value per input row, else ValueError.
    """
    tries = [lambda X: f(X), lambda X: f(*X.T),
             lambda X: [f(*row) for row in X]]
    if d > 1:
        tries.append(lambda X: [f(row) for row in X])
    found = None

    def fv(X):
        nonlocal found
        X = np.asarray(X, dtype=float)
        if found is not None:
            y = _one_per_row(found(X), len(X))
        else:
            first = None
            for call in tries:
                try:
                    y = _one_per_row(call(X), len(X))
                except Exception as exc:  # f does not take this convention
                    first = first or exc
                    continue
                found = call
                break
            else:
                raise ValueError(
                    "f accepts none of the calling conventions (npts, d) "
                    "array, d arrays, d scalars or one row; as an (npts, d) "
                    f"array: {first}") from first
        bad = np.count_nonzero(~np.isfinite(y))
        if bad:
            raise ValueError(f"{bad} of {len(y)} samples are not finite")
        return y

    return fv


def _node_tensor(fv, k: tuple) -> np.ndarray:
    axes = [np.arange((1 << ki) + 1) * math.ldexp(1.0, -ki) for ki in k]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    return fv(pts).reshape([(1 << ki) + 1 for ki in k])


@lru_cache(maxsize=None)
def _axis_perms(ndim: int, axis: int) -> tuple:
    """The permutation bringing axis to the front, and its inverse."""
    fwd = (axis,) + tuple(i for i in range(ndim) if i != axis)
    return fwd, tuple(fwd.index(i) for i in range(ndim))


def _apply_along_axis(W, T: np.ndarray, axis: int) -> np.ndarray:
    fwd, back = _axis_perms(T.ndim, axis)
    moved = T.transpose(fwd)
    res = W @ moved.reshape(T.shape[axis], -1)
    return res.reshape((W.shape[0],) + moved.shape[1:]).transpose(back)


def contract(T: np.ndarray, mats) -> np.ndarray:
    """Apply mats[i] along axis i of the node tensor T, one coordinate at a
    time (dimension 1 outermost)."""
    for axis in reversed(range(T.ndim)):
        T = _apply_along_axis(mats[axis], T, axis)
    return T


@dataclass
class SurplusLevel:
    """Dense surplus coefficients of one level k: entry [i_1,...,i_d] is
    c_{k, s_min + i}(f), s_min being shift_bounds(r, 0)[0] on every axis."""

    s_min: tuple
    coeffs: np.ndarray


def q_level(f, r: int, k) -> SurplusLevel:
    """All surplus coefficients of the level k."""
    k = bspline._as_level(k)
    T = _node_tensor(vectorize_handle(f, len(k)), k)
    return SurplusLevel((bspline.shift_bounds(r, 0)[0],) * len(k),
                        contract(T, [surplus_matrix(r, ki) for ki in k]))


def apply_Q(f, r: int, k, x) -> float | np.ndarray:
    """Value of the tensor quasi-interpolant Q_k(f) at x (a point or an
    (npts, d) array), computed directly from the sample functionals."""
    k = bspline._as_level(k)
    d = len(k)
    X = np.asarray(x, dtype=float)
    single = X.ndim <= 1
    X = np.atleast_2d(X)
    if X.shape[1] != d:
        raise ValueError("point dimension mismatch")
    if not ((X >= 0.0) & (X <= 1.0)).all():  # NaN fails both
        raise ValueError("evaluation point outside domain or not finite")
    T = _node_tensor(vectorize_handle(f, d), k)
    coeffs = contract(T, [sample_matrix(r, ki) for ki in k])
    s_min = (bspline.shift_bounds(r, 0)[0],) * d
    vals = bspline.eval_expansion(r, k, s_min, coeffs, X)
    return float(vals[0]) if single else vals
