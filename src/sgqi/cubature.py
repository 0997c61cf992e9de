"""Cubature induced by the sampling recovery operator.

Integrating the reconstruction exactly (spline integrals are known in
closed form) collapses to a weighted sum of the original point samples.
This module exposes both views: integrate an already-built reconstruction,
or assemble the weight for every grid point once and reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bspline
from .grids import LevelSet, SampleGrid, sample_grid
from .quasi_interp import contract, surplus_matrix, vectorize_handle
from .recovery import Reconstruction


def integrate_reconstruction(rec: Reconstruction) -> float:
    """Exact integral of the reconstruction over the unit cube."""
    total = 0.0
    for k in sorted(rec.surplus):  # one level computed at a time
        rows = [bspline.integral_vector(rec.r, ki)[None, :] for ki in k]
        total += float(contract(rec.surplus[k].coeffs, rows).reshape(()))
    return total


@dataclass
class CubatureRule:
    """Point weights lambda_x for integrating sampled functions.

    weights[i] is the weight of row i of grid (see grids.SampleGrid), so
    points() and weights are aligned, in lexicographic coordinate order.
    The grid holds the level set, grid.delta, and so the dimension and the
    budget.
    """

    grid: SampleGrid
    weights: np.ndarray

    def points(self) -> np.ndarray:
        return self.grid.coords()


@lru_cache(maxsize=None)
def _axis_weights(r: int, k: int) -> np.ndarray:
    """Cubature weights of the univariate level-k surplus on its nodes:
    (integral vector) @ (surplus matrix), summed in the order of scipy's
    transposed product."""
    W, y = surplus_matrix(r, k), bspline.integral_vector(r, k)
    rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    w = np.bincount(W.indices, W.data * y[rows], W.shape[1])
    w.flags.writeable = False  # the cache hands it to every caller
    return w


def _level_weights(r: int, k: tuple) -> np.ndarray:
    """Cubature weights of the level-k detail on its node tensor, the
    outer product of the per-axis weights."""
    w = np.ones(())
    for ki in k:
        w = np.multiply.outer(w, _axis_weights(r, ki))
    return w


def assemble_weights(delta: LevelSet, r: int) -> CubatureRule:
    """Accumulate per-point cubature weights over all levels of the set,
    in the order of delta.levels, adding each level's node weights onto
    the rows of its nodes: level (j, rest) is the axis-0 stride 2^(m - j)
    of its chain top's tensor of row numbers (SampleGrid._chain_tensors).
    """
    bspline._check_order(r)
    grid = sample_grid(delta)
    tops = {rest: (m, T) for rest, m, T in grid._chain_tensors()}
    weights = np.zeros(grid.distinct_points)
    for k in delta.levels:
        m, T = tops[k[1:]]
        weights[T[:: 1 << (m - k[0])]] += _level_weights(r, k)
    return CubatureRule(grid=grid, weights=weights)


def apply_rule(rule: CubatureRule, f) -> float:
    """Evaluate f once per grid point and return the weighted sum;
    non-finite values of f raise ValueError."""
    vals = vectorize_handle(f, rule.grid.delta.d)(rule.points())
    # numpy fixes the order of add.reduce, where BLAS ddot would split a
    # long sum across its threads
    return float(np.add.reduce(rule.weights * vals))


# ---------------------------------------------------------------------------
# exact text export

def _exact_decimal(num: int, exp: int) -> str:
    """Decimal string of num / 2**exp with no rounding (dyadics terminate)."""
    if exp == 0:
        return str(num)
    digits = num * 5 ** exp  # num/2^exp = num*5^exp / 10^exp
    sign = "-" if digits < 0 else ""
    s = str(abs(digits)).rjust(exp + 1, "0")
    whole, frac = s[:-exp], s[-exp:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def export_csv(rule: CubatureRule, fh) -> None:
    """Write `x_1,...,x_d,weight` rows; coordinates as exact decimals."""
    names = [f"x_{i + 1}" for i in range(rule.grid.delta.d)]
    fh.write(",".join(names) + ",weight\n")
    cols = []  # per axis, each distinct coordinate's string made once
    for col, Ki in zip(rule.grid.lattice().T.tolist(), rule.grid.K):
        text = {c: _exact_decimal(c, Ki) for c in set(col)}
        cols.append([text[c] for c in col])
    for *coords, w in zip(*cols, rule.weights.tolist()):
        fh.write(",".join(coords) + "," + repr(w) + "\n")
