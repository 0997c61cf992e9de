"""Sampling recovery over a level set: build surpluses from point samples
and evaluate the reconstruction anywhere in the cube.

The reconstruction is sum over levels k in Delta of the level detail
q_k(f), each stored as a dense per-level coefficient array.  Building
samples f once at every distinct point of the (downward closed) set's grid,
so the number of function evaluations is auditable, then gathers the node
values of each chain of levels agreeing off axis 0 once.  Evaluation sums
over level groups: levels that differ along one axis are merged exactly
into one expansion on the finest of them by B-spline refinement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import bspline
from .grids import LevelSet, chains, sample_grid
from .quasi_interp import (SurplusLevel, _apply_along_axis, refine_matrix,
                           surplus_matrix, vectorize_handle)

SLAB = 1 << 16  # points per evaluation slab, and per lattice estimator tile


@dataclass
class Reconstruction:
    """Surplus coefficients of R_Delta(f) plus sampling bookkeeping."""

    r: int
    d: int
    delta: LevelSet
    surplus: dict  # level vector -> SurplusLevel
    sample_budget: int
    declared_budget: int

    def max_level(self):
        return self.delta.max_level()


def build(f, delta: LevelSet, r: int) -> Reconstruction:
    """Compute all surplus coefficients of f over the level set.

    f is evaluated only at dyadic grid points of G(Delta); each distinct
    point once (sample_budget reports how many).  Non-finite samples are
    rejected with ValueError.  Per axis-0 chain, the level-(m, rest) nodes
    are contracted off axis 0 once; level (j, rest) applies its axis-0
    table to every 2^(m-j)-th row.  As contract applies axis 0 last and a
    table treats each column alone, every level is bitwise q_level's.
    """
    grid = sample_grid(delta)
    vals = vectorize_handle(f, delta.d)(grid.coords())
    built = {}
    for rest, m in chains(delta.levels).items():
        top = (m,) + rest
        T = vals[grid.positions(top)].reshape([(1 << ki) + 1 for ki in top])
        for axis in range(delta.d - 1, 0, -1):
            T = _apply_along_axis(surplus_matrix(r, top[axis])[0], T, axis)
        s_rest = tuple(surplus_matrix(r, ki)[1] for ki in rest)
        for j in range(m + 1):
            W, lo = surplus_matrix(r, j)
            built[(j,) + rest] = SurplusLevel(
                k=(j,) + rest, s_min=(lo,) + s_rest,
                coeffs=_apply_along_axis(W, T[::1 << (m - j)], 0))
    return Reconstruction(r=r, d=delta.d, delta=delta,
                          surplus={k: built[k] for k in delta.levels},
                          sample_budget=grid.distinct_points,
                          declared_budget=delta.budget())


def _level_groups(rec: Reconstruction):
    """Yield the reconstruction as a few expansions (k, s_min, coeffs),
    one per level group, whose sum equals sum_k q_k on [0,1]^d exactly.

    A group is a chain of levels 0..K along one axis (grids.chains), the
    axis leaving the fewest.  It is accumulated Horner-style from level 0
    up to K, acc = R_k acc + c_{k+1}, with R_k the two-scale refinement
    quasi_interp.refine_matrix, so each group is refined once and yields
    the level-K expansion.  Groups are built one at a time as the caller
    iterates.
    """
    surplus = rec.surplus
    axis = min(range(rec.d), key=lambda a: len(chains(surplus, a)))
    for rest, m in chains(surplus, axis).items():
        lvl = [surplus[rest[:axis] + (j,) + rest[axis:]] for j in range(m + 1)]
        acc = lvl[0].coeffs
        for j in range(m):
            acc = (_apply_along_axis(refine_matrix(rec.r, j), acc, axis)
                   + lvl[j + 1].coeffs)
        yield lvl[m].k, lvl[m].s_min, acc


def evaluate_batch(rec: Reconstruction, points) -> np.ndarray:
    """Reconstruction values at many points (shape (npts, d) or a flat
    array for d = 1); order matches the input.

    Every level contributes; a non-finite coefficient gives non-finite
    values wherever its spline reaches.
    """
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        return np.zeros(0)
    if X.ndim == 1:
        X = X.reshape(-1, 1) if rec.d == 1 else X.reshape(1, -1)
    if X.shape[1] != rec.d:
        raise ValueError("point dimension mismatch")
    if not ((X >= 0.0) & (X <= 1.0)).all():  # NaN fails both
        raise ValueError("evaluation point outside domain or not finite")
    out = np.zeros(X.shape[0])
    # groups outside, slabs inside: one collapsed array alive at a time
    for k, s_min, coeffs in _level_groups(rec):
        for start in range(0, X.shape[0], SLAB):
            sl = slice(start, start + SLAB)
            out[sl] += bspline.eval_expansion(rec.r, k, s_min, coeffs, X[sl])
    return out


def lattice_groups(rec: Reconstruction) -> list:
    """The level groups of rec on integer knots (bspline._integer_knots),
    built once for all the lattices of one error estimate."""
    return [bspline._integer_knots(rec.r, k, s_min, coeffs)
            for k, s_min, coeffs in _level_groups(rec)]


def evaluate_lattice(rec: Reconstruction, axes, groups=None) -> np.ndarray:
    """Reconstruction values on the tensor lattice of d coordinate vectors,
    bitwise equal to evaluate_batch at its points in C order.  groups is
    lattice_groups(rec), built here when not given."""
    coords = np.ix_(*(np.asarray(ax, dtype=float) for ax in axes))
    if len(coords) != rec.d:
        raise ValueError("point dimension mismatch")
    if not all(((x >= 0.0) & (x <= 1.0)).all() for x in coords):
        raise ValueError("evaluation point outside domain or not finite")
    out = np.zeros([x.size for x in coords])
    for K, b_min, coeffs in lattice_groups(rec) if groups is None else groups:
        out += bspline.eval_knots(rec.r, K, b_min, coeffs, coords)
    return out


def evaluate(rec: Reconstruction, x) -> float:
    """Reconstruction value at a single point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(evaluate_batch(rec, x.reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# serialization (experiment resumption)

_FORMAT = "sgqi-reconstruction"
_VERSION = 1


def to_json_dict(rec: Reconstruction) -> dict:
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "r": rec.r,
        "d": rec.d,
        "xi": rec.delta.xi,
        "family": rec.delta.family,
        "sample_budget": rec.sample_budget,
        "declared_budget": rec.declared_budget,
        "levels": [
            {
                "k": list(lvl.k),
                "s_min": list(lvl.s_min),
                "shape": list(lvl.coeffs.shape),
                "coeffs": lvl.coeffs.reshape(-1).tolist(),
            }
            for _, lvl in sorted(rec.surplus.items())
        ],
    }


def _dump_level(entry, r: int, d: int) -> SurplusLevel:
    k = tuple(entry["k"])
    if len(k) != d or any(not isinstance(v, (int, np.integer)) or v < 0
                          for v in k):
        raise ValueError(f"level {list(k)} is not {d} nonnegative integers")
    k = tuple(int(v) for v in k)
    bounds = [bspline.shift_bounds(r, ki) for ki in k]
    s_min = tuple(lo for lo, _ in bounds)
    if tuple(entry["s_min"]) != s_min:
        raise ValueError(f"s_min of level {list(k)} does not match its "
                         "shift bounds")
    shape = tuple(hi - lo + 1 for lo, hi in bounds)
    if tuple(entry["shape"]) != shape:
        raise ValueError(f"shape of level {list(k)} is not {list(shape)}")
    coeffs = np.array(entry["coeffs"], dtype=float)
    if coeffs.shape != (math.prod(shape),):
        raise ValueError(f"level {list(k)} holds {coeffs.size} coefficients,"
                         f" not {math.prod(shape)}")
    if not np.isfinite(coeffs).all():
        raise ValueError(f"level {list(k)} has non-finite coefficients")
    return SurplusLevel(k=k, s_min=s_min, coeffs=coeffs.reshape(shape))


def from_json_dict(obj: dict) -> Reconstruction:
    """Reconstruction from a dump; ValueError unless d >= 1, there is a
    level, every level matches its shift bounds, every coefficient is
    finite and the level set is downward closed."""
    if obj.get("format") != _FORMAT:
        raise ValueError("not a reconstruction dump")
    if obj.get("version") != _VERSION:
        raise ValueError("unsupported dump version")
    r, d = obj["r"], obj["d"]
    if not (isinstance(d, int) and d >= 1 and obj["levels"]):
        raise ValueError("a dump needs d >= 1 and at least one level")
    surplus = {}
    for entry in obj["levels"]:
        lvl = _dump_level(entry, r, d)
        if lvl.k in surplus:
            raise ValueError(f"level {list(lvl.k)} appears twice")
        surplus[lvl.k] = lvl
    delta = LevelSet(d=d, levels=tuple(sorted(surplus)),
                     xi=obj["xi"], family=obj["family"])
    if not delta.is_downward_closed():
        raise ValueError("level set must be downward closed")
    return Reconstruction(r=r, d=d, delta=delta, surplus=surplus,
                          sample_budget=obj["sample_budget"],
                          declared_budget=obj["declared_budget"])


def save(rec: Reconstruction, path) -> None:
    # json.dumps runs the C encoder (json.dump the pure-Python one); level
    # by level, the text of one level is held in memory at a time
    obj = to_json_dict(rec)
    levels, obj["levels"] = obj["levels"], []
    with open(path, "w") as fh:
        fh.write(json.dumps(obj)[:-2])  # "levels" is the last key
        for i, entry in enumerate(levels):
            fh.write(", " * (i > 0) + json.dumps(entry))
        fh.write("]}")


def load(path) -> Reconstruction:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
