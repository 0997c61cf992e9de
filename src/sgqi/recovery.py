"""Sampling recovery over a level set: build surpluses from point samples
and evaluate the reconstruction anywhere in the cube.

The reconstruction is sum over levels k in Delta of the level detail
q_k(f), each stored as a dense per-level coefficient array.  Building
samples f once at every distinct point of the (downward closed) set's grid,
so the number of function evaluations is auditable, then gathers the node
values of each chain of levels agreeing off axis 0 once.  The level set
and those samples determine every coefficient, so a dump (save/load) holds
just them and load rebuilds the rest.  Evaluation sums a few boxes, as
the combination technique writes a sparse-grid function as a sum of
anisotropic full-grid ones: levels that differ along one axis are merged
exactly into one expansion on the finest of them by B-spline refinement,
and neighbouring such chains are lifted onto one box level and added
while that costs no more coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bspline
from .grids import LevelSet, SampleGrid, chains, sample_grid
from .quasi_interp import (SurplusLevel, _apply_along_axis, _chain_matrix,
                           collocation_matrix, contract, refine_matrix,
                           surplus_matrix, vectorize_handle)


@dataclass
class Reconstruction:
    """Surplus coefficients of R_Delta(f) plus sampling bookkeeping;
    samples (read-only) is f at the rows of sample_grid(delta), or None
    for a reconstruction made from coefficients, which cannot be saved.
    The evaluation boxes (_level_groups) are built at the first evaluation
    and kept, so a later write to a coefficient array is not seen."""

    r: int
    d: int
    delta: LevelSet
    surplus: dict  # level vector -> SurplusLevel
    sample_budget: int
    declared_budget: int
    samples: np.ndarray | None = None

    @cached_property
    def _boxes(self) -> list:
        return list(_level_groups(self))


def build(f, delta: LevelSet, r: int) -> Reconstruction:
    """Compute all surplus coefficients of f over the level set.

    f is evaluated only at dyadic grid points of G(Delta); each distinct
    point once (sample_budget reports how many).  Non-finite samples are
    rejected with ValueError.
    """
    grid = sample_grid(delta)
    return _build(vectorize_handle(f, delta.d)(grid.coords()), grid, r)


def build_from_samples(values, delta: LevelSet, r: int) -> Reconstruction:
    """The reconstruction of the samples values, aligned with the rows of
    sample_grid(delta); ValueError unless there is one finite value per
    row.  build(f, delta, r) is this applied to f at those rows."""
    return _build(values, sample_grid(delta), r)


def _build(values, grid: SampleGrid, r: int) -> Reconstruction:
    """Per axis-0 chain, one contract of the samples at the level-(m, rest)
    nodes, whose rows grid._chain_tensors assembles from the chain's own
    block and its parents' tensors: off axis 0 by the surplus tables of
    rest, then along it by the stacked tables of levels (0..m, rest);
    level j's coefficients are its row block.  As contract applies axis 0
    last and a table treats each column alone, every level is bitwise
    q_level's."""
    delta = grid.delta
    vals = np.array(values, dtype=float)  # owned, so it can be frozen
    if vals.shape != (grid.distinct_points,):
        raise ValueError(f"{vals.size} samples for {grid.distinct_points} "
                         "grid points")
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise ValueError(f"{bad} of {vals.size} samples are non-finite")
    vals.flags.writeable = False
    lo = bspline.shift_bounds(r, 0)[0]  # the first shift of every level
    built = {}
    for rest, m, T in grid._chain_tensors():
        W, first = _chain_matrix(r, m)
        T = contract(vals[T], [W] + [surplus_matrix(r, ki)[0] for ki in rest])
        for j in range(m + 1):
            built[(j,) + rest] = SurplusLevel(
                k=(j,) + rest, s_min=(lo,) * delta.d,
                coeffs=T[first[j]:first[j + 1]])
    return Reconstruction(r=r, d=delta.d, delta=delta,
                          surplus={k: built[k] for k in delta.levels},
                          sample_budget=grid.distinct_points,
                          declared_budget=delta.budget(), samples=vals)


def _shape(r: int, k: tuple) -> list:
    """Shape of the coefficient array of a level-k expansion."""
    return [hi - lo + 1 for lo, hi in (bspline.shift_bounds(r, ki)
                                       for ki in k)]


def _box_plan(r: int, surplus) -> list:
    """[(box, chain tops)]: the axis-0 chains of surplus, in sorted order
    of their other entries, cut into runs of neighbours.  A run grows to
    the componentwise max of its tops while that box holds no more
    coefficients than the tops together."""
    size = lambda k: math.prod(_shape(r, k))
    plan, held = [], 0
    for rest, m in sorted(chains(surplus).items()):
        top = (m,) + rest
        if plan:
            box = tuple(map(max, plan[-1][0], top))
            if size(box) <= held + size(top):
                plan[-1] = (box, plan[-1][1] + [top])
                held += size(top)
                continue
        plan.append((top, [top]))
        held = size(top)
    return plan


def _level_groups(rec: Reconstruction):
    """Yield the reconstruction as a few expansions (k, s_min, coeffs),
    one per box of _box_plan, whose sum equals sum_k q_k on [0,1]^d
    exactly.

    The chains run along axis 0 (grids.chains).  A chain of levels 0..m
    is refined Horner-style from level 0 up to the box's axis-0 level,
    c = R_j c, plus c_{j+1} while j < m, with R_j the two-scale
    refinement quasi_interp.refine_matrix; then lifted by R along every
    other axis where the top is below the box and added into the box's
    accumulator, so the reconstruction's arrays are never written.  Every
    level starts at the same shift, so the box keeps s_min.
    """
    r, surplus = rec.r, rec.surplus
    for box, tops in _box_plan(r, surplus):
        acc = np.zeros(_shape(r, box))
        for top in tops:
            c = surplus[(0,) + top[1:]].coeffs
            for j in range(box[0]):
                c = _apply_along_axis(refine_matrix(r, j), c, 0)
                if j < top[0]:
                    c = c + surplus[(j + 1,) + top[1:]].coeffs
            for i in range(1, rec.d):
                for j in range(top[i], box[i]):
                    c = _apply_along_axis(refine_matrix(r, j), c, i)
            acc += c
        yield box, surplus[top].s_min, acc


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
    if X.ndim != 2 or X.shape[1] != rec.d:
        raise ValueError("point dimension mismatch")
    if not ((X >= 0.0) & (X <= 1.0)).all():  # NaN fails both
        raise ValueError("evaluation point outside domain or not finite")
    out = np.zeros(X.shape[0])
    for k, s_min, coeffs in rec._boxes:
        bspline.eval_expansion(rec.r, k, s_min, coeffs, X, out=out)
    return out


def evaluate_lattice(rec: Reconstruction, axes) -> np.ndarray:
    """Reconstruction values on the tensor lattice of d coordinate vectors:
    one contract per box, put on integer knots, of the window of
    coefficients the lattice reaches, over the axes' tables from
    quasi_interp.collocation_matrix.  That sums in the nested order of
    bspline.eval_knots, so the values are bitwise evaluate_batch's at the
    lattice points in C order."""
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    if len(axes) != rec.d or any(ax.ndim != 1 for ax in axes):
        raise ValueError("point dimension mismatch")
    if not all(((x >= 0.0) & (x <= 1.0)).all() for x in axes):
        raise ValueError("evaluation point outside domain or not finite")
    out = np.zeros([len(ax) for ax in axes])
    if out.size == 0:
        return out
    for k, s_min, coeffs in rec._boxes:
        K, P = bspline._integer_knots(rec.r, k, s_min, coeffs)
        mats, window = zip(*(collocation_matrix(rec.r, Ki, ax)
                             for Ki, ax in zip(K, axes)))
        out += contract(P[window], mats)
    return out


def evaluate(rec: Reconstruction, x) -> float:
    """Reconstruction value at a single point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(evaluate_batch(rec, x.reshape(1, -1))[0])


# ---------------------------------------------------------------------------
# serialization (experiment resumption)

_FORMAT = "sgqi-reconstruction"
_VERSION = 2


def to_json_dict(rec: Reconstruction) -> dict:
    """The dump of rec: its level set and samples, in the row order of
    sample_grid(rec.delta); ValueError if rec holds no samples."""
    if rec.samples is None:
        raise ValueError("a reconstruction without samples cannot be saved")
    return {"format": _FORMAT, "version": _VERSION, "r": rec.r, "d": rec.d,
            "xi": rec.delta.xi, "family": rec.delta.family,
            "levels": [list(k) for k in rec.delta.levels],
            "samples": rec.samples.tolist()}


def from_json_dict(obj: dict) -> Reconstruction:
    """Reconstruction rebuilt from a dump by build_from_samples; ValueError
    unless d is an integer >= 1, r one of bspline.ORDERS, xi a finite
    number, family a string, the levels a list of lists of integers that
    LevelSet and sample_grid take, and the samples one finite float per
    grid point."""
    if obj.get("format") != _FORMAT:
        raise ValueError("not a reconstruction dump")
    if obj.get("version") != _VERSION:
        raise ValueError("unsupported dump version")
    d, r, levels, samples = (obj.get(key) for key in
                             ("d", "r", "levels", "samples"))
    # type() is int: a JSON true is a bool, which isinstance takes for 1
    if not (type(d) is int and d >= 1):
        raise ValueError(f"d must be an integer >= 1, not {d!r}")
    if not (type(r) is int and r in bspline.ORDERS):
        raise ValueError(f"r must be one of {bspline.ORDERS}, not {r!r}")
    if not isinstance(levels, list):
        raise ValueError(f"levels must be a list, not {levels!r}")
    for k in levels:
        if not (isinstance(k, list) and all(type(v) is int for v in k)):
            raise ValueError(f"level {k!r} is not a list of integers")
    xi, family = obj.get("xi"), obj.get("family")
    # comparison, unlike math.isfinite, takes any int
    if not (type(xi) in (int, float) and -math.inf < xi < math.inf):
        raise ValueError(f"xi must be a finite number, not {xi!r}")
    if type(family) is not str:
        raise ValueError(f"family must be a string, not {family!r}")
    delta = LevelSet(d=d, levels=tuple(map(tuple, levels)), xi=xi,
                     family=family)
    if not (isinstance(samples, list)
            and all(type(v) is float for v in samples)):  # as save writes
        raise ValueError("samples must be a list of floats")
    return build_from_samples(samples, delta, r)


def save(rec: Reconstruction, path) -> None:
    text = json.dumps(to_json_dict(rec))  # before open: a failure keeps path
    with open(path, "w") as fh:
        fh.write(text)


def load(path) -> Reconstruction:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
