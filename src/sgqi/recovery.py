"""Sampling recovery over a level set: build surpluses from point samples
and evaluate the reconstruction anywhere in the cube.

The reconstruction is sum over levels k in Delta of the level detail
q_k(f), a dense coefficient array computed when read.  Building samples f
once at every distinct point of the (downward closed) set's grid, so the
number of function evaluations is auditable, then gathers the node values
of each chain of levels agreeing off axis 0 and contracts them off it.
The level set and those samples determine every coefficient, so a dump
(save/load) holds just them and load rebuilds the rest.  Evaluation sums
a few boxes, as the combination technique writes a sparse-grid function
as a sum of anisotropic full-grid ones: the details of a chain's levels,
which differ along axis 0 only, telescope to Q_m along that axis, one
expansion at the finest of them, and neighbouring chains are lifted onto
one box level by B-spline refinement and added while that costs no more
coefficients.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bspline
from .grids import LevelSet, SampleGrid, chains, sample_grid
from .quasi_interp import (SurplusLevel, _apply_along_axis,
                           collocation_matrix, contract, refine_matrix,
                           sample_matrix, surplus_matrix, vectorize_handle)


class _Surplus(Mapping):
    """Read-only {level: SurplusLevel} of a built reconstruction in the
    order of delta.levels.  Per axis-0 chain rest of levels 0..m it keeps
    U, the level-(m, rest) node values contracted off axis 0.  Level (j,
    rest) is computed when read, as surplus_matrix(r, j) along axis 0 of
    U[::2^(m-j)]; the chain's sum over j, which telescopes to Q_m along
    axis 0, is sample_matrix(r, m) along axis 0 of U (chain_sum)."""

    def __init__(self, r: int, delta: LevelSet, chains: dict):
        self._r, self._delta, self._chains = r, delta, chains

    def __getitem__(self, k) -> SurplusLevel:
        if k not in self:
            raise KeyError(k)
        m, U = self._chains[k[1:]]
        c = _apply_along_axis(surplus_matrix(self._r, k[0]),
                              U[::1 << (m - k[0])], 0)
        c.flags.writeable = False
        return SurplusLevel((bspline.shift_bounds(self._r, 0)[0],) * len(k),
                            c)

    def __contains__(self, k) -> bool:
        return k in self._delta._index

    def __iter__(self):
        return iter(self._delta.levels)

    def __len__(self) -> int:
        return len(self._delta.levels)

    def chain_sum(self, rest) -> np.ndarray:
        """The sum of the levels (0..m, rest) as one level-(m, rest)
        expansion, from one product."""
        m, U = self._chains[rest]
        return _apply_along_axis(sample_matrix(self._r, m), U, 0)


@dataclass
class Reconstruction:
    """Surplus coefficients of R_Delta(f) per level of delta (computed when
    read, and read-only, if built) and sample_budget, the number of distinct
    points f was sampled at; samples (read-only) is f at the rows of
    sample_grid(delta), or None for a reconstruction made from coefficients,
    which cannot be saved.  The evaluation boxes (_level_groups) are built
    at the first evaluation, from a built reconstruction's chain sums or
    else from its levels, and kept: a later write to a level is not seen."""

    r: int
    d: int
    delta: LevelSet
    surplus: Mapping  # level vector -> SurplusLevel
    sample_budget: int
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
    """Per axis-0 chain, the samples at the level-(m, rest) nodes (rows from
    grid._chain_tensors) contracted off axis 0 by the surplus tables of
    rest, as q_level's contract does before axis 0, kept in a _Surplus."""
    delta = grid.delta
    vals = np.array(values, dtype=float)  # owned, so it can be frozen
    if vals.shape != (grid.distinct_points,):
        raise ValueError(f"{vals.size} samples for {grid.distinct_points} "
                         "grid points")
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise ValueError(f"{bad} of {vals.size} samples are non-finite")
    vals.flags.writeable = False
    built = {}
    for rest, m, T in grid._chain_tensors():
        U = vals[T]
        for i in reversed(range(1, delta.d)):
            U = _apply_along_axis(surplus_matrix(r, rest[i - 1]), U, i)
        built[rest] = m, U
    return Reconstruction(r=r, d=delta.d, delta=delta,
                          surplus=_Surplus(r, delta, built),
                          sample_budget=grid.distinct_points, samples=vals)


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

    The chains run along axis 0 (grids.chains).  A built chain of levels
    0..m is one part, its sum at its top level (_Surplus.chain_sum, by the
    telescoping identity); a chain of coefficients has one part per level.
    Each part is lifted by the two-scale refinement
    quasi_interp.refine_matrix along every axis where its level is below
    the box's and added into the box's accumulator, so the
    reconstruction's arrays are never written.  Every level, and so the
    box, starts at the shift shift_bounds(r, 0)[0].
    """
    r, surplus = rec.r, rec.surplus
    s_min = (bspline.shift_bounds(r, 0)[0],) * rec.d
    for box, tops in _box_plan(r, surplus):
        acc = np.zeros(_shape(r, box))
        for top in tops:
            rest = top[1:]
            parts = ([(top, surplus.chain_sum(rest))]
                     if isinstance(surplus, _Surplus) else
                     [((j,) + rest, surplus[(j,) + rest].coeffs)
                      for j in range(top[0] + 1)])
            for k, c in parts:
                for i in range(rec.d):
                    for j in range(k[i], box[i]):
                        c = _apply_along_axis(refine_matrix(r, j), c, i)
                acc += c
        yield box, s_min, acc


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
