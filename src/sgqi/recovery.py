"""Sampling recovery over a level set: build surpluses from point samples
and evaluate the reconstruction anywhere in the cube.

The reconstruction is sum over levels k in Delta of the level detail
q_k(f), each stored as a dense per-level coefficient array.  Building
samples f once at every distinct point of the (downward closed) set's grid,
so the number of function evaluations is auditable, then walks the levels
gathering each level's node values from those samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bspline
from .grids import LevelSet, sample_grid
from .quasi_interp import (SurplusField, SurplusLevel, contract,
                           surplus_matrix, vectorize_handle)

# relative cutoff below which a whole level's coefficients count as noise
# (they arise when a functional with weights summing to 0 exactly in
# rationals is applied, in floats, to samples constant in a coordinate)
SKIP_TOL = 1e-14


@dataclass
class Reconstruction:
    """Surplus coefficients of R_Delta(f) plus sampling bookkeeping."""

    r: int
    d: int
    delta: LevelSet
    surplus: SurplusField
    sample_budget: int
    declared_budget: int

    def max_level(self):
        return self.delta.max_level()


def build(f, delta: LevelSet, r: int) -> Reconstruction:
    """Compute all surplus coefficients of f over the level set.

    f is evaluated only at dyadic grid points of G(Delta); each distinct
    point once (sample_budget reports how many).  Non-finite samples are
    rejected with ValueError.
    """
    grid = sample_grid(delta)
    vals = vectorize_handle(f, delta.d)(grid.coords())
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise ValueError(f"{bad} of {len(vals)} samples are not finite")
    surplus = SurplusField()
    for k in delta.levels:
        T = vals[grid.positions(k)].reshape([(1 << ki) + 1 for ki in k])
        T = contract(T, [surplus_matrix(r, ki)[0] for ki in k])
        s_min = tuple(bspline.shift_bounds(r, ki)[0] for ki in k)
        surplus[k] = SurplusLevel(k=k, s_min=s_min, coeffs=T)
    return Reconstruction(r=r, d=delta.d, delta=delta, surplus=surplus,
                          sample_budget=grid.distinct_points,
                          declared_budget=delta.budget())


def evaluate_batch(rec: Reconstruction, points, chunk: int = 1 << 16,
                   skip_tol: float = SKIP_TOL) -> np.ndarray:
    """Reconstruction values at many points (shape (npts, d) or a flat
    array for d = 1); order matches the input.

    Levels whose coefficients are uniformly below skip_tol relative to
    the largest coefficient are skipped (they contribute only rounding
    noise); pass skip_tol=0 to force summing everything.
    """
    X = np.asarray(points, dtype=float)
    if X.size == 0:
        return np.zeros(0)
    if X.ndim == 1:
        X = X.reshape(-1, 1) if rec.d == 1 else X.reshape(1, -1)
    if X.shape[1] != rec.d:
        raise ValueError("point dimension mismatch")
    if (X < 0.0).any() or (X > 1.0).any():
        raise ValueError("evaluation point outside domain")
    den = bspline.shift_denominator(rec.r)
    scale = max((float(np.max(np.abs(lvl.coeffs)))
                 for lvl in rec.surplus.values()), default=0.0)
    cutoff = skip_tol * scale
    active = [lvl for lvl in rec.surplus.values()
              if float(np.max(np.abs(lvl.coeffs))) > cutoff]
    out = np.zeros(X.shape[0])
    for start in range(0, X.shape[0], chunk):
        sl = slice(start, min(start + chunk, X.shape[0]))
        Xc = X[sl]
        acc = np.zeros(Xc.shape[0])
        for lvl in active:
            acc += bspline.eval_expansion(rec.r, lvl.k, lvl.s_min,
                                          lvl.coeffs, Xc, den=den)
        out[sl] = acc
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


def from_json_dict(obj: dict) -> Reconstruction:
    if obj.get("format") != _FORMAT:
        raise ValueError("not a reconstruction dump")
    if obj.get("version") != _VERSION:
        raise ValueError("unsupported dump version")
    surplus = SurplusField()
    levels = []
    for entry in obj["levels"]:
        k = tuple(entry["k"])
        levels.append(k)
        coeffs = np.array(entry["coeffs"], dtype=float).reshape(entry["shape"])
        surplus[k] = SurplusLevel(k=k, s_min=tuple(entry["s_min"]),
                                  coeffs=coeffs)
    delta = LevelSet(d=obj["d"], levels=tuple(sorted(levels)),
                     xi=obj["xi"], family=obj["family"])
    return Reconstruction(r=obj["r"], d=obj["d"], delta=delta,
                          surplus=surplus,
                          sample_budget=obj["sample_budget"],
                          declared_budget=obj["declared_budget"])


def save(rec: Reconstruction, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(rec), fh)


def load(path) -> Reconstruction:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
