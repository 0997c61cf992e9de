"""Sparse-grid quasi-interpolation: B-spline sampling recovery on the unit
cube with anisotropic level sets, induced cubature, and rate diagnostics."""

from .bspline import shift_bounds, shift_denominator
from .grids import (LevelSet, SampleGrid, SmoothnessSpec, comparison_sets,
                    delta_energy, delta_hybrid, delta_mixed, nu_exponent,
                    sample_grid, theta_le_taustar, trade_exponent,
                    xi_for_budget)
from .quasi_interp import apply_Q, q_level
from .recovery import (Reconstruction, build, build_from_samples, evaluate,
                       evaluate_batch, evaluate_lattice, load, save)
from .cubature import (CubatureRule, apply_rule, assemble_weights,
                       integrate_reconstruction)
from .analysis import (RateFit, TestFunction, corpus, discrete_lq_error,
                       energy_error_surrogate, fit_rate)

__version__ = "0.1.0"
