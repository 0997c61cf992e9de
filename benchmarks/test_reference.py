"""Tests of the benchmark's reference computations.

Run from the root of a checkout:  python3 -m pytest benchmarks
"""

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


@pytest.mark.parametrize("r", ref.ORDERS)
def test_bspline_partition_of_unity(r):
    t = np.linspace(-3.0, 3.0, 601)
    den = ref.shift_denominator(r)
    # integer translates sum to 1; with half-integer shifts each of the
    # two interleaved integer lattices does
    total = sum(ref.centered_bspline(r, t - s) for s in range(-6, 7))
    np.testing.assert_allclose(total, 1.0, atol=1e-13)
    if den == 2:
        half = sum(ref.centered_bspline(r, t - s - 0.5) for s in range(-6, 7))
        np.testing.assert_allclose(half, 1.0, atol=1e-13)


def test_bspline_known_values():
    assert ref.centered_bspline(4, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ref.centered_bspline(4, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert ref.centered_bspline(3, 0.0) == pytest.approx(0.75, abs=1e-15)
    assert ref.centered_bspline(3, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert ref.centered_bspline(2, 0.25) == pytest.approx(0.75, abs=1e-15)
    # the box is right-open: 1 at -1/2, 0 at +1/2
    assert ref.centered_bspline(1, -0.5) == 1.0
    assert ref.centered_bspline(1, 0.5) == 0.0


@pytest.mark.parametrize("r", ref.ORDERS)
def test_bspline_support_symmetry_and_mass(r):
    n = 4000
    t = -r / 2.0 + (np.arange(n) + 0.5) * r / n   # midpoints of the support
    v = ref.centered_bspline(r, t)
    assert (v >= 0.0).all()
    assert ref.centered_bspline(r, r / 2.0 + 1e-9) == 0.0
    assert ref.centered_bspline(r, -r / 2.0 - 1e-9) == 0.0
    if r > 1:
        np.testing.assert_allclose(v, v[::-1], atol=1e-14)
    assert v.sum() * r / n == pytest.approx(1.0, abs=1e-6)


class _Level:
    def __init__(self, s_min, coeffs):
        self.s_min = s_min
        self.coeffs = np.asarray(coeffs, dtype=float)


class _Rec:
    def __init__(self, r, d, surplus):
        self.r, self.d, self.surplus = r, d, surplus


@pytest.mark.parametrize("r", ref.ORDERS)
def test_evaluate_single_coefficient_is_a_tensor_spline(r):
    den = ref.shift_denominator(r)
    k, s = (2, 1), (3, 2)
    coeffs = np.zeros((6, 5))
    coeffs[s[0] - 1, s[1] + 1] = 2.5
    rec = _Rec(r, 2, {k: _Level((1, -1), coeffs)})
    X = np.random.default_rng(0).random((40, 2))
    want = 2.5 * (ref.centered_bspline(r, 4 * X[:, 0] - s[0] / den)
                  * ref.centered_bspline(r, 2 * X[:, 1] - s[1] / den))
    np.testing.assert_allclose(ref.evaluate(rec, X, chunk=7), want,
                               atol=1e-14)


def test_evaluate_sums_levels_and_reproduces_constants():
    # order 2 at level 0: the hat coefficients at shifts 0 and 1 are the
    # endpoint values, so constants and the linear x + 2y are reproduced
    lin = _Level((0, 0), [[0.0, 2.0], [1.0, 3.0]])
    extra = _Level((0, 0, 0), np.zeros((3, 2, 2)))
    rec = _Rec(2, 2, {(0, 0): lin})
    X = np.random.default_rng(1).random((25, 2))
    np.testing.assert_allclose(ref.evaluate(rec, X), X[:, 0] + 2 * X[:, 1],
                               atol=1e-14)
    rec3 = _Rec(2, 3, {(0, 0, 0): _Level((0, 0, 0), np.ones((2, 2, 2))),
                       (1, 0, 0): extra})
    np.testing.assert_allclose(ref.evaluate(rec3, np.random.rand(9, 3)), 1.0,
                               atol=1e-14)


def test_distinct_count_hand_counted_grid():
    # levels (0,0), (1,0), (0,1) in 2-d: the four corners plus the edge
    # midpoints (1/2, 0), (1/2, 1), (0, 1/2) and (1, 1/2)
    assert ref.distinct_point_count([(0, 0), (1, 0), (0, 1)]) == 8
    # adding (1,1) fills in the centre
    assert ref.distinct_point_count([(0, 0), (1, 0), (0, 1), (1, 1)]) == 9
    # one dimension, levels 0..3: 2^3 + 1 points
    assert ref.distinct_point_count([(0,), (1,), (2,), (3,)]) == 9
    # a single level-(2, 1) grid has 5 * 3 points
    assert ref.distinct_point_count([(2, 1)]) == 15


def test_point_ids_match_level_ids_and_reject_off_lattice_points():
    K = (2, 1)
    X = np.array([[0.25, 0.5], [1.0, 0.0], [0.0, 1.0]])
    ids = ref.point_ids(X, K)
    assert len(set(ids.tolist())) == 3
    assert set(ids.tolist()) <= set(ref.level_ids((2, 1), K).tolist())
    with pytest.raises(ValueError):
        ref.point_ids(np.array([[0.125, 0.0]]), K)


def test_exact_integrals():
    x = (np.arange(200000) + 0.5) / 200000  # midpoint rule
    for lam in (0.5, 1.0, 1.25):
        got = np.mean(np.abs(x - 0.5) ** lam)
        assert got == pytest.approx(ref.kink_integral([lam]), rel=1e-6)
    assert ref.kink_integral([1.0, 0.0]) == pytest.approx(0.25)
    assert np.mean(np.sin(np.pi * x)) ** 2 == \
        pytest.approx(ref.sinprod_integral(2), rel=1e-9)
    assert ref.monomial_integral((3, 2)) == Fraction(1, 12)
    assert ref.monomial_integral(()) == 1


def test_tensor_poly_values():
    f = ref.tensor_poly([[1.0, 2.0], [0.0, 0.0, 3.0]])
    X = np.array([[0.5, 2.0], [1.0, 1.0]])
    np.testing.assert_allclose(f(X), [(1 + 1.0) * 12.0, 3.0 * 3.0])
    assert math.isclose(ref.kink([0.5])(np.array([[0.75]]))[0], 0.5)
