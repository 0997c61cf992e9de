import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgqi import bspline, quasi_interp
from oracles import (centered_expansion, cox_de_boor, eval_centered,
                     eval_dilated, integral_dilated_1d, integral_on_cube,
                     shift_ranges)


def integral(r, k, s):
    """bspline.integral_vector's entry for shift s; a shift outside
    shift_bounds(r, k) has no entry, its spline vanishes on [0,1]."""
    lo, hi = bspline.shift_bounds(r, k)
    return bspline.integral_vector(r, k)[s - lo] if lo <= s <= hi else 0.0


def test_frozen_center_values():
    assert eval_centered(1, 0.0) == 1.0
    assert eval_centered(2, 0.0) == 1.0
    assert eval_centered(3, 0.0) == 0.75
    assert math.isclose(eval_centered(4, 0.0), 2.0 / 3.0)
    assert math.isclose(eval_centered(4, 1.0), 1.0 / 6.0)
    assert eval_centered(3, 0.5) == 0.5
    # box convention: right-continuous at the jump
    assert eval_centered(1, -0.5) == 1.0
    assert eval_centered(1, 0.5) == 0.0


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_matches_cox_de_boor(r):
    ts = np.linspace(-2.5, 2.5, 641)  # includes all knots of every order
    for t in ts:
        assert abs(eval_centered(r, t) - cox_de_boor(r, t)) < 1e-12


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_support_and_symmetry(r):
    assert eval_centered(r, r / 2 + 1e-9) == 0.0
    assert eval_centered(r, -r / 2 - 1e-9) == 0.0
    if r > 1:
        ts = np.linspace(0.0, r / 2, 101)
        np.testing.assert_allclose(eval_centered(r, ts),
                                   eval_centered(r, -ts))


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 3.0), st.integers(1, 4))
def test_partition_of_unity(t, r):
    total = sum(eval_centered(r, t - s) for s in range(-6, 7))
    assert abs(total - 1.0) < 1e-12


def test_shift_bounds_counts():
    assert bspline.shift_bounds(2, 3) == (0, 8)
    assert bspline.shift_bounds(4, 2) == (-1, 5)
    # order 1 carries one extra shift: its box is right-open, so the
    # translate whose support meets [0,1] only at x=1 is still nonzero there
    assert bspline.shift_bounds(1, 2) == (0, 9)
    assert bspline.shift_bounds(3, 1) == (-2, 6)
    for r in bspline.ORDERS:
        for k in range(5):
            lo, hi = bspline.shift_bounds(r, k)
            n = hi - lo + 1
            if r % 2 == 0:
                assert n == (1 << k) + r - 1
            elif r == 1:
                assert n == (1 << (k + 1)) + 2
            else:
                assert n == (1 << (k + 1)) + 2 * r - 1


def test_active_shifts_cover_right_endpoint():
    # every active set must reproduce values at x = 1 exactly; the order-1
    # box is the delicate case (half-open support)
    for r in bspline.ORDERS:
        for k in (0, 1, 3):
            den = bspline.shift_denominator(r)
            lo, hi = bspline.shift_bounds(r, k)
            total = sum(eval_centered(r, (1 << k) * 1.0 - s / den)
                        for s in range(lo, hi + 1))
            # half-integer schemes double-cover; integer schemes sum to 1
            assert total > 0.999


def test_eval_dilated_tensor_product():
    v = eval_dilated(3, (1, 2), (1, 3), (0.3, 0.6))
    v1 = eval_centered(3, 2 * 0.3 - 0.5)
    v2 = eval_centered(3, 4 * 0.6 - 1.5)
    assert math.isclose(v, v1 * v2)


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_integral_interior_is_meshwidth(r):
    # a spline fully inside [0,1] integrates to 2^-k
    k = 4
    den = bspline.shift_denominator(r)
    s = den * (1 << (k - 1))  # centered at 1/2
    assert math.isclose(integral(r, k, s), 0.5**k, rel_tol=1e-13)


def test_integral_truncated_values():
    # order 2 hat at the left edge keeps only its right half
    assert math.isclose(integral(2, 0, 0), 0.5)
    assert math.isclose(integral(2, 2, 0), 0.125)
    # order 1 box at s=0 on level 0 covers [0, 1/2)
    assert math.isclose(integral(1, 0, 0), 0.5)


@pytest.mark.parametrize("r,k,s", [(2, 1, 0), (3, 1, -1), (4, 2, -1),
                                   (4, 3, 9), (3, 2, 11), (1, 1, 3)])
def test_integral_against_quadrature(r, k, s):
    from scipy.integrate import quad

    den = bspline.shift_denominator(r)
    val, _ = quad(lambda x: eval_centered(r, (1 << k) * x - s / den),
                  0.0, 1.0, limit=200)
    assert math.isclose(integral(r, k, s), val, rel_tol=1e-9, abs_tol=1e-12)


def test_integral_on_cube_is_product():
    v = integral_on_cube(4, (1, 2), (1, 3))
    v1 = integral(4, 1, 1)
    v2 = integral(4, 2, 3)
    assert math.isclose(v, v1 * v2)


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_integral_vector_matches_per_shift_reference(r):
    # the shared table of clipped integrals gives, bit for bit, what
    # integrating every shift on its own in exact arithmetic gives
    for k in range(13):
        lo, hi = bspline.shift_bounds(r, k)
        want = [integral_dilated_1d(r, k, s) for s in range(lo, hi + 1)]
        got = bspline.integral_vector(r, k)
        assert np.array_equal(got, want), (r, k)
        if r == 1:
            # the right-open box past x = 1 meets [0,1] in one point
            assert got[-1] == 0.0


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_integral_vector_is_correctly_rounded(r):
    # every entry is the float nearest the exact integral: interior shifts,
    # whose support lies in [0,1], exactly 2^-k, the clipped ones at both
    # edges against the exact oracle, up to the deepest level 13
    den = bspline.shift_denominator(r)
    for k in range(14):
        lo, hi = bspline.shift_bounds(r, k)
        got = bspline.integral_vector(r, k)
        for s in range(lo, hi + 1):
            if den * r <= 2 * s <= den * ((2 << k) - r):  # inside [0, 1]
                assert got[s - lo] == math.ldexp(1.0, -k), (k, s)
            else:
                assert got[s - lo] == integral_dilated_1d(r, k, s), (k, s)
        if r == 4 and k >= 2:
            # the edge shift s = 1 keeps 23/24 of the spline; the Gauss
            # rule this replaced read 0.9583333333333331 here and
            # 0.9999999999999999 on the interior
            assert got[1 - lo] == math.ldexp(float(Fraction(23, 24)), -k) \
                == math.ldexp(0.9583333333333334, -k)


@pytest.mark.parametrize("r", bspline.ORDERS)
def test_eval_expansion_matches_direct_sum(r):
    rng = np.random.default_rng(3)
    k = (1, 2)
    ranges = shift_ranges(r, k)
    coeffs = rng.standard_normal((len(ranges[0]), len(ranges[1])))
    s_min = (ranges[0].start, ranges[1].start)
    X = rng.uniform(0.0, 1.0, size=(40, 2))
    got = bspline.eval_expansion(r, k, s_min, coeffs, X)
    want = np.zeros(40)
    for i, s1 in enumerate(ranges[0]):
        for j, s2 in enumerate(ranges[1]):
            want += coeffs[i, j] * np.array(
                [eval_dilated(r, k, (s1, s2), x) for x in X])
    np.testing.assert_allclose(got, want, atol=1e-12)


def _random_box(r, k, crop, rng):
    """(s_min, coeffs) of a random expansion on the shift bounds of level
    k, or on a random cut of them when crop is set."""
    s_min, cut = [], []
    for lo, hi in (bspline.shift_bounds(r, ki) for ki in k):
        a = int(rng.integers(0, hi - lo + 1)) if crop else 0
        b = int(rng.integers(a + 1, hi - lo + 2)) if crop else hi - lo + 1
        s_min.append(lo + a)
        cut.append(b - a)
    return s_min, rng.standard_normal(cut)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
def test_eval_expansion_matches_centered_kernel(r, d, crop, seed, data):
    # the integer-knot kernel against the half-integer candidate kernel it
    # replaced, on a coefficient box that may be a cut of the shift bounds,
    # at random points, the knots of both schemes, 0 and 1
    k = tuple(data.draw(st.lists(st.integers(0, 4 if d <= 2 else 2),
                                 min_size=d, max_size=d)))
    rng = np.random.default_rng(seed)
    s_min, coeffs = _random_box(r, k, crop, rng)
    top = max(k) + 1
    knots = np.arange((1 << top) + 1) / (1 << top)
    X = np.vstack([rng.random((30, d)), rng.choice(knots, size=(30, d)),
                   rng.choice([0.0, 1.0], size=(8, d)), np.zeros((1, d)),
                   np.ones((1, d))])
    want = centered_expansion(r, k, s_min, coeffs, X)
    got = bspline.eval_expansion(r, k, s_min, coeffs, X)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.data())
def test_scattered_kernel_is_bitwise_lattice_contract(r, d, seed, data):
    # a few expansions, cut or whole, summed at the points of a lattice
    # whose axes hold 0, 1, knots and random points: the scattered kernel
    # and one contract per expansion over collocation tables give the
    # same bits
    rng = np.random.default_rng(seed)
    axes = []
    for _ in range(d):
        knots = np.arange(17) / 16
        axes.append(np.concatenate([[0.0, 1.0], rng.choice(knots, 3),
                                    rng.random(data.draw(st.integers(0, 4)))]))
    X = np.stack([g.reshape(-1) for g in
                  np.meshgrid(*axes, indexing="ij")], axis=1)
    scattered, lattice = np.zeros(len(X)), np.zeros([len(a) for a in axes])
    for _ in range(data.draw(st.integers(1, 3))):
        k = tuple(data.draw(st.lists(st.integers(0, 3 if d <= 2 else 2),
                                     min_size=d, max_size=d)))
        s_min, coeffs = _random_box(r, k, data.draw(st.booleans()), rng)
        scattered += bspline.eval_expansion(r, k, s_min, coeffs, X)
        K, P = bspline._integer_knots(r, k, s_min, coeffs)
        mats, window = zip(*(quasi_interp.collocation_matrix(r, Ki, ax)
                             for Ki, ax in zip(K, axes)))
        lattice += quasi_interp.contract(P[window], mats)
    assert lattice.reshape(-1).tobytes() == scattered.tobytes()


def test_order_out_of_range():
    with pytest.raises(ValueError, match="order"):
        eval_centered(5, 0.0)
    with pytest.raises(ValueError, match="order"):
        bspline.shift_bounds(0, 1)
