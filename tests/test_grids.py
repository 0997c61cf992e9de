import gc
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgqi import cubature, grids, recovery
from oracles import (bisection_xi_for_budget, box_scan_levels, dfs_set,
                     dict_weights, distinct_dyadic_points, dyadic_point_set,
                     level_lattice, neighbour_walk_closed,
                     searchsorted_positions, xi_scan)


MIXED = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="mixed", a=(1.0, 2.0))
MIXED_B = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                               kind="mixed", a=(1.0, 2.0), epsilon=0.25)
HYB_A = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="hybrid", alpha=1.0, beta=1.0)
ENERGY = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                              kind="hybrid", alpha=2.0, beta=0.0, gamma=1.0)


def test_classify_triples():
    assert grids.classify_triple(2.0, 1.0, 2.0) == "A"
    assert grids.classify_triple(2.0, 2.0, 2.0) == "B"
    assert grids.classify_triple(1.0, math.inf, 2.0) == "B"
    assert grids.classify_triple(1.0, 0.5, math.inf) == "A"
    with pytest.raises(ValueError, match="positive"):
        grids.classify_triple(0.0, 1.0, 2.0)


def test_theta_le_taustar():
    assert grids.theta_le_taustar(1.0, 2.0)
    assert not grids.theta_le_taustar(1.5, 2.0)
    assert grids.theta_le_taustar(0.5, 0.5)


def test_trade_exponent():
    assert grids.trade_exponent(2.0, 2.0) == 0.0
    assert grids.trade_exponent(1.0, 2.0) == 0.5
    assert grids.trade_exponent(2.0, 1.0) == 0.0
    assert grids.trade_exponent(1.0, math.inf) == 1.0


def test_frozen_mixed_class_A():
    # b = a = (1, 2): levels with k1 + 2 k2 <= 3
    delta = grids.delta_mixed(3.0, MIXED)
    assert sorted(delta.levels) == [(0, 0), (0, 1), (1, 0), (1, 1),
                                    (2, 0), (3, 0)]
    assert delta.budget() == 4 + 6 + 6 + 9 + 10 + 18
    assert delta.family == "mixed-A"


def test_frozen_hybrid_class_A():
    # phi = k1 + k2 + max(k) <= 2
    delta = grids.delta_hybrid(2.0, HYB_A)
    assert sorted(delta.levels) == [(0, 0), (0, 1), (1, 0)]
    assert delta.to_text() == "0 0\n0 1\n1 0\n"


def test_frozen_energy_sharp():
    # phi = 2(k1 + k2) - max(k) <= 2
    delta = grids.delta_energy(2.0, ENERGY, True)
    assert sorted(delta.levels) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
    assert delta.family == "energy"


def test_enumeration_matches_box_scan():
    cases = [
        ((1.0, 2.0), 0.0, 5.0),
        ((1.0, 1.0), 1.0, 4.0),
        ((2.0, 2.0), -1.0, 6.0),  # negative max coefficient
        ((0.75, 1.25), 0.5, 3.5),
    ]
    for b, cinf, xi in cases:
        got = sorted(grids._build(xi, 2, b, cinf, "test").levels)
        want = box_scan_levels(2, b, cinf, xi, kmax=12)
        assert got == want, (b, cinf, xi)


def test_budget_and_distinct_counts():
    one = grids.LevelSet(d=2, levels=((0, 0),), xi=0.0, family="t")
    assert one.budget() == 4
    assert one.distinct_points() == 4
    two = grids.LevelSet(d=1, levels=((0,), (1,)), xi=0.0, family="t")
    assert two.budget() == 5
    assert two.distinct_points() == 3
    three = grids.LevelSet(d=1, levels=((0,), (1,), (2,)), xi=0.0, family="t")
    assert three.budget() == 10
    assert three.distinct_points() == 5


def test_distinct_points_against_literal_union():
    for xi in (2.0, 4.0):
        delta = grids.delta_mixed(xi, MIXED)
        assert delta.distinct_points() == distinct_dyadic_points(delta.levels)
    delta = grids.delta_energy(3.0, ENERGY, True)
    assert delta.distinct_points() == distinct_dyadic_points(delta.levels)


def test_enumeration_leaves_no_reference_cycles():
    # a cycle would keep every enumerated level list alive until the
    # cyclic collector happens to run
    gc.collect()
    gc.disable()
    try:
        grids.delta_mixed(6.0, MIXED)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_non_finite_xi_is_rejected(xi):
    # an infinite bound never ends the enumeration; NaN gave an empty set
    with pytest.raises(ValueError, match="finite"):
        grids.delta_mixed(xi, MIXED)
    with pytest.raises(ValueError, match="finite"):
        grids.comparison_sets(xi, 1.0, "fullgrid", 2)


def test_downward_closure():
    for xi in (0.0, 2.5, 5.0):
        assert grids.delta_mixed(xi, MIXED_B).is_downward_closed()
        assert grids.delta_hybrid(xi, HYB_A).is_downward_closed()
        assert grids.delta_energy(xi, ENERGY, False).is_downward_closed()
    hole = grids.LevelSet(d=2, levels=((0, 0), (2, 0)), xi=0.0, family="t")
    assert not hole.is_downward_closed()


def test_class_B_contains_class_A():
    # p = q = 2: theta = 1 is class A, theta = 2 class B
    spec = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                kind="mixed", a=(1.0, 2.0))
    sharp = replace(spec, theta=1.0)
    for xi in (3.0, 6.0):
        a_set = grids.delta_mixed(xi, sharp)
        b_set = grids.delta_mixed(xi, spec)
        assert (a_set.family, b_set.family) == ("mixed-A", "mixed-B")
        assert a_set.issubset(b_set)
    for beta in (0.5, -0.5):
        spec = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                    kind="hybrid", alpha=1.5, beta=beta)
        for xi in (3.0, 6.0):
            assert grids.delta_hybrid(xi, replace(spec, theta=1.0)).issubset(
                grids.delta_hybrid(xi, spec))


def test_energy_eps_contains_sharp():
    for gamma, beta in [(1.0, 0.0), (0.5, 1.5)]:
        spec = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                    kind="hybrid", alpha=2.0, beta=beta,
                                    gamma=gamma)
        for xi in (3.0, 6.0, 9.0):
            sharp = grids.delta_energy(xi, spec, True)
            eps = grids.delta_energy(xi, spec, False)
            assert sharp.issubset(eps)


def test_xi_for_budget_matches_scan():
    make = lambda xi: grids.delta_mixed(xi, MIXED)
    for n in (10, 53, 200, 1311):
        xi = grids.xi_for_budget(n, make)
        assert make(xi).budget() <= n
        # the scan lands elsewhere on the same budget plateau; the chosen
        # level set must agree
        scan = xi_scan(n, make, 16.0)
        assert sorted(make(xi).levels) == sorted(make(scan).levels)
    make_fg = lambda xi: grids.comparison_sets(xi, 1.0, "fullgrid", 2)
    xi = grids.xi_for_budget(100, make_fg)
    assert make_fg(xi).budget() <= 100 < make_fg(xi + 1.0).budget()
    with pytest.raises(ValueError, match="minimal grid"):
        grids.xi_for_budget(1, make)


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_xi_for_budget_rejects_non_finite_budget(n):
    # NaN used to return xi = 1.0; infinity doubled xi until memory ran out
    make = lambda xi: grids.delta_mixed(xi, MIXED)
    with pytest.raises(ValueError, match="finite"):
        grids.xi_for_budget(n, make)


def test_xi_for_budget_rate_near_zero():
    # alpha + beta - gamma = 1e-6: each axis alone reaches level 10^6 at
    # xi = 1, a set the search used to enumerate until memory ran out
    spec = grids.SmoothnessSpec(d=4, r=2, p=2.0, theta=2.0, q=2.0,
                                kind="hybrid", alpha=0.6, beta=1e-6,
                                gamma=0.6)
    make = lambda xi: grids.delta_energy(xi, spec, False)
    for n in (100, 10**5):
        xi = grids.xi_for_budget(n, make)
        above = min(v for v in make(2.0 * xi + 1e-5).phi if round(v, 9) > xi)
        assert make(xi).budget() <= n < make(above).budget()


def test_degenerate_unit_step_is_rejected():
    # alpha + beta - gamma = 1e-12 is below the tolerance 1e-9 of xi, so
    # the set at xi = 0 would hold every level up to depth 1000 per axis
    spec = grids.SmoothnessSpec(d=4, r=2, p=2.0, theta=2.0, q=2.0,
                                kind="hybrid", alpha=0.6, beta=1e-12,
                                gamma=0.6)
    make = lambda xi: grids.delta_energy(xi, spec, False)
    with pytest.raises(ValueError, match="degenerate"):
        make(0.0)
    with pytest.raises(ValueError, match="degenerate"):
        grids.xi_for_budget(100, make)


def _xi_cases():
    """(make_delta, d, b, c) of every family: mixed at d = 1..5 in both
    classes, hybrid with beta > 0 and beta < 0 (c < 0), energy (c < 0)
    with both flags, fullgrid and smolyak.  p = q = 2, so theta = 1 picks
    class A and theta = 2 class B."""
    def case(spec, family, flag, make):
        b, c, _ = grids._functional(spec, family, flag)
        return make, spec.d, b, c

    out = []
    for d in range(1, 6):
        for theta in (1.0, 2.0):
            spec = grids.SmoothnessSpec(
                d=d, r=4, p=2.0, theta=theta, q=2.0, kind="mixed",
                a=tuple(1.0 + 0.25 * i for i in range(d)))
            out.append(case(spec, "mixed", None,
                            lambda xi, s=spec: grids.delta_mixed(xi, s)))
    pos = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                               kind="hybrid", alpha=1.0, beta=0.5)
    neg = grids.SmoothnessSpec(d=3, r=4, p=2.0, theta=2.0, q=2.0,
                               kind="hybrid", alpha=2.0, beta=-0.5)
    for spec in (pos, neg):
        for theta in (1.0, 2.0):
            s = replace(spec, theta=theta)
            out.append(case(s, "hybrid", None,
                            lambda xi, s=s: grids.delta_hybrid(xi, s)))
    energy = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                  kind="hybrid", alpha=2.0, beta=0.5,
                                  gamma=1.0)
    for flag in (True, False):
        out.append(case(energy, "energy", flag,
                        lambda xi, f=flag: grids.delta_energy(xi, energy, f)))
    for d in (2, 3):
        out.append((lambda xi, d=d: grids.comparison_sets(
            xi, 1.5, "fullgrid", d), d, (0.0,) * d, 1.5))
        out.append((lambda xi, d=d: grids.comparison_sets(
            xi, 1.5, "smolyak", d), d, (1.5,) * d, 0.0))
    return out


XI_CASES = _xi_cases()


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(XI_CASES) - 1), st.floats(0.0, 9.0),
       st.integers(-1, 1))
def test_xi_for_budget_matches_bisection_oracle(case, xi, step):
    # the budget of a set at a breakpoint, one below it and one above it:
    # either side of a plateau edge, and below the minimal grid at xi = 0
    make, d, b, c = XI_CASES[case]
    oracle = lambda x: dfs_set(d, b, c, x)
    delta, want_set = make(xi), oracle(xi)
    assert delta.levels == want_set.levels and delta.phi == want_set.phi
    # the set at xi is the levels of a larger set gated within its bound
    top = make(2.0 * xi + 1.0)
    assert tuple(k for k, g in zip(top.levels, top.gate)
                 if g <= grids._bound(xi)) == delta.levels
    n = delta.budget() + step
    if oracle(0.0).budget() > n:
        with pytest.raises(ValueError, match="minimal grid"):
            grids.xi_for_budget(n, make)
        return
    got = grids.xi_for_budget(n, make)
    assert type(got) is float
    assert got.hex() == bisection_xi_for_budget(n, oracle).hex()


def test_nu_exponent_values():
    assert grids.nu_exponent(
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0, kind="mixed",
                             a=(1.0, 1.5)), "mixed") == 1.0
    assert grids.nu_exponent(
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="hybrid", alpha=1.0, beta=0.5),
        "hybrid") == 1.25
    assert grids.nu_exponent(
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="hybrid", alpha=1.5, beta=-0.5),
        "hybrid") == 1.0
    assert grids.nu_exponent(ENERGY, "energy") == 1.0
    beta_big = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                    kind="hybrid", alpha=2.0, beta=1.5,
                                    gamma=0.5)
    assert grids.nu_exponent(beta_big, "energy") == 2.5
    # integration trades against L_1 instead of L_q
    mixed_p1 = grids.SmoothnessSpec(d=2, r=4, p=1.0, theta=1.0, q=2.0,
                                    kind="mixed", a=(1.5, 2.0))
    assert grids.nu_exponent(mixed_p1, "mixed") == 1.0
    assert grids.nu_exponent(mixed_p1, "mixed", integration=True) == 1.5


def test_comparison_sets():
    fg = grids.comparison_sets(2.0, 1.0, "fullgrid", 2)
    assert len(fg) == 9 and fg.max_level() == (2, 2)
    sm = grids.comparison_sets(2.0, 1.0, "smolyak", 2)
    assert sorted(sm.levels) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
                                 (2, 0)]
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            grids.comparison_sets(2.0, lam, "fullgrid", 2)
    for d in (0, -2):
        with pytest.raises(ValueError, match="dimension"):
            grids.comparison_sets(2.0, 1.0, "smolyak", d)
    with pytest.raises(ValueError, match="comparison kind"):
        grids.comparison_sets(2.0, 1.0, "box", 2)


def test_containment_chain_at_matched_rate():
    # anisotropic set inside the Smolyak simplex inside the full box when
    # both references run at lam = nu
    cases = [
        (lambda xi: grids.delta_mixed(xi, MIXED_B),
         grids.nu_exponent(MIXED_B, "mixed")),
        (lambda xi: grids.delta_hybrid(xi, HYB_A),
         grids.nu_exponent(HYB_A, "hybrid")),
        (lambda xi: grids.delta_energy(xi, ENERGY, False),
         grids.nu_exponent(ENERGY, "energy")),
    ]
    for make, nu in cases:
        for xi in (3.0, 6.0, 9.0):
            aniso = make(xi)
            sm = grids.comparison_sets(xi, nu, "smolyak", 2)
            fg = grids.comparison_sets(xi, nu, "fullgrid", 2)
            assert aniso.issubset(sm)
            assert sm.issubset(fg)


def test_spec_validation():
    with pytest.raises(ValueError, match="d-vector"):
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="mixed", a=(1.0,)).validate()
    with pytest.raises(ValueError, match="a_1 < a_2"):
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="mixed", a=(1.0, 1.0)).validate()
    with pytest.raises(ValueError, match="nonzero"):
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="hybrid", alpha=1.0, beta=0.0).validate()
    with pytest.raises(ValueError, match="unknown kind"):
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="besov").validate()
    # boundary case 1/p = alpha + beta: accepted, and its level sets build
    # in class A (theta = 1) and class B (theta = 2); past it, rejected
    edge = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                                kind="hybrid", alpha=1.0, beta=-0.5)
    edge.validate()
    for theta, family in ((1.0, "hybrid-A"), (2.0, "hybrid-B")):
        delta = grids.delta_hybrid(3.0, replace(edge, theta=theta))
        assert delta.family == family and len(delta) > 1
    with pytest.raises(ValueError, match=r"1/p <= min\(alpha"):
        replace(edge, beta=-0.51).validate()
    with pytest.raises(ValueError, match="gamma"):
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="hybrid", alpha=2.0, beta=1.0,
                             gamma=-1.0).validate()
    with pytest.raises(ValueError, match="alpha too small"):
        grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=1.0, q=2.0,
                             kind="hybrid", alpha=1.0, beta=0.5,
                             gamma=2.0).validate()


def test_epsilon_interval_enforced():
    bad = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                               kind="mixed", a=(1.0, 2.0), epsilon=1.5)
    with pytest.raises(ValueError, match=r"legal interval is \(0,"):
        grids.delta_mixed(3.0, bad)
    ok = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                              kind="mixed", a=(1.0, 2.0), epsilon=0.75)
    grids.delta_mixed(3.0, ok)


def test_family_dispatch():
    d1 = grids.delta_for_family(3.0, MIXED, "mixed")
    assert d1.family == "mixed-A"
    with pytest.raises(ValueError, match="theta"):
        grids.delta_for_family(3.0, ENERGY, "energy")
    with pytest.raises(ValueError, match="unknown family"):
        grids.delta_for_family(3.0, MIXED, "sparse")
    with pytest.raises(ValueError, match="hybrid with gamma"):
        grids.delta_energy(3.0, MIXED, True)
    with pytest.raises(ValueError, match="must be mixed"):
        grids.delta_mixed(3.0, HYB_A)


@pytest.mark.parametrize("spec, family", [
    (MIXED, "hybrid"), (MIXED, "energy"), (HYB_A, "mixed"),
    (HYB_A, "energy"), (ENERGY, "mixed"), (MIXED, "sparse")])
def test_family_mismatch_raises_same_error(spec, family):
    # nu_exponent used to raise TypeError on a mismatched kind, and a
    # message of its own for energy without gamma
    with pytest.raises(ValueError) as built:
        grids.delta_for_family(3.0, spec, family, theta_le_taustar_flag=True)
    with pytest.raises(ValueError) as nu:
        grids.nu_exponent(spec, family)
    assert str(nu.value) == str(built.value)
    assert "must be" in str(nu.value) or "unknown family" in str(nu.value)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 8.0), st.floats(0.0, 8.0))
def test_levelsets_nest_in_xi(xi1, xi2):
    lo, hi = sorted([xi1, xi2])
    assert grids.delta_mixed(lo, MIXED).issubset(grids.delta_mixed(hi, MIXED))


def test_level_point_keys_roundtrip():
    delta = grids.LevelSet(d=2, levels=tuple(np.ndindex(2, 3)), xi=0.0,
                           family="box")
    sg = grids.sample_grid(delta)
    keys = _level_rows(sg)[(1, 2)]
    assert len(keys) == 3 * 5
    assert len(set(keys.tolist())) == 15
    coords = [tuple(p) for p in sg.coords()[keys].tolist()]
    # C order: second coordinate varies fastest
    assert coords[0] == (0.0, 0.0)
    assert coords[1] == (0.0, 0.25)
    assert coords[5] == (0.5, 0.0)


def _level_rows(sg) -> dict:
    """{k: row of every node of the level-k lattice, in C order of its node
    tensor} over the set: level (j,) + rest is the axis-0 stride 2^(m - j)
    of the tensor of rows of its chain top (m,) + rest."""
    return {(j,) + rest: T[:: 1 << (m - j)].reshape(-1)
            for rest, m, T in sg._chain_tensors() for j in range(m + 1)}


def _assert_positions_match_search(delta):
    sg = grids.sample_grid(delta)
    rows = _level_rows(sg)
    assert sorted(rows) == sorted(delta.levels)
    for k in delta.levels:
        assert np.array_equal(rows[k], searchsorted_positions(sg, k))


def test_sample_grid_counts():
    delta = grids.delta_mixed(3.0, MIXED)
    sg = grids.sample_grid(delta)
    rows = _level_rows(sg)
    assert delta.budget() == sum(len(rows[k]) for k in delta.levels)
    pts = sg.coords()
    assert pts.shape == (delta.distinct_points(), 2)
    assert len(np.unique(pts, axis=0)) == len(pts)


@st.composite
def downward_closed_sets(draw):
    d = draw(st.integers(1, 4))
    top = st.integers(0, 3 if d <= 2 else 2)
    corners = draw(st.lists(st.tuples(*[top] * d), min_size=1, max_size=4))
    levels = {tuple(int(v) for v in k) for c in corners
              for k in np.ndindex(*[ci + 1 for ci in c])}
    return grids.LevelSet(d=d, levels=tuple(sorted(levels)), xi=0.0,
                          family="random")


@settings(max_examples=60, deadline=None)
@given(downward_closed_sets(), st.integers(1, 4))
def test_point_identity_matches_oracles(delta, r):
    sg = grids.sample_grid(delta)
    pts = dyadic_point_set(delta.levels)
    assert [tuple(Fraction(c, 1 << Ki) for c, Ki in zip(row, sg.K))
            for row in sg.lattice().tolist()] == pts
    coords = sg.coords()
    # the multiply by powers of two is bitwise the former ldexp
    old = np.ldexp(sg.lattice().astype(float), -np.array(sg.K, np.int64))
    assert coords.dtype == old.dtype and coords.tobytes() == old.tobytes()
    rows = _level_rows(sg)
    for k in delta.levels:
        nodes = [[float(v) for v in p] for p in level_lattice(k)]
        assert np.array_equal(coords[rows[k]], np.array(nodes))
    rule = cubature.assemble_weights(delta, r)
    keys, want = dict_weights(delta.levels,
                              lambda k: cubature._level_weights(r, k))
    assert keys == pts
    assert np.array_equal(rule.weights, want)


@settings(max_examples=60, deadline=None)
@given(downward_closed_sets())
def test_positions_match_searchsorted_reference(delta):
    _assert_positions_match_search(delta)


@st.composite
def family_sets(draw):
    """(make, n): a mixed (class A or B), hybrid (A or B) or energy (sharp
    or perturbed) level-set family with d = 2-5, and a budget."""
    d, r = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    family = draw(st.sampled_from(["mixed", "hybrid", "energy"]))
    flag = draw(st.booleans())  # class A, or the sharp energy set
    # p = q = 2: class A iff theta <= 1
    kw = dict(d=d, r=r, p=2.0, theta=1.0 if flag else 2.0, q=2.0)
    if family == "mixed":
        a0 = draw(st.floats(0.6, r - 0.6))
        rest = draw(st.lists(st.floats(a0 + 0.05, r - 0.01),
                             min_size=d - 1, max_size=d - 1))
        spec = grids.SmoothnessSpec(kind="mixed", a=(a0, *sorted(rest)), **kw)
    else:
        alpha = draw(st.floats(0.6, r - 0.6))
        beta = draw(st.floats(0.55 - alpha, r - 0.05 - alpha))
        gamma = draw(st.floats(0.1, 1.0)) if family == "energy" else None
        spec = grids.SmoothnessSpec(kind="hybrid", alpha=alpha, beta=beta,
                                    gamma=gamma, **kw)
    make = lambda xi: grids.delta_for_family(  # noqa: E731
        xi, spec, family, theta_le_taustar_flag=flag)
    try:
        make(0.0)
    except ValueError:  # beta = 0 or gamma, alpha too small for energy
        assume(False)
    return make, draw(st.integers(100, 100_000))


@settings(max_examples=80, deadline=None)
@given(family_sets())
def test_axis_0_leaves_fewest_chains(family):
    # chains, sample_grid, build and evaluation all run along axis 0
    make, n = family
    delta = make(grids.xi_for_budget(n, make))
    counts = [len({k[:a] + k[a + 1:] for k in delta.levels})
              for a in range(delta.d)]
    assert counts[0] == min(counts) == len(grids.chains(delta.levels))


@settings(max_examples=30, deadline=None)
@given(family_sets())
def test_family_positions_match_searchsorted_reference(family):
    # the oracle builds every node id of every level, so the budget is
    # kept small
    make, n = family
    _assert_positions_match_search(make(grids.xi_for_budget(min(n, 3000),
                                                            make)))


def test_sample_grid_rejects_int64_overflow():
    # finest lattice (2^8 + 1)^8 > 2^63 although the grid itself is tiny
    d = 8
    levels = {(0,) * d} | {tuple(j if i == axis else 0 for i in range(d))
                           for axis in range(d) for j in range(1, 9)}
    delta = grids.LevelSet(d=d, levels=tuple(sorted(levels)), xi=0.0,
                           family="axes")
    with pytest.raises(ValueError, match="int64"):
        grids.sample_grid(delta)


def test_sample_grid_rejects_empty_level_set():
    # xi < 0 leaves no level; its grid would be empty, not an error
    delta = grids.delta_mixed(-1.0, MIXED_B)
    assert len(delta) == 0
    with pytest.raises(ValueError, match="no levels"):
        grids.sample_grid(delta)


MALFORMED = [
    (1, ((-1,), (0,)), "negative"), (2, ((0,), (0, 1)), "1 entries, not 2"),
    (1, ((0,), (1,), (1,)), "appears twice"),
    (0, ((),), "at least 1"), (-1, (), "at least 1")]


@pytest.mark.parametrize("d,levels,match", MALFORMED)
def test_sample_grid_rejects_malformed_levels(d, levels, match):
    # a negative level gave a silent two-point grid, a short one IndexError
    with pytest.raises(ValueError, match=match):
        grids.sample_grid(grids.LevelSet(d=d, levels=levels, xi=0.0,
                                         family="t"))


@pytest.mark.parametrize("d,levels,match", MALFORMED)
def test_level_set_rejects_malformed_levels(d, levels, match):
    # budget() and distinct_points() of ((0,), (1,), (1,)) counted (1,)
    # twice: the budget read 8, not 5
    with pytest.raises(ValueError, match=match):
        grids.LevelSet(d=d, levels=levels, xi=0.0, family="t")


@st.composite
def level_sets_with_holes(draw):
    """A downward-closed set with up to 3 levels dropped and up to 3 added,
    in any order: closed or not."""
    closed = draw(downward_closed_sets())
    drop = draw(st.sets(st.sampled_from(closed.levels), max_size=3))
    extra = draw(st.sets(st.tuples(*[st.integers(0, 4)] * closed.d),
                         max_size=3))
    levels = draw(st.permutations(sorted(set(closed.levels) - drop | extra)))
    return grids.LevelSet(d=closed.d, levels=tuple(levels), xi=0.0,
                          family="random")


@settings(max_examples=200, deadline=None)
@given(level_sets_with_holes())
def test_downward_closure_matches_neighbour_walk(delta):
    assert delta.is_downward_closed() == neighbour_walk_closed(delta.levels)


@pytest.mark.parametrize("call", [
    lambda delta: cubature.assemble_weights(delta, 4),
    lambda delta: recovery.build(lambda X: X[:, 0] ** 3, delta, 4),
    lambda delta: recovery.build_from_samples([0.0, 0.5, 1.0], delta, 4)],
    ids=["assemble_weights", "build", "build_from_samples"])
def test_repeated_level_fails_loudly(call):
    # the weights of (1,) were added twice: x^3 integrated to -2.8e-17
    with pytest.raises(ValueError, match="appears twice"):
        call(grids.LevelSet(d=1, levels=((0,), (1,), (1,)), xi=0.0,
                            family="box"))
