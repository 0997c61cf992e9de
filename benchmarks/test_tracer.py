"""Tests of the tracer: self time on synthetic spans, patching and the
probe-point count on a real build.

Run from the root of a checkout:  python3 -m pytest benchmarks
"""

import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as tr  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("d", 12.0, 13.0, None),
    ]
    st = tr.self_times(spans)
    assert st["a"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st["b"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert st["c"] == pytest.approx(1.0)
    assert st["d"] == pytest.approx(1.0)
    # self times add up to the time under root spans
    assert sum(st.values()) == pytest.approx(tr.root_time(spans))


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, None), ("x", 1.0, 5.0, 0), ("y", 3.0, 7.0, 0),
             ("z", 9.0, 12.0, 0)]
    assert tr.self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def _fake_package():
    inner = types.ModuleType("sgqi_fake_inner")

    def leaf(x):
        return x + 1

    def outer(x):
        return inner.leaf(x) * 2

    inner.leaf = leaf
    inner.outer = outer
    user = types.ModuleType("sgqi_fake_user")
    user.leaf = leaf           # as if taken in with `from inner import leaf`
    return inner, user, leaf


def test_install_wraps_every_reference_and_uninstall_restores(monkeypatch):
    inner, user, leaf = _fake_package()
    monkeypatch.setitem(sys.modules, "sgqi.fake_inner", inner)
    monkeypatch.setitem(sys.modules, "sgqi.fake_user", user)
    t = tr.Tracer()
    t.install([(inner, "leaf", "inner.leaf", tr._calls("inner.leaf")),
               (inner, "outer", "inner.outer", None),
               (inner, "missing", "inner.missing", None)])
    assert inner.outer(1) == 4
    assert user.leaf(1) == 2
    names = [s[0] for s in t.spans]
    assert names == ["inner.outer", "inner.leaf", "inner.leaf"]
    assert t.spans[1][3] == 0 and t.spans[2][3] is None
    assert t.counts["inner.leaf.calls"] == 2
    t.uninstall()
    assert inner.leaf is leaf and user.leaf is leaf


def test_failing_counter_does_not_stop_the_call(monkeypatch, capsys):
    inner, _, _ = _fake_package()
    monkeypatch.setitem(sys.modules, "sgqi.fake_inner", inner)
    t = tr.Tracer()

    def broken(tracer, scratch, args, kwargs, result):
        raise KeyError("gone")

    t.install([(inner, "leaf", "inner.leaf", broken)])
    assert inner.leaf(1) == 2 and inner.leaf(2) == 3
    t.uninstall()
    assert t.counts["trace.hook_errors"] == 2


def test_probe_points_and_layer_counts_on_a_real_build():
    from sgqi import grids, recovery

    spec = grids.SmoothnessSpec(d=2, r=4, p=2.0, theta=2.0, q=2.0,
                                kind="mixed", a=(1.0, 1.5))
    make = lambda xi: grids.delta_mixed(xi, spec)  # noqa: E731
    t = tr.Tracer()
    t.install(tr.targets())
    try:
        delta = make(grids.xi_for_budget(300, make))
        f = t.user_function(lambda X: np.sin(X[:, 0]) + X[:, 1] ** 2)
        rec = recovery.build(f, delta, 4)
        recovery.evaluate_batch(rec, np.random.default_rng(0).random((5, 2)))
    finally:
        t.uninstall()
    assert recovery.build.__name__ == "build" and \
        not hasattr(recovery.build, "__wrapped__")
    c = t.counts
    assert c["recovery.build.calls"] == 1
    assert c["recovery.build.samples"] == rec.sample_budget
    # every point f received inside build is a sample or a probe
    probes = c["_build_f_points"] - c["recovery.build.samples"]
    assert probes == c["quasi_interp.f_points"] - rec.sample_budget
    assert probes >= 0
    assert c["recovery.evaluate_batch.points"] == 5
    assert c["recovery.evaluate_batch.levels_total"] == len(delta)
    assert 0 < c["recovery.evaluate_batch.levels_active"] <= len(delta)
    assert c["bspline.eval_expansion.calls"] == \
        c["recovery.evaluate_batch.levels_active"]
    assert c["bspline.eval_expansion.combos"] == 5 * 4 ** 2 * \
        c["bspline.eval_expansion.calls"]
    st = tr.self_times(t.spans)
    assert set(st) >= {"grids.xi_for_budget", "grids.delta", "recovery.build",
                       "quasi_interp.surplus_matrix", "user.f",
                       "recovery.evaluate_batch", "bspline.eval_expansion"}
    assert sum(st.values()) == pytest.approx(tr.root_time(t.spans))
