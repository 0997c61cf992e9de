"""The four benchmark workloads.

Each workload names the surplus tables its set-up fills, prepares its
seeded inputs and runs passes, each a list of timed operations.  The
outputs are checked against reference.py or against properties the method
must have: check_pass() after every pass, outside the timed region, and
final_check() once at the end.  A pass calls sgqi only through its public
functions or its command line.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import reference as ref

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def counted(tracer, f):
    """f as handed to sgqi: wrapped for counting in a traced pass."""
    return f if tracer is None else tracer.user_function(f)


def mixed_spec(sgqi, d, r, a):
    return sgqi.grids.SmoothnessSpec(d=d, r=r, p=2.0, theta=2.0, q=2.0,
                                     kind="mixed", a=tuple(a))


def kink_exponents(a, p=2.0):
    """lam_i = a_i - 1/p: the product kink sits exactly at smoothness a."""
    return [ai - 1.0 / p for ai in a]


class Pass:
    """Operation latencies of one pass, failures among them, and outputs
    kept for the checks."""

    def __init__(self):
        self.ops = []
        self.failed = 0
        self.out = {}

    def timed(self, fn, *args):
        t = time.perf_counter()
        result = fn(*args)
        self.ops.append(time.perf_counter() - t)
        return result


class Workload:
    min_ops = 0           # a run also lasts until this many operations
    # what query_p50_ms and query_p90_ms are taken over: single operations
    # where a caller waits for each one, otherwise whole passes
    op_latency = False
    # peak RSS in kB of the processes doing the work, when those are not
    # the workload process itself
    peak_rss_kb = 0

    def prepare(self):
        pass

    def check_pass(self, p):
        return []

    def final_check(self):
        return []


def _tables(r, deltas):
    return {(r, ki) for delta in deltas for k in delta.levels for ki in k}


def _close(got, want, tol, what):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)) /
                       np.maximum(1.0, np.abs(want))))
    return [] if err <= tol else [f"{what}: error {err:.3g} > {tol:g}"]


# ---------------------------------------------------------------------------


class RecoverLadderD2(Workload):
    """Criterion-5 budget ladder, in process with warm tables."""

    name = "recover-ladder-d2"
    r = 4
    a = (1.0, 1.5)
    budgets = [int(round(100 * 1000 ** (i / 7))) for i in range(8)]
    halton_points = 1 << 13
    target_slope = -1.0   # nu = a_1 - (1/p - 1/q)_+ with p = q = 2

    def __init__(self, sgqi, seed, tmp):
        self.sgqi = sgqi
        self.spec = mixed_spec(sgqi, 2, self.r, self.a)
        self.f = ref.kink(kink_exponents(self.a))
        self.seed = seed
        self.counts = {}

    def make(self, xi):
        return self.sgqi.grids.delta_mixed(xi, self.spec)

    def tables(self):
        g = self.sgqi.grids
        return _tables(self.r, [self.make(g.xi_for_budget(n, self.make))
                                for n in self.budgets])

    def nan_probe(self, tracer):
        """R(0.1, 0.1) for f = 1 on x_1 <= 1/2 and NaN beyond, on a fixed
        grid that does not depend on the seed.  A finite answer hides the
        NaN samples, so it counts as a failed operation; ValueError or a
        non-finite value is correct."""
        sg = self.sgqi
        delta = self.make(sg.grids.xi_for_budget(self.budgets[0], self.make))
        f = counted(tracer, lambda X: np.where(X[:, 0] > 0.5, np.nan, 1.0))
        try:
            rec = sg.recovery.build(f, delta, self.r)
            value = sg.recovery.evaluate_batch(rec, np.array([[0.1, 0.1]]))[0]
        except ValueError:
            return True
        return not math.isfinite(value)

    def run_pass(self, tracer):
        sg = self.sgqi
        f = counted(tracer, self.f)
        p = Pass()
        rows = []

        def rung(n):
            delta = self.make(sg.grids.xi_for_budget(n, self.make))
            rec = sg.recovery.build(f, delta, self.r)
            err = sg.analysis.discrete_lq_error(
                f, rec, q_norm=2.0, method="halton",
                points=self.halton_points, seed=self.seed)
            rows.append((delta.levels, delta.budget(), rec.sample_budget, err))

        for n in self.budgets:
            p.timed(rung, n)
        fit = p.timed(sg.analysis.fit_rate, [(b, e) for _, b, _, e in rows])
        if not p.timed(self.nan_probe, tracer):
            p.failed += 1
        p.out = {"rows": rows, "slope": fit.slope}
        return p

    def check_pass(self, p):
        errors = []
        for levels, _, samples, _ in p.out["rows"]:
            if levels not in self.counts:
                self.counts[levels] = ref.distinct_point_count(levels)
            if samples != self.counts[levels]:
                errors.append(f"sample_budget {samples} != distinct "
                              f"points {self.counts[levels]}")
        if abs(p.out["slope"] - self.target_slope) > 0.2:
            errors.append(f"L2 slope {p.out['slope']:.4f} not within 0.2 "
                          f"of {self.target_slope}")
        return errors

    def final_check(self):
        sg = self.sgqi
        errors = []
        # a seeded tensor polynomial of coordinate degree r-1 at the top rung
        rng = np.random.default_rng([self.seed, 2])
        coef = rng.uniform(-1.0, 1.0, size=(2, self.r))
        poly = ref.tensor_poly(coef)
        n = self.budgets[-1]
        delta = self.make(sg.grids.xi_for_budget(n, self.make))
        rec = sg.recovery.build(poly, delta, self.r)
        X = rng.random((64, 2))
        errors += _close(sg.recovery.evaluate_batch(rec, X), poly(X), 1e-9,
                         "degree-3 polynomial at the top rung")
        return errors


# ---------------------------------------------------------------------------


class IntegrateCliD2(Workload):
    """Criterion-8 cubature sweep through the command line, then one
    export-rule at the top rung; every invocation is a fresh process."""

    name = "integrate-cli-d2"
    r = 4
    budgets = [int(round(100 * 1000 ** (i / 11))) for i in range(12)]
    problem = {"family": "hybrid", "d": "2", "r": "4", "p": "2",
               "theta": "1", "q": "2", "alpha": "1", "beta": "0.5"}
    # the command line's own corpus, re-derived: poly is x^3 y^3, the kink
    # lives in x_1 with exponent alpha + beta - 1/p = 1
    corpus = {"poly": (lambda X: np.prod(X ** 3, axis=1), 1.0 / 16.0),
              "sinprod": (ref.sinprod, ref.sinprod_integral(2)),
              "kink": (ref.kink([1.0, 0.0]), ref.kink_integral([1.0, 0.0]))}

    def __init__(self, sgqi, seed, tmp):
        self.sgqi = sgqi
        self.tmp = tmp
        self.table_csv = os.path.join(tmp or ".", "integrate.csv")
        self.rule_csv = os.path.join(tmp or ".", "rule.csv")

    def _sets(self):
        return [f"--set=problem.{k}={v}" for k, v in self.problem.items()]

    def argvs(self):
        sweep = ",".join(map(str, self.budgets))
        return [["integrate", *self._sets(), f"--set=sweep.budgets={sweep}",
                 "--set=sweep.corpus=poly,sinprod,kink", "-o", self.table_csv],
                ["export-rule", *self._sets(),
                 f"--set=sweep.budgets={self.budgets[-1]}", "-o",
                 self.rule_csv]]

    def ladder(self):
        g = self.sgqi.grids
        spec = g.SmoothnessSpec(d=2, r=self.r, p=2.0, theta=1.0, q=2.0,
                                kind="hybrid", alpha=1.0, beta=0.5)
        make = lambda xi: g.delta_hybrid(xi, spec)  # noqa: E731
        return [make(g.xi_for_budget(n, make)) for n in self.budgets]

    def tables(self):
        return _tables(self.r, self.ladder())

    def run_pass(self, tracer):
        p = Pass()
        for argv in self.argvs():
            if tracer is None:
                p.timed(self._cli, argv)
            else:
                p.timed(self._traced_cli, argv, tracer)
        return p

    def _traced_cli(self, argv, tracer):
        """The same invocation, run by child.py under the tracer; its
        figures join the pass's."""
        out = os.path.join(self.tmp, "cli-trace.json")
        subprocess.run([sys.executable, CHILD, "cli", out, *argv], check=True,
                       stdout=subprocess.DEVNULL)
        with open(out) as fh:
            tracer.children.append(json.load(fh))

    def _cli(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "sgqi.cli", *argv],
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"sgqi {argv[0]} exited {proc.returncode}")

    def final_check(self):
        """Checks the files the last pass wrote."""
        errors = []
        with open(self.table_csv, newline="") as fh:
            table = list(csv.DictReader(fh))
        by_label = {}
        for row in table:
            by_label.setdefault(row["label"], []).append(float(row["error"]))
        if sorted(by_label) != sorted(self.corpus) or \
                any(len(v) != len(self.budgets) for v in by_label.values()):
            return [f"integrate table has labels {sorted(by_label)}"]
        if max(by_label["poly"]) > 1e-9:
            errors.append(f"poly error {max(by_label['poly']):.3g} > 1e-9")
        for label in ("sinprod", "kink"):
            first, last = by_label[label][0], by_label[label][-1]
            if not last * 100.0 <= first:
                errors.append(f"{label} error fell only from {first:.3g} "
                              f"to {last:.3g}")

        # the exported rule, parsed exactly and applied here
        with open(self.rule_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["x_1", "x_2", "weight"]:
            return errors + [f"rule header {rows[0]}"]
        exact = [(Fraction(x), Fraction(y)) for x, y, _ in rows[1:]]
        X = np.array([[float(x), float(y)] for x, y in exact])
        if any(Fraction(float(v)) != v for pt in exact for v in pt):
            errors.append("rule coordinates are not exact dyadic decimals")
        w = np.array([float(wt) for _, _, wt in rows[1:]])
        if abs(math.fsum(w) - 1.0) > 1e-10:
            errors.append(f"weights sum to {math.fsum(w)!r}")
        for a, b in itertools.product(range(4), repeat=2):
            got = math.fsum(w * X[:, 0] ** a * X[:, 1] ** b)
            want = float(ref.monomial_integral((a, b)))
            if abs(got - want) > 1e-9:
                errors.append(f"rule integrates x^{a} y^{b} to {got!r}, "
                              f"not {want!r}")
        levels = self.ladder()[-1].levels
        K = ref.finest_levels(levels)
        if not np.array_equal(np.sort(ref.point_ids(X, K)),
                              ref.grid_ids(levels)):
            errors.append(f"rule has {len(X)} nodes, grid has "
                          f"{ref.distinct_point_count(levels)} points")
        for label, (f, integral) in self.corpus.items():
            mine = abs(math.fsum(w * f(X)) - integral)
            if abs(mine - by_label[label][-1]) > 1e-12:
                errors.append(f"{label}: exported rule errs by {mine!r}, "
                              f"the sweep reported {by_label[label][-1]!r}")
        return errors


# ---------------------------------------------------------------------------


class QueriesD3(Workload):
    """Closed loop, one caller: small seeded batches against a fixed
    reconstruction built during set-up."""

    name = "queries-d3"
    r = 3
    a = (1.0, 1.5, 2.0)
    budget = 30000
    sizes = range(1, 17)  # one query of each size per pass
    min_ops = 100         # at least ten queries beyond the 90th percentile
    op_latency = True

    def __init__(self, sgqi, seed, tmp):
        self.sgqi = sgqi
        self.spec = mixed_spec(sgqi, 3, self.r, self.a)
        self.rng = np.random.default_rng([seed, 3])
        self.rec = None

    def make(self, xi):
        return self.sgqi.grids.delta_mixed(xi, self.spec)

    def tables(self):
        g = self.sgqi.grids
        return _tables(self.r, [self.make(g.xi_for_budget(self.budget,
                                                          self.make))])

    def prepare(self):
        g = self.sgqi.grids
        delta = self.make(g.xi_for_budget(self.budget, self.make))
        self.rec = self.sgqi.recovery.build(
            ref.kink(kink_exponents(self.a)), delta, self.r)
        self.run_pass(None)   # warm-up, untimed and unchecked

    def run_pass(self, tracer):
        p = Pass()
        queries = []
        for n in self.rng.permutation(self.sizes):
            X = self.rng.random((int(n), 3))
            queries.append((X, p.timed(self.sgqi.recovery.evaluate_batch,
                                       self.rec, X)))
        p.out = {"queries": queries}
        return p

    def check_pass(self, p):
        X = np.concatenate([x for x, _ in p.out["queries"]])
        got = np.concatenate([v for _, v in p.out["queries"]])
        scale = max(float(np.max(np.abs(lvl.coeffs)))
                    for lvl in self.rec.surplus.values())
        err = float(np.max(np.abs(got - ref.evaluate(self.rec, X)))) / scale
        if not err <= 1e-10:
            return [f"query answers differ from the reference evaluator by "
                    f"{err:.3g} of the largest coefficient"]
        return []


# ---------------------------------------------------------------------------


class BuildLadderD5(Workload):
    """The write path: a ladder of builds in five dimensions plus one
    save/load round trip."""

    name = "build-ladder-d5"
    r = 4
    a = (1.0, 1.25, 1.5, 1.75, 2.0)
    budgets = [int(round(10 ** (4 + i / 2))) for i in range(5)]
    roundtrip_rung = 0
    poly_rung = 2

    def __init__(self, sgqi, seed, tmp):
        self.sgqi = sgqi
        self.spec = mixed_spec(sgqi, 5, self.r, self.a)
        self.f = ref.kink(kink_exponents(self.a))
        self.seed = seed
        self.dump = os.path.join(tmp or ".", "reconstruction.json")
        self.ids = {}
        self.small = None

    def make(self, xi):
        return self.sgqi.grids.delta_mixed(xi, self.spec)

    def tables(self):
        g = self.sgqi.grids
        return _tables(self.r, [self.make(g.xi_for_budget(n, self.make))
                                for n in self.budgets])

    def run_pass(self, tracer):
        sg = self.sgqi
        seen = []

        def recorded(X):
            seen.append(X)
            return self.f(X)

        f = counted(tracer, recorded)
        p = Pass()
        rows = []

        def rung(n):
            delta = self.make(sg.grids.xi_for_budget(n, self.make))
            start = len(seen)
            rec = sg.recovery.build(f, delta, self.r)
            rows.append((delta.levels, rec.sample_budget, seen[start:]))
            return rec

        recs = [p.timed(rung, n) for n in self.budgets]

        def roundtrip(rec):
            sg.recovery.save(rec, self.dump)
            return sg.recovery.load(self.dump)

        small = recs[self.roundtrip_rung]
        p.out = {"rows": rows, "saved": small,
                 "loaded": p.timed(roundtrip, small)}
        return p

    def check_pass(self, p):
        errors = []
        for levels, samples, X in p.out["rows"]:
            if levels not in self.ids:
                self.ids[levels] = ref.grid_ids(levels)
            ids = self.ids[levels]
            if samples != ids.size:
                errors.append(f"sample_budget {samples} != distinct "
                              f"points {ids.size}")
            got = ref.point_ids(np.concatenate(X), ref.finest_levels(levels))
            if np.setdiff1d(ids, got).size:
                errors.append("f was not called on every grid point")
        saved, loaded = p.out["saved"], p.out["loaded"]
        if sorted(saved.surplus) != sorted(loaded.surplus) or any(
                saved.surplus[k].coeffs.shape != loaded.surplus[k].coeffs.shape
                or saved.surplus[k].coeffs.tobytes()
                != loaded.surplus[k].coeffs.tobytes()
                for k in saved.surplus):
            errors.append("save/load changed the reconstruction")
        self.small = saved
        return errors

    def final_check(self):
        sg = self.sgqi
        errors = []
        rng = np.random.default_rng([self.seed, 5])
        X = rng.random((16, 5))
        small = self.small
        errors += _close(sg.recovery.evaluate_batch(small, X),
                         ref.evaluate(small, X), 1e-10,
                         "kink reconstruction against the reference evaluator")
        # degree r-1 needs levels 0..2 in every coordinate; without that
        # box only multilinear polynomials are reproduced
        delta = self.make(sg.grids.xi_for_budget(self.budgets[self.poly_rung],
                                                 self.make))
        box = set(itertools.product(range(3), repeat=5))
        degree = self.r - 1 if box <= set(delta.levels) else 1
        coef = rng.uniform(-1.0, 1.0, size=(5, degree + 1))
        poly = ref.tensor_poly(coef)
        rec = sg.recovery.build(poly, delta, self.r)
        X = rng.random((32, 5))
        errors += _close(sg.recovery.evaluate_batch(rec, X), poly(X), 1e-9,
                         f"degree-{degree} polynomial")
        return errors


WORKLOADS = {w.name: w for w in (RecoverLadderD2, IntegrateCliD2, QueriesD3,
                                 BuildLadderD5)}
