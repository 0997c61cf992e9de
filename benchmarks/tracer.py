"""Spans and counts recorded around sgqi's public functions.

The wrappers live here, in the benchmark, not in the program: install()
replaces each target function by a wrapper in every sgqi module that holds
a reference to it, which also covers names a module took in with
`from ... import`.  uninstall() puts the originals back, so untraced passes
run the program exactly as shipped.

A span is (name, start, end, parent index), kept in memory.  A layer's
self time is its span's duration minus the part of that interval covered
by its child spans.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from collections import Counter, defaultdict


def _rows(X):
    shape = getattr(X, "shape", None)
    return int(shape[0]) if shape else 1


def self_times(spans) -> dict:
    """Total self time per span name.

    spans: sequence of (name, start, end, parent) with parent the index of
    the enclosing span or None.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


def root_time(spans) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans
               if parent is None)


class Tracer:
    """Collects spans and named counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []      # indices of open spans
        self._open = []       # per open span: scratch dict for counters
        self._patches = []    # (owner, attr, original)
        self.children = []    # figures reported by traced child processes

    # -- spans ------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self._open.append({})
        return self._open[-1]

    def end(self):
        i = self._stack.pop()
        self._open.pop()
        self.spans[i][2] = time.perf_counter()

    def enclosing(self, name):
        """Scratch dict of the innermost open span called name, or None."""
        for i, scratch in zip(reversed(self._stack), reversed(self._open)):
            if self.spans[i][0] == name:
                return scratch
        return None

    def wrap(self, fn, name, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            scratch = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    tracer._count_safely(on_return, scratch, args, kwargs,
                                         result)
                return result
            finally:
                tracer.end()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count_safely(self, hook, scratch, args, kwargs, result):
        # a counter that no longer fits the program's signatures must not
        # stop the traced run; it is reported as trace.hook_errors
        try:
            hook(self, scratch, args, kwargs, result)
        except Exception:
            if not self.counts["trace.hook_errors"]:
                traceback.print_exc(file=sys.stderr)
            self.counts["trace.hook_errors"] += 1

    def user_function(self, f):
        """Wrap a function the benchmark hands to sgqi: counts the points
        it receives, in total and while a recovery.build span is open."""
        tracer = self

        def counted(X, *rest):
            n = _rows(X)
            tracer.counts["quasi_interp.f_points"] += n
            if tracer.enclosing("recovery.build") is not None:
                tracer.counts["_build_f_points"] += n
            tracer.begin("user.f")
            try:
                return f(X, *rest)
            finally:
                tracer.end()

        return counted

    # -- patching ---------------------------------------------------------

    def install(self, targets):
        """targets: (owner, attribute, span name, on_return) tuples.

        The function found at owner.attribute is replaced wherever an sgqi
        module (or the owner itself) refers to that same object.  Missing
        attributes are skipped, so their metrics read 0.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "sgqi" or key.startswith("sgqi."))]
        for owner, attr, name, on_return in targets:
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, on_return)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """self_s per span name plus every public count."""
        out = {f"{name}.self_s": t for name, t in self_times(self.spans).items()}
        out.update({k: v for k, v in self.counts.items()
                    if not k.startswith("_")})
        return out


# ---------------------------------------------------------------------------
# the targets: sgqi's public functions, grouped by module


def _calls(prefix):
    def hook(tracer, scratch, args, kwargs, result):
        tracer.counts[f"{prefix}.calls"] += 1
    return hook


def _build_done(tracer, scratch, args, kwargs, result):
    tracer.counts["recovery.build.calls"] += 1
    tracer.counts["recovery.build.samples"] += result.sample_budget


def _evaluate_done(tracer, scratch, args, kwargs, result):
    rec = args[0] if args else kwargs["rec"]
    n = len(result)
    tracer.counts["recovery.evaluate_batch.calls"] += 1
    tracer.counts["recovery.evaluate_batch.points"] += n
    tracer.counts["recovery.evaluate_batch.levels_total"] += len(rec.surplus)
    tracer.counts["recovery.evaluate_batch.levels_active"] += \
        len(scratch.get("levels", ()))
    lq = tracer.enclosing("analysis.discrete_lq_error")
    if lq is not None:
        tracer.counts["analysis.discrete_lq_error.points"] += n


def _expansion_done(tracer, scratch, args, kwargs, result):
    r, k, X = args[0], tuple(args[1]), args[4]
    den = kwargs.get("den") or (args[5] if len(args) > 5 else None) \
        or (1 if r % 2 == 0 else 2)
    npts = _rows(X)
    tracer.counts["bspline.eval_expansion.calls"] += 1
    tracer.counts["bspline.eval_expansion.points"] += npts
    tracer.counts["bspline.eval_expansion.combos"] += npts * (den * r) ** len(k)
    ev = tracer.enclosing("recovery.evaluate_batch")
    if ev is not None:
        ev.setdefault("levels", set()).add(k)


def _save_done(tracer, scratch, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["recovery.save.bytes"] += os.path.getsize(path)


def _delta_done(tracer, scratch, args, kwargs, result):
    tracer.counts["grids.delta.calls"] += 1
    tracer.counts["grids.delta.levels"] += len(result)


def _keys_done(tracer, scratch, args, kwargs, result):
    tracer.counts["grids.level_point_keys.keys"] += len(result)


def _nodes_done(tracer, scratch, args, kwargs, result):
    tracer.counts["cubature.assemble_weights.nodes"] += len(result.weights)


def _export_done(tracer, scratch, args, kwargs, result):
    # the CLI hands export_csv a freshly opened file, so its position at
    # return is the number of bytes written
    fh = args[1] if len(args) > 1 else kwargs["fh"]
    tracer.counts["cubature.export_csv.bytes"] += fh.tell()


def targets():
    """(owner, attribute, span name, hook) for sgqi's public functions."""
    from sgqi import analysis, bspline, cubature, grids, quasi_interp, recovery

    return [
        (grids, "xi_for_budget", "grids.xi_for_budget",
         _calls("grids.xi_for_budget")),
        (grids, "delta_mixed", "grids.delta", _delta_done),
        (grids, "delta_hybrid", "grids.delta", _delta_done),
        (grids, "level_point_keys", "grids.level_point_keys", _keys_done),
        (quasi_interp, "surplus_matrix", "quasi_interp.surplus_matrix", None),
        (recovery, "build", "recovery.build", _build_done),
        (recovery, "evaluate_batch", "recovery.evaluate_batch",
         _evaluate_done),
        (recovery, "save", "recovery.save", _save_done),
        (recovery, "load", "recovery.load", None),
        (bspline, "eval_expansion", "bspline.eval_expansion",
         _expansion_done),
        (cubature, "assemble_weights", "cubature.assemble_weights",
         _nodes_done),
        (cubature, "apply_rule", "cubature.apply_rule",
         _calls("cubature.apply_rule")),
        (cubature.CubatureRule, "points", "cubature.CubatureRule.points",
         None),
        (cubature.CubatureRule, "weight_vector",
         "cubature.CubatureRule.weight_vector", None),
        (cubature, "export_csv", "cubature.export_csv", _export_done),
        (analysis, "discrete_lq_error", "analysis.discrete_lq_error", None),
    ]


def surplus_cache_info():
    """(hits, misses) of the surplus-table cache, looked up through any
    wrapper the tracer put around it."""
    from sgqi import quasi_interp

    fn = quasi_interp.surplus_matrix
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    info = fn.cache_info()
    return info.hits, info.misses
