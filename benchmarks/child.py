"""Processes the benchmark starts; run.py is the entry point.

  child.py setup WORKLOAD
      cold set-up in a fresh interpreter; prints {"import_s", "fill_s"}.
  child.py run WORKLOAD SEED SECONDS TRACE TMPDIR OUT
      cold set-up, then passes for SECONDS; writes the results to OUT.
  child.py cli OUT ARGV...
      `sgqi.cli.main(ARGV)` in process under the tracer; writes the
      per-layer figures of that one invocation to OUT.

Only the standard library is imported before the timed `import sgqi`.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import tracer as tr


def cold_setup(name, seed, tmp):
    """import sgqi, then fill the surplus tables of every (r, k) the
    workload touches; returns (import_s, fill_s, workload)."""
    t0 = time.perf_counter()
    import sgqi
    import sgqi.quasi_interp
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    w = WORKLOADS[name](sgqi, seed, tmp)
    for r, k in sorted(w.tables()):
        sgqi.quasi_interp.surplus_matrix(r, k)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, w


def traced_pass(w):
    """One pass under the tracer; returns the pass, its wall time and its
    per-layer figures."""
    t = tr.Tracer()
    hits0, misses0 = tr.surplus_cache_info()
    t.install(tr.targets())
    try:
        start = time.perf_counter()
        p = w.run_pass(t)
        wall = time.perf_counter() - start
    finally:
        t.uninstall()
    hits1, misses1 = tr.surplus_cache_info()
    m = t.layer_metrics()
    m["quasi_interp.surplus_matrix.hits"] = hits1 - hits0
    m["quasi_interp.surplus_matrix.misses"] = misses1 - misses0
    m["quasi_interp.probe_points"] = \
        t.counts["_build_f_points"] - t.counts["recovery.build.samples"]
    spanned = tr.root_time(t.spans)
    for child in t.children:
        spanned += child.pop("trace.root_s")
        for key, value in child.items():
            m[key] = m.get(key, 0) + value
    m["trace.unspanned_s"] = wall - spanned
    return p, wall, m


def summarize(traced, untraced_pass_s):
    """Mean figure per traced pass, plus the tracing overhead."""
    out = {}
    for _, m in traced:
        for key, value in m.items():
            out[key] = out.get(key, 0) + value / len(traced)
    combos = out.get("bspline.eval_expansion.combos", 0)
    out["bspline.eval_expansion.ns_per_combo"] = \
        1e9 * out.get("bspline.eval_expansion.self_s", 0.0) / combos \
        if combos else 0.0
    run_s = statistics.median(wall for wall, _ in traced)
    out["trace.run_s"] = run_s
    out["trace.overhead_s"] = run_s - statistics.median(untraced_pass_s)
    return out


def run(name, seed, seconds, trace, tmp, out_path):
    import_s, fill_s, w = cold_setup(name, seed, tmp)
    w.prepare()
    pass_s, traced, ops, failed, errors = [], [], [], 0, []
    measured = 0.0
    while True:
        # with tracing on, untraced and traced passes alternate
        if trace and len(pass_s) > len(traced):
            p, wall, m = traced_pass(w)
            traced.append((wall, m))
        else:
            start = time.perf_counter()
            p = w.run_pass(None)
            wall = time.perf_counter() - start
            pass_s.append(wall)
        measured += wall
        ops += p.ops
        failed += p.failed
        errors += w.check_pass(p)
        enough = len(traced) >= 2 if trace else len(pass_s) >= 3
        if measured >= seconds and enough and len(ops) >= w.min_ops:
            break
        if measured > 120.0:
            break
    rss_kb = w.peak_rss_kb or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors += w.final_check()
    result = {"import_s": import_s, "fill_s": fill_s, "pass_s": pass_s,
              "latency_s": ops if w.op_latency else pass_s,
              "attempted": len(ops), "failed": failed,
              "errors": sorted(set(errors)), "peak_rss_kb": rss_kb}
    if trace:
        result["layers"] = summarize(traced, pass_s)
        result["layers"]["setup.import_s"] = import_s
        result["layers"]["setup.fill_s"] = fill_s
    with open(out_path, "w") as fh:
        json.dump(result, fh)


def cli(out_path, argv):
    t = tr.Tracer()
    t.begin("cli.import")
    import sgqi.cli
    t.end()
    from sgqi import analysis

    corpus = analysis.corpus

    def counted_corpus(*args, **kwargs):
        funcs = corpus(*args, **kwargs)
        for tf in funcs:
            tf.handle = t.user_function(tf.handle)
        return funcs

    analysis.corpus = counted_corpus
    t.install(tr.targets())
    t.begin("cli.main")
    try:
        code = sgqi.cli.main(argv)
    finally:
        t.end()
        t.uninstall()
        analysis.corpus = corpus
    hits, misses = tr.surplus_cache_info()
    m = t.layer_metrics()
    m["quasi_interp.surplus_matrix.hits"] = hits
    m["quasi_interp.surplus_matrix.misses"] = misses
    m["trace.root_s"] = tr.root_time(t.spans)
    with open(out_path, "w") as fh:
        json.dump(m, fh)
    return code


def main(argv):
    role = argv[0]
    if role == "setup":
        import_s, fill_s, _ = cold_setup(argv[1], 0, None)
        print(json.dumps({"import_s": import_s, "fill_s": fill_s}))
        return 0
    if role == "run":
        name, seed, seconds, trace, tmp, out = argv[1:7]
        run(name, int(seed), float(seconds), trace == "1", tmp, out)
        return 0
    if role == "cli":
        return cli(argv[1], argv[2:])
    raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
