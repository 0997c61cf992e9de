"""Benchmark of sgqi, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload recover-ladder-d2 --seed 1 \
        --seconds 20 --trace 0

--workload all runs the four workloads one after another.  BENCHMARK.json
gates on three of them; queries-d3 is run by hand (see README.md).  With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics of BENCHMARK.json.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

Each workload runs in its own process, with BLAS and SGQI_MAX_THREADS
pinned to one thread before that interpreter starts, and sgqi imported
from ./src.  Set-up time is the median of three cold set-ups, each in a
fresh interpreter: two in processes of their own and the one the workload
process makes before its passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("recover-ladder-d2", "integrate-cli-d2", "queries-d3",
             "build-ladder-d5")
SETUP_PROBES = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "SGQI_MAX_THREADS")


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env, deadline, stdout=subprocess.PIPE):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(args[:2]))
    proc = subprocess.Popen([sys.executable, CHILD, *args], env=env,
                            stdout=stdout, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{' '.join(args[:2])} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}")
    return out


def run_workload(root, name, seed, seconds, trace, bench, deadline):
    env = child_env(root)
    setups = []
    for _ in range(SETUP_PROBES):
        line = run_child(["setup", name], env, deadline).strip().splitlines()[-1]
        probe = json.loads(line)
        setups.append(probe["import_s"] + probe["fill_s"])
    tmp = tempfile.mkdtemp(prefix=".bench-", dir=root)
    try:
        out = os.path.join(tmp, "result.json")
        run_child(["run", name, str(seed), str(seconds), "1" if trace else "0",
                   tmp, out], env, deadline, stdout=None)
        with open(out) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res["import_s"] + res["fill_s"])
    for err in res["errors"]:
        print(f"{name}: CHECK FAILED: {err}", file=sys.stderr)
    if trace:
        values = {m["name"]: res["layers"].get(m["name"], 0.0)
                  for m in bench["per_layer"]}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        lat = res["latency_s"]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(res["pass_s"]),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "query_p50_ms": 1e3 * statistics.median(lat),
            "query_p90_ms": 1e3 * statistics.quantiles(
                lat, n=10, method="inclusive")[8],
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {k: values[k] for k in units}
    return {"correct": not res["errors"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
            "passes": len(res["pass_s"])}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sgqi", "__init__.py")):
        print("run.py: no sgqi sources under ./src; run it from the root of "
              "a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)

    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, seconds,
                                         args.trace == 1, bench, deadline)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} passes={res['passes']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:45s} {mv['value']:14.6g} {mv['unit']}")
    if len(results) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": mv
                             for name, r in results.items()
                             for metric, mv in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
