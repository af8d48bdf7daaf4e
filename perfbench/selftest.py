#!/usr/bin/env python3
"""Self-test of the mine/serve benchmark.

Runs every workload of BENCHMARK.json, and mine_dense, in smoke mode (tiny
inputs, about a second each), untraced and traced, and checks that:

  * the result line has exactly correct/attempted/failed/metrics, with
    correct true, no failed op and at least one attempted;
  * untraced runs emit every end-to-end metric, traced runs every
    per-layer metric, each with the unit BENCHMARK.json names, and no
    end-to-end metric reads 0;
  * the provenance line records the run's shape;
  * each traced workload moves the layers it passes through (cache hits
    are 100% on serve_hit and 0% on serve_churn, mine ops reconcile);
  * count metrics repeat exactly at a fixed seed;
  * the output checks are live: with a corrupted reference every op fails.

Usage, from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 with the failures listed otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PROVENANCE = ["nproc", "lanes_per_op", "clients", "seed", "recheck_seed",
              "tuples", "attributes", "csv_bytes", "couples", "agree_sets",
              "fds", "ops"]
MINE_LAYERS = ["relation.ms", "relation.mb_per_s", "partition.ms",
               "partition.memberships", "agree.ms", "agree.couples",
               "agree.sets", "agree.yield_ppm", "agree.working_mb", "cmax.ms",
               "cmax.max_sets", "lhs.ms", "lhs.candidates",
               "lhs.transversals", "lhs.yield_pct", "output.ms", "output.fds",
               "render.ms", "render.kb"]
SERVE_LAYERS = ["render.ms", "render.kb", "cache.lookup_ms", "cache.entry_kb",
                "catalog.bytes_per_csv_byte", "protocol.ms", "protocol.kb",
                "server.mine_ms", "server.transport_ms",
                "trace.layer_sum_pct"]
# Metrics that must be non-zero on each workload's traced pass.
MOVES = {
    "mine_paper": MINE_LAYERS + ["trace.layer_sum_pct"],
    "mine_dense": MINE_LAYERS + ["trace.layer_sum_pct"],
    "serve_hit": SERVE_LAYERS + ["server.cache_hit_pct"],
    "serve_churn": SERVE_LAYERS + MINE_LAYERS + [
        "catalog.put_ms", "catalog.get_ms", "cache.store_ms",
        "server.put_ms"],
}
COUNTS = ["agree.couples", "agree.sets", "cmax.max_sets", "lhs.candidates",
          "lhs.transversals", "output.fds", "render.kb", "cache.entry_kb"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
    return ok


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "42", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = "%s trace=%d %s" % (workload, trace, " ".join(extra))
    if not check(done.returncode == 0,
                 "%s: exit %d\n%s" % (where, done.returncode, done.stderr)):
        return None, None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check_metrics(where, result, expected, nonzero):
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          "%s: metric names differ from BENCHMARK.json: %s" %
          (where, sorted(set(metrics) ^ set(expected))))
    for name, metric in metrics.items():
        check(set(metric) == {"value", "unit"}, "%s: %s keys" % (where, name))
        check(metric.get("unit") == expected.get(name),
              "%s: %s unit %r" % (where, name, metric.get("unit")))
        value = metric.get("value")
        if not check(isinstance(value, (int, float)) and math.isfinite(value),
                     "%s: %s value %r" % (where, name, value)):
            continue
        check(name not in nonzero or value != 0, "%s: %s is 0" % (where, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # mine_dense is runnable but not in BENCHMARK.json (see README.md);
    # the self-test covers it too.
    workloads = [w["name"] for w in spec["workloads"]]
    if "mine_dense" not in workloads:
        workloads.append("mine_dense")
    counts = {}
    for workload in workloads:
        for trace, expected in ((0, e2e), (1, layers)):
            where = "%s trace=%d" % (workload, trace)
            provenance, result = run(workload, trace)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s: result keys %s" % (where, sorted(result)))
            check(result["correct"] is True, where + ": not correct")
            check(result["failed"] == 0, where + ": failed ops")
            check(result["attempted"] >= 1, where + ": no op attempted")
            for key in PROVENANCE:
                check(key in provenance,
                      "%s: provenance lacks %s" % (where, key))
            nonzero = set(e2e) if trace == 0 else set(MOVES[workload])
            check_metrics(where, result, expected, nonzero)
            if trace == 1:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                counts[workload] = {k: m[k] for k in COUNTS}
                if workload == "serve_hit":
                    check(m["server.cache_hit_pct"] == 100, where + ": hits")
                if workload == "serve_churn":
                    check(m["server.cache_hit_pct"] == 0, where + ": hits")
                if workload.startswith("mine_"):
                    check(m["trace.layer_sum_pct"] >= 95, where + ": reconcile")
                check(m["server.errors"] == 0 and m["server.rejected"] == 0,
                      where + ": server errors")

    # Counts are a pure function of the seed.
    for workload in ("mine_dense", "serve_churn"):
        _, again = run(workload, 1)
        if again is not None and workload in counts:
            repeat = {k: again["metrics"][k]["value"] for k in COUNTS}
            check(repeat == counts[workload],
                  "%s: counts differ between runs: %s vs %s" %
                  (workload, repeat, counts[workload]))

    # The output checks are live: a corrupted reference fails every op.
    for workload in workloads:
        _, result = run(workload, 0, "--tamper")
        if result is not None:
            check(result["correct"] is False and result["attempted"] >= 1 and
                  result["failed"] == result["attempted"],
                  "%s --tamper: checks did not fail every op: %s" %
                  (workload, {k: result[k] for k in
                              ("correct", "attempted", "failed")}))

    for failure in failures:
        print("FAIL", failure)
    print("selftest: %d workloads, %s" %
          (len(workloads), "ok" if not failures else
           "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
