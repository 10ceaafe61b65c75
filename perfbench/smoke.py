"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a planted wrong expected value and a planted exception are each
counted as a failure and make the run incorrect, that the counts later changes may cite (lr.states,
artifact_bytes, lexer.dfa_states, runtime.nodes, datacc.hash_computations)
repeat exactly across two runs, and that `attempted`/`failed` do not change
with the number of passes a run makes (one untraced, three traced).  Exits 1 on the first problem found.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

REPEATED_COUNTS = ["lr.states", "lexer.dfa_states", "runtime.nodes",
                   "datacc.hash_computations"]


def quiet(workload, trace, plant=None, seed=7):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return bench.execute(workload, seed, 0, trace, tiny=True, plant=plant)


def expect(ok, what):
    if not ok:
        print("smoke: FAIL: %s" % what)
        sys.exit(1)


def check_metrics(result, declared, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys %s" % (label, sorted(result)))
    expect(result["correct"], "%s: run reported wrong outputs" % label)
    expect(result["attempted"] >= 1, "%s: nothing attempted" % label)
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           "%s: metrics %s differ from BENCHMARK.json" % (label, sorted(metrics)))
    for m in declared:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], "%s: %s has unit %r, declared %r"
               % (label, m["name"], got["unit"], m["unit"]))
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               "%s: %s is not a finite number" % (label, m["name"]))


def plant_wrong_value(w):
    w.docs[0].expect[0] += 1


def plant_exception(w):
    def check_tree(*_args):
        raise ValueError("planted")
    w.check_tree = check_tree


def main() -> int:
    bench._import_langcc()
    import workloads

    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    expect([m["name"] for m in spec["end_to_end"]] == [m[0] for m in bench.END_TO_END]
           and [m["name"] for m in spec["per_layer"]] == [m[0] for m in bench.PER_LAYER],
           "BENCHMARK.json metric lists differ from run.py's")

    for name in workloads.WORKLOADS:
        first = quiet(name, False)
        check_metrics(first, spec["end_to_end"], name + " --trace 0")
        again = quiet(name, False)
        expect(first["metrics"]["artifact_bytes"] == again["metrics"]["artifact_bytes"],
               "%s: artifact_bytes differs between runs" % name)
        traced = [quiet(name, True) for _ in range(2)]
        for r in traced:
            check_metrics(r, spec["per_layer"], name + " --trace 1")
        for c in REPEATED_COUNTS:
            a, b = (r["metrics"][c]["value"] for r in traced)
            expect(a == b, "%s: %s is %r then %r" % (name, c, a, b))
        outcomes = {(r["attempted"], r["failed"]) for r in [first, again] + traced}
        expect(len(outcomes) == 1, "%s: attempted/failed vary between runs: %s"
               % (name, sorted(outcomes)))
        print("smoke: %s ok" % name)

    planted = quiet("calc_lines", False, plant=plant_wrong_value)
    expect(not planted["correct"] and planted["failed"] >= 1,
           "a planted wrong expected value was not counted as a failure")
    print("smoke: planted wrong value counted as a failure")

    planted = quiet("calc_lines", False, plant=plant_exception)
    expect(not planted["correct"] and planted["failed"] >= 1,
           "a planted exception (not a RecursionError on deep input) left the run correct")
    print("smoke: planted exception counted as a wrong output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
