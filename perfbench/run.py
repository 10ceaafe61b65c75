"""langcc benchmark: compile, parse, print and check throughput.

    python3 perfbench/run.py --workload calc_lines --seed 1 --seconds 22 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  calc_lines       ~10k generated calc_prog statements, one per line, in 100
                   documents of 25..250 statements
  calc_shapes      the same grammar on one-line documents (500..4000
                   statements) and on expressions nested 1500 and 3000 deep
  grammar_compile  the langcc command on every fixture grammar, the
                   conflicted grammars, artifact loading and the
                   self-hosted frontend
  all              each of the above in its own process, one after another

Set-up runs SETUP_REPS (9) times and its median is `setup_s`; then whole
passes over the workload repeat until `--seconds` have gone by.  Every
output is checked; a wrong one makes the run incorrect and the exit status
1.  A RecursionError on a deeply nested document (which the printer and
node_to_data_value raise today) counts as failed in `attempted`/`failed`
but is not a wrong output; any other exception is.  `attempted`/`failed`
count one set-up and one pass (Run.outcome), not every pass, so that they
do not depend on how many passes fit in `--seconds`.

Times are scaled by a calibration kernel run alongside them (calib.py):
they read as seconds on a machine where that kernel takes 1.4 ms, which
cancels the host's own speed changes.  The printed table shows the raw
medians next to the scaled ones.  Each timing is a median; the table adds
the highest percentile with at least ten samples beyond it, and the sample
count.  Throughputs divide the work completed by the time of every
attempted operation, failed ones included.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes of the same code (in traced passes the langcc
command's module-level calls are wrapped in spans; see
workloads.traced_calls), reports per-layer metrics from the traced ones and
the tracing overhead, and writes every span to
.perfbench_out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("compile_s", "s", "lower"),
    ("explain_s", "s", "lower"),
    ("load_s", "s", "lower"),
    ("artifact_bytes", "B", "lower"),
    ("parse_tok_s", "tok/s", "higher"),
    ("parse_p50_ms", "ms", "lower"),
    ("parse_p90_ms", "ms", "lower"),
    ("print_bytes_s", "B/s", "higher"),
    ("check_nodes_s", "nodes/s", "higher"),
    ("selfhost_bytes_s", "B/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-layer metrics: a name ending in _s is the summed self time of the spans
# named by the rest of it; any other name is a counter.  Each is given per
# timed pass, or per set-up for layers that run only in set-up.
PER_LAYER = [
    ("meta_frontend.parse_s", "s"),
    ("lexer.compile_s", "s"),
    ("lexer.dfa_states", "count"),
    ("lexer.lex_s", "s"),
    ("lexer.tokens", "count"),
    ("grammar.lower_s", "s"),
    ("grammar.productions", "count"),
    ("grammar.expand_s", "s"),
    ("grammar.inst_productions", "count"),
    ("lr.build_k1_s", "s"),
    ("lr.build_k2_s", "s"),
    ("lr.states", "count"),
    ("lr.action_cells", "count"),
    ("lr.goto_cells", "count"),
    ("conflicts.trace_s", "s"),
    ("conflicts.render_s", "s"),
    ("conflicts.exemplars", "count"),
    ("compiled.flatten_s", "s"),
    ("compiled.to_json_s", "s"),
    ("compiled.from_json_s", "s"),
    ("runtime.parse_s", "s"),
    ("runtime.lr_self_s", "s"),
    ("runtime.nodes", "count"),
    ("runtime.line_growth", "ratio"),
    ("printer.print_s", "s"),
    ("printer.bytes", "count"),
    ("runtime.to_data_s", "s"),
    ("datacc.conforms_s", "s"),
    ("datacc.hash_s", "s"),
    ("datacc.hash_computations", "count"),
    ("bootstrap.convert_s", "s"),
    ("cli.tests_s", "s"),
    ("trace.overhead_pct", "%"),
]


def _import_langcc():
    """Put this checkout's src/ first on the path; refuse any other langcc."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "langcc", "__init__.py")):
        sys.exit("perfbench: no langcc sources under %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import langcc
    if os.path.dirname(os.path.dirname(os.path.abspath(langcc.__file__))) != src:
        sys.exit("perfbench: imported langcc from %s, not %s" % (langcc.__file__, src))


# ---------------------------------------------------------------------------
# Summaries.  Every figure is (value, raw value, samples behind it): value is
# scaled by the calibration factor of where it was measured, raw is not.

def tail(samples):
    """(p, value) for the highest whole percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def figure(pairs):
    """(median of scaled, median of raw, scaled samples) from (scaled, raw)
    pairs; counts keep a median that is one of the counts."""
    if not pairs:
        return 0, 0, []
    scaled = [p[0] for p in pairs]
    median = statistics.median_low if isinstance(scaled[0], int) else statistics.median
    return median(scaled), median(p[1] for p in pairs), scaled


def sample_value(cal, unit: str, work, windows):
    """(scaled, raw) value of one sample (see Run.sample)."""
    raw = sum(t1 - t0 - k for t0, t1, k in windows)
    scaled = sum((t1 - t0 - k) * cal.factor(t0, t1) for t0, t1, k in windows)
    if unit == "s":
        return scaled, raw
    if unit.endswith("/s"):
        return (work / scaled if scaled else 0.0), (work / raw if raw else 0.0)
    return work, work


def doc_quantile(per_doc, q: int) -> float:
    """The q-th percentile over documents of each document's median latency."""
    if len(per_doc) == 1:
        return per_doc[0]
    return statistics.quantiles(per_doc, n=100, method="inclusive")[q - 1]


def latency(run):
    """Parse latency in ms: (p50, p90) figures over documents."""
    scaled, per_doc, per_doc_raw = [], [], []
    for windows in run.latency.values():
        doc = [sample_value(run.cal, "s", None, [w]) for w in windows]
        scaled += [1000 * d[0] for d in doc]
        per_doc.append(1000 * statistics.median(d[0] for d in doc))
        per_doc_raw.append(1000 * statistics.median(d[1] for d in doc))
    return [(doc_quantile(per_doc, q), doc_quantile(per_doc_raw, q), scaled)
            for q in (50, 90)]


def rep_time(run, rep, extra: float = 0.0):
    """(scaled, raw) wall time of a repetition without the calibration
    kernel runs (and without `extra`)."""
    start, end, kernel = run.reps[rep]
    raw = end - start - kernel - extra
    return raw * run.cal.factor(start, end), raw


def end_to_end(run, setups):
    out = {}
    for name, unit, _better in END_TO_END:
        if name in run.samples:
            out[name] = figure([sample_value(run.cal, unit, work, windows)
                                for work, windows in run.samples[name]])
    out["setup_s"] = figure([rep_time(run, rep) for rep in setups])
    out["parse_p50_ms"], out["parse_p90_ms"] = latency(run)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss, rss, [rss])
    return out


def per_layer(tracer, setups, passes, run):
    scaled, counts = tracer.per_rep(run.cal.factor)
    raw, _counts = tracer.per_rep()
    reps = {"setup": setups, "pass": [r for r in passes if r[1] % 2 == 1]}

    def layer(key, is_time):
        source = scaled if is_time else counts
        for phase in ("pass", "setup"):
            if any(key in source.get(r, {}) for r in reps[phase]):
                return figure([(source.get(r, {}).get(key, 0),
                                (raw if is_time else counts).get(r, {}).get(key, 0))
                               for r in reps[phase]])
        return 0, 0, []

    out = {}
    for name, unit in PER_LAYER:
        if name not in ("runtime.lr_self_s", "runtime.line_growth", "trace.overhead_pct"):
            out[name] = layer(name[:-2] if unit == "s" else name, unit == "s")
    out["runtime.lr_self_s"] = figure([
        tuple(t[r]["runtime.parse"] - t[r]["lexer.lex"] for t in (scaled, raw))
        for r in reps["pass"]])
    self_times = tracer.self_times()
    out["runtime.line_growth"] = line_growth(tracer, self_times, reps["pass"])

    def pass_time(rep):
        extra = sum(t for s, t in zip(tracer.spans, self_times)
                    if s.extra and (s.phase, s.rep) == rep)
        return rep_time(run, rep, extra)

    # pass 0 also makes the run's one-time checks, so it is not compared
    traced = [pass_time(r) for r in reps["pass"]]
    untraced = [pass_time(r) for r in passes if r[1] % 2 == 0 and r[1] > 0]
    pct = [100.0 * (statistics.median(t[i] for t in traced)
                    / statistics.median(u[i] for u in untraced) - 1) for i in (0, 1)]
    out["trace.overhead_pct"] = (pct[0], pct[1], [t[0] for t in traced])
    return out


def line_growth(tracer, self_times, passes):
    """Per-token parse time on the document with the longest line over the
    same on the one with the shortest longest line (deep nesting excluded)."""
    per_doc = {}
    for s, t in zip(tracer.spans, self_times):
        if (s.name == "runtime.parse" and (s.phase, s.rep) in passes
                and s.attrs.get("kind") not in (None, "deep")):
            per_doc.setdefault(s.op, (s.attrs["line"], []))[1].append(
                t / max(s.attrs["tokens"], 1))
    if len(per_doc) < 2:
        return 1.0, 1.0, []
    longest = max(per_doc.values(), key=lambda v: v[0])[1]
    shortest = min(per_doc.values(), key=lambda v: v[0])[1]
    ratio = statistics.median(longest) / statistics.median(shortest)
    return ratio, ratio, longest + shortest


def print_table(title, figures, units):
    print(title)
    print("  %-26s %14s %14s %20s %6s  %s"
          % ("metric", "median", "raw median", "tail", "n", "unit"))
    for name, unit in units:
        value, raw, samples = figures[name]
        t = tail(samples) if unit not in ("count", "B", "MB") else None
        t_str = "p%d %.6g" % t if t else "-"
        print("  %-26s %14.6g %14.6g %20s %6d  %s"
              % (name, value, raw, t_str, len(samples), unit))


# ---------------------------------------------------------------------------
# One run

def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            plant=None) -> dict:
    """Set up, measure for `seconds`, check, and return the result object.
    `tiny` shrinks the inputs; `plant(w)` may corrupt an expectation after
    set-up (both for the smoke test)."""
    import workloads as W
    from calib import NOMINAL
    from spans import NullTracer, Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tracer = Tracer() if trace else NullTracer()
    off = NullTracer()
    run = W.Run(tracer, work_dir, seed)
    if trace:
        run.cal.on_kernel = tracer.kernel
    run.cal.start()
    try:
        cls = W.WORKLOADS[workload]
        w = cls(run, cls.TINY if tiny else cls.FULL)
        setups = [("setup", i) for i in range(W.SETUP_REPS)]
        for rep in setups:
            gc.collect()
            tracer.begin(*rep)
            run.begin(rep)
            w.setup()
            run.end()
        if plant is not None:
            plant(w)

        # with tracing, odd passes are traced and even ones are not
        passes = []
        start = time.perf_counter()
        while len(passes) < (3 if trace else 1) or time.perf_counter() - start < seconds:
            rep = ("pass", len(passes))
            run.tr = tracer if trace and rep[1] % 2 == 1 else off
            gc.collect()
            tracer.begin(*rep)
            run.begin(rep)
            w.one_pass()
            run.end()
            passes.append(rep)
        run.tr = tracer
        run.cal.stop()

        print("perfbench %s seed=%d python=%s nproc=%d machine=%s passes=%d setups=%d "
              "kernel_median_ms=%.4f"
              % (workload, seed, platform.python_version(), os.cpu_count() or 0,
                 platform.machine(), len(passes), len(setups),
                 1000 * statistics.median(run.cal.kernel_s)))
        if trace:
            figures = per_layer(tracer, setups, passes, run)
            units = PER_LAYER
            path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed))
            tracer.write(path, {"workload": workload, "seed": seed,
                                "calibration": list(zip(run.cal.times, run.cal.kernel_s))})
            print("spans: %d written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))
        else:
            figures = end_to_end(run, setups)
            units = [(n, u) for n, u, _b in END_TO_END]
        print_table("%s metrics (%s); times scaled to a %g ms calibration kernel"
                    % ("per-layer" if trace else "end-to-end", workload, 1000 * NOMINAL),
                    figures, units)
        attempted, failed = run.outcome()
        print("fail_share %.6g (%d failed of %d attempted in one set-up and one pass)"
              % (failed / attempted, failed, attempted))
        for (op, exc), n in sorted(run.raised.items()):
            print("  %s raised %s %d time(s)" % (op, exc, n))
        for what in run.wrong:
            print("  WRONG: %s" % what)
        return {
            "correct": not run.wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": figures[name][0], "unit": unit}
                        for name, unit in units},
        }
    finally:
        run.cal.stop()
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory and module
    state stay per workload."""
    import workloads as W

    status = 0
    for name in W.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["calc_lines", "calc_shapes", "grammar_compile", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    _import_langcc()
    if args.workload == "all":
        return run_all(args)
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
