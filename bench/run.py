"""treesym benchmark: one closed-loop client, one request at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

- ``witness-deep``: CLI round trips (color, color --proper, count K,
  analyze --json, verify) on deep or highly symmetric named shapes, and
  ``analyze --json`` on a random Prüfer tree with 10^5 vertices;
- ``desk-lists``: in-process list-coloring and rank/unrank calls on every
  tree up to 8 vertices with fixed list assignments.

Inputs come from ``--seed`` alone and reach the program only as edge-list
text; the seed relabels and reorders every tree, while shapes and list
contents stay fixed so that every seed asks for the same work.  Every
output is checked against ``check.py`` outside the timed regions; a wrong answer aborts the run with exit code 1.  Refusals (exit 3
or ``ClassCapError``), tracebacks and timeouts are failed ops: they are
counted, rank above every success in the latency percentiles, and never
abort the run.

``--trace 0`` times the requests and prints the end-to-end metrics.  Each
distinct request is repeated over the run and counts at the upper quartile
of its repeats (``harness.by_request`` says why).  ``lat_p50_ms`` and
``lat_tail_ms`` are taken over those per-request latencies, and
``ops_per_s`` is the successful requests of one pass divided by the pass's
time at those latencies.
``--trace 1`` reruns requests with in-process replays of their public
calls, records spans in memory, and prints the per-layer metrics together
with the tracing overhead; memory peaks come from a separate
``tracemalloc`` pass.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record, with every op, per-subcommand rows and machine info, goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc

import harness
from check import WrongAnswer
from corpus import Digest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

OP_TIMEOUT_S = 45.0  # per request; a timed-out request is a failed op
HARD_LIMIT_S = 100.0  # stop starting requests after this much wall time
SETUP_REPS = 7  # set-up samples before the first timed op
SETUP_EVERY_S = 4.0  # then one more after each 4 s of timed work
CLI_KINDS = ("analyze", "color", "count", "verify")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "lat_p50_ms": "ms",
                    "lat_tail_ms": "ms", "peak_rss_mb": "MB", "ok_frac": "ratio"}

# per-layer metric -> (unit, span or counter it is read from, aggregation)
LAYERS = {
    "trees.parse_ms": ("ms", "trees.parse", "median"),
    "trees.root_ms": ("ms", "trees.root", "median"),
    "trees.intern_ms": ("ms", "trees.intern", "median"),
    "trees.classes": ("count", "trees.intern:classes", "median"),
    "trees.order_ms": ("ms", "trees.order", "median"),
    "counting.sat_pass_ms": ("ms", "counting.sat_pass", "median"),
    "counting.exact_pass_ms": ("ms", "counting.exact_pass", "median"),
    "counting.proper_pass_ms": ("ms", "counting.proper_pass", "median"),
    "counting.exact_bits": ("count", "counting.exact_pass:exact_bits", "max"),
    "construction.D_ms": ("ms", "construction.D", "median"),
    "construction.chiD_ms": ("ms", "construction.chiD", "median"),
    "construction.cert_ms": ("ms", "construction.cert", "median"),
    "construction.unrank_ms": ("ms", "construction.unrank", "median"),
    "construction.proper_witness_ms": ("ms", "construction.proper_witness", "median"),
    "construction.rank_ms": ("ms", "construction.rank", "median"),
    "list_coloring.witness_ms": ("ms", "list_coloring.witness", "median"),
    "list_coloring.count_ms": ("ms", "list_coloring.count", "median"),
    "list_coloring.repset_size": ("count", "list_coloring.count:repset_size", "max"),
    "oracle.group_ms": ("ms", "oracle.group", "median"),
    "oracle.verify_ms": ("ms", "oracle.verify", "median"),
    "oracle.group_order": ("count", "oracle.group:group_order", "max"),
}


class Context:
    """What the workloads share: seed, work directory, corpus digest and the
    CLI runner."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.timeout_s = OP_TIMEOUT_S
        self.work = os.path.join(BENCH, "out", f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.digest = Digest()
        self.cli = harness.CliRunner(ROOT, self.work, OP_TIMEOUT_S)


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.processor(),
            "platform": platform.platform()}


def run_ops(ctx, workload, budget_s: float, on_op):
    """Closed loop over the workload's corpus.  Passes are finished whole;
    a new one starts while the timed total (``on_op`` returns each request's
    timed seconds) is below ``budget_s``.  Returns the ops grouped by pass."""
    started = time.perf_counter()
    timed = 0.0
    passes = []
    pass_no = 0
    while True:
        cur = []
        for spec in workload.specs(pass_no):
            if time.perf_counter() - started > HARD_LIMIT_S:
                break
            if hasattr(spec, "ready") and not spec.ready(pass_no):
                continue
            op, dt = on_op(spec, pass_no)
            timed += dt
            cur.append(op)
        passes.append(cur)
        pass_no += 1
        if timed >= budget_s or time.perf_counter() - started > HARD_LIMIT_S:
            return passes


def cli_rows(ops: list) -> list:
    """Wall time and peak RSS per CLI subcommand, from ``wait4`` of each child."""
    rows = []
    for kind in CLI_KINDS:
        sel = [op for op in ops if op.kind == kind]
        if not sel:
            continue
        walls = sorted(op.wall_s * 1000 for op in sel)
        rows.append({"subcommand": kind, "calls": len(sel),
                     "failed": sum(op.failed for op in sel),
                     "wall_ms_median": round(statistics.median(walls), 3),
                     "wall_ms_min": round(walls[0], 3), "wall_ms_max": round(walls[-1], 3),
                     "peak_rss_mb": round(max(op.rss_mb for op in sel), 2)})
    return rows


def end_to_end(ctx, workload) -> tuple:
    setup = ctx.cli.startup_s(workload.setup_argv, SETUP_REPS)
    since_setup = [0.0]

    def on_op(spec, pass_no):
        op, res = spec.execute(ctx, pass_no)
        spec.check(ctx, op, res)
        # spread set-up samples over the run, so they see the same machine
        # conditions as the requests
        since_setup[0] += op.wall_s
        if since_setup[0] >= SETUP_EVERY_S:
            setup.extend(ctx.cli.startup_s(workload.setup_argv, 1))
            since_setup[0] = 0.0
        return op, op.wall_s

    passes = run_ops(ctx, workload, ctx.seconds, on_op)
    ops = [op for p in passes for op in p]
    timed = sum(op.wall_s for op in ops)
    ok = sum(1 for op in ops if not op.failed)
    lat = harness.latency_summary(ops, OP_TIMEOUT_S)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": lat["ops_per_s"],
        "lat_p50_ms": lat["p50_ms"],
        "lat_tail_ms": lat["tail_ms"],
        "peak_rss_mb": max(op.rss_mb for op in ops),
        "ok_frac": ok / len(ops),
    }
    extra = {"latency": lat, "setup_s_samples": setup, "timed_s": timed,
             "passes": len(passes), "failed_frac": 1 - ok / len(ops)}
    return ops, metrics, extra


def traced(ctx, workload) -> tuple:
    import treesym

    startup = ctx.cli.startup_s(["-m", "treesym", "--help"], SETUP_REPS)
    tracer = harness.Tracer()
    null = harness.NullTracer()
    counters = {"list_coloring.cap_errors": 0, "oracle.bound_errors": 0}
    scratch = {"list_coloring.cap_errors": 0, "oracle.bound_errors": 0}
    totals = {"untraced": 0.0, "traced": 0.0}
    seen_trees = {}

    def on_op(spec, pass_no):
        op, res = spec.execute(ctx, pass_no)
        spec.check(ctx, op, res)
        t0 = time.perf_counter()
        spec.replay(ctx, null, scratch)
        t1 = time.perf_counter()
        with tracer.span("op"):
            spec.replay(ctx, tracer, counters)
        t2 = time.perf_counter()
        tracer.request += 1
        totals["untraced"] += t1 - t0
        totals["traced"] += t2 - t1
        text = getattr(spec, "member", spec).text
        seen_trees[text] = None
        return op, op.wall_s + (t2 - t0)

    passes = run_ops(ctx, workload, ctx.seconds, on_op)
    ops = [op for p in passes for op in p]

    # memory pass of its own: sibling-class ordering under tracemalloc
    peak = 0.0
    for text in sorted(seen_trees, key=len)[-6:]:
        rt = treesym.to_rooted(treesym.parse_tree(text))
        rt.code_ids()
        tracemalloc.start()
        rt.sibling_classes(rt.root)
        peak = max(peak, tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()

    metrics = layer_metrics(tracer.spans)
    metrics["trees.order_peak_mb"] = peak
    metrics["counting.sat_ns_per_class"] = _sat_ns_per_class(tracer.spans)
    metrics.update(counters)
    metrics["cli.startup_ms"] = statistics.median(startup) * 1000
    for kind in CLI_KINDS:
        sel = [op for op in ops if op.kind == kind and not op.failed]
        metrics[f"cli.{kind}_ms"] = statistics.median(op.wall_s for op in sel) * 1000 if sel else 0.0
        metrics[f"cli.{kind}_rss_mb"] = max((op.rss_mb for op in sel), default=0.0)
    metrics["trace.untraced_ms"] = totals["untraced"] * 1000
    metrics["trace.traced_ms"] = totals["traced"] * 1000
    metrics["trace.overhead_pct"] = 100.0 * (totals["traced"] / totals["untraced"] - 1)
    extra = {"spans": len(tracer.spans), "replays": tracer.request}
    return ops, metrics, extra, tracer


def layer_metrics(spans: list) -> dict:
    """Per request, sum each span's durations (or read its counts); then
    aggregate over the requests where the layer was active.  An idle layer
    reads 0."""
    per_request: dict = {}
    for s in spans:
        bucket = per_request.setdefault(s.request, {})
        bucket[s.name] = bucket.get(s.name, 0.0) + (s.end - s.start) * 1000
        for key, val in s.counts.items():
            name = f"{s.name}:{key}"
            bucket[name] = max(bucket.get(name, 0), val)
    out = {}
    for metric, (_, source, agg) in LAYERS.items():
        vals = [b[source] for b in per_request.values() if source in b]
        if not vals:
            out[metric] = 0.0
        elif agg == "max":
            out[metric] = max(vals)
        else:
            out[metric] = statistics.median(vals)
    return out


def _sat_ns_per_class(spans: list) -> float:
    vals = [(s.end - s.start) * 1e9 / s.counts["classes"]
            for s in spans if s.name == "counting.sat_pass" and s.counts.get("classes")]
    return statistics.median(vals) if vals else 0.0


def units_for(trace: bool) -> dict:
    if not trace:
        return END_TO_END_UNITS
    units = {m: u for m, (u, _, _) in LAYERS.items()}
    units.update({"trees.order_peak_mb": "MB", "counting.sat_ns_per_class": "ns",
                  "list_coloring.cap_errors": "count", "oracle.bound_errors": "count",
                  "cli.startup_ms": "ms", "trace.untraced_ms": "ms", "trace.traced_ms": "ms",
                  "trace.overhead_pct": "%"})
    for kind in CLI_KINDS:
        units[f"cli.{kind}_ms"] = "ms"
        units[f"cli.{kind}_rss_mb"] = "MB"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "treesym", "__init__.py")):
        print(f"error: no treesym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the benchmark reads counts of any length; its CLI children keep the default limit
    sys.set_int_max_str_digits(0)

    import treesym
    import workloads

    if not os.path.abspath(treesym.__file__).startswith(SRC + os.sep):
        print(f"error: treesym imported from {treesym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    ctx = Context(args)
    correct = True
    problem = ""
    ops, metrics, extra, tracer = [], {}, {}, None
    try:
        workload = workloads.WORKLOADS[args.workload](ctx)
        if args.trace:
            ops, metrics, extra, tracer = traced(ctx, workload)
        else:
            ops, metrics, extra = end_to_end(ctx, workload)
    except WrongAnswer as exc:
        correct = False
        problem = str(exc)
    finally:
        ctx.cli.close()
        shutil.rmtree(ctx.work, ignore_errors=True)

    units = units_for(bool(args.trace))
    failed = sum(op.failed for op in ops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problem": problem,
        "attempted": len(ops), "failed": failed,
        "corpus_digest": ctx.digest.hexdigest(), "machine": machine_info(),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "cli_subcommands": cli_rows(ops), "extra": extra,
        "errors": _error_counts(ops), "ops": [op.row() for op in ops],
    }
    out_dir = os.path.join(BENCH, "out")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        with open(os.path.join(out_dir, f"spans-{stem}.json"), "w", encoding="utf-8") as f:
            json.dump(tracer.dump(), f)

    _print_summary(record)
    if not correct:
        print(f"WRONG ANSWER: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics},
    }))
    return 0 if correct else 1


def _error_counts(ops: list) -> dict:
    out: dict = {}
    for op in ops:
        if op.failed:
            key = f"{op.kind}: {op.error}"
            out[key] = out.get(key, 0) + 1
    return out


def _print_summary(rec: dict):
    m = rec["machine"]
    print(f"treesym bench  workload={rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']:g} trace={rec['trace']}")
    print(f"machine: Python {m['python']}, nproc {m['nproc']}, {m['cpu_model']}")
    print(f"corpus digest {rec['corpus_digest']}; attempted {rec['attempted']}, "
          f"failed {rec['failed']}")
    for name, val in rec["metrics"].items():
        print(f"  {name:34s} {val['value']:14.4f} {val['unit']}")
    lat = rec["extra"].get("latency")
    if lat:
        print(f"  lat_tail_ms is p{lat['tail_percentile']:g} over {lat['requests']} requests, "
              f"each at the upper quartile of {lat['repeats']:g} repeats on average; "
              f"failed_frac {rec['extra']['failed_frac']:.4f}")
    for row in rec["cli_subcommands"]:
        print(f"  cli {row['subcommand']:8s} calls {row['calls']:4d} failed {row['failed']:3d} "
              f"median {row['wall_ms_median']:10.3f} ms  peak RSS {row['peak_rss_mb']:8.2f} MB")
    for key, count in sorted(rec["errors"].items()):
        print(f"  failed op {key} x{count}")


if __name__ == "__main__":
    sys.exit(main())
