"""Per-edge community-freshness benchmark for Spade.

    python3 perfbench/run.py --workload dg-single --seed 1 --seconds 20 --trace 0

Builds the program and the replay program from source (perfbench/build.py),
replays a fixed window of the synthetic Grab1 stream (generator seed =
--seed) through Spade's public API in one JVM, checks the final state
against a static re-peel, and prints every metric by name and unit. The last
line of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of BENCHMARK.json with --trace 1. Exits
non-zero when the build, the run or the correctness gate fails; only a gate
failure still prints a result line (with "correct": false). See NOTES.md.
"""

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import build  # noqa: E402
import metrics as m  # noqa: E402

# Windows are increment indices of the Grab1 stand-in (25305 increments;
# planted fraud blocks start at 5424, 8326, 11228, ...). Edges arrive at the
# stream's own times (`ts`). Why each workload exists: NOTES.md. dg-single
# is not in BENCHMARK.json: its work per window varies too much with the
# seed for the regression bounds, so it is run by hand (NOTES.md).
# fd-grouped and dg-batch1k warm up on their whole window, so every path a
# pass takes is compiled before the first measured pass: after a 1000-call
# warm-up, fd-grouped's first pass ran 5-15% slower than the later ones.
WORKLOADS = {
    "dg-single": dict(metric="DG", mode="single", start=5000, count=1600, batch=1, warmup=300),
    "dw-single": dict(metric="DW", mode="single", start=5000, count=1600, batch=1, warmup=300),
    "fd-grouped": dict(metric="FD", mode="grouped", start=5400, count=3450, batch=1, warmup=3450),
    "dg-batch1k": dict(metric="DG", mode="batch", start=0, count=25000, batch=1000, warmup=25000),
}

# The p99 latency that max_rate_eps must meet, the same on every workload.
LIMIT_S = 2.0

# Table 4's bar for single-edge maintenance against a static re-peel.
TABLE4_SPEEDUP_BAR = 100.0

SETUP_REPS = 3
JVM_HEAP = "2g"
RUN_DEADLINE_S = 165  # for the JVM, once built: a run must end within 180 s

# the module opens spark-submit adds on Java 17
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]

# The call that folds edges into the state, per mode: a single insert, a
# grouped insert that flushed (reorder + detect), or a micro-batch (reorder
# + detect + suspects).
UPDATE_SPAN = {"single": "spade.insertEdge", "grouped": "group.flush",
               "batch": "stream.processBatch"}


class RunError(Exception):
    pass


def run_replay(w, args, classes, out_prefix):
    tmp = os.path.join(os.path.dirname(out_prefix), "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-XX:+UseParallelGC"] + build.java_tmp_flags(tmp)
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-Djdk.reflect.useDirectMethodHandle=false",
              "-Dlog4j2.configurationFile=" + os.path.join(build.ROOT, "perfbench", "log4j2.properties"),
              "-cp", classes + os.pathsep + os.path.join(build.spark_jars(), "*"),
              "perfbench.FreshnessBench",
              "--metric", w["metric"], "--mode", w["mode"], "--from", str(w["start"]),
              "--count", str(w["count"]), "--batch", str(w["batch"]),
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--warmup", str(w["warmup"]),
              "--setup-reps", str(SETUP_REPS), "--out", out_prefix])
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("replay ran past the deadline")
    if proc.returncode != 0:
        raise RunError(f"replay exited with {proc.returncode}:\n{out[-4000:]}")
    return out


class Run:
    """The files one replay run wrote."""

    def __init__(self, prefix):
        with open(prefix + ".calls.tsv") as f:
            self.calls = list(csv.DictReader(f, delimiter="\t"))
        with open(prefix + ".spans.tsv") as f:
            self.spans = [dict(id=int(s["id"]), parent=int(s["parent"]), pass_=int(s["pass"]),
                               name=s["name"], start=int(s["start_ns"]), end=int(s["end_ns"]))
                          for s in csv.DictReader(f, delimiter="\t")]
        with open(prefix + ".edges.tsv") as f:
            self.due = [float(e["due_s"]) for e in csv.DictReader(f, delimiter="\t")]
        with open(prefix + ".summary.tsv") as f:
            self.summary = dict(line.rstrip("\n").split("\t", 1) for line in f)
        # per-call spans of traced passes (state resets excluded)
        self.traced_spans = [s for s in self.spans if s["pass_"] >= 0 and s["name"] != "spade.load"]

    def passes(self, traced):
        by_pass = {}
        for c in self.calls:
            if int(c["traced"]) == traced:
                by_pass.setdefault(int(c["pass"]), []).append(
                    m.Call(int(c["first"]), int(c["last"]), int(c["service_ns"]) / 1e9,
                           c["kind"] != "benign"))
        return [by_pass[p] for p in sorted(by_pass)]

    def first_pass_calls(self):
        return [c for c in self.calls if c["pass"] == "0"]

    def durations(self, name, traced_only=True):
        spans = self.traced_spans if traced_only else self.spans
        return [(s["end"] - s["start"]) / 1e9 for s in spans if s["name"] == name]

    def setup(self):
        """Set-up: Spark start, the medians of the repeated generate+collect
        and loadGraph steps, and the warm-up calls (their own reset excluded)."""
        root = next(s["id"] for s in self.spans if s["name"] == "setup")
        step = lambda name: [(s["end"] - s["start"]) / 1e9 for s in self.spans
                             if s["name"] == name and s["parent"] == root]
        start = step("spark.start")[0]
        generate = middle(step("spark.generate"))
        load = middle(step("spade.load"))
        warmup = m.self_times(self.spans)["warmup"] / 1e9
        return dict(start=start, generate=generate, load=load, warmup=warmup,
                    total=start + generate + load + warmup)


def middle(xs):
    """Median of a handful of repeats (no tail rule: it is not a percentile
    of a latency distribution)."""
    return sorted(xs)[len(xs) // 2]


def pct(xs, q):
    try:
        return m.percentile(xs, q)
    except ValueError:
        return None


def end_to_end(run):
    passes = run.passes(traced=0)
    q = m.simulate(passes, run.due)
    # median over passes, so one slow pass (a late JIT compile, a GC) does not set it
    per_pass = [sum(c.last - c.first + 1 for c in p) / sum(c.service_s for c in p) for p in passes]
    return {
        "latency_p50_ms": (m.median(q.latencies) * 1e3, "ms"),
        "latency_p99_ms": (m.percentile(q.latencies, 99) * 1e3, "ms"),
        "max_rate_eps": (m.max_rate(passes, run.due, LIMIT_S), "1/s"),
        "throughput_eps": (statistics.median(per_pass), "1/s"),
        "prevention_ratio": (int(run.summary["prevented"]) / int(run.summary["fraud_edges"]), "ratio"),
        "setup_s": (run.setup()["total"], "s"),
        "state_heap_mb": (int(run.summary["state_heap_bytes"]) / 2 ** 20, "MB"),
    }


def scaled(v, k):
    return None if v is None else v * k


def layer_timing(stem, xs, passes, scale, unit, tail_q=99, calls="calls"):
    """calls and busy_s per pass, p50 and tail of one layer's span durations
    over `passes` traced passes. None means the layer is not called from
    outside on this workload, or the sample is too small for the percentile;
    `tail_q=None` reports the maximum and `calls=None` leaves the call count
    out."""
    tail = pct(xs, tail_q) if tail_q else (max(xs) if xs else None)
    out = {f"{stem}{calls}": (len(xs) / passes, "count")} if calls else {}
    return out | {
        f"{stem}busy_s": (sum(xs) / passes if xs else None, "s"),
        f"{stem}p50_{unit}": (scaled(pct(xs, 50), scale), unit),
        f"{stem}{'p%d' % tail_q if tail_q else 'max'}_{unit}": (scaled(tail, scale), unit),
    }


def per_layer(w, run):
    """Every per-layer metric: counters from the first pass (they repeat
    exactly), timings from the spans of traced passes (calls and busy time
    per pass), queueing from the untraced passes of the same process at the
    stream's own arrival times."""
    s = run.setup()
    calls0 = run.first_pass_calls()
    reorders = [c for c in calls0 if c["kind"] != "benign"]
    n = len(reorders)
    tot = {k: sum(int(c[k]) for c in reorders) for k in
           ("emitted", "recovered", "edges_touched", "scan_span", "new_vertices")}
    graph_edges = int(run.summary["graph_edges"])
    untraced, traced = run.passes(0), run.passes(1)
    q = m.simulate(untraced, run.due)

    ins, det, sus = (run.durations(x) for x in ("spade.insertEdge", "spade.detect", "spade.detectSuspects"))
    chk, flush, batch = (run.durations(x) for x in ("group.check", "group.flush", "stream.processBatch"))
    update = run.durations(UPDATE_SPAN[w["mode"]])
    peel_s = middle(run.durations("static.peel", False))
    self_t = m.self_times(run.traced_spans)
    busy = sum(self_t.values())
    per_pass = lambda ps: sum(c.service_s for p in ps for c in p) / len(ps)
    suspect_sizes = [int(c["suspects"]) for c in calls0 if int(c["suspects"]) >= 0]
    benign = sum(1 for c in calls0 if c["kind"] == "benign")
    flushes = sum(1 for c in calls0 if c["kind"] == "flush")
    buf = m.buffer_waits(untraced, q.finishes, run.due)

    out = {
        "spark.start_s": (s["start"], "s"),
        "spark.generate_s": (s["generate"], "s"),
        "spade.load_s": (s["load"], "s"),
        "warmup_s": (s["warmup"], "s"),
        "update.calls": (len(update) / len(traced), "count"),
        "update.busy_s": (sum(update) / len(traced), "s"),
        "update.p50_us": (m.median(update) * 1e6, "us"),
        "update.mean_us": (sum(update) / len(update) * 1e6, "us"),
        "reorder.calls": (n, "count"),
        "reorder.emitted_mean": (tot["emitted"] / n, "count"),
        "reorder.recovered_mean": (tot["recovered"] / n, "count"),
        "reorder.edges_touched_mean": (tot["edges_touched"] / n, "count"),
        "reorder.window_mean": (tot["scan_span"] / n, "count"),
        "reorder.recovered_per_emitted": (tot["recovered"] / tot["emitted"], "ratio"),
        "reorder.affected_edge_fraction": (tot["edges_touched"] / n / graph_edges, "ratio"),
        "reorder.new_vertices": (tot["new_vertices"], "count"),
    }
    # reorder.calls is counted above from every reorder, not only single inserts
    out.update(layer_timing("reorder.", ins, len(traced), 1e6, "us", calls=None))
    out.update(layer_timing("detect.", det, len(traced), 1e6, "us"))
    out.update(layer_timing("suspects.", sus, len(traced), 1e6, "us"))
    out["suspects.size_mean"] = (sum(suspect_sizes) / len(suspect_sizes) if suspect_sizes else None, "count")
    out.update({
        "group.benign": (benign, "count"),
        "group.urgent": (flushes, "count"),
        "group.urgent_share": (flushes / len(calls0) if w["mode"] == "grouped" else None, "ratio"),
        "group.check_p50_us": (scaled(pct(chk, 50), 1e6), "us"),
        "group.flush_edges_mean": ((benign + flushes) / flushes if flushes else None, "count"),
        "group.buffer_wait_p50_ms": (scaled(pct(buf, 50), 1e3), "ms"),
    })
    out.update(layer_timing("group.flush_", flush, len(traced), 1e6, "us"))
    out["stream.batches"] = (len(batch) / len(traced), "count")
    out.update(layer_timing("stream.batch_", batch, len(traced), 1e3, "ms", tail_q=None, calls=None))
    out.update({
        "queue.wait_p50_ms": (scaled(pct(q.waits, 50), 1e3), "ms"),
        "queue.wait_p99_ms": (scaled(pct(q.waits, 99), 1e3), "ms"),
        "queue.backlog_max": (q.backlog_max, "count"),
        "queue.busy_share": (q.busy_share, "ratio"),
        "static.peel_ms": (peel_s * 1e3, "ms"),
        "static.speedup_at_1": (peel_s / (sum(ins) / len(ins)) if ins else None, "x"),
        "self.update_share": (self_t.get(UPDATE_SPAN[w["mode"]], 0) / busy, "ratio"),
        "self.detect_share": (self_t.get("spade.detect", 0) / busy, "ratio"),
        "self.suspects_share": (self_t.get("spade.detectSuspects", 0) / busy, "ratio"),
        "self.check_share": (self_t.get("group.check", 0) / busy, "ratio"),
        "self.harness_share": (self_t.get("call", 0) / busy, "ratio"),
        "trace.overhead_share": (per_pass(traced) / per_pass(untraced) - 1, "ratio"),
        "fraud.edges": (int(run.summary["fraud_edges"]), "count"),
        "order.positions_differing": (int(run.summary["order_positions_differing"]), "count"),
        "community.size": (int(run.summary["community_size"]), "count"),
        "community.density": (float(run.summary["community_density"]), "ratio"),
        "graph.vertices": (int(run.summary["graph_vertices"]), "count"),
        "graph.edges": (graph_edges, "count"),
    })
    return out


def bench_keys(section):
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        return [x["name"] for x in json.load(f)[section]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(build.build_dir(), "runs")
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}")
    try:
        print(run_replay(w, args, build.build(), prefix).rstrip())
    except (build.BuildError, RunError) as e:
        sys.exit(f"perfbench: {e}")
    run = Run(prefix)

    failed = int(run.summary["gate_failures"])
    attempted = len(run.calls) + int(run.summary["gate_checks"])
    print(f"arrivals from the stream's ts: {len(run.due)} edges over {run.due[-1]:.1f} s, "
          f"{m.mean_rate(run.due):.4g} edges/s on average; p99 limit for max_rate_eps {LIMIT_S:g} s")
    print(f"fraud edges in window: {run.summary['fraud_edges']}; "
          f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} calls and checks)")
    if args.trace == 0:
        res, section = end_to_end(run), "end_to_end"
    else:
        res, section = per_layer(w, run), "per_layer"
        ins = run.durations("spade.insertEdge")
        if ins:
            print(f"static.speedup_at_1 = {res['static.speedup_at_1'][0]:.1f}x "
                  f"(Table 4 bar: >{TABLE4_SPEEDUP_BAR:.0f}x; reported, not gated)")
    for k, (v, unit) in res.items():
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"{args.workload:11s} {k:32s} {shown:>14s} {unit}")
    keys = bench_keys(section)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": res[k][0], "unit": res[k][1]} for k in keys}}))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
