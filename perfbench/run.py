#!/usr/bin/env python3
"""The repository benchmark: three workloads, each in its own process.

  g500_kron  the Graph 500 SSSP protocol on a scale-16 Kronecker graph
  serve_rw   reads and writes against one distance service
  ooc_build  repeated out-of-core pipelined builds under a memory cap

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run.  Builds perfbench/ into .bench_build first (CMake, Release),
      prints a table on standard error and, as the last line of standard
      output, {"correct", "attempted", "failed", "metrics"}: the
      end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
      metrics with --trace 1.  A traced run also runs the workload
      untraced, reports the difference as trace.overhead_pct and writes a
      Chrome trace and the full report (spans, counts, layers) under
      .bench_build/traces/.  --kron-seed1, --kron-seed2, --root-seed,
      --query-seed and --write-seed override the seeds --seed derives.
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload once; prints the 14 workload/metric pairs by name,
      unit and direction, and rewrites BENCHMARK.json from METRICS below.
  python3 perfbench/run.py --spread OUT.json --seeds 1-10 [--workloads a,b]
      Ten runs per workload, one per seed; prints each metric's median and
      quartile spread against its bound and saves the runs to OUT.json.
  python3 perfbench/run.py --compare A.json B.json
      Compares the medians of two --spread files against the bounds.

See perfbench/README.md for what each metric means.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# A run must end within 180 s of its build, both processes of a traced run
# included.
RUN_DEADLINE_S = 170

# A seed never used while tuning the benchmark; re-check gain claims on it.
HELD_OUT_SEED = 9173

WORKLOADS = {
    "g500_kron": "Graph 500 protocol: engine scan/coalesce/hub/pull/heavy "
                 "code does the timed work; serving and out-of-core are "
                 "bypassed",
    "serve_rw": "distance service under reads plus write batches: the only "
                "workload running serve, dyn, pruned waves and analytics",
    "ooc_build": "out-of-core pipelined build with spills: the only workload "
                 "where ooc and file I/O do the work",
}

# Input seeds a run may set apart from --seed (perfbench/README.md, Seeds).
SEED_FLAGS = ["kron-seed1", "kron-seed2", "root-seed", "query-seed",
              "write-seed"]

# On a shared host the hypervisor takes CPU time from this machine in
# bursts ("steal" in /proc/stat).  Every rank then waits for the stolen one
# at its next collective, so a few percent of steal slows a run far more
# than the stolen time itself.  A run during which more than
# STEAL_LIMIT_PCT of the machine's CPU time was stolen runs once more when
# its deadline leaves room, and the less disturbed of the two is kept.
# Repeats are capped at REPEAT_SHARE of the runs made with one build
# directory (counted in its REPEAT_LEDGER), so that a long steal period
# cannot stretch a series of runs by more than that share.
STEAL_LIMIT_PCT = 3.0
ATTEMPTS = 2
REPEAT_SHARE = 0.25
REPEAT_LEDGER = "steal_repeats.json"

# End-to-end metrics.  A run reports every end-to-end metric BENCHMARK.json
# lists, whatever its workload, so the file names four roles every workload
# fills; each workload reports its own metric (the `name`) under a role.
# The two serve_rw metrics without a role are checked by --compare only.
# Bounds follow the rule in README.md (End-to-end metrics); a role takes
# the largest bound of its workloads.
#   (workload, name, unit, better, role, scale to the role's unit, bound)
METRICS = [
    ("g500_kron", "setup_s", "s", "lower", "setup_s", 1.0, 0.25),
    ("g500_kron", "peak_rss_mb", "MiB", "lower", "peak_rss_mb", 1.0, 0.10),
    ("g500_kron", "teps_hmean", "edges/s", "higher", "throughput", 1.0, 0.25),
    ("g500_kron", "sssp_ms_p50", "ms", "lower", "latency_ms_p50", 1.0, 0.25),
    ("serve_rw", "setup_s", "s", "lower", "setup_s", 1.0, 0.25),
    ("serve_rw", "peak_rss_mb", "MiB", "lower", "peak_rss_mb", 1.0, 0.10),
    ("serve_rw", "serve_qps", "1/s", "higher", "throughput", 1.0, 0.25),
    ("serve_rw", "query_ms_p50", "ms", "lower", "latency_ms_p50", 1.0, 0.25),
    ("serve_rw", "query_ms_p99", "ms", "lower", None, 1.0, 0.25),
    ("serve_rw", "update_ms_p50", "ms", "lower", None, 1.0, 0.25),
    ("ooc_build", "setup_s", "s", "lower", "setup_s", 1.0, 0.20),
    ("ooc_build", "peak_rss_mb", "MiB", "lower", "peak_rss_mb", 1.0, 0.25),
    ("ooc_build", "build_meps", "Medges/s", "higher", "throughput", 1e6, 0.20),
    ("ooc_build", "build_ms_p50", "ms", "lower", "latency_ms_p50", 1.0, 0.20),
]

# BENCHMARK.json's end-to-end metrics: (name, unit, better).
ROLES = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("throughput", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
]

# Per-layer metrics (name, unit, better).  A workload that bypasses a layer
# reports it as 0.  "/op" is per search key (g500_kron), per answered
# distance query (serve_rw) or per build (ooc_build).
PER_LAYER = [
    ("simmpi.wire_bytes", "B/op", "lower"),
    ("simmpi.messages", "count/op", "lower"),
    ("simmpi.collectives", "count/op", "lower"),
    ("simmpi.rank_skew", "ratio", "lower"),
    ("graph.generate_s", "s", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.build_wire_bytes", "B", "lower"),
    ("core.sssp_s", "s", "lower"),
    ("core.light_s", "s", "lower"),
    ("core.heavy_s", "s", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("core.validate_s", "s", "lower"),
    ("core.relax_generated", "count/op", "lower"),
    ("core.relax_sent", "count/op", "lower"),
    ("core.relax_applied", "count/op", "lower"),
    ("core.useful_ratio", "ratio", "higher"),
    ("core.filtered_coalesce", "count/op", "lower"),
    ("core.filtered_hub", "count/op", "lower"),
    ("core.fused_local", "count/op", "higher"),
    ("core.push_rounds", "count/op", "lower"),
    ("core.pull_rounds", "count/op", "lower"),
    ("core.buckets", "count/op", "lower"),
    ("core.light_iterations", "count/op", "lower"),
    ("core.pruned_expand", "count", "higher"),
    ("core.pruned_apply", "count", "higher"),
    ("serve.setup_s", "s", "lower"),
    ("serve.batch_tick_s", "s", "lower"),
    ("serve.idle_tick_s", "s", "lower"),
    ("serve.wave_s", "s", "lower"),
    ("serve.fetch_s", "s", "lower"),
    ("serve.oracle_s", "s", "lower"),
    ("serve.analytics_s", "s", "lower"),
    ("serve.analytics_jobs", "count", "lower"),
    ("serve.analytics_memo_hits", "count", "higher"),
    ("serve.waves", "count", "lower"),
    ("serve.pruned_waves", "count", "lower"),
    ("serve.waves_per_answer", "ratio", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.point_cache_hit_ratio", "ratio", "higher"),
    ("serve.oracle_exact_ratio", "ratio", "higher"),
    ("serve.batch_occupancy_mean", "count", "higher"),
    ("serve.query_ticks_p50", "ticks", "lower"),
    ("serve.query_ticks_p99", "ticks", "lower"),
    ("serve.queue_depth_p99", "count", "lower"),
    ("serve.invalidate_s", "s", "lower"),
    ("serve.roots_retained", "count", "higher"),
    ("serve.roots_invalidated", "count", "lower"),
    ("serve.points_retained", "count", "higher"),
    ("serve.points_invalidated", "count", "lower"),
    ("serve.slices_refreshed", "count", "lower"),
    ("serve.memo_invalidated", "count", "lower"),
    ("dyn.commit_s", "s", "lower"),
    ("dyn.edges_applied", "count", "lower"),
    ("dyn.compactions", "count", "lower"),
    ("ooc.bin_s", "s", "lower"),
    ("ooc.sort_s", "s", "lower"),
    ("ooc.pack_s", "s", "lower"),
    ("ooc.runs_spilled", "count", "lower"),
    ("ooc.spilled_bytes", "B", "lower"),
    ("ooc.shard_bytes", "B", "lower"),
    ("ooc.peak_resident_bytes", "B", "lower"),
    ("ooc.load_s", "s", "lower"),
    ("ooc.mapped_sssp_s", "s", "lower"),
    ("host.steal_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

RUN_SECONDS = 10


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def manifest():
    """BENCHMARK.json, generated from the tables above."""
    bounds = {}
    for _, _, _, _, role, _, bound in METRICS:
        if role is not None:
            bounds[role] = max(bounds.get(role, 0.0), bound)
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bounds[n]}
                       for n, u, b in ROLES],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build perfbench/; returns the binary path.  Configuring
    every time is cheap when nothing changed, and CMake refuses a build
    directory configured for another checkout's sources."""
    out = build_dir()
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench"


def run_workload(binary, workload, seed, seconds, trace, small=False,
                 timeout=RUN_DEADLINE_S, seeds=()):
    """One workload process; returns its report dictionary.  `seeds` are
    (flag, value) overrides of the seeds --seed derives."""
    out = build_dir()
    scratch = out / "scratch" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", str(scratch)]
    if trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if small:
        cmd += ["--size", "small"]
    for flag, value in seeds:
        cmd += [f"--{flag}", str(value)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish in {timeout:.0f} s") from e
    if done.returncode != 0:
        raise BenchError(f"{workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs since boot."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def measure(binary, workload, seed, seconds, trace, deadline, seeds=(),
            small=False):
    """One measured run, repeated once when the host stole more than
    STEAL_LIMIT_PCT of the CPU time during it, the ledger allows a repeat
    and `deadline` (a time.monotonic() reading) leaves room for another;
    keeps the less disturbed run.  A run that fails its checks is returned
    at once."""
    ledger = build_dir() / REPEAT_LEDGER
    counts = (json.loads(ledger.read_text()) if ledger.exists()
              else {"runs": 0, "repeats": 0})
    may_repeat = counts["repeats"] < REPEAT_SHARE * (counts["runs"] + 1)
    kept = None
    for attempt in range(1, ATTEMPTS + 1):
        started = time.monotonic()
        steal, total = cpu_ticks()
        report = run_workload(binary, workload, seed, seconds, trace, small,
                              timeout=deadline - started, seeds=seeds)
        steal_end, total_end = cpu_ticks()
        report["steal_pct"] = (100.0 * (steal_end - steal)
                               / max(total_end - total, 1))
        if not report["correct"]:
            kept = report
            break
        if kept is None or report["steal_pct"] < kept["steal_pct"]:
            kept = report
        took = time.monotonic() - started
        if (kept["steal_pct"] <= STEAL_LIMIT_PCT or attempt == ATTEMPTS
                or not may_repeat or time.monotonic() + took > deadline):
            break
        log(f"{workload} seed {seed}: host stole "
            f"{report['steal_pct']:.1f}% of the CPU time; running again")
    kept["attempts"] = attempt
    counts["runs"] += 1
    counts["repeats"] += attempt - 1
    ledger.write_text(json.dumps(counts) + "\n")
    return kept


def metric_rows(report):
    """The workload's named end-to-end metrics: (name, value, unit, better,
    role, role value)."""
    rows = []
    for wl, name, unit, better, role, scale, _ in METRICS:
        if wl != report["workload"]:
            continue
        value = report["metrics"].get(name)
        rows.append((name, value, unit, better, role,
                     None if value is None else value * scale))
    return rows


def end_to_end(report):
    metrics = {}
    for _, value, _, _, role, role_value in metric_rows(report):
        if role is None:
            continue
        if role_value is None or not math.isfinite(role_value) or role_value <= 0:
            raise BenchError(f"{report['workload']}: {role} is {role_value}")
        unit = next(u for n, u, _ in ROLES if n == role)
        metrics[role] = {"value": role_value, "unit": unit}
    return metrics


def per_layer(report, untraced):
    layers = report["layers"]
    metrics = {n: {"value": layers.get(n, 0), "unit": u}
               for n, u, _ in PER_LAYER}
    metrics["host.steal_pct"]["value"] = report["steal_pct"]
    role = "throughput"
    rate = end_to_end(report)[role]["value"]
    base = end_to_end(untraced)[role]["value"]
    metrics["trace.overhead_pct"]["value"] = (base / rate - 1.0) * 100.0
    return metrics


def print_report(report, file=sys.stderr):
    w = report["workload"]
    print(f"== {w}: correct={report['correct']} attempted={report['attempted']}"
          f" failed={report['failed']} host steal={report['steal_pct']:.2f}%"
          f" ({report['attempts']} attempt(s))", file=file)
    for err in report["errors"]:
        print(f"   error: {err}", file=file)
    for name, value, unit, better, role, _ in metric_rows(report):
        shown = "missed" if value is None else f"{value:.6g}"
        print(f"   {w:<10} {name:<16} {shown:>14} {unit:<9} {better:<7}"
              f" {'role ' + role if role else '(--compare only)'}", file=file)
    if report["spans"]:
        top = max(s["total_s"] for s in report["spans"])
        print("   self time by span (rank 0):", file=file)
        for s in report["spans"]:
            print(f"     {s['span']:<22} {s['calls']:>7} calls "
                  f"{s['self_s']:>10.4f} s self  {100 * s['self_s'] / top:5.1f}%",
                  file=file)


def seed_overrides(args):
    return [(flag, getattr(args, flag.replace("-", "_")))
            for flag in SEED_FLAGS
            if getattr(args, flag.replace("-", "_")) is not None]


def single(args):
    binary = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    seeds = seed_overrides(args)
    report = measure(binary, args.workload, args.seed, args.seconds, False,
                     deadline, seeds)
    correct = report["correct"]
    if args.trace:
        untraced = report
        report = measure(binary, args.workload, args.seed, args.seconds, True,
                         deadline, seeds)
        correct = correct and report["correct"]
        metrics = per_layer(report, untraced)
        saved = build_dir() / "traces" / f"{args.workload}-seed{args.seed}.report.json"
        saved.write_text(json.dumps(report, indent=1) + "\n")
    else:
        metrics = end_to_end(report)
    print_report(report)
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    binary = build()
    ok = True
    for workload in WORKLOADS:
        report = measure(binary, workload, args.seed, args.seconds, False,
                         time.monotonic() + RUN_DEADLINE_S,
                         seed_overrides(args))
        print_report(report, file=sys.stdout)
        ok = ok and report["correct"]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    print("wrote BENCHMARK.json")
    return 0 if ok else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else math.inf


def spread(args):
    binary = build()
    runs = []
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            report = measure(binary, workload, seed, args.seconds, False,
                             time.monotonic() + RUN_DEADLINE_S)
            log(f"{workload} seed {seed}: correct={report['correct']} "
                f"failed={report['failed']}/{report['attempted']} "
                f"steal={report['steal_pct']:.2f}% "
                f"attempts={report['attempts']}")
            runs.append(report)
    Path(args.spread).write_text(json.dumps(runs, indent=1) + "\n")
    print(f"{'workload':<10} {'metric':<16} {'median':>14} {'IQR/med':>8}"
          f" {'bound/3':>8}  verdict")
    for wl, name, _, _, _, _, bound in METRICS:
        values = [r["metrics"].get(name) for r in runs if r["workload"] == wl]
        if not values:
            continue
        if any(v is None for v in values):
            print(f"{wl:<10} {name:<16} {'missed':>14}")
            continue
        med, share = spread_of(values)
        verdict = "ok" if share < bound / 3 else "WIDE"
        print(f"{wl:<10} {name:<16} {med:>14.6g} {share:>8.4f}"
              f" {bound / 3:>8.4f}  {verdict}")
    return 0


def median_or_missed(runs, workload, name):
    """Median of a metric over a set's runs of `workload`; None when the
    median is missed (a missed reading, such as a latency percentile that
    reaches a failed query, counts as +inf)."""
    values = [r["metrics"].get(name) for r in runs if r["workload"] == workload]
    med = statistics.median(math.inf if v is None else v for v in values)
    return med if math.isfinite(med) else None


def compare(args):
    """Exit status 1 when a pair is worse than its bound in B, B misses a
    pair A resolves, or fingerprints differ.  Pairs both sets miss cannot be
    compared; they are counted and listed as unresolved."""
    sets = [json.loads(Path(p).read_text()) for p in args.compare]
    worst = 0
    unresolved = []
    print(f"{'workload':<10} {'metric':<16} {'median A':>14} {'median B':>14}"
          f" {'change':>8} {'bound':>6}  verdict")
    ran = [{r["workload"] for r in runs} for runs in sets]
    for wl, name, _, better, _, _, bound in METRICS:
        if wl not in ran[0] | ran[1]:
            continue
        if wl not in ran[0] & ran[1]:
            raise BenchError(f"only one set has {wl} runs")
        a, b = (median_or_missed(runs, wl, name) for runs in sets)
        if a is None and b is None:
            unresolved.append(f"{wl}/{name}")
            print(f"{wl:<10} {name:<16} {'missed':>14} {'missed':>14}"
                  f" {'':>8} {bound:>6.2f}  unresolved")
            continue
        if a is None or b is None:
            verdict = "WORSE" if b is None else "ok"
            shown = [("missed" if m is None else f"{m:.6g}") for m in (a, b)]
            print(f"{wl:<10} {name:<16} {shown[0]:>14} {shown[1]:>14}"
                  f" {'':>8} {bound:>6.2f}  {verdict}")
        else:
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "WORSE"
            print(f"{wl:<10} {name:<16} {a:>14.6g} {b:>14.6g} {worse:>+8.4f}"
                  f" {bound:>6.2f}  {verdict}")
        worst = max(worst, 0 if verdict == "ok" else 1)
    for wl in sorted(ran[0]):
        prints = [{json.dumps(r["config"], sort_keys=True): r["exact"]
                   for r in runs if r["workload"] == wl} for runs in sets]
        shared = prints[0].keys() & prints[1].keys()
        same = all(prints[0][k] == prints[1][k] for k in shared)
        failed = [sum(r["failed"] for r in runs if r["workload"] == wl)
                  for runs in sets]
        print(f"{wl}: failed ops A={failed[0]} B={failed[1]}; fingerprints of"
              f" {len(shared)} shared inputs {'identical' if same else 'DIFFER'}")
        worst = max(worst, 0 if same else 1)
    print(f"{len(unresolved)} unresolved pair(s), missed in both sets:"
          f" {', '.join(unresolved) or '-'}")
    return worst


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--spread", metavar="OUT.json")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    for flag in SEED_FLAGS:
        p.add_argument(f"--{flag}", type=int)
    args = p.parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        if args.spread:
            return spread(args)
        if args.compare:
            return compare(args)
        if not args.workload:
            p.error("one of --workload, --all, --spread, --compare is required")
        return single(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
