#!/usr/bin/env python3
"""Validate BENCH_*.json run reports against the documented schema.

Stdlib-only gate for CI: checks the envelope and manifest keys that
docs/telemetry.md declares required (the C++ golden-schema tests in
tests/test_telemetry.cpp are the authoritative check; this catches a
harness that silently stopped writing conforming reports).

Usage: check_report_schema.py <report-or-dir>...
Exits non-zero listing every violation.
"""

import json
import pathlib
import sys

ENVELOPE_KEYS = ("schema_version", "harness", "manifest", "options", "cases")
MANIFEST_KEYS = (
    "schema_version",
    "host",
    "timestamp_utc",
    "git_describe",
    "build_type",
    "compiler",
    "cxx_standard",
)
TRACE_KEYS = ("schema_version", "displayTimeUnit", "traceEvents", "otherData")
# Serving reports (harness == "serving") carry an extra SLO section
# (docs/serving.md): latency percentiles, throughput, cache and shed
# counters of the open-loop run.
SERVING_KEYS = (
    "schema_version",
    "config",
    "workload",
    "run",
    "latency_ticks",
    "throughput_qps",
    "shed",
    "shed_rate",
    "cache",
)
SERVING_LATENCY_KEYS = ("p50", "p90", "p99")
SERVING_CACHE_KEYS = ("hits", "misses", "hit_rate", "evictions")
# serving.oracle: the landmark (ALT) on/off sweep — answers must be
# bit-identical while relaxations and wire bytes both drop.
SERVING_ORACLE_KEYS = (
    "landmarks",
    "queries",
    "bit_identical",
    "relax_reduction",
    "wire_reduction",
    "precompute_waves",
    "precompute_seconds",
    "off",
    "on",
)
# serving.adaptive: the fixed-batch sweep vs the rate-tracking controller.
SERVING_ADAPTIVE_KEYS = (
    "best_fixed_batch",
    "best_fixed_p99",
    "adaptive_p99",
    "adaptive_adjustments",
    "adaptive_shed",
    "adaptive_ok",
    "run",
)
# Aggregated engine-work counters every serving run JSON must carry (the
# cost side of the oracle ledger).
SERVING_RUN_KEYS = (
    "wire_bytes",
    "relax_generated",
    "relax_sent",
    "pruned_expand",
    "pruned_apply",
    "availability",
    "graph_version",
)
# The availability block every serving run carries (docs/telemetry.md):
# per-outcome counts plus the retry/breaker audit trail.
SERVING_AVAILABILITY_KEYS = (
    "served",
    "degraded",
    "deadline_exceeded",
    "failed",
    "shed",
    "availability",
    "attempts",
    "wave_retries",
    "waves_abandoned",
    "breaker_opened",
    "breaker_half_opened",
    "breaker_closed",
    "recovery_ticks",
    "backoff_seconds",
    "oracle_restored",
)
# serving.chaos: the fault-injection sweep — a faulted run must stay above
# the availability floor with every exact answer bit-identical, and a
# restart over the persisted oracle slices must skip the precompute waves.
SERVING_CHAOS_KEYS = (
    "avail_floor",
    "availability",
    "attempts",
    "wave_retries",
    "waves_abandoned",
    "exact_bit_identical",
    "exact_compared",
    "degraded_bracketed",
    "degraded_checked",
    "faults_exercised",
    "restart_precompute_waves",
    "oracle_restored",
    "chaos_ok",
    "reference",
    "faulted",
    "restart",
)
# serving.mixed: the YCSB-style multi-kernel mix (docs/serving.md) —
# per-class latency percentiles plus a validation digest per kernel that
# must match a sequential reference bit for bit.
SERVING_MIXED_KEYS = (
    "analytics_fraction",
    "config",
    "workload",
    "run",
    "kernels",
    "kernels_validated",
)
SERVING_MIXED_KERNELS = ("pagerank", "kcore", "components", "reachability")
# Per-class carve-out inside every serving metrics block
# (docs/telemetry.md): the distance class is global-minus-analytics.
# Only distance reads degrade, so the analytics class has no "degraded".
SERVING_CLASS_KEYS = (
    "arrived",
    "admitted",
    "shed",
    "answered",
    "slo_violations",
    "deadline_exceeded",
    "degraded",
    "failed",
    "latency_ticks",
)
SERVING_POINT_CACHE_KEYS = ("hits", "misses", "inserts", "evictions")
# dynamic: the streaming-mutation bench (docs/dynamic.md) — incremental
# SSSP repair must be bit-identical to a from-scratch recompute after
# EVERY batch, and the repaired cone must cost strictly less relaxation
# work than the recompute on localized batches.
DYNAMIC_KEYS = (
    "batches",
    "edges_applied",
    "graph_version",
    "compactions",
    "repair_relax",
    "recompute_relax",
    "work_ratio",
    "bit_identical",
    "repair_ok",
    "invalidation",
    "point_persistence",
)
# The serving-invalidation counters of the dynamic bench's query phase.
DYNAMIC_INVALIDATION_KEYS = (
    "graph_updates",
    "update_edges_applied",
    "roots_invalidated",
    "roots_retained",
    "points_invalidated",
    "points_retained",
    "memo_invalidated",
    "slices_refreshed",
    "wholesale_flushes",
    "version_misses",
)
DYNAMIC_POINT_KEYS = ("persisted", "restored")
# weak_scaling.ooc: the out-of-core demonstration (docs/out_of_core.md) —
# bit-identity of the pipelined sharded build, then a scale step under a
# resident cap the in-memory builder cannot satisfy.
OOC_IDENTITY_KEYS = ("scale", "ranks", "roots", "bit_identical",
                     "build_pipeline")
OOC_CAP_KEYS = (
    "scale",
    "ranks",
    "cap_bytes",
    "inmemory_estimate_bytes",
    "infeasible_in_memory",
    "peak_resident_bytes",
    "under_cap",
    "sssp_seconds",
    "sssp_teps",
    "valid",
    "residency",
    "build_pipeline",
)
OOC_PIPELINE_KEYS = (
    "bin",
    "sort",
    "pack",
    "runs_spilled",
    "spilled_bytes",
    "shard_bytes",
    "peak_resident_bytes",
    "budget_bytes",
    "total_seconds",
)
OOC_STAGE_KEYS = ("edges", "bytes", "seconds", "meps")
OOC_RESIDENCY_KEYS = ("backing", "resident_bytes", "mapped_bytes")
# breakdown.async: the gated async-vs-sync comparison (docs/async.md) —
# distances must be bit-identical with strictly fewer global collectives.
BREAKDOWN_ASYNC_KEYS = (
    "sync_collectives",
    "async_collectives",
    "fewer_collectives",
    "bit_identical",
    "flush_capacity",
    "flush_timeout",
    "p2p_bytes",
)
# replay.async: the barrier-free recording priced by replay_async_trace —
# the near-empty collective log plus the aggregated parcel stream.
REPLAY_ASYNC_KEYS = (
    "collective_rounds",
    "sync_rounds",
    "p2p",
    "replay",
    "critical_path_speedup",
)
REPLAY_P2P_KEYS = (
    "flushes",
    "messages",
    "bytes",
    "max_rank_bytes",
    "flush_capacity",
    "flush_timeout",
)


def check_trace(doc, path, errors):
    for key in TRACE_KEYS:
        if key not in doc:
            errors.append(f"{path}: missing trace key '{key}'")
    events = doc.get("traceEvents", [])
    if not isinstance(events, list) or not events:
        errors.append(f"{path}: traceEvents must be a non-empty array")
        return
    for i, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                errors.append(f"{path}: traceEvents[{i}] missing '{key}'")
        if event.get("ph") == "X":
            for key in ("ts", "dur", "args"):
                if key not in event:
                    errors.append(f"{path}: traceEvents[{i}] missing '{key}'")


def check_report(doc, path, errors):
    for key in ENVELOPE_KEYS:
        if key not in doc:
            errors.append(f"{path}: missing envelope key '{key}'")
    if not isinstance(doc.get("schema_version"), int):
        errors.append(f"{path}: schema_version must be an integer")
    manifest = doc.get("manifest", {})
    for key in MANIFEST_KEYS:
        if key not in manifest:
            errors.append(f"{path}: manifest missing '{key}'")
    if not isinstance(doc.get("cases"), list):
        errors.append(f"{path}: cases must be an array")
    if doc.get("harness") == "serving":
        check_serving(doc, path, errors)
    if doc.get("harness") == "dynamic":
        check_dynamic(doc, path, errors)
    if doc.get("harness") == "breakdown":
        check_breakdown_async(doc, path, errors)
    if doc.get("harness") == "replay":
        check_replay_async(doc, path, errors)
    if doc.get("harness") == "weak_scaling" and "ooc" in doc:
        check_ooc(doc, path, errors)


def check_ooc_pipeline(pipeline, where, path, errors):
    if not isinstance(pipeline, dict):
        errors.append(f"{path}: {where} missing 'build_pipeline'")
        return
    for key in OOC_PIPELINE_KEYS:
        if key not in pipeline:
            errors.append(f"{path}: {where} build_pipeline missing '{key}'")
    for stage in ("bin", "sort", "pack"):
        block = pipeline.get(stage)
        if not isinstance(block, dict):
            continue
        for key in OOC_STAGE_KEYS:
            if key not in block:
                errors.append(
                    f"{path}: {where} build_pipeline.{stage} missing '{key}'")


def check_ooc(doc, path, errors):
    ooc = doc.get("ooc")
    if not isinstance(ooc, dict):
        errors.append(f"{path}: weak_scaling report 'ooc' is not an object")
        return
    identity = ooc.get("identity")
    if not isinstance(identity, dict):
        errors.append(f"{path}: ooc section missing 'identity'")
    else:
        for key in OOC_IDENTITY_KEYS:
            if key not in identity:
                errors.append(f"{path}: ooc identity missing '{key}'")
        if identity.get("bit_identical") is not True:
            errors.append(
                f"{path}: sharded build not bit_identical to in-memory build")
        check_ooc_pipeline(identity.get("build_pipeline"), "ooc identity",
                           path, errors)
    cap = ooc.get("cap_step")
    if not isinstance(cap, dict):
        errors.append(f"{path}: ooc section missing 'cap_step'")
        return
    for key in OOC_CAP_KEYS:
        if key not in cap:
            errors.append(f"{path}: ooc cap_step missing '{key}'")
    for gate in ("infeasible_in_memory", "under_cap", "valid"):
        if cap.get(gate) is not True:
            errors.append(f"{path}: ooc cap_step gate '{gate}' did not pass")
    residency = cap.get("residency")
    if isinstance(residency, dict):
        for key in OOC_RESIDENCY_KEYS:
            if key not in residency:
                errors.append(f"{path}: ooc cap_step residency missing '{key}'")
        if residency.get("resident_bytes") not in (0,):
            errors.append(
                f"{path}: ooc cap_step graph not fully mapped "
                f"(resident_bytes != 0)")
    check_ooc_pipeline(cap.get("build_pipeline"), "ooc cap_step", path, errors)


def check_dynamic(doc, path, errors):
    dyn = doc.get("dynamic")
    if not isinstance(dyn, dict):
        errors.append(f"{path}: dynamic report missing 'dynamic' section")
        return
    for key in DYNAMIC_KEYS:
        if key not in dyn:
            errors.append(f"{path}: dynamic section missing '{key}'")
    if dyn.get("bit_identical") is not True:
        errors.append(
            f"{path}: incremental repair not bit_identical to recompute")
    if dyn.get("repair_ok") is not True:
        errors.append(f"{path}: dynamic repair gate did not pass (repair_ok)")
    ratio = dyn.get("work_ratio")
    if isinstance(ratio, (int, float)) and not ratio < 1:
        errors.append(
            f"{path}: repair work_ratio {ratio} not strictly below 1 "
            f"(repair must beat recompute on localized batches)")
    inval = dyn.get("invalidation")
    if isinstance(inval, dict):
        for key in DYNAMIC_INVALIDATION_KEYS:
            if key not in inval:
                errors.append(f"{path}: dynamic invalidation missing '{key}'")
    point = dyn.get("point_persistence")
    if isinstance(point, dict):
        for key in DYNAMIC_POINT_KEYS:
            if key not in point:
                errors.append(
                    f"{path}: dynamic point_persistence missing '{key}'")


def check_breakdown_async(doc, path, errors):
    async_doc = doc.get("async")
    if not isinstance(async_doc, dict):
        errors.append(f"{path}: breakdown report missing 'async' section")
        return
    for key in BREAKDOWN_ASYNC_KEYS:
        if key not in async_doc:
            errors.append(f"{path}: breakdown async missing '{key}'")
    if async_doc.get("bit_identical") is not True:
        errors.append(f"{path}: async distances not bit_identical")
    if async_doc.get("fewer_collectives") is not True:
        errors.append(f"{path}: async did not issue fewer collectives")


def check_replay_async(doc, path, errors):
    async_doc = doc.get("async")
    if not isinstance(async_doc, dict):
        errors.append(f"{path}: replay report missing 'async' section")
        return
    for key in REPLAY_ASYNC_KEYS:
        if key not in async_doc:
            errors.append(f"{path}: replay async missing '{key}'")
    p2p = async_doc.get("p2p", {})
    if isinstance(p2p, dict):
        for key in REPLAY_P2P_KEYS:
            if key not in p2p:
                errors.append(f"{path}: replay async p2p missing '{key}'")


def check_serving_run(run, where, path, errors):
    """One serving run dict: engine-work counters plus the availability block."""
    for key in SERVING_RUN_KEYS:
        if key not in run:
            errors.append(f"{path}: {where} missing '{key}'")
    avail = run.get("availability")
    if not isinstance(avail, dict):
        return
    for key in SERVING_AVAILABILITY_KEYS:
        if key not in avail:
            errors.append(f"{path}: {where} availability missing '{key}'")


def check_serving_chaos(serving, path, errors):
    chaos = serving.get("chaos")
    if not isinstance(chaos, dict):
        errors.append(f"{path}: serving section missing 'chaos'")
        return
    for key in SERVING_CHAOS_KEYS:
        if key not in chaos:
            errors.append(f"{path}: serving chaos missing '{key}'")
    if chaos.get("chaos_ok") is not True:
        errors.append(f"{path}: serving chaos sweep did not pass (chaos_ok)")
    if chaos.get("exact_bit_identical") is not True:
        errors.append(f"{path}: chaos exact answers not bit_identical")
    floor = chaos.get("avail_floor")
    avail = chaos.get("availability")
    if isinstance(floor, (int, float)) and isinstance(avail, (int, float)):
        if avail < floor:
            errors.append(
                f"{path}: chaos availability {avail} below floor {floor}")
    for mode in ("reference", "faulted", "restart"):
        run = chaos.get(mode)
        if isinstance(run, dict):
            check_serving_run(run, f"serving chaos.{mode}", path, errors)


def check_serving_classes(metrics, where, path, errors):
    """Per-class SLO block and point-cache counters of a metrics dict."""
    classes = metrics.get("classes")
    if not isinstance(classes, dict):
        errors.append(f"{path}: {where} missing 'classes'")
    else:
        for cls in ("distance", "analytics"):
            block = classes.get(cls)
            if not isinstance(block, dict):
                errors.append(f"{path}: {where} classes missing '{cls}'")
                continue
            for key in SERVING_CLASS_KEYS:
                if cls == "analytics" and key == "degraded":
                    continue
                if key not in block:
                    errors.append(
                        f"{path}: {where} classes.{cls} missing '{key}'")
            latency = block.get("latency_ticks", {})
            if isinstance(latency, dict):
                for key in SERVING_LATENCY_KEYS:
                    if key not in latency:
                        errors.append(
                            f"{path}: {where} classes.{cls} latency_ticks "
                            f"missing '{key}'")
    point = metrics.get("point_cache")
    if not isinstance(point, dict):
        errors.append(f"{path}: {where} missing 'point_cache'")
        return
    for key in SERVING_POINT_CACHE_KEYS:
        if key not in point:
            errors.append(f"{path}: {where} point_cache missing '{key}'")


def check_serving_mixed(serving, path, errors):
    mixed = serving.get("mixed")
    if not isinstance(mixed, dict):
        errors.append(f"{path}: serving section missing 'mixed'")
        return
    for key in SERVING_MIXED_KEYS:
        if key not in mixed:
            errors.append(f"{path}: serving mixed missing '{key}'")
    if mixed.get("kernels_validated") is not True:
        errors.append(
            f"{path}: mixed-workload kernels not validated against the "
            f"sequential references (kernels_validated)")
    kernels = mixed.get("kernels", {})
    if isinstance(kernels, dict):
        for name in SERVING_MIXED_KERNELS:
            block = kernels.get(name)
            if not isinstance(block, dict):
                errors.append(f"{path}: mixed kernels missing '{name}'")
                continue
            if block.get("match") is not True:
                errors.append(
                    f"{path}: mixed kernel '{name}' digest does not match "
                    f"its sequential reference")
    run = mixed.get("run")
    if isinstance(run, dict):
        check_serving_run(run, "serving mixed run", path, errors)
        metrics = run.get("metrics")
        if isinstance(metrics, dict):
            check_serving_classes(metrics, "serving mixed run metrics",
                                  path, errors)


def check_serving(doc, path, errors):
    serving = doc.get("serving")
    if not isinstance(serving, dict):
        errors.append(f"{path}: serving report missing 'serving' section")
        return
    for key in SERVING_KEYS:
        if key not in serving:
            errors.append(f"{path}: serving section missing '{key}'")
    latency = serving.get("latency_ticks", {})
    for key in SERVING_LATENCY_KEYS:
        if key not in latency:
            errors.append(f"{path}: serving latency_ticks missing '{key}'")
    cache = serving.get("cache", {})
    for key in SERVING_CACHE_KEYS:
        if key not in cache:
            errors.append(f"{path}: serving cache missing '{key}'")
    run = serving.get("run")
    if isinstance(run, dict):
        check_serving_run(run, "serving run", path, errors)
    oracle = serving.get("oracle")
    if not isinstance(oracle, dict):
        errors.append(f"{path}: serving section missing 'oracle'")
    else:
        for key in SERVING_ORACLE_KEYS:
            if key not in oracle:
                errors.append(f"{path}: serving oracle missing '{key}'")
        for mode in ("off", "on"):
            run = oracle.get(mode)
            if isinstance(run, dict):
                check_serving_run(run, f"serving oracle.{mode}", path, errors)
        if oracle.get("bit_identical") is not True:
            errors.append(f"{path}: serving oracle answers not bit_identical")
    adaptive = serving.get("adaptive")
    if not isinstance(adaptive, dict):
        errors.append(f"{path}: serving section missing 'adaptive'")
    else:
        for key in SERVING_ADAPTIVE_KEYS:
            if key not in adaptive:
                errors.append(f"{path}: serving adaptive missing '{key}'")
    check_serving_chaos(serving, path, errors)
    check_serving_mixed(serving, path, errors)


def check_file(path, errors):
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path}: unreadable or invalid JSON ({exc})")
        return
    # Chrome traces (BENCH_*_trace.json) use the trace_event layout.
    if path.name.endswith("_trace.json"):
        check_trace(doc, path, errors)
    else:
        check_report(doc, path, errors)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for arg in argv[1:]:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("BENCH_*.json")))
        else:
            files.append(p)
    if not files:
        print("error: no BENCH_*.json files found", file=sys.stderr)
        return 1
    errors = []
    for path in files:
        check_file(path, errors)
    for err in errors:
        print(err, file=sys.stderr)
    print(f"checked {len(files)} report(s), {len(errors)} violation(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
