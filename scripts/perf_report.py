"""Time the perf pipelines (sweep + cluster + diurnal + QED) and write
``BENCH_perf.json``.

    PYTHONPATH=src python scripts/perf_report.py [sf] [out.json] \
        [--trace-cache DIR]
    PYTHONPATH=src python scripts/perf_report.py --check [out.json]

Runs four comparisons and records them in one artifact:

* the 7-setting x 5-repeat PVC sweep over the ten-query selection
  workload, naive re-execution vs execute-once/replay-many (cold and
  warm cache) -- wall clocks, speedups, database-execution counts, and
  the curves' maximum relative deviation;
* the cluster scaling scenario (16 nodes x 10k arrivals by default,
  ``REPRO_BENCH_CLUSTER_NODES``/``_ARRIVALS`` override), batched
  fleet playback vs the per-query replay loop, appended under the
  ``cluster_scaling`` key;
* the scheduler scaling scenario (100 nodes, vectorized event core vs
  the per-arrival loop at ``REPRO_BENCH_SCALING_COMPARE_ARRIVALS``,
  plus the vectorized-only 1M-arrival tier,
  ``REPRO_BENCH_SCALING_NODES``/``_ARRIVALS`` override), merged into
  the same ``cluster_scaling`` record as ``sched_*``/``tier_*`` keys;
* the diurnal ablation (four fleet policies on a heterogeneous fleet
  under the day/night rate schedule), appended under ``diurnal``,
  including the heterogeneous batched-vs-loop playback comparison;
* the QED ablation (master queue vs per-node queues vs no queueing on
  the mixed-template stream), appended under ``qed``, gating
  master <= node <= off on cluster energy at the shared SLA budget;
* the fault-recovery ablation (the canonical fault plan -- mid-batch
  crash, failed wakes, straggler window, transient unavailability --
  under spread vs consolidate-with-recovery), appended under
  ``faults``, gating that consolidation's energy win survives active
  faults at the equal SLA-miss budget with no query silently lost;
* the replication ablation (lineitem hash-partitioned into chained
  replicated shards, a crash killing one replica of every shard a
  node held, re-replication billed on both endpoints), appended under
  ``replication``, gating that quorum-aware consolidation still beats
  always-awake spread while the copies are in flight, every shard is
  restored to its replica target, and no query is silently lost.

Every artifact refresh also appends a ``history`` entry (timestamp +
gated speedups), so the perf trajectory stays machine-readable --
``scripts/check_bench_trend.py`` gates CI on it.

``--check`` re-validates the *recorded* gates of an existing artifact
without measuring anything (used by the CI workflow): every speedup
>= 5x, every playback deviation <= 1e-9, and dynamic re-consolidation
beating static spread at the shared SLA budget.

``--trace-cache DIR`` persists compiled traces across processes: a
second invocation pointed at the same directory skips the cluster
workload's database executions entirely.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from check_bench_trend import append_history

DEFAULT_SF = 0.02
#: Same guard as benchmarks/conftest.py: sub-full-size runs must not
#: clobber the committed artifact.
ARTIFACT_MIN_SF = 0.05
COMMITTED_ARTIFACT = Path("BENCH_perf.json")

#: The recorded gates ``--check`` enforces: (dotted key, kind, bound).
CHECK_GATES = [
    ("speedup_cold", "min", 5.0),
    ("max_rel_diff_cold", "max", 1e-9),
    ("cluster_scaling.speedup", "min", 5.0),
    ("cluster_scaling.max_rel_diff", "max", 1e-9),
    ("cluster_scaling.sched_speedup", "min", 5.0),
    ("cluster_scaling.sched_max_rel_diff", "max", 1e-9),
    ("diurnal.hetero_speedup", "min", 5.0),
    ("diurnal.hetero_max_rel_diff", "max", 1e-9),
    ("diurnal.dynamic_beats_spread", "true", None),
    ("qed.master_beats_node", "true", None),
    ("qed.node_beats_off", "true", None),
    ("faults.consolidate_beats_spread", "true", None),
    ("faults.conserved", "true", None),
    ("faults.faults_active", "true", None),
    ("replication.consolidate_beats_spread", "true", None),
    ("replication.conserved", "true", None),
    ("replication.re_replicated", "true", None),
    ("replication.restored", "true", None),
]


def run_check(path: Path) -> int:
    from check_bench_trend import dig

    if not path.exists():
        print(f"error: artifact {path} not found")
        return 2
    record = json.loads(path.read_text())
    failures = []
    for key, kind, bound in CHECK_GATES:
        value = dig(record, key)
        if value is None:
            failures.append(f"{key}: not recorded")
            continue
        ok = (
            value >= bound if kind == "min"
            else value <= bound if kind == "max"
            else bool(value)
        )
        bound_text = (
            f">= {bound:g}" if kind == "min"
            else f"<= {bound:g}" if kind == "max" else "true"
        )
        print(f"{'ok  ' if ok else 'FAIL'} {key} = {value} ({bound_text})")
        if not ok:
            failures.append(f"{key} = {value} violates {bound_text}")
    if failures:
        print(f"{len(failures)} recorded gate(s) failing")
        return 1
    print("all recorded gates pass")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("sf", nargs="?", type=float, default=DEFAULT_SF)
    parser.add_argument("out", nargs="?", type=Path,
                        default=COMMITTED_ARTIFACT)
    parser.add_argument("--trace-cache", default=None, metavar="DIR",
                        help="persist compiled traces across processes")
    parser.add_argument("--check", action="store_true",
                        help="validate the recorded artifact's gates "
                             "and exit (no measurement)")
    args = parser.parse_args(argv)
    if args.check:
        return run_check(args.out)

    from repro.db.profiles import mysql_profile
    from repro.hardware.profiles import paper_sut
    from repro.cluster import RoundRobinRouter
    from repro.measurement.perf import (
        cluster_scaling_scenario,
        compare_cluster_playback,
        compare_cluster_scheduling,
        compare_sweep_paths,
        run_diurnal_ablation,
        run_fault_ablation,
        run_qed_ablation,
        run_replication_ablation,
        scheduler_compare_arrivals,
        scheduler_scaling_scenario,
        time_vectorized_tier,
    )
    from repro.workloads.runner import TraceCache
    from repro.workloads.selection import SelectionWorkload
    from repro.workloads.tpch.generator import tpch_database

    if args.out == COMMITTED_ARTIFACT and args.sf < ARTIFACT_MIN_SF:
        # Mirror the bench suite: smoke numbers never clobber the
        # committed record unless an output path is given explicitly.
        args.out = Path(tempfile.gettempdir()) / "BENCH_perf_smoke.json"
        print(f"SF {args.sf} < {ARTIFACT_MIN_SF}: writing to {args.out} "
              "(pass an explicit output path to override)")

    print(f"building lineitem database at SF {args.sf} ...")
    db = tpch_database(args.sf, mysql_profile(), seed=0,
                       tables=["lineitem"])
    workload = SelectionWorkload(tuple(range(1, 11)))
    comparison = compare_sweep_paths(
        db, paper_sut(), workload.queries, repeats=5,
        scale_factor=args.sf,
    )

    print(f"naive sweep           : {comparison.naive.wall_s:8.3f} s "
          f"({comparison.naive.db_executions} db executions)")
    print(f"pre-refactor sweep    : {comparison.naive_reuse.wall_s:8.3f} s "
          f"({comparison.naive_reuse.db_executions} db executions)")
    print(f"replay sweep (cold)   : {comparison.replay_cold.wall_s:8.3f} s "
          f"({comparison.replay_cold.db_executions} db executions)")
    print(f"replay sweep (warm)   : {comparison.replay_cached.wall_s:8.3f} s "
          f"({comparison.replay_cached.db_executions} db executions)")
    print(f"speedup cold/warm     : {comparison.speedup_cold:.1f}x / "
          f"{comparison.speedup_cached:.1f}x")
    print(f"speedup vs pre-refact : "
          f"{comparison.speedup_vs_prerefactor:.1f}x")
    print(f"max curve deviation   : {comparison.max_rel_diff_cold:.2e} "
          "(relative)")

    trace_cache = (
        TraceCache.for_workload(args.trace_cache, "mysql", args.sf,
                                seed=0, tables=("lineitem",))
        if args.trace_cache else None
    )
    specs, router, stream = cluster_scaling_scenario()
    print(f"\ncluster scaling       : {len(specs)} nodes x "
          f"{len(stream)} arrivals")
    cluster = compare_cluster_playback(
        db, specs, router, stream,
        scale_factor=args.sf, trace_cache=trace_cache,
    )
    print(f"schedule phase        : {cluster.schedule_wall_s:8.3f} s")
    print(f"production playback   : {cluster.batched_wall_s:8.3f} s")
    print(f"per-query replay loop : {cluster.loop_wall_s:8.3f} s")
    print(f"playback speedup      : {cluster.speedup:.1f}x "
          f"(end-to-end {cluster.end_to_end_speedup:.1f}x)")
    print(f"max energy deviation  : {cluster.max_rel_diff:.2e} (relative)")

    sched_specs, _r, sched_stream = scheduler_scaling_scenario(
        count=scheduler_compare_arrivals()
    )
    print(f"\nevent core            : {len(sched_specs)} nodes x "
          f"{len(sched_stream)} arrivals")
    sched = compare_cluster_scheduling(
        db, sched_specs, RoundRobinRouter, sched_stream,
        scale_factor=args.sf, trace_cache=trace_cache,
    )
    print(f"legacy schedule       : "
          f"{sched.legacy_schedule_wall_s:8.3f} s")
    print(f"vectorized schedule   : "
          f"{sched.vectorized_schedule_wall_s:8.3f} s")
    print(f"scheduler speedup     : {sched.sched_speedup:.1f}x "
          f"(end-to-end {sched.end_to_end_speedup:.1f}x)")
    print(f"max energy deviation  : {sched.max_rel_diff:.2e} (relative)")

    tier_specs, tier_router, tier_stream = scheduler_scaling_scenario()
    tier = time_vectorized_tier(
        db, tier_specs, tier_router, tier_stream,
        scale_factor=args.sf, trace_cache=trace_cache,
    )
    print(f"vectorized tier       : {tier.nodes} nodes x "
          f"{tier.arrivals} arrivals in {tier.total_wall_s:.2f} s "
          f"(schedule {tier.schedule_wall_s:.2f} s, "
          f"playback {tier.playback_wall_s:.2f} s)")

    diurnal = run_diurnal_ablation(
        db, scale_factor=args.sf, trace_cache=trace_cache
    )
    print(f"\ndiurnal ablation      : {diurnal.arrivals} arrivals over "
          f"{diurnal.horizon_s:.0f} s "
          f"(SLA {diurnal.sla_s:g} s, budget {diurnal.sla_budget:.0%})")
    for name, stats in diurnal.policies.items():
        print(f"  {name:12s} {stats['wall_joules']:9.1f} J  "
              f"awake {stats['awake_node_s']:7.1f} n·s  "
              f"re-sleeps {stats['re_sleeps']:3d}  "
              f"SLA misses {stats['sla_misses']:3d}")
    print(f"hetero playback       : {diurnal.hetero_speedup:.1f}x "
          f"(deviation {diurnal.hetero_max_rel_diff:.2e})")
    print(f"dynamic beats spread  : {diurnal.dynamic_beats_spread}")

    qed = run_qed_ablation(db, scale_factor=args.sf,
                           trace_cache=trace_cache)
    print(f"\nqed ablation          : {qed.arrivals} arrivals over "
          f"{qed.nodes} nodes (threshold {qed.threshold}, "
          f"SLA {qed.sla_s:g} s, budget {qed.sla_budget:.0%})")
    for name, stats in qed.modes.items():
        batching = (
            f"  batches {stats['qed_batches']:3d} "
            f"(mean {stats['qed_mean_batch_size']:.1f}, "
            f"fallbacks {stats['qed_fallback_batches']})"
            if "qed_batches" in stats else ""
        )
        print(f"  {name:7s} {stats['wall_joules']:9.1f} J  "
              f"SLA misses {stats['sla_misses']:3d}{batching}")
    print(f"master beats node     : {qed.master_beats_node} "
          f"(saving {qed.master_vs_node_saving:.1%})")
    print(f"node beats off        : {qed.node_beats_off} "
          f"(saving {qed.node_vs_off_saving:.1%})")

    faults = run_fault_ablation(db, scale_factor=args.sf,
                                trace_cache=trace_cache)
    print(f"\nfault ablation        : {faults.arrivals} arrivals over "
          f"{faults.nodes} nodes (retry x{faults.retry_max}, "
          f"SLA {faults.sla_s:g} s, budget {faults.sla_budget:.0%})")
    for name, stats in faults.modes.items():
        f = stats["faults"]
        print(f"  {name:12s} {stats['wall_joules']:9.1f} J  "
              f"SLA misses {stats['sla_misses']:3d}  "
              f"retries {f['retries']:3d}  "
              f"dead-lettered {f['dead_lettered']:2d}  "
              f"wasted {f['wasted_joules']:6.2f} J")
    print(f"consolidate beats spread under faults: "
          f"{faults.consolidate_beats_spread} "
          f"(saving {faults.consolidate_vs_spread_saving:.1%})")
    print(f"conserved / faults active            : "
          f"{faults.conserved} / {faults.faults_active}")

    replication = run_replication_ablation(db, scale_factor=args.sf,
                                           trace_cache=trace_cache)
    print(f"\nreplication ablation  : {replication.arrivals} arrivals "
          f"over {replication.nodes} nodes ({replication.shards} shards "
          f"x {replication.replicas} replicas, quorum "
          f"{replication.quorum})")
    for name, stats in replication.modes.items():
        f = stats["faults"]
        print(f"  {name:12s} {stats['wall_joules']:9.1f} J  "
              f"SLA misses {stats['sla_misses']:3d}  "
              f"copies {f['re_replications']:2d}  "
              f"copy {f['copy_joules']:6.2f} J  "
              f"holders {stats['min_live_holders']}")
    print(f"consolidate beats spread w/ replication: "
          f"{replication.consolidate_beats_spread} "
          f"(saving {replication.consolidate_vs_spread_saving:.1%})")
    print(f"re-replicated / restored / conserved   : "
          f"{replication.re_replicated} / {replication.restored} / "
          f"{replication.conserved}")

    record = (
        json.loads(args.out.read_text()) if args.out.exists() else {}
    )
    record.update(comparison.to_dict())
    record["cluster_scaling"] = cluster.to_dict()
    record["cluster_scaling"].update({
        "sched_speedup": sched.sched_speedup,
        "sched_end_to_end_speedup": sched.end_to_end_speedup,
        "sched_nodes": sched.nodes,
        "sched_arrivals": sched.arrivals,
        "sched_legacy_wall_s": sched.legacy_schedule_wall_s,
        "sched_vectorized_wall_s": sched.vectorized_schedule_wall_s,
        "sched_legacy_spread_s": sched.legacy_schedule_spread_s,
        "sched_vectorized_spread_s": sched.vectorized_schedule_spread_s,
        "sched_fast_repeats": sched.fast_repeats,
        "sched_slow_repeats": sched.slow_repeats,
        "sched_max_rel_diff": sched.max_rel_diff,
        "sched_run_id": sched.run_id,
        "tier_nodes": tier.nodes,
        "tier_arrivals": tier.arrivals,
        "tier_schedule_wall_s": tier.schedule_wall_s,
        "tier_playback_wall_s": tier.playback_wall_s,
        "tier_total_wall_s": tier.total_wall_s,
        "tier_run_id": tier.run_id,
    })
    record["diurnal"] = diurnal.to_dict()
    record["qed"] = qed.to_dict()
    record["faults"] = faults.to_dict()
    record["replication"] = replication.to_dict()
    args.out.write_text(json.dumps(record, indent=2))
    append_history(args.out, record)
    print(f"wrote {args.out}")

    ok = (
        comparison.speedup_cold >= 5.0
        and comparison.max_rel_diff_cold <= 1e-9
        and cluster.speedup >= 5.0
        and cluster.max_rel_diff <= 1e-9
        and sched.sched_speedup >= 5.0
        and sched.max_rel_diff <= 1e-9
        and sched.dispatch_match
        and diurnal.hetero_speedup >= 5.0
        and diurnal.hetero_max_rel_diff <= 1e-9
        and diurnal.dynamic_beats_spread
        and qed.master_beats_node
        and qed.node_beats_off
        and faults.consolidate_beats_spread
        and faults.conserved
        and faults.faults_active
        and replication.consolidate_beats_spread
        and replication.conserved
        and replication.re_replicated
        and replication.restored
    )
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
