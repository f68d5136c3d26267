"""Perf: fleet-scale production playback vs the per-query replay loop,
and the vectorized event core vs the per-arrival scheduling loop.

A 16-node x 10k-arrival simulation resolves every arrival to a cached
execution and bills each node's execution rows against measurements
pre-costed once per (hardware profile, PVC setting) pair.  The naive
alternative -- one ``run_compiled`` call per scheduled piece, ~10k+
Python-level playback calls -- must be >= 5x slower on the playback
phase while producing cluster energy totals identical to <= 1e-9
relative.  Every timed side is a median over repeats.  The scheduler
gate is the same shape one layer up: chunked closed-form FIFO
sequencing over a 100-node fleet must beat the per-arrival event loop
>= 5x at 100k arrivals with per-node energies identical to <= 1e-9
relative, and the vectorized-only tier must push 1M arrivals x 100
nodes through schedule + playback in seconds.  Results land in
``BENCH_perf.json`` under ``cluster_scaling`` (the artifact writer
merges each test's keys into the shared record).

Smoke configuration: ``REPRO_BENCH_CLUSTER_NODES`` /
``REPRO_BENCH_CLUSTER_ARRIVALS`` shrink the playback scenario,
``REPRO_BENCH_SCALING_NODES`` / ``REPRO_BENCH_SCALING_ARRIVALS`` /
``REPRO_BENCH_SCALING_COMPARE_ARRIVALS`` the scheduler scenarios;
``REPRO_TRACE_CACHE`` points at a directory to persist compiled traces
across benchmark processes.
"""

from repro.cluster import RoundRobinRouter
from repro.measurement.perf import (
    cluster_scaling_scenario,
    compare_cluster_playback,
    compare_cluster_scheduling,
    scheduler_compare_arrivals,
    scheduler_scaling_scenario,
    time_vectorized_tier,
)
from repro.measurement.report import ComparisonTable

#: Gates from the PR acceptance criteria.
MIN_SPEEDUP = 5.0
MAX_REL_DIFF = 1e-9
#: "Seconds, not minutes" for the full 1M x 100 tier; generous enough
#: to absorb a loaded CI machine without letting a regression to the
#: per-arrival loop (minutes) through.
MAX_TIER_WALL_S = 120.0


def run_cluster_comparison(runner, scale_factor, trace_cache):
    specs, router, stream = cluster_scaling_scenario()
    return compare_cluster_playback(
        runner.db, specs, router, stream,
        scale_factor=scale_factor, trace_cache=trace_cache,
    )


def test_cluster_batched_playback_speedup(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    comparison = benchmark.pedantic(
        run_cluster_comparison,
        args=(lineitem_runner, bench_sf, bench_trace_cache),
        rounds=1, iterations=1,
    )

    table = ComparisonTable(
        f"Cluster playback: {comparison.nodes} nodes x "
        f"{comparison.arrivals} arrivals"
    )
    table.add("schedule phase (s)", None, comparison.schedule_wall_s,
              unit="s")
    table.add("production playback (s)", None, comparison.batched_wall_s,
              unit="s")
    table.add("per-query loop (s)", None, comparison.loop_wall_s,
              unit="s")
    table.add("playback speedup", None, comparison.speedup)
    table.add("end-to-end speedup", None, comparison.end_to_end_speedup)
    table.add("execution rows", None,
              float(comparison.scheduled_pieces))
    table.add("cluster energy (J)", None,
              comparison.batched_wall_joules, unit="J")
    table.add("tracing overhead", None, comparison.tracing_overhead)
    table.print()
    print(f"run id: {comparison.run_id}")

    bench_artifact({"cluster_scaling": comparison.to_dict()})

    # Identical energy, to float-summation order.
    assert comparison.max_rel_diff <= MAX_REL_DIFF
    total_rel = abs(
        comparison.batched_wall_joules - comparison.loop_wall_joules
    ) / comparison.batched_wall_joules
    assert total_rel <= MAX_REL_DIFF
    # Span tracing must observe, never perturb: the traced schedule's
    # playback energies match the untraced run to the same bound.
    assert comparison.traced_max_rel_diff <= MAX_REL_DIFF
    assert comparison.traced_spans > 0
    # The acceptance gate: batched playback >= 5x over the replay loop.
    assert comparison.speedup >= MIN_SPEEDUP


def run_scheduler_comparison(runner, scale_factor, trace_cache):
    specs, _router, stream = scheduler_scaling_scenario(
        count=scheduler_compare_arrivals()
    )
    return compare_cluster_scheduling(
        runner.db, specs, RoundRobinRouter, stream,
        scale_factor=scale_factor, trace_cache=trace_cache,
    )


def test_vectorized_scheduler_speedup(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    comparison = benchmark.pedantic(
        run_scheduler_comparison,
        args=(lineitem_runner, bench_sf, bench_trace_cache),
        rounds=1, iterations=1,
    )

    table = ComparisonTable(
        f"Event core: {comparison.nodes} nodes x "
        f"{comparison.arrivals} arrivals"
    )
    table.add("legacy schedule (s)", None,
              comparison.legacy_schedule_wall_s, unit="s")
    table.add("vectorized schedule (s)", None,
              comparison.vectorized_schedule_wall_s, unit="s")
    table.add("scheduler speedup", None, comparison.sched_speedup)
    table.add("end-to-end speedup", None, comparison.end_to_end_speedup)
    table.add("cluster energy (J)", None,
              comparison.vectorized_wall_joules, unit="J")
    table.print()
    print(f"run id: {comparison.run_id}")

    bench_artifact({"cluster_scaling": {
        "sched_speedup": comparison.sched_speedup,
        "sched_end_to_end_speedup": comparison.end_to_end_speedup,
        "sched_nodes": comparison.nodes,
        "sched_arrivals": comparison.arrivals,
        "sched_legacy_wall_s": comparison.legacy_schedule_wall_s,
        "sched_vectorized_wall_s": comparison.vectorized_schedule_wall_s,
        "sched_legacy_spread_s": comparison.legacy_schedule_spread_s,
        "sched_vectorized_spread_s": comparison.vectorized_schedule_spread_s,
        "sched_fast_repeats": comparison.fast_repeats,
        "sched_slow_repeats": comparison.slow_repeats,
        "sched_max_rel_diff": comparison.max_rel_diff,
        "sched_run_id": comparison.run_id,
        "scale_factor": comparison.scale_factor,
    }})

    # Same dispatch, same energy: per-node totals identical to
    # float-summation order and query counts exactly equal.
    assert comparison.dispatch_match
    assert comparison.max_rel_diff <= MAX_REL_DIFF
    # The acceptance gate: the chunked event core >= 5x over the
    # per-arrival loop on the scheduling phase.
    assert comparison.sched_speedup >= MIN_SPEEDUP


def test_million_arrival_tier(
    benchmark, lineitem_runner, bench_sf, bench_trace_cache,
    bench_artifact,
):
    specs, router, stream = scheduler_scaling_scenario()
    tier = benchmark.pedantic(
        time_vectorized_tier,
        args=(lineitem_runner.db, specs, router, stream),
        kwargs={"scale_factor": bench_sf,
                "trace_cache": bench_trace_cache},
        rounds=1, iterations=1,
    )

    table = ComparisonTable(
        f"Vectorized tier: {tier.nodes} nodes x {tier.arrivals} arrivals"
    )
    table.add("schedule phase (s)", None, tier.schedule_wall_s, unit="s")
    table.add("playback phase (s)", None, tier.playback_wall_s, unit="s")
    table.add("total (s)", None, tier.total_wall_s, unit="s")
    table.add("cluster energy (J)", None, tier.wall_joules, unit="J")
    table.print()
    print(f"run id: {tier.run_id}")

    bench_artifact({"cluster_scaling": {
        "tier_nodes": tier.nodes,
        "tier_arrivals": tier.arrivals,
        "tier_schedule_wall_s": tier.schedule_wall_s,
        "tier_playback_wall_s": tier.playback_wall_s,
        "tier_total_wall_s": tier.total_wall_s,
        "tier_run_id": tier.run_id,
    }})

    assert tier.served == tier.arrivals
    assert tier.total_wall_s <= MAX_TIER_WALL_S
