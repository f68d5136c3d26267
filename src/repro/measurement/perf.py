"""Perf harness: execute-once/replay-many versus naive re-execution.

Times the same PVC sweep four ways on one database/machine pair:

* ``naive`` -- the full paper protocol with no caching anywhere:
  every operating point and every protocol repeat re-parses, re-plans,
  and re-executes the whole workload (``PvcSweep(replay=False)`` with
  per-repeat rerun; the "35x more expensive than necessary" pipeline).
  The database's plan cache is disabled while the naive baselines run,
  so they genuinely pay parse+plan per execution like the pre-PR code.
* ``naive_reuse`` -- the historical pre-refactor pipeline: one
  execution per operating point, readings reused across protocol
  repeats (``replay=False, rerun_repeats=False``), plan cache off.
* ``replay_cold`` -- the execute-once/replay-many pipeline starting
  from an empty execution cache: each distinct query executes once,
  then every point/repeat replays its compiled trace.
* ``replay_cached`` -- the same sweep again on the now-warm cache:
  zero database executions, pure vectorized playback.

The resulting :class:`PerfComparison` carries wall-clock numbers, the
speedups, and the maximum relative deviation of the replayed
:class:`~repro.core.metrics.OperatingPoint` values from the naive
curve -- which must be ~1e-15-ish noise, never a real difference.
``benchmarks/bench_perf_pipeline.py`` asserts on it and
``scripts/perf_report.py`` serializes it to ``BENCH_perf.json``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field

from repro.core.pvc.sweep import PvcSweep
from repro.core.tradeoff import TradeoffCurve
from repro.db.engine import Database
from repro.hardware.profiles import pvc_settings_grid
from repro.hardware.system import SystemUnderTest
from repro.measurement.protocol import MeasurementProtocol
from repro.workloads.runner import TraceCache, WorkloadRunner


@dataclass
class SweepTiming:
    """One timed sweep: wall time plus the curve it produced."""

    label: str
    wall_s: float
    db_executions: int
    points: list[dict] = field(default_factory=list)


@dataclass
class PerfComparison:
    """Naive vs replay timings for one sweep configuration."""

    scale_factor: float | None
    engine: str
    num_settings: int
    repeats: int
    num_queries: int
    naive: SweepTiming
    naive_reuse: SweepTiming
    replay_cold: SweepTiming
    replay_cached: SweepTiming
    max_rel_diff_reuse: float
    max_rel_diff_cold: float
    max_rel_diff_cached: float

    @property
    def speedup_cold(self) -> float:
        return self.naive.wall_s / self.replay_cold.wall_s

    @property
    def speedup_cached(self) -> float:
        return self.naive.wall_s / self.replay_cached.wall_s

    @property
    def speedup_vs_prerefactor(self) -> float:
        """Cold-cache replay vs the historical execute-per-point path."""
        return self.naive_reuse.wall_s / self.replay_cold.wall_s

    def to_dict(self) -> dict:
        out = asdict(self)
        out["speedup_cold"] = self.speedup_cold
        out["speedup_cached"] = self.speedup_cached
        out["speedup_vs_prerefactor"] = self.speedup_vs_prerefactor
        return out


def _curve_points(curve: TradeoffCurve) -> list[dict]:
    return [
        {"label": p.label, "time_s": p.time_s, "energy_j": p.energy_j}
        for p in curve.all_points
    ]


def _max_rel_diff(reference: list[dict], other: list[dict]) -> float:
    worst = 0.0
    for a, b in zip(reference, other):
        for key in ("time_s", "energy_j"):
            denom = abs(a[key]) or 1.0
            worst = max(worst, abs(a[key] - b[key]) / denom)
    return worst


def compare_sweep_paths(
    db: Database,
    sut: SystemUnderTest,
    queries: list[str],
    repeats: int = 5,
    settings=None,
    scale_factor: float | None = None,
) -> PerfComparison:
    """Time the naive and replay sweep pipelines on identical inputs."""
    grid = (
        settings if settings is not None
        else pvc_settings_grid(include_stock=False)
    )

    def protocol() -> MeasurementProtocol:
        # Noise-free so the two paths are comparable value-for-value.
        return MeasurementProtocol(
            runs=repeats, drop_extremes=min(1, repeats // 3),
            noise_sigma=0.0,
        )

    def timed(label: str, sweep: PvcSweep) -> SweepTiming:
        before = db.executions
        start = time.perf_counter()
        curve = sweep.run(grid)
        wall = time.perf_counter() - start
        return SweepTiming(
            label=label, wall_s=wall,
            db_executions=db.executions - before,
            points=_curve_points(curve),
        )

    # The naive baselines model the pre-plan-cache pipeline: pay
    # parse+plan on every execution.
    naive_runner = WorkloadRunner(db, sut)
    db.plan_cache_enabled = False
    try:
        naive = timed(
            "naive",
            PvcSweep(naive_runner, queries, protocol=protocol(),
                     replay=False),
        )
        reuse = timed(
            "naive_reuse",
            PvcSweep(naive_runner, queries, protocol=protocol(),
                     replay=False, rerun_repeats=False),
        )
    finally:
        db.plan_cache_enabled = True

    replay_runner = WorkloadRunner(db, sut)
    cold = timed(
        "replay_cold",
        PvcSweep(replay_runner, queries, protocol=protocol(), replay=True),
    )
    cached = timed(
        "replay_cached",
        PvcSweep(replay_runner, queries, protocol=protocol(), replay=True),
    )

    return PerfComparison(
        scale_factor=scale_factor,
        engine=db.profile.name,
        num_settings=len(grid) + 1,  # grid plus the stock baseline
        repeats=repeats,
        num_queries=len(queries),
        naive=naive,
        naive_reuse=reuse,
        replay_cold=cold,
        replay_cached=cached,
        max_rel_diff_reuse=_max_rel_diff(naive.points, reuse.points),
        max_rel_diff_cold=_max_rel_diff(naive.points, cold.points),
        max_rel_diff_cached=_max_rel_diff(naive.points, cached.points),
    )


# -- cluster playback: batched stack vs per-query replay loop -------------

#: Canonical cluster-scaling scenario, shared by
#: ``benchmarks/bench_cluster_scaling.py`` and ``scripts/perf_report.py``
#: so both write comparable ``cluster_scaling`` records.
CLUSTER_DISTINCT = 50
CLUSTER_MEAN_INTERARRIVAL_S = 0.01
CLUSTER_ARRIVAL_SEED = 7


def cluster_scaling_scenario() -> tuple[list, object, list]:
    """(specs, router, arrivals) for the canonical scaling comparison.

    16 nodes x 10k arrivals by default; ``REPRO_BENCH_CLUSTER_NODES`` /
    ``REPRO_BENCH_CLUSTER_ARRIVALS`` shrink it for CI smoke runs.
    """
    import os

    from repro.cluster import RoundRobinRouter, uniform_fleet
    from repro.workloads.arrivals import poisson_arrivals
    from repro.workloads.selection import selection_workload

    nodes = int(os.environ.get("REPRO_BENCH_CLUSTER_NODES", "16"))
    count = int(os.environ.get("REPRO_BENCH_CLUSTER_ARRIVALS", "10000"))
    queries = selection_workload(CLUSTER_DISTINCT).queries
    stream = poisson_arrivals(
        [queries[i % CLUSTER_DISTINCT] for i in range(count)],
        CLUSTER_MEAN_INTERARRIVAL_S, seed=CLUSTER_ARRIVAL_SEED,
    )
    return uniform_fleet(nodes), RoundRobinRouter(), stream


#: Timed repeats per side of the cluster comparisons: every side records
#: its median wall time and its spread (max - min).  Sub-second sides
#: take five; the per-arrival and per-piece oracles, seconds each at
#: full size, take three.
FAST_REPEATS = 5
SLOW_REPEATS = 3


def _median_wall(run, repeats: int):
    """``(last result, median s, spread s)`` over ``repeats`` calls."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - start)
    return result, statistics.median(walls), max(walls) - min(walls)


@dataclass
class ClusterPerfComparison:
    """Production playback vs the per-query replay loop.

    Both paths play the *same* loop schedule, so the comparison
    isolates playback: counts-times-measurement dot products over the
    schedule's columnar rows versus one ``run_compiled`` call per
    scheduled piece (the pieces are derived before the timed region).
    ``scheduled_pieces`` counts the schedule's execution rows.
    ``max_rel_diff`` is the worst per-node relative deviation in wall
    energy, CPU energy, and duration -- float-summation noise, never a
    real difference.  Every ``*_wall_s`` is a median over repeats with
    its ``*_spread_s`` beside it.
    """

    nodes: int
    arrivals: int
    scale_factor: float | None
    distinct_queries: int
    scheduled_pieces: int
    schedule_wall_s: float
    batched_wall_s: float
    loop_wall_s: float
    batched_wall_joules: float
    loop_wall_joules: float
    max_rel_diff: float
    #: Config fingerprint hash of the scheduled run (bench history
    #: entries become attributable to their exact configuration).
    run_id: str | None = None
    #: The same schedule with a SpanTracer attached.
    traced_schedule_wall_s: float = 0.0
    traced_spans: int = 0
    #: Worst per-node playback deviation of the traced run vs the
    #: untraced batched run -- tracing must never perturb energies.
    traced_max_rel_diff: float = 0.0
    schedule_spread_s: float = 0.0
    batched_spread_s: float = 0.0
    loop_spread_s: float = 0.0
    traced_schedule_spread_s: float = 0.0
    fast_repeats: int = FAST_REPEATS
    slow_repeats: int = SLOW_REPEATS

    @property
    def speedup(self) -> float:
        """Playback-phase speedup of production playback over the loop."""
        return self.loop_wall_s / self.batched_wall_s

    @property
    def end_to_end_speedup(self) -> float:
        """Schedule + playback, both paths paying the same event loop."""
        return (
            (self.schedule_wall_s + self.loop_wall_s)
            / (self.schedule_wall_s + self.batched_wall_s)
        )

    @property
    def tracing_overhead(self) -> float:
        """Schedule-phase slowdown with tracing *enabled*, against the
        untraced median (the disabled path is gated separately by the
        ``cluster_scaling`` bench trend)."""
        if self.schedule_wall_s <= 0:
            return 0.0
        return self.traced_schedule_wall_s / self.schedule_wall_s - 1.0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["speedup"] = self.speedup
        out["end_to_end_speedup"] = self.end_to_end_speedup
        out["tracing_overhead"] = self.tracing_overhead
        return out


def _worst_rel_diff(a, b) -> float:
    """Worst per-node relative deviation in wall energy, CPU energy and
    duration between two measurements of the same fleet."""
    worst = 0.0
    for x_node, y_node in zip(a.nodes, b.nodes):
        for key in ("wall_joules", "cpu_joules", "duration_s"):
            x = getattr(x_node.playback, key)
            y = getattr(y_node.playback, key)
            worst = max(worst, abs(x - y) / (abs(x) or 1.0))
    return worst


def compare_cluster_playback(
    db: Database,
    specs,
    router,
    arrivals,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
) -> ClusterPerfComparison:
    """Time production vs per-query-loop playback of one loop schedule."""
    from repro.cluster.simulator import ClusterSimulator
    from repro.obs import NULL_TRACER, SpanTracer

    sim = ClusterSimulator(db, specs, router, trace_cache=trace_cache)
    # The loop oracle replays per-piece timelines, which only the
    # per-arrival scheduler records; pin it explicitly.
    schedule, schedule_wall, schedule_spread = _median_wall(
        lambda: sim.schedule(arrivals, vectorized=False), FAST_REPEATS
    )
    schedule.pieces_by_node  # derive the oracle's pieces untimed
    batched, batched_wall, batched_spread = _median_wall(
        lambda: sim.playback(schedule), FAST_REPEATS
    )
    loop, loop_wall, loop_spread = _median_wall(
        lambda: sim.playback(schedule, mode="loop"), SLOW_REPEATS
    )

    # Tracing pass on the same (warm) simulator: schedule with spans
    # on and check playback is unperturbed.
    tracer = SpanTracer()
    sim.tracer = tracer
    traced_schedule, traced_wall, traced_spread = _median_wall(
        lambda: sim.schedule(arrivals, vectorized=False), FAST_REPEATS
    )
    sim.tracer = NULL_TRACER
    traced = sim.playback(traced_schedule)

    return ClusterPerfComparison(
        nodes=len(specs),
        arrivals=len(arrivals),
        scale_factor=scale_factor,
        distinct_queries=len({a.sql for a in arrivals}),
        scheduled_pieces=len(schedule.rows),
        schedule_wall_s=schedule_wall,
        batched_wall_s=batched_wall,
        loop_wall_s=loop_wall,
        batched_wall_joules=batched.wall_joules,
        loop_wall_joules=loop.wall_joules,
        max_rel_diff=_worst_rel_diff(batched, loop),
        run_id=schedule.run_id,
        traced_schedule_wall_s=traced_wall,
        traced_spans=len(tracer.spans),
        traced_max_rel_diff=_worst_rel_diff(batched, traced),
        schedule_spread_s=schedule_spread,
        batched_spread_s=batched_spread,
        loop_spread_s=loop_spread,
        traced_schedule_spread_s=traced_spread,
    )


# -- cluster scheduling: vectorized event core vs per-arrival loop --------

#: Canonical scheduler-scaling scenario: a 100-node fleet under a
#: million-arrival stream.  ``REPRO_BENCH_SCALING_NODES`` /
#: ``REPRO_BENCH_SCALING_ARRIVALS`` shrink the vectorized-only tier and
#: ``REPRO_BENCH_SCALING_COMPARE_ARRIVALS`` the paired comparison (the
#: legacy loop at the full million would dominate CI wall time).
SCALING_SCHED_NODES = 100
SCALING_SCHED_ARRIVALS = 1_000_000
SCALING_COMPARE_ARRIVALS = 100_000


def scheduler_scaling_scenario(
    count: int | None = None, nodes: int | None = None,
) -> tuple[list, object, list]:
    """(specs, router, arrivals) for the scheduler-scaling comparison.

    Round-robin routing: its chunked fast path is pure array math, so
    the comparison isolates the event core (the legacy per-arrival loop
    versus closed-form FIFO sequencing), not router bookkeeping.
    """
    import os

    from repro.cluster import RoundRobinRouter, uniform_fleet
    from repro.workloads.arrivals import poisson_arrivals
    from repro.workloads.selection import selection_workload

    if nodes is None:
        nodes = int(os.environ.get(
            "REPRO_BENCH_SCALING_NODES", str(SCALING_SCHED_NODES)
        ))
    if count is None:
        count = int(os.environ.get(
            "REPRO_BENCH_SCALING_ARRIVALS", str(SCALING_SCHED_ARRIVALS)
        ))
    queries = selection_workload(CLUSTER_DISTINCT).queries
    stream = poisson_arrivals(
        [queries[i % CLUSTER_DISTINCT] for i in range(count)],
        CLUSTER_MEAN_INTERARRIVAL_S, seed=CLUSTER_ARRIVAL_SEED,
    )
    return uniform_fleet(nodes), RoundRobinRouter(), stream


def scheduler_compare_arrivals() -> int:
    """Arrival count for the timed legacy-vs-vectorized pairing."""
    import os

    return int(os.environ.get(
        "REPRO_BENCH_SCALING_COMPARE_ARRIVALS",
        str(SCALING_COMPARE_ARRIVALS),
    ))


@dataclass
class SchedulingComparison:
    """Vectorized chunked scheduling vs the per-arrival event loop.

    Both paths schedule and play the *same* arrival stream on
    identically-configured fleets; ``max_rel_diff`` is the worst
    per-node relative deviation in wall energy, CPU energy, and busy
    duration between the two playbacks -- float-summation noise, never
    a real difference (dispatch counts must match exactly).  Every
    ``*_wall_s`` is a median over repeats with its ``*_spread_s``
    beside it.
    """

    nodes: int
    arrivals: int
    scale_factor: float | None
    distinct_queries: int
    legacy_schedule_wall_s: float
    vectorized_schedule_wall_s: float
    legacy_playback_wall_s: float
    vectorized_playback_wall_s: float
    legacy_wall_joules: float
    vectorized_wall_joules: float
    max_rel_diff: float
    dispatch_match: bool
    run_id: str | None = None
    legacy_schedule_spread_s: float = 0.0
    vectorized_schedule_spread_s: float = 0.0
    legacy_playback_spread_s: float = 0.0
    vectorized_playback_spread_s: float = 0.0
    fast_repeats: int = FAST_REPEATS
    slow_repeats: int = SLOW_REPEATS

    @property
    def sched_speedup(self) -> float:
        """Schedule-phase speedup of the chunked event core."""
        return (
            self.legacy_schedule_wall_s
            / self.vectorized_schedule_wall_s
        )

    @property
    def end_to_end_speedup(self) -> float:
        """Schedule + playback, each path on its own schedule."""
        return (
            (self.legacy_schedule_wall_s + self.legacy_playback_wall_s)
            / (self.vectorized_schedule_wall_s
               + self.vectorized_playback_wall_s)
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["sched_speedup"] = self.sched_speedup
        out["end_to_end_speedup"] = self.end_to_end_speedup
        return out


def compare_cluster_scheduling(
    db: Database,
    specs,
    router_factory,
    arrivals,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
) -> SchedulingComparison:
    """Time the vectorized and legacy schedulers on identical inputs.

    ``router_factory`` builds a fresh router per run (routers carry
    rotation/busy state; ``schedule`` re-prepares the fleet, so one
    simulator serves both paths).  A warm-up schedule runs first: it
    fills the runner's execution cache, the database plan cache, and
    any trace cache, so the timed runs compare event cores warm-vs-warm
    instead of measuring execute-once costing twice.
    """
    from repro.cluster.simulator import ClusterSimulator

    sim = ClusterSimulator(
        db, specs, router_factory(), trace_cache=trace_cache
    )
    sim.schedule(arrivals, vectorized=True)  # warm-up

    def schedule(vectorized: bool):
        sim.router = router_factory()
        return sim.schedule(arrivals, vectorized=vectorized)

    legacy_schedule, legacy_schedule_wall, legacy_schedule_spread = (
        _median_wall(lambda: schedule(False), SLOW_REPEATS)
    )
    legacy, legacy_playback_wall, legacy_playback_spread = _median_wall(
        lambda: sim.playback(legacy_schedule), FAST_REPEATS
    )
    vec_schedule, vec_schedule_wall, vec_schedule_spread = _median_wall(
        lambda: schedule(True), FAST_REPEATS
    )
    vectorized, vec_playback_wall, vec_playback_spread = _median_wall(
        lambda: sim.playback(vec_schedule), FAST_REPEATS
    )

    dispatch_match = vectorized.served == legacy.served and all(
        a.queries == b.queries
        for a, b in zip(vectorized.nodes, legacy.nodes)
    )
    return SchedulingComparison(
        nodes=len(specs),
        arrivals=len(arrivals),
        scale_factor=scale_factor,
        distinct_queries=len({a.sql for a in arrivals}),
        legacy_schedule_wall_s=legacy_schedule_wall,
        vectorized_schedule_wall_s=vec_schedule_wall,
        legacy_playback_wall_s=legacy_playback_wall,
        vectorized_playback_wall_s=vec_playback_wall,
        legacy_wall_joules=legacy.wall_joules,
        vectorized_wall_joules=vectorized.wall_joules,
        max_rel_diff=_worst_rel_diff(vectorized, legacy),
        dispatch_match=dispatch_match,
        run_id=vec_schedule.run_id,
        legacy_schedule_spread_s=legacy_schedule_spread,
        vectorized_schedule_spread_s=vec_schedule_spread,
        legacy_playback_spread_s=legacy_playback_spread,
        vectorized_playback_spread_s=vec_playback_spread,
    )


@dataclass
class VectorizedTier:
    """The vectorized-only scaling tier: the event core at full size.

    No legacy pairing (the per-arrival loop at a million arrivals is
    minutes, not seconds); correctness rides on the
    :class:`SchedulingComparison` gate at the comparison size.
    """

    nodes: int
    arrivals: int
    scale_factor: float | None
    schedule_wall_s: float
    playback_wall_s: float
    wall_joules: float
    served: int
    run_id: str | None = None

    @property
    def total_wall_s(self) -> float:
        return self.schedule_wall_s + self.playback_wall_s

    def to_dict(self) -> dict:
        out = asdict(self)
        out["total_wall_s"] = self.total_wall_s
        return out


def time_vectorized_tier(
    db: Database,
    specs,
    router,
    arrivals,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
) -> VectorizedTier:
    """Schedule and play one stream through the vectorized core only."""
    from repro.cluster.simulator import ClusterSimulator

    sim = ClusterSimulator(db, specs, router, trace_cache=trace_cache)
    start = time.perf_counter()
    schedule = sim.schedule(arrivals, vectorized=True)
    schedule_wall = time.perf_counter() - start
    start = time.perf_counter()
    measurement = sim.playback(schedule)
    playback_wall = time.perf_counter() - start
    return VectorizedTier(
        nodes=len(specs),
        arrivals=len(arrivals),
        scale_factor=scale_factor,
        schedule_wall_s=schedule_wall,
        playback_wall_s=playback_wall,
        wall_joules=measurement.wall_joules,
        served=measurement.served,
        run_id=schedule.run_id,
    )


# -- diurnal ablation: static vs dynamic policies on a hetero fleet -------

#: Canonical diurnal scenario, shared by
#: ``benchmarks/bench_ablation_diurnal.py`` and ``scripts/perf_report.py``
#: so both write comparable ``diurnal`` records.  The compressed "day"
#: swings a nonhomogeneous Poisson stream between a nighttime trough
#: and a midday crest over a fleet mixing full-power and eco nodes.
#: Rates are calibrated at the reference scale factor; service times
#: grow ~linearly with SF, so :func:`diurnal_scenario` rescales the
#: rate curve by ``REFERENCE_SF / sf`` to keep the *offered load*
#: (Erlangs) -- and therefore the policy comparison -- scale-invariant.
DIURNAL_REFERENCE_SF = 0.01
DIURNAL_BASE_RATE = 1.0
DIURNAL_PEAK_RATE = 14.0
DIURNAL_PERIOD_S = 120.0
DIURNAL_SEED = 7
DIURNAL_DISTINCT = 20
DIURNAL_SLA_S = 0.5
#: Equal SLA-miss budget for every policy: 1% of served arrivals.
DIURNAL_SLA_BUDGET = 0.01


def diurnal_scenario(sf: float | None = None):
    """(specs, schedule, stream) for the canonical diurnal comparison.

    Two compressed day/night cycles by default;
    ``REPRO_BENCH_DIURNAL_HORIZON`` shrinks the horizon for CI smoke
    runs (one cycle minimum keeps both a trough and a crest in play).
    ``sf`` rescales the rate curve so the offered load matches the
    reference calibration at any scale factor.
    """
    import os

    from repro.cluster import NodeGroup, hetero_fleet
    from repro.hardware.cpu import PvcSetting, VoltageDowngrade
    from repro.workloads.arrivals import (
        diurnal_schedule,
        rate_schedule_arrivals,
    )
    from repro.workloads.selection import selection_workload

    horizon = float(os.environ.get("REPRO_BENCH_DIURNAL_HORIZON", "240"))
    rate_scale = DIURNAL_REFERENCE_SF / sf if sf else 1.0
    specs = hetero_fleet([
        NodeGroup(2, prefix="big", hw="paper", wake_latency_s=4.0),
        NodeGroup(2, prefix="eco", hw="paper-nogpu",
                  setting=PvcSetting(10, VoltageDowngrade.MEDIUM),
                  capacity=0.8, sleep_wall_w=2.5, wake_latency_s=6.0),
    ])
    schedule = diurnal_schedule(
        DIURNAL_BASE_RATE * rate_scale, DIURNAL_PEAK_RATE * rate_scale,
        DIURNAL_PERIOD_S, horizon,
    )
    stream = rate_schedule_arrivals(
        selection_workload(DIURNAL_DISTINCT).queries, schedule,
        seed=DIURNAL_SEED,
    )
    return specs, schedule, stream


def diurnal_policies(schedule, sla_s: float = DIURNAL_SLA_S):
    """The ablation's four routing policies, named.

    ``sla_s`` is the (scale-adjusted) response-time target; the
    consolidate/dynamic backlog caps and the adaptive deadline all
    derive from it so the policies face the same goal posts at any
    scale factor.
    """
    from repro.cluster import (
        AdaptivePvcRouter,
        ConsolidateRouter,
        DynamicConsolidateRouter,
        RoundRobinRouter,
    )

    backlog = sla_s
    return [
        ("spread", RoundRobinRouter()),
        ("consolidate", ConsolidateRouter(max_backlog_s=backlog)),
        ("dynamic", DynamicConsolidateRouter(
            max_backlog_s=backlog, target_utilization=0.5,
            schedule=schedule,
        )),
        ("adaptive_pvc", AdaptivePvcRouter(deadline_s=sla_s)),
    ]


def _phase_of(rate: float, trough: float, crest: float) -> str:
    """Classify a window's scheduled rate into low / mid / peak,
    relative to the schedule's own trough/crest (the curve is rescaled
    per scale factor, so absolute thresholds would misclassify)."""
    span = crest - trough
    if rate < trough + span / 3.0:
        return "low"
    if rate > trough + 2.0 * span / 3.0:
        return "peak"
    return "mid"


@dataclass
class DiurnalAblation:
    """Static vs dynamic fleet policies under the diurnal profile.

    ``policies`` maps policy name to its aggregate metrics;
    ``phase_energy`` slices each policy's *modeled* energy into the
    schedule's low/mid/peak phases (``window_s`` windows, 20 s by
    default, classified by the scheduled rate at their midpoint).  ``hetero_*`` record the
    production-vs-loop playback comparison on the dynamic schedule --
    proving heterogeneous-fleet playback keeps both its exactness and
    its speedup.
    """

    arrivals: int
    horizon_s: float
    scale_factor: float | None
    sla_s: float
    sla_budget: float
    policies: dict
    phase_energy: dict
    hetero_batched_wall_s: float
    hetero_loop_wall_s: float
    hetero_max_rel_diff: float

    @property
    def hetero_speedup(self) -> float:
        return self.hetero_loop_wall_s / self.hetero_batched_wall_s

    @property
    def dynamic_beats_spread(self) -> bool:
        """The acceptance gate: dynamic re-consolidation wins on energy
        while both policies hold the same SLA-miss budget."""
        spread = self.policies["spread"]
        dynamic = self.policies["dynamic"]
        budget = self.sla_budget * self.arrivals
        return (
            dynamic["wall_joules"] < spread["wall_joules"]
            and dynamic["sla_misses"] <= budget
            and spread["sla_misses"] <= budget
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["hetero_speedup"] = self.hetero_speedup
        out["dynamic_beats_spread"] = self.dynamic_beats_spread
        return out


# -- QED ablation: master queue vs per-node queues vs no queueing ---------

#: Canonical QED scenario, shared by ``benchmarks/bench_ablation_qed.py``
#: and ``scripts/perf_report.py`` so both write comparable ``qed``
#: records.  A Poisson stream mixes two mergeable selection templates
#: with an occasional non-mergeable (ORDER BY + LIMIT) shape -- the
#: master queue partitions them, per-node queues hit the mixed-batch
#: fallback, and the no-QED baseline serves every arrival alone.
#: Interarrival times and the SLA rescale with the scale factor the
#: same way the diurnal scenario's rates do, keeping the offered load
#: (and therefore the three-way comparison) scale-invariant.
QED_REFERENCE_SF = 0.01
QED_NODES = 4
QED_ARRIVALS = 600
QED_DISTINCT = 20
QED_MEAN_INTERARRIVAL_S = 0.02
QED_THRESHOLD = 16
QED_MAX_WAIT_S = 0.4
QED_SEED = 11
QED_SLA_S = 1.5
#: Equal SLA-miss budget for every mode: 1% of arrivals.
QED_SLA_BUDGET = 0.01
#: Every ALT-th arrival uses the second mergeable template, every
#: ODD-th the pass-through shape.  The mix keeps per-node batches
#: *mostly* clean (the fallback cost shows without erasing per-node
#: QED's win over no QED) while the master queue, which partitions,
#: never falls back at all.
QED_ALT_EVERY = 17
QED_ODD_EVERY = 67


def qed_alt_query(quantity: int) -> str:
    """Second mergeable template (different select list)."""
    return (f"SELECT l_orderkey, l_extendedprice FROM lineitem "
            f"WHERE l_quantity = {quantity}")


def qed_odd_query(quantity: int) -> str:
    """Non-mergeable shape: pass-through partition / node fallback."""
    return (f"SELECT l_orderkey FROM lineitem WHERE l_quantity = "
            f"{quantity} ORDER BY l_orderkey LIMIT 5")


def qed_ablation_stream(sf: float | None = None):
    """The canonical mixed-template arrival stream.

    ``REPRO_BENCH_QED_ARRIVALS`` shrinks it for CI smoke runs; ``sf``
    rescales interarrival times so the offered load matches the
    reference calibration at any scale factor.
    """
    import os

    from repro.workloads.arrivals import poisson_arrivals
    from repro.workloads.selection import selection_workload

    count = int(os.environ.get("REPRO_BENCH_QED_ARRIVALS",
                               str(QED_ARRIVALS)))
    scale = sf / QED_REFERENCE_SF if sf else 1.0
    base = selection_workload(QED_DISTINCT).queries
    queries = []
    for i in range(count):
        if i % QED_ODD_EVERY == QED_ODD_EVERY - 1:
            queries.append(qed_odd_query(
                QED_DISTINCT + 1 + i % 3
            ))
        elif i % QED_ALT_EVERY == QED_ALT_EVERY - 1:
            queries.append(qed_alt_query(
                QED_DISTINCT + 1 + i % 5
            ))
        else:
            queries.append(base[i % QED_DISTINCT])
    return poisson_arrivals(
        queries, QED_MEAN_INTERARRIVAL_S * scale, seed=QED_SEED
    )


@dataclass
class QedAblation:
    """Master-queue QED vs per-node QED vs no QED on one stream.

    The acceptance ordering is the paper's deployment claim: fleet-wide
    batching on the always-on master merges more queries per execution
    than per-node queues fed by a load balancer, which in turn beat
    serving every arrival alone -- all while holding the same SLA-miss
    budget.
    """

    arrivals: int
    nodes: int
    scale_factor: float | None
    sla_s: float
    sla_budget: float
    threshold: int
    max_wait_s: float
    modes: dict

    @property
    def _budget(self) -> float:
        return self.sla_budget * self.arrivals

    def _within_budget(self, name: str) -> bool:
        return self.modes[name]["sla_misses"] <= self._budget

    @property
    def master_beats_node(self) -> bool:
        return (
            self.modes["master"]["wall_joules"]
            < self.modes["node"]["wall_joules"]
            and self._within_budget("master")
            and self._within_budget("node")
        )

    @property
    def node_beats_off(self) -> bool:
        return (
            self.modes["node"]["wall_joules"]
            < self.modes["off"]["wall_joules"]
            and self._within_budget("node")
            and self._within_budget("off")
        )

    @property
    def master_vs_node_saving(self) -> float:
        return 1.0 - (
            self.modes["master"]["wall_joules"]
            / self.modes["node"]["wall_joules"]
        )

    @property
    def node_vs_off_saving(self) -> float:
        return 1.0 - (
            self.modes["node"]["wall_joules"]
            / self.modes["off"]["wall_joules"]
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["master_beats_node"] = self.master_beats_node
        out["node_beats_off"] = self.node_beats_off
        out["master_vs_node_saving"] = self.master_vs_node_saving
        out["node_vs_off_saving"] = self.node_vs_off_saving
        return out


def run_qed_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
) -> QedAblation:
    """Run the canonical mixed-template stream under all three modes."""
    from repro.cluster import (
        ClusterSimulator,
        LeastLoadedRouter,
        MasterQueue,
        RoundRobinRouter,
        uniform_fleet,
    )
    from repro.core.qed.policy import BatchPolicy

    stream = qed_ablation_stream(scale_factor)
    sla_s = QED_SLA_S * (
        scale_factor / QED_REFERENCE_SF if scale_factor else 1.0
    )
    max_wait = QED_MAX_WAIT_S * (
        scale_factor / QED_REFERENCE_SF if scale_factor else 1.0
    )
    policy = BatchPolicy(QED_THRESHOLD, max_wait_s=max_wait)

    def scenario(name: str):
        # The off/node baselines route round-robin -- the canonical
        # load balancer for queued workers, and *favorable* to node
        # mode: per-node queues hide backlog from completion-time
        # routing, so a least-loaded router funnels every arrival into
        # one node's queue (measured: big but almost-always-mixed
        # batches, worse than no QED at all).  Master mode's router is
        # idle (the placement policy picks nodes), so the gated gap
        # measures where the queue lives, not the router choice.
        if name == "off":
            return uniform_fleet(QED_NODES), RoundRobinRouter(), None
        if name == "node":
            return (
                uniform_fleet(QED_NODES, queue_policy=policy),
                RoundRobinRouter(), None,
            )
        return (
            uniform_fleet(QED_NODES), LeastLoadedRouter(),
            MasterQueue(policy),
        )

    modes: dict[str, dict] = {}
    for name in ("off", "node", "master"):
        specs, router, master_queue = scenario(name)
        sim = ClusterSimulator(db, specs, router,
                               trace_cache=trace_cache,
                               master_queue=master_queue)
        m = sim.run(stream)
        stats = {
            "run_id": m.run_id,
            "wall_joules": m.wall_joules,
            "edp": m.edp,
            "horizon_s": m.horizon_s,
            "served": m.served,
            "shed": len(m.shed),
            "sla_misses": m.sla_violations(sla_s),
            "p95_response_s": m.p95_response_s,
            "busy_s": sum(n.busy_s for n in m.nodes),
        }
        if m.qed is not None:
            stats.update({
                "qed_batches": m.qed.batches,
                "qed_mean_batch_size": m.qed.mean_batch_size,
                "qed_merged_windows": m.qed.merged_windows,
                "qed_singleton_windows": m.qed.singleton_windows,
                "qed_fallback_batches": m.qed.fallback_batches,
            })
        modes[name] = stats

    return QedAblation(
        arrivals=len(stream),
        nodes=QED_NODES,
        scale_factor=scale_factor,
        sla_s=sla_s,
        sla_budget=QED_SLA_BUDGET,
        threshold=QED_THRESHOLD,
        max_wait_s=max_wait,
        modes=modes,
    )


def run_diurnal_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
    window_s: float = 20.0,
) -> DiurnalAblation:
    """Run the canonical diurnal scenario under all four policies."""
    from repro.cluster.simulator import ClusterSimulator

    specs, schedule, stream = diurnal_scenario(scale_factor)
    # Service times grow ~linearly with SF; keep the SLA (and the
    # policies' derived knobs) constant in *service-time units*.
    sla_s = DIURNAL_SLA_S * (
        scale_factor / DIURNAL_REFERENCE_SF if scale_factor else 1.0
    )
    policies: dict[str, dict] = {}
    phase_energy: dict[str, dict[str, float]] = {}
    hetero = None
    for name, router in diurnal_policies(schedule, sla_s):
        sim = ClusterSimulator(db, specs, router,
                               trace_cache=trace_cache)
        scheduled = sim.schedule(stream)
        start = time.perf_counter()
        measurement = sim.playback(scheduled, mode="batched")
        batched_wall = time.perf_counter() - start
        policies[name] = {
            "run_id": measurement.run_id,
            "wall_joules": measurement.wall_joules,
            "edp": measurement.edp,
            "awake_node_s": measurement.awake_node_s,
            "re_sleeps": measurement.re_sleeps,
            "sla_misses": measurement.sla_violations(sla_s),
            "p95_response_s": measurement.p95_response_s,
            "served": measurement.served,
        }
        trough = schedule.rate_at(0.0)  # the sinusoid opens at its trough
        slices: dict[str, float] = {"low": 0.0, "mid": 0.0, "peak": 0.0}
        for window in measurement.window_report(window_s):
            mid = (window.start_s + window.end_s) / 2.0
            phase = _phase_of(schedule.rate_at(mid), trough,
                              schedule.peak_rate)
            slices[phase] += window.modeled_joules
        phase_energy[name] = slices
        if name == "dynamic":
            scheduled.pieces_by_node  # derive the oracle's pieces untimed
            start = time.perf_counter()
            loop = sim.playback(scheduled, mode="loop")
            loop_wall = time.perf_counter() - start
            worst = 0.0
            for a, b in zip(measurement.nodes, loop.nodes):
                for key in ("wall_joules", "cpu_joules", "duration_s"):
                    x = getattr(a.playback, key)
                    y = getattr(b.playback, key)
                    worst = max(worst, abs(x - y) / (abs(x) or 1.0))
            hetero = (batched_wall, loop_wall, worst)

    return DiurnalAblation(
        arrivals=len(stream),
        horizon_s=schedule.horizon_s,
        scale_factor=scale_factor,
        sla_s=sla_s,
        sla_budget=DIURNAL_SLA_BUDGET,
        policies=policies,
        phase_energy=phase_energy,
        hetero_batched_wall_s=hetero[0],
        hetero_loop_wall_s=hetero[1],
        hetero_max_rel_diff=hetero[2],
    )


# -- fault ablation: consolidate-with-recovery vs always-awake spread ------

#: Canonical fault-recovery scenario, shared by
#: ``benchmarks/bench_fault_recovery.py`` and ``scripts/perf_report.py``
#: so both write comparable ``faults`` records.  The plan exercises
#: every fault kind the layer models: a straggler window inflates the
#: hot node's service times, a crash then kills it mid-batch (its
#: in-flight work requeues through the retry policy), the obvious
#: replacement refuses to wake while the crash is fresh, and a
#: transient-unavailability window keeps a fourth node out of the
#: routing pool.  Times are in stream seconds at the reference scale
#: factor; :func:`fault_plan` rescales them with SF exactly like the
#: stream's interarrival times, so the faults keep striking the same
#: phase of the run at any scale.
FAULT_REFERENCE_SF = 0.01
FAULT_NODES = 4
FAULT_ARRIVALS = 300
FAULT_DISTINCT = 20
FAULT_MEAN_INTERARRIVAL_S = 0.1
FAULT_SEED = 13
FAULT_PLAN_SEED = 29
FAULT_SLA_S = 1.5
#: Equal SLA-miss budget for both modes: 1% of arrivals.
FAULT_SLA_BUDGET = 0.01
FAULT_WAKE_LATENCY_S = 0.5
FAULT_RETRY_MAX = 4
FAULT_RETRY_BACKOFF_S = 0.05
FAULT_STRAGGLER_START_S = 2.0
FAULT_STRAGGLER_END_S = 3.0
FAULT_STRAGGLER_SLOWDOWN = 4.0
FAULT_CRASH_AT_S = 2.5
FAULT_RECOVER_AT_S = 4.0
FAULT_WAKE_FAIL_END_S = 3.5
FAULT_UNAVAILABLE_S = (0.5, 1.5)


def fault_plan(sf: float | None = None):
    """The canonical fault plan, time-rescaled to ``sf``."""
    from repro.cluster import FaultPlan, FaultSpec

    scale = sf / FAULT_REFERENCE_SF if sf else 1.0
    return FaultPlan([
        FaultSpec("straggler", "node00",
                  start_s=FAULT_STRAGGLER_START_S * scale,
                  end_s=FAULT_STRAGGLER_END_S * scale,
                  slowdown=FAULT_STRAGGLER_SLOWDOWN),
        FaultSpec("crash", "node00",
                  at_s=FAULT_CRASH_AT_S * scale,
                  recover_s=FAULT_RECOVER_AT_S * scale),
        FaultSpec("wake-failure", "node01",
                  start_s=0.0, end_s=FAULT_WAKE_FAIL_END_S * scale,
                  probability=1.0),
        FaultSpec("unavailable", "node03",
                  start_s=FAULT_UNAVAILABLE_S[0] * scale,
                  end_s=FAULT_UNAVAILABLE_S[1] * scale),
    ], seed=FAULT_PLAN_SEED)


def fault_ablation_stream(sf: float | None = None):
    """The canonical Poisson stream the faults strike.

    ``REPRO_BENCH_FAULT_ARRIVALS`` shrinks it for CI smoke runs (keep
    it long enough to outlive the crash); ``sf`` rescales interarrival
    times so the offered load matches the reference calibration.
    """
    import os

    from repro.workloads.arrivals import poisson_arrivals
    from repro.workloads.selection import selection_workload

    count = int(os.environ.get("REPRO_BENCH_FAULT_ARRIVALS",
                               str(FAULT_ARRIVALS)))
    scale = sf / FAULT_REFERENCE_SF if sf else 1.0
    base = selection_workload(FAULT_DISTINCT).queries
    queries = [base[i % FAULT_DISTINCT] for i in range(count)]
    return poisson_arrivals(
        queries, FAULT_MEAN_INTERARRIVAL_S * scale, seed=FAULT_SEED
    )


@dataclass
class FaultAblation:
    """Consolidate-with-recovery vs always-awake spread under faults.

    The acceptance claim: even while nodes crash mid-batch, refuse to
    wake, and straggle, energy-aware consolidation *with the recovery
    layer* still beats the always-awake spread baseline on energy at an
    equal SLA-miss budget -- and neither mode loses a query silently
    (every arrival is served or visibly dead-lettered).
    """

    arrivals: int
    nodes: int
    scale_factor: float | None
    sla_s: float
    sla_budget: float
    retry_max: int
    retry_backoff_s: float
    modes: dict

    @property
    def _budget(self) -> float:
        return self.sla_budget * self.arrivals

    def _within_budget(self, name: str) -> bool:
        return self.modes[name]["sla_misses"] <= self._budget

    @property
    def consolidate_beats_spread(self) -> bool:
        return (
            self.modes["consolidate"]["wall_joules"]
            < self.modes["spread"]["wall_joules"]
            and self._within_budget("consolidate")
            and self._within_budget("spread")
        )

    @property
    def consolidate_vs_spread_saving(self) -> float:
        return 1.0 - (
            self.modes["consolidate"]["wall_joules"]
            / self.modes["spread"]["wall_joules"]
        )

    @property
    def conserved(self) -> bool:
        """No query silently lost in either mode: every arrival served
        exactly once or visibly shed (dead-lettered)."""
        return all(m["conserved"] for m in self.modes.values())

    @property
    def faults_active(self) -> bool:
        """The plan actually bit: a crash took in-flight work (the
        requeues prove it was mid-batch) and a wake failed."""
        f = self.modes["consolidate"]["faults"]
        return (
            f["crashes"] >= 1
            and f["requeued"] >= 1
            and f["failed_wakes"] >= 1
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["consolidate_beats_spread"] = self.consolidate_beats_spread
        out["consolidate_vs_spread_saving"] = (
            self.consolidate_vs_spread_saving
        )
        out["conserved"] = self.conserved
        out["faults_active"] = self.faults_active
        return out


def run_fault_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
) -> FaultAblation:
    """Run the canonical fault plan under both fleet modes."""
    from repro.cluster import (
        ClusterSimulator,
        DynamicConsolidateRouter,
        RetryPolicy,
        RoundRobinRouter,
        uniform_fleet,
    )

    stream = fault_ablation_stream(scale_factor)
    scale = (
        scale_factor / FAULT_REFERENCE_SF if scale_factor else 1.0
    )
    sla_s = FAULT_SLA_S * scale
    retry = RetryPolicy(max_attempts=FAULT_RETRY_MAX,
                        backoff_s=FAULT_RETRY_BACKOFF_S * scale)
    specs = uniform_fleet(FAULT_NODES,
                          wake_latency_s=FAULT_WAKE_LATENCY_S * scale)
    expected = sorted((a.sql, a.time_s) for a in stream)

    def router_for(name: str):
        if name == "spread":
            return RoundRobinRouter()
        return DynamicConsolidateRouter(
            max_backlog_s=sla_s, target_utilization=0.5
        )

    modes: dict[str, dict] = {}
    for name in ("spread", "consolidate"):
        sim = ClusterSimulator(db, specs, router_for(name),
                               trace_cache=trace_cache,
                               faults=fault_plan(scale_factor),
                               retry=retry)
        m = sim.run(stream)
        outcomes = sorted(
            [(r.sql, r.arrival_s) for r in m.responses]
            + [(s.sql, s.arrival_s) for s in m.shed]
        )
        report = m.faults
        modes[name] = {
            "run_id": m.run_id,
            "wall_joules": m.wall_joules,
            "edp": m.edp,
            "horizon_s": m.horizon_s,
            "served": m.served,
            "shed": len(m.shed),
            "sla_misses": m.sla_violations(sla_s),
            "p95_response_s": m.p95_response_s,
            "busy_s": sum(n.busy_s for n in m.nodes),
            "awake_node_s": m.awake_node_s,
            "faults": report.to_dict(),
            "sla_split": m.sla_split(sla_s),
            "conserved": (
                outcomes == expected
                and len(m.shed) == report.dead_lettered
            ),
        }

    return FaultAblation(
        arrivals=len(stream),
        nodes=FAULT_NODES,
        scale_factor=scale_factor,
        sla_s=sla_s,
        sla_budget=FAULT_SLA_BUDGET,
        retry_max=FAULT_RETRY_MAX,
        retry_backoff_s=FAULT_RETRY_BACKOFF_S * scale,
        modes=modes,
    )


# -- replication ablation: placement + quorum consolidation under crash ----

#: Canonical replication-recovery scenario, shared by
#: ``benchmarks/bench_replication.py`` and ``scripts/perf_report.py``
#: so both write comparable ``replication`` records.  The fleet holds a
#: hash-partitioned lineitem (``REPL_SHARDS`` shards x
#: ``REPL_REPLICAS`` replicas, chained declustering) and the plan
#: strikes the same phase of the run as the canonical fault plan: a
#: straggler window inflates node00's service times, a crash then kills
#: it mid-batch -- taking a replica of every shard it held and
#: triggering re-replication copy traffic billed on both endpoints --
#: and a transient-unavailability window keeps node03 out of the pool
#: early on.  There is deliberately *no* wake-failure fault: the crash
#: must always find a wakeable source and destination, so the
#: restored-replication gate is deterministic.  Times are in stream
#: seconds at the reference SF and rescale exactly like the stream.
REPL_SHARDS = 4
REPL_REPLICAS = 2
REPL_QUORUM = 1
REPL_TABLE = "lineitem"


def replication_plan(sf: float | None = None):
    """The canonical replication fault plan, time-rescaled to ``sf``."""
    from repro.cluster import FaultPlan, FaultSpec

    scale = sf / FAULT_REFERENCE_SF if sf else 1.0
    return FaultPlan([
        FaultSpec("straggler", "node00",
                  start_s=FAULT_STRAGGLER_START_S * scale,
                  end_s=FAULT_STRAGGLER_END_S * scale,
                  slowdown=FAULT_STRAGGLER_SLOWDOWN),
        FaultSpec("crash", "node00",
                  at_s=FAULT_CRASH_AT_S * scale,
                  recover_s=FAULT_RECOVER_AT_S * scale),
        FaultSpec("unavailable", "node03",
                  start_s=FAULT_UNAVAILABLE_S[0] * scale,
                  end_s=FAULT_UNAVAILABLE_S[1] * scale),
    ], seed=FAULT_PLAN_SEED)


def replication_stream(sf: float | None = None):
    """The canonical Poisson stream the replicated fleet serves.

    ``REPRO_BENCH_REPLICATION_ARRIVALS`` shrinks it for CI smoke runs
    (keep it long enough to outlive the crash); ``sf`` rescales
    interarrival times like :func:`fault_ablation_stream`.
    """
    import os

    from repro.workloads.arrivals import poisson_arrivals
    from repro.workloads.selection import selection_workload

    count = int(os.environ.get("REPRO_BENCH_REPLICATION_ARRIVALS",
                               str(FAULT_ARRIVALS)))
    scale = sf / FAULT_REFERENCE_SF if sf else 1.0
    base = selection_workload(FAULT_DISTINCT).queries
    queries = [base[i % FAULT_DISTINCT] for i in range(count)]
    return poisson_arrivals(
        queries, FAULT_MEAN_INTERARRIVAL_S * scale, seed=FAULT_SEED
    )


def replication_placement(specs):
    """The canonical placement map over a fleet's node names."""
    from repro.cluster import generate_placement

    return generate_placement(
        specs, shards=REPL_SHARDS, replicas=REPL_REPLICAS,
        table=REPL_TABLE, quorum=REPL_QUORUM,
    )


@dataclass
class ReplicationAblation:
    """Quorum-aware consolidation vs spread on a replicated fleet.

    The acceptance claim: with lineitem hash-partitioned into
    replicated shards, quorum-constrained consolidation still spends no
    more energy than the always-awake spread baseline at an equal
    SLA-miss budget -- *while a crash and its re-replication copy
    traffic are in flight* -- and replication is restored (every shard
    back to its replica target by the end of the run) without silently
    losing a query.
    """

    arrivals: int
    nodes: int
    shards: int
    replicas: int
    quorum: int
    scale_factor: float | None
    sla_s: float
    sla_budget: float
    retry_max: int
    retry_backoff_s: float
    modes: dict

    @property
    def _budget(self) -> float:
        return self.sla_budget * self.arrivals

    def _within_budget(self, name: str) -> bool:
        return self.modes[name]["sla_misses"] <= self._budget

    @property
    def consolidate_beats_spread(self) -> bool:
        return (
            self.modes["consolidate"]["wall_joules"]
            <= self.modes["spread"]["wall_joules"]
            and self._within_budget("consolidate")
            and self._within_budget("spread")
        )

    @property
    def consolidate_vs_spread_saving(self) -> float:
        return 1.0 - (
            self.modes["consolidate"]["wall_joules"]
            / self.modes["spread"]["wall_joules"]
        )

    @property
    def conserved(self) -> bool:
        """No query silently lost in either mode."""
        return all(m["conserved"] for m in self.modes.values())

    @property
    def re_replicated(self) -> bool:
        """The crash actually triggered shard copies in both modes."""
        return all(
            m["faults"]["re_replications"] >= 1
            for m in self.modes.values()
        )

    @property
    def restored(self) -> bool:
        """Every shard is back at (or above) its replica target on
        live nodes by the end of the run, in both modes."""
        return all(m["restored"] for m in self.modes.values())

    def to_dict(self) -> dict:
        out = asdict(self)
        out["consolidate_beats_spread"] = self.consolidate_beats_spread
        out["consolidate_vs_spread_saving"] = (
            self.consolidate_vs_spread_saving
        )
        out["conserved"] = self.conserved
        out["re_replicated"] = self.re_replicated
        out["restored"] = self.restored
        return out


def run_replication_ablation(
    db: Database,
    scale_factor: float | None = None,
    trace_cache: TraceCache | None = None,
) -> ReplicationAblation:
    """Run the canonical replication scenario under both fleet modes."""
    from repro.cluster import (
        ClusterSimulator,
        DynamicConsolidateRouter,
        RetryPolicy,
        RoundRobinRouter,
        uniform_fleet,
    )

    stream = replication_stream(scale_factor)
    scale = (
        scale_factor / FAULT_REFERENCE_SF if scale_factor else 1.0
    )
    sla_s = FAULT_SLA_S * scale
    retry = RetryPolicy(max_attempts=FAULT_RETRY_MAX,
                        backoff_s=FAULT_RETRY_BACKOFF_S * scale)
    specs = uniform_fleet(FAULT_NODES,
                          wake_latency_s=FAULT_WAKE_LATENCY_S * scale)
    placement = replication_placement(specs)
    expected = sorted((a.sql, a.time_s) for a in stream)

    def router_for(name: str):
        if name == "spread":
            return RoundRobinRouter()
        return DynamicConsolidateRouter(
            max_backlog_s=sla_s, target_utilization=0.5
        )

    modes: dict[str, dict] = {}
    for name in ("spread", "consolidate"):
        sim = ClusterSimulator(db, specs, router_for(name),
                               trace_cache=trace_cache,
                               faults=replication_plan(scale_factor),
                               retry=retry, placement=placement)
        m = sim.run(stream)
        outcomes = sorted(
            [(r.sql, r.arrival_s) for r in m.responses]
            + [(s.sql, s.arrival_s) for s in m.shed]
        )
        report = m.faults
        live_holders = {
            key: sum(
                1 for node in sim.nodes
                if node.crashed_s is None
                and node.shards is not None and key in node.shards
            )
            for tp in placement.tables.values()
            for key in (
                (tp.table, shard) for shard in range(tp.shards)
            )
        }
        modes[name] = {
            "run_id": m.run_id,
            "wall_joules": m.wall_joules,
            "edp": m.edp,
            "horizon_s": m.horizon_s,
            "served": m.served,
            "shed": len(m.shed),
            "sla_misses": m.sla_violations(sla_s),
            "p95_response_s": m.p95_response_s,
            "busy_s": sum(n.busy_s for n in m.nodes),
            "awake_node_s": m.awake_node_s,
            "faults": report.to_dict(),
            "sla_split": m.sla_split(sla_s),
            "min_live_holders": min(live_holders.values()),
            "restored": all(
                count >= placement.for_table(table).replicas
                for (table, _shard), count in live_holders.items()
            ),
            "conserved": (
                outcomes == expected
                and len(m.shed) == report.dead_lettered
            ),
        }

    return ReplicationAblation(
        arrivals=len(stream),
        nodes=FAULT_NODES,
        shards=REPL_SHARDS,
        replicas=REPL_REPLICAS,
        quorum=REPL_QUORUM,
        scale_factor=scale_factor,
        sla_s=sla_s,
        sla_budget=FAULT_SLA_BUDGET,
        retry_max=FAULT_RETRY_MAX,
        retry_backoff_s=FAULT_RETRY_BACKOFF_S * scale,
        modes=modes,
    )
