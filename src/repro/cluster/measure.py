"""Cluster-level measurement: composed node playback + response times.

A cluster run produces one :class:`~repro.hardware.system.RunMeasurement`
per node (the node's whole awake timeline played back under its PVC
setting) plus the event-level bookkeeping the hardware layer cannot see:
sleep energy, wake transitions, per-query response times, shed queries,
and the fleet's modeled power peak.  :class:`ClusterMeasurement` composes
them into the paper-style aggregate metrics -- total energy, EDP,
per-node utilization, response-time percentiles, SLA violations, and
power-cap overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.hardware.disk import ZERO_DISK_ENERGY
from repro.hardware.system import RunMeasurement


def zero_measurement() -> RunMeasurement:
    """An empty playback (a node that never woke up)."""
    return RunMeasurement(0.0, 0.0, 0.0, ZERO_DISK_ENERGY, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class QueryResponse:
    """One served query's life cycle through the cluster."""

    sql: str
    node: str
    arrival_s: float
    start_s: float
    completion_s: float

    @property
    def response_s(self) -> float:
        """Full sojourn time: arrival to completion (queue wait included)."""
        return self.completion_s - self.arrival_s


@dataclass(frozen=True)
class ShedQuery:
    """A query the cluster refused to serve: a power-cap rejection, or
    a dead-lettered query whose retries were exhausted."""

    sql: str
    arrival_s: float


@dataclass(frozen=True)
class ScheduledWork:
    """One contiguous busy window on a node.

    A plain query occupies one window; a QED batch occupies one window
    for the whole merged execution.  ``trace_key`` indexes the schedule's
    compiled-trace table; ``queries`` carries the (sql, arrival time)
    pairs answered when the window completes.  ``setting`` is the PVC
    operating point the node held when the window was placed (None:
    the node's spec setting) -- playback must cost the window under the
    same setting its service time was computed for.  ``stretch_s`` is
    straggler-fault inflation beyond the costed trace duration: the
    window occupies it, but playback bills it as degraded (idle-watt)
    occupancy after the trace piece.
    """

    trace_key: str
    start_s: float
    end_s: float
    queries: tuple[tuple[str, float], ...]
    setting: object | None = None
    stretch_s: float = 0.0

    @property
    def service_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class QedPartitionStats:
    """Batch/merge accounting for one QED partition (or node queue).

    ``queries``/``batches``/``max_batch`` count *dispatches* out of the
    admission queue; the window counters record what the scheduler
    actually placed: ``merged_windows`` disjunctive executions,
    ``singleton_windows`` single-query executions (size-1 batches,
    pass-through queries, and fallback members), and
    ``fallback_batches`` batches the aggregator rejected
    (``NotMergeableError``) that degraded to back-to-back singletons
    instead of crashing the schedule.
    """

    partition: str
    queries: int = 0
    batches: int = 0
    max_batch: int = 0
    merged_windows: int = 0
    singleton_windows: int = 0
    fallback_batches: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.queries / self.batches if self.batches else 0.0


@dataclass
class QedReport:
    """Fleet-wide QED accounting for one run, per partition.

    ``mode`` is ``"master"`` (one coordinator queue partitioned by
    mergeable template) or ``"node"`` (a private queue per node, keyed
    ``node:<name>``).
    """

    mode: str
    partitions: list[QedPartitionStats] = field(default_factory=list)

    def get(self, partition: str) -> QedPartitionStats | None:
        for stats in self.partitions:
            if stats.partition == partition:
                return stats
        return None

    @property
    def queries(self) -> int:
        return sum(p.queries for p in self.partitions)

    @property
    def batches(self) -> int:
        return sum(p.batches for p in self.partitions)

    @property
    def merged_windows(self) -> int:
        return sum(p.merged_windows for p in self.partitions)

    @property
    def singleton_windows(self) -> int:
        return sum(p.singleton_windows for p in self.partitions)

    @property
    def fallback_batches(self) -> int:
        return sum(p.fallback_batches for p in self.partitions)

    @property
    def mean_batch_size(self) -> float:
        return self.queries / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "merged_windows": self.merged_windows,
            "singleton_windows": self.singleton_windows,
            "fallback_batches": self.fallback_batches,
            "partitions": {
                p.partition: {
                    "queries": p.queries,
                    "batches": p.batches,
                    "mean_batch_size": p.mean_batch_size,
                    "max_batch": p.max_batch,
                    "merged_windows": p.merged_windows,
                    "singleton_windows": p.singleton_windows,
                    "fallback_batches": p.fallback_batches,
                }
                for p in self.partitions
            },
        }


@dataclass
class FaultReport:
    """What the fault plan did to one run, and what recovery cost.

    ``crashes``/``failed_wakes`` count injected events that actually
    fired; ``requeued`` counts queries pulled out of lost in-flight
    work or crashed per-node queues; ``retries`` counts re-dispatch
    attempts the retry policy scheduled; ``dead_lettered`` counts
    queries shed after exhausting their attempts (they appear in the
    measurement's ``shed`` list, so SLA accounting already treats them
    as misses).  ``wasted_busy_s``/``wasted_joules`` charge the partial
    work burnt before a mid-batch crash (busy-watt energy the fleet
    spent on answers it never delivered).  ``affected`` identifies the
    ``(sql, arrival_s)`` pairs that were retried or dead-lettered, so
    SLA attainment can be split by fault exposure.

    Under a placement map a crash additionally triggers re-replication
    of the shards the dead node held: ``re_replications`` counts shard
    copies started, ``copy_s`` their combined busy seconds across both
    endpoints (source read+ship, destination ship+write), and
    ``copy_joules`` the modeled busy-watt energy of those windows --
    recovery traffic the fleet bills on top of serving the workload.
    """

    crashes: int = 0
    failed_wakes: int = 0
    requeued: int = 0
    retries: int = 0
    dead_lettered: int = 0
    wasted_busy_s: float = 0.0
    wasted_joules: float = 0.0
    re_replications: int = 0
    copy_s: float = 0.0
    copy_joules: float = 0.0
    affected: set = field(default_factory=set)

    def to_dict(self) -> dict:
        return {
            "crashes": self.crashes,
            "failed_wakes": self.failed_wakes,
            "requeued": self.requeued,
            "retries": self.retries,
            "dead_lettered": self.dead_lettered,
            "wasted_busy_s": self.wasted_busy_s,
            "wasted_joules": self.wasted_joules,
            "re_replications": self.re_replications,
            "copy_s": self.copy_s,
            "copy_joules": self.copy_joules,
            "affected_queries": len(self.affected),
        }


@dataclass(frozen=True)
class ResponseColumns:
    """Served queries in structure-of-arrays form, sorted by (arrival,
    completion): per-query arrays plus the statement and node-name
    tables the index columns point into.

    A 1M-arrival run cannot afford per-query objects, so every consumer
    -- percentiles, SLA accounting, phase windows -- reads these arrays
    directly; iterating yields :class:`QueryResponse` rows (identity
    tests and small-run inspection).
    """

    distinct: tuple[str, ...]
    node_names: tuple[str, ...]
    sql_idx: np.ndarray
    node_idx: np.ndarray
    arrival_s: np.ndarray
    start_s: np.ndarray
    completion_s: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[QueryResponse]) -> "ResponseColumns":
        """Columns for hand-built rows, kept in the order given."""
        sqls = tuple(dict.fromkeys(r.sql for r in rows))
        names = tuple(dict.fromkeys(r.node for r in rows))
        times = np.array(
            [(r.arrival_s, r.start_s, r.completion_s) for r in rows],
            dtype=np.float64,
        ).reshape(-1, 3)
        return cls(
            sqls, names,
            np.array([sqls.index(r.sql) for r in rows], dtype=np.intp),
            np.array([names.index(r.node) for r in rows], dtype=np.intp),
            times[:, 0], times[:, 1], times[:, 2],
        )

    def __len__(self) -> int:
        return len(self.arrival_s)

    @property
    def response_s(self) -> np.ndarray:
        """Full sojourn time per query: arrival to completion."""
        return self.completion_s - self.arrival_s

    def __iter__(self) -> Iterator[QueryResponse]:
        for k in range(len(self.arrival_s)):
            yield QueryResponse(
                sql=self.distinct[int(self.sql_idx[k])],
                node=self.node_names[int(self.node_idx[k])],
                arrival_s=float(self.arrival_s[k]),
                start_s=float(self.start_s[k]),
                completion_s=float(self.completion_s[k]),
            )


@dataclass
class NodeUsage:
    """One node's share of a cluster run.

    The span fields carry the node's timeline shape -- busy windows as
    a ``(starts, ends)`` array pair, sleep spans and wake transitions
    as ``(start_s, end_s)`` pairs -- plus its linear power envelope, so
    phase-sliced reporting can attribute modeled energy to arbitrary
    time windows after the fact.
    """

    name: str
    queries: int
    busy_s: float
    wake_s: float
    sleep_s: float
    horizon_s: float
    playback: RunMeasurement
    sleep_joules: float
    busy_columns: tuple[np.ndarray, np.ndarray]
    re_sleeps: int = 0
    sleep_spans: tuple[tuple[float, float], ...] = ()
    wake_spans: tuple[tuple[float, float], ...] = ()
    idle_wall_w: float = 0.0
    busy_wall_w: float = 0.0
    sleep_wall_w: float = 0.0

    @property
    def idle_s(self) -> float:
        """Awake-but-idle time (includes any pre/post-run idling)."""
        return max(0.0, self.playback.duration_s - self.busy_s - self.wake_s)

    @property
    def utilization(self) -> float:
        return self.busy_s / self.horizon_s if self.horizon_s else 0.0

    @property
    def wall_joules(self) -> float:
        """Playback wall energy plus the sleep-state draw."""
        return self.playback.wall_joules + self.sleep_joules

    def energy_breakdown(self) -> dict[str, float]:
        """Per-phase modeled joules under the linear power envelope.

        The four phases tile the node's horizon exactly -- busy windows
        at busy watts, wake transitions and awake-idle time at idle
        watts, sleep spans at sleep watts -- so their sum equals the
        envelope integral :attr:`ClusterMeasurement.modeled_wall_joules`
        computes independently (the attribution reconciliation).  The
        residual idle term is clamped at zero against float tiling
        noise only; phase spans never truly overlap.
        """
        idle_s = max(
            0.0, self.horizon_s - self.sleep_s - self.wake_s - self.busy_s
        )
        return {
            "busy_j": self.busy_wall_w * self.busy_s,
            "idle_j": self.idle_wall_w * idle_s,
            "wake_j": self.idle_wall_w * self.wake_s,
            "sleep_j": self.sleep_wall_w * self.sleep_s,
        }

    @property
    def modeled_joules(self) -> float:
        """Envelope-modeled node energy (sum of the phase breakdown)."""
        return sum(self.energy_breakdown().values())


@dataclass(frozen=True)
class PhaseWindow:
    """One time slice of a cluster run (phase-sliced reporting).

    ``modeled_joules`` integrates the per-node linear power envelope
    (sleep watts asleep, idle watts awake -- wake transitions included
    -- plus the busy delta inside busy windows) over the window; the
    playback totals remain the exact energy, this attributes them in
    time.  ``awake_node_s`` counts node-seconds any node spent out of
    the sleep state; ``re_sleeps`` counts sleep states *entered* inside
    the window.
    """

    start_s: float
    end_s: float
    arrivals: int
    served: int
    modeled_joules: float
    awake_node_s: float
    busy_node_s: float
    wake_node_s: float
    sleep_node_s: float
    re_sleeps: int
    p95_response_s: float

    @property
    def span_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def avg_power_w(self) -> float:
        return self.modeled_joules / self.span_s if self.span_s else 0.0

    @property
    def awake_nodes_avg(self) -> float:
        return self.awake_node_s / self.span_s if self.span_s else 0.0


def _overlap(spans, lo: float, hi: float) -> float:
    """Total length of ``spans`` clipped to the window ``[lo, hi)``."""
    return sum(
        max(0.0, min(end, hi) - max(start, lo)) for start, end in spans
    )


def _overlap_columns(
    starts: np.ndarray, ends: np.ndarray, lo: float, hi: float
) -> float:
    """:func:`_overlap` for SoA ``(starts, ends)`` windows."""
    return float(
        np.clip(
            np.minimum(ends, hi) - np.maximum(starts, lo), 0.0, None
        ).sum()
    )


@dataclass
class ClusterMeasurement:
    """A completed cluster simulation: energy, time, and service quality."""

    horizon_s: float
    nodes: list[NodeUsage]
    #: Served queries; a :class:`QueryResponse` list passed here (a
    #: hand-built measurement) is converted on construction.
    responses: ResponseColumns
    shed: list[ShedQuery] = field(default_factory=list)
    peak_power_w: float = 0.0
    cap_w: float | None = None
    qed: QedReport | None = None
    faults: FaultReport | None = None
    #: Deterministic identity of the run's full configuration (fleet,
    #: policy, faults, arrival stream, scale factor); stamped by the
    #: simulator so reports and bench history are attributable.
    run_id: str | None = None
    fingerprint: dict | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.responses, ResponseColumns):
            self.responses = ResponseColumns.from_rows(self.responses)

    # -- energy -----------------------------------------------------------

    @property
    def total(self) -> RunMeasurement:
        """Composed playback of every node (sleep energy excluded)."""
        out = zero_measurement()
        for node in self.nodes:
            out = out + node.playback
        return out

    @property
    def wall_joules(self) -> float:
        """Cluster wall energy over the horizon, sleep states included."""
        return sum(n.wall_joules for n in self.nodes)

    @property
    def cpu_joules(self) -> float:
        return sum(n.playback.cpu_joules for n in self.nodes)

    @property
    def modeled_wall_joules(self) -> float:
        """Envelope-modeled cluster energy over the horizon.

        The integral of each node's linear power envelope: sleep watts
        asleep, idle watts awake (wake transitions included), plus the
        busy delta inside busy windows.  Computed independently of
        :meth:`NodeUsage.energy_breakdown` so the observability layer's
        per-phase attribution has a genuine reconciliation target
        rather than a restatement of itself.
        """
        total = 0.0
        for n in self.nodes:
            awake_s = n.horizon_s - n.sleep_s
            total += (
                n.sleep_wall_w * n.sleep_s
                + n.idle_wall_w * awake_s
                + (n.busy_wall_w - n.idle_wall_w) * n.busy_s
            )
        return total

    @property
    def edp(self) -> float:
        """Cluster EDP: wall energy x makespan."""
        return self.wall_joules * self.horizon_s

    @property
    def avg_power_w(self) -> float:
        return self.wall_joules / self.horizon_s if self.horizon_s else 0.0

    # -- service quality --------------------------------------------------

    @property
    def served(self) -> int:
        return len(self.responses)

    def iter_responses(self) -> Iterator[QueryResponse]:
        """Every served query as a :class:`QueryResponse`, materialized
        row by row (identity tests and small-run inspection only)."""
        return iter(self.responses)

    @cached_property
    def _response_values(self) -> np.ndarray:
        """Response times as one array (memoized; every percentile and
        mean reads it, and the measurement is effectively immutable
        once composed)."""
        return self.responses.response_s

    def response_percentile(self, q: float) -> float:
        if self.served == 0:
            return 0.0
        return float(np.percentile(self._response_values, q))

    @property
    def p50_response_s(self) -> float:
        return self.response_percentile(50.0)

    @property
    def p95_response_s(self) -> float:
        return self.response_percentile(95.0)

    @property
    def p99_response_s(self) -> float:
        return self.response_percentile(99.0)

    @property
    def mean_response_s(self) -> float:
        if self.served == 0:
            return 0.0
        return float(self._response_values.mean())

    def sla_violations(self, sla_s: float) -> int:
        """Served queries over the response-time SLA, plus shed queries
        (a refused query is the hardest SLA miss of all)."""
        if sla_s < 0:
            raise ValueError("sla_s must be non-negative")
        late = int((self._response_values > sla_s).sum())
        return late + len(self.shed)

    def sla_split(self, sla_s: float) -> dict[str, float]:
        """SLA attainment split by fault exposure.

        A query is *affected* when the fault report marks its
        ``(sql, arrival_s)`` identity (retried or dead-lettered);
        everything else -- including every query of a fault-free run --
        is unaffected.  Shed queries count against their side's
        attainment the same way :meth:`sla_violations` counts them.
        """
        if sla_s < 0:
            raise ValueError("sla_s must be non-negative")
        affected = self.faults.affected if self.faults else set()
        values = self._response_values
        hit = np.zeros(values.size, dtype=bool)
        if affected:
            r = self.responses
            hit[:] = [
                (r.distinct[d], a) in affected
                for d, a in zip(r.sql_idx.tolist(), r.arrival_s.tolist())
            ]
        on_time = values <= sla_s
        totals = {True: int(hit.sum()), False: int((~hit).sum())}
        met = {
            True: int((on_time & hit).sum()),
            False: int((on_time & ~hit).sum()),
        }
        for q in self.shed:
            totals[(q.sql, q.arrival_s) in affected] += 1
        return {
            "affected_total": float(totals[True]),
            "affected_met": float(met[True]),
            "affected_attainment": (
                met[True] / totals[True] if totals[True] else 1.0
            ),
            "unaffected_total": float(totals[False]),
            "unaffected_met": float(met[False]),
            "unaffected_attainment": (
                met[False] / totals[False] if totals[False] else 1.0
            ),
        }

    # -- power cap --------------------------------------------------------

    @property
    def power_cap_overshoot_w(self) -> float:
        """Modeled peak power above the cap (0 when capped or uncapped).

        The cap router's feasibility check grants float-noise slack
        (1e-9 W); anything under a micro-watt here is that same noise,
        not a violation.
        """
        if self.cap_w is None:
            return 0.0
        overshoot = self.peak_power_w - self.cap_w
        return overshoot if overshoot > 1e-6 else 0.0

    # -- reporting --------------------------------------------------------

    @property
    def awake_nodes(self) -> int:
        return sum(1 for n in self.nodes if n.playback.duration_s > 0)

    @property
    def re_sleeps(self) -> int:
        """Fleet-wide count of re-entered sleep states (dynamic
        re-consolidation activity; zero for the one-shot policies)."""
        return sum(n.re_sleeps for n in self.nodes)

    @property
    def awake_node_s(self) -> float:
        """Node-seconds spent out of the sleep state over the horizon --
        the quantity consolidation policies minimize."""
        return sum(
            n.horizon_s - n.sleep_s for n in self.nodes
        )

    def window_report(self, window_s: float) -> list[PhaseWindow]:
        """Slice the run into fixed windows (per-phase diurnal report).

        Each window attributes modeled energy, awake/busy/wake/sleep
        node-seconds, arrivals, completions, re-sleeps, and the p95
        response time of queries *completing* inside it.  Windows tile
        ``[0, horizon_s)``; the last one closes at the horizon.  The
        window count backs off a hair of float noise so a horizon that
        is K windows up to accumulated rounding (3 x 0.1 = 0.30000...04)
        yields K windows, not K plus a degenerate zero-width tail that
        would also steal the horizon-time completions from the real
        final window.  A zero-horizon measurement (nothing ever ran)
        still reports one well-formed ``[0, 0]`` window rather than
        silently dropping the run.
        """
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        count = (
            max(1, int(np.ceil(self.horizon_s / window_s - 1e-9)))
            if self.horizon_s > 0 else 1
        )
        r_arrival = self.responses.arrival_s
        r_completion = self.responses.completion_s
        r_values = r_completion - r_arrival
        out: list[PhaseWindow] = []
        for k in range(count):
            lo = k * window_s
            last = k == count - 1
            hi = (
                max(0.0, self.horizon_s) if last
                else min((k + 1) * window_s, self.horizon_s)
            )
            span = hi - lo

            # Windows are half-open except the last, which closes at
            # the horizon -- the horizon IS the final completion time,
            # so an exclusive bound would drop the last query served.
            def inside(t: float) -> bool:
                return lo <= t < hi or (last and t == hi)

            def inside_mask(t: np.ndarray) -> np.ndarray:
                mask = (t >= lo) & (t < hi)
                if last:
                    mask |= t == hi
                return mask
            busy = wake = sleep = joules = 0.0
            re_sleeps = 0
            for n in self.nodes:
                b = _overlap_columns(*n.busy_columns, lo, hi)
                w = _overlap(n.wake_spans, lo, hi)
                s = _overlap(n.sleep_spans, lo, hi)
                busy += b
                wake += w
                sleep += s
                awake = span - s
                joules += (
                    n.sleep_wall_w * s
                    + n.idle_wall_w * (awake - b)
                    + n.busy_wall_w * b
                )
                re_sleeps += sum(
                    1 for start, _ in n.sleep_spans
                    if start > 0.0 and inside(start)
                )
            completed = inside_mask(r_completion)
            window_responses = r_values[completed]
            arrivals = int(inside_mask(r_arrival).sum()) + sum(
                1 for q in self.shed if inside(q.arrival_s)
            )
            out.append(PhaseWindow(
                start_s=lo,
                end_s=hi,
                arrivals=arrivals,
                served=int(completed.sum()),
                modeled_joules=joules,
                awake_node_s=len(self.nodes) * span - sleep,
                busy_node_s=busy,
                wake_node_s=wake,
                sleep_node_s=sleep,
                re_sleeps=re_sleeps,
                p95_response_s=(
                    float(np.percentile(window_responses, 95.0))
                    if window_responses.size else 0.0
                ),
            ))
        return out

    def summary(self) -> dict[str, float]:
        """Flat scalar summary (CLI table / benchmark artifacts).

        Carries the run's deterministic ``run_id`` (the one non-float
        entry) when the simulator stamped one, so summaries -- and the
        artifacts built from them -- are attributable to exact configs.
        """
        out: dict = {}
        if self.run_id is not None:
            out["run_id"] = self.run_id
        out.update({
            "horizon_s": self.horizon_s,
            "served": float(self.served),
            "shed": float(len(self.shed)),
            "awake_nodes": float(self.awake_nodes),
            "wall_joules": self.wall_joules,
            "cpu_joules": self.cpu_joules,
            "edp": self.edp,
            "avg_power_w": self.avg_power_w,
            "peak_power_w": self.peak_power_w,
            "p50_response_s": self.p50_response_s,
            "p95_response_s": self.p95_response_s,
            "p99_response_s": self.p99_response_s,
            "mean_utilization": (
                sum(n.utilization for n in self.nodes) / len(self.nodes)
                if self.nodes else 0.0
            ),
            "awake_node_s": self.awake_node_s,
            "re_sleeps": float(self.re_sleeps),
        })
        if self.qed is not None:
            out.update({
                "qed_batches": float(self.qed.batches),
                "qed_mean_batch_size": self.qed.mean_batch_size,
                "qed_merged_windows": float(self.qed.merged_windows),
                "qed_singleton_windows": float(
                    self.qed.singleton_windows
                ),
                "qed_fallback_batches": float(self.qed.fallback_batches),
            })
        if self.faults is not None:
            out.update({
                "fault_crashes": float(self.faults.crashes),
                "fault_failed_wakes": float(self.faults.failed_wakes),
                "fault_requeued": float(self.faults.requeued),
                "fault_retries": float(self.faults.retries),
                "fault_dead_lettered": float(self.faults.dead_lettered),
                "fault_wasted_joules": self.faults.wasted_joules,
                "fault_re_replications": float(
                    self.faults.re_replications
                ),
                "fault_copy_joules": self.faults.copy_joules,
            })
        return out
