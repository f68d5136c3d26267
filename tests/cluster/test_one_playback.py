"""One production playback: columnar rows against the per-piece oracle.

Every loop-path configuration below is scheduled once and played twice:
through its columnar rows (``playback()``, the production path) and
through the ``play_loop`` oracle, which replays the compiled-trace
pieces derived from the node snapshots.  Per node, every
``RunMeasurement`` field agrees to 1e-9; response rows and node
timelines are identical, and match what the node snapshots record.
"""

import numpy as np
import pytest

from repro.cluster import (
    AdaptivePvcRouter,
    ClusterSimulator,
    ConsolidateRouter,
    DynamicConsolidateRouter,
    FaultPlan,
    FaultSpec,
    LeastLoadedRouter,
    MasterQueue,
    NodeGroup,
    PowerCapRouter,
    QueryResponse,
    RetryPolicy,
    RoundRobinRouter,
    generate_placement,
    hetero_fleet,
    uniform_fleet,
)
from repro.core.qed.policy import BatchPolicy
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.workloads.arrivals import (
    piecewise_schedule,
    poisson_arrivals,
    rate_schedule_arrivals,
    uniform_arrivals,
)
from repro.workloads.selection import selection_workload

REL = 1e-9

FIELDS = (
    "duration_s", "cpu_joules", "memory_joules", "board_joules",
    "gpu_joules", "fan_joules", "wall_joules",
)


def _stream(count=60, distinct=10, mean_s=0.05, seed=1):
    queries = selection_workload(distinct).queries
    return poisson_arrivals(
        [queries[i % distinct] for i in range(count)], mean_s, seed=seed
    )


def _backlogged(count=40, distinct=10, gap_s=0.01):
    queries = selection_workload(distinct).queries
    return uniform_arrivals(
        [queries[i % distinct] for i in range(count)], gap_s
    )


def _wave(seed=5, distinct=12):
    """High / low / high load: wake, re-sleep, re-wake in one run."""
    schedule = piecewise_schedule([(8.0, 25.0), (20.0, 0.8), (8.0, 25.0)])
    return rate_schedule_arrivals(
        selection_workload(distinct).queries, schedule, seed=seed
    )


def _hetero():
    return hetero_fleet([
        NodeGroup(2, prefix="big", hw="paper"),
        NodeGroup(2, prefix="eco", hw="paper-nogpu",
                  setting=PvcSetting(10, VoltageDowngrade.MEDIUM)),
    ])


def _windows(schedule):
    return [w for node in schedule.nodes for w in node.scheduled]


#: name -> (simulator kwargs, stream, what the run must exercise).
CONFIGS = {
    "round-robin": lambda: (
        dict(specs=_hetero(), router=RoundRobinRouter()),
        _stream(), lambda s: len({n.spec.setting for n in s.nodes}) == 2,
    ),
    "least-loaded": lambda: (
        dict(specs=uniform_fleet(4), router=LeastLoadedRouter()),
        _stream(mean_s=0.01), lambda s: len(_windows(s)) == 60,
    ),
    "consolidate": lambda: (
        dict(specs=uniform_fleet(3, wake_latency_s=0.5),
             router=ConsolidateRouter(max_backlog_s=0.2)),
        _stream(mean_s=0.01), lambda s: any(n.wake_log for n in s.nodes),
    ),
    "dynamic": lambda: (
        dict(specs=uniform_fleet(3, wake_latency_s=0.5),
             router=DynamicConsolidateRouter(
                 max_backlog_s=0.2, target_utilization=0.5,
                 ewma_alpha=0.4)),
        _wave(), lambda s: any(n.re_sleeps for n in s.nodes),
    ),
    "adaptive-pvc": lambda: (
        dict(specs=uniform_fleet(2),
             router=AdaptivePvcRouter(deadline_s=0.08)),
        _wave(), lambda s: len({w.setting for w in _windows(s)}) > 1,
    ),
    "power-cap": lambda: (
        dict(specs=uniform_fleet(4),
             router=PowerCapRouter(cap_w=445.0)),
        _stream(mean_s=0.005), lambda s: s.cap_w == 445.0,
    ),
    "master-qed": lambda: (
        dict(specs=uniform_fleet(3), router=LeastLoadedRouter(),
             master_queue=MasterQueue(BatchPolicy(4, max_wait_s=0.2))),
        _stream(mean_s=0.01), lambda s: s.qed.merged_windows > 0,
    ),
    "crash": lambda: (
        dict(specs=uniform_fleet(3), router=LeastLoadedRouter(),
             faults=FaultPlan([FaultSpec("crash", "node00", at_s=0.12,
                                         recover_s=0.25)]),
             retry=RetryPolicy(backoff_s=0.05)),
        _backlogged(), lambda s: s.faults.crashes == 1,
    ),
    "wake-failure": lambda: (
        dict(specs=uniform_fleet(2, wake_latency_s=0.05),
             router=DynamicConsolidateRouter(max_backlog_s=0.1),
             faults=FaultPlan([FaultSpec("wake-failure", "node01",
                                         end_s=1.0, probability=1.0)]),
             retry=RetryPolicy(backoff_s=0.01)),
        _stream(mean_s=0.02), lambda s: s.faults.failed_wakes >= 1,
    ),
    "straggler": lambda: (
        dict(specs=uniform_fleet(2), router=RoundRobinRouter(),
             faults=FaultPlan([FaultSpec("straggler", "node00",
                                         slowdown=3.0)])),
        _backlogged(), lambda s: any(w.stretch_s for w in _windows(s)),
    ),
    "unavailable": lambda: (
        dict(specs=uniform_fleet(2), router=RoundRobinRouter(),
             faults=FaultPlan([FaultSpec("unavailable", "node01",
                                         start_s=0.5, end_s=1.5)]),
             retry=RetryPolicy(backoff_s=0.01)),
        _stream(), lambda s: s.nodes[1].scheduled and not any(
            0.5 <= w.start_s < 1.5 for w in s.nodes[1].scheduled
        ),
    ),
    "placement-re-replication": lambda: (
        dict(specs=uniform_fleet(4), router=LeastLoadedRouter(),
             placement=generate_placement(
                 [s.name for s in uniform_fleet(4)], shards=4,
                 replicas=2),
             faults=FaultPlan([FaultSpec("crash", "node00", at_s=1.0,
                                         recover_s=3.0)]),
             retry=RetryPolicy(max_attempts=4, backoff_s=0.05)),
        _stream(count=80), lambda s: s.faults.re_replications >= 1,
    ),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_columnar_playback_matches_loop_oracle(mysql_db, name):
    kwargs, stream, exercised = CONFIGS[name]()
    specs = kwargs.pop("specs")
    router = kwargs.pop("router")
    sim = ClusterSimulator(mysql_db, specs, router, **kwargs)
    schedule = sim.schedule(stream, vectorized=False)
    assert exercised(schedule), f"{name} did not exercise its feature"
    fast = sim.playback(schedule)
    slow = sim.playback(schedule, mode="loop")
    horizon = schedule.horizon_s

    for a, b in zip(fast.nodes, slow.nodes):
        for key in FIELDS:
            assert getattr(a.playback, key) == pytest.approx(
                getattr(b.playback, key), rel=REL, abs=1e-12
            ), (a.name, key)
        for key in ("joules_5v", "joules_12v"):
            assert getattr(a.playback.disk_energy, key) == pytest.approx(
                getattr(b.playback.disk_energy, key), rel=REL, abs=1e-12
            ), (a.name, key)

    expected = sorted(
        (
            QueryResponse(sql, node.spec.name, arrival_s,
                          work.start_s, work.end_s)
            for node in schedule.nodes
            for work in node.scheduled
            for sql, arrival_s in work.queries
        ),
        key=lambda r: (r.arrival_s, r.completion_s),
    )
    assert list(fast.responses) == expected
    assert list(slow.responses) == expected

    for a, b, node in zip(fast.nodes, slow.nodes, schedule.nodes):
        assert (a.busy_s, a.wake_s, a.sleep_s) == (
            b.busy_s, b.wake_s, b.sleep_s
        )
        assert a.busy_s == pytest.approx(
            sum(w.service_s for w in node.scheduled), rel=REL, abs=1e-12
        )
        assert a.wake_s == node.wake_s
        assert a.sleep_s == node.sleep_s(horizon)
        windows = [(w.start_s, w.end_s) for w in node.scheduled]
        for usage in (a, b):
            assert usage.sleep_spans == tuple(node.sleep_spans(horizon))
            assert usage.wake_spans == tuple(node.wake_log)
            starts, ends = usage.busy_columns
            assert list(zip(starts.tolist(), ends.tolist())) == windows
            assert usage.queries == sum(
                len(w.queries) for w in node.scheduled
            )
    assert fast.peak_power_w == slow.peak_power_w
    assert np.isfinite(fast.wall_joules)
