"""The loop tier's hot path: selection, service rows, cheap records.

The loop tier picks the earliest-completion node with one ``min`` pass
(:func:`~repro.cluster.routing.earliest_completion_node`) and falls
back to completion order only after a failed wake.  The earlier
sort-then-try-in-order selection is kept here as the oracle: over
seeded fleets under a fault plan (probabilistic wake failures, crashes,
unavailability windows) and a constraining placement map, both must
pick the same nodes, draw the fault RNG the same number of times, and
produce bitwise-identical runs.

Routers read service times from each node's pre-costed row
(``node.service``), which follows the node's PVC setting; the tests
below also pin that a retune is seen on the very next arrival and that
an uncosted setting fails with the descriptive ``KeyError``.

Idle gaps and span records are built without the general-purpose
constructors; they must stay equal to what those would build.
"""

import numpy as np
import pytest

from repro.cluster import (
    AdaptivePvcRouter,
    ClusterSimulator,
    FaultPlan,
    FaultSpec,
    LeastLoadedPlacement,
    LeastLoadedRouter,
    MasterQueue,
    RetryPolicy,
    generate_placement,
    uniform_fleet,
)
from repro.cluster.node import _idle_piece
from repro.cluster.routing import Decision
from repro.core.qed.policy import BatchPolicy
from repro.hardware.cpu import PvcSetting, VoltageDowngrade
from repro.hardware.trace import Idle, Trace
from repro.obs import SpanTracer
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.selection import selection_workload


def _completion_order(nodes, now_s, sql):
    return sorted(
        nodes, key=lambda n: max(now_s, n.ready_s) + n.service[sql]
    )


def _first_awake_or_woken(pool, now_s):
    for node in pool:
        if not node.awake:
            node.wake(now_s)
            if not node.awake:
                continue
        return node
    return None


def _oracle_route(self, sql, now_s, nodes):
    """The earlier rule: sort every serviceable node, try in order."""
    pool = _completion_order(
        [n for n in nodes if n.can_serve(now_s)], now_s, sql
    )
    return Decision(_first_awake_or_woken(pool, now_s), now_s)


def _oracle_place(self, batch, merged, now_s, nodes):
    pool = _completion_order(
        self._usable(nodes, now_s), now_s, batch.queries[0].sql
    )
    node = _first_awake_or_woken(pool, now_s)
    return [] if node is None else [(node, batch.queries)]


def _plan(names, seed):
    return FaultPlan(seed=seed, specs=[
        FaultSpec("crash", names[0], at_s=0.3, recover_s=0.6),
        FaultSpec("crash", names[1], at_s=0.5, recover_s=0.9),
        FaultSpec("crash", names[2], at_s=1.0, recover_s=1.2),
        FaultSpec("crash", names[3], at_s=0.2, recover_s=0.4),
        FaultSpec("wake-failure", names[0], probability=0.5),
        FaultSpec("wake-failure", names[1], probability=0.6),
        FaultSpec("wake-failure", names[3], probability=0.4),
        FaultSpec("unavailable", names[4], start_s=0.4, end_s=1.1),
    ])


def _run(db, monkeypatch, seed, master, route, place):
    """One faulted, placed run with ``route``/``place`` installed;
    returns the run, its simulator, and every decision taken."""
    decisions = []

    def recording_route(self, sql, now_s, nodes):
        decision = route(self, sql, now_s, nodes)
        node = decision.node
        decisions.append((sql, now_s, node and node.spec.name))
        return decision

    def recording_place(self, batch, merged, now_s, nodes):
        out = place(self, batch, merged, now_s, nodes)
        decisions.append((batch.dispatch_s, [
            (node.spec.name, len(queries)) for node, queries in out
        ]))
        return out

    monkeypatch.setattr(LeastLoadedRouter, "route", recording_route)
    monkeypatch.setattr(LeastLoadedPlacement, "place", recording_place)
    specs = uniform_fleet(6, wake_latency_s=0.05)
    names = [s.name for s in specs]
    queries = selection_workload(8).queries
    stream = poisson_arrivals(
        [queries[i % 8] for i in range(300)], 0.006, seed=seed
    )
    sim = ClusterSimulator(
        db, specs, LeastLoadedRouter(),
        master_queue=(
            MasterQueue(BatchPolicy(4, max_wait_s=0.03),
                        placement=LeastLoadedPlacement())
            if master else None
        ),
        faults=_plan(names, seed),
        retry=RetryPolicy(max_attempts=5, backoff_s=0.05),
        placement=generate_placement(names, shards=3, replicas=2),
    )
    return sim.run(stream), sim, decisions


class TestSelectionMatchesSortOracle:
    @pytest.mark.parametrize("master", [False, True],
                             ids=["router", "placement"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identical_decisions_and_runs(self, mysql_db, monkeypatch,
                                          seed, master):
        new, new_sim, new_decisions = _run(
            mysql_db, monkeypatch, seed, master,
            LeastLoadedRouter.route, LeastLoadedPlacement.place,
        )
        old, old_sim, old_decisions = _run(
            mysql_db, monkeypatch, seed, master,
            _oracle_route, _oracle_place,
        )
        assert new_decisions and new_decisions == old_decisions
        # Same failed wakes at the same times: the fault RNG was drawn
        # exactly as often, in the same order.
        new_wakes = [list(n.failed_wakes) for n in new_sim.nodes]
        assert new_wakes == [list(n.failed_wakes) for n in old_sim.nodes]
        assert sum(map(len, new_wakes)) > 0, "fallback never exercised"
        assert new.served == old.served
        assert len(new.shed) == len(old.shed)
        assert new.wall_joules == old.wall_joules
        assert new.run_id == old.run_id
        assert new.summary() == old.summary()


def _adaptive_run(db):
    queries = selection_workload(4).queries
    stream = poisson_arrivals(
        [queries[i % 4] for i in range(120)], 0.002, seed=4
    )
    sim = ClusterSimulator(
        db, uniform_fleet(2), AdaptivePvcRouter(deadline_s=0.01),
    )
    sim.schedule(stream, vectorized=False)
    return sim


class TestServiceRows:
    def test_retune_is_seen_on_the_very_next_arrival(self, mysql_db):
        sim = _adaptive_run(mysql_db)
        # Ladder rungs that differ only in voltage run equally fast;
        # at least one retune must change the service time itself.
        speed_changes = 0
        for node in sim.nodes:
            by_arrival = {
                work.queries[0][1]: work for work in node.scheduled
            }
            log = node.setting_log
            for (_, before), (t, after) in zip(log[1:], log[2:]):
                # The query that triggered the retune is the first to
                # run, and be costed, under the new setting.
                work = by_arrival[t]
                sql = work.trace_key
                new_s = node.costs[(node.spec.hw, after)][sql]
                old_s = node.costs[(node.spec.hw, before)][sql]
                assert work.setting == after
                assert work.end_s - work.start_s == pytest.approx(
                    new_s, rel=1e-12
                )
                speed_changes += new_s != old_s
        assert speed_changes > 0, "no retune changed a service time"

    def test_row_follows_the_setting(self, mysql_db):
        sim = _adaptive_run(mysql_db)
        for node in sim.nodes:
            assert node.service is node.costs[(node.spec.hw, node.setting)]

    def test_uncosted_setting_raises_descriptive_key_error(self,
                                                           mysql_db):
        uncosted = PvcSetting(15, VoltageDowngrade.MEDIUM)

        class RogueRetune(LeastLoadedRouter):
            """Retunes outside any declared ladder."""

            def route(self, sql, now_s, nodes):
                nodes[0].set_setting(uncosted, now_s)
                return super().route(sql, now_s, nodes)

        queries = selection_workload(2).queries
        sim = ClusterSimulator(mysql_db, uniform_fleet(2), RogueRetune())
        with pytest.raises(KeyError, match="no pre-costed duration for "
                           "node 'node00' under setting"):
            sim.schedule(
                poisson_arrivals(queries * 3, 0.01, seed=0),
                vectorized=False,
            )


class TestCheapRecords:
    @pytest.mark.parametrize("seconds", [1e-9, 0.25, 3600.0])
    def test_idle_piece_equals_compiled_idle_trace(self, seconds):
        piece = _idle_piece(seconds, "wake")
        reference = Trace([Idle(seconds, label="wake")]).compiled()
        assert piece.labels == reference.labels
        for column in ("kinds", "cycles", "utilization", "num_ops",
                       "bytes_total", "sequential", "write", "seconds"):
            got, want = getattr(piece, column), getattr(reference, column)
            assert got.dtype == want.dtype, column
            assert np.array_equal(got, want), column

    def test_idle_pieces_share_only_read_only_columns(self):
        a, b = _idle_piece(1.0, "idle"), _idle_piece(2.0, "idle")
        assert a.cycles is b.cycles and not a.cycles.flags.writeable
        assert a.seconds is not b.seconds

    def test_span_record_fields_and_export_shape(self):
        tracer = SpanTracer()
        arrival = tracer.arrival("q", 1.0)
        tracer.span("playback", "node00", 1.0, 1.5, queries=1)
        tracer.terminal("served", "q", 1.0, 1.5, track="node00")
        first, window, served = tracer.spans
        assert [s.span_id for s in tracer.spans] == [1, 2, 3]
        assert first.is_instant and not window.is_instant
        assert window.duration_s == 0.5
        assert served.parent_id == arrival and served.is_terminal
        assert served.to_dict() == {
            "type": "instant", "id": 3, "parent": arrival,
            "name": "served", "track": "node00", "start_s": 1.5,
            "end_s": 1.5, "args": {"sql": "q", "arrival_s": 1.0},
        }
        with pytest.raises(AttributeError):
            served.name = "shed"
