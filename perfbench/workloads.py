"""The benchmark's workloads, the layers it traces, and its correctness gate.

Every workload serves TPC-H SF 0.01 (``lineitem`` only, MySQL profile,
generator seed 0) on a fresh ``Database`` and ``ClusterSimulator``, the
way one ``repro cluster`` invocation does.  Arrivals are an open-loop
Poisson stream in *simulated* time whose seed is the benchmark's
``--seed``; the query lists are plain SQL strings built here.

The simulated outputs are not metrics but a correctness check: for a
seed listed in ``references.json`` they must equal the recorded values
(``served``, ``shed`` and ``run_id`` exactly, ``wall_joules`` and
``p99_response_s`` within 1e-9 relative), and every run must take the
scheduler path its workload names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.cluster.node
import repro.cluster.playback
import repro.core.qed.aggregator
import repro.core.qed.executor
import repro.db.sql.parser
import repro.obs.fingerprint
import repro.workloads.arrivals
from repro.cluster import (
    ClusterMeasurement,
    ClusterSimulator,
    LeastLoadedRouter,
    MasterQueue,
    RoundRobinRouter,
    SimulatedNode,
    uniform_fleet,
)
from repro.core.qed.policy import BatchPolicy
from repro.db.engine import Database
from repro.db.profiles import mysql_profile
from repro.hardware.system import SystemUnderTest
from repro.obs import MetricsRegistry, SpanTracer
from repro.workloads.runner import WorkloadRunner
from repro.workloads.selection import selection_query
from repro.workloads.tpch.generator import tpch_database

from perfbench.ledger import Target

SCALE_FACTOR = 0.01
REFERENCES = Path(__file__).with_name("references.json")
#: Relative tolerance for the float outputs.
REL_TOL = 1e-9
COLUMNAR = "columnar"
LOOP = "loop"


def cycled_selections(distinct: int, count: int) -> list[str]:
    """``count`` queries cycling ``distinct`` equality selections on
    ``l_quantity`` 1..distinct."""
    base = [selection_query(q) for q in range(1, distinct + 1)]
    return [base[i % distinct] for i in range(count)]


def qed_mix(count: int) -> list[str]:
    """20 base selections; every 17th query the two-column template on
    quantities 21-25, every 67th the non-mergeable ORDER BY ... LIMIT 5
    shape on quantities 21-23."""
    base = [selection_query(q) for q in range(1, 21)]
    out = []
    for i in range(count):
        if i % 67 == 66:
            out.append(
                "SELECT l_orderkey FROM lineitem WHERE l_quantity = "
                f"{21 + i % 3} ORDER BY l_orderkey LIMIT 5"
            )
        elif i % 17 == 16:
            out.append(
                "SELECT l_orderkey, l_extendedprice FROM lineitem "
                f"WHERE l_quantity = {21 + i % 5}"
            )
        else:
            out.append(base[i % 20])
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    router: type
    #: Arrivals per iteration, sized so one iteration takes 1-2 s and a
    #: run spans tens of iterations.
    arrivals: int
    mean_gap_s: float
    seed: int
    #: Scheduler path every run must take: ``columnar`` or ``loop``.
    path: str
    queries: Callable[[int], list[str]]
    #: Attach a SpanTracer and a MetricsRegistry (forces the loop).
    observed: bool = False
    #: Serve through a master QED queue (BatchPolicy(16, 0.4 s)).
    qed_master: bool = False
    #: Layers whose self time must be at least half the traced wall
    #: time, the workload's stated reason for existing.
    dominant: tuple[str, ...] = ()


#: Why each workload exists is stated in ``BENCHMARK.json``; in short:
#: ``spread-1m`` is the vectorized tier (arrival generation and schedule()
#: ingest), ``least-loaded-traced`` the per-arrival loop tier (routing and
#: tracer emission), ``qed-master`` the paper's QED deployment (parse and
#: execute of each new merged statement, the execution cache's miss side).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="spread-1m",
        nodes=100, router=RoundRobinRouter, arrivals=250_000,
        mean_gap_s=0.01, seed=7, path=COLUMNAR,
        queries=lambda n: cycled_selections(50, n),
        dominant=("arrivals.generate", "simulator.schedule"),
    ),
    Workload(
        name="least-loaded-traced",
        nodes=32, router=LeastLoadedRouter, arrivals=10_000,
        mean_gap_s=0.01, seed=7, path=LOOP,
        queries=lambda n: cycled_selections(50, n),
        observed=True,
        dominant=("routing.route", "obs.tracer"),
    ),
    Workload(
        name="qed-master",
        nodes=8, router=LeastLoadedRouter, arrivals=4_000,
        mean_gap_s=0.01, seed=11, path=LOOP,
        queries=qed_mix, qed_master=True,
        dominant=("sql.parse", "db.execute"),
    ),
)}


def load_database() -> Database:
    return tpch_database(SCALE_FACTOR, mysql_profile(), seed=0,
                         tables=["lineitem"])


def build_simulator(workload: Workload, db: Database) -> ClusterSimulator:
    """A fresh fleet and simulator for one run of ``workload``."""
    master_queue = (
        MasterQueue(BatchPolicy(16, max_wait_s=0.4))
        if workload.qed_master else None
    )
    observed = workload.observed
    return ClusterSimulator(
        db, uniform_fleet(workload.nodes), workload.router(),
        master_queue=master_queue,
        tracer=SpanTracer() if observed else None,
        metrics=MetricsRegistry(window_s=30.0) if observed else None,
    )


def generate_arrivals(queries: list[str], workload: Workload, seed: int):
    """The Poisson arrival stream, looked up through its module so a
    ledger wrapper sees the call."""
    return repro.workloads.arrivals.poisson_arrivals(
        queries, workload.mean_gap_s, seed=seed
    )


@dataclass(frozen=True)
class Outputs:
    """The simulated outputs the correctness gate compares."""

    served: int
    shed: int
    run_id: str
    wall_joules: float
    p99_response_s: float
    path: str

    @property
    def terminal(self) -> int:
        """Arrivals that reached a terminal state; the shed list also
        holds dead-lettered arrivals."""
        return self.served + self.shed

    def record(self) -> dict:
        return {
            "served": self.served, "shed": self.shed,
            "run_id": self.run_id, "wall_joules": self.wall_joules,
            "p99_response_s": self.p99_response_s,
        }


def outputs_of(summary: dict, schedule) -> Outputs:
    return Outputs(
        served=int(summary["served"]),
        shed=int(summary["shed"]),
        run_id=str(summary["run_id"]),
        wall_joules=float(summary["wall_joules"]),
        p99_response_s=float(summary["p99_response_s"]),
        path=COLUMNAR if schedule.columnar is not None else LOOP,
    )


def reference_key(workload: Workload, arrivals: int, seed: int) -> str:
    return f"{workload.name}/{arrivals}/{seed}"


def load_references() -> dict[str, dict]:
    return json.loads(REFERENCES.read_text())


def gate(outputs: Outputs, workload: Workload, arrivals: int,
         reference: dict | None) -> list[str]:
    """Reasons the run is wrong; empty when it passes.

    Without a recorded ``reference`` only the invariants are checked:
    the named scheduler path, and every arrival ending in exactly one
    terminal state.
    """
    problems = []
    if outputs.path != workload.path:
        problems.append(
            f"took the {outputs.path} scheduler path, expected "
            f"{workload.path}"
        )
    if outputs.terminal != arrivals:
        problems.append(
            f"{outputs.terminal} terminal arrivals of {arrivals}"
        )
    if reference is None:
        return problems
    for key in ("served", "shed", "run_id"):
        if getattr(outputs, key) != reference[key]:
            problems.append(
                f"{key} {getattr(outputs, key)!r} != recorded "
                f"{reference[key]!r}"
            )
    for key in ("wall_joules", "p99_response_s"):
        if not math.isclose(getattr(outputs, key), reference[key],
                            rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(
                f"{key} {getattr(outputs, key)!r} != recorded "
                f"{reference[key]!r} within {REL_TOL:g} relative"
            )
    return problems


def layer_targets(router: type) -> list[Target]:
    """``(layer, owner, attribute)`` for every traced layer."""
    return [
        ("arrivals.generate", repro.workloads.arrivals, "poisson_arrivals"),
        ("simulator.schedule", ClusterSimulator, "schedule"),
        ("simulator.playback", ClusterSimulator, "playback"),
        ("fingerprint", repro.obs.fingerprint, "config_fingerprint"),
        ("fingerprint", repro.obs.fingerprint, "run_id_for"),
        ("runner.cached_execution", WorkloadRunner, "cached_execution"),
        ("db.execute", Database, "execute"),
        ("sql.parse", repro.db.sql.parser, "parse"),
        ("qed.merge", repro.core.qed.aggregator, "merge_queries"),
        ("qed.merged_execution", repro.core.qed.executor,
         "merged_batch_execution"),
        ("master_queue", MasterQueue, "submit"),
        ("master_queue", MasterQueue, "expired"),
        ("master_queue", MasterQueue, "drain"),
        ("hardware.run_compiled", SystemUnderTest, "run_compiled"),
        ("hardware.run_compiled", SystemUnderTest, "run_compiled_batch"),
        ("routing.route", router, "route"),
        ("routing.route_chunk", router, "route_chunk"),
        ("node.assign", SimulatedNode, "assign"),
        ("node.timeline_pieces", repro.cluster.node,
         "node_timeline_pieces"),
        ("playback.columnar", repro.cluster.playback, "play_columnar"),
        ("playback.batched", repro.cluster.playback, "play_batched"),
        ("measure.summary", ClusterMeasurement, "summary"),
    ] + [
        ("obs.tracer", SpanTracer, name)
        for name in ("begin_run", "arrival", "instant", "span",
                     "parent_of", "dispatch", "terminal", "finish")
    ] + [
        ("obs.metrics", MetricsRegistry, name)
        for name in ("counter", "gauge", "histogram")
    ]


#: Layer names in report order.
LAYERS = tuple(dict.fromkeys(
    layer for layer, _owner, _name in layer_targets(RoundRobinRouter)
))
