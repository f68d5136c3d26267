"""Deterministic fault injection for the cluster simulator.

The paper's energy claims are measured on a fleet where every node
wakes on command and finishes every batch; aggressive consolidation is
precisely the regime where a crash or a failed wake costs the most,
because the awake set is already minimal.  This module defines the
*plan* side of the fault-and-recovery layer: a seeded
:class:`FaultPlan` composed of :class:`FaultSpec` entries that the
simulator consults at every wake/assign/playback decision, plus the
:class:`RetryPolicy` that governs how lost work re-enters the schedule.

Fault kinds
-----------
``crash``
    The node dies at ``at_s`` (optionally recovering, powered off but
    wakeable again, at ``recover_s``).  In-flight busy windows and any
    per-node queue content are lost and requeued through the retry
    policy; partial work burnt before the crash is charged to the
    ``FaultReport`` as wasted joules.
``wake-failure``
    A wake call inside ``[start_s, end_s)`` fails with ``probability``
    (1.0 = always): the node stays asleep and the router must fall
    back.  Probabilistic outcomes draw from the plan's seeded RNG, so
    runs are reproducible.
``straggler``
    Busy windows placed on the node inside ``[start_s, end_s)`` run
    ``slowdown`` times longer than costed; the stretch is modeled as
    degraded occupancy (billed at awake-idle watts in playback).
``unavailable``
    Transient unresponsiveness over ``[start_s, end_s)``: routers and
    placements skip the node, but nothing in flight is lost.

Under an active :class:`~repro.cluster.placement.PlacementMap`, a
crash additionally triggers **re-replication**: every shard the dead
node held that falls below its replication target is copied from a
live replica to a node not yet holding it, as compiled-trace work
billed in joules on *both* endpoints and reported on the run's
:class:`~repro.cluster.measure.FaultReport` (``re_replications``,
``copy_s``, ``copy_joules``).

An **empty plan injects nothing and costs nothing**: every fault hook
in the node/simulator/router layers fast-paths out without touching
the RNG or perturbing any float, so schedules and energies are
identical to a run without a plan (the identity guard in
``tests/cluster/test_faults.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

#: The fault kinds a :class:`FaultSpec` may carry.
FAULT_KINDS = ("crash", "wake-failure", "straggler", "unavailable")

#: Numeric :class:`FaultSpec` fields, and whether each may be null.
_NUMERIC_FIELDS = {
    "at_s": False, "recover_s": True, "start_s": False, "end_s": True,
    "probability": False, "slowdown": False,
}


def json_number(path: str, value, nullable: bool = False):
    """``value`` read from a JSON document at ``path``, checked to be
    a finite number (or null when ``nullable``).

    Raises a ``ValueError`` naming the path, the offending value and
    what was expected, instead of letting a string or a list fail
    later inside arithmetic with a bare ``TypeError``.
    """
    if value is None and nullable:
        return None
    if (
        isinstance(value, bool) or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        expected = "a finite number" + (" or null" if nullable else "")
        raise ValueError(f"{path}: expected {expected}, got {value!r}")
    return value


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault on one node.

    The fields used depend on ``kind``: crashes use ``at_s`` and
    ``recover_s``; wake failures use ``probability`` over
    ``[start_s, end_s)``; stragglers use ``slowdown`` over
    ``[start_s, end_s)``; unavailability uses only the window.
    ``end_s=None`` means "until the end of the run".
    """

    kind: str
    node: str
    at_s: float = 0.0
    recover_s: float | None = None
    start_s: float = 0.0
    end_s: float | None = None
    probability: float = 1.0
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not self.node:
            raise ValueError("a fault needs a target node name")
        if self.kind == "crash":
            if self.at_s < 0:
                raise ValueError("crash at_s must be non-negative")
            if self.recover_s is not None and self.recover_s <= self.at_s:
                raise ValueError("recover_s must be after at_s")
        else:
            if self.start_s < 0:
                raise ValueError("start_s must be non-negative")
            if self.end_s is not None and self.end_s <= self.start_s:
                raise ValueError("end_s must be after start_s")
        if self.kind == "wake-failure":
            if not 0.0 < self.probability <= 1.0:
                raise ValueError("probability must be in (0, 1]")
        if self.kind == "straggler" and self.slowdown <= 1.0:
            raise ValueError("slowdown must be > 1")

    def in_window(self, t: float) -> bool:
        """Whether ``t`` falls inside the fault's active window."""
        end = math.inf if self.end_s is None else self.end_s
        return self.start_s <= t < end

    def to_dict(self) -> dict:
        """The ``--faults plan.json`` entry shape (round-trips through
        :meth:`FaultPlan.from_dict`)."""
        return asdict(self)


class FaultPlan:
    """A seeded, composable set of faults for one simulated run.

    The plan owns the run's fault RNG (wake-failure coin flips); the
    simulator calls :meth:`begin_run` before each ``schedule()`` so the
    same plan replayed over the same stream produces the same outcomes.
    Passing an external generator to :meth:`begin_run` threads one
    RNG through arrivals and faults end-to-end instead (the
    determinism-audit path); the plan then *keeps* consuming that
    stream across runs rather than reseeding.
    """

    def __init__(self, specs=(), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self._external_rng: np.random.Generator | None = None
        self._by_node: dict[str, list[FaultSpec]] = {}
        for spec in self.specs:
            self._by_node.setdefault(spec.node, []).append(spec)
        self.begin_run()

    @property
    def empty(self) -> bool:
        return not self.specs

    def begin_run(self, rng: np.random.Generator | None = None) -> None:
        """Reset per-run RNG state (fresh stream unless one is shared)."""
        if rng is not None:
            self._external_rng = rng
        if self._external_rng is not None:
            self._rng = self._external_rng
        else:
            self._rng = np.random.default_rng(self.seed)

    def _for(self, node: str, kind: str) -> list[FaultSpec]:
        return [
            s for s in self._by_node.get(node, ()) if s.kind == kind
        ]

    # -- the decision hooks ------------------------------------------------

    def crashes_for(self, node: str) -> list[FaultSpec]:
        """The node's crash specs, in time order."""
        return sorted(self._for(node, "crash"), key=lambda s: s.at_s)

    def wake_attempt(self, node: str, now_s: float) -> bool:
        """Outcome of one wake call at ``now_s`` (True = success).

        Probabilistic failures draw from the plan's RNG once per
        *matching* attempt, so outcomes are deterministic given the
        call sequence -- which the simulator's event order fixes.
        """
        for spec in self._for(node, "wake-failure"):
            if not spec.in_window(now_s):
                continue
            if spec.probability >= 1.0:
                return False
            if float(self._rng.uniform()) < spec.probability:
                return False
        return True

    def slowdown(self, node: str, t: float) -> float:
        """Service-time multiplier on ``node`` at ``t`` (1.0 = healthy);
        overlapping straggler windows compound."""
        factor = 1.0
        for spec in self._for(node, "straggler"):
            if spec.in_window(t):
                factor *= spec.slowdown
        return factor

    def available(self, node: str, t: float) -> bool:
        """False inside any transient-unavailability window."""
        return not any(
            spec.in_window(t) for spec in self._for(node, "unavailable")
        )

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Build a plan from the ``--faults plan.json`` schema:
        ``{"seed": 0, "faults": [{"kind": "crash", "node": "node01",
        "at_s": 30.0}, ...]}``.

        A malformed document raises a ``ValueError`` naming the field
        path (``faults[0].at_s``), the offending value and what was
        expected.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                'fault plan: expected an object {"seed": ..., '
                f'"faults": [...]}}, got {doc!r}'
            )
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed: expected an integer, got {seed!r}")
        entries = doc.get("faults", [])
        if not isinstance(entries, list):
            raise ValueError(
                f"faults: expected a list of faults, got {entries!r}"
            )
        specs = []
        for i, raw in enumerate(entries):
            path = f"faults[{i}]"
            if not isinstance(raw, dict):
                raise ValueError(
                    f"{path}: expected a fault object, got {raw!r}"
                )
            extra = set(raw) - {"kind", "node", *_NUMERIC_FIELDS}
            if extra:
                raise ValueError(f"{path}: unknown keys {sorted(extra)}")
            for key in ("kind", "node"):
                if not isinstance(raw.get(key), str):
                    raise ValueError(
                        f"{path}.{key}: expected a string, "
                        f"got {raw.get(key)!r}"
                    )
            for key, nullable in _NUMERIC_FIELDS.items():
                if key in raw:
                    json_number(f"{path}.{key}", raw[key], nullable)
            try:
                specs.append(FaultSpec(**raw))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        return cls(specs, seed=seed)

    def to_dict(self) -> dict:
        """The plan back in its JSON schema (fingerprinting, exports)."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }


def load_fault_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file."""
    with open(path) as handle:
        return FaultPlan.from_dict(json.load(handle))


@dataclass(frozen=True)
class RetryPolicy:
    """How lost or unplaceable queries re-enter the schedule.

    Each retry attempt waits ``backoff_s * multiplier**(attempt - 1)``
    of added queueing delay before re-dispatch; after ``max_attempts``
    failed attempts the query is dead-lettered -- shed with accounting,
    so it still counts as the hardest possible SLA miss.
    """

    max_attempts: int = 3
    backoff_s: float = 1.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return self.backoff_s * self.multiplier ** (attempt - 1)

    def exhausted(self, attempt: int) -> bool:
        """True once ``attempt`` retries have all failed."""
        return attempt >= self.max_attempts
