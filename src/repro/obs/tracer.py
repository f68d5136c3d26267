"""Per-query span tracing for the cluster simulator.

A trace is a flat list of :class:`Span` records on named *tracks*
(``master`` for the coordinator, one track per node), each either a
duration span or an instant, with an explicit parent link back to the
query's arrival record.  One query's life reads as a causal chain:

    arrival -> queue-wait -> dispatch -> [wake] -> [merge] ->
    playback -> served | shed | dead-letter

plus fault events (``crash``, ``recover``, ``retry``, ``wake-failure``)
interleaved on the tracks where they fired.  Exactly one *terminal*
span (:data:`TERMINAL_PHASES`) exists per arrival -- the conservation
invariant the observability tests pin.

The default :class:`Tracer` is disabled and does nothing; the simulator
guards every hook behind ``tracer.enabled``, so a run without tracing
pays only dead branch checks.  :class:`SpanTracer` records everything.
"""

from __future__ import annotations

from typing import Any, NamedTuple

#: Phases that end a query's life.  Every arrival gets exactly one.
TERMINAL_PHASES = ("served", "shed", "dead-letter")

#: Track name of the coordinator (arrivals, queueing, dispatch, retry).
MASTER_TRACK = "master"


class Span(NamedTuple):
    """One trace record: a duration span or an instant on a track.

    A named tuple rather than a frozen dataclass: a traced run builds
    several records per arrival, and a tuple is the cheapest immutable
    record to construct.
    """

    span_id: int
    parent_id: int | None
    name: str
    track: str
    start_s: float
    end_s: float
    args: dict

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def is_instant(self) -> bool:
        return self.end_s == self.start_s  # repro: noqa[FLOAT-EQ]: instants copy start_s into end_s exactly

    @property
    def is_terminal(self) -> bool:
        return self.name in TERMINAL_PHASES

    def to_dict(self) -> dict:
        return {
            "type": "instant" if self.is_instant else "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "track": self.track,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "args": self.args,
        }


class Tracer:
    """No-op base tracer: the zero-cost default.

    Every simulator hook checks :attr:`enabled` before calling any
    method, so these bodies exist only as a safety net (a direct call
    on a disabled tracer must still be harmless).
    """

    enabled = False

    def begin_run(self, metadata: dict) -> None:
        pass

    def arrival(self, sql: str, t_s: float) -> int:
        return 0

    def instant(self, name: str, track: str, t_s: float,
                parent: int | None = None, **args: Any) -> int:
        return 0

    def span(self, name: str, track: str, start_s: float, end_s: float,
             parent: int | None = None, **args: Any) -> int:
        return 0

    def dispatch(self, partition: str, batch: Any) -> None:
        pass

    def terminal(self, name: str, sql: str, arrival_s: float,
                 t_s: float, track: str = MASTER_TRACK,
                 **args: Any) -> int:
        return 0

    def finish(self, horizon_s: float) -> None:
        pass


#: Shared disabled tracer (stateless, safe to share across simulators).
NULL_TRACER = Tracer()


class SpanTracer(Tracer):
    """Recording tracer: collects :class:`Span` records for export.

    Reusable across runs -- :meth:`begin_run` resets all state, so one
    tracer handed to a simulator always holds the *latest* run's trace.
    """

    enabled = True

    def __init__(self) -> None:
        self.begin_run({})

    def begin_run(self, metadata: dict) -> None:
        self.metadata: dict = dict(metadata)
        self.spans: list[Span] = []
        self.horizon_s: float = 0.0
        #: (sql, arrival_s) -> arrival span id, the parent of every
        #: later record in that query's causal chain.
        self._arrival_ids: dict[tuple[str, float], int] = {}

    # -- recording --------------------------------------------------------

    def _record(self, name: str, track: str, start_s: float,
                end_s: float, parent: int | None, args: dict) -> int:
        """Append one record; ids count up from 1 in record order."""
        spans = self.spans
        span_id = len(spans) + 1
        spans.append(
            Span(span_id, parent, name, track, start_s, end_s, args)
        )
        return span_id

    def instant(self, name: str, track: str, t_s: float,
                parent: int | None = None, **args: Any) -> int:
        return self._record(name, track, t_s, t_s, parent, args)

    def span(self, name: str, track: str, start_s: float, end_s: float,
             parent: int | None = None, **args: Any) -> int:
        return self._record(name, track, start_s, end_s, parent, args)

    def arrival(self, sql: str, t_s: float) -> int:
        span_id = self._record(
            "arrival", MASTER_TRACK, t_s, t_s, None, {"sql": sql}
        )
        self._arrival_ids[(sql, t_s)] = span_id
        return span_id

    def parent_of(self, sql: str, arrival_s: float) -> int | None:
        return self._arrival_ids.get((sql, arrival_s))

    def dispatch(self, partition: str, batch: Any) -> None:
        """One batch leaving an admission queue: a dispatch instant on
        the master track plus a queue-wait span per member query."""
        dispatch_id = self.instant(
            "dispatch", MASTER_TRACK, batch.dispatch_s,
            partition=partition, size=batch.size,
        )
        for q in batch.queries:
            if batch.dispatch_s - q.arrival_s > 1e-12:
                self.span(
                    "queue-wait", MASTER_TRACK, q.arrival_s,
                    batch.dispatch_s,
                    parent=self.parent_of(q.sql, q.arrival_s),
                    sql=q.sql, partition=partition,
                    dispatch=dispatch_id,
                )

    def terminal(self, name: str, sql: str, arrival_s: float,
                 t_s: float, track: str = MASTER_TRACK,
                 **args: Any) -> int:
        if name not in TERMINAL_PHASES:
            raise ValueError(f"{name!r} is not a terminal phase")
        return self._record(
            name, track, t_s, t_s, self._arrival_ids.get((sql, arrival_s)),
            {"sql": sql, "arrival_s": arrival_s, **args},
        )

    def finish(self, horizon_s: float) -> None:
        self.horizon_s = horizon_s

    # -- views ------------------------------------------------------------

    @property
    def tracks(self) -> list[str]:
        """Track names in stable order: master first, then by name."""
        names = {s.track for s in self.spans}
        names.discard(MASTER_TRACK)
        return [MASTER_TRACK] + sorted(names)

    def terminal_spans(self) -> list[Span]:
        return [s for s in self.spans if s.is_terminal]
