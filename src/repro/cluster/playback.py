"""Fleet playback: scheduled timelines become per-node energy.

:func:`play_columnar` is the one production playback.  Every schedule
reaches it as a :class:`~repro.cluster.simulator.ColumnarSchedule`,
and a node's energy is its per-(setting, trace key) execution counts
dotted with the schedule phase's pre-costed measurements, plus each
setting's per-second idle draw times its idle seconds.  Nothing is
re-costed, so playback is independent of the arrival count.

Two references replay the compiled-trace pieces a loop schedule
derives on demand: :func:`play_loop` (one ``run_compiled`` call per
piece) is the ``playback(mode="loop")`` oracle, and
:func:`play_batched` (one stacked ``run_compiled_batch`` call per
``(hw, setting)`` pair) is the stacked-piece reference the
conservation tests check and the benchmark's per-layer ledger names.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.measure import zero_measurement
from repro.cluster.node import SimulatedNode
from repro.hardware.cpu import PvcSetting
from repro.hardware.disk import DiskEnergy
from repro.hardware.system import RunMeasurement
from repro.hardware.trace import CompiledTrace, Idle, Trace

#: Functions below accept any node-shaped object exposing ``spec`` and
#: ``sut`` -- live :class:`SimulatedNode`\ s during scheduling, frozen
#: :class:`~repro.cluster.simulator.NodeTimeline` snapshots during
#: playback.


def playback_groups(
    nodes: list[SimulatedNode],
) -> list[list[SimulatedNode]]:
    """Partition nodes into playback-equivalent groups: same hardware
    profile, same (spec) PVC setting."""
    groups: dict[object, list[SimulatedNode]] = {}
    for node in nodes:
        groups.setdefault((node.spec.hw, node.spec.setting), []).append(node)
    return list(groups.values())


def _node_settings(
    node, pieces: list[CompiledTrace],
    settings_by_node: dict[str, list[PvcSetting]] | None,
) -> list[PvcSetting]:
    """Per-piece settings for one node (spec setting when not given)."""
    if settings_by_node is None:
        return [node.spec.setting] * len(pieces)
    settings = settings_by_node[node.spec.name]
    if len(settings) != len(pieces):
        raise ValueError(
            f"node {node.spec.name!r}: {len(settings)} settings for "
            f"{len(pieces)} pieces"
        )
    return settings


def _setting_runs(
    pieces: list[CompiledTrace], settings: list[PvcSetting],
) -> list[tuple[PvcSetting, list[CompiledTrace]]]:
    """Split a timeline into maximal same-setting runs, in order."""
    runs: list[tuple[PvcSetting, list[CompiledTrace]]] = []
    for piece, setting in zip(pieces, settings):
        if runs and runs[-1][0] == setting:
            runs[-1][1].append(piece)
        else:
            runs.append((setting, [piece]))
    return runs


def play_batched(
    nodes: list[SimulatedNode],
    pieces_by_node: dict[str, list[CompiledTrace]],
    workload_class: str,
    settings_by_node: dict[str, list[PvcSetting]] | None = None,
) -> dict[str, RunMeasurement]:
    """Reference: one stacked playback call per distinct (hw, setting)
    pair over a loop schedule's compiled-trace pieces.

    Each node's same-setting piece runs concatenate into stacked
    traces; every equivalent run across the fleet joins one
    :meth:`~repro.hardware.system.SystemUnderTest.run_compiled_batch`
    call, whose per-trace slice sums come back as per-node measurements
    (summed across a node's runs when it was retuned mid-flight).
    """
    out: dict[str, RunMeasurement] = {
        node.spec.name: zero_measurement() for node in nodes
    }
    buckets: dict[object, list[tuple[str, CompiledTrace]]] = {}
    sut_for: dict[object, object] = {}
    for node in nodes:
        pieces = pieces_by_node[node.spec.name]
        settings = _node_settings(node, pieces, settings_by_node)
        for setting, run_pieces in _setting_runs(pieces, settings):
            key = (node.spec.hw, setting)
            buckets.setdefault(key, []).append(
                (node.spec.name, CompiledTrace.concat(run_pieces))
            )
            sut_for.setdefault(key, node.sut)
    for key, entries in buckets.items():
        sut = sut_for[key]
        original = sut.setting
        sut.apply_setting(key[1])
        try:
            measurements = sut.run_compiled_batch(
                [trace for _, trace in entries], workload_class
            )
        finally:
            sut.apply_setting(original)
        for (name, _), measurement in zip(entries, measurements):
            out[name] = out[name] + measurement
    return out


#: One second of idle, compiled once: played under a (hw, setting)
#: pair it yields that pair's idle draw in watts, and idle energy is
#: strictly linear in idle seconds (constant powers per idle segment),
#: so every idle second in a columnar schedule costs one multiply.
_IDLE_SECOND = Trace([Idle(1.0, label="idle")]).compiled()

_ZERO = zero_measurement()

#: RunMeasurement scalar fields in matrix order (disk energy unrolled
#: onto its two rails so every field scales linearly).
_FIELD_COUNT = 9


def _measurement_fields(ms: list[RunMeasurement]) -> np.ndarray:
    """Stack measurements into a (field, trace) matrix for dot products."""
    return np.array([
        [m.duration_s, m.cpu_joules, m.memory_joules,
         m.disk_energy.joules_5v, m.disk_energy.joules_12v,
         m.board_joules, m.gpu_joules, m.fan_joules, m.wall_joules]
        for m in ms
    ], dtype=np.float64).reshape(len(ms), _FIELD_COUNT).T


def _measurement_from_fields(v: np.ndarray) -> RunMeasurement:
    return RunMeasurement(
        duration_s=float(v[0]), cpu_joules=float(v[1]),
        memory_joules=float(v[2]),
        disk_energy=DiskEnergy(float(v[3]), float(v[4])),
        board_joules=float(v[5]), gpu_joules=float(v[6]),
        fan_joules=float(v[7]), wall_joules=float(v[8]),
    )


def play_columnar(
    nodes: list[SimulatedNode],
    columnar,
    workload_class: str,
) -> dict[str, RunMeasurement]:
    """Per-node energy of a columnar schedule: per setting, execution
    counts per trace key dotted with the ``(hw, setting)`` pair's
    measurements, plus its per-second idle draw times idle seconds."""
    keys = columnar.keys
    n_keys = len(keys)
    n_settings = len(columnar.settings)
    fields: dict[object, np.ndarray] = {}
    idle_rates: dict[object, np.ndarray] = {}
    out: dict[str, RunMeasurement] = {}
    for j, node in enumerate(nodes):
        rows = columnar.rows_for(j)
        counts = np.bincount(
            columnar.setting_idx[rows] * n_keys + columnar.key_idx[rows],
            minlength=n_settings * n_keys,
        ).reshape(n_settings, n_keys)
        total = np.zeros(_FIELD_COUNT)
        for s, setting in enumerate(columnar.settings):
            key = (node.spec.hw, setting)
            if counts[s].any():
                if key not in fields:
                    # Keys never measured under this pair have no rows
                    # under it (their counts are zero).
                    measured = columnar.costed[key]
                    fields[key] = _measurement_fields(
                        [measured.get(k, _ZERO) for k in keys]
                    )
                total = total + fields[key] @ counts[s]
            idle_s = columnar.idle_s[j, s]
            if idle_s > 0.0:
                if key not in idle_rates:
                    idle_rates[key] = _idle_rate(
                        node.sut, setting, workload_class
                    )
                total = total + idle_rates[key] * idle_s
        out[node.spec.name] = _measurement_from_fields(total)
    return out


def _idle_rate(sut, setting: PvcSetting, workload_class: str) -> np.ndarray:
    """One second of awake idle under ``setting``, as a field vector."""
    original = sut.setting
    sut.apply_setting(setting)
    try:
        per_second = sut.run_compiled(_IDLE_SECOND, workload_class)
    finally:
        sut.apply_setting(original)
    return _measurement_fields([per_second])[:, 0]


def play_loop(
    nodes: list[SimulatedNode],
    pieces_by_node: dict[str, list[CompiledTrace]],
    workload_class: str,
    settings_by_node: dict[str, list[PvcSetting]] | None = None,
) -> dict[str, RunMeasurement]:
    """The per-query replay loop: one playback call per scheduled piece.

    The reference implementation: ``playback(mode="loop")`` and the
    cluster scaling benchmark compare :func:`play_columnar` against it.
    """
    out: dict[str, RunMeasurement] = {}
    for node in nodes:
        pieces = pieces_by_node[node.spec.name]
        settings = _node_settings(node, pieces, settings_by_node)
        total = zero_measurement()
        original = node.sut.setting
        try:
            for piece, setting in zip(pieces, settings):
                if node.sut.setting != setting:
                    node.sut.apply_setting(setting)
                total = total + node.sut.run_compiled(piece, workload_class)
        finally:
            node.sut.apply_setting(original)
        out[node.spec.name] = total
    return out
