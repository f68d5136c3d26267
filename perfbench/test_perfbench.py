"""Tests of the benchmark itself, at tiny arrival counts.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.ledger import Ledger

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 300

wl = bench.import_program()


def _run(name: str, trace: bool, references: dict | None = None) -> dict:
    return bench.run(name, seed=None, seconds=0.0, trace=trace,
                     arrivals=TINY,
                     references={} if references is None else references,
                     log=lambda _msg: None)


def _wrapped_layers(targets) -> set[str]:
    """Layers still wrapped at a target or in any loaded repro module."""
    values = [getattr(owner, name) for _layer, owner, name in targets]
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "") or "").startswith("repro"):
            values.extend(vars(module).values())
    return {
        value.__perfbench_layer__ for value in values
        if callable(value) and hasattr(value, "__perfbench_layer__")
    }


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(bench.WORKLOAD_NAMES)
    assert set(bench.WORKLOAD_NAMES) == set(wl.WORKLOADS)


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    out = _run(name, trace=False)
    result = out["result"]
    assert result["correct"], out["record"]["problems"]
    # one warm-up iteration, gated but not timed, then one timed
    assert result["attempted"] == 2 and result["failed"] == 0
    assert out["record"]["iterations"] == {"untraced": 1, "traced": 0}
    assert _units(result) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    host = out["record"]["host"]
    for key in ("platform", "cpu_count", "python", "numpy", "git_commit"):
        assert host[key]
    assert out["record"]["seed"] == wl.WORKLOADS[name].seed
    assert out["record"]["arrivals"] == TINY
    # host times are the raw ones scaled by the calibration kernel
    scale, raw = out["record"]["host_scale"], out["record"]["raw"]
    metrics = result["metrics"]
    assert metrics["arrivals_per_s"]["value"] == pytest.approx(
        raw["arrivals_per_s"] / scale)
    assert metrics["setup_s"]["value"] == pytest.approx(
        raw["setup_s"] * scale)


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric_and_unwraps(name):
    workload = wl.WORKLOADS[name]
    targets = wl.layer_targets(workload.router)
    out = _run(name, trace=True)
    result = out["result"]
    # correct also covers traced outputs == untraced outputs exactly
    assert result["correct"], out["record"]["problems"]
    assert result["attempted"] == 3
    assert out["record"]["iterations"] == {"untraced": 1, "traced": 1}
    assert _units(result) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert out["record"]["checks"]["ledger_closure"]["passed"]
    metrics = result["metrics"]
    assert metrics["simulator.schedule.calls"]["value"] == 1
    assert metrics["db.execute.calls"]["value"] > 0
    assert 0.0 <= metrics["runner.hit_ratio"]["value"] <= 1.0
    assert _wrapped_layers(targets) == set()


def test_dominant_layers_below_the_floor_fail_the_run(monkeypatch):
    monkeypatch.setattr(bench, "DOMINANT_FLOOR", 1.01)
    monkeypatch.setitem(wl.WORKLOADS, "qed-master", dataclasses.replace(
        wl.WORKLOADS["qed-master"], arrivals=TINY))
    out = _run("qed-master", trace=True)
    assert not out["result"]["correct"]
    assert any("dominant layers" in p for p in out["record"]["problems"])


def test_perturbed_reference_fails_the_gate():
    workload = wl.WORKLOADS["qed-master"]
    key = wl.reference_key(workload, TINY, workload.seed)
    out = _run("qed-master", trace=False)
    recorded = out["record"]["outputs"]
    outputs = wl.Outputs(path=wl.LOOP, **recorded)
    assert wl.gate(outputs, workload, TINY, recorded) == []
    for field, value in (
        ("wall_joules", recorded["wall_joules"] * (1 + 1e-7)),
        ("p99_response_s", recorded["p99_response_s"] * (1 - 1e-7)),
        ("served", recorded["served"] - 1),
        ("shed", recorded["shed"] + 1),
        ("run_id", "000000000000"),
    ):
        perturbed = dict(recorded, **{field: value})
        assert wl.gate(outputs, workload, TINY, perturbed), field
    perturbed = dict(recorded, wall_joules=recorded["wall_joules"] * 1.001)
    result = _run("qed-master", False, {key: perturbed})["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert _run("qed-master", False, {key: recorded})["result"]["correct"]


def test_gate_refuses_the_wrong_scheduler_path():
    workload = wl.WORKLOADS["spread-1m"]
    outputs = wl.Outputs(served=TINY, shed=0, run_id="x", wall_joules=1.0,
                         p99_response_s=1.0, path=wl.COLUMNAR)
    assert wl.gate(outputs, workload, TINY, None) == []
    fallback = dataclasses.replace(outputs, path=wl.LOOP)
    assert wl.gate(fallback, workload, TINY, None)
    lost = dataclasses.replace(outputs, served=TINY - 1)
    assert wl.gate(lost, workload, TINY, None)


def test_recorded_references_cover_the_default_seeds():
    references = wl.load_references()
    for workload in wl.WORKLOADS.values():
        key = wl.reference_key(workload, workload.arrivals, workload.seed)
        assert key in references, key


class _Owner:
    def outer(self, clock):
        clock.advance(10)
        self.inner(clock)
        clock.advance(5)

    def inner(self, clock):
        clock.advance(100)

    def boom(self):
        raise ValueError("boom")


class _FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_calibration_kernel_leaves_the_collector_as_it_found_it():
    from perfbench import calibration

    assert gc.isenabled()
    assert calibration.kernel() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibration.kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_ledger_charges_self_time_and_restores_on_error():
    clock = _FakeClock()
    ledger = Ledger(clock=clock)
    targets = [("outer", _Owner, "outer"), ("inner", _Owner, "inner"),
               ("boom", _Owner, "boom")]
    original = _Owner.__dict__["outer"]
    with pytest.raises(ValueError):
        with ledger.installed(targets):
            _Owner().outer(clock)
            _Owner().boom()
    assert _Owner.__dict__["outer"] is original
    assert ledger.self_ns["outer"] == 15
    assert ledger.self_ns["inner"] == 100
    assert ledger.calls == {"outer": 1, "inner": 1, "boom": 1}
    assert ledger.top_level_ns == 115


def test_cli_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spread-1m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert time.perf_counter() - start < 60
