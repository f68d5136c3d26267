"""The repository benchmark: cluster-simulator workloads timed end to end.

Run from the repository root::

    python3 perfbench/run.py --workload spread-1m --seed 7 --seconds 42

One process, one thread, one simulation at a time (a closed loop with a
single client).  Each iteration builds a fresh TPC-H database and
``ClusterSimulator`` and times generate -> ``schedule()`` ->
``playback()`` -> ``summary()``; iterations repeat while the next one
is expected to end within ``--seconds``.  Every iteration's simulated
outputs go through the correctness gate in :mod:`perfbench.workloads`.

``--trace 0`` reports the end-to-end metrics:

* ``arrivals_per_s``: arrivals reaching a terminal state per host
  second over all timed iterations (every one after the first, which
  warms up) -- the whole run's rate, which averages short changes in
  the host's speed where a median of per-iteration rates follows them;
* ``setup_s``: start of :func:`main` to the first timed call -- the
  program's imports, once per process, plus the TPC-H load and fleet
  construction, which every iteration repeats and whose median counts;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The two times are scaled to a reference host speed by the calibration
kernel of :mod:`perfbench.calibration`, run before every iteration,
since a shared host's speed drifts by tens of percent over minutes; the
raw values are in the record.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer ledger (:mod:`perfbench.ledger`): self time per arrival and
calls per iteration for each layer, the runner's hit ratio, the QED
merged ratio, time outside every traced layer, and the tracing overhead.
Traced outputs must equal the untraced ones exactly, the traced
layers must cover all but 5% of traced wall time, and at the workload's
own arrival count its dominant layers must keep at least a quarter of
it.  Half is the workload's stated reason; between a quarter and half
the check reads FAIL without failing the run, so a change that shrinks
a dominant layer is not refused for it.

Progress and a JSON record with host metadata go to standard output;
the last line is the result object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 2 when the program cannot be imported
from ``src/`` next to this directory, 1 when no iteration completed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

#: Thread-pool caps for BLAS and OpenMP; :func:`main` sets them before
#: anything imports numpy, which reads them once at import.
THREAD_CAPS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spread-1m", "least-loaded-traced", "qed-master")
#: Largest share of traced wall time allowed outside every traced layer.
UNATTRIBUTED_MAX = 0.05
#: Smallest share of traced wall time a workload's dominant layers must
#: take for its stated reason to hold.
DOMINANT_MIN = 0.50
#: Below this share the workload no longer exercises its layers and the
#: run fails.
DOMINANT_FLOOR = 0.25


class ProgramUnavailable(RuntimeError):
    """The program's sources are not next to the benchmark."""


def import_program():
    """Import the benchmark's workload module against ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramUnavailable(f"no program sources under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise ProgramUnavailable(
            f"repro imported from {repro.__file__}, not from {SRC}"
        )
    from perfbench import workloads

    return workloads


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAPS},
    }


@dataclass(frozen=True)
class Iteration:
    """One fresh simulation of a workload."""

    outputs: object
    summary: dict
    #: TPC-H load and fleet construction.
    setup_s: float
    #: The timed interval, arrival generation through ``summary()``.
    wall_s: float
    cache_hits: int
    cache_misses: int


def run_iteration(wl, workload, queries: list[str], seed: int,
                  ledger=None) -> Iteration:
    """One fresh simulation.

    The timed interval runs from the call to the arrival generator
    through ``summary()``; with a ``ledger`` its wrappers are installed
    around exactly that interval.
    """
    start = time.perf_counter()
    sim = wl.build_simulator(workload, wl.load_database())
    setup_s = time.perf_counter() - start
    gc.collect()
    with (
        ledger.installed(wl.layer_targets(type(sim.router)))
        if ledger is not None else contextlib.nullcontext()
    ):
        start = time.perf_counter()
        arrivals = wl.generate_arrivals(queries, workload, seed)
        schedule = sim.schedule(arrivals)
        measurement = sim.playback(schedule)
        summary = measurement.summary()
        wall_s = time.perf_counter() - start
    return Iteration(
        outputs=wl.outputs_of(summary, schedule), summary=summary,
        setup_s=setup_s, wall_s=wall_s,
        cache_hits=sim.runner.execution_cache_hits,
        cache_misses=sim.runner.execution_cache_misses,
    )


def run(workload_name: str, seed: int | None, seconds: float, trace: bool,
        arrivals: int | None = None, references: dict | None = None,
        started: float | None = None, log=print) -> dict:
    """Measure one workload; returns the result object and a record.

    ``arrivals`` overrides the workload's arrival count (tests use tiny
    counts); ``references`` overrides ``references.json``; ``started``
    is the ``perf_counter()`` reading ``setup_s`` counts from (default:
    this call).
    """
    if started is None:
        started = time.perf_counter()
    wl = import_program()
    imports_s = time.perf_counter() - started
    from perfbench import calibration
    from perfbench.ledger import Ledger

    workload = wl.WORKLOADS[workload_name]
    seed = workload.seed if seed is None else seed
    count = workload.arrivals if arrivals is None else arrivals
    if references is None:
        references = wl.load_references()
    reference = references.get(wl.reference_key(workload, count, seed))
    if reference is None:
        log(f"note: no recorded reference for {workload.name} at {count} "
            f"arrivals, seed {seed}; checking invariants only")
    queries = workload.queries(count)

    attempted = failed = 0
    walls: dict[bool, list[float]] = {False: [], True: []}
    #: Terminal arrivals of the timed untraced iterations.
    timed_arrivals = 0
    setups: list[float] = []
    calibrations: list[float] = []
    problems: list[str] = []
    ledger = Ledger()
    untraced_outputs = None
    traced_iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        # The first iteration warms the process up (lazy imports, first
        # parses) and is gated but not timed; traced and untraced
        # iterations alternate after it.
        warmup = attempted == 0
        traced = trace and attempted % 2 == 1
        attempted += 1
        calibrations.append(calibration.kernel())
        try:
            iteration = run_iteration(
                wl, workload, queries, seed,
                ledger=ledger if traced else None,
            )
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            problems.append(traceback.format_exc().strip())
            log(problems[-1])
        else:
            outputs, wall_s = iteration.outputs, iteration.wall_s
            wrong = wl.gate(outputs, workload, count, reference)
            setups.append(iteration.setup_s)
            if traced:
                traced_iterations.append(iteration)
                if outputs != untraced_outputs:
                    wrong.append(
                        f"traced outputs {outputs} differ from untraced "
                        f"{untraced_outputs}"
                    )
            else:
                if untraced_outputs is None:
                    untraced_outputs = outputs
                if outputs != untraced_outputs:
                    wrong.append("outputs differ between iterations")
            if wrong:
                failed += 1
                problems.extend(wrong)
                log(f"iteration {attempted} failed: {'; '.join(wrong)}")
            if not warmup:
                walls[traced].append(wall_s)
                if not traced:
                    timed_arrivals += outputs.terminal
            log(f"iteration {attempted}{' traced' if traced else ''}"
                f"{' warm-up' if warmup else ''}: "
                f"{wall_s:.3f} s, {outputs.terminal / wall_s:,.0f} "
                f"arrivals/s, {outputs.path} path")
        # Stop before an iteration expected to end past ``seconds``, so
        # a run's length does not depend on the host's speed.
        elapsed = time.perf_counter() - start
        if (attempted >= (3 if trace else 2)
                and elapsed + elapsed / attempted > seconds):
            break

    if not walls[False] or (trace and not walls[True]):
        raise RuntimeError(
            f"no iteration of {workload.name} completed: {problems[-1:]}"
        )
    # Reference kernel time over this run's mean: the host switches
    # between a fast and a slow state faster than an iteration takes,
    # so a kernel run sees one state and the mean, not the median, of
    # many gives the share of each.  The warm-up's kernel run warms the
    # kernel up and is not counted.
    host_scale = (calibration.REFERENCE_S
                  / statistics.fmean(calibrations[1:]))

    checks: dict[str, dict] = {}
    if trace:
        metrics = layer_metrics(workload, ledger, walls, count,
                                traced_iterations, checks)
        if not checks["ledger_closure"]["passed"]:
            problems.append("ledger closure failed")
        # Shares are a property of the workload at its own size; tiny
        # test counts are dominated by per-statement work instead.
        if (count == workload.arrivals
                and checks["dominant_layers"]["share"] < DOMINANT_FLOOR):
            problems.append(
                f"dominant layers {workload.dominant} fell below "
                f"{DOMINANT_FLOOR:.0%} of traced wall time"
            )
    else:
        metrics = {
            "arrivals_per_s": (
                timed_arrivals / sum(walls[False]) / host_scale,
                "arrivals/s",
            ),
            "setup_s": (
                (imports_s + statistics.median(setups)) * host_scale, "s"
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "arrivals": count,
        "trace": trace,
        "iterations": {"untraced": len(walls[False]),
                       "traced": len(walls[True])},
        "reference": "recorded" if reference is not None else "none",
        "imports_s": imports_s,
        "calibration_s": calibrations,
        "host_scale": host_scale,
        "raw": {
            "arrivals_per_s": timed_arrivals / sum(walls[False]),
            "setup_s": imports_s + statistics.median(setups),
        },
        "outputs": untraced_outputs.record() if untraced_outputs else None,
        "checks": checks,
        "problems": problems,
        "host": host_metadata(),
    }
    return {"result": result, "record": record}


def layer_metrics(workload, ledger, walls, count, traced_iterations,
                  checks) -> dict:
    """Per-layer metrics of the traced iterations, plus the ledger
    closure and dominance checks (filled into ``checks``)."""
    from perfbench.workloads import LAYERS

    traced = len(walls[True])
    arrivals = count * traced
    traced_ns = sum(walls[True]) * 1e9
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.ns_per_arrival"] = (
            ledger.self_ns[layer] / arrivals, "ns/arrival"
        )
        metrics[f"{layer}.calls"] = (ledger.calls[layer] / traced, "count")
    hits = sum(it.cache_hits for it in traced_iterations)
    lookups = hits + sum(it.cache_misses for it in traced_iterations)
    metrics["runner.hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio"
    )
    batches = sum(it.summary.get("qed_batches", 0.0)
                  for it in traced_iterations)
    merged = sum(it.summary.get("qed_merged_windows", 0.0)
                 for it in traced_iterations)
    metrics["qed.merged_ratio"] = (
        merged / batches if batches else 0.0, "ratio"
    )
    unattributed_ns = traced_ns - ledger.top_level_ns
    metrics["bench.unattributed.ns_per_arrival"] = (
        unattributed_ns / arrivals, "ns/arrival"
    )
    metrics["bench.trace_overhead"] = (
        statistics.median(walls[True]) / statistics.median(walls[False])
        - 1.0,
        "ratio",
    )
    share = unattributed_ns / traced_ns
    checks["ledger_closure"] = {
        "unattributed_share": share, "max": UNATTRIBUTED_MAX,
        "passed": share <= UNATTRIBUTED_MAX,
    }
    dominant = sum(ledger.self_ns[layer] for layer in workload.dominant)
    checks["dominant_layers"] = {
        "layers": list(workload.dominant),
        "share": dominant / traced_ns, "min": DOMINANT_MIN,
        "floor": DOMINANT_FLOOR,
        "passed": dominant / traced_ns >= DOMINANT_MIN,
    }
    return metrics


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="arrival seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=42.0,
                        help="measuring time; no iteration is started "
                             "that is expected to end after it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    args = parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  started=started, log=lambda msg: print(msg, file=sys.stderr, flush=True))
    except (ProgramUnavailable, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = out["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, check in out["record"]["checks"].items():
        print(f"check {name}: {'pass' if check['passed'] else 'FAIL'} "
              f"{json.dumps(check)}")
    print(json.dumps({"record": out["record"],
                      "metrics": result["metrics"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
