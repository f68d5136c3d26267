"""Record the simulated outputs the benchmark's correctness gate compares.

Run from the repository root::

    python3 perfbench/record_references.py --seeds 0-99

Each (workload, seed) pair of every workload runs once, at the
workload's own arrival count and in one of ``JOBS`` worker processes,
through the same iteration the benchmark times.  The outputs
(``served``, ``shed``, ``run_id``, ``wall_joules``, ``p99_response_s``)
are merged into ``perfbench/references.json`` under
``<workload>/<arrivals>/<seed>``.  Re-record only when a change is meant
to alter simulated results; a run that took the wrong scheduler path or
lost an arrival is refused.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402

#: Worker processes; each holds one simulation (up to ~125 MB).
JOBS = 2


def record_one(workload_name: str, seed: int) -> tuple[str, dict]:
    wl = bench.import_program()
    workload = wl.WORKLOADS[workload_name]
    queries = workload.queries(workload.arrivals)
    outputs = bench.run_iteration(wl, workload, queries, seed).outputs
    problems = wl.gate(outputs, workload, workload.arrivals, None)
    if problems:
        raise RuntimeError(f"{workload_name} seed {seed}: {problems}")
    return wl.reference_key(workload, workload.arrivals, seed), \
        outputs.record()


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="inclusive range, e.g. 0-99")
    args = parser.parse_args()
    wl = bench.import_program()
    references = wl.load_references()
    jobs = [(w, s) for w in bench.WORKLOAD_NAMES for s in args.seeds]
    with ProcessPoolExecutor(
        max_workers=JOBS,
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        futures = [pool.submit(record_one, w, s) for w, s in jobs]
        for future in futures:
            key, record = future.result()
            references[key] = record
            print(key, json.dumps(record), flush=True)
    lines = [f" {json.dumps(key)}: {json.dumps(references[key])}"
             for key in sorted(references)]
    wl.REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
