"""A fixed calibration kernel that measures how fast the host runs now.

On a shared host the same simulation took from 1.2 to 2.4 s depending
on what its neighbours did, and that speed drifts over minutes, so the
run-to-run spread of a raw time follows the neighbours, not the
program.  :func:`kernel` does a fixed amount of the kind of work the
simulator does -- interpreter-bound object, dict, string and sort work
plus numpy arrays -- without touching the program, so no change to the
program moves its time; only the host does.  The benchmark runs it
before every iteration and reports its host times as if measured on a
host where the kernel takes ``REFERENCE_S`` on average.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Kernel time on a quiet 2-vCPU Intel Xeon (Sapphire Rapids) guest,
#: Python 3.11.7, numpy 2.4.6.  Host times are reported as if measured
#: on a host where the kernel takes this long.
REFERENCE_S = 0.25
#: Repetitions of the work in one kernel run.
ROUNDS = 5


class _Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str) -> None:
        self.kind = kind
        self.text = text


def _interpreted() -> int:
    text = " ".join(f"col{i % 37} = {i % 101}" for i in range(6000))
    tokens = [_Token("word" if part.startswith("col") else "op", part)
              for part in text.split()]
    counts: dict[str, int] = {}
    for token in tokens:
        if token.kind == "word":
            counts[token.text] = counts.get(token.text, 0) + 1
    order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keys = sorted((i * 7919) % 1000 for i in range(5000))
    return len(order) + keys[-1]


def _vectorized(rng: np.random.Generator) -> float:
    gaps = rng.exponential(0.01, 200_000)
    times = np.cumsum(gaps)
    order = np.argsort(gaps, kind="stable")
    return float(times[order[-1]])


def kernel() -> float:
    """Seconds the fixed calibration work takes, with the collector off
    so the program's heap does not change it."""
    rng = np.random.default_rng(0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            _interpreted()
            _vectorized(rng)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
