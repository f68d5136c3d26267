"""Per-layer host-time ledger built from outside the program.

The ledger wraps public functions and methods of the ``repro`` package
where callers look them up: a module-level function is replaced in every
loaded ``repro`` module that bound it by name, and a method is replaced
on its class.  Each wrapper records, per layer, how many calls it saw
and its *self* time -- the wall time of the call minus the time spent in
nested wrapped calls -- so the self times of all layers plus the time
outside every top-level call add up to the traced wall time.

Usage::

    ledger = Ledger()
    with ledger.installed(layer_targets(type(sim.router))):
        ...                      # traced work
    ledger.self_ns["db.execute"], ledger.calls["db.execute"]

Leaving the ``with`` block restores every original attribute, also when
the traced work raises.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: Marks a class attribute that was inherited, so restoring deletes the
#: override instead of pinning the inherited value on the subclass.
_INHERITED = object()

#: One wrap target: ``(layer name, owner, attribute name)``.  ``owner``
#: is a class (a method) or a module (a function, re-bound in every
#: ``repro`` module that imported it by name).
Target = tuple[str, Any, str]


class Ledger:
    """Calls and self time per layer, accumulated across installs."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Wall time spent inside top-level (non-nested) wrapped calls.
        self.top_level_ns = 0
        self._stack: list[list[int]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its calls and self time charged to ``layer``."""
        clock = self._clock
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]  # time spent in nested wrapped calls
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_ns += elapsed

        wrapper.__perfbench_layer__ = layer
        return wrapper

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        original = (
            owner.__dict__.get(name, _INHERITED)
            if isinstance(owner, type) else getattr(owner, name)
        )
        self._patches.append((owner, name, original))
        setattr(owner, name, value)

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; a target already wrapped is skipped."""
        for layer, owner, name in targets:
            original = getattr(owner, name)
            if hasattr(original, "__perfbench_layer__"):
                continue
            wrapper = self.wrap(layer, original)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if not module_name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, targets: list[Target]) -> Iterator["Ledger"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

