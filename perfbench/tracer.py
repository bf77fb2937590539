"""Per-module counters and timers, wrapped around seqpred's public API.

The traced run installs one wrapper per public function and per public
method of the classes each module exports; the untraced run installs
nothing.  Hot boundaries (cursor methods, logsumexp, white_probability,
machine runs) are called millions of times, so every wrapper keeps
counters and accumulated time, never one span per call:

    calls   how many times the boundary was entered
    busy_s  wall time inside it, counted once for calls nested in a
            call of the same name (a thresholded cursor wrapping a
            measure cursor is one busy interval, two calls)
    self_s  busy time minus the time covered by nested traced calls
    errors  calls that raised

It also counts calls per (caller, callee) pair, which is how work units
such as exact-tree contexts are measured at the boundary where they
happen, and lets a boundary add work counters from its arguments and
result (rounds played, cells scanned, strings priced).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter


class Stat:
    __slots__ = ("calls", "busy", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.errors = 0


class Tracer:
    """Collects Stat per boundary name, caller/callee counts and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.minima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def reset(self, keep=()) -> None:
        """Zero everything except the stats of the names in keep."""
        with self._lock:
            for name, stat in self.stats.items():
                if name not in keep:
                    stat.__init__()
            self.edges.clear()
            self.counters.clear()
            self.minima.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped to record under name.

        before(args, kwargs) runs on entry and its value is handed to
        after(result, args, kwargs, token), which runs on success.
        """
        stat = self.stat(name)
        clock = self.clock
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            token = before(args, kwargs) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(stack, frame, parent, stat, start, outermost, True)
                raise
            self._leave(stack, frame, parent, stat, start, outermost, False)
            if after is not None:
                after(result, args, kwargs, token)
            return result

        return traced

    def _leave(self, stack, frame, parent, stat, start, outermost, failed):
        elapsed = self.clock() - start
        stack.pop()
        with self._lock:
            stat.calls += 1
            stat.self_time += elapsed - frame[1]
            if outermost:
                stat.busy += elapsed
            if failed:
                stat.errors += 1
            if parent is not None:
                parent[1] += elapsed
                self.edges[(parent[0], frame[0])] += 1

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counters[name] += amount

    def observe_min(self, name: str, value) -> None:
        with self._lock:
            self.minima[name] = min(self.minima.get(name, value), value)

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap module.attr and rebind every alias of it in seqpred."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **hooks)
        for mod in list(sys.modules.values()):
            if mod is None or not _rebinds(mod):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((setattr, mod, key, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapped
                            self._undo.append(
                                (dict.__setitem__, value, dkey, original)
                            )

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._undo.append((setattr, cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)


def _rebinds(module) -> bool:
    name = getattr(module, "__name__", None) or ""
    return name == "seqpred" or name.startswith("seqpred.")
