"""Span recording from outside the solver.

The tracer wraps the public entry points that training and evaluation
already call (module functions, ``Tape.backward`` and the per-instance
``drift`` / ``running_expr`` / ``terminal_expr`` callables) and records one
span per call: name, start, end, parent span and op id. Spans stay in memory
until the run ends. Every wrapped attribute is restored when the
``installed()`` block exits, so the solver then runs unmodified.

Spans are stored column-wise (one flat list per field) rather than one list
per span: the cyclic garbage collector scans every container it tracks, so
tens of thousands of per-span lists would slow each full collection and
inflate the very timings being traced.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 at the root
        self.ops: list = []  # op index, or "setup" / "warmup" outside timed ops
        self.extras: dict[int, tuple] = {}  # span index -> counts taken from its result
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._gc_start = 0.0
        self.gc_ms: dict = defaultdict(float)
        self.gc_collections: dict = defaultdict(int)

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span per call; ``count(result)`` fills the span's extra."""
        begin, end, extras = self.begin, self.end, self.extras

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(idx)
            if count is not None:
                extras[idx] = count(out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with its traced version until the block exits."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(original, name, count))

    @contextmanager
    def installed(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            while self._patches:
                owner, attr, original, had_own = self._patches.pop()
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_ms[self.op] += 1e3 * (time.perf_counter() - self._gc_start)
            self.gc_collections[self.op] += 1

    def self_ms(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Calls nest on one thread, so a span's children never overlap and
        the covered time is the sum of their durations.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                covered[parent] += d
        return [1e3 * (d - c) for d, c in zip(durations, covered)]

    def to_dict(self) -> dict:
        return {
            "name": self.names, "start": self.starts, "end": self.ends,
            "parent": self.parents, "op": self.ops,
            "extra": {str(k): v for k, v in self.extras.items()},
        }
