"""In-memory span tracer for the benchmark's traced run.

A `Tracer` replaces a function at the module attribute its caller looks up
(e.g. ``phonoam.training.model_loss_and_grads``) with a wrapper that records
one span per call: name, start, end, parent span, run id and up to two exact
counts taken from the call's arguments or result.  `Tracer.installed()`
restores every original attribute on exit, so the program itself is never
edited.  Spans live in flat typed arrays (a traced CTC pipeline records a few
hundred thousand of them) and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# counter(args, kwargs, result) -> (count_a, count_b); meaning set per target
Counter = Callable[[tuple, dict, object], tuple[int, int]]


@dataclass(frozen=True)
class Target:
    module: str  # module whose attribute the caller looks up
    attr: str
    span: str  # "<layer>.<function>"
    counter: Counter | None = None


@dataclass
class LayerStat:
    calls: int = 0
    s: float = 0.0  # summed span durations
    self_s: float = 0.0  # summed durations minus time covered by child spans
    a: int = 0
    b: int = 0


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names: list[str] = []
        self.run_ids: list[str] = []
        self.missing: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack: list[int] = []
        self._run = -1

    def __len__(self) -> int:
        return len(self.start)

    @contextmanager
    def run_as(self, run_id: str):
        """Tag the spans recorded inside the block with `run_id`."""
        self.run_ids.append(run_id)
        self._run = len(self.run_ids) - 1
        try:
            yield
        finally:
            self._run = -1

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for target in self.targets:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr, None)
                if original is None:
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                saved.append((module, target.attr, original))
                setattr(module, target.attr, self._wrap(original, target))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, target: Target):
        if target.span not in self.names:
            self.names.append(target.span)
        name_id = self.names.index(target.span)
        counter = target.counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self._run)
            self.start.append(0.0)
            self.end.append(0.0)
            self.a.append(0)
            self.b.append(0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if counter is not None:
                self.a[i], self.b[i] = counter(args, kwargs, result)
            return result

        return traced

    def stats(self) -> dict[str, dict[str, LayerStat]]:
        """run id -> span name -> aggregated calls, times and counts."""
        own = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, LayerStat]] = defaultdict(lambda: defaultdict(LayerStat))
        for i in range(len(self.start)):
            st = out[self.run_ids[self.run[i]]][self.names[self.name[i]]]
            st.calls += 1
            st.s += self.end[i] - self.start[i]
            st.self_s += own[i]
            st.a += self.a[i]
            st.b += self.b[i]
        return out

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: a header, then one [name, start, end, parent,
        run id, count_a, count_b] row per span in call order."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i in range(len(self.start)):
                row = [
                    self.names[self.name[i]],
                    self.start[i],
                    self.end[i],
                    self.parent[i],
                    self.run_ids[self.run[i]],
                    self.a[i],
                    self.b[i],
                ]
                fh.write(json.dumps(row) + "\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and overlapping children are
    counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append(hi - lo - covered)
    return out
