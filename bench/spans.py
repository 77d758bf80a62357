"""Spans around calls into the library, kept in memory, and what derives from them.

The benchmark does not change the library to trace it. It rebinds the
library's public functions to wrappers, in every `meim` module that holds
them, and each wrapper records a span: name, start, end and the span that
was open when it was called. Self time is a span's duration minus the part
of it that its children cover. Memory peaks come from `tracemalloc`, turned
on only for the spans and steps of a memory pass, so it never distorts the
span times of the timed steps.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(path: str):
    """The object at a dotted path such as "meim.optim.Adam.step", or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Patcher:
    """Rebinds a library function everywhere it is bound, and undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, path: str, make_wrapper) -> bool:
        """Replace the function at `path` by `make_wrapper(function)`.

        Returns False, and changes nothing, when the path no longer exists.
        """
        original = resolve(path)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        owner_path, attr = path.rsplit(".", 1)
        owner = resolve(owner_path)
        if isinstance(owner, type):  # a method: rebind on its class only
            self._set(owner, attr, wrapper)
            return True
        package = path.split(".", 1)[0]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)
        return True

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


class Tracer:
    """Records spans while `enabled`; in `memory` mode records only peaks."""

    def __init__(self, peak_names=()):
        self.spans: list[Span] = []
        self.enabled = True
        self.memory = False
        self.peak_names = frozenset(peak_names)
        self.peaks: dict[str, list[float]] = {}
        self.extras: dict[str, list] = {}  # values captured at a span, e.g. tape sizes
        self._stack: list[int] = []

    def wrapper(self, name: str, capture=None):
        """Wrapper factory for `Patcher.wrap`; `capture(args, result)` adds to extras."""

        def make(fn):
            def traced(*args, **kwargs):
                if self.memory:
                    return self._peak(name, fn, args, kwargs)
                if not self.enabled:
                    return fn(*args, **kwargs)
                index = len(self.spans)
                self.spans.append(Span(name, perf_counter(), float("nan"),
                                       self._stack[-1] if self._stack else -1))
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                    if capture is not None:
                        try:
                            self.extras.setdefault(name, []).append(capture(args, result))
                        except Exception:  # a changed signature loses the extra, not the run
                            pass
                    return result
                finally:
                    self._stack.pop()
                    self.spans[index].end = perf_counter()

            return traced

        return make

    def _peak(self, name, fn, args, kwargs):
        if name not in self.peak_names or tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.peaks.setdefault(name, []).append(peak / 2**20)


def span_cost_s(calls: int = 20_000, reps: int = 5) -> float:
    """Cost of recording one span: a traced no-op call minus a bare one, median of `reps`."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrapper("noop")(noop)
    costs = []
    for _ in range(reps):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def add_windows(spans: list[Span], name: str, bounds: list[float], parent: int) -> list[int]:
    """Insert one span per window [bounds[i], bounds[i+1]) under `parent`.

    Spans that start inside a window and had `parent` as their parent are
    re-parented to the window span, so its self time excludes them.
    Returns the indices of the new spans.
    """
    added = []
    for start, end in zip(bounds, bounds[1:]):
        added.append(len(spans))
        spans.append(Span(name, start, end, parent))
    for i, span in enumerate(spans[:added[0]] if added else []):
        if span.parent != parent:
            continue
        for w in added:
            if spans[w].start <= span.start < spans[w].end:
                span.parent = w
                break
    return added


def totals_in(spans: list[Span], name: str, start: float, end: float) -> float:
    """Summed duration of the `name` spans that start in [start, end)."""
    return sum(s.duration for s in spans if s.name == name and start <= s.start < end)
