"""Spans and per-call aggregates at qcdense's module boundaries.

The tracer wraps, from outside the program, the functions one module of
qcdense looks up in another at call time, by rebinding the name in the
caller's namespace.  Nothing under src/ knows about it, and uninstall()
puts every original function back.

Coarse calls (sweeps, encoders, generators) are kept as spans: name, start,
end, parent, and the rise in the process's peak RSS across the span.
Per-character calls (finders and character evaluation) are only
aggregated by name into a count, a total and a self time; a sweep makes
millions of them.  A call's self time is its duration minus the time its
children cover.  Children may run on the certifier's pool threads: a call
that starts on a thread with no open frame is a child of the innermost
frame open on the main thread, and the parent's covered time is the union
of its children's intervals, so overlapping children count once.
"""

from __future__ import annotations

import functools
import itertools
import resource
import threading
from contextlib import contextmanager
from time import perf_counter


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CallStats:
    """Aggregate of one wrapped function's calls since the last take()."""

    __slots__ = ("count", "total", "self_time", "items", "raised")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0
        self.raised: dict[str, int] = {}

    def snapshot(self) -> dict:
        return {"count": self.count, "total": self.total, "self": self.self_time,
                "items": self.items, "raised": dict(self.raised)}


class _Frame:
    __slots__ = ("stats", "keep", "parent", "start", "active", "cover_from",
                 "covered", "raised", "span_id", "span_parent", "rss")

    def __init__(self, stats, keep, parent, start):
        self.stats = stats
        self.keep = keep
        self.parent = parent
        self.start = start
        self.active = 0
        self.cover_from = 0.0
        self.covered = 0.0
        self.raised = None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, CallStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._local.stack = []
        self._ids = itertools.count(1)
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._taken = 0

    # -- frames ----------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> _Frame:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats.setdefault(name, CallStats())
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        main = self._main
        parent = stack[-1] if stack else (main[-1] if main else None)
        frame = _Frame(stats, keep, parent, 0.0)
        if keep:
            frame.span_id = next(self._ids)
            frame.rss = peak_rss_mb()
        if parent is not None:
            frame.span_parent = parent.span_id if parent.keep else parent.span_parent
        else:
            frame.span_parent = None
        stack.append(frame)
        start = frame.start = perf_counter()
        if parent is not None:
            with self._lock:
                if parent.active == 0:
                    parent.cover_from = start
                parent.active += 1
        return frame

    def _leave(self, frame: _Frame, name: str) -> None:
        end = perf_counter()
        self._local.stack.pop()
        duration = end - frame.start
        parent = frame.parent
        stats = frame.stats
        with self._lock:
            if parent is not None:
                parent.active -= 1
                if parent.active == 0:
                    parent.covered += end - parent.cover_from
            stats.count += 1
            stats.total += duration
            stats.self_time += duration - frame.covered
            if frame.raised is not None:
                stats.raised[frame.raised] = stats.raised.get(frame.raised, 0) + 1
        if frame.keep:
            self.spans.append({
                "id": frame.span_id, "name": name, "start": frame.start, "end": end,
                "parent": frame.span_parent, "self": duration - frame.covered,
                "rss_rise_mb": peak_rss_mb() - frame.rss,
            })

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own call."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._leave(frame, name)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, per_call: bool, count_items: bool):
        wrapped = self._wrappers.get(id(fn))
        if wrapped is not None:
            return wrapped
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        enter, leave = self._enter, self._leave
        keep = not per_call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                frame.raised = type(exc).__name__
                raise
            finally:
                leave(frame, name)
            if count_items:
                frame.stats.items += len(result)
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def patch(self, module, attr: str, per_call: bool = False, count_items: bool = False):
        """Rebind module.attr to a traced wrapper while installed."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, per_call, count_items)
        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def take(self) -> tuple[dict, list[dict]]:
        """Aggregates and spans since the last take; aggregates restart at zero."""
        with self._lock:
            calls = {name: s.snapshot() for name, s in self.stats.items() if s.count}
            for s in self.stats.values():
                s.__init__()
        spans = self.spans[self._taken:]
        self._taken = len(self.spans)
        return calls, spans
