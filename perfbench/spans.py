"""In-memory span recording and the wrappers that feed it.

A span is one call into a layer: (name, start, end, parent). Only
synchronous calls become spans, so spans on one thread nest strictly
and the children of a span never overlap; self time is therefore a
span's duration minus the summed durations of its direct children.
Coroutines interleave on the event loop, so async entry points are
timed as latency samples instead and never enter the span stack.

The :class:`Patcher` installs wrappers by rebinding attributes — the
defining module's function and every ``from x import f`` copy of it in
other ``repro`` modules, or a method on a class and on each subclass
that overrides it — and :meth:`Patcher.restore` puts every original
object back, so an untraced run calls exactly the functions it would
have called had tracing never happened.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: The package whose modules :meth:`Patcher.wrap_function` searches for aliases.
PROGRAM = "repro"

#: Called with (args, kwargs, result) after a wrapped call returns.
Observer = Callable[[tuple, dict, Any], None]


class SpanRecorder:
    """Spans and counters of one traced window, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.window_s = 0.0
        self._window_start: Optional[float] = None
        self._clear_spans()

    def _clear_spans(self) -> None:
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------
    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def start_window(self) -> None:
        """Drop everything recorded so far (set-up) and start timing."""
        if self._stack:
            raise RuntimeError("start_window() inside an open span")
        self._clear_spans()
        self.counts.clear()
        self.samples.clear()
        self._window_start = perf_counter()

    def stop_window(self) -> None:
        if self._window_start is None:
            raise RuntimeError("stop_window() without start_window()")
        self.window_s = perf_counter() - self._window_start
        self._window_start = None

    # -- reduction ------------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name_of, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s} over the closed spans."""
        names, start, end, parent = self.arrays()
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        selfs = self_times(start, end, parent)
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=end - start, minlength=n)
        own = np.bincount(names, weights=selfs, minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def top_level_s(self) -> float:
        """Wall time covered by spans that have no parent span."""
        _, start, end, parent = self.arrays()
        roots = parent < 0
        return float((end[roots] - start[roots]).sum())

    def durations(self, name: str) -> np.ndarray:
        names, start, end, _ = self.arrays()
        if name not in self._ids:
            return np.empty(0)
        mask = names == self._ids[name]
        return end[mask] - start[mask]

    def write(self, path: Path) -> None:
        """Write every span of the window (plus names) as one ``.npz``."""
        names, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path, name=names, start=start, end=end, parent=parent,
            names=np.array(self.names, dtype=str),
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the time its children cover.

    ``parent[i]`` is the index of span ``i``'s enclosing span, or -1.
    Children of one span are sequential (synchronous calls), so the
    time they cover is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered[: len(duration)]


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------
def span_wrapper(
    recorder: SpanRecorder, name: str, fn: Callable, observer: Optional[Observer] = None
) -> Callable:
    name_id = recorder.name_id(name)
    open_span, close_span = recorder.open, recorder.close
    if observer is None:

        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

    else:

        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            observer(args, kwargs, result)
            return result

    return traced


def count_wrapper(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Count calls without timing them — for functions so short that a
    span's own timer calls would dominate what it measures."""
    counts = recorder.counts

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def async_timer(
    recorder: SpanRecorder, key_of: Callable[[tuple, dict], str], fn: Callable
) -> Callable:
    """Latency samples (seconds) of a coroutine function, keyed per call."""
    samples = recorder.samples

    async def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            samples[key_of(args, kwargs)].append(perf_counter() - t0)

    return timed


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------
class Patcher:
    """Rebinds attributes to wrappers and restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.attr`` and every module-level alias of it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PROGRAM or name.startswith(PROGRAM + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapper)

    def wrap_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` and each subclass's own override of it."""
        seen = set()
        pending = [cls]
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(attr)
            if original is None:
                continue
            if not callable(original):
                raise TypeError(f"{klass.__qualname__}.{attr} is not a plain function")
            self._set(klass, attr, original, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
