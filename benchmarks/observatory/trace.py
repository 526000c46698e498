"""Span tracing installed from outside the program.

The benchmark wraps each layer's public callables *from its own files*
(class methods patched on the class, module functions patched in every
``repro`` module that imported them) — the program carries no tracing
code yet.  One span = name, layer, phase, start, end and the span that
caused it, taken from a per-thread stack; a span's self time is its
duration minus the part its child spans cover.  Spans stay in memory and
are written as JSONL when the run ends.

An uninstalled :class:`Tracer` still times phases, so traced and
untraced passes run the same workload code and their phase walls give
the tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["BENCH_LAYER", "LayerStats", "Target", "TraceSummary", "Tracer"]

#: Layer of the benchmark's own root spans (one per client per phase);
#: its self time is what no program layer accounts for.
BENCH_LAYER = "bench"

#: ``count(result, args, kwargs) -> int`` fed into a named counter.
CountHook = Callable[[Any, tuple, dict], int]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:function`` or ``module:Class.method``."""

    layer: str
    path: str
    #: Also wrap overrides of the method in every loaded subclass.
    subclasses: bool = False
    counter: str | None = None
    count: CountHook | None = None

    @property
    def label(self) -> str:
        return self.path.split(":", 1)[1]


@dataclass
class LayerStats:
    """Seconds and calls of one layer (or one span name) in one phase."""

    busy_s: float = 0.0  # outermost spans only: nested same-layer calls not re-counted
    self_s: float = 0.0
    calls: int = 0  # outermost calls

    def add(self, other: LayerStats) -> None:
        self.busy_s += other.busy_s
        self.self_s += other.self_s
        self.calls += other.calls


@dataclass
class TraceSummary:
    """Aggregates of one traced pass."""

    spans: int = 0
    #: phase -> layer -> stats
    layers: dict[str, dict[str, LayerStats]] = field(default_factory=dict)
    #: phase -> span label -> stats (busy_s = summed durations)
    names: dict[str, dict[str, LayerStats]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: thread name -> (seconds under root spans, summed self seconds,
    #: seconds the benchmark's own root spans cover, their self seconds)
    threads: dict[str, tuple[float, float, float, float]] = field(default_factory=dict)
    #: span label or counter -> why it could not be wrapped or read
    missing: dict[str, str] = field(default_factory=dict)
    #: layers with at least one wrapped callable
    wrapped_layers: frozenset[str] = frozenset()

    def layer(self, name: str) -> LayerStats:
        """Stats of one layer, summed over phases."""
        return _collect(self.layers, name)

    def name(self, label: str) -> LayerStats:
        """Stats of one span label, summed over phases."""
        return _collect(self.names, label)

    def self_shares(self, phase: str) -> dict[str, float]:
        """Each layer's share of the self time recorded in ``phase``."""
        stats = self.layers.get(phase, {})
        total = sum(s.self_s for s in stats.values())
        if not total:
            return {}
        return {layer: s.self_s / total for layer, s in stats.items()}

    def untraced_share(self) -> float:
        """Worst per-thread share of benchmark-rooted time no layer span covers."""
        shares = [
            bench_self / bench_total
            for _, _, bench_total, bench_self in self.threads.values()
            if bench_total > 0
        ]
        return max(shares, default=0.0)


def _collect(table: dict[str, dict[str, LayerStats]], key: str) -> LayerStats:
    total = LayerStats()
    for stats in table.values():
        if key in stats:
            total.add(stats[key])
    return total


class _ThreadState:
    """Per-thread span stack and finished spans."""

    __slots__ = ("name", "stack", "spans", "depth")

    def __init__(self, name: str, n_layers: int) -> None:
        self.name = name
        #: open spans: [slot in ``spans``, seconds covered by children]
        self.stack: list[list] = []
        #: (label index, parent slot, start, end, self, outermost, phase index)
        self.spans: list[tuple | None] = []
        self.depth = [0] * n_layers


class Tracer:
    """Installs span wrappers around ``targets`` and aggregates spans.

    ``Tracer(())`` wraps nothing: it only times phases (the untraced
    pass).  Recording is on only inside :meth:`phase`, so set-up and the
    benchmark's own reference work never produce spans.
    """

    def __init__(
        self,
        targets: tuple[Target, ...] = (),
        speed: Callable[[float, float], float] | None = None,
    ) -> None:
        self._targets = targets
        #: machine speed over an interval (:mod:`speed`); scales phase walls
        self._speed = speed
        self._labels: list[str] = []
        self._label_layer: list[int] = []
        self._layers: list[str] = []
        self._phases: list[str] = []
        self._phase = -1
        self._recording = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._counters: dict[str, int] = defaultdict(int)
        self._counters_lock = threading.Lock()
        self.missing: dict[str, str] = {}
        #: phase -> (reference-speed) seconds spent inside :meth:`phase` blocks
        self.phase_walls: dict[str, float] = defaultdict(float)
        self.installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> Tracer:
        """Wrap every resolvable target; unresolvable ones go to ``missing``."""
        self._register(BENCH_LAYER, "bench.root")
        for target in self._targets:
            try:
                self._install_target(target)
            except (ImportError, AttributeError) as error:
                self.missing[target.label] = f"{type(error).__name__}: {error}"
        self.installed = True
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
        self.installed = False

    def _register(self, layer: str, label: str) -> tuple[int, int]:
        if layer not in self._layers:
            self._layers.append(layer)
        self._labels.append(label)
        self._label_layer.append(self._layers.index(layer))
        return len(self._labels) - 1, self._label_layer[-1]

    def _install_target(self, target: Target) -> None:
        module_name, _, qualified = target.path.partition(":")
        module = importlib.import_module(module_name)
        parts = qualified.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0])
            wrapper = self._wrap(original, target, target.label)
            # ``from x import f`` copied the function into importers'
            # namespaces; patch every repro module that holds it.
            for name, holder in list(sys.modules.items()):
                if holder is None or not name.startswith("repro"):
                    continue
                for attribute, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attribute, wrapper)
            return
        class_name, method = parts
        cls = getattr(module, class_name)
        classes = [cls]
        if target.subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                classes.append(sub)
                pending.extend(sub.__subclasses__())
        wrapped_any = False
        for owner in classes:
            raw = vars(owner).get(method)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            label = f"{owner.__name__}.{method}"
            if isinstance(raw, classmethod):
                wrapper: object = classmethod(self._wrap(raw.__func__, target, label))
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(raw.__func__, target, label))
            else:
                wrapper = self._wrap(raw, target, label)
            self._patch(owner, method, wrapper)
            wrapped_any = True
        if not wrapped_any:
            raise AttributeError(f"{class_name} defines no concrete {method!r}")

    def _patch(self, owner: object, attribute: str, wrapper: object) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def _wrap(self, function: Callable, target: Target, label: str) -> Callable:
        label_index, layer_index = self._register(target.layer, label)
        tracer = self
        clock = time.perf_counter
        counter, count = target.counter, target.count

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer._recording:
                return function(*args, **kwargs)
            state = tracer._state()
            spans, stack, depth = state.spans, state.stack, state.depth
            slot = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [slot, 0.0]
            stack.append(frame)
            depth[layer_index] += 1
            outermost = depth[layer_index] == 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer_index] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[slot] = (
                    label_index, parent, start, end,
                    duration - frame[1], outermost, tracer._phase,
                )
            if count is not None and counter is not None:
                try:
                    tracer.bump(counter, count(result, args, kwargs))
                except (AttributeError, TypeError, OSError) as error:
                    tracer.missing.setdefault(
                        counter, f"{type(error).__name__}: {error}"
                    )
            return result

        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__qualname__ = getattr(function, "__qualname__", "traced")
        traced.__doc__ = function.__doc__
        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(
                threading.current_thread().name, len(self._layers)
            )
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bump(self, counter: str, amount: int = 1) -> None:
        """Add to a named counter (kept for traced and untraced passes)."""
        with self._counters_lock:
            self._counters[counter] += amount

    @contextmanager
    def phase(self, name: str, *, rooted: bool = True) -> Iterator[None]:
        """A timed phase: its wall is kept; spans record only inside one.

        Phases do not nest and are entered from the driving thread only.
        ``rooted=False`` is for phases whose work runs on client threads
        (each marks its own share with :meth:`root`) while the driving
        thread merely waits.
        """
        if name not in self._phases:
            self._phases.append(name)
        self._phase = self._phases.index(name)
        self._recording = self.installed
        start = time.perf_counter()
        try:
            if rooted:
                with self.root():
                    yield
            else:
                yield
        finally:
            end = time.perf_counter()
            self._recording = False
            scale = self._speed(start, end) if self._speed else 1.0
            self.phase_walls[name] += (end - start) * scale

    @contextmanager
    def root(self) -> Iterator[None]:
        """The benchmark's own root span around one thread's timed work."""
        if not self._recording:
            yield
            return
        state = self._state()
        slot = len(state.spans)
        state.spans.append(None)
        parent = state.stack[-1][0] if state.stack else -1
        frame = [slot, 0.0]
        state.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            state.stack.pop()
            duration = end - start
            if state.stack:
                state.stack[-1][1] += duration
            state.spans[slot] = (
                0, parent, start, end, duration - frame[1], True, self._phase
            )

    # ------------------------------------------------------------------
    # Aggregation / output
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        with self._counters_lock:
            return dict(self._counters)

    def summary(self) -> TraceSummary:
        """Aggregate every finished span by phase, layer and label."""
        summary = TraceSummary(
            counters=self.counters(),
            missing=dict(self.missing),
            wrapped_layers=frozenset(self._layers),
        )
        with self._states_lock:
            states = list(self._states)
        for state in states:
            rooted = self_total = bench_total = bench_self = 0.0
            for span in state.spans:
                if span is None:
                    continue
                label_index, parent, start, end, self_s, outermost, phase_index = span
                summary.spans += 1
                phase = self._phases[phase_index]
                layer = self._layers[self._label_layer[label_index]]
                duration = end - start
                layer_stats = summary.layers.setdefault(phase, {}).setdefault(
                    layer, LayerStats()
                )
                layer_stats.self_s += self_s
                if outermost:
                    layer_stats.busy_s += duration
                    layer_stats.calls += 1
                name_stats = summary.names.setdefault(phase, {}).setdefault(
                    self._labels[label_index], LayerStats()
                )
                name_stats.busy_s += duration
                name_stats.self_s += self_s
                name_stats.calls += 1
                self_total += self_s
                if parent < 0:
                    rooted += duration
                if layer == BENCH_LAYER:
                    bench_self += self_s
                    if parent < 0:
                        bench_total += duration
            if rooted:
                key = state.name
                while key in summary.threads:
                    key += "'"
                summary.threads[key] = (rooted, self_total, bench_total, bench_self)
        return summary

    def write_jsonl(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with self._states_lock:
            states = list(self._states)
        written = 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for thread_index, state in enumerate(states):
                for slot, span in enumerate(state.spans):
                    if span is None:
                        continue
                    label_index, parent, start, end, self_s, _, phase_index = span
                    record = {
                        "id": f"{thread_index}.{slot}",
                        "parent": f"{thread_index}.{parent}" if parent >= 0 else None,
                        "thread": state.name,
                        "name": self._labels[label_index],
                        "layer": self._layers[self._label_layer[label_index]],
                        "phase": self._phases[phase_index],
                        "start": start,
                        "end": end,
                        "self": self_s,
                    }
                    handle.write(json.dumps(record) + "\n")
                    written += 1
        return written
