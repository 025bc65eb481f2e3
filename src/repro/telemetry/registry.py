"""Deterministic metrics registry: counters, gauges, histograms, spans.

One :class:`Registry` belongs to each :class:`~repro.sim.engine.Simulator`
(``sim.telemetry``); component constructors attach to whichever registry
is *current* (:meth:`Registry.current`).  Registries form a tree: every
instrument in a child **mirrors** into the same-named instrument of its
parent, chaining up to the process root, so a per-simulator count is
simultaneously visible in the enclosing :func:`session` (the experiment
runner's per-figure aggregate) and in the process-wide total — without
any walk at read time.  An increment is a handful of integer adds; there
is no locking, no wall clock, and no I/O on the hot path.

Reset semantics follow from lifetime, fixing the "counters survive
across Simulators" bug class: a fresh ``Simulator`` gets a fresh
registry, so its counts start at zero, while the process root keeps
accumulating for whole-process views.  Tests that must not observe (or
pollute) process-wide state wrap themselves in :func:`fork_isolated`,
which installs a *parentless* registry — nothing mirrors out, nothing
leaks in.

Determinism: a registry never reads the wall clock.  Span timestamps
come from an injected ``clock`` callable (the simulator passes
``lambda: self.now``); with no clock, spans record structure (name,
nesting depth, order) with ``None`` timestamps.  Every count lives on an
instrument of some registry; there are no process-global statistics, so
a snapshot is a pure function of what its simulator did.

The ``recording`` flag gates only the *expensive* instrumentation —
spans, per-element Click counters, queue-occupancy histograms.  Plain
counters are always live: they are the cheap substrate the benchmarks
already relied on.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import names as _names

#: default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket).
DEFAULT_BOUNDS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: spans retained per registry before further records are dropped
#: (the drop count is reported in snapshots).
MAX_SPANS = 10_000


class TelemetryError(RuntimeError):
    """Raised for structural misuse of the registry (not for hot-path ops)."""


class Counter:
    """A monotonically increasing count, mirrored up the registry chain."""

    __slots__ = ("name", "value", "_mirror")

    def __init__(self, name: str, mirror: Optional["Counter"] = None) -> None:
        self.name = name
        self.value: float = 0
        self._mirror = mirror

    def inc(self, n: float = 1) -> None:
        """Add *n* (an int count or a float quantity) to this counter
        and every mirror up the chain."""
        counter: Optional[Counter] = self
        while counter is not None:
            counter.value += n
            counter = counter._mirror


class Gauge:
    """A last-write-wins value, mirrored up the registry chain."""

    __slots__ = ("name", "value", "_mirror")

    def __init__(self, name: str, mirror: Optional["Gauge"] = None) -> None:
        self.name = name
        self.value: float = 0.0
        self._mirror = mirror

    def set(self, value: float) -> None:
        """Set the gauge (and every mirror) to *value*."""
        gauge: Optional[Gauge] = self
        while gauge is not None:
            gauge.value = value
            gauge = gauge._mirror


class Histogram:
    """Fixed-bound bucketed distribution, mirrored up the registry chain."""

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max", "_mirror")

    def __init__(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_BOUNDS,
        mirror: Optional["Histogram"] = None,
    ) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise TelemetryError(f"histogram {name!r} bounds must be non-empty and sorted")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._mirror = mirror

    def observe(self, value: float) -> None:
        """Record *value* into this histogram and every mirror."""
        hist: Optional[Histogram] = self
        while hist is not None:
            # inclusive upper bounds ("le" semantics): value == bound
            # lands in that bound's bucket, not the next one
            hist.counts[bisect_left(hist.bounds, value)] += 1
            hist.count += 1
            hist.total += value
            if hist.min is None or value < hist.min:
                hist.min = value
            if hist.max is None or value > hist.max:
                hist.max = value
            hist = hist._mirror

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form used by snapshots and exporters."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class _NullSpan:
    """No-op span handle returned when recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """Enter without recording anything."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Exit without recording anything."""
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one nested span into its registry."""

    __slots__ = ("_registry", "_record")

    def __init__(self, registry: "Registry", name: str) -> None:
        self._registry = registry
        self._record: Dict[str, Any] = {"name": name}

    def __enter__(self) -> "_Span":
        """Open the span: stamp start time and nesting depth."""
        reg = self._registry
        self._record["depth"] = reg._span_depth
        self._record["start"] = reg._clock() if reg._clock is not None else None
        reg._span_depth += 1
        return self

    def __exit__(self, *exc: object) -> None:
        """Close the span and append its record up the registry chain."""
        reg = self._registry
        reg._span_depth -= 1
        self._record["end"] = reg._clock() if reg._clock is not None else None
        node: Optional[Registry] = reg
        while node is not None:
            if len(node._spans) < MAX_SPANS:
                node._spans.append(self._record)
            else:
                node._spans_dropped += 1
            node = node.parent


# ----------------------------------------------------------------------
# the registry tree
# ----------------------------------------------------------------------
class Registry:
    """One scope of telemetry state, mirroring into its parent.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulated) time
        for span timestamps, or ``None`` for timeless spans.
    parent:
        Registry to mirror into; ``None`` makes this a root (isolated
        unless it *is* the process root).
    recording:
        Whether expensive instrumentation (spans, per-element Click
        counters, occupancy histograms) is enabled.  ``None`` inherits
        from the parent (``False`` at a root).
    label:
        Human-readable tag carried into snapshots.
    """

    _process_root: Optional["Registry"] = None

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        parent: Optional["Registry"] = None,
        recording: Optional[bool] = None,
        label: str = "registry",
    ) -> None:
        self.label = label
        self.parent = parent
        self._clock = clock
        if recording is None:
            recording = parent.recording if parent is not None else False
        self.recording = bool(recording)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[Dict[str, Any]] = []
        self._spans_dropped = 0
        self._span_depth = 0

    # -- scope resolution ------------------------------------------------
    @classmethod
    def process_root(cls) -> "Registry":
        """The process-wide accumulator every non-isolated chain ends in."""
        if cls._process_root is None:
            cls._process_root = Registry(label="process")
        return cls._process_root

    @classmethod
    def root(cls) -> "Registry":
        """The current aggregation root: the active session, else the process root."""
        return _root_override if _root_override is not None else cls.process_root()

    @classmethod
    def current(cls) -> "Registry":
        """The registry new components attach to.

        The most recently constructed :class:`~repro.sim.engine.Simulator`
        (or the innermost :func:`session` / :func:`fork_isolated` scope)
        sets this; with neither, it is :meth:`root`.
        """
        return _current if _current is not None else cls.root()

    # -- instruments -----------------------------------------------------
    def counter(self, name: str, private: bool = False) -> Counter:
        """Counter for a registered *name*.

        With ``private=True``, return a fresh instrument owned by the
        caller — its ``.value`` counts only the caller's own increments
        (per-gateway, per-channel reads stay exact) while still mirroring
        into this registry's shared counter and on up the chain.
        """
        _names.require(name, "counter")
        shared = self._shared_counter(name)
        if not private:
            return shared
        return Counter(name, mirror=shared)

    def _shared_counter(self, name: str) -> Counter:
        """This registry's shared counter for *name*, created on demand."""
        counter = self._counters.get(name)
        if counter is None:
            mirror = self.parent._shared_counter(name) if self.parent is not None else None
            counter = Counter(name, mirror=mirror)
            self._counters[name] = counter
        return counter

    def gauge(self, name: str) -> Gauge:
        """Shared gauge for a registered *name*, created on demand."""
        _names.require(name, "gauge")
        gauge = self._gauges.get(name)
        if gauge is None:
            mirror = self.parent.gauge(name) if self.parent is not None else None
            gauge = Gauge(name, mirror=mirror)
            self._gauges[name] = gauge
        return gauge

    def histogram(self, name: str, bounds: Optional[Tuple[float, ...]] = None) -> Histogram:
        """Shared histogram for a registered *name*, created on demand.

        All registries in a chain must agree on *bounds* for a given
        name; a mismatch raises :class:`TelemetryError`.
        """
        _names.require(name, "histogram")
        hist = self._histograms.get(name)
        if hist is None:
            use_bounds = tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
            mirror = self.parent.histogram(name, use_bounds) if self.parent is not None else None
            hist = Histogram(name, bounds=use_bounds, mirror=mirror)
            self._histograms[name] = hist
        elif bounds is not None and tuple(bounds) != hist.bounds:
            raise TelemetryError(
                f"histogram {name!r} already exists with bounds {hist.bounds}, not {tuple(bounds)}"
            )
        return hist

    def span(self, name: str) -> Any:
        """Context manager recording a nested span (no-op unless recording)."""
        _names.require(name, "span")
        if not self.recording:
            return _NULL_SPAN
        return _Span(self, name)

    # -- reads -----------------------------------------------------------
    def value(self, name: str) -> int:
        """Current value of the shared counter *name* (0 if never touched).

        Includes increments from private instruments attached to this
        registry and mirrored increments from child registries.
        """
        _names.require(name, "counter")
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    @property
    def spans(self) -> List[Dict[str, Any]]:
        """Span records captured so far (oldest first)."""
        return list(self._spans)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data snapshot of every instrument in this registry.

        The result is JSON-serialisable and consumed by
        :mod:`repro.telemetry.export`.
        """
        return {
            "label": self.label,
            "recording": self.recording,
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.to_dict() for name, h in sorted(self._histograms.items())},
            "spans": list(self._spans),
            "spans_dropped": self._spans_dropped,
        }

    def reset(self) -> None:
        """Zero every instrument in *this* registry (mirrors unaffected)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for hist in self._histograms.values():
            hist.counts = [0] * (len(hist.bounds) + 1)
            hist.count = 0
            hist.total = 0.0
            hist.min = None
            hist.max = None
        self._spans.clear()
        self._spans_dropped = 0
        self._span_depth = 0


_root_override: Optional[Registry] = None
_current: Optional[Registry] = None


def _set_current(registry: Optional[Registry]) -> None:
    """Install *registry* as :meth:`Registry.current` (``None`` to clear)."""
    global _current
    _current = registry


def _swap_current(registry: Optional[Registry]) -> Optional[Registry]:
    """Install *registry* as current and return the previous value.

    The save/restore primitive behind ``Simulator.run()``/``step()``:
    each execution slice runs with its own registry current and puts the
    previous one back on exit, so interleaved simulators never observe
    each other's scope.
    """
    global _current
    previous = _current
    _current = registry
    return previous


@contextmanager
def session(
    recording: bool = False,
    clock: Optional[Callable[[], float]] = None,
    label: str = "session",
) -> Iterator[Registry]:
    """Scope a fresh registry over the process root.

    Inside the ``with`` block the new registry is both the aggregation
    root (Simulators built inside parent to it, inheriting *recording*)
    and the current attach target.  Its snapshot therefore isolates
    everything that happened inside the block, while still mirroring
    into the process root.  The previous scope is restored on exit.
    """
    global _root_override, _current
    registry = Registry(
        clock=clock, parent=Registry.process_root(), recording=recording, label=label
    )
    prev_root, prev_current = _root_override, _current
    _root_override, _current = registry, registry
    try:
        yield registry
    finally:
        _root_override, _current = prev_root, prev_current


@contextmanager
def fork_isolated(
    recording: bool = False,
    clock: Optional[Callable[[], float]] = None,
    label: str = "isolated",
) -> Iterator[Registry]:
    """Scope a *parentless* registry: nothing mirrors out, nothing leaks in.

    The explicit escape hatch for tests — counts made inside the block
    never reach the process root, and the block starts from zero no
    matter what ran before.
    """
    global _root_override, _current
    registry = Registry(clock=clock, parent=None, recording=recording, label=label)
    prev_root, prev_current = _root_override, _current
    _root_override, _current = registry, registry
    try:
        yield registry
    finally:
        _root_override, _current = prev_root, prev_current
