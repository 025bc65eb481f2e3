"""Deterministic metrics registry: counters and histograms.

One flat :class:`Registry` belongs to each
:class:`~repro.sim.engine.Simulator` (``sim.telemetry``); component
constructors attach to whichever registry is *current*
(:meth:`Registry.current`).  An instrument belongs to exactly one
registry, so an increment is one add: no locking, no wall clock, no I/O
and nothing mirrored on the hot path.

Counts follow lifetime: a fresh ``Simulator`` gets a fresh registry, so
its counts start at zero and die with it.  Several simulators are summed
only at read time, by a :func:`session` that collects the registry of
every simulator built inside it.  Components built before any
simulator exists attach to one default registry.

Determinism: a registry never reads a clock.  Every count lives on an
instrument of some registry; there are no process-global statistics, so
a snapshot is a pure function of what its simulator did.

The ``recording`` flag gates only the *expensive* instrumentation —
per-element Click counters and queue-occupancy histograms.  Plain
counters are always live.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import names as _names

#: default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket).
DEFAULT_BOUNDS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class TelemetryError(RuntimeError):
    """Raised for structural misuse of the registry (not for hot-path ops)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add *n* (an int count or a float quantity)."""
        self.value += n


class Histogram:
    """Fixed-bound bucketed distribution."""

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise TelemetryError(f"histogram {name!r} bounds must be non-empty and sorted")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record *value*."""
        # inclusive upper bounds ("le" semantics): value == bound lands
        # in that bound's bucket, not the next one
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Add the samples of *other*, a histogram with the same bounds."""
        self.counts = [mine + theirs for mine, theirs in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = other.min if self.min is None else min(self.min, other.min)
            self.max = other.max if self.max is None else max(self.max, other.max)

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


class Registry:
    """The counters and histograms of one simulator.

    Parameters
    ----------
    recording:
        Whether expensive instrumentation (per-element Click counters,
        occupancy histograms) is enabled.
    label:
        Human-readable tag carried into snapshots.
    """

    def __init__(self, recording: bool = False, label: str = "registry") -> None:
        self.label = label
        self.recording = bool(recording)
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    @classmethod
    def current(cls) -> "Registry":
        """The registry new components attach to.

        The most recently constructed :class:`~repro.sim.engine.Simulator`
        sets this, and a running one holds it for the slice it runs;
        before any simulator exists it is the default registry.
        """
        return _current if _current is not None else _DEFAULT

    def counter(self, name: str) -> Counter:
        """Counter for a registered *name*, created on demand."""
        counter = self._counters.get(name)
        if counter is None:
            _names.require(name, "counter")
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str, bounds: Optional[Tuple[float, ...]] = None) -> Histogram:
        """Histogram for a registered *name*, created on demand.

        A second request with different *bounds* raises
        :class:`TelemetryError`.
        """
        _names.require(name, "histogram")
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name, bounds if bounds is not None else DEFAULT_BOUNDS)
            self._histograms[name] = hist
        elif bounds is not None and tuple(bounds) != hist.bounds:
            raise TelemetryError(
                f"histogram {name!r} already exists with bounds {hist.bounds}, not {tuple(bounds)}"
            )
        return hist

    def value(self, name: str) -> float:
        """Current value of the counter *name* (0 if never touched)."""
        _names.require(name, "counter")
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data snapshot of every instrument in this registry.

        The result is JSON-serialisable and consumed by
        :mod:`repro.telemetry.export`.
        """
        return {
            "label": self.label,
            "recording": self.recording,
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "histograms": {name: h.to_dict() for name, h in sorted(self._histograms.items())},
        }


#: where components built before any simulator exists report.
_DEFAULT = Registry(label="default")
_current: Optional[Registry] = None


def _set_current(registry: Optional[Registry]) -> None:
    """Install *registry* as :meth:`Registry.current` (``None`` for the default)."""
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


class Session:
    """The registries of the simulators built inside one :func:`session`."""

    def __init__(self, recording: bool, label: str) -> None:
        self.recording = recording
        self.label = label
        #: one registry per simulator, in construction order
        self.registries: List[Registry] = []

    def value(self, name: str) -> float:
        """The counter *name* summed over every collected registry."""
        return sum(registry.value(name) for registry in self.registries)

    def snapshot(self) -> Dict[str, Any]:
        """One snapshot of every collected registry, summed at read time."""
        total = Registry(self.recording, self.label)
        for registry in self.registries:
            for name, counter in registry._counters.items():
                total.counter(name).inc(counter.value)
            for name, hist in registry._histograms.items():
                total.histogram(name, hist.bounds).merge(hist)
        return total.snapshot()


_session: Optional[Session] = None


def simulator_registry() -> Registry:
    """A fresh registry for a new Simulator.

    Inside a :func:`session` it takes the session's ``recording`` and is
    collected by it; outside one it is a plain, non-recording registry.
    """
    if _session is None:
        return Registry(label="simulator")
    registry = Registry(_session.recording, label="simulator")
    _session.registries.append(registry)
    return registry


@contextmanager
def session(recording: bool = False, label: str = "session") -> Iterator[Session]:
    """Collect the registry of every Simulator built inside the block.

    Simulators built inside take *recording*; the yielded
    :class:`Session` sums their counts at read time.  The previous
    session is restored on exit.
    """
    global _session
    collector = Session(recording, label)
    previous, _session = _session, collector
    try:
        yield collector
    finally:
        _session = previous
