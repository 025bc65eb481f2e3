"""Core event loop and process machinery.

The design follows the classic process-interaction style (as popularised by
SimPy) but is trimmed to exactly what the EndBox reproduction needs, which
keeps the hot path fast: a binary heap of ``(time, seq, kind, payload)``
entries, whose payload is a callback (with its one argument) or an event,
and generator-based processes that are resumed when the event they wait
on fires.

Determinism
-----------
Two runs with the same seed and the same process creation order produce
identical schedules.  Ties in time are broken by a monotonically increasing
sequence number, never by object identity.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.telemetry.registry import _set_current, _swap_current, simulator_registry


class SimulationError(RuntimeError):
    """Raised for illegal simulator usage (e.g. negative delays)."""


#: :meth:`Simulator.schedule`'s "no argument" marker (None is a valid one)
_NO_ARG = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event carries an optional ``value`` that is delivered to every
    waiting process as the result of its ``yield``.  Events may also
    *fail*, in which case the exception is thrown into waiting processes.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value", "exception", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        # allocated lazily on the first waiter: most events on the hot
        # path (store puts, immediate grants) trigger with no listener.
        # Holds None, a single callable, or a FIFO list of callables.
        self._callbacks: Any = None
        self.triggered = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event triggers.

        If the event already triggered, the callback is scheduled to run
        immediately (at the current simulation time).  Storage is
        specialised for the dominant single-waiter case: a bare callable
        until a second waiter arrives, then a FIFO list.
        """
        if self.triggered:
            self.sim._schedule_callback(callback, self)
            return
        current = self._callbacks
        if current is None:
            self._callbacks = callback
        elif type(current) is list:
            current.append(callback)
        else:
            self._callbacks = [current, callback]

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self!r} triggered twice")
        self.triggered = True
        self.value = value
        self.sim._dispatch(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"event {self!r} triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.triggered = True
        self.exception = exception
        self.sim._dispatch(self)
        return self


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        # no eager name: formatting one per timeout measurably slows the
        # heap loop; __repr__ renders the delay on demand instead
        super().__init__(sim)
        self.delay = delay
        sim._schedule_event(sim.now + delay, self, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event timeout({self.delay:g}) {state}>"


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator's ``return`` value becomes the event value, so parents
    can ``result = yield sim.process(child())``.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current time (closure-free fast
        # path: the heap entry carries the process itself).
        sim._schedule_kickoff(self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        self.sim.schedule(0.0, lambda: self._resume(None, Interrupt(cause)))

    def _on_wait_complete(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up (e.g. we were interrupted meanwhile)
        self._waiting_on = None
        if event.exception is not None:
            self._resume(None, event.exception)
        else:
            self._resume(event.value, None)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except Interrupt:
            # An unhandled interrupt simply terminates the process.
            self.succeed(None)
            return
        except BaseException as error:  # noqa: BLE001 - propagate to waiters
            self._die(error)
            return
        if not isinstance(target, Event):
            self.generator.close()
            self._die(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        self._waiting_on = target
        target.add_callback(self._on_wait_complete)

    def _die(self, error: BaseException) -> None:
        """Fail the process event.  With nothing waiting on it the death
        would go unseen, so :meth:`Simulator.run` raises a
        :class:`SimulationError` naming the process, chained from
        ``error``, at the current simulated time."""
        unobserved = self._callbacks is None
        self.fail(error)
        if unobserved:
            self.sim.schedule(0.0, functools.partial(_raise_death, self.name, error))


def _raise_death(name: str, error: BaseException) -> None:
    raise SimulationError(f"process {name!r} died with nothing waiting on it: {error!r}") from error


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class AllOf(Event):
    """Composite event that fires once every child event has fired."""

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="all_of")
        children = list(events)
        self._pending = len(children)
        if self._pending == 0:
            sim.schedule(0.0, lambda: self.succeed([]))
            return
        results: List[Any] = [None] * len(children)

        def make_cb(index: int) -> Callable[[Event], None]:
            def cb(event: Event) -> None:
                if self.triggered:
                    return
                if event.exception is not None:
                    self.fail(event.exception)
                    return
                results[index] = event.value
                self._pending -= 1
                if self._pending == 0:
                    self.succeed(results)

            return cb

        for i, child in enumerate(children):
            child.add_callback(make_cb(i))


class AnyOf(Event):
    """Composite event that fires when the first child event fires."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="any_of")

        def cb(event: Event) -> None:
            if self.triggered:
                return
            if event.exception is not None:
                self.fail(event.exception)
            else:
                self.succeed((event, event.value))

        children = list(events)
        if not children:
            raise SimulationError("any_of() requires at least one event")
        for child in children:
            child.add_callback(cb)


class Simulator:
    """Deterministic discrete-event simulator.

    Each instance owns a fresh :class:`~repro.telemetry.registry.Registry`
    (``self.telemetry``), collected by the active
    :func:`~repro.telemetry.registry.session` if there is one, so its
    counters start at zero and die with it; components built after the
    simulator attach to it via ``Registry.current()``.

    :meth:`run` and :meth:`step` install ``self.telemetry`` as the
    current registry for the duration of the slice and restore the
    previous one afterwards, so two simulators interleaved in one
    process never attach state to each other's registry.

    Attributes
    ----------
    now:
        Current simulation time in seconds.
    telemetry:
        This simulator's metrics registry.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._running = False
        #: heap entries executed so far (perf harness / bench metadata)
        self.events_executed = 0
        self.telemetry = simulator_registry()
        self._tm_events = self.telemetry.counter("sim.engine.events")
        _set_current(self.telemetry)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    # heap entry kinds: 0 = bare callback, 1 = (event, value) trigger,
    # 2 = process kickoff, 3 = (callback, arg) call, which is also the
    # deferred wake-up of an event's waiter.  Kinds 2/3 avoid allocating
    # a closure per entry on the hot path.
    def schedule(self, delay: float, callback: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``callback()``, or ``callback(arg)`` when ``arg`` is given,
        after ``delay`` simulated seconds.

        The argument rides in the heap entry, so a per-packet hand-off
        (a frame to its receiver, a CPU job to its pool) needs no closure.
        Every entry is scheduled through this method or the private
        helpers below, never pushed onto ``_heap`` directly.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._seq += 1
        if arg is _NO_ARG:
            heapq.heappush(self._heap, (self.now + delay, self._seq, 0, callback))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, 3, (callback, arg)))

    def _schedule_event(self, when: float, event: Event, value: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, 1, (event, value)))

    def _schedule_kickoff(self, process: "Process") -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now, self._seq, 2, process))

    def _schedule_callback(self, callback: Callable[[Event], None], event: Event) -> None:
        """Deferred wake-up: run ``callback(event)`` at the current time."""
        self._seq += 1
        heapq.heappush(self._heap, (self.now, self._seq, 3, (callback, event)))

    def _dispatch(self, event: Event) -> None:
        """Run callbacks of a just-triggered event, immediately and inline.

        Inline dispatch (rather than re-queueing) keeps zero-delay chains
        (job end -> process resume -> next charge) cheap; ordering
        within a timestep is still deterministic because callbacks are
        stored FIFO.
        """
        callbacks = event._callbacks
        if callbacks is None:
            return
        event._callbacks = None
        if type(callbacks) is list:
            for callback in callbacks:
                callback(event)
        else:
            callbacks(event)

    # ------------------------------------------------------------------
    # user-facing factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a generator as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: fires when every child fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: fires on the first child."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled entry.  Returns False when empty."""
        if not self._heap:
            return False
        when, _seq, kind, payload = heapq.heappop(self._heap)
        if when < self.now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self.now = when
        self.events_executed += 1
        self._tm_events.inc()
        previous = _swap_current(self.telemetry)
        try:
            if kind == 0:
                payload()
            elif kind == 1:
                event, value = payload
                if not event.triggered:
                    event.succeed(value)
            elif kind == 2:
                payload._resume(None, None)
            else:
                callback, arg = payload
                callback(arg)
        finally:
            _set_current(previous)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run until the event queue drains or ``until`` is reached.

        The dispatch loop is :meth:`step` inlined (minus the defensive
        time check): one method call and one attribute load per heap
        entry add up over the hundreds of thousands of entries a single
        experiment executes.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        previous = _swap_current(self.telemetry)
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                when, _seq, kind, payload = pop(heap)
                self.now = when
                if kind == 0:
                    payload()
                elif kind == 1:
                    event, value = payload
                    if not event.triggered:
                        event.succeed(value)
                elif kind == 2:
                    payload._resume(None, None)
                else:
                    callback, arg = payload
                    callback(arg)
                executed += 1
                if executed >= max_events and heap:
                    # a silent return here would leave a runaway run
                    # undiagnosable: name what is still pending
                    raise SimulationError(
                        f"run() exhausted max_events={max_events} at t={self.now:g} "
                        f"with {len(heap)} events still pending "
                        f"(next at t={heap[0][0]:g}); runaway simulation?"
                    )
            if until is not None and until > self.now:
                self.now = until
        finally:
            _set_current(previous)
            self.events_executed += executed
            self._tm_events.inc(executed)
            self._running = False

    def peek(self) -> Optional[float]:
        """Time of the next scheduled entry, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None
