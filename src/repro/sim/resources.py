"""Shared resources: generic counting resource, CPU cores, FIFO stores.

The CPU model is the part that matters for reproducing the paper's
throughput and scalability results: every host has a fixed number of
logical cores, single-threaded daemons (OpenVPN processes, Click instances)
occupy one runnable thread each, and when more threads are runnable than
cores exist, the scheduler charges a context-switch penalty per scheduling
quantum.  That penalty is what makes the paper's ``OpenVPN+Click`` curve
*decrease* as clients grow (Fig 10) while vanilla OpenVPN merely plateaus.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class Resource:
    """Counting resource with FIFO grant order.

    ``request()`` returns an event that fires when a slot is granted;
    ``release()`` frees a slot.  Prefer the :meth:`acquire` generator for
    use inside processes.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """Request a slot; returns an event that fires when granted."""
        event = self.sim.event(self.name)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release a previously granted slot."""
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            if self.in_use <= 0:
                raise SimulationError(f"{self.name}: release without request")
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiters)


class CpuCores:
    """A pool of CPU cores with utilisation accounting.

    Work is submitted as a *duration* of core time; the :meth:`execute`
    generator blocks the calling process until a core is free and the work
    has run.  Total busy time is tracked so experiments can report CPU
    usage exactly as the paper does (100 % = all cores busy).

    Parameters
    ----------
    cores:
        Number of physical cores.
    ht_factor:
        Hyper-threading uplift: effective capacity is
        ``cores * ht_factor``.  The evaluation machines run with
        hyper-threading enabled; 1.3 is a standard planning figure for
        SMT2 on packet-processing workloads.
    context_switch_cost:
        Seconds charged per scheduling grant *when the pool is
        oversubscribed* (more runnable threads than effective capacity).
    """

    def __init__(
        self,
        sim: Simulator,
        cores: int = 4,
        ht_factor: float = 1.3,
        context_switch_cost: float = 0.0,
        name: str = "cpu",
    ) -> None:
        self.sim = sim
        self.cores = cores
        self.ht_factor = ht_factor
        self.name = name
        self.context_switch_cost = context_switch_cost
        effective = max(1, round(cores * ht_factor))
        self._resource = Resource(sim, effective, name=f"{name}.cores")
        self.effective_cores = effective
        self.busy_time = 0.0
        self._window_start = 0.0
        self._window_busy = 0.0

    # ------------------------------------------------------------------
    def execute(self, duration: float) -> Generator:
        """Process generator: occupy one core for ``duration`` seconds."""
        if duration < 0:
            raise SimulationError(f"negative CPU duration {duration!r}")
        oversubscribed = (
            self._resource.in_use + self._resource.queue_length >= self.effective_cores
        )
        yield self._resource.request()
        try:
            charged = duration
            if oversubscribed and self.context_switch_cost:
                charged += self.context_switch_cost
            if charged > 0:
                yield self.sim.timeout(charged)
            self.busy_time += charged
            self._window_busy += charged
        finally:
            self._resource.release()

    # ------------------------------------------------------------------
    # utilisation reporting
    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Start a fresh utilisation measurement window."""
        self._window_start = self.sim.now
        self._window_busy = 0.0

    def utilisation(self) -> float:
        """Fraction of capacity used since the last :meth:`reset_window`.

        1.0 means every effective core was busy the whole window.
        """
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._window_busy / (elapsed * self.effective_cores))


#: Convenience alias used throughout the code base.
CPU = CpuCores


class FifoStore:
    """Unbounded (or bounded) FIFO channel between processes.

    ``put()`` never blocks unless a ``capacity`` was given; ``get()``
    returns an event that fires with the next item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store") -> None:
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        # Event pool for non-blocking puts: every such put used to
        # allocate a fresh already-triggered Event that callers almost
        # always discard.  One shared triggered instance is semantically
        # identical (waiters see a deferred wake-up with value None,
        # exactly as before) and removes the dominant allocation in the
        # dispatch loops.
        self._put_done = sim.event(f"{name}.put")
        self._put_done.triggered = True

    def put(self, item: Any) -> Event:
        """Insert an item (event fires immediately unless bounded-full)."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return self._put_done
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return self._put_done
        event = self.sim.event(self.name)
        self._putters.append(event)
        event.value = item  # parked; delivered on next get
        return event

    def get(self) -> Event:
        """Event yielding the next item."""
        event = self.sim.event(self.name)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                putter = self._putters.popleft()
                self._items.append(putter.value)
                putter.value = None
                putter.succeed(None)
            event.succeed(item)
        elif self._putters:
            putter = self._putters.popleft()
            item, putter.value = putter.value, None
            putter.succeed(None)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a parked ``get()`` waiter that lost a race.

        A consumer that races ``get()`` against a timeout must withdraw
        the losing getter, otherwise the abandoned event silently
        swallows the next item put into the store.  Returns True when
        the waiter was still parked (and is now removed); False when it
        had already been granted an item or was never parked.
        """
        if event.triggered:
            return False
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def peek(self) -> Any:
        """The next item ``get``/``try_get`` would return, without
        removing it; None when empty.  Lets a consumer drain only a
        same-kind run of items (batched dispatch) without reordering."""
        if self._items:
            return self._items[0]
        if self._putters:
            return self._putters[0].value
        return None

    def __len__(self) -> int:
        return len(self._items)
