"""Shared resources: CPU cores and FIFO stores.

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
from typing import Any, Callable, Deque, Generator

from repro.sim.engine import Event, SimulationError, Simulator


class CpuCores:
    """A pool of CPU cores with utilisation accounting.

    Work is submitted as a *duration* of core time: :meth:`run` calls
    back once a core was free and the work has run, and the
    :meth:`execute` generator blocks the calling process until then.
    Total busy time is tracked so experiments can report CPU usage
    exactly as the paper does (100 % = all cores busy).

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
        self.effective_cores = max(1, round(cores * ht_factor))
        #: cores held by a job, from its grant to its end
        self.in_use = 0
        self._waiting: Deque[_Job] = deque()
        self.busy_time = 0.0
        self._window_start = 0.0
        self._window_busy = 0.0

    # ------------------------------------------------------------------
    def run(self, duration: float, callback: Callable[[Any], None], arg: Any = None) -> "_Job":
        """Occupy one core for ``duration`` seconds, then call ``callback(arg)``.

        A free core is granted by a callback scheduled at the current
        time, and the work ends with a callback ``charged`` seconds after
        the grant, which hands the core on and then calls ``callback``;
        jobs that find every core busy wait in FIFO order.  Returns the
        job, for :meth:`cancel`.
        """
        if duration < 0:
            raise SimulationError(f"negative CPU duration {duration!r}")
        charged = duration
        if self.context_switch_cost and self.in_use + len(self._waiting) >= self.effective_cores:
            charged += self.context_switch_cost
        job = _Job(charged, callback, arg)
        if self.in_use < self.effective_cores:
            self.in_use += 1
            job.holding = True
            self.sim.schedule(0.0, self._grant, job)
        else:
            self._waiting.append(job)
        return job

    def execute(self, duration: float) -> Generator:
        """Process generator: occupy one core for ``duration`` seconds.

        The caller waits on one event, fired by :meth:`run`'s callback.
        A process interrupted at any point gives back its core or its
        place in the queue; a callback still on the heap for it then
        runs as a no-op.
        """
        done = Event(self.sim)
        job = self.run(duration, done.succeed)
        try:
            yield done
        finally:
            if not done.triggered:
                self.cancel(job)

    def cancel(self, job: "_Job") -> None:
        """Withdraw ``job``: give back its core or its place in the queue.
        A job that has already ended is left as it is."""
        if job.holding:
            job.holding = False
            self._release()
        else:
            try:
                self._waiting.remove(job)
            except ValueError:
                pass  # ended: its core was handed on then

    def _grant(self, job: "_Job") -> None:
        """``job`` holds a core: its work ends ``charged`` seconds on.  The
        grant entry left on the heap by a cancelled job does nothing."""
        if not job.holding:
            return
        if job.charged > 0:
            self.sim.schedule(job.charged, self._end, job)
        else:
            self._end(job)

    def _end(self, job: "_Job") -> None:
        """The work is done: account it, hand the core on, call back."""
        if not job.holding:
            return  # cancelled; the core was given back then
        job.holding = False
        self.busy_time += job.charged
        self._window_busy += job.charged
        self._release()
        job.callback(job.arg)

    def _release(self) -> None:
        if self._waiting:
            job = self._waiting.popleft()
            job.holding = True
            self._grant(job)
        else:
            self.in_use -= 1

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


class _Job:
    """One :meth:`CpuCores.run` call: ``callback(arg)`` runs when its
    work has."""

    __slots__ = ("charged", "callback", "arg", "holding")

    def __init__(self, charged: float, callback: Callable[[Any], None], arg: Any) -> None:
        self.charged = charged
        self.callback = callback
        self.arg = arg
        #: True from the grant until the end or a cancel
        self.holding = False


class FifoStore:
    """Unbounded FIFO channel between processes.

    ``put()`` never blocks; ``get()`` returns an event that fires with
    the next item.
    """

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        # Event pool for puts: every put used to allocate a fresh
        # already-triggered Event that callers almost always discard.
        # One shared triggered instance is semantically identical
        # (waiters see a deferred wake-up with value None, exactly as
        # before) and removes the dominant allocation in the daemons'
        # dispatch handlers.
        self._put_done = sim.event(f"{name}.put")
        self._put_done.triggered = True

    def put(self, item: Any) -> Event:
        """Insert an item; the returned event has already fired."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return self._put_done

    def get(self) -> Event:
        """Event yielding the next item."""
        event = self.sim.event(self.name)
        if self._items:
            event.succeed(self._items.popleft())
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

    def __len__(self) -> int:
        return len(self._items)
