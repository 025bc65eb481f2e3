"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.engine import Interrupt


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(1.5)
        seen.append(sim.now)
        yield sim.timeout(0.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [1.5, 2.0]


def test_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc("slow", 3.0))
    sim.process(proc("fast", 1.0))
    sim.process(proc("mid", 2.0))
    sim.run()
    assert order == ["fast", "mid", "slow"]


def test_equal_time_ties_broken_by_schedule_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in "abc":
        sim.process(proc(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates_to_parent():
    sim = Simulator()
    result = []

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        result.append(value)

    sim.process(parent())
    sim.run()
    assert result == [42]


def test_event_succeed_delivers_value():
    sim = Simulator()
    gate = sim.event("gate")
    got = []

    def waiter():
        value = yield gate
        got.append((sim.now, value))

    def opener():
        yield sim.timeout(2.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert got == [(2.0, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1.0)
        gate.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(ticker())
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_all_of_waits_for_every_child():
    sim = Simulator()
    results = []

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        procs = [sim.process(child(d, v)) for d, v in [(3, "c"), (1, "a"), (2, "b")]]
        values = yield sim.all_of(procs)
        results.append((sim.now, values))

    sim.process(parent())
    sim.run()
    assert results == [(3.0, ["c", "a", "b"])]


def test_any_of_fires_on_first_child():
    sim = Simulator()
    results = []

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        procs = [sim.process(child(d, v)) for d, v in [(3, "slow"), (1, "fast")]]
        _event, value = yield sim.any_of(procs)
        results.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert results == [(1.0, "fast")]


def test_interrupt_terminates_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, sim.now))

    def interrupter(proc):
        yield sim.timeout(2.0)
        proc.interrupt("stop")

    proc = sim.process(sleeper())
    sim.process(interrupter(proc))
    sim.run()
    assert log == [("interrupted", "stop", 2.0)]


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    # nothing waits on "bad", so its death fails the run
    with pytest.raises(SimulationError, match="'bad' died") as excinfo:
        sim.run()
    assert proc.triggered
    assert isinstance(proc.exception, SimulationError)
    assert excinfo.value.__cause__ is proc.exception
    assert "yielded non-event" in str(proc.exception)


def test_callback_on_already_triggered_event_runs():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("v")
    got = []

    def waiter():
        value = yield gate
        got.append(value)

    sim.process(waiter())
    sim.run()
    assert got == ["v"]


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.process(iter_timeout(sim, 5.0))
    assert sim.peek() == 0.0  # process start is scheduled at now


def test_peek_empty_after_queue_drains():
    sim = Simulator()
    sim.process(iter_timeout(sim, 1.0))
    sim.run()
    assert sim.peek() is None
    # still None (and harmless) on repeated polls of a drained queue
    assert sim.peek() is None


def test_all_of_child_failure_while_others_pending():
    """A failing child must fail the composite while siblings still
    sleep."""
    sim = Simulator()
    caught = []

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def slow():
        yield sim.timeout(10.0)
        return "slow"

    def parent():
        procs = [sim.process(slow()), sim.process(failing())]
        try:
            yield sim.all_of(procs)
        except ValueError as exc:
            caught.append((sim.now, str(exc)))

    sim.process(parent())
    sim.run()
    assert caught == [(1.0, "child failed")]


def test_any_of_child_failure_while_others_pending():
    sim = Simulator()
    caught = []

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("first to fire fails")

    def slow():
        yield sim.timeout(10.0)

    def parent():
        procs = [sim.process(slow()), sim.process(failing())]
        try:
            yield sim.any_of(procs)
        except RuntimeError as exc:
            caught.append((sim.now, str(exc)))

    sim.process(parent())
    sim.run()
    assert caught == [(1.0, "first to fire fails")]


def test_run_max_events_exhaustion_names_pending_state():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(1.0)

    sim.process(ticker())
    with pytest.raises(SimulationError) as excinfo:
        sim.run(max_events=10)
    message = str(excinfo.value)
    assert "max_events=10" in message
    assert "still pending" in message
    assert "next at t=" in message


def test_run_max_events_exact_drain_does_not_raise():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.run(max_events=5)  # queue drains on the final allowed event
    assert fired == [0, 1, 2, 3, 4]


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_unobserved_process_death_fails_the_run():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    sim.process(worker(), name="worker")
    with pytest.raises(SimulationError, match="'worker' died") as excinfo:
        sim.run()
    assert isinstance(excinfo.value.__cause__, KeyError)
    assert sim.now == 1.0


def test_waited_on_process_hands_its_exception_to_the_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    def parent():
        try:
            yield sim.process(child(), name="child")
        except KeyError as error:
            caught.append(error)

    sim.process(parent(), name="parent")
    sim.run()  # nothing died unobserved: the parent handled it
    assert len(caught) == 1
