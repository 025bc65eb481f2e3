"""Unit tests for resources: CPU cores, FIFO store."""

import pytest

from repro.sim import CpuCores, FifoStore, Simulator, SimulationError


def test_cpu_executes_work_serially_on_one_core():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def job(name):
        yield sim.process(cpu.execute(2.0))
        done.append((sim.now, name))

    sim.process(job("a"))
    sim.process(job("b"))
    sim.run()
    assert done == [(2.0, "a"), (4.0, "b")]


def test_cpu_parallelism_matches_effective_cores():
    sim = Simulator()
    cpu = CpuCores(sim, cores=2, ht_factor=1.0)
    done = []

    def job():
        yield sim.process(cpu.execute(1.0))
        done.append(sim.now)

    for _ in range(4):
        sim.process(job())
    sim.run()
    assert done == [1.0, 1.0, 2.0, 2.0]


def test_cpu_grants_queued_jobs_in_submission_order():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    started = []

    def job(name):
        yield from cpu.execute(1.0)
        started.append((sim.now - 1.0, name))

    for name in "abcd":
        sim.process(job(name))
    sim.run()
    assert started == [(0.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "d")]


def test_cpu_queue_place_comes_back_when_a_waiter_is_interrupted():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def job(name, start):
        yield sim.timeout(start)
        yield from cpu.execute(1.0)
        done.append((sim.now, name))

    def crash(delay, victim):
        yield sim.timeout(delay)
        victim.interrupt("crash")

    sim.process(job("holder", 0.0))
    waiter = sim.process(job("waiter", 0.0))
    sim.process(crash(0.5, waiter))
    sim.process(job("later", 2.0))
    sim.run()
    assert done == [(1.0, "holder"), (3.0, "later")]
    assert cpu.in_use == 0


def test_cpu_core_comes_back_when_interrupted_at_its_grant():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def crash():
        yield sim.timeout(1.0)
        victim.interrupt("crash")  # runs after the grant, before its wake-up

    def job(name, start):
        yield sim.timeout(start)
        yield from cpu.execute(1.0)
        done.append((sim.now, name))

    sim.process(crash())
    victim = sim.process(job("victim", 1.0))
    sim.process(job("later", 2.0))
    sim.run()
    assert done == [(3.0, "later")]
    assert cpu.in_use == 0


def test_cpu_core_comes_back_when_interrupted_mid_charge():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def job(name):
        yield from cpu.execute(2.0)
        done.append((sim.now, name))

    def crash():
        yield sim.timeout(0.5)
        victim.interrupt("crash")

    victim = sim.process(job("victim"))
    sim.process(job("next"))
    sim.process(crash())
    sim.run()
    # the queued job starts when the interrupted one gives its core back
    assert done == [(2.5, "next")]
    assert cpu.in_use == 0
    assert cpu.busy_time == 2.0


def test_cpu_ht_factor_increases_capacity():
    sim = Simulator()
    cpu = CpuCores(sim, cores=4, ht_factor=1.5)
    assert cpu.effective_cores == 6


def test_cpu_utilisation_accounting():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)

    def job():
        yield sim.process(cpu.execute(3.0))

    cpu.reset_window()
    sim.process(job())
    sim.run(until=6.0)
    assert cpu.utilisation() == pytest.approx(0.5)


def test_cpu_context_switch_penalty_when_oversubscribed():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0, context_switch_cost=0.5)
    done = []

    def job(name):
        yield sim.process(cpu.execute(1.0))
        done.append((sim.now, name))

    sim.process(job("a"))
    sim.process(job("b"))
    sim.run()
    # "a" saw a free pool (no penalty); "b" queued behind it (penalty).
    assert done == [(1.0, "a"), (2.5, "b")]


def test_cpu_rejects_negative_duration():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1)

    def job():
        yield sim.process(cpu.execute(-1.0))

    proc = sim.process(job())
    # the child's error reaches its waiter "job", which dies of it with
    # nothing waiting on it: the run fails
    with pytest.raises(SimulationError, match="'job' died") as excinfo:
        sim.run()
    assert isinstance(proc.exception, SimulationError)
    assert excinfo.value.__cause__ is proc.exception
    assert "negative" in str(proc.exception)


def test_fifo_store_put_then_get():
    sim = Simulator()
    store = FifoStore(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    def producer():
        yield sim.timeout(1.0)
        store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == ["x"]


def test_fifo_store_preserves_order():
    sim = Simulator()
    store = FifoStore(sim)
    for item in [1, 2, 3]:
        store.put(item)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(consumer())
    sim.run()
    assert got == [1, 2, 3]


def test_fifo_try_get_nonblocking():
    sim = Simulator()
    store = FifoStore(sim)
    assert store.try_get() is None
    store.put(7)
    assert store.try_get() == 7
    assert len(store) == 0


def test_seeded_rng_deterministic_and_namespaced():
    from repro.sim import SeededRng

    a = SeededRng(1).child("x")
    b = SeededRng(1).child("x")
    c = SeededRng(1).child("y")
    seq_a = [a.random() for _ in range(5)]
    seq_b = [b.random() for _ in range(5)]
    seq_c = [c.random() for _ in range(5)]
    assert seq_a == seq_b
    assert seq_a != seq_c
