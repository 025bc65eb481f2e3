"""The VPN workers as heap callbacks: the client's worker and the
gateway's per-session workers queue their items, charge the CPU through
``CpuCores.run`` and go on in each charge's end callback, pushing the
heap entries their generator processes did, in the same order."""

import pytest

from repro.netsim import IPv4Packet, UdpDatagram
from repro.sim import CpuCores, Simulator
from repro.vpn.openvpn import VpnSession
from tests.test_vpn_integration import VpnWorld


def test_cpu_run_and_execute_jobs_share_one_fifo_queue():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def record(name):
        done.append((name, sim.now))

    def process(name):
        yield from cpu.execute(1.0)
        record(name)

    cpu.run(1.0, record, "a")
    sim.process(process("b"))  # submits its job at its kickoff, after "a"
    sim.schedule(0.0, lambda: cpu.run(1.0, record, "c"))
    sim.process(process("d"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]
    assert cpu.in_use == 0
    assert cpu.busy_time == 4.0


def test_cpu_cancel_of_an_ended_job_changes_nothing():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []
    job = cpu.run(1.0, done.append, "a")
    sim.run()
    cpu.run(1.0, done.append, "b")
    cpu.cancel(job)
    sim.run()
    assert done == ["a", "b"]
    assert cpu.in_use == 0


# ----------------------------------------------------------------------
# the gateway's session workers
# ----------------------------------------------------------------------
def _gateway(monkeypatch, charge_cpu=True):
    """A connected one-client world whose gateway has one core and
    charges 1 s per egress packet; the client is crashed, so it sends
    nothing more to the gateway.  Returns (world, session, cpu)."""
    world = VpnWorld(n_clients=1, charge_cpu=charge_cpu)
    world.connect_all()
    world.clients[0].suspend()
    cpu = CpuCores(world.sim, cores=1, ht_factor=1.0)
    world.server.host.cpu = cpu
    monkeypatch.setattr("repro.vpn.openvpn.server_egress_cost", lambda model, size, mode: 1.0)
    (session,) = world.server.sessions_by_peer.values()
    return world, session, cpu


def _inner_to(session):
    return IPv4Packet(src="10.0.0.9", dst=session.tunnel_ip, l4=UdpDatagram(4000, 5000, b"x" * 64))


def test_session_closed_mid_charge_hands_its_core_on_at_the_close(monkeypatch):
    world, session, cpu = _gateway(monkeypatch)
    sim, server = world.sim, world.server
    t0 = sim.now
    ended = []
    server._on_tun_packet(_inner_to(session))  # the idle worker charges 1 s at once
    cpu.run(1.0, lambda name: ended.append((name, sim.now)), "next")
    sim.schedule(0.5, server.close_sessions, session.outer_addr)
    sim.run(until=t0 + 3.0)
    assert ended == [("next", t0 + 1.5)]
    assert session.closed
    assert session.inner_bytes_out == 0  # the charge's continuation never ran
    assert cpu.in_use == 0
    assert cpu.busy_time == 1.0


def test_session_closed_while_queued_leaves_the_cpu_queue(monkeypatch):
    world, session, cpu = _gateway(monkeypatch)
    sim, server = world.sim, world.server
    t0 = sim.now
    ended = []

    def record(name):
        ended.append((name, sim.now))

    cpu.run(1.0, record, "first")
    server._on_tun_packet(_inner_to(session))  # queues behind "first"
    cpu.run(1.0, record, "third")
    sim.schedule(0.5, server.close_sessions, session.outer_addr)
    sim.run(until=t0 + 4.0)
    assert ended == [("first", t0 + 1.0), ("third", t0 + 2.0)]
    assert session.inner_bytes_out == 0
    assert cpu.in_use == 0


def test_closed_session_drops_later_items(monkeypatch):
    world, session, cpu = _gateway(monkeypatch)
    sim, server = world.sim, world.server
    server.close_sessions(session.outer_addr)
    assert not session.closed  # the close is a heap entry at now
    sim.run(until=sim.now + 0.1)
    assert session.closed
    busy = cpu.busy_time
    server._session_put(session, ("tx", _inner_to(session)))
    sim.run(until=sim.now + 2.0)
    assert not session.queue
    assert session.inner_bytes_out == 0
    assert cpu.busy_time == busy


def test_item_put_before_the_first_entry_is_handled_after_it(monkeypatch):
    world, session, _cpu = _gateway(monkeypatch, charge_cpu=False)
    sim, server = world.sim, world.server
    # every entry due by now has run, so the new worker's first entry is next
    fresh = VpnSession(
        server,
        session_id=99,
        secrets=session.secrets,
        certificate=session.certificate,
        outer_addr=session.outer_addr,
        outer_port=9,
        tunnel_ip=session.tunnel_ip,
        mode=server.mode,
    )
    server._session_put(fresh, ("tx", _inner_to(session)))
    assert fresh.inner_bytes_out == 0  # queued: the worker has not started
    sim.step()  # the first entry, standing where the process kickoff was
    assert fresh.inner_bytes_out == 0 and len(fresh.queue) == 1
    sim.step()  # the next-item entry, the kickoff's deferred wake-up
    assert fresh.inner_bytes_out > 0 and not fresh.queue
    assert not fresh.busy


def test_without_cpu_charges_a_session_chain_runs_inline(monkeypatch):
    world, session, cpu = _gateway(monkeypatch, charge_cpu=False)
    world.server._on_tun_packet(_inner_to(session))
    assert session.inner_bytes_out > 0  # sealed and sent inside the put
    assert not session.busy
    assert cpu.busy_time == 0.0


# ----------------------------------------------------------------------
# the client's worker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("charge_cpu", [True, False])
def test_client_worker_handles_egress_then_goes_idle(charge_cpu):
    world = VpnWorld(n_clients=1, charge_cpu=charge_cpu)
    world.connect_all()
    client = world.clients[0]
    sent = client.inner_bytes_sent
    inner = IPv4Packet(src=client.tunnel_ip, dst="10.0.0.9", l4=UdpDatagram(4000, 5000, b"y"))
    client._work_put(("tx", inner, client.channel_epoch))
    if charge_cpu:
        assert client._work_busy and client.inner_bytes_sent == sent  # waits for its core
        world.sim.run(until=world.sim.now + 0.01)
    assert client.inner_bytes_sent == sent + len(inner)  # inline without charges
    assert not client._work_busy and not client._work_inbox
