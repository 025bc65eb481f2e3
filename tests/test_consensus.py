"""Paxos + ETTM configuration-manager tests."""

import pytest

from repro.consensus import EttmConfigManager, PaxosNode, PaxosTimeout
from repro.netsim import StarTopology
from repro.netsim.host import class_a_host
from repro.sim import SimulationError, Simulator


def make_fleet(n, rtt_timeout=0.05):
    sim = Simulator()
    topo = StarTopology(sim)
    hosts = []
    for index in range(n):
        host = class_a_host(sim, f"node-{index}")
        topo.attach(host)
        hosts.append(host)
    peers = [h.stack.primary_address() for h in hosts]
    nodes = [PaxosNode(h, i, peers, rtt_timeout=rtt_timeout) for i, h in enumerate(hosts)]
    return sim, hosts, nodes


def run_proposal(sim, node, instance, value, until=30.0):
    box = {}

    def proposer():
        box["value"] = yield sim.process(node.propose(instance, value))

    proc = sim.process(proposer())
    try:
        sim.run(until=sim.now + until)
    except SimulationError as error:
        # nothing waits on the proposer, so its death fails the run,
        # chained from the error it died of
        if proc.exception is None or error.__cause__ is not proc.exception:
            raise
        raise proc.exception
    assert proc.triggered, "proposal did not terminate"
    return box["value"]


def test_single_proposer_reaches_consensus():
    sim, _hosts, nodes = make_fleet(5)
    chosen = run_proposal(sim, nodes[0], 1, "config-v1")
    assert chosen == "config-v1"
    sim.run(until=sim.now + 1.0)
    assert all(node.learned.get(1) == "config-v1" for node in nodes)


def test_second_proposal_learns_existing_decision():
    sim, _hosts, nodes = make_fleet(5)
    run_proposal(sim, nodes[0], 1, "first")
    chosen = run_proposal(sim, nodes[3], 1, "second")
    assert chosen == "first"  # Paxos safety: the decided value sticks


def test_duelling_proposers_agree_on_one_value():
    sim, _hosts, nodes = make_fleet(5)
    results = {}

    def proposer(node, value):
        results[value] = yield sim.process(node.propose(7, value))

    sim.process(proposer(nodes[0], "alpha"))
    sim.process(proposer(nodes[4], "beta"))
    sim.run(until=60.0)
    assert len(results) == 2
    assert len(set(results.values())) == 1  # both learn the same value
    assert set(results.values()) <= {"alpha", "beta"}


def test_consensus_survives_minority_failure():
    sim, _hosts, nodes = make_fleet(5)
    nodes[3].online = False
    nodes[4].online = False
    chosen = run_proposal(sim, nodes[0], 1, "v")
    assert chosen == "v"
    sim.run(until=sim.now + 1.0)
    # offline nodes learned nothing
    assert 1 not in nodes[4].learned


def test_consensus_stalls_without_quorum():
    sim, _hosts, nodes = make_fleet(5, rtt_timeout=0.02)
    for node_id in (2, 3, 4):
        nodes[node_id].online = False
    with pytest.raises(PaxosTimeout):
        run_proposal(sim, nodes[0], 1, "doomed", until=120.0)


def test_multiple_instances_are_independent():
    sim, _hosts, nodes = make_fleet(3)
    assert run_proposal(sim, nodes[0], 1, "one") == "one"
    assert run_proposal(sim, nodes[1], 2, "two") == "two"
    sim.run(until=sim.now + 1.0)
    assert nodes[2].learned == {1: "one", 2: "two"}


# ----------------------------------------------------------------------
# ETTM manager
# ----------------------------------------------------------------------
def make_ettm(n):
    sim = Simulator()
    topo = StarTopology(sim)
    hosts = []
    for index in range(n):
        host = class_a_host(sim, f"ettm-{index}")
        topo.attach(host)
        hosts.append(host)
    return sim, EttmConfigManager(sim, hosts)


def run_rollout(sim, manager, version, **kwargs):
    box = {}

    def roll():
        box["result"] = yield from manager.rollout(version, f"cfg-{version}", **kwargs)

    proc = sim.process(roll())
    sim.run(until=sim.now + 120.0)
    assert proc.triggered and proc.exception is None
    return box["result"]


def test_ettm_rollout_applies_on_all_nodes():
    sim, manager = make_ettm(5)
    result = run_rollout(sim, manager, 1)
    assert not result.failed
    assert result.applied_nodes == 5
    assert result.latency_s > 0
    assert result.messages >= 5 * 3  # prepare+accept+learn broadcast floor


def test_ettm_rollout_message_count_grows_with_fleet():
    sim_a, manager_a = make_ettm(3)
    sim_b, manager_b = make_ettm(9)
    small = run_rollout(sim_a, manager_a, 1)
    large = run_rollout(sim_b, manager_b, 1)
    assert large.messages > 2 * small.messages


def test_ettm_rollout_fails_without_quorum():
    sim, manager = make_ettm(5)
    for node_id in (2, 3, 4):
        manager.set_online(node_id, False)
    result = run_rollout(sim, manager, 1, deadline=5.0)
    assert result.failed
    assert result.applied_nodes < 2
