"""Fleet-rollout bench: the flow-level swarm next to its oracle.

Runs the rolling-restart fleet at the ``--quick`` size (600 clients,
4 gateways) in one simulator, next to its 16-client packet-level
oracle; the full 10k-client fleet is available through
``endbox-experiments fleet-rollout``.
"""

from repro.experiments import fleet_rollout


def test_fleet_rollout(once, benchmark):
    spec = fleet_rollout.fleet_rollout_spec(n_clients=600, gateways=4)
    result = once(benchmark, fleet_rollout.run_fleet_rollout, spec=spec)
    print("\n" + result.to_text())
    meta = result.metadata
    # no stale packet is admitted, even with restarts mid-rollout
    assert meta["stale_admitted_after_grace"] == 0
    # the restarts drained and re-homed every client once...
    assert meta["migrations"] == meta["remaps"] == 2 * 600
    # ...and the packet-level oracle agreed on the same plan
    oracle = meta["oracle"]
    assert oracle["packet"] == oracle["swarm"]
    assert oracle["all_home"]
