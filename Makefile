# EndBox reproduction - common targets
PYTHON ?= python

.PHONY: install test lint check bench experiments experiments-quick security coverage clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# scans the library plus the simulation-domain script trees and leaves
# a SARIF report behind for CI annotation
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/ benchmarks/ examples/ --sarif-out lint.sarif

# Pre-PR gate: the full lint (one run, which must finish inside the
# 5 s latency budget), the full test suite, collection of the benchmark
# suite (a benchmark module that stops importing fails here), the
# end-to-end benchmark's own tests (a src/ rename that breaks its span
# wrappers or counter reads fails here), a figure-10 byte-identity
# smoke, the telemetry differential smoke (recording on vs off must not
# change a single packet byte) and the runner's telemetry artifact test
# (`--telemetry` records per-element Click counters and queue depths,
# and two runs write the same bytes), the swarm determinism smoke (a
# swarm's digest repeats in one process and in a fresh interpreter),
# the fleet rolling-restart and all-gateways-down smokes (every frame
# handed to the fleet is delivered, rejected as stale or counted as
# dropped), the fleet oracle (the swarm and the packet-level fleet must count the
# same migrations on four restart plans) and the three migration tests
# (a migrated client keeps its enclave's configuration version past a
# grace deadline; a rollout then a rolling restart refuses no handshake
# and refetches no configuration; a migrated client re-handshakes at
# once, so the gateways refuse at most one datagram per migration), and
# the key-batch identity tests (a batch of RSA keys searched across
# forked children is bit for bit the serial one, and no child outlives
# it), the header-classifier differential tests (IPFilter and
# IPClassifier send, judge and count every random packet as a first-match
# walk over their rule text does, rule lists past 64 included) and the
# two config-rejection tests (a bundle whose classifier rule can never
# match or does not parse is refused and the version kept; a refused
# bundle leaves the enclave's rules and graph as they were).
check:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/ benchmarks/ examples/ --sarif-out lint.sarif --budget 5
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --collect-only -q
	PYTHONPATH=src $(PYTHON) -m pytest bench/tests -q
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_experiments_smoke.py -q -k "fig10 or deterministic"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_telemetry.py -q -k "identical_with_telemetry or telemetry_artifact"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_faults.py -q -k "deterministic or byte_identical"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_fleet_scenario.py -q -k "digest_repeats"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_fleet_scenario.py tests/test_fleet.py -q -k "rolling_restart_smoke or every_gateway_is_down or fleets_agree or keeps_enclave_version or refuses_no_handshake or rehandshakes_at_once"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_crypto.py tests/test_sgx.py -q -k "keypairs or provision_platforms or cold_fleet_build"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_click_headermatch.py tests/test_core_enclave_app.py -q -k "reference_walk or rejects_classifier_rule or rejected_bundle"

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.runner --all -o experiment_report.md

experiments-quick:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.runner --all --quick

security:
	PYTHONPATH=src $(PYTHON) examples/security_evaluation.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache src/repro.egg-info .benchmarks
	rm -f lint.sarif
