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
# change a single packet byte), the shard-determinism smoke (2-shard
# merged digest == serial digest) and the fleet rolling-restart smoke.
check:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/ benchmarks/ examples/ --sarif-out lint.sarif --budget 5
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --collect-only -q
	PYTHONPATH=src $(PYTHON) -m pytest bench/tests -q
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_experiments_smoke.py -q -k "fig10 or deterministic"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_telemetry.py -q -k "identical_with_telemetry"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_faults.py -q -k "deterministic or byte_identical"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_sim_parallel.py -q -k "digest_matches_serial"
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_fleet_scenario.py -q -k "rolling_restart_smoke"

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
