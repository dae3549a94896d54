# Convenience targets for the HPCA'19 multi-module GPU reproduction.

PYTHON ?= python

.PHONY: install test perf-smoke perf-baseline differential reproduce figures figures-smoke examples trace-smoke service-smoke roofline-smoke idle-smoke clean-cache loc

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Simulator-throughput regression check: quick case, normalized events/sec
# compared against the committed baseline (see docs/PERFORMANCE.md).
perf-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --quick \
	  --out .cache/BENCH_sim.json --check BENCH_sim.json --tolerance 0.2

# Bit-exact contracts (idle-off identity, cache equivalence), diffed with
# zero tolerance.
differential:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential -q

# Regenerate the committed throughput baseline (full sweep; quiet machine).
perf-baseline:
	PYTHONPATH=src $(PYTHON) -m repro bench --out BENCH_sim.json

# Regenerate every registered study into results/<study>/ (fills .cache/
# on first run; the paper figures' and idle study's logs are committed, so
# run this after any change that moves their numbers; see EXPERIMENTS.md).
# Exits 2 if any study's paper claims fail on its full-tier grid.
reproduce figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

# Figure-harness smoke: the quick tier (shrunken workloads, reduced grid)
# regenerates every study into gitignored quick*.txt files (checking the
# Table Ib and config-table paper claims, which have no quick grid), then the
# workload/figure property tests assert the phase-schedule invariants and
# the llmstudy governor direction (see docs/WORKLOADS.md).
figures-smoke:
	PYTHONPATH=src $(PYTHON) -m repro figures --quick
	PYTHONPATH=src $(PYTHON) -m pytest tests/workloads/test_llm.py \
	  tests/experiments/test_llm_study.py tests/roofline/test_screen_fallback.py -q

# Capture a small Chrome trace and validate it (see docs/OBSERVABILITY.md).
# PYTHONPATH=src keeps this working on boxes that skipped `make install`.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace Stream --ctas 32 --gpms 4 --out .cache/trace-smoke.json
	PYTHONPATH=src $(PYTHON) -m repro.tools.validate_trace .cache/trace-smoke.json

# Sweep-service end-to-end check: spin up a 2-worker service, assert the
# miss -> hit -> rejected-infeasible-cap loop and its exact metric counters
# (see docs/SERVICE.md).
service-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.service_smoke

# Roofline fast-path check: the committed error-bound manifest must hold
# against a fresh golden re-simulation, and the screened-sweep contract
# tests must pass, including the screened-vs-exhaustive >= 5x bar of
# tests/roofline/test_screen_speedup.py (see docs/MODELING.md).
roofline-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.roofline_bounds
	PYTHONPATH=src $(PYTHON) -m pytest tests/roofline -q

# Idle-subsystem wall: the differential idle-off bit-identity suite, the
# Hypothesis property wall for sleep states and governors, and
# tests/experiments/test_idle_study.py, which asserts the race-to-idle win
# on the bursty workload and loss on the steady one; then the idle study's
# quick tier, whose summary prints both directions (see docs/POWER.md).
idle-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential/test_idle_identity.py \
	  tests/dvfs/test_idle_properties.py tests/experiments/test_idle_study.py -q
	PYTHONPATH=src $(PYTHON) -m repro figures --only idle_study --quick

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/calibrate_gpujoule.py
	$(PYTHON) examples/interconnect_design_space.py
	$(PYTHON) examples/datacenter_upgrade.py

# Drops the sweep cache and the gitignored quick-tier outputs; the
# committed full-tier logs under results/ stay.
clean-cache:
	rm -rf .cache
	rm -f results/*/quick*.txt

loc:
	@echo "src:";        find src -name '*.py' | xargs wc -l | tail -1
	@echo "tests:";      find tests -name '*.py' | xargs wc -l | tail -1
	@echo "benchmarks:"; find benchmarks -name '*.py' | xargs wc -l | tail -1
	@echo "examples:";   find examples -name '*.py' | xargs wc -l | tail -1
