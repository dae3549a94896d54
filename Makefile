# Convenience targets for the HPCA'19 multi-module GPU reproduction.

PYTHON ?= python

.PHONY: install test perf-gate differential reproduce figures figures-smoke examples trace-smoke service-smoke roofline-smoke idle-smoke clean-cache loc

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Performance gate: the repository benchmark on revision BASE and on this
# tree, on the same host.  Each tree runs `run --all --seed 0` three times,
# alternating which goes first, then `compare` exits 1 on any end-to-end
# metric worse than its BENCHMARK.json bound or a higher failure ratio
# (see docs/PERFORMANCE.md).  Usage: make perf-gate BASE=<rev>
perf-gate:
	@test -n "$(BASE)" || { echo "usage: make perf-gate BASE=<rev>" >&2; exit 2; }
	rm -rf .cache/perf-gate
	mkdir -p .cache/perf-gate/base
	git archive $(BASE) | tar -x -C .cache/perf-gate/base
	$(PYTHON) -m compileall -q src
	cd .cache/perf-gate/base && $(PYTHON) -m compileall -q src
	for side in base change change base base change; do \
	  if [ $$side = base ]; then tree=.cache/perf-gate/base; else tree=.; fi; \
	  (cd $$tree && $(PYTHON) -m benchmarks.suite run --all --seed 0 \
	    --out $(CURDIR)/.cache/perf-gate/$$side.jsonl) || exit $$?; \
	done
	$(PYTHON) -m benchmarks.suite compare .cache/perf-gate/base.jsonl .cache/perf-gate/change.jsonl

# Bit-exact contracts, diffed with zero tolerance: idle-off identity, cache
# equivalence against ReferenceCache, the remote-path pins (metrics and
# events_processed), shared-trace identity (one build per spec vs per pair)
# and the slot pins (runs whose GPM shares leave CTA slots empty; events are
# the pin minus two per slot that never starts).
differential:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential -q

# Regenerate every registered study into results/<study>/ (fills .cache/
# on first run; the paper figures' and idle study's logs are committed, so
# run this after any change that moves their numbers; see EXPERIMENTS.md).
# Exits 2 if any study's paper claims fail on its full-tier grid.
reproduce figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

# Figure-harness smoke: the quick tier (shrunken workloads, reduced grid)
# regenerates every study into gitignored quick*.txt files (checking the
# Table Ib and config-table paper claims, which have no quick grid); a
# replay of it on the same cache must add no cache entry and rewrite every
# quick*.txt byte for byte (repeats served from memory, then from disk);
# then the workload/figure property tests assert the phase-schedule
# invariants and the llmstudy governor direction (see docs/WORKLOADS.md).
figures-smoke:
	PYTHONPATH=src $(PYTHON) -m repro figures --quick
	PYTHONPATH=src $(PYTHON) -m repro.tools.figures_replay
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
