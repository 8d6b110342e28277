# One entry point per CI job, so local runs and CI are identical.
#
#   make test        tier-1 test suite (what CI's test matrix runs),
#                    listing the 15 slowest tests;
#                    with pytest-cov installed it also prints coverage
#                    and gates the cluster/routing modules at COV_MIN%
#   make lint        ruff (falls back to a syntax check if ruff is absent)
#   make perf-gate   perfbench on each workload in PERF_RECORD.json, checked
#                    against the record by tools/perf_gate.py (what CI gates on)
#   make equiv       replicated-seed equivalence gate against EQUIV_pool.json
#   make fuzz        seeded scenario fuzz campaign + corpus replay
#   make reproduce   every figure and table, parallel, cached
#   make startup     what a warm run imports: repro modules + self time
#
# JOBS and CACHE_DIR are overridable: `make reproduce JOBS=16`.

PYTHON      ?= python
JOBS        ?= 4
CACHE_DIR   ?= .repro-cache
# coverage floor for the modules the cluster + scenario PRs introduced,
# and the spec modules split out of them (what CI enforces); the rest
# of the tree is reported, not gated
COV_MIN     ?= 90
COV_MODULES  = --cov=repro.core.cluster --cov=repro.sim.station --cov=repro.core.scenario --cov=repro.core.faults --cov=repro.core.resilience --cov=repro.core.distributed \
               --cov=repro.core.cluster_config --cov=repro.core.resilience_spec --cov=repro.core.distributed_spec
# figure grids and demo scenarios the scenario round-trip check walks
SCENARIO_GRIDS ?= 2 3 4 5 smoke sh po ft rf rs xs es
SCENARIO_DEMOS ?= trace-retailer trace-auction slo-tv failover
# fuzz campaign knobs (what CI's smoke job runs; about a minute on a 2-vCPU host)
FUZZ_SEED       ?= 0
FUZZ_ITERATIONS ?= 75
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint perf-gate equiv reproduce smoke scenarios fuzz startup clean

test:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -x -q --durations=15 $(COV_MODULES) \
			--cov-report=term-missing --cov-fail-under=$(COV_MIN); \
	else \
		echo "pytest-cov not installed; running without the coverage gate"; \
		$(PYTHON) -m pytest -x -q --durations=15; \
	fi

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; falling back to a syntax check"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples tools; \
	fi

# The benchmark gate: run perfbench (perfbench/run.py, the repository
# benchmark) on every workload PERF_RECORD.json records, at its recorded
# seed, then check the results against the record.  tools/perf_gate.py
# fails when a run fails a cell, runs over 2x the recorded host-scaled
# us_per_tx or warm_s, serves its cached pass less than 10x faster than
# its cold pass, or left no result.  A stale result is removed before each run.
perf-gate:
	@for run in $$($(PYTHON) -c 'import json; print(*("%s:%d" % (name, entry["seed"]) \
			for name, entry in json.load(open("PERF_RECORD.json"))["workloads"].items()))'); do \
		workload=$${run%:*}; seed=$${run#*:}; \
		rm -f .perfbench-out/results/$$workload-seed$$seed-trace0.json; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed $$seed --seconds 20 || exit 1; \
	done
	$(PYTHON) tools/perf_gate.py

# The equivalence gate: rerun every cell the checked-in reference
# recorded (figures 2-5, sh, xs, rs at 8 seeds each) with this tree's
# code and compare by paired per-seed differences, Holm-corrected;
# exits 1 when a (grid, metric) test rejects (README, "Equivalence gate").
equiv:
	$(PYTHON) -m repro.experiments equiv --against EQUIV_pool.json --jobs 2

# Scenario API round-trip: for every figure grid and every demo,
# `scenario show` piped back through `scenario fingerprint` must produce
# exactly the digests computed directly — i.e. the JSON encoding is
# canonical and loses nothing the cache key depends on (what CI runs).
# The demos carry the axes no grid uses (trace arrivals, PerClassSlo).
scenarios:
	@for source in $(addprefix grid:,$(SCENARIO_GRIDS)) $(addprefix demo:,$(SCENARIO_DEMOS)); do \
		kind=$${source%%:*}; name=$${source#*:}; \
		$(PYTHON) -m repro.experiments scenario show --$$kind $$name \
			| $(PYTHON) -m repro.experiments scenario fingerprint - \
			> .scenario-rt-a.json; \
		$(PYTHON) -m repro.experiments scenario fingerprint --$$kind $$name \
			> .scenario-rt-b.json; \
		diff -q .scenario-rt-a.json .scenario-rt-b.json > /dev/null \
			|| { echo "scenario round-trip MISMATCH for $$kind $$name"; exit 1; }; \
		echo "$$kind $$name: scenario round-trip fingerprints stable"; \
	done
	@rm -f .scenario-rt-a.json .scenario-rt-b.json

# Seeded random walk over ScenarioSpec space, drawn from the spec codec,
# under the oracle library (codec round-trip, conservation, MPL sanity,
# exactly-once disposition, 2PC atomicity, bit-identical replay, --jobs
# invariance), then a replay of the checked-in minimized reproducer
# corpus.  Failures write shrunk reproducers into
# tests/data/fuzz_corpus/ — CI uploads them as an artifact.
fuzz:
	$(PYTHON) -m repro.experiments fuzz --seed $(FUZZ_SEED) \
		--iterations $(FUZZ_ITERATIONS)
	$(PYTHON) -m repro.experiments fuzz --replay

smoke:
	$(PYTHON) -m repro.experiments 4 --jobs $(JOBS) --cache-dir $(CACHE_DIR)

reproduce:
	$(PYTHON) -m repro.experiments all --jobs $(JOBS) --cache-dir $(CACHE_DIR)

# Import cost of a warm run (observability; gates nothing): fill the
# cache with figure 4 if needed, rerun it warm under -X importtime with
# no bytecode written, and print each repro module it loaded, in import
# order, with its self time.  The whole log is startup-importtime.log.
startup:
	PYTHONDONTWRITEBYTECODE=1 $(PYTHON) -m repro.experiments 4 --jobs 1 \
		--cache-dir $(CACHE_DIR) > /dev/null
	PYTHONDONTWRITEBYTECODE=1 $(PYTHON) -X importtime -m repro.experiments 4 --jobs 1 \
		--cache-dir $(CACHE_DIR) > /dev/null 2> startup-importtime.log
	@awk -F'|' '$$3 ~ /^ +repro/ { split($$1, self, ":"); n++; total += self[2]; \
		printf "%9d us %s\n", self[2], $$3 } \
		END { printf "%9d us self time of %d repro modules\n", total, n }' \
		startup-importtime.log

clean:
	rm -rf $(CACHE_DIR) .perfbench-out src/*.egg-info
	rm -f .scenario-rt-a.json .scenario-rt-b.json
	rm -f startup-importtime.log
	find . -name __pycache__ -type d -exec rm -rf {} +
