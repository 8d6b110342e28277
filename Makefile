# One entry point per CI job, so local runs and CI are identical.
#
#   make test        tier-1 test suite (what CI's test matrix runs),
#                    listing the 15 slowest tests;
#                    with pytest-cov installed it also prints coverage
#                    and gates the cluster/routing modules at COV_MIN%
#   make lint        ruff (falls back to a syntax check if ruff is absent)
#   make bench       parallel-runner benchmark -> BENCH_smoke.json
#   make fuzz        seeded scenario fuzz campaign + corpus replay
#   make reproduce   every figure and table, parallel, cached
#   make startup     what a warm run imports: repro modules + self time
#
# JOBS and CACHE_DIR are overridable: `make reproduce JOBS=16`.

PYTHON      ?= python
JOBS        ?= 4
CACHE_DIR   ?= .repro-cache
# bench gets its own cache so its cold pass stays cold even after
# `make reproduce` warmed the main cache
BENCH_CACHE ?= .repro-bench-cache
# coverage floor for the modules the cluster + scenario PRs introduced,
# and the spec modules split out of them (what CI enforces); the rest
# of the tree is reported, not gated
COV_MIN     ?= 90
COV_MODULES  = --cov=repro.core.cluster --cov=repro.sim.station --cov=repro.core.scenario --cov=repro.core.faults --cov=repro.core.resilience --cov=repro.core.distributed \
               --cov=repro.core.cluster_config --cov=repro.core.resilience_spec --cov=repro.core.distributed_spec
# figure grids and demo scenarios the scenario round-trip check walks
SCENARIO_GRIDS ?= 2 3 4 5 smoke sh po ft rf rs xs es
SCENARIO_DEMOS ?= trace-retailer trace-auction slo-tv failover
# fuzz campaign knobs (what CI's smoke job runs; ~45s total)
FUZZ_SEED       ?= 0
FUZZ_ITERATIONS ?= 75
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint bench cluster-bench kernel-bench profile reproduce smoke scenarios fuzz startup clean

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
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to a syntax check"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

bench:
	rm -rf $(BENCH_CACHE)
	$(PYTHON) -m repro.experiments bench --figure smoke --jobs $(JOBS) \
		--cache-dir $(BENCH_CACHE) --output BENCH_smoke.json

# Sharded-cluster grid (1-8 shards, all four routing policies) through
# the runner; CI uploads the artifact next to the smoke benchmark.
cluster-bench:
	rm -rf .cluster-bench-cache
	$(PYTHON) -m repro.experiments bench --figure sh --jobs $(JOBS) \
		--cache-dir .cluster-bench-cache --output BENCH_sh.json

# Serial figure-2 cold pass against the checked-in kernel-v2 baseline
# BENCH_pr4.json (1.48x faster than the seed-era baseline, so the
# same 2x ratio is a much tighter absolute budget; what CI runs).
# BENCH_seed.json remains checked in as the start of the trajectory.
kernel-bench:
	rm -rf .kernel-bench-cache
	$(PYTHON) -m repro.experiments bench --figure 2 --jobs 1 \
		--cache-dir .kernel-bench-cache --output BENCH_figure2.json \
		--baseline BENCH_pr4.json --max-regression 2

# cProfile the kernel on the figure-2 fast grid (serial, cold cache)
# and print the top 25 functions by self time.
profile:
	rm -rf .profile-cache
	$(PYTHON) -m cProfile -o profile.out -m repro.experiments bench \
		--figure 2 --jobs 1 --cache-dir .profile-cache \
		--output BENCH_profile.json
	$(PYTHON) -c "import pstats; pstats.Stats('profile.out').sort_stats('tottime').print_stats(25)"
	rm -rf .profile-cache

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

# Seeded random walk over ScenarioSpec space under the oracle library
# (conservation, bit-identical replay, --jobs invariance, codec
# round-trip, MPL sanity), then a replay of the checked-in minimized
# reproducer corpus.  Failures write shrunk reproducers into
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
	rm -rf $(CACHE_DIR) $(BENCH_CACHE) .kernel-bench-cache .cluster-bench-cache .profile-cache src/*.egg-info
	rm -f .scenario-rt-a.json .scenario-rt-b.json
	rm -f BENCH_smoke.json BENCH_figure2.json BENCH_sh.json BENCH_profile.json profile.out
	rm -f startup-importtime.log
	# BENCH_seed.json / BENCH_pr4*.json are checked in (perf trajectory)
	find . -name __pycache__ -type d -exec rm -rf {} +
