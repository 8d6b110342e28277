"""Tests for the parallel experiment runner, result cache, and CLI."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.core.scenario import execute_scenario
from repro.core.system import RunResult, canonical_json
from repro.experiments import figures
from repro.experiments.__main__ import main as cli_main
from repro.experiments.parallel import (
    ParallelRunner,
    ResultCache,
    get_runner,
    run_grid,
    using_runner,
)
from repro.experiments.runner import scenario_for
from repro.sim.random import derive_seed, replicate_seeds
from repro.workloads.setups import get_setup


def _grid(transactions=120, seed=7):
    return [
        scenario_for(get_setup(1), mpl=mpl, transactions=transactions, seed=seed)
        for mpl in (1, 3, 5, 8)
    ]


class TestDeterminism:
    def test_parallel_bit_identical_to_sequential(self):
        """--jobs N must reproduce --jobs 1 exactly, for any N."""
        specs = _grid()
        sequential = ParallelRunner(jobs=1).run(specs)
        parallel = ParallelRunner(jobs=4).run(specs)
        assert [r.to_json_dict() for r in sequential] == [
            r.to_json_dict() for r in parallel
        ]

    def test_matches_direct_simulation(self):
        spec = scenario_for(get_setup(1), mpl=5, transactions=150, seed=3)
        direct = execute_scenario(spec).result
        pooled = ParallelRunner(jobs=2).run([spec, spec])
        assert pooled[0].to_json_dict() == direct.to_json_dict()

    def test_duplicate_specs_execute_once(self):
        spec = scenario_for(get_setup(1), mpl=2, transactions=100, seed=5)
        runner = ParallelRunner(jobs=1)
        first, second = runner.run([spec, spec])
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 1
        assert first.to_json_dict() == second.to_json_dict()


class TestResultCache:
    def test_warm_cache_short_circuits(self, tmp_path):
        specs = _grid()
        cold = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        cold_results = cold.run(specs)
        assert cold.stats.executed == len(specs)
        warm = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        warm_results = warm.run(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
        assert warm.stats.elapsed_s < cold.stats.elapsed_s
        assert [r.to_json_dict() for r in warm_results] == [
            r.to_json_dict() for r in cold_results
        ]

    def test_different_config_misses(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        runner.run([scenario_for(get_setup(1), mpl=2, transactions=100, seed=5)])
        runner.run([scenario_for(get_setup(1), mpl=2, transactions=100, seed=6)])
        assert runner.stats.cache_hits == 0
        assert runner.stats.executed == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = scenario_for(get_setup(1), mpl=2, transactions=100, seed=5)
        cache = ResultCache(str(tmp_path))
        key = spec.fingerprint()
        path = os.path.join(str(tmp_path), key[:2], f"{key}.json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.load(key) is None
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        runner.run([spec])
        assert runner.stats.executed == 1
        assert cache.load(key) is not None


class TestFingerprints:
    def test_stable_and_distinct(self):
        def spec(setup_id=1, mpl=5):
            return scenario_for(
                get_setup(setup_id), mpl=mpl, transactions=300, seed=11
            )

        a = spec()
        assert a.fingerprint() == spec().fingerprint()
        assert a.fingerprint() != spec(mpl=6).fingerprint()
        assert a.fingerprint() != spec(setup_id=2).fingerprint()

    def test_tag_not_hashed(self):
        base = scenario_for(get_setup(1), mpl=5, transactions=300, tag="")
        tagged = scenario_for(get_setup(1), mpl=5, transactions=300, tag="panel-a")
        assert base.fingerprint() == tagged.fingerprint()

    def test_canonical_jsonable_roundtrips_to_json(self):
        spec = scenario_for(get_setup(1), mpl=5, transactions=300)
        blob = canonical_json(spec.build_config())
        assert "W_CPU-inventory" in blob


class TestRunResultSerialization:
    def test_round_trip(self):
        [result] = run_grid([
            scenario_for(get_setup(1), mpl=4, transactions=150, seed=2)
        ])
        rebuilt = RunResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert rebuilt == result
        assert rebuilt.response_time_by_class == result.response_time_by_class

    def test_class_keys_serialize_numerically(self):
        """Priority IntEnum keys must encode as digits on every Python.

        ``str(IntEnum)`` is version-dependent ('Priority.LOW' on 3.10);
        a non-numeric key would make ``from_json_dict`` raise and turn
        every cache lookup into a silent miss.
        """
        [result] = run_grid([scenario_for(
            get_setup(1), mpl=4, transactions=150, seed=2,
            policy="priority", high_priority_fraction=0.2,
        )])
        payload = result.to_json_dict()
        assert payload["response_time_by_class"]
        for field in ("response_time_by_class", "count_by_class"):
            assert all(key.isdigit() for key in payload[field])


class TestActiveRunner:
    def test_run_grid_uses_active_runner(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        with using_runner(runner):
            assert get_runner() is runner
            run_grid(_grid(transactions=80))
        assert get_runner() is not runner
        assert runner.stats.executed == 4

    def test_figures_hit_cache_through_run_setup(self, tmp_path):
        """A figure's grid, submitted again, is served from the cache."""
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        grid = [scenario_for(get_setup(1), mpl=3, transactions=90, seed=4)]
        with using_runner(runner):
            [cold] = run_grid(grid)
            assert runner.stats.executed == 1
            [warm] = run_grid(grid)
            assert runner.stats.cache_hits == 1
            assert runner.stats.executed == 0
        assert warm.to_json_dict() == cold.to_json_dict()

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_totals_accumulate_across_calls(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        runner.run(_grid(transactions=80))
        runner.run(_grid(transactions=80))
        assert runner.stats.cache_hits == 4
        assert runner.totals.executed == 4
        assert runner.totals.cache_hits == 4
        assert runner.totals.submitted == 8
        delta = runner.totals.since(runner.stats)
        assert delta.executed == 4 and delta.cache_hits == 0


class TestSeedDerivation:
    def test_derive_seed_stable(self):
        assert derive_seed(11, "replicate", 0) == derive_seed(11, "replicate", 0)
        assert derive_seed(11, "replicate", 0) != derive_seed(11, "replicate", 1)
        assert derive_seed(11, "a") != derive_seed(12, "a")

    def test_replicate_seeds(self):
        seeds = replicate_seeds(11, 5)
        assert len(seeds) == len(set(seeds)) == 5
        assert seeds == replicate_seeds(11, 5)
        with pytest.raises(ValueError):
            replicate_seeds(11, -1)


class TestCli:
    def test_positional_targets(self, capsys):
        assert cli_main(["7"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_unknown_positional_target_errors(self, capsys):
        assert cli_main(["nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown target" in err and "s4.3" in err

    def test_unknown_figure_flag_lists_choices(self, capsys):
        assert cli_main(["--figure", "99"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err and "available" in err

    def test_unknown_ids_rejected_before_anything_runs(self, capsys):
        """An unknown id anywhere in the list stops the CLI up front:
        no table printed, no figure simulated, nothing on stdout."""
        runner = get_runner()
        before = runner.totals.submitted
        for argv in (
            ["--table", "1", "--figure", "bogus"],
            ["--figure", "4", "--figure", "bogus"],
            ["--figure", "7", "--table", "nope"],
        ):
            assert cli_main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "unknown" in captured.err, argv
        assert get_runner().totals.submitted == before

    def test_jobs_validation(self, capsys):
        assert cli_main(["--figure", "7", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_figure_with_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert cli_main(["--figure", "7", "--cache-dir", cache]) == 0
        capsys.readouterr()

    def test_bench_is_an_unknown_target(self, capsys):
        # the runner benchmark moved to perfbench/ (`make perf-gate`)
        assert cli_main(["bench"]) == 2
        assert "unknown target 'bench'" in capsys.readouterr().err


class TestFigureGrids:
    def test_grids_are_data(self):
        from repro.core.scenario import ScenarioSpec

        for key, builder in figures.FIGURE_GRIDS.items():
            grid = builder(fast=True)
            assert grid, key
            assert all(isinstance(spec, ScenarioSpec) for spec in grid)

    def test_figure2_consumes_its_grid(self):
        mpls = (1, 5)
        grid = figures.throughput_figure_grid("2", fast=True, mpls=mpls)
        assert len(grid) == 4 * len(mpls)
        assert {spec.setup_id for spec in grid} == {1, 2, 3, 4}
        assert figures.FIGURE_GRIDS["2"](True) == figures.throughput_figure_grid("2")

    def test_grid_defs_preserve_seed_grids(self):
        """The registry must re-express the seed's hand-written grids.

        Expectations are spelled out literally (setup order, MPL axis,
        per-panel sample sizes from the pre-refactor helpers) so a typo
        in the figure table cannot hide behind the registry that reads
        it.
        """
        expected = {
            # key: (mpls, [(setup_ids, fast_txns, full_txns), ...])
            "2": ((1, 2, 3, 5, 7, 10, 15, 20, 30),
                  [((1, 2), 700, 2500), ((3, 4), 400, 1500)]),
            "3": ((1, 2, 3, 5, 7, 10, 15, 20, 30),
                  [((5, 6, 7, 8), 350, 1200), ((9, 10), 250, 600)]),
            "4": ((1, 2, 3, 5, 7, 10, 15, 20, 30, 35),
                  [((11, 12), 700, 2500)]),
            "5": ((1, 2, 3, 5, 7, 10, 15, 20, 30, 40),
                  [((17, 1), 700, 2500), ((16, 15), 700, 2500)]),
        }
        for key, (mpls, panels) in expected.items():
            for fast in (True, False):
                grid = figures.FIGURE_GRIDS[key](fast)
                want = [
                    (setup_id, mpl, txns if fast else full_txns)
                    for setup_ids, txns, full_txns in panels
                    for setup_id in setup_ids
                    for mpl in mpls
                ]
                got = [(s.setup_id, s.mpl, s.transactions) for s in grid]
                assert got == want, (key, fast)

    def test_throughput_figures_pin_panels_and_labels(self):
        """Panel ids, titles and series labels of figures 2–5, literally,
        and the reducer's regrouping of the flat grid into those series
        (checked against a stub runner, so nothing is simulated)."""
        expected = {
            "2": [
                ("2a", "W_CPU-inventory throughput vs MPL (1 vs 2 CPUs)",
                 [(1, "One CPU"), (2, "Two CPUs")]),
                ("2b", "W_CPU-browsing throughput vs MPL (1 vs 2 CPUs)",
                 [(3, "One CPU"), (4, "Two CPUs")]),
            ],
            "3": [
                ("3a", "W_IO-inventory throughput vs MPL (1-4 disks)",
                 [(5, "1 disk"), (6, "2 disks"), (7, "3 disks"), (8, "4 disks")]),
                ("3b", "W_IO-browsing throughput vs MPL (1 vs 4 disks)",
                 [(9, "1 disk"), (10, "4 disks")]),
            ],
            "4": [
                ("4", "W_CPU+IO-inventory throughput vs MPL",
                 [(11, "1 disk, 1 CPU"), (12, "4 disks, 2 CPUs")]),
            ],
            "5": [
                ("5a", "W_CPU-inventory: isolation RR vs UR (setups 1, 17)",
                 [(17, "Isolation UR"), (1, "Isolation RR")]),
                ("5b", "W_CPU-ordering: isolation RR vs UR (setups 15, 16)",
                 [(16, "UR isolation"), (15, "RR isolation")]),
            ],
        }

        class StubRunner:
            """Throughput encodes the cell: 1000 * setup + MPL."""

            def run(self, specs):
                return [
                    SimpleNamespace(throughput=1000.0 * spec.setup_id + spec.mpl)
                    for spec in specs
                ]

        functions = {"2": figures.figure2, "3": figures.figure3,
                     "4": figures.figure4, "5": figures.figure5}
        mpls = (2, 9)
        with using_runner(StubRunner()):
            for key, panels in expected.items():
                got = functions[key](fast=True, mpls=mpls)
                assert [(p.figure, p.title) for p in got] == [
                    (figure, title) for figure, title, _series in panels
                ], key
                for panel, (_figure, _title, series) in zip(got, panels):
                    assert panel.xs == (2.0, 9.0)
                    assert [(s.label, s.ys) for s in panel.series] == [
                        (label, tuple(1000.0 * sid + m for m in mpls))
                        for sid, label in series
                    ], key

    def test_makefile_round_trips_every_grid(self):
        """`make scenarios` walks SCENARIO_GRIDS and SCENARIO_DEMOS, so
        they must name every registered grid and every demo (and
        nothing else)."""
        from repro.core.scenario import demo_scenarios

        makefile = os.path.join(os.path.dirname(__file__), os.pardir, "Makefile")
        with open(makefile, encoding="utf-8") as handle:
            lines = handle.readlines()
        for variable, registry in (
            ("SCENARIO_GRIDS", figures.FIGURE_GRIDS),
            ("SCENARIO_DEMOS", demo_scenarios()),
        ):
            (line,) = [entry for entry in lines if entry.startswith(variable + " ")]
            keys = line.split("=", 1)[1].split()
            assert sorted(keys) == sorted(registry), variable
            assert len(keys) == len(set(keys)), variable

    def test_smoke_grid_shrinks_when_fast(self):
        smoke = figures.FIGURE_GRIDS["smoke"]
        assert len(smoke(True)) < len(smoke(False))

    def test_replica_fanout_grid_shape(self):
        """One primary-only baseline, then every fan-out per replica count."""
        grid = figures.replica_fanout_grid(fast=True)
        cells = [
            (s.topology.replicas_per_shard, s.topology.read_fanout) for s in grid
        ]
        assert cells == [
            (0, "primary"),
            (1, "primary"), (1, "round_robin"), (1, "least_in_flight"),
            (2, "primary"), (2, "round_robin"), (2, "least_in_flight"),
        ]
        assert {s.topology.shards for s in grid} == {figures.RF_SHARDS}
        assert {s.arrival.rate for s in grid} == {
            figures.RF_RATE_PER_SHARD * figures.RF_SHARDS
        }
        assert figures.FIGURE_GRIDS["rf"](True) == grid

    def test_partly_open_grid_holds_offered_load(self):
        grid = figures.partly_open_grid(fast=True)
        assert all(spec.arrival is not None for spec in grid)
        rates = {round(spec.arrival.transaction_rate, 6) for spec in grid}
        assert rates == {figures.PARTLY_OPEN_NOMINAL_RATE}
        mixes = {spec.arrival.mean_session_length for spec in grid}
        assert mixes == set(figures.PARTLY_OPEN_MIXES)
