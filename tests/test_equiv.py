"""The replicated-seed equivalence gate: its statistics, its CLI, its power."""

import json

import pytest

from repro.dbms.cpu import ProcessorSharingPool
from repro.experiments import equiv
from repro.experiments.__main__ import main
from repro.experiments.figures import throughput_grid
from repro.sim.random import replicate_seeds


@pytest.mark.parametrize("df, critical", [(1, 12.706), (7, 2.365), (10, 2.228), (100, 1.984)])
def test_t_distribution_matches_tables(df, critical):
    assert equiv.t_critical(df) == pytest.approx(critical, abs=5e-4)
    assert equiv.t_two_sided_p(critical, df) == pytest.approx(0.05, abs=1e-4)
    assert equiv.t_two_sided_p(0.0, df) == pytest.approx(1.0)


def test_paired_test_treats_rounding_as_zero():
    test = equiv.PairedTest.of([1e-12, -3e-13, 0.0, 2e-15])
    assert (test.mean, test.p, test.half_width) == (0.0, 1.0, 0.0)
    assert test.largest == 1e-12
    shifted = equiv.PairedTest.of([0.05] * 4)  # a deterministic shift
    assert shifted.p == 0.0


def test_holm_steps_down_and_stops_at_the_first_acceptance():
    rows = [
        equiv.GateRow("g", name, equiv.PairedTest(10, 0.0, 0.0, p, 0.0))
        for name, p in (("a", 0.001), ("b", 0.03), ("c", 0.013), ("d", 0.04))
    ]
    equiv.holm(rows)  # at ALPHA = 0.05
    verdicts = {row.metric: (row.threshold, row.rejected) for row in rows}
    assert verdicts["a"] == (0.05 / 4, True)
    assert verdicts["c"] == (0.05 / 3, True)
    # 0.03 > 0.05 / 2: accepted, and so is everything after it, even
    # though 0.04 alone would pass its threshold
    assert verdicts["b"] == (0.05 / 2, False)
    assert verdicts["d"] == (0.05, False)


def test_scaled_differences_pair_by_seed_and_skip_missing_values():
    reference = {"seeds": [1, 2, 3], "metrics": {"x": [10.0, 20.0, None]}}
    candidate = {"seeds": [2, 1, 3], "metrics": {"x": [21.0, 10.0, 5.0]}}
    # scale = mean |reference| over the common pairs = 15
    assert equiv.scaled_differences(reference, candidate, "x") == [0.0, 1.0 / 15.0]
    shares = {"seeds": [1], "metrics": {"shed_share": [0.0]}}
    moved = {"seeds": [1], "metrics": {"shed_share": [0.25]}}
    # an all-zero reference falls back to absolute differences
    assert equiv.scaled_differences(shares, moved, "shed_share") == [0.25]


# -- power: the gate must reject a planted defect and pass the code as is -------

#: CPU-bound setups 1 and 2 around and past the knee; K = 4 seeds.
POWER_GRID = {"power": throughput_grid([1, 2], [3, 10, 30], transactions=300)}


def _power_seeds(spec):
    return replicate_seeds(spec.seed, 4)


@pytest.fixture(scope="module")
def power_reference():
    return equiv.collect(POWER_GRID, _power_seeds)


def test_gate_rejects_a_five_percent_cpu_slowdown(power_reference, monkeypatch):
    original = ProcessorSharingPool.__init__

    def slower(self, sim, cores, speed=1.0):
        original(self, sim, cores, speed * 0.95)

    monkeypatch.setattr(ProcessorSharingPool, "__init__", slower)
    comparison = equiv.compare(power_reference, equiv.collect(POWER_GRID, _power_seeds))
    assert not comparison.passed
    rejected = {row.metric for row in comparison.rows if row.rejected}
    assert {"throughput", "mean_rt"} <= rejected
    throughput = next(row for row in comparison.rows if row.metric == "throughput")
    assert -0.06 < throughput.test.mean < -0.03


def test_gate_passes_the_unmodified_code(power_reference):
    comparison = equiv.compare(power_reference, equiv.collect(POWER_GRID, _power_seeds))
    assert comparison.passed
    assert all(row.test.largest == 0.0 for row in comparison.rows)
    assert "**PASS**" in equiv.render(comparison, "power")


# -- CLI ------------------------------------------------------------------------


@pytest.fixture
def rs_only(monkeypatch):
    """Cover only the three-cell rs grid, at two seeds (about a second)."""
    monkeypatch.setattr(equiv, "EQUIV_GRIDS", ("rs",))
    monkeypatch.setattr(equiv, "REPLICATES", 2)


def test_cli_records_then_passes_against_its_own_reference(rs_only, tmp_path, capsys):
    path = tmp_path / "ref.json"
    assert main(["equiv", "--record", str(path)]) == 0
    reference = json.loads(path.read_text())
    (cell, *_rest) = reference["grids"]["rs"]
    assert len(cell["seeds"]) == 2 and "throughput" in cell["metrics"]
    # one line per cell, full-precision floats
    assert len(path.read_text().splitlines()) == len(reference["grids"]["rs"]) + 9
    capsys.readouterr()
    assert main(["equiv", "--against", str(path)]) == 0
    out = capsys.readouterr().out
    assert "**PASS**" in out and "[equiv] passed" in out


def test_cli_fails_on_a_moved_reference(rs_only, tmp_path):
    path = tmp_path / "ref.json"
    assert main(["equiv", "--record", str(path)]) == 0
    reference = json.loads(path.read_text())
    for cell in reference["grids"]["rs"]:
        cell["metrics"]["throughput"] = [1.1 * value for value in cell["metrics"]["throughput"]]
    path.write_text(equiv.dumps(reference))
    assert main(["equiv", "--against", str(path)]) == 1


@pytest.mark.parametrize("argv", [
    ["equiv"],
    ["equiv", "--record", "a.json", "--against", "b.json"],
    ["equiv", "--record", "a.json", "--jobs", "0"],
    ["equiv", "--against", "a.json", "--replicates", "4"],
])
def test_cli_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exit_info:
        code = main(argv)
        raise SystemExit(code)
    assert exit_info.value.code == 2


def test_cli_rejects_a_reference_with_unknown_cells(tmp_path, capsys):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"grids": {"rs": [{
        "cell": "gone", "fingerprint": "0" * 64, "seeds": [1], "metrics": {},
    }]}}))
    assert main(["equiv", "--against", str(path)]) == 2
    assert "no longer has 1 recorded cell" in capsys.readouterr().err
    assert main(["equiv", "--against", str(tmp_path / "missing.json")]) == 2
