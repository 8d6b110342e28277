"""Smoke tests for the experiment harness (figures, tables, CLI)."""

import pytest

from repro.experiments import figures, report, tables
from repro.experiments.__main__ import main as cli_main
from repro.experiments.runner import mpl_sweep, run_setup
from repro.workloads.setups import get_setup


class TestReport:
    def test_ascii_table(self):
        text = report.ascii_table(["a", "b"], [[1, 2], [3, 4]], title="T")
        assert "T" in text and "a" in text and "3" in text

    def test_ascii_chart_renders(self):
        text = report.ascii_chart([1, 2, 3], [("line", [1.0, 2.0, 3.0])])
        assert "o" in text and "line" in text

    def test_ascii_chart_empty(self):
        assert report.ascii_chart([], [], title="empty") == "empty"

    def test_format_seconds(self):
        assert report.format_seconds(0.5) == "500 ms"
        assert report.format_seconds(2.0) == "2.00 s"


class TestRunner:
    def test_run_setup_returns_result(self):
        result = run_setup(get_setup(1), mpl=5, transactions=300)
        assert result.throughput > 0

    def test_mpl_sweep_shapes(self):
        sweep = mpl_sweep(get_setup(1), [2, 10], transactions=300)
        assert len(sweep) == 2
        assert sweep[0][0] == 2 and sweep[1][0] == 10
        assert sweep[1][1].throughput > sweep[0][1].throughput


class TestAnalyticFigures:
    def test_figure7_linear_marks(self):
        panels = figures.figure7(disk_counts=(1, 2, 4), max_mpl=40)
        panel = panels[0]
        assert len(panel.series) == 3
        # asymptotes scale with the disk count
        assert panel.series[2].ys[-1] > panel.series[0].ys[-1]
        rendered = panel.render()
        assert "80%" in rendered and "95%" in rendered

    def test_figure10_shapes(self):
        panels = figures.figure10(scvs=(2.0, 15.0), loads=(0.7,),
                                  mpls=(1, 5, 20))
        panel = panels[0]
        by_label = {s.label: s.ys for s in panel.series}
        # C2=15 starts far above PS and falls toward it
        assert by_label["C2=15"][0] > 3 * by_label["PS"][0]
        assert by_label["C2=15"][-1] == pytest.approx(by_label["PS"][-1], rel=0.1)


class TestSimulatedFigures:
    def test_figure2_panel_shapes(self):
        panels = figures.figure2(fast=True, mpls=(1, 5, 20))
        assert [p.figure for p in panels] == ["2a", "2b"]
        one_cpu, two_cpu = panels[0].series
        # two CPUs end up faster than one at a high MPL
        assert two_cpu.ys[-1] > one_cpu.ys[-1]
        # throughput grows with MPL
        assert one_cpu.ys[-1] > one_cpu.ys[0]

    def test_render_includes_values(self):
        panel = figures.figure4(fast=True, mpls=(1, 10))[0]
        rendered = panel.render()
        assert "Figure 4" in rendered and "MPL" in rendered


class TestTables:
    def test_table1_lists_all_workloads(self):
        text = tables.table1()
        for name in ("W_CPU-inventory", "W_IO-browsing", "W_CPU-ordering"):
            assert name in text

    def test_table2_lists_all_setups(self):
        text = tables.table2()
        assert "17" in text and "W_CPU+IO-inventory" in text

    def test_variability_table_bands(self):
        text = tables.variability_table(samples=4000)
        assert "online-retailer" in text and "auction-site" in text


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figures" in out and "10" in out

    def test_table_rendering(self, capsys):
        assert cli_main(["--table", "2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_analytic_figure(self, capsys):
        assert cli_main(["--figure", "7"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_unknown_ids_rejected(self):
        assert cli_main(["--figure", "99"]) == 2
        assert cli_main(["--table", "nope"]) == 2

    def test_no_arguments_prints_help(self, capsys):
        assert cli_main([]) == 2
