"""Tests of the experiment harness itself (Table plus fast runs).

The heavy experiments run only through ``run_all`` (their committed
tables are shape-checked by ``test_figure_shapes.py``); here the Table
machinery and the cheapest experiment paths are verified so harness
regressions show up in the fast suite.
"""

import os

import pytest

from repro.experiments import fig02_bitrates, fig17_freq_model
from repro.experiments.fig08_ack_frequency import run_analytic
from repro.experiments.table import Table


class TestTable:
    def test_add_and_format(self):
        t = Table("Demo", ["a", "b"])
        t.add_row(a=1, b=2.5)
        text = t.format_text()
        assert "Demo" in text
        assert "2.5" in text

    def test_unknown_column_rejected(self):
        t = Table("Demo", ["a"])
        with pytest.raises(KeyError):
            t.add_row(a=1, bogus=2)

    def test_column_access(self):
        t = Table("Demo", ["a"])
        t.add_row(a=1)
        t.add_row(a=2)
        assert t.column("a") == [1, 2]
        with pytest.raises(KeyError):
            t.column("zzz")

    def test_missing_cell_rendered_as_dash(self):
        t = Table("Demo", ["a", "b"])
        t.add_row(a=1)
        assert "-" in t.format_text().splitlines()[-1]

    def test_save(self, tmp_path):
        t = Table("Demo", ["a"], note="a note")
        t.add_row(a=1)
        path = os.path.join(tmp_path, "sub", "demo.txt")
        t.save(path)
        with open(path) as f:
            content = f.read()
        assert "a note" in content

    def test_small_floats_scientific(self):
        t = Table("Demo", ["x"])
        t.add_row(x=0.00001)
        assert "e-05" in t.format_text()


class TestFastExperiments:
    def test_fig02_runs(self):
        table = fig02_bitrates.run(duration_s=1.0)
        assert len(table) == 8

    def test_fig08a_runs(self):
        table = run_analytic()
        assert len(table) == 4
        # reduction positive everywhere at 80+ ms
        assert all(v > 0 for v in table.column("delta_f@80ms"))

    def test_fig17_runs(self):
        a = fig17_freq_model.run_vs_bandwidth()
        b = fig17_freq_model.run_vs_rtt()
        assert len(a) > 5 and len(b) > 5

    def test_pacing_ablation_runs_both_modes(self):
        from repro.experiments.ablations import run_pacing_ablation
        table = run_pacing_ablation(duration_s=2.0, warmup_s=0.5)
        assert table.column("mode") == ["paced", "burst"]
        paced, burst = table.column("goodput_mbps")
        # paper S5.3: an unpaced TACK sender overruns a shallow buffer
        assert burst < paced
        paced_retx, burst_retx = table.column("retx")
        assert burst_retx > paced_retx
