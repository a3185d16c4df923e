"""Smoke tests: every example script imports and its core routine runs
on a reduced scale (full-scale runs live in the examples themselves)."""

import importlib.util
import pathlib


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesImportAndRun:
    def test_all_examples_present(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {"quickstart.py", "wireless_projection.py",
                "wan_bulk_transfer.py", "ack_frequency_explorer.py",
                "hybrid_wlan_wan.py", "crowded_ap.py",
                "goodput_timeline.py"} <= names

    def test_quickstart_runs_reduced(self):
        mod = load_example("quickstart.py")
        mod.DURATION_S = 1.0
        mod.WARMUP_S = 0.3
        result = mod.run_scheme("tcp-tack")
        assert result["goodput_mbps"] > 10

    def test_ack_frequency_explorer_is_pure(self, capsys):
        mod = load_example("ack_frequency_explorer.py")
        mod.fig8_table()
        mod.fig17_sweep()
        out = capsys.readouterr().out
        assert "pivot point" in out

    def test_wan_bulk_reduced(self):
        mod = load_example("wan_bulk_transfer.py")
        mod.DURATION_S = 3.0
        mod.WARMUP_S = 1.0
        util = mod.run("tcp-tack", ack_loss=0.01)
        assert util > 0.3

    def test_wan_bulk_utilization_never_exceeds_the_link(self):
        """Out-of-order bytes held at the window's start and delivered
        once their hole fills are not counted in it (this cell read
        130 % of the link when the window counted in-order delivery)."""
        mod = load_example("wan_bulk_transfer.py")
        mod.DURATION_S = 6.0
        mod.WARMUP_S = 3.0
        util = mod.run("tcp-tack-poor", ack_loss=0.05)
        assert 0.0 < util <= 1.0

    def test_crowded_ap_reduced(self):
        mod = load_example("crowded_ap.py")
        mod.DURATION_S = 1.5
        mod.WARMUP_S = 0.5
        result = mod.run("tcp-tack", 2)
        assert result["total_mbps"] > 20

    def test_wireless_projection_reduced(self):
        mod = load_example("wireless_projection.py")
        mod.DURATION_S = 2.0
        result = mod.run("tcp-tack")
        assert result["frames"] > 30

    def test_hybrid_reduced(self):
        mod = load_example("hybrid_wlan_wan.py")
        mod.DURATION_S = 2.0
        mod.WARMUP_S = 0.5
        result = mod.run("tcp-tack", mod.CASES[0])
        assert result["goodput_mbps"] > 5

    def test_goodput_timeline_reduced(self):
        mod = load_example("goodput_timeline.py")
        mod.DURATION_S = 1.0
        rows = mod.chart().splitlines()
        assert [row.split("|")[0].strip() for row in rows] == list(mod.SCHEMES)
