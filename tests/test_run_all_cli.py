"""Tests for the run_all regeneration CLI."""

import functools
import json
import os

import pytest

from repro.experiments import run_all
from repro.experiments.table import Table
from repro.runner import code_fingerprint


def _boom():
    raise RuntimeError("synthetic experiment failure")


def _counted_table(path, fail_first=False):
    """Count each run in *path*; with *fail_first*, fail the first run."""
    with open(path, "a") as f:
        f.write("run\n")
    with open(path) as f:
        runs = len(f.readlines())
    if fail_first and runs == 1:
        raise RuntimeError("synthetic first-run failure")
    table = Table("counted", ["runs"])
    table.add_row(runs=runs)
    return table


def _record(out):
    with open(out / "run_manifest.jsonl") as f:
        return [json.loads(line) for line in f]


class TestPlan:
    def test_plan_covers_every_results_artifact(self):
        names = {name for name, _ in run_all.experiment_plan(fast=True)}
        # Every headline figure has an entry.
        for expected in ("fig01_goodput_wlan", "fig03_contention",
                         "fig05b_rich_info", "fig09b_ideal_goodput",
                         "fig13_hybrid", "fig14_pantheon",
                         "ext_tcp_splitting"):
            assert expected in names

    def test_fast_plan_same_experiments(self):
        fast = {n for n, _ in run_all.experiment_plan(fast=True)}
        slow = {n for n, _ in run_all.experiment_plan(fast=False)}
        assert fast == slow

    def test_plan_is_picklable(self):
        """Every entry must ship to worker processes under any start
        method: a plain function or a partial of one, never a lambda."""
        import pickle
        for name, fn in run_all.experiment_plan(fast=True):
            pickle.dumps(fn)

    def test_filter_plan_comma_patterns(self):
        plan = run_all.experiment_plan(fast=True)
        names = [n for n, _ in run_all.filter_plan(plan, "fig05,fig06")]
        assert names == ["fig05a_holb", "fig05b_rich_info",
                         "fig06a_rttmin", "fig06b_owd_loss"]


class TestCli:
    def test_only_filter_runs_single_experiment(self, tmp_path, capsys):
        rc = run_all.main(["--fast", "--only", "fig17a", "--no-cache",
                           "--out", str(tmp_path)])
        assert rc == 0
        assert os.path.exists(tmp_path / "fig17a_vs_bandwidth.txt")
        out = capsys.readouterr().out
        assert "Regenerated 1/1 experiments" in out

    def test_unknown_filter_errors_and_names_available(self, tmp_path,
                                                       capsys):
        with pytest.raises(SystemExit):
            run_all.main(["--only", "nonexistent", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert "no experiment matches" in err
        assert "fig01_goodput_wlan" in err  # lists what *is* available

    def test_analytic_experiments_run(self, tmp_path, capsys):
        rc = run_all.main(["--fast", "--only", "eq06_analytic", "--no-cache",
                           "--out", str(tmp_path)])
        assert rc == 0
        content = (tmp_path / "eq06_analytic.txt").read_text()
        assert "threshold" in content

    def test_comma_separated_only(self, tmp_path, capsys):
        rc = run_all.main(["--fast", "--only", "fig17a,eq06_analytic",
                           "--no-cache", "--out", str(tmp_path)])
        assert rc == 0
        assert os.path.exists(tmp_path / "fig17a_vs_bandwidth.txt")
        assert os.path.exists(tmp_path / "eq06_analytic.txt")
        assert "Regenerated 2/2 experiments" in capsys.readouterr().out

    def test_list_prints_names_without_running(self, tmp_path, capsys):
        rc = run_all.main(["--list", "--only", "fig08",
                           "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.split()
        assert out == ["fig08a_ack_reduction", "fig08b_measured_frequency"]
        assert not os.listdir(tmp_path)  # nothing ran, nothing written

    def test_creates_missing_out_directory(self, tmp_path):
        out = tmp_path / "fresh" / "nested"
        rc = run_all.main(["--fast", "--only", "fig17a", "--no-cache",
                           "--out", str(out)])
        assert rc == 0
        assert os.path.exists(out / "fig17a_vs_bandwidth.txt")

    def test_fast_defaults_away_from_the_committed_tables(
            self, tmp_path, monkeypatch):
        """Without ``--out`` only a full run writes the committed
        directory; a ``--fast`` smoke run lands in the ignored one."""
        monkeypatch.chdir(tmp_path)
        args = ["--only", "fig17a", "--no-cache"]
        assert run_all.main(["--fast"] + args) == 0
        assert os.listdir("benchmarks") == ["results-fast"]
        assert os.path.exists("benchmarks/results-fast/fig17a_vs_bandwidth.txt")
        assert run_all.main(args) == 0
        assert os.path.exists("benchmarks/results/fig17a_vs_bandwidth.txt")

    def test_manifest_written_next_to_tables(self, tmp_path):
        rc = run_all.main(["--fast", "--only", "fig17a", "--no-cache",
                           "--out", str(tmp_path)])
        assert rc == 0
        header, *tasks = _record(tmp_path)
        assert header["campaign"] == "run_all"
        assert header["fingerprint"] == code_fingerprint()
        assert [t["name"] for t in tasks] == ["fig17a_vs_bandwidth"]

    def test_cache_round_trip(self, tmp_path, capsys):
        args = ["--fast", "--only", "fig17a,fig17b", "--out", str(tmp_path)]
        assert run_all.main(args) == 0
        first = capsys.readouterr().out
        assert "(cached)" not in first
        tables = {name: (tmp_path / name).read_bytes()
                  for name in os.listdir(tmp_path) if name.endswith(".txt")}
        assert len(tables) == 2
        record = (tmp_path / "run_manifest.jsonl").read_bytes()
        for name in tables:
            os.remove(tmp_path / name)
        # Warm: nothing runs, the record is untouched, and every table
        # is rewritten byte for byte from it.
        assert run_all.main(args) == 0
        second = capsys.readouterr().out
        assert second.count("(cached)") == 2
        assert "Regenerated 2/2 experiments (2 cached)" in second
        assert (tmp_path / "run_manifest.jsonl").read_bytes() == record
        for name, content in tables.items():
            assert (tmp_path / name).read_bytes() == content

    def test_rerun_executes_only_the_failed_task(
            self, tmp_path, capsys, monkeypatch):
        """Crash safety: finished tasks are recorded as they settle, so
        one failure costs only itself on the re-run."""
        counts = {name: str(tmp_path / f"{name}.count")
                  for name in ("steady", "flaky")}
        plan = [("steady", functools.partial(_counted_table,
                                             counts["steady"])),
                ("flaky", functools.partial(_counted_table, counts["flaky"],
                                            fail_first=True))]
        monkeypatch.setattr(run_all, "experiment_plan", lambda fast: plan)
        out = tmp_path / "out"
        assert run_all.main(["--fast", "--out", str(out)]) == 1
        assert [t["name"] for t in _record(out)[1:]] == ["steady"]
        assert run_all.main(["--fast", "--out", str(out)]) == 0
        assert "Regenerated 2/2 experiments (1 cached)" in \
            capsys.readouterr().out
        runs = {name: len((tmp_path / f"{name}.count").read_text().split())
                for name in counts}
        assert runs == {"steady": 1, "flaky": 2}
        assert [t["name"] for t in _record(out)[1:]] == ["steady", "flaky"]

    def test_failed_experiment_reported_and_nonzero_exit(
            self, tmp_path, capsys, monkeypatch):
        plan = [("eq06_analytic",
                 dict(run_all.experiment_plan(True))["eq06_analytic"]),
                ("synthetic_boom", functools.partial(_boom))]
        monkeypatch.setattr(run_all, "experiment_plan", lambda fast: plan)
        rc = run_all.main(["--fast", "--no-cache", "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "synthetic_boom" in out
        # The healthy experiment still produced its table.
        assert os.path.exists(tmp_path / "eq06_analytic.txt")

    def test_bad_jobs_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_all.main(["--jobs", "0", "--out", str(tmp_path)])
