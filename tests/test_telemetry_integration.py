"""End-to-end telemetry integration: Eq. (3) from a trace, runner capture.

The headline acceptance check lives here: a traced fig. 8-style run's
ACK frequency, *re-derived offline from the trace via the CLI summarize
path*, must match the analytic TACK frequency of Eq. (3)::

    f_tack = min( bw / (L * MSS),  beta / RTT_min )

within 10%.
"""

import json

import pytest

from repro.analysis.ack_frequency import tack_frequency
from repro.experiments.fig08_ack_frequency import run_traced
from repro.runner import Campaign
from repro.telemetry import read_header, trace_digest
from repro.telemetry.cli import main as cli_main

_RATE_BPS = 20e6
_RTT_S = 0.04
_DURATION_S = 6.0
_WARMUP_S = 2.0


class TestEq3FromTrace:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("fig08") / "fig08.jsonl")
        table = run_traced(path, rate_bps=_RATE_BPS, rtt_s=_RTT_S,
                           duration_s=_DURATION_S, warmup_s=_WARMUP_S)
        return path, table

    def test_ack_frequency_matches_eq3_via_cli(self, traced, capsys):
        path, _ = traced
        assert cli_main(["summarize", path, "--json",
                         "--start", str(_WARMUP_S),
                         "--end", str(_DURATION_S)]) == 0
        doc = json.loads(capsys.readouterr().out)
        flow = next(iter(doc["flows"].values()))
        tacks = flow["acks"]["by_kind"].get("tack", 0)
        measured_hz = tacks / doc["window"]["duration_s"]
        analytic_hz = tack_frequency(_RATE_BPS, _RTT_S)
        assert measured_hz == pytest.approx(analytic_hz, rel=0.10)

    def test_periodic_clock_binds_at_this_operating_point(self, traced, capsys):
        # 20 Mbps / 40 ms: beta/RTT_min = 100 Hz < bw/(L*MSS) ~ 833 Hz,
        # so the trace's TACK reasons must be dominated by "periodic".
        path, _ = traced
        cli_main(["summarize", path, "--json",
                  "--start", str(_WARMUP_S), "--end", str(_DURATION_S)])
        doc = json.loads(capsys.readouterr().out)
        reasons = next(iter(doc["flows"].values()))["acks"]["reasons"]
        periodic = reasons.get("periodic", 0)
        bytecount = reasons.get("bytecount", 0)
        assert periodic > 10 * max(bytecount, 1)

    def test_table_agrees_with_trace(self, traced):
        _, table = traced
        row = table.rows[0]
        assert row["analytic_hz"] == pytest.approx(
            tack_frequency(_RATE_BPS, _RTT_S))
        assert row["measured_hz"] == pytest.approx(row["analytic_hz"],
                                                   rel=0.10)

    def test_trace_header_records_run_parameters(self, traced):
        path, _ = traced
        meta = read_header(path)["meta"]
        assert meta["rate_bps"] == _RATE_BPS
        assert meta["seed"] == 7


class TestRunnerTraceCapture:
    def test_trace_is_deterministic_across_runs(self, tmp_path):
        """A traced task run twice in a campaign worker writes the same
        trace byte for byte."""
        digests = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.jsonl")
            campaign = Campaign(f"det-{name}", base_seed=3)
            campaign.add("traced", run_traced, trace_path=path,
                         duration_s=1.0, warmup_s=0.5)
            (result,) = campaign.run(jobs=1).results
            assert result.ok
            digests.append(trace_digest(path))
        assert digests[0] == digests[1]
