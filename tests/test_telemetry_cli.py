"""Tests for the ``python -m repro.telemetry`` trace CLI."""

import json

import pytest

from repro.telemetry import TraceEvent, read_trace, write_trace
from repro.telemetry.cli import main


def _canned_events(retx=0, tacks=10):
    """A small synthetic single-flow trace."""
    events = []
    t = 0.0
    for i in range(tacks):
        t += 0.01
        events.append(TraceEvent(t, "transport", "send", 0,
                                 {"seq": i * 1500, "pkt_seq": i,
                                  "length": 1500, "in_flight": 3000}))
        t += 0.02
        events.append(TraceEvent(t, "transport", "deliver", 0,
                                 {"nbytes": 1500}))
        events.append(TraceEvent(t, "ack", "tack", 0,
                                 {"reason": "periodic", "cum_ack": (i + 1) * 1500}))
        events.append(TraceEvent(t, "timing", "rtt_sample", 0,
                                 {"rtt_s": 0.02, "srtt_s": 0.02,
                                  "rtt_min_s": 0.02}))
    for i in range(retx):
        t += 0.01
        events.append(TraceEvent(t, "transport", "retx", 0,
                                 {"seq": i * 1500, "pkt_seq": 100 + i,
                                  "length": 1500, "in_flight": 3000}))
        events.append(TraceEvent(t, "ack", "iack", 0, {"reason": "loss"}))
    return events


@pytest.fixture
def trace(tmp_path):
    path = str(tmp_path / "a.jsonl")
    write_trace(path, _canned_events(), meta={"seed": 1})
    return path


class TestSummarize:
    def test_text_output(self, trace, capsys):
        assert main(["summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "flow 0" in out
        assert "tack=10" in out
        assert "periodic=10" in out

    def test_json_output(self, trace, capsys):
        assert main(["summarize", trace, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        flow = doc["flows"]["0"]
        assert flow["acks"]["by_kind"] == {"tack": 10}
        assert flow["acks"]["reasons"] == {"periodic": 10}
        assert flow["data"]["sent"] == 10
        assert flow["data"]["delivered_bytes"] == 15000
        assert flow["timing"]["rtt_min_s"] == 0.02

    def test_window_restricts_and_sets_duration(self, trace, capsys):
        assert main(["summarize", trace, "--json",
                     "--start", "0.0", "--end", "0.15"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["window"]["duration_s"] == pytest.approx(0.15)
        assert doc["flows"]["0"]["acks"]["total"] < 10
        # hz normalizes by the requested window, not the event span
        assert doc["flows"]["0"]["acks"]["hz"] == pytest.approx(
            doc["flows"]["0"]["acks"]["total"] / 0.15)

    def test_category_bytes_accounting(self, trace, capsys):
        assert main(["summarize", trace, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cb = doc["category_bytes"]
        assert set(cb) == set(doc["categories"])
        # wire cost = compact-JSON line length incl. the newline, the
        # exact bytes a JsonlSink would have written for the event
        _, events = read_trace(trace)
        expect = {}
        for e in events:
            wire = len(json.dumps(e.to_dict(), separators=(",", ":"))) + 1
            expect[e.category] = expect.get(e.category, 0) + wire
        assert cb == expect

    def test_category_table_in_text_output(self, trace, capsys):
        assert main(["summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "byte%" in out
        for cat in ("ack", "timing", "transport"):
            assert cat in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_invalid_trace_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not json\n")
        assert main(["summarize", str(bogus)]) == 2

    def test_jsonl_commands_reject_garbage(self, tmp_path, capsys):
        gp = tmp_path / "garbage.jsonl"
        # non-UTF-8 junk, then a file in the removed binary format
        for raw in (b"\x00\xff\x80garbage" * 16,
                    b"\x93RTB\r\n\x1a\n\x01\x00" + bytes(32)):
            gp.write_bytes(raw)
            assert main(["summarize", str(gp)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "not a text trace" in err

    def test_usage_error_exits_2(self, capsys):
        assert main(["summarize"]) == 2  # missing positional
        assert main(["no-such-command"]) == 2


class TestFilter:
    def test_filter_by_category(self, trace, tmp_path, capsys):
        out = str(tmp_path / "acks.jsonl")
        assert main(["filter", trace, "-o", out, "--category", "ack"]) == 0
        header, events = read_trace(out)
        assert header["meta"]["filtered_from"] == trace
        assert header["meta"]["seed"] == 1  # original meta preserved
        assert len(events) == 10
        assert all(e.category == "ack" for e in events)

    def test_filter_by_window(self, trace, tmp_path):
        out = str(tmp_path / "w.jsonl")
        assert main(["filter", trace, "-o", out,
                     "--start", "0.0", "--end", "0.1"]) == 0
        _, events = read_trace(out)
        assert events
        assert all(e.time <= 0.1 for e in events)

    def test_filtered_trace_summarizes(self, trace, tmp_path, capsys):
        out = str(tmp_path / "f.jsonl")
        main(["filter", trace, "-o", out, "--category", "ack,timing"])
        capsys.readouterr()
        assert main(["summarize", out, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["categories"]) == {"ack", "timing"}


class TestDiff:
    def test_identical_traces_exit_0(self, trace, tmp_path, capsys):
        other = str(tmp_path / "b.jsonl")
        write_trace(other, _canned_events())
        assert main(["diff", trace, other]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_traces_exit_1(self, trace, tmp_path, capsys):
        other = str(tmp_path / "b.jsonl")
        write_trace(other, _canned_events(retx=3))
        assert main(["diff", trace, other]) == 1
        out = capsys.readouterr().out
        assert "retx" in out

    def test_json_diff_lists_changes(self, trace, tmp_path, capsys):
        other = str(tmp_path / "b.jsonl")
        write_trace(other, _canned_events(retx=3))
        assert main(["diff", trace, other, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is False
        keys = {c["key"] for c in doc["changes"]}
        assert "flow.0.retx" in keys
        assert "flow.0.ack_reason.loss" in keys
        assert len(doc["retx_timelines"]["b"]) == 3
        assert doc["retx_timelines"]["a"] == []

    def test_missing_operand_exits_2(self, trace):
        assert main(["diff", trace]) == 2

    def test_empty_trace_exits_2(self, trace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["diff", trace, str(empty)]) == 2
        assert "empty file" in capsys.readouterr().err
        # order must not matter: empty operand first fails the same way
        assert main(["diff", str(empty), trace]) == 2

    def test_mismatched_schema_header_exits_2(self, trace, tmp_path,
                                              capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"schema": "not-a-trace", "version": 1}\n')
        assert main(["diff", trace, str(bogus)]) == 2
        assert "header" in capsys.readouterr().err

    def test_header_only_traces_are_identical(self, tmp_path, capsys):
        """Zero events is a valid trace; two of them diff clean."""
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        write_trace(a, [])
        write_trace(b, [])
        assert main(["diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_self_diff_exits_0(self, trace, capsys):
        """A trace diffed against itself is identical by construction."""
        assert main(["diff", trace, trace]) == 0
        assert "identical" in capsys.readouterr().out
