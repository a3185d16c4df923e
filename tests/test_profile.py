"""repro.profile: the profiler, engine/endpoint instrumentation,
collapsed-stack export, and the `top` CLI."""

import json
import os

import pytest

from repro.core.flavors import make_connection
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.profile import (
    PROFILE_SCHEMA,
    Profiler,
    parse_collapsed,
    read_profile,
    top_handlers,
    top_spans,
)
from repro.profile.cli import main


def profiled_connection_second(scheme="tcp-tack", duration_s=0.25,
                               **prof_kwargs):
    prof = Profiler(**prof_kwargs)
    sim = Simulator(seed=1, profiler=prof)
    path = wired_path(sim, 50e6, 0.04)
    conn = make_connection(sim, scheme, initial_rtt_s=0.04)
    conn.wire(path.forward, path.reverse)
    conn.start_bulk()
    sim.run(until=duration_s)
    return prof, conn


class TestProfilerCore:
    def test_wrap_counts_calls(self):
        prof = Profiler()
        calls = []
        fn = prof.wrap("my.span", lambda x: calls.append(x) or x * 2)
        assert fn(21) == 42
        fn(1)
        assert calls == [21, 1]
        agg = prof._spans["my.span"]
        assert agg.count == 2
        assert agg.total_s >= agg.self_s >= 0.0

    def test_nested_spans_attribute_self_time_exclusively(self):
        prof = Profiler()

        def inner():
            return sum(range(2000))

        wrapped_inner = prof.wrap("inner", inner)
        outer = prof.wrap("outer", lambda: wrapped_inner())
        outer()
        outer_agg = prof._spans["outer"]
        inner_agg = prof._spans["inner"]
        # Parent total covers the child; parent self excludes it.
        assert outer_agg.total_s >= inner_agg.total_s
        assert outer_agg.self_s <= outer_agg.total_s - inner_agg.total_s \
            + 1e-6

    def test_wrap_propagates_exceptions_and_pops(self):
        prof = Profiler()

        def boom():
            raise RuntimeError("x")

        wrapped = prof.wrap("bad", boom)
        with pytest.raises(RuntimeError):
            wrapped()
        assert prof._stack == []  # finally popped the frame
        assert prof._spans["bad"].count == 1

    def test_sample_decimation_bounds_memory(self):
        from repro.profile.profiler import _MAX_SAMPLES
        prof = Profiler()
        agg_fn = prof.wrap("hot", lambda: None)
        for _ in range(1000):
            agg_fn()
        agg = prof._spans["hot"]
        assert agg.count == 1000
        assert len(agg.samples) <= _MAX_SAMPLES

    def test_histogram_off_keeps_totals_only(self):
        prof = Profiler(histogram=False)
        fn = prof.wrap("lean", lambda: None)
        fn()
        agg = prof._spans["lean"]
        assert agg.count == 1 and agg.samples == []


class TestEngineInstrumentation:
    def test_event_accounting_matches_engine(self):
        prof, conn = profiled_connection_second()
        assert prof.events_fired > 100
        assert prof.dispatch_s > 0
        assert prof.queue_high_water > 0
        assert 0 < prof.sim_elapsed_s <= 0.25 + 1e-9

    def test_handler_classes_are_owner_method_names(self):
        prof, _ = profiled_connection_second()
        names = set(prof._handlers)
        assert any(n.startswith("TransportSender.") for n in names)

    def test_subsystem_spans_bound(self):
        prof, _ = profiled_connection_second()
        spans = set(prof._spans)
        assert {"sender.try_send", "sender.feedback",
                "receiver.packet", "cc.bbr"} <= spans
        assert any(s.startswith("ack.tack.") for s in spans)

    def test_step_loop_also_profiles(self):
        prof = Profiler()
        sim = Simulator(seed=1, profiler=prof)
        sim.call_in(0.01, lambda: None)
        sim.call_in(0.02, lambda: None)
        while sim.step():
            pass
        assert prof.events_fired == 2

    def test_constructor_kwarg_attaches_profiler(self):
        prof = Profiler()
        sim = Simulator(seed=1, profiler=prof)
        assert sim.profiler is prof
        sim.call_in(0.01, lambda: None)
        sim.run()
        assert prof.events_fired == 1

    def test_profiling_does_not_perturb_simulation(self):
        _, conn = profiled_connection_second()
        _, lean = profiled_connection_second(histogram=False)
        sim2 = Simulator(seed=1)
        path2 = wired_path(sim2, 50e6, 0.04)
        conn2 = make_connection(sim2, "tcp-tack", initial_rtt_s=0.04)
        conn2.wire(path2.forward, path2.reverse)
        conn2.start_bulk()
        sim2.run(until=0.25)
        assert (conn.receiver.stats.bytes_delivered
                == lean.receiver.stats.bytes_delivered
                == conn2.receiver.stats.bytes_delivered)

    def test_disabled_mode_leaves_methods_unbound(self):
        sim = Simulator(seed=1)
        assert sim.profiler is None
        conn = make_connection(sim, "tcp-tack")
        bound = conn.receiver.on_packet
        assert getattr(bound, "__func__", None) is type(
            conn.receiver).on_packet


class TestReportAndExport:
    def test_report_schema(self):
        prof, _ = profiled_connection_second()
        report = prof.report()
        assert report["schema"] == PROFILE_SCHEMA
        assert report["events"]["fired"] == prof.events_fired
        assert report["events"]["per_s"] > 0
        handler = next(iter(report["handlers"].values()))
        assert {"count", "total_s", "self_s", "max_us", "mean_us",
                "p50_us", "p90_us", "p99_us"} <= set(handler)
        assert handler["p50_us"] is not None  # histogram was on

    def test_write_and_read_json(self, tmp_path):
        prof, _ = profiled_connection_second(duration_s=0.05)
        out = str(tmp_path / "run.profile.json")
        prof.write_json(out)
        doc = read_profile(out)
        assert doc["events"]["fired"] == prof.events_fired

    def test_read_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"schema": "other"}')
        with pytest.raises(ValueError):
            read_profile(str(p))

    def test_collapsed_stack_format(self, tmp_path):
        prof, _ = profiled_connection_second()
        out = str(tmp_path / "run.folded")
        n = prof.write_collapsed(out)
        assert n > 0
        with open(out) as fh:
            lines = fh.readlines()
        stacks = parse_collapsed(lines)  # raises on any malformed line
        assert len(stacks) == n
        # Nested span stacks appear with their parent frames intact.
        assert any(len(frames) >= 2 for frames, _ in stacks)
        assert all(value > 0 for _, value in stacks)
        for frames, _ in stacks:
            for frame in frames:
                assert " " not in frame and ";" not in frame

    def test_parse_collapsed_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_collapsed(["no-value-here"])
        with pytest.raises(ValueError):
            parse_collapsed(["a;b 0"])          # non-positive value
        with pytest.raises(ValueError):
            parse_collapsed(["a;;b 10"])        # empty frame
        with pytest.raises(ValueError):
            parse_collapsed(["a;b notanint"])

    def test_top_queries(self):
        prof, _ = profiled_connection_second()
        report = prof.report()
        handlers = top_handlers(report, n=3)
        assert len(handlers) <= 3
        self_times = [doc["self_s"] for _, doc in handlers]
        assert self_times == sorted(self_times, reverse=True)
        assert top_spans(report, n=2)

    def test_memory_snapshot(self):
        prof, _ = profiled_connection_second(duration_s=0.05, memory=True)
        report = prof.report()
        prof.close()
        assert report["memory"] is not None
        assert report["memory"]["peak_bytes"] > 0
        assert report["memory"]["top"]


class TestTopCli:
    def test_top_prints_table_and_writes_artifacts(self, tmp_path, capsys):
        folded = str(tmp_path / "o.folded")
        report = str(tmp_path / "o.json")
        assert main(["top", "--duration-s", "0.1", "-n", "4",
                     "--flamegraph", folded, "--json", report]) == 0
        out = capsys.readouterr().out
        assert "events:" in out and "handler" in out
        with open(folded) as fh:
            assert parse_collapsed(fh.readlines())
        assert json.load(open(report))["schema"] == PROFILE_SCHEMA

    def test_top_scheme_option(self, capsys):
        assert main(["top", "--duration-s", "0.05",
                     "--scheme", "tcp-bbr"]) == 0
        assert "tcp-bbr" in capsys.readouterr().out


class TestQuickstartProfilingSmoke:
    def test_quickstart_runs_under_profiler(self):
        """The profiler composes with a real example untouched: inject
        via a Simulator factory, run the reduced quickstart workload,
        and the profile must show the WLAN machinery doing the work."""
        from test_examples_smoke import load_example

        mod = load_example("quickstart.py")
        mod.DURATION_S = 0.5
        mod.WARMUP_S = 0.1
        prof = Profiler(label="quickstart")
        real = mod.Simulator
        mod.Simulator = lambda **kw: real(profiler=prof, **kw)
        try:
            result = mod.run_scheme("tcp-tack")
        finally:
            mod.Simulator = real
        assert result["goodput_mbps"] > 1
        assert prof.events_fired > 100
        assert prof._spans  # transport spans got bound through BulkFlow
        report = prof.report()
        assert report["events"]["sim_s"] == pytest.approx(0.5, rel=0.1)
