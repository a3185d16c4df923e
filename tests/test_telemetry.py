"""Tests for the repro.telemetry subsystem (collector, sinks)."""

import sys

import pytest

sys.path.insert(0, "tests")
from conftest import build_wired_connection, run_bulk  # noqa: E402

from repro.netsim.engine import Simulator  # noqa: E402
from repro.telemetry import (  # noqa: E402
    CAT_ACK,
    CATEGORIES,
    JsonlSink,
    MemorySink,
    TraceCollector,
    TraceEvent,
    always_on_collector,
    read_header,
    read_trace,
    trace_digest,
)
from repro.telemetry.collector import ALWAYS_ON_RING_EVENTS  # noqa: E402


def _traced_run(tmp_path=None, seed=42, duration=2.0, **conn_kwargs):
    """One bulk tcp-tack run with telemetry; returns (collector, conn)."""
    sink = (JsonlSink(str(tmp_path / "run.jsonl"))
            if tmp_path is not None else MemorySink())
    collector = TraceCollector(sink=sink)
    sim = Simulator(seed=seed, telemetry=collector)
    conn, _ = build_wired_connection(sim, "tcp-tack", **conn_kwargs)
    run_bulk(sim, conn, duration)
    collector.close()
    return collector, conn


def _delivered(collector, duration=0.4):
    """Bytes a seeded bulk tcp-tack run delivers with *collector*
    (``None``: telemetry off) attached."""
    sim = Simulator(seed=11, telemetry=collector)
    conn, _ = build_wired_connection(sim, "tcp-tack", rtt_s=0.04)
    run_bulk(sim, conn, duration)
    return conn.receiver.stats.bytes_delivered


class TestTraceEvent:
    def test_round_trip(self):
        event = TraceEvent(1.25, "ack", "tack", 3,
                           {"reason": "periodic", "cum_ack": 96000})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_wire_keys_are_compact(self):
        d = TraceEvent(0.0, "cc", "update", 0, {"cwnd_bytes": 1}).to_dict()
        assert set(d) == {"t", "cat", "name", "flow", "data"}

    def test_missing_optional_keys_default(self):
        event = TraceEvent.from_dict({"t": 1.0, "cat": "netsim", "name": "x"})
        assert event.flow_id == 0
        assert event.fields == {}


class TestCollector:
    def test_category_filter(self):
        collector = TraceCollector(categories=["ack"])
        assert collector.emit("netsim", "drop") is None
        assert collector.emit("ack", "tack") is not None
        assert collector.events_dropped == 1
        assert [e.category for e in collector.events()] == ["ack"]

    def test_sampling_keeps_one_in_n(self):
        collector = TraceCollector(sampling={"netsim": 4})
        kept = [collector.emit("netsim", "enqueue", i) for i in range(12)]
        assert sum(e is not None for e in kept) == 3
        # ...and the kept ones are deterministic: every 4th, from the first.
        assert [e is not None for e in kept[:4]] == [True, False, False, False]

    def test_unattached_collector_stamps_zero(self):
        collector = TraceCollector()
        assert collector.emit("cc", "update").time == 0.0

    def test_events_raises_for_file_sink(self, tmp_path):
        collector = TraceCollector(JsonlSink(str(tmp_path / "t.jsonl")))
        with pytest.raises(TypeError):
            collector.events()
        collector.close()


class TestMemorySink:
    def test_ring_buffer_evicts_oldest(self):
        sink = MemorySink(max_events=3)
        for i in range(5):
            sink.append(TraceEvent(float(i), "cc", "update", 0))
        assert len(sink) == 3
        assert sink.evicted == 2
        assert [e.time for e in sink.events()] == [2.0, 3.0, 4.0]
        # the always-on ring, on a flow long enough to wrap it
        collector = always_on_collector()
        _delivered(collector, duration=20.0)
        last = collector.emit("chaos", "end-of-run")
        sink = collector.sink
        assert len(sink) == ALWAYS_ON_RING_EVENTS
        assert sink.appended == collector.events_emitted
        assert sink.evicted == sink.appended - ALWAYS_ON_RING_EVENTS > 0
        assert sink.events()[-1] is last


class TestJsonlSink:
    def test_header_and_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path, meta={"seed": 7})
        events = [TraceEvent(0.1 * i, "ack", "tack", 0, {"reason": "periodic"})
                  for i in range(5)]
        for e in events:
            sink.append(e)
        digest = sink.digest()
        sink.close()
        header, loaded = read_trace(path)
        assert header["schema"] == "repro-telemetry"
        assert header["version"] == 1
        assert header["meta"] == {"seed": 7}
        assert loaded == events
        assert trace_digest(path) == digest

    def test_append_after_close_raises(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError):
            sink.append(TraceEvent(0.0, "cc", "update"))


class TestLiveRun:
    def test_event_times_are_monotonic_sim_time(self):
        collector, conn = _traced_run()
        events = collector.events()
        assert len(events) > 100
        times = [e.time for e in events]
        assert times == sorted(times)
        assert times[-1] <= 2.0 + 1e-9

    def test_all_categories_fire_on_a_bulk_run(self):
        collector, _ = _traced_run()
        seen = {e.category for e in collector.events()}
        # "chaos" only fires when a fault schedule is armed and
        # "guard" only on feedback violations; an unimpaired bulk run
        # with a well-behaved peer exercises every other category.
        assert seen == set(CATEGORIES) - {"chaos", "guard"}

    def test_chaos_category_fires_when_armed(self):
        from repro.chaos import Blackout, ChaosInjector, FaultSchedule
        sim = Simulator(seed=5, telemetry=TraceCollector())
        conn, path = build_wired_connection(sim, "tcp-tack")
        schedule = FaultSchedule().add(
            Blackout(start_s=0.5, duration_s=0.2))
        ChaosInjector(sim, path, schedule).arm()
        run_bulk(sim, conn, 2.0)
        seen = {e.category for e in sim.telemetry.events()}
        assert "chaos" in seen

    def test_telemetry_does_not_perturb_the_simulation(self):
        collector, traced = _traced_run()
        sim = Simulator(seed=42)
        conn, _ = build_wired_connection(sim, "tcp-tack")
        run_bulk(sim, conn, 2.0)
        assert (traced.receiver.stats.bytes_delivered
                == conn.receiver.stats.bytes_delivered)
        assert traced.receiver.stats.tacks_sent == conn.receiver.stats.tacks_sent

    def test_identical_runs_produce_identical_events(self):
        first, _ = _traced_run(seed=7)
        second, _ = _traced_run(seed=7)
        assert first.events() == second.events()

    def test_sampling_is_deterministic_across_runs(self):
        def sampled():
            collector = TraceCollector(MemorySink(), sampling={"netsim": 8})
            sim = Simulator(seed=9, telemetry=collector)
            conn, _ = build_wired_connection(sim, "tcp-tack")
            run_bulk(sim, conn, 1.0)
            return collector.events()

        assert sampled() == sampled()

    def test_lossy_run_emits_loss_reason_iacks(self):
        collector, conn = _traced_run(seed=11, duration=4.0, data_loss=0.02)
        acks = [e for e in collector.events() if e.category == CAT_ACK]
        reasons = {e.fields.get("reason") for e in acks}
        assert "loss" in reasons          # IACK pulls for the gaps
        assert "periodic" in reasons      # the Eq. (3) clock kept running
        iacks = [e for e in acks if e.name == "iack"
                 and e.fields.get("reason") == "loss"]
        assert len(iacks) > 0
        assert conn.receiver.stats.iacks_sent >= len(iacks)

    def test_drop_events_carry_reason(self):
        collector, _ = _traced_run(seed=11, duration=4.0, data_loss=0.02)
        drops = [e for e in collector.events()
                 if e.category == "netsim" and e.name == "drop"]
        assert drops
        assert {e.fields["reason"] for e in drops} <= {"loss", "queue"}

    def test_always_on_collector_samples_into_ring(self, tmp_path):
        collector = always_on_collector()
        delivered = _delivered(collector)
        assert delivered > 0
        assert isinstance(collector.sink, MemorySink)
        assert collector.sink.max_events == ALWAYS_ON_RING_EVENTS
        assert 0 < collector.events_emitted == collector.sink.appended
        # Sampled, not silent — and no sink perturbs the run or thins
        # what a full-fidelity collector keeps.
        full = [TraceCollector(sink) for sink in (
            MemorySink(), MemorySink(max_events=ALWAYS_ON_RING_EVENTS),
            JsonlSink(str(tmp_path / "t.jsonl")))]
        assert {_delivered(c) for c in [None, *full]} == {delivered}
        assert len({c.events_emitted for c in full}) == 1
        assert collector.events_emitted < full[0].events_emitted
        for c in full:
            c.close()


class TestTraceIo:
    def test_read_header_only(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        JsonlSink(path, meta={"x": 1}).close()
        assert read_header(path)["meta"] == {"x": 1}

    def test_rejects_non_trace_file(self, tmp_path):
        from repro.telemetry import TraceFormatError
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"not": "a trace"}\n')
        with pytest.raises(TraceFormatError):
            read_header(str(path))
