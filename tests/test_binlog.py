"""Tests for the binary telemetry plane (``repro.telemetry.binlog``).

The load-bearing invariant: a binary trace converted offline must be
*byte-identical* to what a live ``JsonlSink`` would have written for
the same event stream, so every JSONL consumer (summarize / filter /
diff, MetricsRegistry replays, the fig08 Eq. (3) re-derivation) works
unchanged on converted traces.
"""

import hashlib
import random
import struct

import pytest

from repro.core.flavors import make_connection
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.telemetry import (
    ALWAYS_ON_SAMPLING,
    BinaryFileSink,
    BinaryRingSink,
    JsonlSink,
    MemorySink,
    TraceCollector,
    TraceEvent,
    always_on_collector,
    convert_binary_trace,
    read_trace,
)
from repro.telemetry.binlog import BinaryFormatError, StringTable
from repro.telemetry.cli import main as telemetry_cli


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _seeded_run(collector, seed=11, until_s=0.4):
    sim = Simulator(seed=seed, telemetry=collector)
    path = wired_path(sim, 20e6, 0.04)
    conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.04)
    conn.wire(path.forward, path.reverse)
    conn.start_bulk()
    sim.run(until=until_s)
    return conn.receiver.stats.bytes_delivered


def _synthetic_events(n=400, seed=0):
    """Deterministic event stream exercising every field type the
    binary format encodes (and some it must fall back to JSON for)."""
    rng = random.Random(seed)
    names = ["send", "recv", "deliver", "gap", "rare-%d"]
    events = []
    t = 0.0
    for i in range(n):
        t += rng.random() * 1e-3
        pick = rng.randrange(6)
        if pick == 0:
            fields = {"seq": rng.randrange(1 << 40), "length": 1500,
                      "neg": -rng.randrange(1 << 20)}
        elif pick == 1:
            fields = {"srtt_s": rng.random() * 0.2, "ok": bool(i % 2)}
        elif pick == 2:
            fields = {"reason": rng.choice(["periodic", "loss", "quota"]),
                      "note": "x" * rng.randrange(0, 64)}
        elif pick == 3:
            fields = {"huge": (1 << 63) + i}       # out of i64 range
        elif pick == 4:
            fields = {"nested": {"a": i}}          # non-scalar
        else:
            fields = {}
        name = names[rng.randrange(len(names))]
        if "%d" in name:
            name = name % rng.randrange(200)       # stresses interning
        events.append(TraceEvent(t, rng.choice(["transport", "ack", "cc"]),
                                 name, rng.randrange(4), fields))
    return events


class TestRoundTrip:
    def test_full_fidelity_digest_identity(self, tmp_path):
        jp = str(tmp_path / "live.jsonl")
        bp = str(tmp_path / "run.rtb")
        cp = str(tmp_path / "converted.jsonl")
        jcol = TraceCollector(JsonlSink(jp))
        bcol = TraceCollector(BinaryFileSink(bp))
        assert _seeded_run(jcol) == _seeded_run(bcol)
        assert jcol.events_emitted == bcol.events_emitted > 500
        jcol.close()
        bcol.close()
        stats = convert_binary_trace(bp, cp)
        assert stats["events"] == bcol.events_emitted
        assert _sha256(jp) == _sha256(cp) == stats["digest"]
        with open(jp, "rb") as a, open(cp, "rb") as b:
            assert a.read() == b.read()

    def test_sampled_run_digest_identity(self, tmp_path):
        jp = str(tmp_path / "live.jsonl")
        bp = str(tmp_path / "run.rtb")
        cp = str(tmp_path / "converted.jsonl")
        jcol = TraceCollector(JsonlSink(jp), sampling=ALWAYS_ON_SAMPLING)
        bcol = TraceCollector(BinaryFileSink(bp), sampling=ALWAYS_ON_SAMPLING)
        assert _seeded_run(jcol) == _seeded_run(bcol)
        assert jcol.events_emitted == bcol.events_emitted > 0
        jcol.close()
        bcol.close()
        convert_binary_trace(bp, cp)
        assert _sha256(jp) == _sha256(cp)

    def test_synthetic_stream_property_roundtrip(self, tmp_path):
        """Property-style sweep over field-type combinations: every
        generated stream must convert byte-for-byte, with non-scalar
        and out-of-range fields surviving via the JSON fallback."""
        for seed in range(5):
            events = _synthetic_events(seed=seed)
            jp = str(tmp_path / f"live-{seed}.jsonl")
            bp = str(tmp_path / f"run-{seed}.rtb")
            cp = str(tmp_path / f"conv-{seed}.jsonl")
            jsink = JsonlSink(jp, meta={"seed": seed})
            bsink = BinaryFileSink(bp, meta={"seed": seed})
            for e in events:
                jsink.append(e)
                bsink.append(e)
            jsink.close()
            bsink.close()
            assert bsink.fallback_events > 0  # huge ints + nested dicts
            convert_binary_trace(bp, cp)
            assert _sha256(jp) == _sha256(cp)
            header, decoded = read_trace(cp)
            assert header["meta"]["seed"] == seed
            assert decoded == events

    def test_interning_overflow_falls_back_not_drops(self, tmp_path):
        jp = str(tmp_path / "live.jsonl")
        bp = str(tmp_path / "run.rtb")
        cp = str(tmp_path / "conv.jsonl")
        events = [TraceEvent(i * 1e-3, "transport", f"name-{i}", 0,
                             {"reason": f"reason-{i}"})
                  for i in range(64)]
        jsink = JsonlSink(jp)
        bsink = BinaryFileSink(bp, max_interned=8)
        for e in events:
            jsink.append(e)
            bsink.append(e)
        jsink.close()
        bsink.close()
        assert bsink.fallback_events > 0
        assert bsink.events_written == len(events)
        convert_binary_trace(bp, cp)
        assert _sha256(jp) == _sha256(cp)


class TestRingSink:
    def test_wrap_retains_newest_tail(self):
        events = [TraceEvent(i * 1e-3, "transport", "send", 0,
                             {"seq": i, "length": 1500})
                  for i in range(200)]
        ring = BinaryRingSink(capacity_bytes=2048)
        for e in events:
            ring.append(e)
        kept = ring.events()
        assert 0 < len(kept) < len(events)
        assert kept == events[-len(kept):]
        assert ring.appended == len(events)
        assert ring.evicted == len(events) - len(kept)
        assert ring.used_bytes <= ring.capacity_bytes

    def test_evicted_contract_mirrors_memory_sink(self):
        """Same ring-bound surface (appended / evicted / len /
        events()-tail) as MemorySink, so runner code is sink-agnostic."""
        events = [TraceEvent(i * 1e-3, "ack", "tack", 0, {"cum_ack": i})
                  for i in range(50)]
        ring = BinaryRingSink(capacity_bytes=1 << 16, max_events=16)
        mem = MemorySink(max_events=16)
        for e in events:
            ring.append(e)
            mem.append(e)
        assert len(ring) == len(mem) == 16
        assert ring.appended == mem.appended == 50
        assert ring.evicted == mem.evicted == 34
        assert ring.events() == mem.events() == events[-16:]
        ring.clear()
        mem.clear()
        assert len(ring) == len(mem) == 0
        assert ring.evicted == mem.evicted == 50  # appended survives clear

    def test_interning_table_survives_eviction(self):
        """Wrapped-out records must stay decodable: the interning
        table lives outside the ring and is never evicted."""
        ring = BinaryRingSink(capacity_bytes=1024)
        for i in range(300):
            ring.append(TraceEvent(i * 1e-3, "transport",
                                   f"kind-{i % 7}", i % 3, {"seq": i}))
        for e in ring.events():
            assert e.name.startswith("kind-")

    def test_oversized_record_rejected(self):
        ring = BinaryRingSink(capacity_bytes=64)
        # a non-scalar field forces the JSON fallback record, whose
        # size scales with the payload and cannot fit a 64-byte ring
        with pytest.raises(ValueError, match="exceeds ring capacity"):
            ring.append(TraceEvent(0.0, "transport", "blob", 0,
                                   {"nested": {"note": "y" * 4096}}))

    def test_always_on_collector_samples_into_ring(self, tmp_path):
        collector = always_on_collector()
        delivered = _seeded_run(collector)
        assert delivered > 0
        assert isinstance(collector.sink, BinaryRingSink)
        assert 0 < collector.events_emitted
        assert collector.sink.appended == collector.events_emitted
        # Sampled, not silent — and no sink perturbs the run or thins
        # what a full-fidelity collector keeps.
        full = [TraceCollector(sink) for sink in (
            MemorySink(), BinaryRingSink(),
            JsonlSink(str(tmp_path / "t.jsonl")),
            BinaryFileSink(str(tmp_path / "t.rtb")))]
        assert {_seeded_run(c) for c in [None, *full]} == {delivered}
        assert len({c.events_emitted for c in full}) == 1
        assert collector.events_emitted < full[0].events_emitted
        for c in full:
            c.close()


class TestTruncationAndCli:
    def _binary_trace(self, tmp_path, name="t.rtb"):
        bp = str(tmp_path / name)
        col = TraceCollector(BinaryFileSink(bp))
        _seeded_run(col, until_s=0.2)
        col.close()
        return bp

    def test_truncated_trace_detected(self, tmp_path):
        bp = self._binary_trace(tmp_path)
        with open(bp, "rb") as fh:
            raw = fh.read()
        tp = str(tmp_path / "trunc.rtb")
        with open(tp, "wb") as fh:
            fh.write(raw[:len(raw) - 40])
        with pytest.raises(BinaryFormatError):
            convert_binary_trace(tp, str(tmp_path / "out.jsonl"))
        # salvage path: an explicit opt-out recovers the whole events
        stats = convert_binary_trace(tp, str(tmp_path / "out.jsonl"),
                                     require_trailer=False)
        assert stats["events"] > 0

    def test_convert_cli_exit_codes(self, tmp_path, capsys):
        bp = self._binary_trace(tmp_path)
        out = str(tmp_path / "out.jsonl")
        assert telemetry_cli(["convert", bp, out]) == 0
        assert "sha256=" in capsys.readouterr().out
        assert telemetry_cli(
            ["convert", str(tmp_path / "missing.rtb")]) == 2
        with open(bp, "rb") as fh:
            raw = fh.read()
        tp = str(tmp_path / "trunc.rtb")
        with open(tp, "wb") as fh:
            fh.write(raw[:len(raw) - 40])
        assert telemetry_cli(["convert", tp, out]) == 2
        assert telemetry_cli(
            ["convert", tp, out, "--allow-truncated"]) == 0

    @pytest.mark.parametrize("command", ["summarize", "filter", "diff"])
    def test_jsonl_commands_reject_binary_with_hint(
            self, tmp_path, capsys, command):
        bp = self._binary_trace(tmp_path)
        argv = [command, bp] + ([bp] if command == "diff" else [])
        assert telemetry_cli(argv) == 2
        err = capsys.readouterr().err
        assert "convert" in err
        assert "binary trace" in err

    def test_jsonl_commands_reject_garbage(self, tmp_path, capsys):
        gp = str(tmp_path / "garbage.jsonl")
        with open(gp, "wb") as fh:
            fh.write(b"\x00\xff\x80garbage" * 16)
        assert telemetry_cli(["summarize", gp]) == 2
        assert "not a text trace" in capsys.readouterr().err

    def test_summarize_after_convert_matches_live(self, tmp_path, capsys):
        bp = self._binary_trace(tmp_path)
        jp = str(tmp_path / "live.jsonl")
        col = TraceCollector(JsonlSink(jp))
        _seeded_run(col, until_s=0.2)
        col.close()
        cp = str(tmp_path / "conv.jsonl")
        assert telemetry_cli(["convert", bp, cp]) == 0
        capsys.readouterr()
        assert telemetry_cli(["summarize", cp, "--json"]) == 0
        conv_out = capsys.readouterr().out
        assert telemetry_cli(["summarize", jp, "--json"]) == 0
        live_out = capsys.readouterr().out
        # identical but for the trace path line
        assert (conv_out.replace(cp, "X")
                == live_out.replace(jp, "X"))

class TestCorruptRecords:
    """Corrupt payload bytes must surface as ``BinaryFormatError`` —
    never as a bare ``IndexError`` / ``UnicodeDecodeError`` escaping
    the decoder's guts into the CLI."""

    def _raw_trace(self, tmp_path):
        bp = str(tmp_path / "t.rtb")
        col = TraceCollector(BinaryFileSink(bp))
        _seeded_run(col, until_s=0.2)
        col.close()
        with open(bp, "rb") as fh:
            return fh.read()

    @staticmethod
    def _first_record_offset(raw):
        # preamble (magic + version, 10 bytes), u32 header length, line
        (hdr_len,) = struct.unpack_from("<I", raw, 10)
        return 10 + 4 + hdr_len

    def test_unknown_string_id_is_format_error(self):
        table = StringTable()
        table.intern("only-entry")
        with pytest.raises(BinaryFormatError, match="unknown string id"):
            table.lookup(99)

    def test_undecodable_string_bytes_are_format_error(self, tmp_path):
        raw = bytearray(self._raw_trace(tmp_path))
        first = self._first_record_offset(raw)
        assert raw[first] == 0x01  # RT_STRING interning record
        # clobber the payload's first byte with an invalid UTF-8 start
        raw[first + 9] = 0xFF
        cp = str(tmp_path / "corrupt.rtb")
        with open(cp, "wb") as fh:
            fh.write(bytes(raw))
        with pytest.raises(BinaryFormatError, match="undecodable string"):
            convert_binary_trace(cp, str(tmp_path / "out.jsonl"))

    def test_header_only_salvage_is_empty_valid_trace(self, tmp_path,
                                                      capsys):
        raw = self._raw_trace(tmp_path)
        hp = str(tmp_path / "header-only.rtb")
        with open(hp, "wb") as fh:
            fh.write(raw[:self._first_record_offset(raw)])
        out = str(tmp_path / "empty.jsonl")
        assert telemetry_cli(["convert", hp, out,
                              "--allow-truncated"]) == 0
        capsys.readouterr()
        header, events = read_trace(out)
        assert events == []
        assert header["schema"] == "repro-telemetry"
