"""The probe-bus seam: one emit per site, subscribers by kind.

What must hold (DESIGN.md sections 10 and 16): the flow doctor sees the
unsampled event stream whatever the trace subscriber keeps; a
doctor-only run never pays for trace-only sites; and no sim-side module
grows a second, doctor-specific hook again.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.core.flavors import make_connection
from repro.diagnose import FlowDoctor
from repro.diagnose.engine import ANY_NAME, VOCABULARY
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.telemetry import TraceCollector, TraceEvent, always_on_collector

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def lossy_transfer(scheme: str, telemetry=None, subscriber=None):
    """A short lossy transfer with a doctor attached; returns
    ``(report, sim)``."""
    doctor = FlowDoctor()
    sim = Simulator(seed=3, telemetry=telemetry, diagnosis=doctor)
    if subscriber is not None:
        sim.probes.subscribe(subscriber)
    path = wired_path(sim, rate_bps=20e6, rtt_s=0.04, data_loss=0.02,
                      ack_loss=0.05)
    conn = make_connection(sim, scheme, initial_rtt_s=0.04)
    conn.wire(path.forward, path.reverse)
    conn.start_transfer(600_000)
    sim.run(until=20.0)
    assert conn.completed
    conn.close()
    doctor.finalize()
    return doctor.report(), sim


def in_vocabulary(category: str, name: str) -> bool:
    names = VOCABULARY.get(category, {})
    return name in names or ANY_NAME in names


@pytest.fixture
def events_built(monkeypatch):
    """Every ``TraceEvent`` constructed while the fixture is live,
    whoever builds it (the bus, the collector's direct sites)."""
    built = []
    init = TraceEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counted)
    return built


@pytest.mark.parametrize("scheme", ("tcp-tack", "tcp-bbr"))
def test_doctor_sees_the_unsampled_stream_whatever_the_trace_keeps(scheme):
    alone, _ = lossy_transfer(scheme)
    full, _ = lossy_transfer(scheme, telemetry=TraceCollector())
    ring = always_on_collector()
    sampled, _ = lossy_transfer(scheme, telemetry=ring)
    assert ring.events_dropped > 0          # the ring really sampled
    assert alone["digest"] == full["digest"] == sampled["digest"]


@pytest.mark.parametrize("scheme", ("tcp-tack", "tcp-bbr"))
def test_doctor_only_run_builds_no_trace_only_events(scheme):
    seen = []
    lossy_transfer(scheme, subscriber=lambda t, category, name, flow_id,
                   fields: seen.append((category, name)))
    assert seen and all(in_vocabulary(*e) for e in seen)
    # The same run under a full-fidelity trace does have such sites.
    collector = TraceCollector()
    lossy_transfer(scheme, telemetry=collector)
    assert not all(in_vocabulary(e.category, e.name)
                   for e in collector.events())


@pytest.mark.parametrize("scheme", ("tcp-tack", "tcp-bbr"))
def test_a_trace_event_exists_only_for_what_the_trace_keeps(
        scheme, events_built):
    """Stream subscribers are handed plain values: a doctor-only run
    constructs no ``TraceEvent`` at all, and under the sampling ring
    exactly the events the ring's sink was offered."""
    lossy_transfer(scheme, subscriber=lambda *event: None)
    assert events_built == []
    ring = always_on_collector()
    lossy_transfer(scheme, telemetry=ring)
    assert ring.events_dropped > 0
    assert len(events_built) == ring.events_emitted > 0


def test_nothing_attached_leaves_no_bus():
    sim = Simulator(seed=1)
    assert sim.probes is None and sim.telemetry is None


def test_no_second_set_of_doctor_hooks():
    """Sim-side modules reach the doctor through ``sim.probes`` only."""
    pattern = re.compile(r"""sim\.diagnosis|["']diagnosis["']|_diag\b"""
                         r"|attach_diagnosis|\.observe\(")
    for package in ("netsim", "transport", "cc", "ack", "chaos"):
        for path in sorted((SRC / package).rglob("*.py")):
            assert not pattern.search(path.read_text()), path
    assert not [name for name in dir(Simulator) if name.startswith("attach_")]
