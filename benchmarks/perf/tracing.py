"""Span tracing recorded entirely from the benchmark's side of the seams.

The program under test carries no spans of its own yet, so the traced
pass wraps the calls *into* each layer at the boundaries the program
already exposes:

* a :class:`~repro.netsim.engine.Simulator` subclass whose ``run`` is
  one ``netsim.engine`` span and whose ``call_at`` wraps every callback
  in a span named for the layer that owns it (the module of
  ``fn.__self__``, or of the lambda);
* port proxies handed to ``Connection.wire()`` that span
  ``forward.send`` / ``reverse.send`` (entry into ``netsim.link``,
  ``wlan`` or a chaos adversary) and the sinks bound through
  ``connect()`` (entry into ``transport.receiver`` on the forward path
  and ``transport.sender.fb`` on the reverse path);
* per-instance wrappers on the congestion controller (``cc``) and the
  acknowledgment policy (``ack``).

Every span is ``(layer, start_ns, end_ns, parent)`` and belongs to the
run of its root span; a layer's self time
is its spans' duration minus the part their child spans cover, so the
self times of all layers sum to the duration of the root spans.  Time
the recorder itself spends between a parent's and a child's clock reads
lands in the *parent's* self time: the traced shares are a ledger of
where time goes under tracing, and ``trace.overhead_pct`` says how far
that is from the untraced run.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from unittest import mock

from repro.core.flavors import make_connection
from repro.netsim.engine import Simulator

LAYERS = (
    "netsim.engine",
    "netsim.link",
    "wlan",
    "transport.sender.tx",
    "transport.sender.fb",
    "transport.receiver",
    "ack",
    "cc",
    "fleet",
    "chaos",
)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

# Owner module prefix -> layer; the first match wins.  The sender's own
# callbacks (send timer, RTO, persist, watchdog) are its transmit path;
# its feedback path is entered through the reverse-path sink instead.
_MODULE_LAYERS = (
    ("repro.wlan", "wlan"),
    ("repro.netsim", "netsim.link"),
    ("repro.transport.receiver", "transport.receiver"),
    ("repro.transport.sender", "transport.sender.tx"),
    ("repro.ack", "ack"),
    ("repro.cc", "cc"),
    ("repro.fleet", "fleet"),
    ("repro.chaos", "chaos"),
    ("repro.adversary", "chaos"),
)

_CC_METHODS = ("on_feedback", "on_rto", "cwnd_bytes", "pacing_rate_bps")
_ACK_METHODS = ("on_data", "on_gap", "on_window_event", "on_close")


def _module_layer(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    raise KeyError(f"no layer owns module {module!r}")


def _callback_layer(fn) -> str:
    owner = getattr(fn, "__self__", None)
    return _module_layer(type(owner).__module__ if owner is not None
                         else fn.__module__)


def _port_layer(port) -> str:
    """Layer a packet enters when handed to *port*: the first stage of
    a chain, and for a wireless hop the transmitting station."""
    first = getattr(port, "stages", (port,))[0]
    return _module_layer(type(getattr(first, "tx", first)).__module__)


class Untraced:
    """The unmodified program: what every timed round runs."""

    Simulator = Simulator
    make_connection = staticmethod(make_connection)

    def span(self, layer: str, fn):
        return fn

    def patched(self, module):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Offers the same four names as :class:`Untraced` so a workload is
    written once and handed either.
    """

    def __init__(self):
        self.layer = array("b")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("l")
        self._top = -1
        self.sims: list = []
        self.conns: list = []
        # port layer -> [packets offered, packets refused at ingress]
        self.port_tally = {layer: [0, 0] for layer in LAYERS}
        tracer = self

        class SpanSimulator(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.sims.append(self)
                self.run = tracer.span("netsim.engine", self.run)

            def call_at(self, t, fn):
                return super().call_at(
                    t, tracer.span(_callback_layer(fn), fn))

        self.Simulator = SpanSimulator

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, layer: str, fn):
        """Wrap *fn* so each call records one span of *layer*."""
        layer_id = _LAYER_ID[layer]
        layers, starts, ends, parents = (
            self.layer, self.start_ns, self.end_ns, self.parent)
        clock = time.perf_counter_ns  # reprolint: disable=REP001

        def spanned(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(self._top)
            ends.append(0)
            self._top = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                self._top = parents[index]

        return spanned

    # ------------------------------------------------------------------
    # seams
    # ------------------------------------------------------------------
    def make_connection(self, sim, scheme="tcp-tack", **kwargs):
        """``make_connection`` whose result is instrumented: ``cc`` and
        ``ack`` wrappers now, port proxies when it is wired."""
        conn = make_connection(sim, scheme, **kwargs)
        self.conns.append(conn)
        cc, policy = conn.sender.cc, conn.receiver.policy
        for name in _CC_METHODS:
            setattr(cc, name, self.span("cc", getattr(cc, name)))
        for name in _ACK_METHODS:
            setattr(policy, name, self.span("ack", getattr(policy, name)))
        wire = conn.wire
        conn.wire = lambda forward, reverse: wire(
            self._port(forward, "transport.receiver"),
            self._port(reverse, "transport.sender.fb"))
        return conn

    def _port(self, port, sink_layer: str):
        layer = _port_layer(port)
        tally = self.port_tally[layer]
        spanned_send = self.span(layer, port.send)

        def send(packet):
            tally[0] += 1
            accepted = spanned_send(packet)
            if accepted is False:
                tally[1] += 1
            return accepted

        def connect(sink):
            port.connect(self.span(sink_layer, sink))

        return _PortProxy(send, connect)

    def patched(self, module):
        """Substitute the span simulator and the instrumenting
        ``make_connection`` for those names in *module* — for entry
        points that build their own simulator."""
        return mock.patch.multiple(module, Simulator=self.Simulator,
                                   make_connection=self.make_connection)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def ledger(self) -> dict:
        """``{layer: (calls, self_ns)}`` over every recorded span."""
        count = len(self.start_ns)
        covered = [0] * count
        calls = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        # Children are recorded after their parent, so walking backwards
        # sees every child before the span that contains it.
        for index in range(count - 1, -1, -1):
            duration = self.end_ns[index] - self.start_ns[index]
            above = self.parent[index]
            if above >= 0:
                covered[above] += duration
            layer_id = self.layer[index]
            calls[layer_id] += 1
            self_ns[layer_id] += duration - covered[index]
        return {layer: (calls[i], self_ns[i]) for i, layer in enumerate(LAYERS)}

    def counts(self) -> dict:
        """Exact simulated counts read from the public stats of every
        simulator and connection the traced pass built, and the packet
        tallies kept at the port seams."""
        senders = [conn.sender.stats for conn in self.conns]
        receivers = [conn.receiver.stats for conn in self.conns]
        guards = [conn.sender.guard for conn in self.conns
                  if conn.sender.guard is not None]
        data_pkts = sum(s.data_packets_sent for s in senders)
        feedbacks = sum(r.total_feedback() for r in receivers)
        return {
            "netsim.engine.events": sum(sim.events_fired for sim in self.sims),
            "netsim.link.pkts": self.port_tally["netsim.link"][0],
            "netsim.link.drops": self.port_tally["netsim.link"][1],
            "transport.sender.data_pkts": data_pkts,
            "transport.sender.retx": sum(s.retransmissions for s in senders),
            "transport.sender.rtos": sum(s.rtos for s in senders),
            "transport.sender.feedbacks":
                sum(s.feedback_received for s in senders),
            "transport.receiver.segments":
                sum(r.data_packets for r in receivers),
            "transport.receiver.gap_events":
                sum(r.gap_events for r in receivers),
            "ack.feedbacks": feedbacks,
            "ack.per_data": feedbacks / data_pkts if data_pkts else 0.0,
            "transport.guard.violations": sum(g.total for g in guards),
            "transport.guard.aborts": sum(
                1 for conn in self.conns
                if conn.aborted is not None
                and conn.aborted.reason == "misbehaving_peer"),
        }

    def write(self, path: str, workload: str) -> None:
        """Dump every span, column-wise.  The spans of one run share a
        run id: the ordinal of their root span."""
        run = []
        roots = 0
        for above in self.parent:
            if above < 0:
                run.append(roots)
                roots += 1
            else:
                run.append(run[above])
        with open(path, "w") as out:
            json.dump({
                "workload": workload,
                "layers": list(LAYERS),
                "layer": self.layer.tolist(),
                "start_ns": self.start_ns.tolist(),
                "end_ns": self.end_ns.tolist(),
                "parent": self.parent.tolist(),
                "run": run,
            }, out, separators=(",", ":"))


class _PortProxy:
    """What ``Connection.wire()`` sees in place of a real port."""

    __slots__ = ("send", "connect")

    def __init__(self, send, connect):
        self.send = send
        self.connect = connect
