"""Paired on/off overhead of every attachable plane.

One short ``tcp-tack`` wired flow is simulated with nothing attached and
with each plane attached in turn.  The design follows
``bench_telemetry_overhead``: one round runs every mode back to back in
rotating order and each mode's cost is taken against the plain run of
the *same* round.  That bench times in raw seconds, where noise only
ever adds, and so reports the second-smallest ratio; here costs are in
reference loops (``timing.Slices``), whose noise goes both ways, and the
reported overhead is the median ratio.

The feedback guard is on by default, so its pair is the other way
round: the plain run against a run with the guard disabled.
"""

from __future__ import annotations

import statistics

from repro.core.flavors import make_connection
from repro.diagnose import FlowDoctor
from repro.energy import EnergyLedger
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.profile import Profiler
from repro.telemetry import always_on_collector
from repro.transport.guard import GuardConfig
from timing import Slices

RATE_BPS = 50e6
RTT_S = 0.04
UNTIL_S = 1.0
ROUNDS = 7
FLOW_SLICES = 10

# mode -> (Simulator keyword arguments, make_connection keyword arguments)
_MODES = {
    "plain": (lambda: {}, {}),
    "telemetry": (lambda: {"telemetry": always_on_collector()}, {}),
    "sanitize": (lambda: {"simsan": True}, {}),
    "diagnose": (lambda: {"diagnosis": FlowDoctor()}, {}),
    "energy": (lambda: {"energy": EnergyLedger()}, {}),
    "profile": (lambda: {"profiler": Profiler()}, {}),
    "guard_off": (lambda: {}, {"guard": GuardConfig(enabled=False)}),
}
# metric -> (mode with the plane, mode without it)
_PAIRS = {
    "telemetry.overhead_pct": ("telemetry", "plain"),
    "sanitize.overhead_pct": ("sanitize", "plain"),
    "diagnose.overhead_pct": ("diagnose", "plain"),
    "energy.overhead_pct": ("energy", "plain"),
    "profile.overhead_pct": ("profile", "plain"),
    "transport.guard.overhead_pct": ("plain", "guard_off"),
}
# The guard's watchdog is a timer of its own, so guard on/off may differ
# in events fired; every other plane must leave the event count alone.
_SAME_EVENTS = [m for m in _MODES if m != "guard_off"]


def _flow(seed: int, mode: str, scale: float):
    """``(host cost in reference loops, bytes delivered, events fired)``
    of one flow."""
    sim_kwargs, conn_kwargs = _MODES[mode]
    sim = Simulator(seed=seed, **sim_kwargs())
    path = wired_path(sim, RATE_BPS, RTT_S)
    conn = make_connection(sim, "tcp-tack", initial_rtt_s=RTT_S, **conn_kwargs)
    conn.wire(path.forward, path.reverse)
    conn.start_bulk()
    slices = Slices()
    for k in range(FLOW_SLICES):
        slices.run(sim.run, until=UNTIL_S * scale * (k + 1) / FLOW_SLICES)
    return (sum(slices.loops), conn.receiver.stats.bytes_delivered,
            sim.events_fired)


def measure(seed: int, scale: float = 1.0, rounds: int = ROUNDS):
    """``(metrics, notes)``: the six overheads in percent, and one note
    per plane that changed the simulation it was attached to."""
    modes = list(_MODES)
    costs = {mode: [] for mode in modes}
    outcome = {}
    for rnd in range(rounds):
        shift = rnd % len(modes)
        for mode in modes[shift:] + modes[:shift]:
            cost, delivered, events = _flow(seed, mode, scale)
            costs[mode].append(cost)
            outcome[mode] = (delivered, events)
    notes = [f"plane {mode} changed delivered bytes"
             for mode in modes if outcome[mode][0] != outcome["plain"][0]]
    notes += [f"plane {mode} changed events fired"
              for mode in _SAME_EVENTS if outcome[mode][1] != outcome["plain"][1]]
    metrics = {}
    for metric, (with_plane, without) in _PAIRS.items():
        ratios = [on / off for on, off
                  in zip(costs[with_plane], costs[without])]
        metrics[metric] = 100.0 * statistics.median(ratios) - 100.0
    return metrics, notes
