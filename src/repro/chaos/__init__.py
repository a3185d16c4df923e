"""repro.chaos: deterministic fault injection for the simulator.

Quickstart::

    from repro.chaos import Blackout, ChaosInjector, FaultSchedule

    sim = Simulator(seed=7)
    path = wired_path(sim, rate_bps=20e6, rtt_s=0.04)
    conn = make_connection(sim, "tcp-tack")
    conn.wire(path.forward, path.reverse)
    schedule = FaultSchedule([Blackout(1.0, 2.0, direction="both")])
    ChaosInjector(sim, path, schedule).arm()
    conn.start_transfer(2_000_000)
    sim.run(until=60.0)
    conn.raise_if_aborted()      # structured, never a silent stall

Or run the named scenario library from the shell::

    python -m repro.chaos list
    python -m repro.chaos run --scenario blackout --scheme tcp-tack
"""

from repro.chaos.faults import (
    DIRECTIONS,
    BandwidthOscillation,
    Blackout,
    BurstLossEpisode,
    ChaosInjector,
    Corruption,
    DelayStep,
    Duplication,
    Fault,
    FaultSchedule,
    JitterSpike,
    LinkFlap,
    LossEpisode,
    Reordering,
)
from repro.chaos.runner import ChaosResult, run_scenario
from repro.chaos.scenarios import (
    ADVERSARY_SCENARIOS,
    DEFAULT_SCHEMES,
    SCENARIOS,
    Scenario,
    get_scenario,
)

__all__ = [
    "Fault",
    "FaultSchedule",
    "ChaosInjector",
    "Blackout",
    "LinkFlap",
    "BandwidthOscillation",
    "LossEpisode",
    "BurstLossEpisode",
    "Reordering",
    "Duplication",
    "Corruption",
    "JitterSpike",
    "DelayStep",
    "DIRECTIONS",
    "Scenario",
    "SCENARIOS",
    "ADVERSARY_SCENARIOS",
    "DEFAULT_SCHEMES",
    "get_scenario",
    "ChaosResult",
    "run_scenario",
]
