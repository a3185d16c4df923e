"""Microbenchmarks of the simulation substrate itself.

These give the harness real wall-clock numbers (events/second, cost of
one simulated connection-second per scheme) so performance regressions
in the simulator are visible alongside the paper experiments.

Each test appends its best wall time of five rounds to
``benchmarks/results/history/`` as one BenchRecord (see
:mod:`repro.bench`): one lower-is-better ``wall_s`` series per bench,
which is what ``python -m repro.profile gate`` compares against the
trailing window in CI.  (Events per second is ``events`` in the
record's config over ``wall_s``; ROADMAP item 3 tracks the bbr/tack
ratio of the connection-second pair.)
"""

from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.core.flavors import make_connection

from conftest import record_bench_history

_EVENT_COUNT = 200_000
_RATE_BPS = 50e6
_RTT_S = 0.04


def _spin_events(n: int) -> int:
    sim = Simulator(seed=1)
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n:
            sim.call_in(1e-6, tick)

    tick()
    sim.run()
    return count[0]


def _one_connection_second(scheme: str) -> float:
    sim = Simulator(seed=2)
    path = wired_path(sim, _RATE_BPS, _RTT_S)
    conn = make_connection(sim, scheme, initial_rtt_s=_RTT_S)
    conn.wire(path.forward, path.reverse)
    conn.start_bulk()
    sim.run(until=1.0)
    return conn.receiver.stats.bytes_delivered


def _record_wall(benchmark, bench: str, config: dict) -> None:
    """Append this test's best wall time as a BenchRecord series."""
    record_bench_history(bench, {"wall_s": benchmark.stats.stats.min},
                         config=config)


def test_engine_event_throughput(benchmark):
    result = benchmark.pedantic(_spin_events, args=(_EVENT_COUNT,), rounds=5,
                                iterations=1)
    assert result == _EVENT_COUNT
    _record_wall(benchmark, "engine_micro.event_spin",
                 {"events": _EVENT_COUNT})


def test_tack_connection_second(benchmark):
    delivered = benchmark.pedantic(
        _one_connection_second, args=("tcp-tack",), rounds=5, iterations=1
    )
    assert delivered > 2e6  # the flow actually ran
    _record_wall(benchmark, "engine_micro.connection_second_tack",
                 {"scheme": "tcp-tack", "rate_bps": _RATE_BPS,
                  "rtt_s": _RTT_S})


def test_bbr_connection_second(benchmark):
    delivered = benchmark.pedantic(
        _one_connection_second, args=("tcp-bbr",), rounds=5, iterations=1
    )
    assert delivered > 2e6
    _record_wall(benchmark, "engine_micro.connection_second_bbr",
                 {"scheme": "tcp-bbr", "rate_bps": _RATE_BPS,
                  "rtt_s": _RTT_S})
