"""Host-side simulator performance profiling.

This is the second observability plane next to :mod:`repro.telemetry`:
telemetry watches the *simulated protocol* (ACK cadence, cwnd moves);
this package watches the *simulator itself* — where the host CPU goes
while events fire, how deep the calendar queue grows, how many events
per wall-second the engine sustains, and (optionally, via
``tracemalloc``) where the memory is.

Opt-in follows the simsan/telemetry null-guard discipline::

    prof = Profiler()
    sim = Simulator(seed=1, profiler=prof)   # before endpoints are built
    ... run ...
    prof.report()                 # JSON-ready dict
    prof.write_json("run.profile.json")
    prof.write_collapsed("run.folded")       # flamegraph.pl compatible

Instrumented components hold the reference behind ``if ... is not
None`` guards (reprolint REP007 keeps sim-side modules from importing
this package or touching the profiler unguarded), so a simulation
without a profiler pays one attribute test per hook site.

The CLI (``python -m repro.profile top``) profiles a canned workload
and prints the hottest handlers.
"""

from repro.profile.profiler import Profiler
from repro.profile.report import (
    PROFILE_SCHEMA,
    PROFILE_VERSION,
    parse_collapsed,
    read_profile,
    top_handlers,
    top_spans,
)

__all__ = [
    "Profiler",
    "PROFILE_SCHEMA", "PROFILE_VERSION",
    "read_profile", "parse_collapsed", "top_handlers", "top_spans",
]
