"""reprolint scope: which rules see which files, stated once.

Every scope decision reads a file's ``repro/...`` form
(:func:`repro_path`), so a file is judged the same whichever way its
path was spelled on the command line.  The split matters most for
REP001/REP002: *simulation* code must never touch the wall clock or
ambient RNG state, while *host-side* orchestration (the campaign
runner, ``run_all``, the CLIs) legitimately measures wall
time — :data:`HOST_FILES` carves those files out.
"""

from __future__ import annotations

import fnmatch
import os

#: Host-side files, as globs on the ``repro/...`` form.  They skip the
#: determinism rules REP001-REP003 and sit outside the sim scope of
#: REP007/REP008 even inside a sim package (REP004/REP005 still apply:
#: a mutable default is a bug in host code too).
HOST_FILES = (
    "repro/runner/*",
    "repro/experiments/run_all.py",
    "repro/lint/*",
    "repro/profile/*",
    "repro/telemetry/cli.py",
    "repro/telemetry/__main__.py",
    # fleet: campaign orchestration, aggregation, CLI.  The generators
    # (workload.py, shard.py) are simulation code.
    "repro/fleet/cli.py",
    "repro/fleet/__main__.py",
    "repro/fleet/campaign.py",
    "repro/fleet/report.py",
    # diagnose: the engine and the live doctor are simulation-side;
    # the trace replayer, explainer and CLI are host tooling.
    "repro/diagnose/cli.py",
    "repro/diagnose/__main__.py",
    "repro/diagnose/offline.py",
    "repro/diagnose/explain.py",
    # adversary: the models and the fuzzer run inside the event loop;
    # the corpus CLI is host tooling.
    "repro/adversary/cli.py",
    "repro/adversary/__main__.py",
)

#: Simulation-side packages covered by REP007 (profiler isolation) and
#: REP008 (no hard-coded RNG seeds).
SIM_PACKAGES = ("netsim", "transport", "ack", "cc", "core", "wlan",
                "chaos", "fleet", "energy", "diagnose", "adversary")

#: Packages whose ``__init__`` constructors fall under the REP004
#: unit-suffix discipline (plus every function in ``core/params.py``).
REP004_PACKAGES = ("netsim", "transport", "ack", "cc", "core", "wlan",
                   "energy")

#: Parameter names REP004 accepts without a unit suffix: dimensionless
#: or contextual (`beta` is the paper's ACKs-per-RTT, S4.1; `start` the
#: Clock epoch).
ALLOW_NAMES = ("seed", "default", "beta", "start")


def repro_path(path: str) -> str:
    """*path* from its last ``repro`` directory on (``repro/netsim/link.py``).

    A file outside any ``repro`` directory keeps its absolute ``/`` form,
    which no package scope matches.
    """
    parts = os.path.abspath(path).replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return "/".join(parts)


def package_of(rpath: str) -> str:
    """The top-level ``repro`` package of a ``repro/...`` path ('' if none)."""
    parts = rpath.split("/")
    return parts[1] if parts[0] == "repro" and len(parts) > 2 else ""


def is_host(rpath: str) -> bool:
    """True for host-side code (outside REP001-REP003 and the sim scope)."""
    return any(fnmatch.fnmatch(rpath, pat) for pat in HOST_FILES)


def in_sim_scope(rpath: str) -> bool:
    """True for simulation-side code (REP007/REP008)."""
    return package_of(rpath) in SIM_PACKAGES and not is_host(rpath)
