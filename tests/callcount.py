"""Python calls into ``repro``, counted by package.

One ``sys.setprofile`` counter for every calls-per-packet pin in the
suite: ``call`` events (CPython 3.11) whose code lives under
``src/repro``, keyed by the first path component below it
(``transport``, ``netsim``, ``wlan``, ``cc``, ``core``, ``ack``, ...).
"""

from __future__ import annotations

import collections
import os
import sys

import repro

ROOT = os.path.dirname(repro.__file__) + os.sep


def calls_by_package(drive) -> collections.Counter:
    """Run ``drive()`` and return its calls into ``repro`` per package."""
    counts: collections.Counter = collections.Counter()

    def count(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(ROOT):
                counts[path[len(ROOT):].split(os.sep, 1)[0]
                       .removesuffix(".py")] += 1

    sys.setprofile(count)
    try:
        drive()
    finally:
        sys.setprofile(None)
    return counts


def per_packet(counts: collections.Counter, packets: int) -> dict:
    """``counts`` per packet, with their sum under ``"total"``."""
    out = {name: n / packets for name, n in counts.items()}
    out["total"] = sum(counts.values()) / packets
    return out


def over_ceilings(measured: dict, ceilings: dict) -> dict:
    """The entries of ``measured`` above their ceiling; a package with
    no ceiling of its own is held to ``ceilings["other"]``."""
    return {name: round(value, 3) for name, value in measured.items()
            if value > ceilings.get(name, ceilings["other"])}
