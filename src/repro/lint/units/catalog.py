"""The unit catalog: how names map to units.

Three layers:

1. **Suffixes** — the tree-wide naming convention from PR 2
   (``rtt_s``, ``queue_bytes``, ``rate_bps``, ``alpha_pkts``).  The
   suffix is a *declaration*: the checker trusts it as the variable's
   unit and reports values of a conflicting inferred unit (REP104).
2. **Prefixes** — counter idiom (``bytes_delivered``,
   ``packets_lost``): the quantity leads instead of trailing.
3. **Signatures** — a curated table of APIs whose parameter/return
   units the names alone don't state (``sim.now() -> s``,
   ``Clock.advance_to(t: s)``, ``Link.set_rate(rate_bps: bps)``).
   Entries are keyed ``Class.method`` or bare ``function``; bare keys
   also match method calls through *any* receiver, which is what makes
   ``self.sim.now()`` resolvable without whole-program type inference.

The catalog is deliberately small: inference does the heavy lifting,
the catalog only seeds the places the convention cannot reach.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.lint.units.algebra import (
    BPS,
    BYTES,
    DB,
    DIMENSIONLESS,
    HZ,
    PKTS,
    PPS,
    SECONDS,
    Unit,
)

#: Name suffix -> unit.  Close to REP004's ``UNIT_SUFFIXES`` in
#: :mod:`repro.lint.rules`, so the two rule families mostly agree on
#: what counts as "declared".
SUFFIX_UNITS: Dict[str, Unit] = {
    "_s": SECONDS,
    "_ms": SECONDS,
    "_us": SECONDS,
    "_ns": SECONDS,
    "_ts": SECONDS,
    "_bytes": BYTES,
    "_bits": BYTES,
    "_bps": BPS,
    "_mbps": BPS,
    "_kbps": BPS,
    "_pps": PPS,
    "_hz": HZ,
    "_pkts": PKTS,
    "_db": DB,
    # explicitly dimensionless kinds
    "_rtts": DIMENSIONLESS,
    "_gain": DIMENSIONLESS,
    "_factor": DIMENSIONLESS,
    "_fraction": DIMENSIONLESS,
    "_frac": DIMENSIONLESS,
    "_ratio": DIMENSIONLESS,
    "_rate": DIMENSIONLESS,
    "_loss": DIMENSIONLESS,
    "_pct": DIMENSIONLESS,
    "_prob": DIMENSIONLESS,
}

#: Leading-quantity counter idiom -> unit.
PREFIX_UNITS: Dict[str, Unit] = {
    "bytes_": BYTES,
    "bits_": BYTES,
    "pkts_": PKTS,
    "packets_": PKTS,
}

#: Exact identifiers with a known unit: protocol constants plus the
#: handful of conventional spellings (``now`` is always the sim clock,
#: ``nbytes`` the pythonic byte count) that predate the suffix scheme.
CONSTANT_UNITS: Dict[str, Unit] = {
    "MSS": BYTES,
    "MTU": BYTES,
    "now": SECONDS,
    "nbytes": BYTES,
}

#: Curated API signatures: key -> ({param name: unit}, return unit).
#: ``None`` return means "no information" (not dimensionless!).
_SIG = Tuple[Dict[str, Unit], Optional[Unit]]

SIGNATURES: Dict[str, _SIG] = {
    # the virtual clock and event loop
    "now": ({}, SECONDS),
    "Clock.advance_to": ({"t": SECONDS}, None),
    "Clock.advance_by": ({"dt": SECONDS}, None),
    "call_in": ({"delay": SECONDS}, None),
    "call_at": ({"t": SECONDS, "when": SECONDS}, None),
    "Simulator.run": ({"until": SECONDS}, None),
    # links
    "Link.set_rate": ({"rate_bps": BPS}, None),
    "Link.set_delay": ({"delay_s": SECONDS}, None),
    # Eq. (3) machinery
    "tack_interval": ({"bw_bps": BPS, "rtt_min_s": SECONDS}, SECONDS),
    "tack_frequency": ({"bw_bps": BPS, "rtt_min_s": SECONDS}, HZ),
    "is_periodic_regime": ({"bdp_bytes": BYTES}, None),
    # profiler histogram buckets are wall-clock seconds
    "Profiler.observe": ({"elapsed_s": SECONDS}, None),
    # host wall clock (units still flow through host-side code)
    "time.time": ({}, SECONDS),
    "time.monotonic": ({}, SECONDS),
    "time.perf_counter": ({}, SECONDS),
}

#: Parameter/variable names that are deliberately unitless (`beta` is
#: the paper's ACKs-per-RTT; `seed` never enters arithmetic; `p` is a
#: percentile rank).
DIMENSIONLESS_NAMES = ("beta", "seed", "alpha", "gamma", "rho", "weight",
                       "scale", "jobs", "p")

#: Suffixes longest first, so ``_mbps`` wins over ``_bps`` and ``_s``.
_SUFFIXES_LONGEST_FIRST = sorted(SUFFIX_UNITS, key=len, reverse=True)


def name_unit(name: str) -> Optional[Unit]:
    """Declared unit of an identifier, or None when it says nothing."""
    if name in DIMENSIONLESS_NAMES:
        return DIMENSIONLESS
    if name in CONSTANT_UNITS:
        return CONSTANT_UNITS[name]
    for suffix in _SUFFIXES_LONGEST_FIRST:
        if name.endswith(suffix) and len(name) > len(suffix):
            return SUFFIX_UNITS[suffix]
    for prefix, unit in PREFIX_UNITS.items():
        if name.startswith(prefix) and len(name) > len(prefix):
            return unit
    return None


def signature(qualname: str) -> Optional[_SIG]:
    """Catalog signature for ``Class.method`` / bare ``name`` keys."""
    if qualname in SIGNATURES:
        return SIGNATURES[qualname]
    return SIGNATURES.get(qualname.rpartition(".")[2])
