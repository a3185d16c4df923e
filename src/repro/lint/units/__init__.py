"""unitcheck: inter-procedural unit/dimension dataflow analysis.

The simulator's correctness rests on dimensional math — Eq. (3) mixes
Hz, bytes/s, bytes, and seconds — and the tree-wide name-suffix
convention (``_s``, ``_bytes``, ``_bps``, ...) states every quantity's
unit.  This package turns that convention from documentation into an
enforced contract:

==========  ========================================================
REP101      mixed-unit arithmetic (``s + bytes``, ``min(s, pkts)``)
REP102      call-argument unit mismatch against the callee signature
REP103      return unit conflicts with the declared (suffix) unit
REP104      unit-suffixed name assigned a conflicting inferred unit
REP105      unsuffixed parameter flowing into unit-sensitive
            arithmetic in simulation scope
==========  ========================================================

Every ``python -m repro.lint`` run includes it; see DESIGN.md §14.
"""

from repro.lint.units.algebra import (
    BPS,
    BYTES,
    DIMENSIONLESS,
    HZ,
    PKTS,
    SECONDS,
    Unit,
)
from repro.lint.units.catalog import name_unit, signature
from repro.lint.units.checker import UNIT_RULE_SUMMARIES, analyze_units

__all__ = [
    "BPS",
    "BYTES",
    "DIMENSIONLESS",
    "HZ",
    "PKTS",
    "SECONDS",
    "UNIT_RULE_SUMMARIES",
    "Unit",
    "analyze_units",
    "name_unit",
    "signature",
]
