"""reprolint: determinism + unit/dimension lint for the TACK reproduction.

Repo-specific static analysis that keeps the simulator replayable and
dimensionally sound:

==========  =====================================================
REP001      no wall-clock reads in simulation code (sim-side
            telemetry included; REP006 is folded in and reserved)
REP002      no ambient/unseeded RNG in simulation code
REP003      no float ``==``/``!=`` on clock values
REP004      unit-suffix discipline for numeric parameters
REP005      no mutable default arguments
REP007      profiler isolation in simulation code
REP008      no hard-coded RNG seeds in simulation code
REP009      unused ``reprolint`` pragma (``--report-unused-pragmas``)
REP101-105  unit/dimension dataflow analysis; see
            :mod:`repro.lint.units`
==========  =====================================================

Run ``python -m repro.lint src tests benchmarks examples`` (or the
``reprolint`` entry point): one run checks every rule.  Suppress
individual findings with ``# reprolint: disable=REPxxx``.  Which files
are host-side, simulation-side or strict is stated once, as constants
in :mod:`repro.lint.config`; nothing is read from ``pyproject.toml``.
"""

from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.rules import RULES, RULE_SUMMARIES
from repro.lint.units import UNIT_RULE_SUMMARIES, analyze_units

__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "RULE_SUMMARIES",
    "UNIT_RULE_SUMMARIES",
    "analyze_units",
    "lint_paths",
    "lint_source",
]
