"""reprolint: determinism lint for the TACK reproduction.

Repo-specific static analysis that keeps the simulator replayable:

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
==========  =====================================================

Run ``python -m repro.lint src tests benchmarks examples`` (or the
``reprolint`` entry point): one run checks every rule.  Suppress
individual findings with ``# reprolint: disable=REPxxx``.  Which files
are host-side or simulation-side is stated once, as constants in
:mod:`repro.lint.config`; nothing is read from ``pyproject.toml``.
"""

from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.rules import RULES, RULE_SUMMARIES

__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "RULE_SUMMARIES",
    "lint_paths",
    "lint_source",
]
