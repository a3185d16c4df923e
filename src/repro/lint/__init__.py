"""reprolint: determinism + unit/dimension lint for the TACK reproduction.

Repo-specific static analysis that keeps the simulator replayable and
dimensionally sound:

==========  =====================================================
REP001      no wall-clock reads in simulation code
REP002      no ambient/unseeded RNG in simulation code
REP003      no float ``==``/``!=`` on clock values
REP004      unit-suffix discipline for numeric parameters
REP005      no mutable default arguments
REP006      sim-side telemetry stamps events from the sim clock
REP007      profiler isolation in simulation code
REP008      no hard-coded RNG seeds in simulation code
REP009      unused ``reprolint`` pragma (``--report-unused-pragmas``)
REP101-105  unit/dimension dataflow analysis (``--units``); see
            :mod:`repro.lint.units`
==========  =====================================================

Run ``python -m repro.lint src/`` (or the ``reprolint`` entry point);
``--units`` adds the inter-procedural unit checker.  Suppress
individual findings with ``# reprolint: disable=REPxxx``.
Configuration lives in ``[tool.reprolint]`` / ``[tool.reprolint.units]``
in ``pyproject.toml``.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_file, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.rules import RULES, RULE_SUMMARIES
from repro.lint.units import UNIT_RULE_SUMMARIES, UnitsConfig, analyze_units

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "RULES",
    "RULE_SUMMARIES",
    "UNIT_RULE_SUMMARIES",
    "UnitsConfig",
    "analyze_units",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_config",
]
