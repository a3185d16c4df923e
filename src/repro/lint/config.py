"""reprolint configuration.

Defaults are tuned for this repository; projects override them from a
``[tool.reprolint]`` table in ``pyproject.toml``.  The split matters
for REP001/REP002: *simulation* code must never touch the wall clock
or ambient RNG state, while *host-side* orchestration (the campaign
runner, the ``run_all`` driver) legitimately measures wall time — the
``exempt`` globs carve those files out.
"""

from __future__ import annotations

import fnmatch
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.units.catalog import UnitsConfig, load_units_table

#: Globs (matched against ``/``-normalized paths) excluded from the
#: determinism rules REP001-REP003.  REP005 still applies: a mutable
#: default argument is a bug in host code too.
DEFAULT_EXEMPT = (
    "*/repro/runner/*",
    "*/repro/experiments/run_all.py",
    "*/repro/lint/*",
    "*/repro/telemetry/cli.py",
    "*/repro/telemetry/__main__.py",
    "*/repro/profile/*",
    # fleet host plumbing: campaign orchestration, durable manifest
    # I/O, aggregation, CLI.  The *generators* (workload.py, shard.py)
    # are NOT here — they are simulation code and stay under the
    # determinism rules.
    "*/repro/fleet/cli.py",
    "*/repro/fleet/__main__.py",
    "*/repro/fleet/campaign.py",
    "*/repro/fleet/manifest.py",
    "*/repro/fleet/report.py",
)

#: Packages whose ``__init__`` constructors fall under the REP004
#: unit-suffix discipline (plus every function in ``core/params.py``).
DEFAULT_REP004_PACKAGES = (
    "netsim",
    "transport",
    "ack",
    "cc",
    "core",
    "wlan",
    "energy",
)

#: Suffixes that state a unit (or an explicit dimensionless kind).
DEFAULT_UNIT_SUFFIXES = (
    "_s",
    "_ms",
    "_us",
    "_ts",
    "_bytes",
    "_bits",
    "_bps",
    "_pps",
    "_mbps",
    "_hz",
    "_pkts",
    "_rtts",
    "_gain",
    "_factor",
    "_fraction",
    "_frac",
    "_ratio",
    "_rate",
    "_loss",
    "_pct",
    "_db",
    "_w",
    "_j",
)

#: Parameter names that are genuinely dimensionless or contextual and
#: therefore carry no suffix (``beta`` is the paper's ACKs-per-RTT).
DEFAULT_ALLOW_NAMES = ("seed", "default")

#: Identifier suffixes/names treated as clock readings by REP003.
DEFAULT_TIME_NAMES = ("now", "time", "deadline", "t")
DEFAULT_TIME_SUFFIXES = ("_s", "_ms", "_us", "_ts", "_time", "_at", "_ns")

#: Basenames under ``repro/telemetry/`` that run host-side (REP006
#: lets them read the wall clock for file naming / progress display).
DEFAULT_TELEMETRY_HOST_FILES = ("cli.py", "__main__.py", "convert.py")

#: Simulation-side packages covered by REP007 (profiler isolation) and
#: REP008 (no hard-coded RNG seeds): they may hold the null-guard
#: profiler hook but must not import ``repro.profile``, touch a
#: profiler reference unguarded, or bake a literal seed into an RNG.
DEFAULT_SIM_PACKAGES = (
    "netsim",
    "transport",
    "ack",
    "cc",
    "core",
    "wlan",
    "chaos",
    "fleet",
    "energy",
    "diagnose",
    "adversary",
)

#: Globs carved *out* of the sim scope: host-side files living inside
#: a sim package.  ``repro.fleet`` is the motivating case — its
#: workload/shard generators are simulation code (REP007/REP008 apply)
#: while the campaign runner, manifest writer, aggregator, and CLI in
#: the same package are host orchestration.
DEFAULT_SIM_EXEMPT = (
    "*/repro/fleet/cli.py",
    "*/repro/fleet/__main__.py",
    "*/repro/fleet/campaign.py",
    "*/repro/fleet/manifest.py",
    "*/repro/fleet/report.py",
    # diagnose: the engine and the live doctor are simulation-side;
    # the trace replayer, explainer, and CLI are host tooling.
    "*/repro/diagnose/cli.py",
    "*/repro/diagnose/__main__.py",
    "*/repro/diagnose/offline.py",
    "*/repro/diagnose/explain.py",
    # adversary: the models and the fuzzer run inside the event loop;
    # the corpus CLI is host tooling.
    "*/repro/adversary/cli.py",
    "*/repro/adversary/__main__.py",
)


#: Globs of files skipped by *every* rule — intentionally-broken lint
#: fixtures must not fail the tree-wide run.
DEFAULT_EXCLUDE = ("*/tests/fixtures/*",)


@dataclass
class LintConfig:
    """Effective rule configuration for one lint run."""

    exclude: Sequence[str] = DEFAULT_EXCLUDE
    exempt: Sequence[str] = DEFAULT_EXEMPT
    rep004_packages: Sequence[str] = DEFAULT_REP004_PACKAGES
    unit_suffixes: Sequence[str] = DEFAULT_UNIT_SUFFIXES
    allow_names: Sequence[str] = DEFAULT_ALLOW_NAMES
    time_names: Sequence[str] = DEFAULT_TIME_NAMES
    time_suffixes: Sequence[str] = DEFAULT_TIME_SUFFIXES
    telemetry_host_files: Sequence[str] = DEFAULT_TELEMETRY_HOST_FILES
    sim_packages: Sequence[str] = DEFAULT_SIM_PACKAGES
    sim_exempt: Sequence[str] = DEFAULT_SIM_EXEMPT
    disabled_rules: Sequence[str] = field(default_factory=tuple)
    #: unitcheck (REP101-REP105) configuration; see
    #: :mod:`repro.lint.units.catalog` and ``[tool.reprolint.units]``.
    units: UnitsConfig = field(default_factory=UnitsConfig)

    # ------------------------------------------------------------------
    def is_excluded(self, path: str) -> bool:
        """True when *path* is skipped by every rule (lint fixtures)."""
        # Leading "/" so "*/tests/fixtures/*" also matches paths given
        # relative to the repo root ("tests/fixtures/...").
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(fnmatch.fnmatch(norm, pat) for pat in self.exclude)

    def is_exempt(self, path: str) -> bool:
        """True when *path* is host-side code outside REP001-REP003."""
        norm = path.replace("\\", "/")
        return any(fnmatch.fnmatch(norm, pat) for pat in self.exempt)

    def in_rep004_scope(self, path: str) -> bool:
        """True when *path* holds simulator constructors (REP004)."""
        norm = path.replace("\\", "/")
        if norm.endswith("/core/params.py") or norm.endswith("core/params.py"):
            return True
        return any(f"/repro/{pkg}/" in norm for pkg in self.rep004_packages)

    def is_params_file(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        return norm.endswith("core/params.py")

    def in_sim_scope(self, path: str) -> bool:
        """True when *path* is simulation-side code (REP007/REP008).

        A file is in scope when it lives under a sim package and does
        not match a ``sim_exempt`` glob (host-side plumbing that ships
        inside a sim package, like the fleet campaign CLI).
        """
        norm = path.replace("\\", "/")
        if not any(f"/repro/{pkg}/" in norm for pkg in self.sim_packages):
            return False
        return not any(fnmatch.fnmatch(norm, pat) for pat in self.sim_exempt)

    def has_unit_suffix(self, name: str) -> bool:
        return (
            name in self.allow_names
            or any(name.endswith(sfx) for sfx in self.unit_suffixes)
        )

    def is_time_name(self, name: str) -> bool:
        lowered = name.lower()
        return (
            lowered in self.time_names
            or any(lowered.endswith(sfx) for sfx in self.time_suffixes)
        )


def _load_toml(path: Path) -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:  # pragma: no cover - py<3.11 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return {}
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def find_pyproject(start: Optional[Path] = None) -> Optional[Path]:
    """Walk upward from *start* looking for a ``pyproject.toml``."""
    node = (start or Path.cwd()).resolve()
    if node.is_file():
        node = node.parent
    for candidate in (node, *node.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig`, merging ``[tool.reprolint]`` overrides.

    List-valued keys *replace* the defaults except ``extend-exempt`` /
    ``extend-allow-names``, which append — the common case is adding a
    few repo-specific entries, not re-stating the whole default table.
    """
    config = LintConfig()
    if pyproject is None or not pyproject.is_file():
        return config
    table = _load_toml(pyproject).get("tool", {}).get("reprolint", {})
    if not isinstance(table, dict):
        return config

    def seq(key: str, current: Sequence[str]) -> Sequence[str]:
        value = table.get(key)
        if isinstance(value, list):
            return tuple(str(v) for v in value)
        return current

    config.exclude = seq("exclude", config.exclude)
    config.exempt = seq("exempt", config.exempt)
    config.rep004_packages = seq("rep004-packages", config.rep004_packages)
    config.unit_suffixes = seq("unit-suffixes", config.unit_suffixes)
    config.allow_names = seq("allow-names", config.allow_names)
    config.telemetry_host_files = seq("telemetry-host-files",
                                      config.telemetry_host_files)
    config.sim_packages = seq("sim-packages", config.sim_packages)
    config.sim_exempt = seq("sim-exempt", config.sim_exempt)
    config.disabled_rules = seq("disable", config.disabled_rules)
    units_table = table.get("units")
    if isinstance(units_table, dict):
        config.units = load_units_table(units_table)
    for key, attr in (("extend-exempt", "exempt"),
                      ("extend-allow-names", "allow_names"),
                      ("extend-sim-exempt", "sim_exempt")):
        extra = table.get(key)
        if isinstance(extra, list):
            setattr(config, attr,
                    tuple(getattr(config, attr)) + tuple(str(v) for v in extra))
    return config
