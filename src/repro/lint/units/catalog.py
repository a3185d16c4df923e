"""The unit catalog: how names map to units.

Three layers, each overridable from ``[tool.reprolint.units]``:

1. **Suffixes** — the tree-wide naming convention from PR 2
   (``rtt_s``, ``queue_bytes``, ``rate_bps``, ``alpha_pkts``).  The
   suffix is a *declaration*: the checker trusts it as the variable's
   unit and reports values of a conflicting inferred unit (REP104).
2. **Prefixes** — counter idiom (``bytes_delivered``,
   ``packets_lost``): the quantity leads instead of trailing.
3. **Signatures** — a curated table of APIs whose parameter/return
   units the names alone don't state (``sim.now() -> s``,
   ``Clock.advance_to(t: s)``, ``serialization_delay(...) -> s``).
   Entries are keyed ``Class.method`` or bare ``function``; bare keys
   also match method calls through *any* receiver, which is what makes
   ``self.sim.now()`` resolvable without whole-program type inference.

The catalog is deliberately small: inference does the heavy lifting,
the catalog only seeds the places the convention cannot reach.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

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
    UnitError,
    parse_unit,
)

#: Name suffix -> unit.  Mirrors ``DEFAULT_UNIT_SUFFIXES`` in
#: :mod:`repro.lint.config`; every REP004-recognized suffix must appear
#: here so the two rule families agree on what counts as "declared".
DEFAULT_SUFFIX_UNITS: Dict[str, Unit] = {
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
DEFAULT_PREFIX_UNITS: Dict[str, Unit] = {
    "bytes_": BYTES,
    "bits_": BYTES,
    "pkts_": PKTS,
    "packets_": PKTS,
}

#: Exact identifiers with a known unit: protocol constants plus the
#: handful of conventional spellings (``now`` is always the sim clock,
#: ``nbytes`` the pythonic byte count) that predate the suffix scheme.
DEFAULT_CONSTANT_UNITS: Dict[str, Unit] = {
    "MSS": BYTES,
    "MTU": BYTES,
    "now": SECONDS,
    "nbytes": BYTES,
}

#: Curated API signatures: key -> ({param name: unit}, return unit).
#: ``None`` return means "no information" (not dimensionless!).
_SIG = Tuple[Dict[str, Unit], Optional[Unit]]

DEFAULT_SIGNATURES: Dict[str, _SIG] = {
    # the virtual clock and event loop
    "now": ({}, SECONDS),
    "Clock.advance_to": ({"t": SECONDS}, None),
    "Clock.advance_by": ({"dt": SECONDS}, None),
    "call_in": ({"delay": SECONDS}, None),
    "call_at": ({"t": SECONDS, "when": SECONDS}, None),
    "Simulator.run": ({"until": SECONDS}, None),
    # links
    "serialization_delay": ({"size_bytes": BYTES}, SECONDS),
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
#: the paper's ACKs-per-RTT; `seed` never enters arithmetic).
DEFAULT_DIMENSIONLESS_NAMES = ("beta", "seed", "alpha", "gamma", "rho",
                               "weight", "scale", "jobs")

#: Globs (on ``/``-normalized paths) where REP105 applies: simulation
#: code whose arithmetic must be unit-attributable.  Host-side
#: orchestration is exempt from the strict rule but still gets
#: REP101-REP104.
DEFAULT_STRICT_PATHS = (
    "*/repro/netsim/*",
    "*/repro/transport/*",
    "*/repro/ack/*",
    "*/repro/cc/*",
    "*/repro/core/*",
    "*/repro/wlan/*",
)


@dataclass
class UnitsConfig:
    """Effective unitcheck configuration for one run."""

    suffix_units: Mapping[str, Unit] = field(
        default_factory=lambda: dict(DEFAULT_SUFFIX_UNITS))
    prefix_units: Mapping[str, Unit] = field(
        default_factory=lambda: dict(DEFAULT_PREFIX_UNITS))
    constant_units: Mapping[str, Unit] = field(
        default_factory=lambda: dict(DEFAULT_CONSTANT_UNITS))
    signatures: Mapping[str, _SIG] = field(
        default_factory=lambda: dict(DEFAULT_SIGNATURES))
    dimensionless_names: Sequence[str] = DEFAULT_DIMENSIONLESS_NAMES
    strict_paths: Sequence[str] = DEFAULT_STRICT_PATHS
    disabled: Sequence[str] = ()

    # ------------------------------------------------------------------
    def name_unit(self, name: str) -> Optional[Unit]:
        """Declared unit of an identifier, or None when it says nothing."""
        if name in self.dimensionless_names:
            return DIMENSIONLESS
        if name in self.constant_units:
            return self.constant_units[name]
        for suffix in sorted(self.suffix_units, key=len, reverse=True):
            if name.endswith(suffix) and len(name) > len(suffix):
                return self.suffix_units[suffix]
        for prefix, unit in self.prefix_units.items():
            if name.startswith(prefix) and len(name) > len(prefix):
                return unit
        return None

    def has_declared_unit(self, name: str) -> bool:
        return self.name_unit(name) is not None

    def signature(self, qualname: str) -> Optional[_SIG]:
        """Catalog signature for ``Class.method`` / bare ``name`` keys."""
        if qualname in self.signatures:
            return self.signatures[qualname]
        leaf = qualname.rpartition(".")[2]
        return self.signatures.get(leaf)

    def in_strict_scope(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        return any(fnmatch.fnmatch(norm, pat) for pat in self.strict_paths)


def _parse_sig_table(table: Mapping) -> Dict[str, _SIG]:
    """``[tool.reprolint.units.signatures]`` -> signature entries.

    TOML shape (``returns`` optional, empty string = dimensionless)::

        [tool.reprolint.units.signatures."Link.set_rate"]
        params = { rate_bps = "bps" }
        returns = ""
    """
    out: Dict[str, _SIG] = {}
    for key, spec in table.items():
        if not isinstance(spec, Mapping):
            raise UnitError(f"signature {key!r} must be a table, "
                            f"got {type(spec).__name__}")
        params = {str(p): parse_unit(str(u))
                  for p, u in dict(spec.get("params", {})).items()}
        ret_raw = spec.get("returns")
        returns = None
        if ret_raw is not None:
            returns = (DIMENSIONLESS if str(ret_raw) == ""
                       else parse_unit(str(ret_raw)))
        out[str(key)] = (params, returns)
    return out


def load_units_table(table: Mapping) -> UnitsConfig:
    """Build a :class:`UnitsConfig` from a ``[tool.reprolint.units]``
    table (raises :class:`UnitError` on bad unit spellings)."""
    config = UnitsConfig()
    if not isinstance(table, Mapping):
        return config

    suffixes = table.get("suffixes")
    if isinstance(suffixes, Mapping):
        merged = dict(config.suffix_units)
        merged.update({str(k): parse_unit(str(v))
                       for k, v in suffixes.items()})
        config.suffix_units = merged
    constants = table.get("constants")
    if isinstance(constants, Mapping):
        merged = dict(config.constant_units)
        merged.update({str(k): parse_unit(str(v))
                       for k, v in constants.items()})
        config.constant_units = merged
    signatures = table.get("signatures")
    if isinstance(signatures, Mapping):
        merged_sigs = dict(config.signatures)
        merged_sigs.update(_parse_sig_table(signatures))
        config.signatures = merged_sigs
    names = table.get("dimensionless-names")
    if isinstance(names, list):
        config.dimensionless_names = tuple(str(v) for v in names)
    extend_names = table.get("extend-dimensionless-names")
    if isinstance(extend_names, list):
        config.dimensionless_names = tuple(config.dimensionless_names) + \
            tuple(str(v) for v in extend_names)
    strict = table.get("strict-paths")
    if isinstance(strict, list):
        config.strict_paths = tuple(str(v) for v in strict)
    disabled = table.get("disable")
    if isinstance(disabled, list):
        config.disabled = tuple(str(v) for v in disabled)
    return config
