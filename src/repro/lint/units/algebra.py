"""The unit algebra: dimensions, products/quotients, compatibility.

A :class:`Unit` is a product of integer powers of base dimensions::

    s        {time: 1}
    bytes    {data: 1}
    pkts     {pkt: 1}
    bps      {data: 1, time: -1}     (a data rate)
    hz       {time: -1}              (1/s — identical to a frequency)
    1        {}                       (dimensionless: fractions, gains)

Only *dimensions* are modeled, not scales: ``_ms`` and ``_s`` share the
time dimension (a factor-1000 slip is invisible to dimensional
analysis, exactly as a factor-8 bits/bytes slip is — both collapse
into the ``data`` dimension).  What the algebra *does* catch is the
class of bug that silently skews figures: seconds added to bytes,
a packet count compared against a rate, ``min()`` over mixed clocks.

The algebra is total: every operation returns a unit (quotients
simplify by exponent arithmetic, so ``bytes/s ≡ bps`` and
``s * hz ≡ 1`` fall out for free).  *Compatibility* (may two units
meet under ``+``/``-``/comparison?) is the only partial judgment, and
it is what the checker's REP101 reports on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Base dimension symbols.  ``data`` deliberately covers both bits and
#: bytes (scale, not dimension); ``db`` is its own log-domain axis so
#: decibels never silently mix with linear quantities.
DIM_TIME = "time"
DIM_DATA = "data"
DIM_PKT = "pkt"
DIM_DB = "db"


@dataclass(frozen=True)
class Unit:
    """An immutable product of base-dimension powers."""

    dims: Tuple[Tuple[str, int], ...] = ()

    # ------------------------------------------------------------------
    @staticmethod
    def make(mapping: Dict[str, int]) -> "Unit":
        """Canonical unit from a dim -> exponent mapping (zeros drop)."""
        return Unit(tuple(sorted((d, e) for d, e in mapping.items() if e)))

    def as_dict(self) -> Dict[str, int]:
        return dict(self.dims)

    # ------------------------------------------------------------------
    @property
    def is_dimensionless(self) -> bool:
        return not self.dims

    def mul(self, other: "Unit") -> "Unit":
        merged = self.as_dict()
        for dim, exp in other.dims:
            merged[dim] = merged.get(dim, 0) + exp
        return Unit.make(merged)

    def div(self, other: "Unit") -> "Unit":
        return self.mul(other.invert())

    def invert(self) -> "Unit":
        return Unit(tuple((d, -e) for d, e in self.dims))

    def pow(self, exponent: int) -> "Unit":
        return Unit.make({d: e * exponent for d, e in self.dims})

    def compatible(self, other: "Unit") -> bool:
        """May the two meet under addition/subtraction/comparison?"""
        return self.dims == other.dims

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        name = _DERIVED_NAMES.get(self.dims)
        if name is not None:
            return name
        num = [_dim_label(d, e) for d, e in self.dims if e > 0]
        den = [_dim_label(d, -e) for d, e in self.dims if e < 0]
        if not num and not den:
            return "dimensionless"
        head = "*".join(num) if num else "1"
        return head + ("/" + "*".join(den) if den else "")

    def __repr__(self) -> str:
        return f"Unit({self})"


def _dim_label(dim: str, exp: int) -> str:
    base = {DIM_TIME: "s", DIM_DATA: "bytes", DIM_PKT: "pkts",
            DIM_DB: "db"}[dim]
    return base if exp == 1 else f"{base}^{exp}"


# ----------------------------------------------------------------------
# the named units
# ----------------------------------------------------------------------

DIMENSIONLESS = Unit.make({})
SECONDS = Unit.make({DIM_TIME: 1})
BYTES = Unit.make({DIM_DATA: 1})
PKTS = Unit.make({DIM_PKT: 1})
DB = Unit.make({DIM_DB: 1})
HZ = Unit.make({DIM_TIME: -1})           # 1/s — exactly a frequency
BPS = Unit.make({DIM_DATA: 1, DIM_TIME: -1})
PPS = Unit.make({DIM_PKT: 1, DIM_TIME: -1})

#: Preferred display names for the named dim-vectors.
_DERIVED_NAMES: Dict[Tuple[Tuple[str, int], ...], str] = {
    HZ.dims: "hz",
    BPS.dims: "bps",
    PPS.dims: "pps",
    SECONDS.dims: "s",
    BYTES.dims: "bytes",
    PKTS.dims: "pkts",
    DB.dims: "db",
}

