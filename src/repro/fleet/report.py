"""Campaign aggregation and reporting.

Merges shard summaries out of a campaign's record into per-scheme aggregates.
Two rules make the result *reproducible across interruptions*:

* shards merge in **shard-id order**, never completion order, and
* every mergeable quantity is either an integer counter, an
  :class:`~repro.stats.streaming.ExactSum`, or a digest with exact
  merge semantics (:class:`~repro.stats.streaming.LogHistogram`,
  :class:`~repro.stats.streaming.BottomKReservoir`).

So the aggregate — and therefore :func:`aggregate_digest`, the sha256
over its canonical JSON — is a pure function of the *set* of shard
results, and a resumed campaign reproduces the uninterrupted run's
digest bit-for-bit.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Optional

from repro.diagnose import ALL_STATES as DIAG_STATES
from repro.energy import TOTAL_KEYS as ENERGY_TOTAL_KEYS
from repro.experiments.table import Table
from repro.fleet.campaign import FleetConfig, plan_shards
from repro.runner.manifest import Manifest, ManifestMismatch, canonical_json
from repro.stats.streaming import BottomKReservoir, ExactSum, LogHistogram

#: Integer energy counters folded across shards (plain int sums).
ENERGY_COUNT_KEYS = ("data_pkts", "ack_pkts", "feedback_bytes")


class SchemeAggregate:
    """Everything the campaign knows about one scheme, merged."""

    def __init__(self, scheme: str):
        self.scheme = scheme
        self.shards = 0
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_aborted = 0
        self.flows_guard_aborted = 0
        self.flows_unfinished = 0
        self.bytes_offered = 0
        self.bytes_delivered = 0
        self.data_packets = 0
        self.retransmissions = 0
        self.ack_packets = 0
        self.up_bytes = 0
        self.measure_s = ExactSum()
        self.ack_airtime_s = ExactSum()
        self.uplink_serialization_s = ExactSum()
        # energy ledger totals: ExactSum partials merge so the fold is
        # order-insensitive in value; shards lacking an "energy" block
        # (pre-ledger manifests) simply don't contribute.
        self.energy = {k: ExactSum() for k in ENERGY_TOTAL_KEYS}
        self.energy_counts = {k: 0 for k in ENERGY_COUNT_KEYS}
        self.energy_shards = 0
        # flow-doctor attribution: per-state time folds as ExactSum
        # partials (order-insensitive in value); shards predating the
        # doctor simply lack the "diagnosis" block and don't contribute.
        self.diag_state_time = {s: ExactSum() for s in DIAG_STATES}
        self.diag_state_bytes = {s: 0 for s in DIAG_STATES}
        self.diag_anomalies: Dict[str, int] = {}
        self.diag_flows = 0
        self.diag_shards = 0
        self.fct_hist: Optional[LogHistogram] = None
        self.goodput_hist: Optional[LogHistogram] = None
        self.samples: Optional[BottomKReservoir] = None

    def fold(self, shard: Dict[str, Any]) -> None:
        """Merge one shard summary (call in shard-id order)."""
        flows, by, pk = shard["flows"], shard["bytes"], shard["packets"]
        self.shards += 1
        self.flows_started += flows["started"]
        self.flows_completed += flows["completed"]
        self.flows_aborted += flows["aborted"]
        # .get(): shard summaries predating the feedback guard carry
        # no guard_aborted count and contribute zero.
        self.flows_guard_aborted += flows.get("guard_aborted", 0)
        self.flows_unfinished += flows["unfinished"]
        self.bytes_offered += by["offered"]
        self.bytes_delivered += by["delivered"]
        self.data_packets += pk["data"]
        self.retransmissions += pk["retransmissions"]
        self.ack_packets += pk["acks"]
        self.up_bytes += shard["links"]["up_delivered_bytes"]
        self.measure_s.add(shard["elapsed_s"])
        self.ack_airtime_s.add(shard["airtime"]["ack_airtime_s"])
        self.uplink_serialization_s.add(
            shard["airtime"]["uplink_serialization_s"])
        energy = shard.get("energy")
        if energy is not None:
            self.energy_shards += 1
            partials = energy.get("partials", {})
            for key in ENERGY_TOTAL_KEYS:
                part = partials.get(key)
                if part is not None:
                    self.energy[key].merge(ExactSum(part["partials"]))
                else:
                    self.energy[key].add(energy.get(key, 0.0))
            for key in ENERGY_COUNT_KEYS:
                self.energy_counts[key] += energy.get(key, 0)
        diagnosis = shard.get("diagnosis")
        if diagnosis is not None:
            self.diag_shards += 1
            self.diag_flows += diagnosis.get("flows", 0)
            partials = diagnosis.get("state_time_partials", {})
            for state in DIAG_STATES:
                part = partials.get(state)
                if part is not None:
                    self.diag_state_time[state].merge(ExactSum(part))
                self.diag_state_bytes[state] += \
                    diagnosis.get("state_bytes", {}).get(state, 0)
            for kind, count in diagnosis.get("anomalies", {}).items():
                self.diag_anomalies[kind] = (
                    self.diag_anomalies.get(kind, 0) + count)
        digests = shard["digests"]
        fct = LogHistogram.from_dict(digests["fct_s"])
        goodput = LogHistogram.from_dict(digests["flow_goodput_bps"])
        samples = BottomKReservoir.from_dict(digests["samples"])
        if self.fct_hist is None:
            self.fct_hist, self.goodput_hist, self.samples = fct, goodput, samples
        else:
            self.fct_hist.merge(fct)
            self.goodput_hist.merge(goodput)
            self.samples.merge(samples)

    # ------------------------------------------------------------------
    def goodput_bps(self) -> float:
        """Aggregate goodput per AP: delivered bits over measured time."""
        t = self.measure_s.value()
        return self.bytes_delivered * 8.0 * self.shards / t if t > 0 else 0.0

    def ack_per_data(self) -> float:
        return self.ack_packets / self.data_packets if self.data_packets else 0.0

    def ack_airtime_share(self) -> float:
        """Fraction of measured airtime spent on uplink ACK exchanges."""
        t = self.measure_s.value()
        return self.ack_airtime_s.value() / t if t > 0 else 0.0

    def ack_energy_j(self) -> float:
        """Total joules spent on ACK-like packets (ledger-exact)."""
        return self.energy["ack_energy_j"].value()

    def energy_ack_airtime_share(self) -> float:
        """ACK share of busy airtime as billed by the energy ledger."""
        ack = self.energy["ack_airtime_s"].value()
        busy = ack + self.energy["data_airtime_s"].value()
        return ack / busy if busy > 0 else 0.0

    def state_time_fractions(self) -> Dict[str, float]:
        """Fraction of diagnosed flow-lifetime spent in each state."""
        totals = {s: self.diag_state_time[s].value() for s in DIAG_STATES}
        whole = sum(totals.values())
        if whole <= 0:
            return {}
        return {s: totals[s] / whole for s in DIAG_STATES if totals[s] > 0}

    def top_state(self) -> Optional[str]:
        """Dominant send-limit state across the scheme's flows, by time
        (excluding the post-completion ``closing`` tail)."""
        fractions = {s: f for s, f in self.state_time_fractions().items()
                     if s != "closing"}
        if not fractions:
            return None
        return max(fractions, key=lambda s: (fractions[s], s))

    def fct_quantile_s(self, pct: float) -> Optional[float]:
        if self.fct_hist is None or self.fct_hist.count == 0:
            return None
        return self.fct_hist.quantile(pct)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "shards": self.shards,
            "flows": {
                "started": self.flows_started,
                "completed": self.flows_completed,
                "aborted": self.flows_aborted,
                "guard_aborted": self.flows_guard_aborted,
                "unfinished": self.flows_unfinished,
            },
            "bytes": {
                "offered": self.bytes_offered,
                "delivered": self.bytes_delivered,
            },
            "packets": {
                "data": self.data_packets,
                "retransmissions": self.retransmissions,
                "acks": self.ack_packets,
            },
            "uplink_bytes": self.up_bytes,
            "measure_s_partials": list(self.measure_s._partials),
            "ack_airtime_s_partials": list(self.ack_airtime_s._partials),
            "uplink_serialization_s_partials":
                list(self.uplink_serialization_s._partials),
            "energy": {
                "shards": self.energy_shards,
                "partials": {k: list(self.energy[k]._partials)
                             for k in ENERGY_TOTAL_KEYS},
                "counts": dict(self.energy_counts),
            },
            "diagnosis": {
                "shards": self.diag_shards,
                "flows": self.diag_flows,
                "state_time_partials": {
                    s: list(self.diag_state_time[s]._partials)
                    for s in DIAG_STATES},
                "state_bytes": dict(self.diag_state_bytes),
                "anomalies": {k: self.diag_anomalies[k]
                              for k in sorted(self.diag_anomalies)},
            },
            "fct_s": self.fct_hist.to_dict() if self.fct_hist else None,
            "flow_goodput_bps":
                self.goodput_hist.to_dict() if self.goodput_hist else None,
            "samples": self.samples.to_dict() if self.samples else None,
        }


def aggregate(shards: Iterable[Dict[str, Any]]) -> Dict[str, SchemeAggregate]:
    """Fold shard summaries into per-scheme aggregates, shard-id order."""
    by_scheme: Dict[str, SchemeAggregate] = {}
    for shard in sorted(shards, key=lambda s: s["shard_id"]):
        agg = by_scheme.setdefault(shard["scheme"],
                                   SchemeAggregate(shard["scheme"]))
        agg.fold(shard)
    return by_scheme


def aggregate_digest(by_scheme: Dict[str, SchemeAggregate]) -> str:
    """Content hash of the merged campaign state.

    Equal digests mean equal aggregates down to the last float — the
    resume-correctness check in CI compares this between an
    interrupted-and-resumed campaign and an uninterrupted one.
    """
    payload = {name: agg.to_dict() for name, agg in sorted(by_scheme.items())}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# manifest-level entry points
# ----------------------------------------------------------------------

def load_campaign(manifest_path):
    """Read a campaign's record back: ``(config, {shard_id: summary})``."""
    header, tasks = Manifest(manifest_path).load()
    if header is None or header.get("campaign") != "fleet":
        raise ManifestMismatch(f"{manifest_path}: no fleet campaign header")
    shards = {t["value"]["shard_id"]: t["value"] for t in tasks.values()}
    return FleetConfig.from_dict(header["config"]), shards


def campaign_report(manifest_path) -> Dict[str, Any]:
    """Aggregate a manifest into the report payload the CLI renders."""
    config, shards = load_campaign(manifest_path)
    planned = plan_shards(config)
    missing = [s.shard_id for s in planned if s.shard_id not in shards]
    by_scheme = aggregate(shards.values())
    schemes = []
    for name in config.schemes:
        agg = by_scheme.get(name)
        if agg is None:
            continue
        schemes.append({
            "scheme": name,
            "shards": agg.shards,
            "flows_completed": agg.flows_completed,
            "flows_started": agg.flows_started,
            "flows_aborted": agg.flows_aborted,
            "flows_guard_aborted": agg.flows_guard_aborted,
            "goodput_mbps": agg.goodput_bps() / 1e6,
            "fct_p50_s": agg.fct_quantile_s(50),
            "fct_p95_s": agg.fct_quantile_s(95),
            "fct_p99_s": agg.fct_quantile_s(99),
            "ack_per_data": agg.ack_per_data(),
            "ack_airtime_share": agg.ack_airtime_share(),
            "ack_energy_j": agg.ack_energy_j(),
            "energy_ack_airtime_share": agg.energy_ack_airtime_share(),
            "top_state": agg.top_state(),
            "state_time_frac": agg.state_time_fractions(),
            "anomalies": {k: agg.diag_anomalies[k]
                          for k in sorted(agg.diag_anomalies)},
        })
    return {
        "fingerprint": config.fingerprint(),
        "config": config.to_dict(),
        "planned_shards": len(planned),
        "completed_shards": len(shards),
        "missing_shards": missing,
        "aggregate_digest": aggregate_digest(by_scheme),
        "schemes": schemes,
    }


def report_table(report: Dict[str, Any]) -> Table:
    """Render a campaign report as the repo's standard table."""
    table = Table(
        title="Fleet campaign: TACK vs ACK schemes under churn",
        columns=["scheme", "shards", "flows", "goodput_mbps",
                 "fct_p50_ms", "fct_p99_ms", "ack_per_data",
                 "ack_airtime_%", "ack_energy_j", "ack_airtime_share",
                 "guard_aborts", "top_state"],
        note=(f"digest {report['aggregate_digest'][:16]} | "
              f"{report['completed_shards']}/{report['planned_shards']} "
              "shards | airtime % is uplink ACK DCF exchanges per "
              "measured second; ack_energy_j / ack_airtime_share come "
              "from the per-flow radio energy ledger; top_state is the "
              "flow doctor's dominant send-limit state by time; "
              "guard_aborts counts flows the feedback guard ended "
              "with misbehaving_peer"),
    )
    for row in report["schemes"]:
        table.add_row(
            scheme=row["scheme"],
            shards=row["shards"],
            flows=row["flows_completed"],
            goodput_mbps=row["goodput_mbps"],
            fct_p50_ms=(row["fct_p50_s"] * 1e3
                        if row["fct_p50_s"] is not None else None),
            fct_p99_ms=(row["fct_p99_s"] * 1e3
                        if row["fct_p99_s"] is not None else None),
            ack_per_data=row["ack_per_data"],
            ack_energy_j=row["ack_energy_j"],
            ack_airtime_share=row["energy_ack_airtime_share"],
            guard_aborts=row.get("flows_guard_aborted", 0),
            top_state=row.get("top_state"),
            **{"ack_airtime_%": row["ack_airtime_share"] * 100.0},
        )
    return table
