"""Fleet campaign planning and execution.

A campaign is ``schemes x shards_per_scheme`` independent shard
simulations (each a :class:`~repro.fleet.shard.ShardSpec`) run by the
one campaign driver, :class:`repro.runner.Campaign`, into its durable
record (:class:`repro.runner.manifest.Manifest`).  Shard seeds derive
from ``(campaign seed, shard name)`` via
:func:`repro.runner.task.derive_seed`, so results are independent of
worker scheduling and of how many times the campaign was interrupted
and resumed.

The campaign *fingerprint* — sha256 over the canonical JSON of the
config — names the exact experiment; the record refuses to mix
shards from different fingerprints.  Host-side execution knobs (job
count, shard cap per invocation) are deliberately **not** part of the
fingerprint: running with ``--jobs 1`` or ``--jobs 32`` is the same
experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.fleet.shard import ShardSpec, run_shard
from repro.fleet.workload import WorkloadConfig
from repro.runner.campaign import Campaign, CampaignResult
from repro.runner.manifest import canonical_json
from repro.runner.task import TaskResult, derive_seed

DEFAULT_SCHEMES = ("tcp-tack", "tcp-bbr", "tcp-bbr-perpacket")


@dataclass
class FleetConfig:
    """One fleet experiment: which schemes, how many shards, what load."""

    schemes: tuple = DEFAULT_SCHEMES
    shards_per_scheme: int = 4
    seed: int = 1
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    # per-shard AP parameters (see ShardSpec)
    rate_bps: float = 100e6
    uplink_rate_bps: float = 20e6
    rtt_s: float = 0.03
    drain_s: float = 10.0
    max_active: int = 2048
    phy: str = "802.11n"
    power: str = "wavelan"

    def __post_init__(self) -> None:
        self.schemes = tuple(self.schemes)
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if self.shards_per_scheme < 1:
            raise ValueError("shards_per_scheme must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        data = {f: getattr(self, f) for f in self.__dataclass_fields__}
        data["schemes"] = list(self.schemes)
        data["workload"] = self.workload.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetConfig":
        known = {k: v for k, v in data.items() if k in cls.__dataclass_fields__}
        known["workload"] = WorkloadConfig.from_dict(data.get("workload", {}))
        return cls(**known)

    def fingerprint(self) -> str:
        """Content address of the experiment (config, not host knobs)."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()

    def total_flows_expected(self) -> float:
        return (len(self.schemes) * self.shards_per_scheme
                * self.workload.mean_arrival_hz * self.workload.duration_s)


def plan_shards(config: FleetConfig) -> List[ShardSpec]:
    """Enumerate every shard of the campaign, in shard-id order.

    Shard ids interleave schemes (replica-major) so a truncated run
    (``--max-shards``) still covers every scheme rather than finishing
    one scheme before starting the next.
    """
    specs: List[ShardSpec] = []
    shard_id = 0
    for replica in range(config.shards_per_scheme):
        for scheme in config.schemes:
            name = f"fleet-{scheme}-r{replica:03d}"
            specs.append(ShardSpec(
                shard_id=shard_id,
                scheme=scheme,
                seed=derive_seed(config.seed, name),
                workload=config.workload,
                rate_bps=config.rate_bps,
                uplink_rate_bps=config.uplink_rate_bps,
                rtt_s=config.rtt_s,
                drain_s=config.drain_s,
                max_active=config.max_active,
                phy=config.phy,
                power=config.power,
            ))
            shard_id += 1
    return specs


def run_fleet(config: FleetConfig,
              manifest_path,
              jobs: int = 1,
              max_shards: Optional[int] = None,
              timeout_s: Optional[float] = None,
              simsan: Optional[bool] = None,
              on_result: Optional[Callable[[TaskResult], None]] = None,
              ) -> CampaignResult:
    """Run (or resume) a fleet campaign: one task per planned shard.

    Shards already in the record at *manifest_path* are replayed, not
    re-run; a record of another config raises
    :class:`~repro.runner.manifest.ManifestMismatch`.  ``max_shards``
    caps how many *new* shards this invocation runs — the CI smoke
    test uses it as a deterministic mid-campaign "kill" before
    exercising resume.
    """
    campaign = Campaign("fleet")
    for spec in plan_shards(config):
        campaign.add(spec.name, run_shard, seed=spec.seed,
                     spec=spec.to_dict(), simsan=simsan)
    return campaign.run(jobs, timeout=timeout_s, manifest_path=manifest_path,
                        fingerprint=config.fingerprint(),
                        config=config.to_dict(), max_tasks=max_shards,
                        on_result=on_result)
