"""Fleet-scale edge simulation: workload generation, sharded campaigns
with streaming aggregation, resumable through the runner's record.

See DESIGN.md section 13 and ``python -m repro.fleet --help``.
"""

from repro.fleet.workload import FlowSpec, WorkloadConfig, generate_flows
from repro.fleet.shard import ShardSpec, run_shard
from repro.fleet.campaign import FleetConfig, plan_shards, run_fleet
from repro.fleet.report import aggregate, aggregate_digest, campaign_report

__all__ = [
    "FleetConfig",
    "FlowSpec",
    "ShardSpec",
    "WorkloadConfig",
    "aggregate",
    "aggregate_digest",
    "campaign_report",
    "generate_flows",
    "plan_shards",
    "run_fleet",
    "run_shard",
]
