"""Parallel experiment-campaign runner.

Orchestrates batches of independent, seed-driven experiments over a
process pool with per-task timeout + bounded retry, graceful
degradation on failure, and one durable record of finished tasks (a
crash-safe JSONL log) that a re-run replays.  See DESIGN.md section 8
for the architecture.

Typical use::

    from repro.runner import Campaign

    campaign = Campaign("beta_sweep")
    for beta in (1.5, 2.0, 4.0):
        campaign.add(f"beta{beta}", my_experiment, beta=beta)
    outcome = campaign.run(jobs=4, timeout=300, retries=1,
                           manifest_path="results/run_manifest.jsonl")
    for r in outcome.ok:
        print(r.name, r.value)
"""

from repro.runner.campaign import Campaign, CampaignResult
from repro.runner.manifest import Manifest, ManifestMismatch, canonical_json
from repro.runner.pool import execute_tasks
from repro.runner.task import (Task, TaskResult, code_fingerprint, derive_seed,
                               task_signature)

__all__ = [
    "Campaign", "CampaignResult",
    "Manifest", "ManifestMismatch", "canonical_json",
    "Task", "TaskResult", "code_fingerprint", "derive_seed", "task_signature",
    "execute_tasks",
]
