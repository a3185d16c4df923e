"""Parallel experiment-campaign runner.

Orchestrates batches of independent, seed-driven experiments over a
process pool with on-disk result caching, per-task timeout + bounded
retry, graceful degradation on failure, and a structured JSON run
manifest.  See DESIGN.md section 8 for the architecture.

Typical use::

    from repro.runner import Campaign

    campaign = Campaign("beta_sweep")
    for beta in (1.5, 2.0, 4.0):
        campaign.add(f"beta{beta}", my_experiment, beta=beta)
    outcome = campaign.run(jobs=4, cache_dir="results/.cache",
                           timeout=300, retries=1,
                           manifest_path="results/run_manifest.json")
    for r in outcome.ok:
        r.value.show()
"""

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.campaign import Campaign, CampaignResult
from repro.runner.manifest import build_manifest, write_manifest
from repro.runner.pool import execute_tasks
from repro.runner.task import Task, TaskResult, derive_seed, task_signature

__all__ = [
    "Campaign", "CampaignResult",
    "Task", "TaskResult", "derive_seed", "task_signature",
    "ResultCache", "code_fingerprint",
    "execute_tasks",
    "build_manifest", "write_manifest",
]
