"""Golden lock for the probe-bus refactor (ROADMAP item 5a, scoped).

``tests/golden/probe_bus.json`` was recorded at the commit *before* the
flow doctor became a subscriber of the telemetry event stream.  Every
value in it is a pure function of a seed, so a refactor of how events
reach the planes must reproduce each one exactly:

* chaos: ``diagnosis_digest`` / ``events_fired`` / ``bytes_delivered``
  of ``run_scenario`` for four scenarios x {tcp-tack, tcp-bbr}, seed 1;
* fleet: ``aggregate_digest`` of a 2-shard tack+bbr mini-campaign;
* trace: sha256 of a full-fidelity ``fig08.run_traced`` JSONL trace and
  the digest of its live diagnosis report (which the offline replay of
  that trace must equal);
* planes: attaching any subset of telemetry / diagnosis / energy /
  simsan leaves ``events_fired`` and delivered bytes untouched.

Regenerate (only for an *intended* behaviour change, with the diff
shown in the PR)::

    PYTHONPATH=src python tests/test_golden_lock.py --regen
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile

import pytest

from repro.chaos import get_scenario, run_scenario
from repro.core.flavors import make_connection
from repro.diagnose import FlowDoctor, diagnose_trace
from repro.energy import EnergyLedger
from repro.experiments.fig08_ack_frequency import run_traced
from repro.fleet import FleetConfig, WorkloadConfig, campaign_report, run_fleet
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.telemetry import TraceCollector, trace_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "probe_bus.json")

CHAOS_SCENARIOS = ("blackout", "ack-path-loss", "route-change",
                   "adv-optimistic-acker")
CHAOS_SCHEMES = ("tcp-tack", "tcp-bbr")
PLANES = ("telemetry", "diagnosis", "energy", "simsan")


def chaos_cell(scenario: str, scheme: str) -> dict:
    result = run_scenario(get_scenario(scenario), scheme, seed=1)
    return {"diagnosis_digest": result.diagnosis["digest"],
            "events_fired": result.events_fired,
            "bytes_delivered": result.bytes_delivered}


def fleet_digest(tmp_dir: str) -> str:
    config = FleetConfig(
        schemes=CHAOS_SCHEMES, shards_per_scheme=1, seed=21, drain_s=5.0,
        workload=WorkloadConfig(arrival="poisson", mean_arrival_hz=3.0,
                                duration_s=4.0, size_median_bytes=20_000,
                                size_sigma=0.8, max_bytes=200_000))
    manifest = os.path.join(tmp_dir, "fleet.jsonl")
    outcome = run_fleet(config, manifest)
    assert outcome.complete, outcome.failed
    return campaign_report(manifest)["aggregate_digest"]


def traced_run(tmp_dir: str) -> dict:
    path = os.path.join(tmp_dir, "fig08.jsonl")
    run_traced(path, duration_s=2.0, warmup_s=0.5)
    with open(f"{path}.diagnosis.json") as fh:
        live = json.load(fh)
    return {"jsonl_sha256": trace_digest(path),
            "live_digest": live["digest"],
            "offline_digest": diagnose_trace(path)["digest"]}


def plane_run(attached: tuple) -> tuple:
    """(events_fired, bytes_delivered) of one short tcp-tack flow with
    exactly the planes named in *attached* in place."""
    sim = Simulator(
        seed=5, simsan="simsan" in attached,
        telemetry=TraceCollector() if "telemetry" in attached else None,
        diagnosis=FlowDoctor() if "diagnosis" in attached else None,
        energy=EnergyLedger() if "energy" in attached else None)
    path = wired_path(sim, rate_bps=20e6, rtt_s=0.04, data_loss=0.01)
    conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.04)
    conn.wire(path.forward, path.reverse)
    conn.start_transfer(400_000)
    sim.run(until=10.0)
    conn.close()
    return sim.events_fired, conn.receiver.stats.bytes_delivered


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "chaos": {f"{sc}/{scheme}": chaos_cell(sc, scheme)
                      for sc in CHAOS_SCENARIOS for scheme in CHAOS_SCHEMES},
            "fleet_aggregate_digest": fleet_digest(tmp),
            "traced": traced_run(tmp),
            "planes_off": list(plane_run(())),
        }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("scheme", CHAOS_SCHEMES)
@pytest.mark.parametrize("scenario", CHAOS_SCENARIOS)
def test_chaos_cells_match_golden(golden, scenario, scheme):
    assert chaos_cell(scenario, scheme) == golden["chaos"][f"{scenario}/{scheme}"]


def test_fleet_aggregate_digest_matches_golden(golden, tmp_path):
    assert fleet_digest(str(tmp_path)) == golden["fleet_aggregate_digest"]


def test_traced_run_matches_golden_and_live_equals_offline(golden, tmp_path):
    traced = traced_run(str(tmp_path))
    assert traced == golden["traced"]
    assert traced["live_digest"] == traced["offline_digest"]


def test_any_plane_subset_leaves_the_run_untouched(golden):
    baseline = tuple(golden["planes_off"])
    for k in range(len(PLANES) + 1):
        for attached in itertools.combinations(PLANES, k):
            assert plane_run(attached) == baseline, attached


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_lock.py --regen")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
