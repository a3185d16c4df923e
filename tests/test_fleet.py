"""repro.fleet: workload generation, shards, the campaign record, resume.

Everything here runs deliberately tiny campaigns (a handful of flows
per shard) — the point is contract coverage, not load.  The CI
``fleet-smoke`` job exercises the full CLI path at a larger scale.
"""

import json
import random

import pytest

from repro.fleet import (
    FleetConfig,
    ShardSpec,
    WorkloadConfig,
    aggregate,
    aggregate_digest,
    campaign_report,
    generate_flows,
    plan_shards,
    run_fleet,
    run_shard,
)
from repro.runner import Manifest, ManifestMismatch, TaskResult, canonical_json


def tiny_workload(**overrides):
    base = dict(arrival="poisson", mean_arrival_hz=3.0, duration_s=4.0,
                size_median_bytes=20_000, size_sigma=0.8,
                max_bytes=200_000)
    base.update(overrides)
    return WorkloadConfig(**base)


def tiny_spec(shard_id=0, scheme="tcp-tack", seed=11, **workload_overrides):
    return ShardSpec(shard_id=shard_id, scheme=scheme, seed=seed,
                     workload=tiny_workload(**workload_overrides),
                     drain_s=5.0)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------

class TestWorkload:
    def test_deterministic_for_seeded_rng(self):
        cfg = tiny_workload(mean_arrival_hz=40.0, duration_s=10.0)
        a = list(generate_flows(cfg, random.Random("w")))
        b = list(generate_flows(cfg, random.Random("w")))
        assert [(f.index, f.start_s, f.size_bytes) for f in a] == \
            [(f.index, f.start_s, f.size_bytes) for f in b]
        assert a  # non-empty

    def test_arrivals_ordered_and_bounded(self):
        for arrival in ("poisson", "onoff"):
            cfg = tiny_workload(arrival=arrival, mean_arrival_hz=30.0,
                                duration_s=8.0, diurnal_amplitude=0.6,
                                diurnal_period_s=4.0)
            flows = list(generate_flows(cfg, random.Random(3)))
            starts = [f.start_s for f in flows]
            assert starts == sorted(starts), arrival
            assert all(0.0 <= t < cfg.duration_s for t in starts), arrival
            assert all(cfg.min_bytes <= f.size_bytes <= cfg.max_bytes
                       for f in flows), arrival

    def test_poisson_mean_rate_tracks_config(self):
        cfg = tiny_workload(mean_arrival_hz=60.0, duration_s=40.0)
        n = len(list(generate_flows(cfg, random.Random(1))))
        expected = cfg.mean_arrival_hz * cfg.duration_s
        assert n == pytest.approx(expected, rel=0.15)

    def test_start_index_offsets_flow_indices(self):
        cfg = tiny_workload()
        flows = list(generate_flows(cfg, random.Random(5), start_index=100))
        assert flows[0].index == 100
        assert [f.index for f in flows] == \
            list(range(100, 100 + len(flows)))

    def test_round_trip(self):
        cfg = tiny_workload(arrival="onoff", n_users=7,
                            diurnal_amplitude=0.4)
        again = WorkloadConfig.from_dict(json.loads(
            canonical_json(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------

class TestShard:
    def test_summary_shape_and_determinism(self):
        spec = tiny_spec()
        first = run_shard(spec.to_dict())
        second = run_shard(spec.to_dict())
        assert canonical_json(first) == canonical_json(second)
        for section in ("flows", "bytes", "packets", "links", "airtime",
                        "digests", "engine"):
            assert section in first, section
        assert first["scheme"] == "tcp-tack"
        assert first["flows"]["started"] > 0
        assert first["flows"]["completed"] > 0
        assert first["bytes"]["delivered"] > 0
        # Flat memory contract: every started flow was retired into the
        # digests, none retained.
        flows = first["flows"]
        assert (flows["completed"] + flows["aborted"]
                + flows["unfinished"]) == flows["started"]
        assert first["digests"]["fct_s"]["count"] == flows["completed"]

    def test_scheme_changes_outcome(self):
        tack = run_shard(tiny_spec(scheme="tcp-tack").to_dict())
        perpkt = run_shard(tiny_spec(scheme="tcp-bbr-perpacket").to_dict())
        # Per-packet ACKing must produce strictly more feedback per
        # data packet than TACK on identical offered load.
        def ack_per_data(summary):
            return summary["packets"]["acks"] / summary["packets"]["data"]
        assert ack_per_data(perpkt) > ack_per_data(tack)

    def test_admission_backlog_drains_in_arrival_order(self, monkeypatch):
        """Arrivals beyond ``max_active`` wait in the deferral queue and
        the reaper admits them first come, first served."""
        from repro.fleet import shard as shard_mod
        admitted = []
        backlog = []
        admit = shard_mod._ShardRun._admit

        def recording(run, flow):
            admitted.append(flow.index)
            backlog.append(len(run.deferred))
            admit(run, flow)

        monkeypatch.setattr(shard_mod._ShardRun, "_admit", recording)
        spec = tiny_spec(mean_arrival_hz=20.0, duration_s=1.5)
        spec.max_active = 2
        summary = run_shard(spec.to_dict())
        flows = summary["flows"]
        assert flows["peak_active"] == 2 and max(backlog) > 5
        assert admitted == sorted(admitted) and len(admitted) == flows["started"]
        assert flows["completed"] == flows["started"] > 15
        assert flows["deferred_peak"] == 0      # all drained by the end

    def test_spec_round_trip(self):
        spec = tiny_spec(shard_id=3, scheme="tcp-bbr", seed=99)
        again = ShardSpec.from_dict(json.loads(
            canonical_json(spec.to_dict())))
        assert again.to_dict() == spec.to_dict()
        assert again.name == spec.name


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------

def shard_result(shard_id, x):
    return TaskResult(f"shard{shard_id:04d}", value={"shard_id": shard_id,
                                                     "x": x}, attempts=1)


class TestManifest:
    """The fleet's shards in the runner's one record."""

    def header(self):
        return {"seed": 1}

    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        with Manifest(path) as m:
            done = m.open("fleet", "fp-1", self.header())
            assert done == {}
            m.append("k0", shard_result(0, 1))
            m.append("k1", shard_result(1, 2))
        with Manifest(path) as m:
            done = m.open("fleet", "fp-1", self.header())
        assert sorted(done) == ["k0", "k1"]
        assert done["k1"]["value"]["x"] == 2

    def test_truncated_tail_is_dropped(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        with Manifest(path) as m:
            m.open("fleet", "fp-1", self.header())
            m.append("k0", shard_result(0, 1))
            m.append("k1", shard_result(1, 2))
        # Simulate a mid-write crash: chop the final record in half.
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with Manifest(path) as m:
            done = m.open("fleet", "fp-1", self.header())
            # Shard 1's record was truncated -> it is simply not done
            # and will be re-run; shard 0 survives.
            assert sorted(done) == ["k0"]
            m.append("k1", shard_result(1, 2))
        with Manifest(path) as m:
            assert sorted(m.open("fleet", "fp-1", self.header())) == [
                "k0", "k1"]

    def test_report_leaves_a_torn_tail_on_disk(self, tmp_path):
        """Reading never writes: a report beside a live writer must not
        cut the line the writer is still appending."""
        path = tmp_path / "manifest.jsonl"
        run_fleet(tiny_campaign(), path)
        torn = path.read_bytes() + b'{"kind":"task","na'
        path.write_bytes(torn)
        report = campaign_report(path)
        assert report["missing_shards"] == []
        assert path.read_bytes() == torn

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        with Manifest(path) as m:
            m.open("fleet", "fp-1", self.header())
        with Manifest(path) as m:
            with pytest.raises(ManifestMismatch):
                m.open("fleet", "fp-2", self.header())


# ----------------------------------------------------------------------
# campaign + resume
# ----------------------------------------------------------------------

def tiny_campaign(seed=21):
    return FleetConfig(schemes=("tcp-tack", "tcp-bbr"), shards_per_scheme=1,
                       seed=seed, workload=tiny_workload(), drain_s=5.0)


class TestCampaign:
    def test_plan_interleaves_schemes_with_stable_ids(self):
        config = FleetConfig(schemes=("a", "b"), shards_per_scheme=2,
                             seed=5, workload=tiny_workload())
        specs = plan_shards(config)
        assert [s.shard_id for s in specs] == [0, 1, 2, 3]
        assert [s.scheme for s in specs] == ["a", "b", "a", "b"]
        assert len({s.seed for s in specs}) == len(specs)
        # Planning is a pure function of the config.
        assert [s.to_dict() for s in plan_shards(config)] == \
            [s.to_dict() for s in specs]

    def test_config_round_trip_and_fingerprint(self):
        config = tiny_campaign()
        again = FleetConfig.from_dict(json.loads(
            canonical_json(config.to_dict())))
        assert again.to_dict() == config.to_dict()
        assert again.fingerprint() == config.fingerprint()
        assert again.fingerprint() != tiny_campaign(seed=22).fingerprint()

    def test_resume_reproduces_exact_digest(self, tmp_path):
        config = tiny_campaign()

        full = run_fleet(config, tmp_path / "full.jsonl")
        assert full.complete and len(full.ok) == 2 and not full.failed

        # Interrupted run: only one shard lands, outcome is incomplete.
        partial = run_fleet(config, tmp_path / "resumed.jsonl",
                            max_shards=1)
        assert not partial.complete
        assert len(partial.ok) == 1

        # Resume: the missing shard runs, the finished one is replayed.
        resumed = run_fleet(config, tmp_path / "resumed.jsonl")
        assert resumed.complete
        assert len(resumed.replayed) == 1 and len(resumed.ok) == 2

        digest_of = {}
        for name in ("full", "resumed"):
            report = campaign_report(tmp_path / f"{name}.jsonl")
            assert report["missing_shards"] == []
            digest_of[name] = report["aggregate_digest"]
        assert digest_of["full"] == digest_of["resumed"]

    def test_changed_config_refuses_existing_manifest(self, tmp_path):
        run_fleet(tiny_campaign(), tmp_path / "m.jsonl", max_shards=1)
        with pytest.raises(ManifestMismatch):
            run_fleet(tiny_campaign(seed=99), tmp_path / "m.jsonl")

    def test_aggregate_order_insensitive(self):
        shards = [run_shard(tiny_spec(shard_id=i, scheme=s, seed=7 + i)
                            .to_dict())
                  for i, s in enumerate(("tcp-tack", "tcp-tack",
                                         "tcp-bbr"))]
        assert (aggregate_digest(aggregate(shards))
                == aggregate_digest(aggregate(list(reversed(shards)))))
        by_scheme = aggregate(shards)
        assert sorted(by_scheme) == ["tcp-bbr", "tcp-tack"]
        assert by_scheme["tcp-tack"].shards == 2
        assert len(aggregate_digest(by_scheme)) == 64

# ----------------------------------------------------------------------
# flow-doctor fold
# ----------------------------------------------------------------------

class TestDiagnosisFold:
    def test_shard_summary_carries_diagnosis_block(self):
        summary = run_shard(tiny_spec().to_dict())
        diag = summary["diagnosis"]
        assert diag["flows"] == summary["flows"]["started"]
        total = sum(sum(p) for p in diag["state_time_partials"].values())
        assert total > 0
        assert all(v >= 0 for v in diag["state_bytes"].values())

    def test_aggregate_exposes_top_state(self):
        shards = [run_shard(tiny_spec(shard_id=i, seed=7 + i).to_dict())
                  for i in range(2)]
        agg = aggregate(shards)["tcp-tack"]
        assert agg.diag_flows == sum(s["diagnosis"]["flows"]
                                     for s in shards)
        top = agg.top_state()
        assert top is not None and top != "closing"
        fractions = agg.state_time_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        doc = agg.to_dict()["diagnosis"]
        assert doc["flows"] == agg.diag_flows
        assert sum(doc["state_time_partials"][top]) > 0

    def test_fold_tolerates_missing_diagnosis_block(self):
        # Forward-compat: summaries written before the doctor existed
        # (or by a stripped-down shard) must still aggregate.
        shards = [run_shard(tiny_spec(shard_id=i, seed=7 + i).to_dict())
                  for i in range(2)]
        shards[1] = dict(shards[1])
        shards[1].pop("diagnosis")
        agg = aggregate(shards)["tcp-tack"]
        assert agg.diag_flows == shards[0]["diagnosis"]["flows"]
        assert len(aggregate_digest(aggregate(shards))) == 64
