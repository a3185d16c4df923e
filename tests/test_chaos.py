"""Chaos suite: every scenario x scheme run must end *observably* —
all bytes delivered or a structured abort — with the sanitizer on and
the event loop quiet afterwards.

The full matrix is marked ``slow``; tier-1 runs a smoke subset.
"""

import pytest

from repro.chaos import (
    ADVERSARY_SCENARIOS,
    Blackout,
    ChaosInjector,
    DEFAULT_SCHEMES,
    FaultSchedule,
    LossEpisode,
    SCENARIOS,
    Scenario,
    get_scenario,
    run_scenario,
)
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path

SMOKE_SCENARIOS = ("blackout", "ack-path-loss", "burst-loss")


def assert_clean_ending(result):
    """The chaos contract: ended how the scenario allows, observably."""
    assert result.outcome in ("delivered", "aborted"), result.to_dict()
    assert result.ok, result.to_dict()
    if result.outcome == "delivered":
        assert result.bytes_delivered == result.transfer_bytes
    else:
        assert result.abort is not None
        assert result.abort["reason"]
    # Flow-doctor contract: every scenario declares the diagnosis it
    # expects (dominant send-limit state or anomaly kind); the live
    # doctor's verdict must match one of the declared alternatives.
    assert result.expect_diagnosis, "scenario must declare a diagnosis"
    assert result.diagnosis_ok(), {
        "expected": result.expect_diagnosis,
        "dominant": result.dominant_diagnosis(),
        "anomalies": result.anomaly_kinds(),
    }


class TestSmoke:
    @pytest.mark.parametrize("name", SMOKE_SCENARIOS)
    @pytest.mark.parametrize("scheme", ("tcp-tack", "tcp-bbr"))
    def test_scenario_under_sanitizer(self, name, scheme):
        result = run_scenario(get_scenario(name), scheme=scheme, simsan=True)
        assert_clean_ending(result)

    def test_dead_path_aborts_structurally(self):
        result = run_scenario(get_scenario("dead-path"), scheme="tcp-tack",
                              simsan=True)
        assert result.outcome == "aborted"
        assert result.abort["reason"] == "rto_exhausted"
        assert result.ok

    def test_fault_log_records_on_off_pairs(self):
        result = run_scenario(get_scenario("blackout"), scheme="tcp-tack")
        kinds = [(kind, action) for _, kind, action in result.fault_log]
        assert ("blackout", "on") in kinds
        assert ("blackout", "off") in kinds

    def test_same_seed_is_deterministic(self):
        a = run_scenario(get_scenario("burst-loss"), scheme="tcp-tack", seed=5)
        b = run_scenario(get_scenario("burst-loss"), scheme="tcp-tack", seed=5)
        assert a.to_dict() == b.to_dict()

    def test_chaos_detached_is_zero_cost(self):
        # Without an injector armed the link must behave exactly as
        # before the chaos subsystem existed: no impairment state.
        sim = Simulator(seed=1)
        path = wired_path(sim, 20e6, 0.04)
        link = path.forward_link
        assert link._imp is None or not link._imp.active()


@pytest.mark.slow
class TestFullMatrix:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
    def test_terminates_with_delivery_or_abort(self, name, scheme):
        result = run_scenario(get_scenario(name), scheme=scheme, simsan=True)
        assert_clean_ending(result)


class TestScheduleValidation:
    def test_same_kind_overlap_rejected(self):
        schedule = (FaultSchedule()
                    .add(Blackout(1.0, 2.0))
                    .add(Blackout(2.5, 2.0)))
        with pytest.raises(ValueError):
            schedule.validate()

    def test_disjoint_windows_accepted(self):
        (FaultSchedule()
         .add(Blackout(1.0, 1.0))
         .add(Blackout(3.0, 1.0))
         .validate())

    def test_different_directions_may_overlap(self):
        (FaultSchedule()
         .add(LossEpisode(1.0, 2.0, rate=0.5, direction="forward"))
         .add(LossEpisode(1.5, 2.0, rate=0.5, direction="reverse"))
         .validate())

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            Blackout(1.0, 1.0, direction="sideways")

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Blackout(-1.0, 1.0)

    def test_rearm_rejected(self):
        sim = Simulator(seed=1)
        path = wired_path(sim, 20e6, 0.04)
        injector = ChaosInjector(
            sim, path, FaultSchedule().add(Blackout(1.0, 1.0)))
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_unknown_scenario_lists_names(self):
        with pytest.raises(KeyError, match="blackout"):
            get_scenario("no-such-scenario")

    def test_scenario_expect_validated(self):
        with pytest.raises(ValueError):
            Scenario(name="x", description="d", build=FaultSchedule,
                     expect="maybe")


class TestCli:
    def test_list_json(self, capsys):
        from repro.chaos.cli import main
        assert main(["list", "--json"]) == 0
        import json
        names = [row["name"] for row in json.loads(capsys.readouterr().out)]
        assert "blackout" in names and "dead-path" in names

    def test_list_json_names_every_scenario_run_accepts(self, capsys):
        # Every name get_scenario resolves is runnable by `run
        # --scenario`; the adv-* ones are listed too, marked.
        from repro.chaos.cli import main
        import json
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in rows]
        assert sorted(names) == sorted({*SCENARIOS, *ADVERSARY_SCENARIOS})
        assert all(get_scenario(name).name == name for name in names)
        assert {row["name"] for row in rows if row["adversary"]} == set(
            ADVERSARY_SCENARIOS)

    def test_run_single_scenario_json(self, capsys, tmp_path):
        from repro.chaos.cli import main
        import json
        trace = tmp_path / "chaos.jsonl"
        code = main(["run", "--scenario", "blackout", "--scheme", "tcp-tack",
                     "--trace", str(trace), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert len(report["runs"]) == 1
        assert report["runs"][0]["ok"] is True
        assert trace.exists() and trace.stat().st_size > 0

    def test_unknown_scenario_is_usage_error(self, capsys):
        from repro.chaos.cli import main
        assert main(["run", "--scenario", "nope"]) == 2
