"""Adversary suite: misbehaving-peer models, the deterministic
feedback fuzzer, and the guard's false-positive property.

Three contracts live here:

1. **Declared verdicts** — every ``adv-*`` scenario ends exactly the
   way it declares: the abort reason (``misbehaving_peer``, never an
   incidental ``rto_exhausted``) and the flow-doctor diagnosis
   (``misbehaving-peer`` anomaly) both match.
2. **Full-delivery-or-clean-abort** — a fuzzed feedback stream can
   slow a transfer or kill it with a documented abort, but can never
   corrupt it (sender completes, receiver missing bytes), hang it, or
   crash it.  The slow corpus drives >= 10k mutated frames across all
   four schemes (the acceptance floor).
3. **No false positives** — the guard never fires on legitimate
   feedback: the entire legit chaos matrix and the fig08/fig09
   experiment paths run clean in strict mode (first violation would
   abort).

The full matrices are marked ``slow``; tier-1 runs smoke subsets.
"""

import pytest

from repro.adversary import (
    ADVERSARIES,
    CLEAN_ABORT_REASONS,
    FUZZ_SCHEMES,
    fuzz_corpus,
    fuzz_run,
)
from repro.chaos import (
    ADVERSARY_SCENARIOS,
    DEFAULT_SCHEMES,
    SCENARIOS,
    get_scenario,
    run_scenario,
)

SMOKE_LEGIT = ("blackout", "ack-path-loss", "burst-loss")


def assert_declared_ending(result):
    """Chaos contract plus the adversary pin: when the scenario
    declares an abort vocabulary, the *reason* must match too."""
    assert result.outcome in ("delivered", "aborted"), result.to_dict()
    assert result.ok, result.to_dict()
    if result.expect_abort:
        assert result.abort is not None
        assert result.abort["reason"] in result.expect_abort
    assert result.diagnosis_ok(), {
        "expected": result.expect_diagnosis,
        "dominant": result.dominant_diagnosis(),
        "anomalies": result.anomaly_kinds(),
    }


class TestRegistry:
    def test_every_model_has_a_scenario(self):
        assert set(ADVERSARIES) == {
            s.adversary for s in ADVERSARY_SCENARIOS.values()}

    def test_adversary_scenarios_stay_out_of_legit_matrix(self):
        # The legit matrix doubles as the strict-mode false-positive
        # suite; an adversary scenario leaking in would break it.
        assert not set(ADVERSARY_SCENARIOS) & set(SCENARIOS)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError, match="optimistic-acker"):
            get_scenario("adv-no-such-model")

    def test_get_scenario_resolves_adv_names(self):
        assert get_scenario("adv-field-mangler").adversary == "field-mangler"

    def test_fuzz_schemes_match_chaos_matrix(self):
        # FUZZ_SCHEMES is a cycle-breaking copy; it must not drift.
        assert set(FUZZ_SCHEMES) == set(DEFAULT_SCHEMES)


class TestDeclaredVerdicts:
    """Tier-1 smoke: every model under the TACK scheme it targets."""

    @pytest.mark.parametrize("name", sorted(ADVERSARY_SCENARIOS))
    def test_model_yields_declared_verdict(self, name):
        result = run_scenario(get_scenario(name), scheme="tcp-tack",
                              simsan=True)
        assert_declared_ending(result)

    def test_withholder_aborts_via_watchdog(self):
        result = run_scenario(get_scenario("adv-ack-withholder"),
                              scheme="tcp-tack", simsan=True)
        assert result.abort["reason"] == "misbehaving_peer"
        guard = result.summary["guard"]
        assert guard["watchdog_probes"] >= 1
        assert guard["violations"].get("withheld", 0) >= 1

    def test_rtt_poisoner_is_tolerated_not_escalated(self):
        result = run_scenario(get_scenario("adv-rtt-poisoner"),
                              scheme="tcp-tack", simsan=True)
        assert result.outcome == "delivered"
        assert result.bytes_delivered == result.transfer_bytes
        guard = result.summary["guard"]
        assert guard["total"] >= 1           # the lies were seen...
        assert result.abort is None          # ...and clamped through

    def test_misbehaving_peer_anomaly_carries_evidence(self):
        result = run_scenario(get_scenario("adv-field-mangler"),
                              scheme="tcp-tack", simsan=True)
        flow = next(iter(result.diagnosis["flows"].values()))
        anomaly = next(a for a in flow["anomalies"]
                       if a["kind"] == "misbehaving-peer")
        assert anomaly["count"] >= 1
        assert anomaly["rules"]
        assert flow["guard"]["total"] >= 1

    def test_mangled_rate_never_stalls_the_flow(self):
        """Seed 6 mangles delivery_rate_bps to 3.5 on an early TACK;
        the pacer then charged one packet 1 200 s of debt and the run
        ended ``stalled`` at its 120 s limit with nothing in flight."""
        result = run_scenario(get_scenario("adv-field-mangler"),
                              scheme="tcp-tack", seed=6, simsan=True)
        assert result.outcome in ("delivered", "aborted")
        assert result.sim_time_s < 10.0

    def test_same_seed_is_deterministic(self):
        a = run_scenario(get_scenario("adv-field-mangler"),
                         scheme="tcp-tack", seed=5)
        b = run_scenario(get_scenario("adv-field-mangler"),
                         scheme="tcp-tack", seed=5)
        assert a.to_dict() == b.to_dict()


@pytest.mark.slow
class TestFullMatrix:
    """Every adversary model x every scheme ends as declared."""

    @pytest.mark.parametrize("name", sorted(ADVERSARY_SCENARIOS))
    @pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
    def test_declared_verdict(self, name, scheme):
        result = run_scenario(get_scenario(name), scheme=scheme, simsan=True)
        assert_declared_ending(result)


class TestFuzzer:
    def test_smoke_corpus(self):
        report = fuzz_corpus(seeds=range(1, 4), schemes=("tcp-tack",),
                             simsan=True)
        assert report.ok, report.to_dict()
        assert report.frames_mutated > 0

    def test_clean_abort_vocabulary_is_documented(self):
        # The stable reason strings from repro.transport.errors — a new
        # abort reason must be added to both vocabularies deliberately.
        assert CLEAN_ABORT_REASONS == {
            "handshake_timeout", "rto_exhausted", "persist_exhausted",
            "misbehaving_peer"}

    def test_same_seed_is_deterministic(self):
        a = fuzz_run(scheme="tcp-bbr", seed=9, simsan=True)
        b = fuzz_run(scheme="tcp-bbr", seed=9, simsan=True)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        a = fuzz_run(scheme="tcp-tack", seed=1, simsan=True)
        b = fuzz_run(scheme="tcp-tack", seed=2, simsan=True)
        assert a.ops != b.ops or a.frames_mutated != b.frames_mutated

    def test_zero_rate_is_a_clean_run(self):
        result = fuzz_run(scheme="tcp-tack", seed=3, mutation_rate=0.0,
                          simsan=True)
        assert result.outcome == "delivered"
        assert result.frames_mutated == 0
        assert result.guard["total"] == 0

    @pytest.mark.slow
    def test_property_holds_for_10k_mutated_frames(self):
        # The acceptance floor: >= 10k mutated frames across all four
        # schemes, every run delivered or cleanly aborted under simsan.
        report = fuzz_corpus(seeds=range(1, 200), schemes=FUZZ_SCHEMES,
                             frames_target=10_000, simsan=True)
        assert report.frames_mutated >= 10_000
        assert report.ok, report.to_dict()


class TestLiveOfflineParity:
    """Guard events round-trip through the telemetry trace: replaying
    an adversarial run's trace offline reproduces the live doctor's
    report digest (misbehaving-peer anomaly included)."""

    @pytest.mark.parametrize("model", ("field-mangler", "ack-withholder"))
    def test_jsonl_trace_replay_matches_live(self, tmp_path, model):
        from repro.diagnose.offline import diagnose_trace
        from repro.telemetry import JsonlSink, TraceCollector

        path = tmp_path / "adv.jsonl"
        collector = TraceCollector(sink=JsonlSink(str(path)))
        live = run_scenario(get_scenario(f"adv-{model}"), scheme="tcp-tack",
                            simsan=True, telemetry=collector)
        collector.close()
        offline = diagnose_trace(str(path))
        assert offline["digest"] == live.diagnosis["digest"]
        flow = next(iter(offline["flows"].values()))
        assert "misbehaving-peer" in {
            a["kind"] for a in flow["anomalies"]}


class TestFalsePositives:
    """Strict mode escalates on the *first* violation, so a clean
    strict run proves the guard saw zero violations."""

    @pytest.fixture(autouse=True)
    def strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD_STRICT", "1")

    @pytest.mark.parametrize("name", SMOKE_LEGIT)
    @pytest.mark.parametrize("scheme", ("tcp-tack", "tcp-cubic"))
    def test_legit_chaos_smoke_clean_in_strict_mode(self, name, scheme):
        result = run_scenario(get_scenario(name), scheme=scheme, simsan=True)
        assert result.ok, result.to_dict()
        guard = result.summary["guard"]
        assert guard["total"] == 0, guard
        if result.abort is not None:
            assert result.abort["reason"] != "misbehaving_peer"

    def test_zero_window_persist_path_clean_in_strict_mode(self, sim):
        # A receiver legitimately closing its window to zero must not
        # look like an awnd lie (persist mode, not misbehaving_peer).
        from repro.netsim.packet import MSS

        from conftest import build_wired_connection

        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=50e6,
                                         rtt_s=0.02)
        conn.receiver.auto_drain = False
        conn.receiver.rcv_buffer_bytes = 30 * MSS
        conn.start_transfer(200 * MSS)
        sim.run(until=1.0)
        assert conn.sender.cum_acked < 200 * MSS   # genuinely stalled

        def read_some():
            if conn.completed:
                return
            conn.receiver.read(10 * MSS)
            sim.call_in(0.05, read_some)

        read_some()
        sim.run(until=10.0)
        assert conn.completed
        guard = conn.summary()["guard"]
        assert guard["total"] == 0, guard
        assert conn.sender.aborted is None

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
    def test_full_legit_matrix_clean_in_strict_mode(self, name, scheme):
        result = run_scenario(get_scenario(name), scheme=scheme, simsan=True)
        assert result.ok, result.to_dict()
        guard = result.summary["guard"]
        assert guard["total"] == 0, guard
        if result.abort is not None:
            assert result.abort["reason"] != "misbehaving_peer"

    @pytest.mark.slow
    def test_fig08_measured_clean_in_strict_mode(self):
        from repro.experiments.fig08_ack_frequency import run_measured

        table = run_measured(duration_s=2.0)
        assert table.rows

    @pytest.mark.slow
    def test_fig09_improvement_clean_in_strict_mode(self):
        from repro.experiments.fig09_goodput_trend import run_improvement

        table = run_improvement(rtts=(0.04,), duration_s=2.0,
                                warmup_s=0.7)
        assert table.rows
