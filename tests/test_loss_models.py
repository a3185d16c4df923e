"""Unit tests for loss models."""

import random

import pytest

from repro.netsim.loss import (
    BernoulliLoss,
    BurstLoss,
    GilbertElliottLoss,
    PatternLoss,
)
from repro.netsim.packet import make_data_packet


def _pkt():
    return make_data_packet(0, 1)


class TestBernoulli:
    def test_zero_rate_never_drops(self):
        model = BernoulliLoss(0.0, random.Random(1))
        assert not any(model.should_drop(_pkt(), 0.0) for _ in range(1000))

    def test_one_rate_always_drops(self):
        model = BernoulliLoss(1.0, random.Random(1))
        assert all(model.should_drop(_pkt(), 0.0) for _ in range(100))

    def test_empirical_rate(self):
        model = BernoulliLoss(0.1, random.Random(7))
        drops = sum(model.should_drop(_pkt(), 0.0) for _ in range(20_000))
        assert 0.08 < drops / 20_000 < 0.12

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(1))
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1, random.Random(1))

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            BernoulliLoss(0.1)
        with pytest.raises(TypeError):
            BernoulliLoss(0.1, rng=None)

    def test_int_seed_accepted(self):
        a = BernoulliLoss(0.5, 42)
        b = BernoulliLoss(0.5, random.Random(42))
        seq_a = [a.should_drop(_pkt(), 0.0) for _ in range(200)]
        seq_b = [b.should_drop(_pkt(), 0.0) for _ in range(200)]
        assert seq_a == seq_b

    def test_independent_rngs_diverge(self):
        # The shared-module-seed footgun this API change removed: two
        # models built from different seeds must not march in lockstep.
        a = BernoulliLoss(0.5, random.Random(1))
        b = BernoulliLoss(0.5, random.Random(2))
        seq_a = [a.should_drop(_pkt(), 0.0) for _ in range(200)]
        seq_b = [b.should_drop(_pkt(), 0.0) for _ in range(200)]
        assert seq_a != seq_b


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_gb=2.0, p_bg=0.5)

    def test_stays_good_when_p_gb_zero(self):
        model = GilbertElliottLoss(p_gb=0.0, p_bg=0.5, rng=random.Random(3))
        assert not any(model.should_drop(_pkt(), 0.0) for _ in range(500))

    def test_bursts_occur(self):
        model = GilbertElliottLoss(p_gb=0.05, p_bg=0.3, rng=random.Random(3))
        outcomes = [model.should_drop(_pkt(), 0.0) for _ in range(5000)]
        # Consecutive drops must appear far more often than independent
        # drops at the same average rate would produce.
        pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        rate = sum(outcomes) / len(outcomes)
        independent_pairs = rate * rate * len(outcomes)
        assert pairs > 2 * independent_pairs

    def test_steady_state_loss_formula(self):
        model = GilbertElliottLoss(p_gb=0.1, p_bg=0.4, rng=random.Random(5))
        expected = 0.1 / (0.1 + 0.4)
        assert model.steady_state_loss() == pytest.approx(expected)
        drops = sum(model.should_drop(_pkt(), 0.0) for _ in range(50_000))
        assert abs(drops / 50_000 - expected) < 0.02

    def test_reset_restores_good_state(self):
        model = GilbertElliottLoss(p_gb=1.0, p_bg=0.0, rng=random.Random(1))
        model.should_drop(_pkt(), 0.0)
        assert model.in_bad_state
        model.reset()
        assert not model.in_bad_state

    def test_reset_replays_identical_sequence(self):
        model = GilbertElliottLoss(p_gb=0.1, p_bg=0.3, rng=random.Random(9))
        first = [model.should_drop(_pkt(), 0.0) for _ in range(500)]
        model.reset()
        second = [model.should_drop(_pkt(), 0.0) for _ in range(500)]
        assert first == second

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            GilbertElliottLoss(p_gb=0.1, p_bg=0.3)

    def test_empirical_convergence_with_partial_loss_probs(self):
        # good_loss/bad_loss < 1 scale the state loss rates; long-run
        # loss is pi_bad*bad_loss + pi_good*good_loss.
        model = GilbertElliottLoss(p_gb=0.1, p_bg=0.4, bad_loss=0.5,
                                   good_loss=0.01, rng=random.Random(11))
        pi_bad = 0.1 / (0.1 + 0.4)
        expected = pi_bad * 0.5 + (1 - pi_bad) * 0.01
        assert model.steady_state_loss() == pytest.approx(expected)
        drops = sum(model.should_drop(_pkt(), 0.0) for _ in range(50_000))
        assert abs(drops / 50_000 - expected) < 0.02


class TestBurstLoss:
    def test_drops_inside_window_only(self):
        model = BurstLoss([(1.0, 0.5)])
        assert not model.should_drop(_pkt(), 0.99)
        assert model.should_drop(_pkt(), 1.0)
        assert model.should_drop(_pkt(), 1.49)
        assert not model.should_drop(_pkt(), 1.5)

    def test_multiple_windows(self):
        model = BurstLoss([(3.0, 1.0), (1.0, 0.5)])
        assert model.should_drop(_pkt(), 1.2)
        assert not model.should_drop(_pkt(), 2.0)
        assert model.should_drop(_pkt(), 3.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            BurstLoss([(1.0, 0.0)])


class TestPatternLoss:
    def test_drops_exact_indices(self):
        model = PatternLoss([0, 2])
        results = [model.should_drop(_pkt(), 0.0) for _ in range(4)]
        assert results == [True, False, True, False]

    def test_reset(self):
        model = PatternLoss([0])
        model.should_drop(_pkt(), 0.0)
        model.reset()
        assert model.should_drop(_pkt(), 0.0)
        assert model.seen == 1
