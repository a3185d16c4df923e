"""Packet loss models for links and emulated paths.

Each model answers one question per packet: drop it or not.  Models are
seeded independently per link direction so the data path and ACK path
of an experiment can be impaired separately (as the paper's Spirent
Attero setup does in Figures 5(b) and 13).

Stochastic models therefore **require** an explicit ``rng`` — either a
seeded :class:`random.Random` or an integer seed.  A shared implicit
default (the old ``random.Random(0)``) silently correlated drops
across every link and direction of an experiment, which is exactly the
kind of hidden coupling reprolint rule REP008 now bans.

``reset()`` restores a model to its *construction* state, RNG
included, so a reset model replays the identical drop sequence — what
the chaos injector relies on when it re-installs a model for a second
burst-loss episode.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Union

from repro.netsim.packet import Packet

#: Accepted by stochastic models: a ready generator or an integer seed.
RngLike = Union[random.Random, int]


def coerce_rng(rng: RngLike, owner: str) -> random.Random:
    """Normalize an ``rng`` argument to a :class:`random.Random`.

    Raises ``TypeError`` for ``None`` (the historical implicit-default
    footgun) and for anything that is neither a generator nor a seed.
    """
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise TypeError(
            f"{owner} requires an explicit rng: pass a seeded "
            f"random.Random or an int seed, got {rng!r}"
        )
    return random.Random(rng)


class LossModel:
    """Interface: return ``True`` to drop ``packet`` at time ``now``."""

    def should_drop(self, packet: Packet, now: float) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore construction state (models with memory override)."""


class BernoulliLoss(LossModel):
    """Independent drops with fixed probability ``rate``."""

    def __init__(self, rate: float, rng: RngLike):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.rng = coerce_rng(rng, "BernoulliLoss")
        self._rng_state0 = self.rng.getstate()

    def should_drop(self, packet: Packet, now: float) -> bool:
        if self.rate == 0.0:
            return False
        return self.rng.random() < self.rate

    def reset(self) -> None:
        self.rng.setstate(self._rng_state0)


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (good/bad Markov chain).

    ``p_gb`` is the per-packet probability of moving good->bad and
    ``p_bg`` of bad->good; in the bad state packets drop with
    probability ``bad_loss`` (1.0 by default: a blackout burst).
    """

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        bad_loss: float = 1.0,
        good_loss: float = 0.0,
        rng: Optional[RngLike] = None,
    ):
        for name, val in (("p_gb", p_gb), ("p_bg", p_bg),
                          ("bad_loss", bad_loss), ("good_loss", good_loss)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {val}")
        if rng is None:
            raise TypeError(
                "GilbertElliottLoss requires an explicit rng: pass a "
                "seeded random.Random or an int seed"
            )
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.bad_loss = bad_loss
        self.good_loss = good_loss
        self.rng = coerce_rng(rng, "GilbertElliottLoss")
        self._rng_state0 = self.rng.getstate()
        self._bad = False

    def should_drop(self, packet: Packet, now: float) -> bool:
        if self._bad:
            if self.rng.random() < self.p_bg:
                self._bad = False
        else:
            if self.rng.random() < self.p_gb:
                self._bad = True
        loss = self.bad_loss if self._bad else self.good_loss
        if loss == 0.0:
            return False
        return self.rng.random() < loss

    @property
    def in_bad_state(self) -> bool:
        return self._bad

    def reset(self) -> None:
        self._bad = False
        self.rng.setstate(self._rng_state0)

    def steady_state_loss(self) -> float:
        """Long-run average drop probability of the chain."""
        denom = self.p_gb + self.p_bg
        if denom == 0.0:
            return self.good_loss
        pi_bad = self.p_gb / denom
        return pi_bad * self.bad_loss + (1.0 - pi_bad) * self.good_loss


class BurstLoss(LossModel):
    """Deterministic blackout windows: drop everything inside
    ``[start, start + duration)`` for each window."""

    def __init__(self, windows: Iterable[tuple[float, float]]):
        self.windows = sorted((float(s), float(s) + float(d)) for s, d in windows)
        for start, end in self.windows:
            if end <= start:
                raise ValueError(f"empty blackout window [{start}, {end})")

    def should_drop(self, packet: Packet, now: float) -> bool:
        for start, end in self.windows:
            if start <= now < end:
                return True
            if now < start:
                break
        return False


class PatternLoss(LossModel):
    """Drop the packets whose arrival index is in ``indices`` (0-based).

    Handy for tests that need an exact loss pattern ("drop the third
    packet, then the retransmission of it").
    """

    def __init__(self, indices: Iterable[int]):
        self.indices = set(int(i) for i in indices)
        self._count = 0

    def should_drop(self, packet: Packet, now: float) -> bool:
        drop = self._count in self.indices
        self._count += 1
        return drop

    @property
    def seen(self) -> int:
        return self._count

    def reset(self) -> None:
        self._count = 0
