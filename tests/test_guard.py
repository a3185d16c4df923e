"""Unit tests for the feedback validation guard (DESIGN.md section 17).

Each rule gets a direct sender-level test: a hostile frame is
injected, the offending field must be clamped/dropped (never crash,
never act on the lie), the violation counted under its stable rule
name, and the tolerate budget must eventually escalate into a
structured ``misbehaving_peer`` abort.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.fuzz import FeedbackFuzzer
from repro.adversary.models import ADVERSARIES, GARBAGE, MUTABLE_FIELDS
from repro.cc import BBR, NewReno
from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS, Packet, PacketType
from repro.transport.errors import FeedbackFormatError
from repro.transport.feedback import (
    AckFeedback,
    check_wire_form,
    clone_feedback,
    make_feedback_packet,
)
from repro.transport.guard import AWND_MAX, GuardConfig, resolve_strict
from repro.telemetry import TraceCollector
from repro.transport.sender import SACKED, TransportSender

from conftest import build_wired_connection, run_bulk
from stamp_store_oracle import SetDequeStampStore
from wire_form_oracle import check_wire_form as oracle_check_wire_form
from wire_form_oracle import getattr_check_wire_form


class StubPort:
    def __init__(self):
        self.sent = []
        self.accept = True

    def send(self, packet):
        self.sent.append(packet)
        return self.accept

    def connect(self, sink):
        pass


def established_sender(sim, cc=None, **kwargs):
    sender = TransportSender(sim, cc or NewReno(), **kwargs)
    port = StubPort()
    sender.connect(port)
    sender.start()
    syn_ack = Packet(PacketType.SYN_ACK, size=64)
    syn_ack.meta["syn_sent_at"] = 0.0
    sim.call_in(0.01, lambda: sender.on_packet(syn_ack))
    sim.run(until=0.02)
    port.sent.clear()
    return sender, port


def tack_sender(sim, **kwargs):
    return established_sender(sim, cc=BBR(initial_rtt_s=0.01),
                              receiver_driven=True, **kwargs)


def feed(sender, fb, kind=PacketType.ACK):
    sender.on_packet(make_feedback_packet(kind, fb))


def fb_for(cum_ack, **fields):
    return AckFeedback(cum_ack=cum_ack, awnd=fields.pop("awnd", 1 << 30),
                       **fields)


class TestWireFormHardening:
    """Satellite (a): malformed frames raise a structured
    FeedbackFormatError naming the offending field — never a bare
    TypeError/IndexError from deep inside the sender."""

    def test_accepts_legitimate_frame(self):
        check_wire_form(fb_for(MSS, sack_blocks=[(2 * MSS, 3 * MSS)],
                               tack_delay=0.001, fb_seq=3))

    @pytest.mark.parametrize("field,value", [
        ("cum_ack", None),
        ("cum_ack", 1.5),
        ("cum_ack", True),          # bool is not an int here
        ("awnd", "big"),
        ("sack_blocks", [(1,)]),
        ("sack_blocks", [("a", "b")]),
        ("unacked_blocks", 7),
        ("pull_pkt_range", (1, 2, 3)),
        ("tack_delay", float("nan")),
        ("echo_departure_ts", float("inf")),
        ("delivery_rate_bps", "fast"),
        ("rx_loss_rate", [0.5]),
        ("largest_pkt_seq", 3.7),
        ("packet_delays", [(None, 0.1)]),
        ("fb_seq", "zero"),
        ("reason", 42),
    ])
    def test_rejects_malformed_field(self, field, value):
        fb = fb_for(MSS)
        setattr(fb, field, value)
        with pytest.raises(FeedbackFormatError) as err:
            check_wire_form(fb)
        assert err.value.field == field

    def test_rejects_non_feedback_object(self):
        with pytest.raises(FeedbackFormatError):
            check_wire_form({"cum_ack": 0})

    def test_sender_drops_malformed_frame_without_crash(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        bad = fb_for(MSS)
        bad.sack_blocks = [(-5,)]
        feed(sender, bad)
        assert sender.cum_acked == 0
        assert sender.stats.feedback_rejected == 1
        assert sender.guard.counts["format"] == 1

    def test_guard_disabled_still_drops_malformed(self, sim):
        sender, _ = established_sender(
            sim, guard=GuardConfig(enabled=False))
        assert sender.guard is None
        assert sender._wd_timer is None       # watchdog never armed
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        bad = fb_for(MSS)
        bad.cum_ack = "everything"
        feed(sender, bad)
        assert sender.cum_acked == 0
        assert sender.stats.feedback_rejected == 1

    def test_guard_is_observe_only_on_a_clean_flow(self):
        def connection_second(guard):
            sim = Simulator(seed=2)
            conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=50e6,
                                             rtt_s=0.04, guard=guard)
            return run_bulk(sim, conn, 1.0)

        on = connection_second(None)
        off = connection_second(GuardConfig(enabled=False))
        assert off.sender.guard is None
        assert on.sender.guard.frames > 50     # every frame admitted...
        assert on.sender.guard.total == 0      # ...none a violation
        assert (on.receiver.stats.bytes_delivered
                == off.receiver.stats.bytes_delivered > 2e6)


def wire_verdict(check, fb):
    """``None`` for an accepted frame, else what rejected it: the
    field and message of the format error, or (an int too large for
    ``math.isfinite``) whatever else escaped."""
    try:
        assert check(fb) is fb
    except FeedbackFormatError as err:
        return err.field, str(err)
    except Exception as err:
        return type(err), str(err)
    return None


class _Int(int):
    pass


class _Float(float):
    pass


class _Pair(tuple):
    pass


class _Blocks(list):
    pass


_INTS = st.one_of(
    st.integers(-5, 1 << 50), st.integers(0, 9).map(_Int), st.booleans(),
    st.just(10 ** 400))
_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0, 1).map(_Float), _INTS)
_JUNK = st.sampled_from(GARBAGE)


def _pair_lists(part):
    pair = st.one_of(st.tuples(part, part), st.lists(part, max_size=3),
                     st.tuples(part, part).map(_Pair), _JUNK)
    entries = st.lists(pair, max_size=4)
    return st.one_of(entries, entries.map(tuple), entries.map(_Blocks),
                     st.none(), _JUNK)


def _optional(strategy):
    return st.one_of(st.none(), strategy, _JUNK)


_FRAMES = st.fixed_dictionaries({
    "cum_ack": st.one_of(_INTS, _JUNK),
    "awnd": st.one_of(_INTS, _JUNK),
    "sack_blocks": _pair_lists(_INTS),
    "unacked_blocks": _pair_lists(_INTS),
    "pull_pkt_range": _optional(st.one_of(st.tuples(_INTS, _INTS),
                                          st.lists(_INTS, max_size=3))),
    "tack_delay": _optional(_REALS),
    "echo_departure_ts": _optional(_REALS),
    "delivery_rate_bps": _optional(_REALS),
    "rx_loss_rate": _optional(_REALS),
    "largest_pkt_seq": _optional(_INTS),
    "packet_delays": _pair_lists(_REALS),
    "reason": _optional(st.sampled_from(["loss", "window"])),
    "fb_seq": _optional(_INTS),
})


_PAIRS = st.lists(st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40)),
                  max_size=4)
_SECONDS = st.floats(0.0, 1e3)
# Every field of a frame as the receiver builds it ...
_VALID_FIELDS = {
    "cum_ack": st.integers(0, 1 << 40),
    "awnd": st.integers(0, 1 << 40),
    "sack_blocks": _PAIRS,
    "unacked_blocks": _PAIRS,
    "pull_pkt_range": st.one_of(st.none(), st.tuples(st.integers(0, 99),
                                                     st.integers(0, 99))),
    "tack_delay": st.one_of(st.none(), _SECONDS),
    "echo_departure_ts": st.one_of(st.none(), _SECONDS),
    "delivery_rate_bps": st.one_of(st.none(), st.floats(0.0, 1e10)),
    "rx_loss_rate": st.one_of(st.none(), st.floats(0.0, 1.0)),
    "largest_pkt_seq": st.one_of(st.none(), st.integers(0, 1 << 30)),
    "packet_delays": st.lists(st.tuples(_SECONDS, _SECONDS), max_size=3),
    "reason": st.one_of(st.none(), st.sampled_from(["loss", "window"])),
    "fb_seq": st.one_of(st.none(), st.integers(0, 1 << 30)),
}
_VALID_FRAMES = st.fixed_dictionaries(_VALID_FIELDS)
# ... and what a decoder may put in one instead: a bool, an int
# subclass, a tuple where a list belongs, NaN and infinities, a str,
# pairs of the wrong length or with a wrong part.
_BAD_PAIRS = st.lists(
    st.one_of(st.lists(st.integers(0, 9), max_size=3),
              st.tuples(st.integers(0, 9)),
              st.tuples(st.integers(0, 9), st.integers(0, 9),
                        st.integers(0, 9)),
              st.tuples(st.integers(0, 9), st.booleans()),
              st.tuples(st.floats(allow_nan=True), st.integers()),
              st.tuples(st.integers(0, 9), st.integers(0, 9)).map(_Pair)),
    min_size=1, max_size=3)
_WRONG = st.one_of(
    st.booleans(), st.integers(0, 9).map(_Int),
    _PAIRS.map(tuple), _PAIRS.map(_Blocks),
    st.sampled_from([math.nan, math.inf, -math.inf, "7", ""]),
    # a valid pair list with bad entries mixed in
    st.tuples(_PAIRS, _BAD_PAIRS).map(lambda lists: lists[0] + lists[1]))
# Up to two fields replaced, half the time among the pair lists.
_WRONG_FIELDS = st.one_of(
    st.dictionaries(st.sampled_from(sorted(_VALID_FIELDS)), _WRONG,
                    max_size=2),
    st.dictionaries(st.sampled_from(["sack_blocks", "unacked_blocks",
                                     "packet_delays"]), _WRONG,
                    min_size=1, max_size=2))


class TestWireFormOracle:
    """``check_wire_form`` passes exact built-in types inline; the
    helper-only version it replaced (``tests/wire_form_oracle.py``)
    must give the same verdict on every frame: accepted, or rejected
    naming the same field with the same detail."""

    BASES = (
        dict(cum_ack=3 * MSS, awnd=1 << 20, fb_seq=7, largest_pkt_seq=9,
             sack_blocks=[(5 * MSS, 6 * MSS), (8 * MSS, 9 * MSS)]),
        dict(cum_ack=3 * MSS, awnd=1 << 20, fb_seq=7, largest_pkt_seq=9,
             unacked_blocks=[(3 * MSS, 4 * MSS)], pull_pkt_range=(4, 6),
             tack_delay=0.002, echo_departure_ts=0.5,
             delivery_rate_bps=2e7, rx_loss_rate=0.01,
             packet_delays=[(0.5, 0.002)], reason="loss"),
    )

    def same(self, fb):
        expected = wire_verdict(oracle_check_wire_form, fb)
        assert wire_verdict(check_wire_form, fb) == expected
        return expected

    @pytest.mark.parametrize("base", BASES)
    def test_every_garbage_value_in_every_mutable_field(self, base):
        assert self.same(AckFeedback(**base)) is None
        rejected = 0
        for field in MUTABLE_FIELDS + ("reason",):
            for value in GARBAGE:
                fb = AckFeedback(**base)
                setattr(fb, field, value)
                rejected += self.same(fb) is not None
        assert rejected > 100

    @pytest.mark.parametrize(
        "model", sorted(ADVERSARIES.values(), key=lambda cls: cls.name)
        + [FeedbackFuzzer], ids=lambda cls: cls.name)
    def test_every_adversary_model_output(self, sim, model):
        seen = []

        class Capture:
            def send(self, packet):
                seen.append(packet.meta["fb"])
                return True

        port = model(sim, Capture(), random.Random(5))
        for k in range(400):
            sim.run(until=0.01 * k)
            fb = AckFeedback(**self.BASES[k % 2])
            fb.cum_ack += k * MSS
            fb.fb_seq = k
            port.send(make_feedback_packet(PacketType.TACK, fb))
        sim.run()
        assert seen
        verdicts = {self.same(fb) is None for fb in seen}
        if model.name in ("field-mangler", "fuzzer"):
            assert verdicts == {True, False}

    @settings(max_examples=400, deadline=None)
    @given(_FRAMES)
    def test_random_frames(self, fields):
        fb = AckFeedback(cum_ack=0, awnd=0)
        for field, value in fields.items():
            setattr(fb, field, value)
        self.same(fb)

    def test_non_feedback_objects(self):
        for junk in GARBAGE:
            assert self.same(junk) is not None

    @pytest.mark.parametrize("field", ["sack_blocks", "unacked_blocks"])
    def test_a_bad_part_of_either_block_list(self, field):
        """Each block list is checked by its own written-out loop: an
        entry of the wrong shape, or with either part not an exact int,
        first or after a good entry, is named as that list."""
        for bad in ((1, True), (True, 1), (1.0, 2), (1, 2.0), (1,), (1, 2, 3),
                    [1, 2], _Pair((1, 2)), (_Int(1), 2), (1, _Int(2))):
            for blocks in ([bad], [(0, 1), bad]):
                fb = AckFeedback(**self.BASES[1])
                setattr(fb, field, blocks)
                verdict = self.same(fb)
                assert verdict is None or verdict[0] == field

    @settings(max_examples=600, deadline=None)
    @given(_VALID_FRAMES, _WRONG_FIELDS)
    def test_by_name_matches_the_getattr_version(self, fields, wrong):
        """The version that read the block lists and the real fields
        through ``getattr`` loops: same verdict, same first field."""
        fb = AckFeedback(cum_ack=0, awnd=0)
        for field, value in {**fields, **wrong}.items():
            setattr(fb, field, value)
        expected = wire_verdict(getattr_check_wire_form, fb)
        assert wire_verdict(check_wire_form, fb) == expected
        assert wire_verdict(oracle_check_wire_form, fb) == expected
        if not wrong:
            assert expected is None


class TestCumAckRule:
    def test_optimistic_ack_makes_no_progress(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(sender.next_seq + 10 * MSS))
        assert sender.cum_acked == 0          # reset, not clamped forward
        assert not sender.completed_at
        assert sender.guard.counts["cum_ack"] == 1

    def test_negative_cum_ack_rejected(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(-1))
        assert sender.cum_acked == 0
        assert sender.guard.counts["cum_ack"] == 1

    def test_legit_progress_still_flows(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(2 * MSS))
        assert sender.cum_acked == 2 * MSS
        assert sender.guard.total == 0


class TestAwndRule:
    def test_absurd_awnd_keeps_previous(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, awnd=1 << 20))
        assert sender.awnd == 1 << 20
        feed(sender, fb_for(MSS, awnd=AWND_MAX + 1))
        assert sender.awnd == 1 << 20
        assert sender.guard.counts["awnd"] == 1

    def test_negative_awnd_not_a_zero_window(self, sim):
        """A negative awnd must not trigger persist-mode behavior."""
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, awnd=-1))
        assert sender.awnd >= 0
        assert sender.guard.counts["awnd"] == 1


class TestFbSeqRules:
    def test_replayed_old_fb_seq_dropped_from_rho(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, fb_seq=500))
        feed(sender, fb_for(MSS, fb_seq=100))   # far below the window
        assert sender.guard.counts["fb_seq_replay"] == 1

    def test_reordered_fb_seq_tolerated(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, fb_seq=10))
        feed(sender, fb_for(MSS, fb_seq=8))     # plain reordering
        assert sender.guard.total == 0

    def test_huge_skip_does_not_poison_high_water(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, fb_seq=10))
        feed(sender, fb_for(MSS, fb_seq=10 + 100_000))
        assert sender.guard.counts["fb_seq_skip"] == 1
        # The bogus skip must not turn later legitimate fb_seq values
        # into replays.
        feed(sender, fb_for(MSS, fb_seq=11))
        assert "fb_seq_replay" not in sender.guard.counts

    def test_frozen_fb_seq_run_is_replay(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        for _ in range(9):
            feed(sender, fb_for(MSS, fb_seq=7))
        assert sender.guard.counts.get("fb_seq_replay", 0) >= 1

    def test_route_flip_lateness_tolerated(self, sim):
        """Under per-packet acking a +delta route flip delays honest
        frames by (delta x fb rate) positions — the replay window must
        scale with the observed feedback rate."""
        sender, _ = established_sender(sim)
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        for i in range(300):                    # ~1000 frames/s
            sim.run(until=sim.now() + 0.001)
            feed(sender, fb_for(MSS, fb_seq=1000 + i))
        # 500 frames late: past the 256-frame floor, inside the
        # rate-scaled window (~2000 at this feedback rate).
        feed(sender, fb_for(MSS, fb_seq=1299 - 500))
        assert "fb_seq_replay" not in sender.guard.counts

    def test_network_dup_tolerated(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, fb_seq=7))
        feed(sender, fb_for(MSS, fb_seq=7))     # one duplicate is normal
        assert sender.guard.total == 0


class TestRangeRules:
    def test_sack_beyond_snd_nxt_dropped(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        nxt = sender.next_seq
        feed(sender, fb_for(MSS, sack_blocks=[(nxt + MSS, nxt + 2 * MSS)]))
        assert sender.guard.counts["sack_range"] == 1
        # the bogus block must not have marked anything sacked
        assert all(rec.state != SACKED for rec in sender.records.values())

    def test_good_and_bad_blocks_split(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        nxt = sender.next_seq
        feed(sender, fb_for(0, sack_blocks=[(MSS, 2 * MSS),
                                            (nxt + MSS, nxt + 2 * MSS)]))
        assert sender.guard.counts["sack_range"] == 1
        rec = sender.records.get(MSS)
        assert rec is not None and rec.state == SACKED   # in-range block survived

    def test_unacked_range_violation_counted(self, sim):
        sender, port = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        nxt = sender.next_seq
        feed(sender, fb_for(MSS, unacked_blocks=[(nxt, nxt + MSS)]),
             kind=PacketType.TACK)
        assert sender.guard.counts["unacked_range"] == 1

    # Edges of [0, snd_nxt) with snd_nxt = 4 * MSS, and one step past.
    EDGES = (-1, 0, 1, MSS, 4 * MSS - 1, 4 * MSS, 4 * MSS + 1)
    BLOCKS = st.lists(st.tuples(st.sampled_from(EDGES),
                                st.sampled_from(EDGES)), max_size=4)

    @settings(max_examples=200, deadline=None)
    @given(sack=BLOCKS, unacked=BLOCKS)
    def test_in_place_check_agrees_with_the_helper(self, sack, unacked):
        """``admit`` tests each block list in place and calls
        ``_admit_blocks`` only for a list holding a bad block; the
        helper keeps exactly the good blocks and counts one violation.
        Both must read the same bounds."""
        sim = Simulator(seed=1)
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        assert sender.next_seq == 4 * MSS
        guard = sender.guard
        helper, called = guard._admit_blocks, []
        guard._admit_blocks = lambda attr, rule: (called.append(attr),
                                                  helper(attr, rule))

        def good(block):
            return 0 <= block[0] < block[1] <= 4 * MSS

        out = guard.admit(fb_for(0, sack_blocks=list(sack),
                                 unacked_blocks=list(unacked)), sim.now())
        lists = (("sack_blocks", "sack_range", sack),
                 ("unacked_blocks", "unacked_range", unacked))
        assert called == [attr for attr, _, blocks in lists
                          if not all(map(good, blocks))]
        for attr, rule, blocks in lists:
            assert getattr(out, attr) == [b for b in blocks if good(b)]
            assert guard.counts.get(rule, 0) == (not all(map(good, blocks)))


class TestPullRules:
    def test_out_of_range_pull_ignored(self, sim):
        sender, port = tack_sender(sim)
        sender.set_total(6 * MSS)
        sim.run(until=0.05)
        port.sent.clear()
        top = sender.next_pkt_seq - 1
        feed(sender, fb_for(0, pull_pkt_range=(top, top + 1000),
                            largest_pkt_seq=top),
             kind=PacketType.IACK)
        sim.run(until=0.2)
        assert sender.guard.counts["pull_range"] == 1
        retx = [p for p in port.sent
                if p.kind is PacketType.DATA and p.payload_len]
        assert sender.stats.retransmissions == 0 or not retx

    def test_bogus_largest_pkt_seq_stripped(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(6 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(0, largest_pkt_seq=sender.next_pkt_seq + 99),
             kind=PacketType.TACK)
        assert sender.guard.counts["pull_range"] == 1

    def test_repulling_same_range_is_free(self, sim):
        """A legitimate receiver re-pulls the same loss range every
        TACK until it fills; only newly named space is charged."""
        sender, _ = tack_sender(sim)
        sender.set_total(6 * MSS)
        sim.run(until=0.05)
        top = sender.next_pkt_seq - 1
        assert top >= 2
        for _ in range(400):
            feed(sender, fb_for(0, pull_pkt_range=(1, top)),
                 kind=PacketType.IACK)
        assert "pull_flood" not in sender.guard.counts

    def test_pull_budget_floods_counted(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(6 * MSS)
        sim.run(until=0.05)
        # Pretend a long history of sent PKT.SEQs so a whole-horizon
        # pull is in range but far beyond the unacked horizon: hull
        # growth blows the budget floor in one frame.
        sender.next_pkt_seq = 100_000
        feed(sender, fb_for(0, pull_pkt_range=(0, 99_999)),
             kind=PacketType.IACK)
        assert sender.guard.counts.get("pull_flood", 0) >= 1


class TestTimingRules:
    def test_unstamped_echo_stripped(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        before = sender.current_rtt_min()
        feed(sender, fb_for(MSS, echo_departure_ts=sim.now() - 1e-6,
                            tack_delay=0.0),
             kind=PacketType.TACK)
        assert sender.guard.counts["echo_ts"] == 1
        assert sender.current_rtt_min() == before

    def test_real_stamp_with_inflated_delay_stripped(self, sim):
        sender, port = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        ts = next(p.sent_at for p in port.sent
                  if p.kind is PacketType.DATA)
        # Claimed hold delay exceeds the whole time since departure:
        # accepting it would fake a negative path RTT.
        feed(sender, fb_for(MSS, echo_departure_ts=ts,
                            tack_delay=(sim.now() - ts) + 5.0),
             kind=PacketType.TACK)
        assert sender.guard.counts["tack_delay"] == 1

    def test_honest_echo_accepted(self, sim):
        sender, port = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        ts = next(p.sent_at for p in port.sent
                  if p.kind is PacketType.DATA)
        feed(sender, fb_for(MSS, echo_departure_ts=ts,
                            tack_delay=(sim.now() - ts) / 2),
             kind=PacketType.TACK)
        assert sender.guard.total == 0

    def test_poisoned_packet_delays_filtered(self, sim):
        sender, port = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, packet_delays=[(sim.now() - 1e-5, 0.0)]),
             kind=PacketType.TACK)
        assert sender.guard.counts["echo_ts"] == 1


stamp_steps = st.lists(st.one_of(
    # Departures: a time step (0 repeats the last time) and how many.
    st.tuples(st.just("send"),
              st.sampled_from([0.0, 1e-4, 1e-3, 4e-3, 0.02, 0.07]),
              st.integers(1, 3)),
    # An admit some time after the last departure, asking about stamps
    # that were sent (echoable or aged out) or never sent.
    st.tuples(st.just("admit"), st.sampled_from([0.0, 1e-3, 0.3]),
              st.lists(st.tuples(st.sampled_from(["sent", "never"]),
                                 st.integers(0, 1 << 20)),
                       min_size=1, max_size=4)),
), min_size=1, max_size=150)


class TestStampStoreOracle:
    """The echo_ts ground truth is one append-only list, pruned only
    when asked and when it has doubled; at every admit it must echo
    exactly what the parent's set + deque
    (``tests/stamp_store_oracle.py``) echoed."""

    @given(st.sampled_from([0.005, 0.03, 0.2]), stamp_steps)
    @settings(max_examples=200, deadline=None)
    def test_admit_answers_what_the_set_and_deque_answered(self, window,
                                                           steps):
        sim = Simulator(seed=1, simsan=False)
        never = 10 ** 9     # no rule may escalate mid-example
        sender, _ = tack_sender(sim, guard=GuardConfig(
            echo_window_s=window, strict=False, escalate_after=never,
            escalate_total=never, escalate_consecutive=never))
        guard = sender.guard
        oracle = SetDequeStampStore(window)
        sent: list[float] = []
        t = sim.now()

        def ask(kind, k):
            # A sent stamp (echoable or aged out), or a time just
            # before one, which no departure ever had.
            ts = sent[k % len(sent)] if sent else t
            return ts if kind == "sent" and sent else ts - 1e-7

        for step in steps:
            if step[0] == "send":
                t += step[1]
                for _ in range(step[2]):
                    guard.on_data_sent(t, MSS)
                    oracle.on_data_sent(t)
                    sent.append(t)
            else:
                _, wait, queries = step
                asked = [ask(kind, k) for kind, k in queries]
                out = guard.admit(fb_for(0, echo_departure_ts=asked[0],
                                         packet_delays=[(ts, 0.0)
                                                        for ts in asked]),
                                  t + wait)
                assert ((out.echo_departure_ts is not None)
                        == oracle.stamped(asked[0]))
                assert [ts for ts, _ in out.packet_delays] == [
                    ts for ts in asked if oracle.stamped(ts)]
            # Unpruned, the list may still hold aged stamps, but it
            # never loses an echoable one.
            stamps, head = guard._stamps, guard._stamp_head
            horizon = stamps[-1] - window if stamps else 0.0
            assert ({ts for ts in stamps[head:] if ts >= horizon}
                    == oracle._stamps)


class TestRateRules:
    def test_implausible_delivery_rate_dropped(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, delivery_rate_bps=1e15),
             kind=PacketType.TACK)
        assert sender.guard.counts["rate"] == 1

    def test_negative_rate_dropped(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, delivery_rate_bps=-5.0),
             kind=PacketType.TACK)
        assert sender.guard.counts["rate"] == 1

    def test_rate_below_one_segment_per_lifetime_dropped(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        pacing_before = sender.pacer.rate_bps
        # One MSS over the ~30 ms since the first departure is ~400
        # kbps; 3.5 bps is what the field mangler writes.
        feed(sender, fb_for(MSS, delivery_rate_bps=3.5),
             kind=PacketType.TACK)
        assert sender.guard.counts["rate"] == 1
        assert sender.pacer.rate_bps >= pacing_before

    def test_slow_but_honest_rate_accepted(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, delivery_rate_bps=1e6),
             kind=PacketType.TACK)
        assert sender.guard.counts.get("rate", 0) == 0

    def test_rx_loss_rate_clamped(self, sim):
        sender, _ = tack_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS, rx_loss_rate=7.5), kind=PacketType.TACK)
        assert sender.guard.counts["rate"] == 1
        assert 0.0 <= sender.ack_loss.loss_rate <= 1.0


class TestEscalation:
    def test_per_rule_budget_aborts(self, sim):
        sender, _ = established_sender(
            sim, guard=GuardConfig(escalate_after=3, escalate_total=100,
                                   escalate_consecutive=100))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        for _ in range(3):
            feed(sender, fb_for(-1))            # cum_ack violation
            if sender.aborted is None:
                feed(sender, fb_for(0))         # clean frame: no run builds
        assert sender.aborted is not None
        assert sender.aborted.reason == "misbehaving_peer"
        assert sender.guard.escalation_rule == "cum_ack"

    def test_consecutive_run_aborts_before_count_budget(self, sim):
        """A rule firing on every frame escalates by run length even
        when the absolute budget is far away (RTO-cadence starvation)."""
        sender, _ = established_sender(
            sim, guard=GuardConfig(escalate_after=10_000,
                                   escalate_total=100_000,
                                   escalate_consecutive=4))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        for _ in range(4):
            feed(sender, fb_for(-1))
        assert sender.aborted is not None
        assert sender.aborted.reason == "misbehaving_peer"

    def test_interleaved_violations_do_not_build_a_run(self, sim):
        sender, _ = established_sender(
            sim, guard=GuardConfig(escalate_consecutive=3))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        for _ in range(5):
            feed(sender, fb_for(-1))            # cum_ack violation
            feed(sender, fb_for(0))             # clean frame resets run
        assert sender.aborted is None

    def test_total_budget_aborts_across_rules(self, sim):
        sender, _ = established_sender(
            sim, guard=GuardConfig(escalate_after=100,
                                   escalate_total=4,
                                   escalate_consecutive=100))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(-1))
        feed(sender, fb_for(0, awnd=-2))
        feed(sender, fb_for(-1))
        feed(sender, fb_for(0, awnd=-2))
        assert sender.aborted is not None
        assert sender.aborted.reason == "misbehaving_peer"
        assert sender.aborted.detail and "rule" in sender.aborted.detail

    def test_strict_mode_aborts_on_first_violation(self, sim):
        sender, _ = established_sender(sim, guard=GuardConfig(strict=True))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(-1))
        assert sender.aborted is not None
        assert sender.aborted.reason == "misbehaving_peer"

    def test_strict_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD_STRICT", raising=False)
        assert resolve_strict(None) is False
        assert resolve_strict(True) is True
        monkeypatch.setenv("REPRO_GUARD_STRICT", "1")
        assert resolve_strict(None) is True
        assert resolve_strict(False) is False
        monkeypatch.setenv("REPRO_GUARD_STRICT", "0")
        assert resolve_strict(None) is False


class TestTelemetryRateLimit:
    """Satellite (b): per-rule violation traces are bounded; the
    summary event carries the authoritative totals."""

    @pytest.fixture
    def collector(self):
        return TraceCollector()

    @pytest.fixture
    def sim(self, collector):
        return Simulator(seed=42, telemetry=collector)

    def test_trace_limit_bounds_events(self, sim, collector):
        sender, _ = established_sender(
            sim, guard=GuardConfig(trace_limit=3, escalate_after=10_000,
                                   escalate_total=100_000,
                                   escalate_consecutive=10_000))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        for _ in range(20):
            feed(sender, fb_for(-1))
        events = [e for e in collector.events()
                  if e.category == "guard" and e.name == "violation"]
        assert len(events) == 3
        assert sender.guard.counts["cum_ack"] == 20

    def test_summary_event_at_close(self, sim, collector):
        sender, _ = established_sender(
            sim, guard=GuardConfig(escalate_after=10_000,
                                   escalate_total=100_000,
                                   escalate_consecutive=10_000))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        for _ in range(7):
            feed(sender, fb_for(-1))
        sender.close()
        summaries = [e for e in collector.events()
                     if e.category == "guard" and e.name == "summary"]
        assert len(summaries) == 1
        assert summaries[0].fields["cum_ack"] == 7
        assert summaries[0].fields["total"] == 7

    def test_clean_run_emits_no_guard_events(self, sim, collector):
        sender, _ = established_sender(sim)
        sender.set_total(2 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(2 * MSS))
        sender.close()
        assert not [e for e in collector.events() if e.category == "guard"]


class TestWatchdog:
    def cfg(self, **kw):
        base = dict(watchdog_floor_s=0.2, watchdog_cap_s=0.2,
                    watchdog_probes=2)
        base.update(kw)
        return GuardConfig(**base)

    def test_withholding_aborts_misbehaving_peer(self, sim):
        sender, port = established_sender(sim, guard=self.cfg())
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS))     # one feedback, then total silence
        sim.run(until=10.0)
        assert sender.aborted is not None
        assert sender.aborted.reason == "misbehaving_peer"
        assert sender.stats.watchdog_probes >= 3
        assert sender.guard.counts["withheld"] >= 3

    def test_probes_do_not_drain_escalation_budget(self, sim):
        """Watchdog probes count under 'withheld' but never toward the
        violation escalation totals (legit blackouts probe too)."""
        sender, port = established_sender(
            sim, guard=self.cfg(watchdog_probes=1000))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS))
        sim.run(until=3.0)
        assert sender.stats.watchdog_probes >= 2
        assert sender.guard.total == 0
        assert not sender.guard.escalated

    def test_dead_path_never_probes_twice(self, sim):
        """When the link refuses sends (blackout), the probe gate
        (accepted sends since last probe) blocks repeat probes, so the
        honest rto_exhausted wins — not misbehaving_peer."""
        sender, port = established_sender(sim, guard=self.cfg())
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS))
        port.accept = False           # path goes dark at ingress
        sim.run(until=60.0)
        assert sender.stats.watchdog_probes <= 1
        if sender.aborted is not None:
            assert sender.aborted.reason != "misbehaving_peer"

    def test_feedback_resets_probe_count(self, sim):
        sender, port = established_sender(
            sim, guard=self.cfg(watchdog_probes=2))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS))
        sim.run(until=0.5)            # a probe or two fire
        feed(sender, fb_for(2 * MSS))
        assert sender._wd_probes == 0
        assert sender.aborted is None

    def test_watchdog_disabled(self, sim):
        sender, _ = established_sender(
            sim, guard=self.cfg(watchdog=False))
        sender.set_total(8 * MSS)
        sim.run(until=0.05)
        feed(sender, fb_for(MSS))
        sim.run(until=10.0)
        assert sender.stats.watchdog_probes == 0


class TestCloneFeedback:
    def test_clone_is_deep_enough(self):
        fb = fb_for(MSS, sack_blocks=[(1, 2)], packet_delays=[(0.1, 0.2)])
        cp = clone_feedback(fb)
        cp.sack_blocks.append((3, 4))
        cp.cum_ack = 0
        assert fb.sack_blocks == [(1, 2)]
        assert fb.cum_ack == MSS

    def test_guard_never_mutates_receiver_frame(self, sim):
        sender, _ = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.05)
        fb = fb_for(sender.next_seq + 10 * MSS)
        feed(sender, fb)
        # the receiver's object still carries the hostile value; the
        # sender sanitized a clone
        assert fb.cum_ack == sender.next_seq + 10 * MSS
