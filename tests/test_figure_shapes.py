"""The committed figure tables have the paper's shapes.

``python -m repro.experiments.run_all`` is the one writer of
``benchmarks/results/*.txt`` and git holds the committed bytes.  This
module simulates nothing: it parses those files back into
:class:`~repro.experiments.table.Table` objects and asserts, per table,
the paper-shape claim (who wins, how trends move, where regimes change).
Tier-1 therefore proves "the committed tables have the paper's shapes";
CI's ``figures`` job proves "the code still produces the committed
tables" (``run_all`` then ``git diff --exit-code``) and runs this
module again on the fresh files.
"""

import pathlib
import re

import pytest

from repro.experiments.run_all import experiment_plan
from repro.experiments.table import Table

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"

# What Table._fmt can print for a number: an int through str() (no
# separators), a float through "{:,.2f}" with trailing zeros stripped,
# or a small float through "{:.2e}".
_INT = re.compile(r"-?\d+")
_FLOAT = re.compile(r"-?(\d+|\d{1,3}(,\d{3})+)(\.\d+)?(e[+-]\d+)?")


def parse_cell(text: str):
    """Invert ``Table._fmt``: ``-`` is a missing cell, digits an int,
    anything else numeric a float, the rest a string."""
    if text == "-":
        return None
    if _INT.fullmatch(text):
        return int(text)
    if _FLOAT.fullmatch(text):
        return float(text.replace(",", ""))
    return text


def parse_table(text: str) -> Table:
    """Invert ``Table.format_text``.  Columns are the runs of the dashes
    line, so cells that contain spaces (``below threshold``) stay whole."""
    lines = text.rstrip("\n").split("\n")
    title, rule, header, dashes = lines[:4]
    assert rule == "=" * len(title), "not a Table.format_text file"
    spans = [m.span() for m in re.finditer(r"-+", dashes)]
    body, _, note = "\n".join(lines[4:]).partition("\n\n")
    table = Table(title, [header[a:b].strip() for a, b in spans],
                  note=note or None)
    for line in body.split("\n"):
        table.add_row(**{column: parse_cell(line[a:b].strip())
                         for column, (a, b) in zip(table.columns, spans)})
    return table


def load_table(name: str) -> Table:
    return parse_table((RESULTS_DIR / f"{name}.txt").read_text())


SHAPES = {}


def shape(check):
    """Register ``check`` as the paper-shape case of the ``run_all``
    task it is named after."""
    SHAPES[check.__name__] = check
    return check


# --- E1-E18: the paper's figures ------------------------------------------

@shape
def fig01_goodput_wlan(table):
    tack = table.column("tack_mbps")
    bbr = table.column("bbr_mbps")
    improv = table.column("improve_%")
    reduction = table.column("ack_reduction_%")
    # Paper shape: TACK wins on every standard ...
    assert all(t > b for t, b in zip(tack, bbr))
    # ... the absolute gain grows with PHY rate ...
    gains = [t - b for t, b in zip(tack, bbr)]
    assert gains == sorted(gains)
    # ... and the n/ac standards shed >90% of ACKs.
    assert all(r > 90.0 for r in reduction[2:])
    assert all(i > 5.0 for i in improv)


@shape
def fig02_bitrates(table):
    for row in table.rows:
        assert abs(row["source_model_mbps"] - row["paper_mbps"]) / row["paper_mbps"] < 0.02


@shape
def fig03_contention(table):
    data = table.column("data_mbps")
    acks = table.column("ack_mbps")
    coll = table.column("collision_rate_%")
    # Paper shape: data throughput declines as ACK frequency rises ...
    assert data[0] > data[-1]
    # ... the ACK path saturates below 1.5 Mbps and fails to double
    # between 4:1 and 2:1 ...
    assert all(a < 1.5 for a in acks)
    assert acks[-1] < 1.8 * acks[-3]
    # ... and collisions grow severalfold from 16:1 to 1:1.
    assert coll[-1] > 2 * coll[0]


@shape
def fig03_contention_rate_adaptation(table):
    # Extension: Minstrel-lite rate adaptation amplifies the decline to
    # the paper's magnitude (~100 -> ~75 Mbps at 1:1).
    data = table.column("data_mbps")
    assert data[0] > 95.0
    assert data[-1] < 82.0  # paper: ~75 at 1:1


@shape
def fig05a_holb(table):
    # Paper shape: the with-IACK CDF sits far left of the without-IACK
    # CDF at the tail percentiles.
    by_pct = {row["percentile"]: row for row in table.rows}
    assert by_pct["p90"]["without_iack"] > 2 * max(by_pct["p90"]["with_iack"], 1)
    assert by_pct["p99"]["without_iack"] > 2 * max(by_pct["p99"]["with_iack"], 1)


@shape
def fig05b_rich_info(table):
    rich = table.column("tack_rich")
    poor = table.column("tack_poor")
    # Paper shape: TACK-rich stays within a few points of its
    # low-ack-loss utilization even at 10% ...
    assert rich[-1] > rich[0] - 10
    assert all(r > 85 for r in rich)
    # ... while TACK-poor collapses at heavy ACK loss (paper: 60.6%).
    assert poor[-1] < rich[-1] - 15
    # At low ACK loss poor and rich are equivalent (Q=1 suffices).
    assert poor[0] > rich[0] - 10


@shape
def fig06a_rttmin(table):
    by_method = {row["method"]: row for row in table.rows}
    advanced = by_method["advanced (TACK)"]["bias_%"]
    naive = by_method["naive sampling"]["bias_%"]
    # Paper shape: naive sampling overestimates RTT_min by 8-18%; the
    # advanced timing lands within a couple of percent.
    assert naive > advanced
    assert naive > 4.0
    assert -1.0 < advanced < 6.0


@shape
def fig06b_owd_loss(table):
    by_timing = {row["timing"]: row for row in table.rows}
    adv, naive = by_timing["advanced"], by_timing["naive"]
    # The correction is free: goodput parity and no tail-delay cost
    # beyond noise (the paper's deployment saw gains; see the
    # documented deviation in EXPERIMENTS.md).
    assert adv["goodput_mbps"] > 0.95 * naive["goodput_mbps"]
    assert adv["owd95_ms"] < 1.1 * naive["owd95_ms"]
    # The reproducible mechanism: the advanced estimate sits clearly
    # below the naive one and nearer the true 100 ms minimum (exact
    # tracking is verified on the WLAN microbenchmark in fig06a; a
    # wired BBR standing queue keeps both above the floor here).
    assert adv["rtt_min_ms"] < naive["rtt_min_ms"] - 10.0
    assert adv["rtt_min_ms"] >= 100.0


@shape
def fig08a_ack_reduction(table):
    # Paper shape: faster PHY -> larger reduction; larger RTT -> larger
    # reduction.
    for col in ("delta_f@10ms", "delta_f@80ms", "delta_f@200ms"):
        vals = table.column(col)
        assert vals == sorted(vals)
    for row in table.rows:
        assert row["delta_f@10ms"] <= row["delta_f@80ms"] <= row["delta_f@200ms"]


@shape
def fig08b_measured_frequency(table):
    for row in table.rows:
        # Measured TACK frequency within 40% of Eq. (3) (startup and
        # IACK noise included).
        assert row["measured_hz"] == pytest.approx(row["analytic_hz"], rel=0.4)


@shape
def fig09a_improvement(table):
    # Paper shape: the improvement grows with the PHY rate.
    for col in ("improve@80ms", "improve@200ms"):
        vals = table.column(col)
        assert vals[-1] > vals[0]
        assert all(v > -0.5 for v in vals)


@shape
def fig09b_ideal_goodput(table):
    rows = {row["policy"]: row["ideal_goodput_mbps"] for row in table.rows}
    tack = next(v for k, v in rows.items() if k.startswith("TACK"))
    # Paper shape: ideal goodput rises monotonically with L, and TACK
    # approaches the UDP upper bound.
    l_series = [rows[f"TCP (L={L})"] for L in (1, 2, 4, 8, 16)]
    assert all(b >= a - 0.5 for a, b in zip(l_series, l_series[1:]))
    assert tack >= l_series[-1] - 0.5
    assert tack > 0.97 * rows["UDP baseline"]


@shape
def fig10b_actual_goodput(table):
    rows = {row["policy"]: row["goodput_mbps"] for row in table.rows}
    # Paper shape: TACK beats every legacy variant, including the
    # aggressively thinned ones (whose control loops are disturbed).
    legacy_best = max(v for k, v in rows.items() if k.startswith("TCP"))
    assert rows["TACK (L=2)"] > legacy_best
    # Thinning to L=16 must NOT give legacy TCP the ideal-trend boost
    # over L=2 (Fig. 9(b) would predict ~+25 Mbps; the actual gain is
    # small or negative).
    assert rows["TCP (L=16)"] < rows["TCP (L=2)"] + 20.0


@shape
def fig11_miracast(table):
    rows = {row["transport"]: row for row in table.rows}
    # Paper shape: RTP never rebuffers but macroblocks; reliable TCP
    # never macroblocks; TACK's rebuffering is the lowest among the
    # reliable transports.
    assert rows["RTP+UDP"]["rebuffering_%"] == 0.0
    assert rows["RTP+UDP"]["macroblock_per_30min"] > 0
    for transport in ("TCP CUBIC", "TCP BBR", "TCP-TACK"):
        assert rows[transport]["macroblock_per_30min"] == 0.0
    assert (
        rows["TCP-TACK"]["rebuffering_%"]
        <= min(rows["TCP CUBIC"]["rebuffering_%"], rows["TCP BBR"]["rebuffering_%"])
    )
    assert rows["TCP CUBIC"]["rebuffering_%"] > rows["TCP-TACK"]["rebuffering_%"]


@shape
def fig13_hybrid(table):
    by_case: dict = {}
    for row in table.rows:
        by_case.setdefault(row["case"], {})[row["scheme"]] = row
    for case, entry in by_case.items():
        tack, bbr = entry["tcp-tack"], entry["tcp-bbr"]
        # Paper shape: TACK wins every case and sends far fewer ACKs.
        assert tack["goodput_mbps"] > bbr["goodput_mbps"], f"case {case}"
        assert tack["acks"] < 0.35 * bbr["acks"], f"case {case}"
    # The long-RTT cases shrink TACK's ACK count dramatically
    # (Eq. (3): higher RTT -> lower frequency).
    assert by_case[3]["tcp-tack"]["acks"] < by_case[1]["tcp-tack"]["acks"]
    # Loss adds IACKs on the return path (paper: case 4 >> case 3).
    assert by_case[4]["tcp-tack"]["acks"] > by_case[3]["tcp-tack"]["acks"]


@shape
def fig14_pantheon(table):
    ranks = {row["scheme"]: row["mean_rank"] for row in table.rows}
    # Paper claim (S6.6): TACK "achieves acceptable performance in the
    # WAN scenarios" — it ranks near the top of the field on the power
    # metric, ahead of the loss-based schemes.
    assert ranks["tcp-tack"] < ranks["tcp-cubic"]
    assert ranks["tcp-tack"] < ranks["tcp-reno"]
    ordered = sorted(ranks.values())
    assert ranks["tcp-tack"] <= ordered[2]  # top-3 mean rank
    # And reducing ACK frequency did not cost WAN performance: TACK is
    # within one rank of the best scheme on average.
    assert ranks["tcp-tack"] - ordered[0] <= 1.0


@shape
def fig15_friendliness(table):
    rows = {row["pairing"]: row for row in table.rows}
    # Paper shape: TACK-BBR shares with CUBIC about as (un)fairly as
    # standard BBR does — TACK is an ACK mechanism, not a new
    # controller; and both flows always get a usable share.
    bbr_cubic = rows["BBR vs CUBIC"]
    tack_cubic = rows["TACK vs CUBIC"]
    assert abs(tack_cubic["ratio_a"] - bbr_cubic["ratio_a"]) < 0.8
    for row in table.rows:
        assert row["ratio_a"] > 0.2
        assert row["ratio_b"] > 0.2
        assert row["ratio_a"] + row["ratio_b"] < 2.3


@shape
def fig16_beta_analytic(table):
    rows = {row["beta"]: row for row in table.rows}
    # Paper S7: beta=2 needs one bdp of buffer; beta=4 needs 0.33 bdp.
    assert rows[2]["buffer_bdp"] == pytest.approx(1.0)
    assert rows[4]["buffer_bdp"] == pytest.approx(1 / 3, abs=0.01)


@shape
def fig16_beta_simulated(table):
    rows = {row["beta"]: row for row in table.rows}
    # beta=1 degenerates toward stop-and-wait; beta>=2 utilizes well,
    # and the ACK rate grows with beta.
    assert rows[1]["utilization_%"] < rows[4]["utilization_%"]
    assert rows[4]["utilization_%"] > 85.0
    assert rows[8]["acks_per_s"] > rows[2]["acks_per_s"]


@shape
def fig17a_vs_bandwidth(table):
    # Paper shape: TACK plateaus at beta/RTT_min past the pivot.
    col = table.column("tack@80ms")
    assert col[-1] == col[-2] == 50.0
    # Before the pivot TACK scales with bandwidth like byte counting.
    assert col[0] < col[1] < 50.0 or col[1] == 50.0


@shape
def fig17b_vs_rtt(table):
    # TCP's frequency is RTT-independent; TACK's falls as 1/RTT after
    # the pivot.
    tcp = table.column("tcp@100M")
    assert len(set(tcp)) == 1
    tack = table.column("tack@100M")
    assert tack[-1] < tack[0]


@shape
def eq06_analytic(table):
    # Higher data loss or larger bdp -> lower ACK-loss threshold.
    thresholds = table.column("threshold_%")
    assert thresholds[1] > thresholds[3]


@shape
def eq06_simulated(table):
    rows = {row["relation"]: row for row in table.rows}
    below = rows["below threshold"]
    above = rows["above threshold"]
    # Below the threshold Q=1 suffices (poor ~= rich).
    assert below["poor_util_%"] > below["rich_util_%"] - 10
    # Above it the rich blocks earn their keep: Q=1 visibly loses, but
    # degraded and alive as in paper Fig. 5(b) (60.6% at 10% ACK loss),
    # never the near-stall (1.49%) last-resort recovery now prevents.
    assert above["rich_util_%"] - above["poor_util_%"] >= 20
    assert above["poor_util_%"] >= 20


# --- ablations (DESIGN.md section 6) --------------------------------------

@shape
def ablation_beta_l(table):
    rows = {(r["beta"], r["L"]): r for r in table.rows}
    # The default (4, 2) stays near the best goodput.  beta=2 can edge
    # it out on a clean WLAN (even fewer contentions) — the paper picks
    # beta=4 for robustness, not peak goodput (Appendix B.3).
    best = max(r["goodput_mbps"] for r in table.rows)
    assert rows[(4.0, 2)]["goodput_mbps"] > 0.85 * best
    # ACK rate scales with beta in the periodic regime.
    assert rows[(8.0, 2)]["acks_per_s"] > rows[(2.0, 2)]["acks_per_s"]


@shape
def ablation_pacing(table):
    rows = {r["mode"]: r for r in table.rows}
    # Bursts overflow the shallow buffer: more retransmissions and no
    # goodput benefit versus pacing (paper S5.3).
    assert rows["burst"]["retx"] > rows["paced"]["retx"]
    assert rows["paced"]["goodput_mbps"] >= 0.95 * rows["burst"]["goodput_mbps"]


@shape
def ablation_governor(table):
    rows = {r["governor"]: r for r in table.rows}
    # Without the once-per-RTT rule the same holes are retransmitted
    # repeatedly: duplicates blow up at no goodput gain.
    assert rows["off"]["duplicates"] > 2 * max(rows["on"]["duplicates"], 1)
    assert rows["on"]["goodput_mbps"] >= 0.9 * rows["off"]["goodput_mbps"]


@shape
def ablation_rpc_latency(table):
    lat = {r["L"]: r["p95_ack_latency_ms"] for r in table.rows}
    # Large L delays the tail ACK of each thin response (paper B.3's
    # reason to keep L = 2 and offer an L = 1 option).
    assert lat[8] > lat[2]


# --- extensions -----------------------------------------------------------

@shape
def ext_tcp_splitting(table):
    rows = {row["deployment"]: row for row in table.rows}
    e2e_tack = rows["end-to-end TCP-TACK"]
    split = rows["split: BBR (WAN) + TACK (WLAN)"]
    # On a lossy WAN, splitting inherits the legacy segment's weakness:
    # end-to-end TACK keeps its advantage...
    assert e2e_tack["goodput_mbps"] > split["goodput_mbps"]
    # ...and splitting gives up end-to-end reliability: the proxy holds
    # bytes the server already believes delivered.
    assert split["proxy_held_kb"] > 0
    assert e2e_tack["proxy_held_kb"] == 0


@shape
def ext_multiflow(table):
    for row in table.rows:
        # TACK wins at every client count...
        assert row["tack_mbps"] > row["bbr_mbps"]
        # ...and both schemes share the AP fairly (per-RA queues).
        assert row["tack_fairness"] > 0.9
        assert row["bbr_fairness"] > 0.9
    # Aggregate capacity holds up as clients multiply (no collapse).
    tack = table.column("tack_mbps")
    assert tack[-1] > 0.75 * tack[0]


@shape
def ext_asymmetric(table):
    bbr = table.column("bbr_mbps")
    tack = table.column("tack_mbps")
    # Legacy TCP degrades monotonically as the uplink thins...
    assert bbr == sorted(bbr, reverse=True)
    assert bbr[-1] < 0.25 * bbr[0]
    # ...while TACK barely notices down to a 250 kbps uplink and still
    # keeps most of its goodput at 100 kbps (a 1000:1 asymmetry).
    assert tack[-2] > 0.9 * tack[0]
    assert tack[-1] > 0.6 * tack[0]
    # And TACK's ACK load fits even the thinnest uplink.
    assert all(k < 100 for k in table.column("tack_ack_kbps"))


@shape
def ext_fleet(table):
    by_load: dict = {}
    for row in table.rows:
        by_load.setdefault(row["load_hz"], {})[row["scheme"]] = row
    assert len(by_load) == 3
    # The tame-the-ACKs thesis at population scale: at every offered
    # load TACK sends fewer ACKs per data packet than delayed-ACK BBR
    # and spends a smaller share of the radio's airtime on them.
    for load_hz, entry in by_load.items():
        tack, bbr = entry["tcp-tack"], entry["tcp-bbr"]
        assert tack["ack_per_data"] < bbr["ack_per_data"], f"{load_hz} Hz"
        assert tack["ack_airtime_share"] < bbr["ack_airtime_share"], f"{load_hz} Hz"


# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape(name):
    SHAPES[name](load_table(name))


def committed_tables():
    return sorted(RESULTS_DIR.glob("*.txt"))


def test_plan_tables_and_shapes_are_one_set():
    """One plan, one committed table per task, one shape case per table."""
    planned = {name for name, _ in experiment_plan(False)}
    committed = {path.stem for path in committed_tables()}
    assert planned == committed
    assert committed == set(SHAPES)


@pytest.mark.parametrize("path", committed_tables(), ids=lambda p: p.stem)
def test_parser_round_trips(path):
    """Parsing a committed table and rendering it again through
    ``Table.format_text`` reproduces the file byte for byte."""
    text = path.read_text()
    assert parse_table(text).format_text() + "\n" == text


def test_parse_cell_inverts_fmt():
    for value in (None, 0, 38000, -7, 0.0, 1.5, -0.25, 183800.0, 250000.0,
                  24583.33, 0.001, -0.0042, "below threshold", "TACK vs BBR",
                  "5-6", "16:1", "802.11ac", "TACK (L=2) ~1:350"):
        text = Table._fmt(value)
        assert Table._fmt(parse_cell(text)) == text
    assert parse_cell("-") is None
    assert parse_cell("1.00e-03") == 0.001
    assert parse_cell("7,170,040") == 7170040.0
    assert isinstance(parse_cell("38000"), int)
    assert parse_cell("1,00") == "1,00"  # not a _fmt number: stays text
