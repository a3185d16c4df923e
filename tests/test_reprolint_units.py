"""Tests for the unit/dimension checker (REP101-REP105): the unit
algebra, the catalog, golden-file fixtures, the inter-procedural call
graph, and the engine."""

import ast
import re
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.engine import PragmaSet, _extract_pragmas
from repro.lint.findings import Finding
from repro.lint.units import (
    BPS,
    BYTES,
    DIMENSIONLESS,
    HZ,
    PKTS,
    SECONDS,
    analyze_units,
    name_unit,
    signature,
)

FIXTURES = Path(__file__).parent / "fixtures" / "units"

#: A strict-scope (simulation) path, so REP105 applies to a fixture.
STRICT = "src/repro/netsim/{}"


def analyze(*paths: Path, strict: bool = True):
    """Unit findings for fixture files, each under a strict-scope path
    when *strict* (findings then name that path)."""
    trees = [(STRICT.format(p.name) if strict else str(p),
              ast.parse(p.read_text())) for p in paths]
    return analyze_units(trees)

_EXPECT_RE = re.compile(r"#\s*expect:\s*(REP\d{3})")


def expected_findings(path: Path):
    """``(line, code)`` pairs from ``# expect: REPxxx`` markers."""
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for code in _EXPECT_RE.findall(line):
            out.append((lineno, code))
    return sorted(out)


def actual_findings(findings, path):
    return sorted((f.line, f.code) for f in findings
                  if f.path == str(path))


# ----------------------------------------------------------------------
# unit algebra
# ----------------------------------------------------------------------
class TestAlgebra:
    def test_parse_named_units(self):
        assert name_unit("rtt_s") == SECONDS
        assert name_unit("size_bytes") == BYTES
        assert name_unit("rate_bps") == BPS
        assert name_unit("tack_hz") == HZ
        assert name_unit("cwnd_pkts") == PKTS

    def test_scale_aliases_share_dimension(self):
        assert name_unit("rtt_ms") == SECONDS
        assert name_unit("delay_us") == SECONDS
        assert name_unit("size_bits") == BYTES
        assert name_unit("rate_mbps") == BPS

    def test_quotient_simplification(self):
        assert BYTES.div(SECONDS) == BPS
        assert BPS.mul(SECONDS) == BYTES

    def test_hz_is_inverse_seconds(self):
        assert SECONDS.invert() == HZ
        assert DIMENSIONLESS.div(SECONDS) == HZ
        assert SECONDS.mul(HZ).is_dimensionless

    def test_commutativity(self):
        assert SECONDS.mul(BPS) == BPS.mul(SECONDS)
        assert BYTES.mul(HZ) == HZ.mul(BYTES)

    def test_self_division_is_dimensionless(self):
        assert SECONDS.div(SECONDS).is_dimensionless
        assert BPS.div(BPS).is_dimensionless

    def test_pow(self):
        assert SECONDS.pow(2).div(SECONDS) == SECONDS
        assert SECONDS.pow(0).is_dimensionless

    def test_compatible(self):
        assert SECONDS.compatible(SECONDS)
        assert not SECONDS.compatible(BYTES)
        assert DIMENSIONLESS.compatible(DIMENSIONLESS)

    def test_display(self):
        assert str(SECONDS) == "s"
        assert str(BYTES.div(SECONDS)) == "bps"
        assert str(SECONDS.invert()) == "hz"


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_suffix_lookup(self):
        assert name_unit("rtt_s") == SECONDS
        assert name_unit("queue_bytes") == BYTES
        assert name_unit("rate_bps") == BPS
        assert name_unit("loss_fraction") == DIMENSIONLESS

    def test_prefix_counter_idiom(self):
        assert name_unit("bytes_delivered") == BYTES
        assert name_unit("packets_lost") == PKTS

    def test_exact_names(self):
        assert name_unit("MSS") == BYTES
        assert name_unit("now") == SECONDS
        assert name_unit("nbytes") == BYTES

    def test_dimensionless_names_win(self):
        assert name_unit("beta") == DIMENSIONLESS
        assert name_unit("seed") == DIMENSIONLESS
        # the repo's own extra: a percentile rank p
        assert name_unit("p") == DIMENSIONLESS

    def test_bare_name_says_nothing(self):
        assert name_unit("value") is None

    def test_signature_leaf_fallback(self):
        params, returns = signature("Simulator.now")
        assert returns == SECONDS
        assert signature("no.such.thing") is None


# ----------------------------------------------------------------------
# golden fixtures, one file per rule
# ----------------------------------------------------------------------
class TestGoldenFixtures:
    @pytest.mark.parametrize("name", ["rep101", "rep102", "rep103",
                                      "rep104", "rep105"])
    def test_fixture_matches_markers(self, name):
        path = FIXTURES / f"{name}.py"
        findings = analyze(path)
        assert actual_findings(findings, STRICT.format(path.name)) == \
            expected_findings(path)
        own_code = name.upper()
        assert sum(1 for f in findings if f.code == own_code) >= 5

    def test_cross_module_inference(self):
        """A unit learned from a callee in one module is enforced at a
        call site in another module (the REP102 acceptance demo)."""
        producer = FIXTURES / "cross" / "producer.py"
        consumer = FIXTURES / "cross" / "consumer.py"
        findings = analyze(producer, consumer, strict=False)
        assert actual_findings(findings, producer) == []
        assert actual_findings(findings, consumer) == \
            expected_findings(consumer)
        assert all(f.code == "REP102" for f in findings)


# ----------------------------------------------------------------------
# pragma engine rework
# ----------------------------------------------------------------------
class TestPragmaEngine:
    def test_pragma_inside_string_is_inert(self):
        source = (
            "x = 1\n"
            "note = '# reprolint: disable=REP104'\n"
            "y = 2\n"
        )
        assert _extract_pragmas(source) == []

    def test_trailing_pragma_covers_logical_line(self):
        source = (
            "value = compute(\n"
            "    first,\n"
            "    second,\n"
            ")  # reprolint: disable=REP104\n"
        )
        [pragma] = _extract_pragmas(source)
        assert pragma.kind == "disable"
        assert pragma.span == (1, 4)
        assert pragma.codes == ("REP104",)

    def test_standalone_pragma_covers_only_its_line(self):
        source = (
            "# reprolint: disable=REP104\n"
            "x = 1\n"
        )
        [pragma] = _extract_pragmas(source)
        assert pragma.span == (1, 1)

    def test_pragma_suppresses_units_finding(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def f(queue_bytes):\n"
            "    timeout_s = queue_bytes  # reprolint: disable=REP104\n"
            "    return timeout_s\n"
        )
        result = lint_paths([mod])
        assert result.findings == []

    def test_unused_pragma_reported(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # reprolint: disable=REP104\n")
        result = lint_paths([mod], report_unused_pragmas=True)
        assert [f.code for f in result.findings] == ["REP009"]

    def test_used_pragma_not_reported(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def f(queue_bytes):\n"
            "    timeout_s = queue_bytes  # reprolint: disable=REP104\n"
            "    return timeout_s\n"
        )
        result = lint_paths([mod], report_unused_pragmas=True)
        assert result.findings == []

    def test_unused_code_on_blanket_pragma(self, tmp_path):
        # Every run checks every rule, so a code that suppresses nothing
        # is dead even when no rule emits it any more (REP006, folded
        # into REP001); the REP001 on the same line is what stays used.
        mod = tmp_path / "mod.py"
        mod.write_text("import time\n"
                       "x = time.time()  # reprolint: disable=REP001,REP006\n")
        result = lint_paths([mod], report_unused_pragmas=True)
        assert [(f.code, f.line) for f in result.findings] == [("REP009", 2)]
        assert "REP006" in result.findings[0].message
        assert "REP001" not in result.findings[0].message

    def test_suppresses_per_file_rules_still(self):
        source = "import random\nr = random.random()  # reprolint: disable=REP002\n"
        pragmas = PragmaSet(source)
        finding = Finding(code="REP002", message="m", path="x.py",
                          line=2, col=4)
        assert pragmas.suppresses(finding)


# ----------------------------------------------------------------------
# engine integration: exclusion, the tree itself
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_exclude_globs_skip_files(self, tmp_path):
        fixtures = tmp_path / "tests" / "fixtures" / "units"
        fixtures.mkdir(parents=True)
        (fixtures / "bad.py").write_text(
            "def f(queue_bytes):\n    timeout_s = queue_bytes\n")
        result = lint_paths([tmp_path])
        assert result.findings == []
        assert result.files_checked == 0

    def test_tree_clean(self):
        """The whole tree passes every rule, the unit checker included."""
        root = Path(__file__).resolve().parents[1]
        result = lint_paths([root / d for d in
                             ("src", "tests", "benchmarks", "examples")])
        assert result.findings == [], \
            "\n".join(f.render() for f in result.findings)
