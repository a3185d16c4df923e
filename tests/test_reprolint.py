"""reprolint: rule firing, pragmas, scope, CLI contract."""

import fnmatch
import json
import os
from pathlib import Path

from repro.lint import RULES, Finding, lint_paths, lint_source
from repro.lint.cli import JSON_SCHEMA_VERSION, main
from repro.lint.config import (
    ALLOW_NAMES,
    HOST_FILES,
    REP004_PACKAGES,
    SIM_PACKAGES,
    in_sim_scope,
    is_host,
    repro_path,
)
from repro.lint.engine import PragmaSet, _extract_pragmas

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Path prefix that places a fixture inside simulation scope.
SIM = "src/repro/netsim/fixture.py"
#: Host-side path matched by the default exempt globs.
HOST = "src/repro/runner/fixture.py"


def codes(src, path=SIM):
    return [f.code for f in lint_source(src, path)]


class TestRuleFiring:
    def test_rep001_wall_clock(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert codes(src) == ["REP001"]

    def test_rep001_variants(self):
        for call in ("time.monotonic()", "time.perf_counter()",
                     "datetime.now()", "datetime.datetime.utcnow()"):
            assert codes(f"x = {call}\n") == ["REP001"], call

    def test_rep001_virtual_clock_ok(self):
        assert codes("t = sim.now()\nu = self.sim.clock.now()\n") == []

    def test_rep002_module_level_random(self):
        assert codes("import random\nx = random.random()\n") == ["REP002"]
        assert codes("import random\nrandom.seed(4)\n") == ["REP002"]

    def test_rep002_numpy_random(self):
        assert codes("import numpy as np\nx = np.random.rand(3)\n") == ["REP002"]
        assert codes("import numpy\nnumpy.random.seed(1)\n") == ["REP002"]

    def test_rep002_from_import(self):
        assert codes("from random import random\n") == ["REP002"]

    def test_rep002_unseeded_instance(self):
        assert codes("import random\nrng = random.Random()\n") == ["REP002"]

    def test_rep002_seeded_ok(self):
        # A *parameterized* seed satisfies both REP002 (instance is
        # seeded) and REP008 (seed is not a baked-in literal).
        assert codes("import random\n"
                     "def f(seed):\n"
                     "    return random.Random(seed)\n") == []
        assert codes("import numpy as np\nrng = np.random.default_rng(7)\n") == []

    def test_rep003_time_equality(self):
        assert codes("if t1_s == t2_s:\n    pass\n") == ["REP003"]
        assert codes("done = ev.time != now\n") == ["REP003"]

    def test_rep003_sentinels_ok(self):
        assert codes("if completed_at == None:\n    pass\n") == []
        assert codes("if timing_mode == 'advanced':\n    pass\n") == []
        assert codes("if t1_s <= t2_s:\n    pass\n") == []

    def test_rep004_missing_suffix(self):
        src = ("class Link:\n"
               "    def __init__(self, delay: float = 0.5):\n"
               "        self.delay = delay\n")
        assert codes(src) == ["REP004"]

    def test_rep004_suffixed_ok(self):
        src = ("class Link:\n"
               "    def __init__(self, delay_s: float = 0.5,\n"
               "                 rate_bps: float = 1e6,\n"
               "                 gain_factor: float = 0.5):\n"
               "        pass\n")
        assert codes(src) == []

    def test_rep004_int_and_out_of_scope_exempt(self):
        src = ("class Q:\n"
               "    def __init__(self, depth: int = 100):\n"
               "        pass\n")
        assert codes(src) == []
        # Same float violation outside the simulator packages: silent.
        bad = ("class A:\n"
               "    def __init__(self, delay: float = 0.5):\n"
               "        pass\n")
        assert codes(bad, path="src/repro/stats/fixture.py") == []

    def test_rep004_params_file_checks_all_defs(self):
        src = "def interval(self, period: float = 0.5):\n    return period\n"
        assert codes(src, path="src/repro/core/params.py") == ["REP004"]
        assert codes(src, path=SIM) == []  # not an __init__

    def test_rep005_mutable_default(self):
        assert codes("def f(xs=[]):\n    pass\n") == ["REP005"]
        assert codes("def f(m={}):\n    pass\n") == ["REP005"]
        assert codes("def f(s=set()):\n    pass\n") == ["REP005"]

    def test_rep005_none_default_ok(self):
        assert codes("def f(xs=None):\n    pass\n") == []

    def test_rep006_sim_side_telemetry_wall_clock(self):
        # REP006 is folded into REP001, which fires on the same line:
        # sim-side telemetry is simulation code.
        src = "import time\nstamp = time.time()\n"
        found = codes(src, path="src/repro/telemetry/collector.py")
        assert found == ["REP001"]

    def test_rep006_host_side_cli_exempt(self):
        src = "import time\nstamp = time.time()\n"
        # cli.py/__main__.py run host-side: the host-file list carves
        # them out of REP001-REP003.
        assert codes(src, path="src/repro/telemetry/cli.py") == []
        assert codes(src, path="src/repro/telemetry/__main__.py") == []

    def test_rep006_outside_telemetry_silent(self):
        src = "import time\nstamp = time.time()\n"
        assert codes(src, path=SIM) == ["REP001"]

    def test_rep007_import_of_profile_packages(self):
        assert codes("from repro.profile import Profiler\n") == ["REP007"]
        assert codes("import repro.profile\n") == ["REP007"]
        assert codes("from repro.profile.profiler import Profiler\n") == \
            ["REP007"]

    def test_rep007_unguarded_profiler_call(self):
        src = ("class Engine:\n"
               "    def step(self):\n"
               "        self.profiler.event_begin(None, 0)\n")
        assert codes(src) == ["REP007"]
        assert codes("prof.wrap('x', f)\n") == ["REP007"]
        assert codes("self._prof.event_end()\n") == ["REP007"]

    def test_rep007_guarded_calls_ok(self):
        src = ("class Engine:\n"
               "    def step(self):\n"
               "        if self.profiler is not None:\n"
               "            self.profiler.event_begin(None, 0)\n"
               "            try:\n"
               "                pass\n"
               "            finally:\n"
               "                self.profiler.event_end()\n")
        assert codes(src) == []
        hoisted = ("def run(self):\n"
                   "    prof = self.profiler\n"
                   "    if prof is not None:\n"
                   "        prof.event_begin(None, 0)\n")
        assert codes(hoisted) == []

    def test_rep007_guard_does_not_leak_to_else_or_after(self):
        src = ("if prof is not None:\n"
               "    pass\n"
               "else:\n"
               "    prof.wrap('x', f)\n")
        assert codes(src) == ["REP007"]
        after = ("if prof is not None:\n"
                 "    pass\n"
                 "prof.wrap('x', f)\n")
        assert codes(after) == ["REP007"]

    def test_rep007_guard_name_must_match(self):
        src = ("if other is not None:\n"
               "    prof.wrap('x', f)\n")
        assert codes(src) == ["REP007"]

    def test_rep007_host_side_silent(self):
        src = "from repro.profile import Profiler\nprof.wrap('x', f)\n"
        assert codes(src, path=HOST) == []
        assert codes(src, path="src/repro/experiments/fixture.py") == []

    def test_rep007_non_profiler_names_untouched(self):
        assert codes("self.policy.attach(receiver)\n") == []

    def test_rep007_pragma_suppresses(self):
        src = "prof.close()  # reprolint: disable=REP007\n"
        assert codes(src) == []

    def test_instrumented_sim_modules_pass_rep007(self):
        """The real hook sites stay inside the fence."""
        for rel in ("src/repro/netsim/engine.py",
                    "src/repro/transport/sender.py",
                    "src/repro/transport/receiver.py",
                    "src/repro/cc/base.py",
                    "src/repro/ack/base.py"):
            path = REPO_ROOT / rel
            found = [f for f in
                     lint_source(path.read_text(), str(path))
                     if f.code == "REP007"]
            assert found == [], "\n".join(f.render() for f in found)

    def test_rep008_fixed_seed_flagged(self):
        assert codes("import random\nrng = random.Random(42)\n") == ["REP008"]
        # from-import of random already trips REP002; REP008 adds the
        # seed finding on the bare-name constructor too.
        assert codes("from random import Random\nrng = Random(0)\n") == \
            ["REP002", "REP008"]
        assert codes("import random\nrng = random.Random('link-fwd')\n") == \
            ["REP008"]

    def test_rep008_parameterized_seed_ok(self):
        assert codes("import random\n"
                     "def f(seed):\n"
                     "    return random.Random(seed)\n") == []
        assert codes("rng = sim.fork_rng('chaos')\n") == []

    def test_rep008_host_side_silent(self):
        assert codes("import random\nrng = random.Random(42)\n",
                     path=HOST) == []
        assert codes("import random\nrng = random.Random(42)\n",
                     path="src/repro/experiments/fixture.py") == []

    def test_rep008_chaos_package_in_scope(self):
        assert codes("import random\nrng = random.Random(7)\n",
                     path="src/repro/chaos/fixture.py") == ["REP008"]

    def test_rep008_fleet_generators_in_scope(self):
        # The fleet workload/shard generators are simulation code: a
        # baked-in seed there would silently correlate every shard.
        src = "import random\nrng = random.Random(42)\n"
        assert codes(src, path="src/repro/fleet/workload.py") == ["REP008"]
        assert codes(src, path="src/repro/fleet/shard.py") == ["REP008"]

    def test_rep008_fleet_host_plumbing_exempt(self):
        # ...while the campaign CLI / report host code in the same
        # package is carved out by HOST_FILES.
        src = "import random\nrng = random.Random(42)\n"
        for host in ("cli.py", "__main__.py", "campaign.py", "report.py"):
            assert codes(src, path=f"src/repro/fleet/{host}") == [], host

    def test_rep008_pragma_suppresses(self):
        src = ("import random\n"
               "rng = random.Random(42)  # reprolint: disable=REP008\n")
        assert codes(src) == []

    def test_syntax_error_is_reported(self):
        assert codes("def f(:\n") == ["REP000"]


class TestPragmas:
    def test_line_pragma_suppresses(self):
        src = "import time\nx = time.time()  # reprolint: disable=REP001\n"
        assert codes(src) == []

    def test_line_pragma_wrong_code_keeps_finding(self):
        src = "import time\nx = time.time()  # reprolint: disable=REP002\n"
        assert codes(src) == ["REP001"]

    def test_bare_disable_suppresses_everything_on_line(self):
        src = "import time\nx = time.time()  # reprolint: disable\n"
        assert codes(src) == []

    def test_file_pragma(self):
        src = ("# reprolint: disable-file=REP001\n"
               "import time\n"
               "a = time.time()\n"
               "b = time.monotonic()\n")
        assert codes(src) == []

    def test_parse_pragmas(self):
        pragmas = _extract_pragmas(
            "# reprolint: disable-file=REP004\n"
            "x = 1  # reprolint: disable=REP001,REP003\n")
        assert [(p.kind, p.codes, p.span) for p in pragmas] == [
            ("disable-file", ("REP004",), (1, 1)),
            ("disable", ("REP001", "REP003"), (2, 2)),
        ]

    def test_pragma_inside_string_is_inert(self):
        source = (
            "import time\n"
            "note = '# reprolint: disable=REP001'\n"
            "x = time.time()\n"
        )
        assert _extract_pragmas(source) == []
        assert codes(source) == ["REP001"]

    def test_trailing_pragma_covers_logical_line(self):
        source = (
            "import time\n"
            "x = max(\n"
            "    time.time(),\n"
            "    0,\n"
            ")  # reprolint: disable=REP001\n"
        )
        [pragma] = _extract_pragmas(source)
        assert pragma.kind == "disable"
        assert pragma.span == (2, 5)
        assert pragma.codes == ("REP001",)
        assert codes(source) == []

    def test_standalone_pragma_covers_only_its_line(self):
        source = (
            "import time\n"
            "# reprolint: disable=REP001\n"
            "x = time.time()\n"
        )
        [pragma] = _extract_pragmas(source)
        assert pragma.span == (2, 2)
        assert codes(source) == ["REP001"]

    def test_unused_pragma_reported(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # reprolint: disable=REP001\n")
        result = lint_paths([mod], report_unused_pragmas=True)
        assert [f.code for f in result.findings] == ["REP009"]

    def test_used_pragma_not_reported(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("def f(xs=[]):  # reprolint: disable=REP005\n"
                       "    pass\n")
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


class TestConfig:
    def test_exempt_paths_skip_determinism_rules(self):
        src = "import time\nstarted = time.time()\n"
        assert codes(src, path=HOST) == []

    def test_exempt_paths_still_check_mutable_defaults(self):
        assert codes("def f(xs=[]):\n    pass\n", path=HOST) == ["REP005"]

    def test_repo_allow_names_folded_in(self):
        assert {"beta", "start", "seed"} <= set(ALLOW_NAMES)
        src = ("class Clocked:\n"
               "    def __init__(self, start=0.0, beta=0.5):\n"
               "        pass\n")
        assert codes(src) == []

    def test_sim_exempt_scope_split(self):
        def rp(rel):
            return repro_path(rel)
        assert in_sim_scope(rp("src/repro/fleet/workload.py"))
        assert in_sim_scope(rp("src/repro/fleet/shard.py"))
        assert not in_sim_scope(rp("src/repro/fleet/campaign.py"))
        assert not in_sim_scope(rp("src/repro/fleet/report.py"))
        # The fleet host files are also exempt from REP001-REP003.
        assert is_host(rp("src/repro/fleet/cli.py"))
        assert not is_host(rp("src/repro/fleet/workload.py"))

    def test_rule_registry_is_stable(self):
        # REP006 is folded into REP001; its code stays reserved.
        assert list(RULES) == ["REP001", "REP002", "REP003", "REP004",
                               "REP005", "REP007", "REP008"]


class TestScope:
    """One path form: scope never depends on how a path is spelled."""

    def test_repro_path_spellings_agree(self, tmp_path, monkeypatch):
        (tmp_path / "src").mkdir()
        monkeypatch.chdir(tmp_path)
        spellings = {str(tmp_path / "src" / "repro" / "netsim" / "x.py"),
                     "src/repro/netsim/x.py",
                     "./src/repro/../repro/netsim/x.py"}
        assert {repro_path(p) for p in spellings} == {"repro/netsim/x.py"}
        monkeypatch.chdir(tmp_path / "src")
        assert repro_path("repro/netsim/x.py") == "repro/netsim/x.py"
        # outside any repro directory: the absolute form, in no package
        assert repro_path("../tests/t.py") == f"{tmp_path}/tests/t.py"

    def test_relative_and_absolute_paths_give_identical_findings(
            self, tmp_path, monkeypatch):
        """A fixture tree linted by relative and by absolute path."""
        tree = tmp_path / "src" / "repro"
        for rel, body in {
            "netsim/x.py": ("import random\n"
                            "rng = random.Random(42)\n"
                            "class Gain:\n"
                            "    def __init__(self, gain=0.5):\n"
                            "        pass\n"),
            "runner/host.py": "import time\nstarted = time.time()\n",
        }.items():
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_text(body)

        def found(paths):
            return sorted((f.code, Path(os.path.abspath(f.path)), f.line)
                          for f in lint_paths([Path(p) for p in paths])
                          .findings)

        absolute = found([tree])
        monkeypatch.chdir(tmp_path)
        from_root = found(["src/repro"])
        monkeypatch.chdir(tmp_path / "src")
        from_src = found(["repro"])
        assert absolute == from_root == from_src
        assert [c for c, _p, _l in absolute] == ["REP004", "REP008"]

    def test_the_scope_table_does_not_rot(self):
        """Every host glob names a file, every listed package exists."""
        root = REPO_ROOT / "src"
        files = [repro_path(str(p)) for p in (root / "repro").rglob("*.py")]
        for glob in HOST_FILES:
            assert any(fnmatch.fnmatch(f, glob) for f in files), glob
        for pkg in {*SIM_PACKAGES, *REP004_PACKAGES}:
            assert (root / "repro" / pkg / "__init__.py").is_file(), pkg


class TestCli:
    def write(self, tmp_path, name, body):
        f = tmp_path / name
        f.write_text(body)
        return f

    def test_exit_zero_and_text_output_on_clean_file(self, tmp_path, capsys):
        f = self.write(tmp_path, "ok.py", "x = 1\n")
        assert main([str(f)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        f = self.write(tmp_path, "bad.py", "def f(xs=[]):\n    pass\n")
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "REP005" in out and "bad.py" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_json_schema(self, tmp_path, capsys):
        f = self.write(tmp_path, "bad.py",
                       "import time\ndef f(xs=[]):\n    return time.time()\n")
        # Fixture lives outside any repro package: REP001 needs sim
        # scope only for exemption, and tmp files are not exempt.
        assert main([str(f), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 1
        assert set(payload["counts"]) == {"REP001", "REP005"}
        finding = payload["findings"][0]
        assert set(finding) == {"code", "message", "path", "line", "col"}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_directory_walk(self, tmp_path, capsys):
        self.write(tmp_path, "a.py", "x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("def f(m={}):\n    pass\n")
        assert main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 2
        assert payload["counts"] == {"REP005": 1}


class TestTreeIsClean:
    def test_src_lints_clean_with_repo_config(self):
        """The acceptance gate: `python -m repro.lint src tests
        benchmarks examples` exits 0. One whole-tree pass, so tier-1
        lints the tree once."""
        result = lint_paths([REPO_ROOT / d for d in
                             ("src", "tests", "benchmarks", "examples")])
        assert result.files_checked > 100
        assert result.findings == [], \
            "\n".join(f.render() for f in result.findings)
