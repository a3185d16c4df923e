"""Documentation hygiene: every module and public class carries a
docstring, and the repo-level documents reference real artifacts."""

import importlib
import json
import pathlib
import pkgutil
import re

import repro
from repro.experiments.run_all import experiment_plan

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PLANNED = {name for name, _ in experiment_plan(False)}


def iter_repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in iter_repro_modules() if not m.__doc__
        ]
        assert undocumented == []

    def test_public_classes_documented(self):
        missing = []
        for module in iter_repro_modules():
            for name in dir(module):
                if name.startswith("_"):
                    continue
                obj = getattr(module, name)
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    if not obj.__doc__:
                        missing.append(f"{module.__name__}.{name}")
        assert missing == []


class TestRepoDocuments:
    def test_design_md_lists_every_experiment_module(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        # Section 4 has one row per paper artifact; its last column
        # names that row's run_all tasks, and between them the rows
        # cover every paper-figure task of the plan.
        rows = [line for line in design.splitlines()
                if re.match(r"\| E\d+ \|", line)]
        named = {task for line in rows
                 for task in re.findall(r"`(\w+)`", line.split("|")[-2])}
        assert named == {task for task in PLANNED
                         if task.startswith(("fig", "eq06"))}

    def test_experiments_md_names_planned_tasks_with_committed_tables(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        named = set(re.findall(
            r"`((?:fig\d\d|eq06_|ablation_|ext_)\w+)`", text))
        # Every task EXPERIMENTS.md names is in the plan (and it names
        # them all) and has a committed table.
        assert named == PLANNED
        for task in named:
            assert (REPO_ROOT / "benchmarks" / "results" / f"{task}.txt").exists()

    def test_readme_quickstart_paths_exist(self):
        text = (REPO_ROOT / "README.md").read_text()
        for example in ("examples/quickstart.py",):
            assert example in text
            assert (REPO_ROOT / example).exists()

    def test_paper_confirmation_present(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        assert "Paper identity confirmed" in design

    def test_named_source_paths_exist(self):
        missing = []
        for doc in ("DESIGN.md", "README.md", "EXPERIMENTS.md"):
            text = (REPO_ROOT / doc).read_text()
            for path in re.findall(r"src/repro/[\w./-]*", text):
                if not (REPO_ROOT / path.rstrip(".")).exists():
                    missing.append(f"{doc}: {path}")
        assert missing == []

    def test_design_md_names_every_golden_file(self):
        # One file, and DESIGN.md names it and every family of its cells
        # (``chaos/...``, ``bulk/...``, ``chaos_digest/...``).
        design = (REPO_ROOT / "DESIGN.md").read_text()
        golden = REPO_ROOT / "tests" / "golden"
        assert sorted(p.name for p in golden.iterdir()) == ["lock.json"]
        assert "tests/golden/lock.json" in design
        families = {cell.split("/")[0]
                    for cell in json.loads((golden / "lock.json").read_text())}
        assert [f for f in sorted(families) if f"`{f}" not in design] == []

    def test_simsan_table_names_every_invariant(self):
        # DESIGN.md section 9's table against the names the sanitizer
        # raises: a row per invariant, and no row for a retired one.
        design = (REPO_ROOT / "DESIGN.md").read_text()
        table = design[design.index("**simsan**"):
                       design.index("Violations raise")]
        documented = {name for line in table.splitlines()
                      if line.startswith("| `")
                      for name in re.findall(r"`(\w+)`",
                                             line.split("|")[1])}
        source = (REPO_ROOT / "src" / "repro" / "sanitize"
                  / "invariants.py").read_text()
        raised = set(re.findall(r'_fail\(\s*"(\w+)"', source))
        assert documented == raised
