"""reprolint engine: file discovery, pragmas, one run of every rule.

Pragmas
-------
Line-level, suppressing specific codes (or every code)::

    started = time.time()  # reprolint: disable=REP001
    x = foo()              # reprolint: disable

File-level, anywhere in the file (conventionally near the top)::

    # reprolint: disable-file=REP002,REP003

Pragmas are extracted from **tokenizer comment positions**, never from
raw line text, so pragma-shaped text inside a string literal is inert.
A trailing pragma covers its whole *logical* line (flake8 ``noqa``
semantics): on a statement spanning several physical lines the pragma
suppresses findings reported anywhere in that span, wherever the
comment sits.  A pragma on a line of its own covers only that line.

Unused pragmas rot as rules and code evolve; ``--report-unused-pragmas``
(ruff ``RUF100``-style) reports every pragma code that suppressed
nothing as REP009.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.config import is_fixture, is_host, repro_path
from repro.lint.rules import DETERMINISM_RULES, RULES, Finding
from repro.lint.units.checker import analyze_units

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*(?:=\s*([A-Z0-9,\s]+))?"
)

#: Sentinel meaning "every code" in a pragma set.
_ALL = "ALL"


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------

@dataclass
class Pragma:
    """One ``# reprolint: ...`` comment and the line span it covers."""

    line: int                      # physical line of the comment
    kind: str                      # "disable" | "disable-file"
    codes: Tuple[str, ...]         # (_ALL,) for a bare disable
    span: Tuple[int, int]          # inclusive logical-line extent
    hits: Dict[str, int] = field(default_factory=dict)

    def covers(self, lineno: int) -> bool:
        return self.span[0] <= lineno <= self.span[1]

    def matches(self, code: str) -> Optional[str]:
        """The pragma code that suppresses *code*, if any."""
        if _ALL in self.codes:
            return _ALL
        return code if code in self.codes else None


def _extract_pragmas(source: str) -> List[Pragma]:
    """Tokenize *source* and return its pragmas with logical spans."""
    pragmas: List[Pragma] = []
    comments: List[Tuple[int, bool, str]] = []   # (line, trailing, text)
    code_lines: Set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Unparseable source is REP000's problem; no pragmas here.
        return []
    logical_start: Optional[int] = None
    pending: List[Tuple[int, bool, str]] = []
    for tok in tokens:
        kind, text, (line, _col), (end_line, _ecol), _ = tok
        if kind == tokenize.COMMENT:
            pending.append((line, line in code_lines, text))
        elif kind == tokenize.NEWLINE:
            span = (logical_start if logical_start is not None else line,
                    end_line)
            for c_line, trailing, text in pending:
                comments.append((c_line, trailing, text))
                pragma = _parse_pragma(text, c_line)
                if pragma is not None:
                    pragma.span = span if trailing else (c_line, c_line)
                    pragmas.append(pragma)
            pending.clear()
            logical_start = None
        elif kind == tokenize.NL:
            # blank or comment-only physical line: flush standalone
            # pragmas accumulated outside any logical line.
            if logical_start is None:
                for c_line, trailing, text in pending:
                    pragma = _parse_pragma(text, c_line)
                    if pragma is not None:
                        pragma.span = (c_line, c_line)
                        pragmas.append(pragma)
                pending.clear()
        elif kind in (tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
                      tokenize.ENCODING):
            continue
        else:
            code_lines.add(line)
            if logical_start is None:
                logical_start = line
    for c_line, _trailing, text in pending:     # EOF without NEWLINE
        pragma = _parse_pragma(text, c_line)
        if pragma is not None:
            pragma.span = (c_line, c_line)
            pragmas.append(pragma)
    return pragmas


def _parse_pragma(comment: str, line: int) -> Optional[Pragma]:
    match = _PRAGMA_RE.search(comment)
    if match is None:
        return None
    kind, codes_raw = match.groups()
    codes = tuple(sorted({c.strip() for c in codes_raw.split(",")
                          if c.strip()})) if codes_raw else (_ALL,)
    return Pragma(line=line, kind=kind, codes=codes, span=(line, line))


class PragmaSet:
    """All pragmas of one file, with hit bookkeeping for REP009."""

    def __init__(self, source: str) -> None:
        self.pragmas = _extract_pragmas(source)
        self.line_pragmas = [p for p in self.pragmas if p.kind == "disable"]
        self.file_pragmas = [p for p in self.pragmas
                             if p.kind == "disable-file"]

    def suppresses(self, finding: Finding) -> bool:
        hit = False
        for pragma in self.file_pragmas:
            code = pragma.matches(finding.code)
            if code is not None:
                pragma.hits[code] = pragma.hits.get(code, 0) + 1
                hit = True
        if hit:
            return True
        for pragma in self.line_pragmas:
            if not pragma.covers(finding.line):
                continue
            code = pragma.matches(finding.code)
            if code is not None:
                pragma.hits[code] = pragma.hits.get(code, 0) + 1
                hit = True
        return hit

    def unused(self, path: str) -> List[Finding]:
        """REP009 findings for pragma codes that suppressed nothing.

        Every run checks every rule, so a code that suppressed nothing
        (a reserved code such as REP006 included) is dead.
        """
        findings: List[Finding] = []
        for pragma in self.pragmas:
            scope = "file" if pragma.kind == "disable-file" else "line"
            if _ALL in pragma.codes:
                if not pragma.hits:
                    findings.append(Finding(
                        "REP009",
                        f"unused blanket `reprolint: {pragma.kind}` pragma "
                        f"(suppresses nothing on this {scope})",
                        path, pragma.line, 0))
                continue
            dead = [c for c in pragma.codes if pragma.hits.get(c, 0) == 0]
            if dead:
                findings.append(Finding(
                    "REP009",
                    f"unused suppression for {', '.join(dead)} "
                    f"(no such finding on this {scope})",
                    path, pragma.line, 0))
        return findings


# ----------------------------------------------------------------------
# one run of every rule
# ----------------------------------------------------------------------

def _lint(sources: List[Tuple[str, str]],
          report_unused_pragmas: bool = False) -> List[Finding]:
    """Every rule over ``(path, source)`` pairs, pragmas applied.

    Each file is parsed once: the per-file rules run on its tree, then
    the whole-program unit analysis (:func:`analyze_units`) over every
    tree that parsed.  Pragma suppression and unused-pragma reporting
    come last, over the merged findings of both.
    """
    per_file: Dict[str, List[Finding]] = {}
    trees: List[Tuple[str, ast.AST]] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            per_file[path] = [Finding(
                "REP000", f"syntax error: {exc.msg}", path,
                exc.lineno or 1, (exc.offset or 1) - 1)]
            continue
        trees.append((path, tree))
        rpath = repro_path(path)
        host = is_host(rpath)
        per_file[path] = [finding for code, rule in RULES.items()
                          if not (host and code in DETERMINISM_RULES)
                          for finding in rule(tree, path, rpath)]
    for finding in analyze_units(trees):
        per_file[finding.path].append(finding)

    findings: List[Finding] = []
    for path, source in sources:
        raw = per_file[path]
        if not raw and not report_unused_pragmas:
            continue
        pragmas = PragmaSet(source)
        findings.extend(f for f in raw if not pragmas.suppresses(f))
        if report_unused_pragmas:
            findings.extend(pragmas.unused(path))
    return findings


def _sort(findings: List[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one unit of Python source; returns unsuppressed findings."""
    return _sort(_lint([(path, source)]))


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


@dataclass
class LintResult:
    """Outcome of one ``lint_paths`` run."""

    findings: List[Finding]
    files_checked: int


def lint_paths(paths: Iterable[Path], *,
               report_unused_pragmas: bool = False) -> LintResult:
    """Lint every ``.py`` under *paths*, lint fixtures excepted."""
    files = [str(p) for p in iter_python_files(paths)
             if not is_fixture(repro_path(str(p)))]
    sources: List[Tuple[str, str]] = []
    findings: List[Finding] = []
    for path in files:
        try:
            sources.append((path, Path(path).read_text(encoding="utf-8")))
        except OSError as exc:
            findings.append(Finding(
                "REP000", f"unreadable file: {exc}", path, 1, 0))
    findings += _lint(sources, report_unused_pragmas)
    return LintResult(findings=_sort(findings), files_checked=len(files))
