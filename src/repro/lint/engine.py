"""reprolint driver: file discovery, pragmas, rule dispatch.

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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.rules import DETERMINISM_RULES, RULES, Finding
from repro.lint.units.checker import UNIT_RULE_SUMMARIES, analyze_units

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

    def unused(self, path: str, active_codes: Set[str]) -> List[Finding]:
        """REP009 findings for pragma codes that suppressed nothing.

        A code the run did not check (disabled rule, units off) is not
        reported — the pragma may be load-bearing for other runs.
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
            dead = [c for c in pragma.codes
                    if c in active_codes and pragma.hits.get(c, 0) == 0]
            if dead:
                findings.append(Finding(
                    "REP009",
                    f"unused suppression for {', '.join(dead)} "
                    f"(no such finding on this {scope})",
                    path, pragma.line, 0))
        return findings


def parse_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract (line -> suppressed codes, file-wide suppressed codes).

    Kept for back-compat; line pragmas are expanded over the physical
    lines of the logical line they annotate.
    """
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    for pragma in _extract_pragmas(source):
        codes = set(pragma.codes)
        if pragma.kind == "disable-file":
            file_wide |= codes
        else:
            for lineno in range(pragma.span[0], pragma.span[1] + 1):
                per_line.setdefault(lineno, set()).update(codes)
    return per_line, file_wide


# ----------------------------------------------------------------------
# per-file rule pass
# ----------------------------------------------------------------------

def _rule_findings(tree: ast.AST, path: str,
                   config: LintConfig) -> List[Finding]:
    """Raw (unsuppressed) findings of the per-file rules."""
    exempt = config.is_exempt(path)
    findings: List[Finding] = []
    for code, rule in RULES.items():
        if code in config.disabled_rules:
            continue
        if exempt and code in DETERMINISM_RULES:
            continue
        findings.extend(rule(tree, path, config))
    return findings


def active_rule_codes(config: LintConfig, units: bool) -> Set[str]:
    """Codes the current run actually checks (drives REP009)."""
    codes = {c for c in RULES if c not in config.disabled_rules}
    if units:
        codes |= {c for c in UNIT_RULE_SUMMARIES
                  if c not in config.units.disabled}
    return codes


def lint_source(source: str, path: str = "<string>",
                config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint one unit of Python source; returns unsuppressed findings."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("REP000", f"syntax error: {exc.msg}", path,
                        exc.lineno or 1, (exc.offset or 1) - 1)]
    pragmas = PragmaSet(source)
    findings = [f for f in _rule_findings(tree, path, config)
                if not pragmas.suppresses(f)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_file(path: Path, config: Optional[LintConfig] = None) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), config)


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


# ----------------------------------------------------------------------
# multi-file driver (optionally units-checking)
# ----------------------------------------------------------------------

@dataclass
class LintResult:
    """Outcome of one ``lint_paths`` run.

    Iterates as ``(findings, files_checked)`` so existing callers that
    tuple-unpack keep working.
    """

    findings: List[Finding]
    files_checked: int

    def __iter__(self):
        return iter((self.findings, self.files_checked))


def lint_paths(paths: Iterable[Path],
               config: Optional[LintConfig] = None,
               *,
               units: bool = False,
               report_unused_pragmas: bool = False) -> LintResult:
    """Lint every ``.py`` under *paths*.

    Per-file rules first; with ``units=True`` the whole-program unit
    analysis (:func:`analyze_units`) then runs over every file that
    could be read.  Pragma suppression and unused-pragma reporting
    come last, over the merged findings of both.
    """
    config = config or LintConfig()
    files = [str(p) for p in iter_python_files(paths)
             if not config.is_excluded(str(p))]
    sources: Dict[str, str] = {}
    per_file: Dict[str, List[Finding]] = {}
    for path in files:
        try:
            source = sources[path] = Path(path).read_text(encoding="utf-8")
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            per_file[path] = [Finding(
                "REP000", f"syntax error: {exc.msg}", path,
                exc.lineno or 1, (exc.offset or 1) - 1)]
        except OSError as exc:
            per_file[path] = [Finding(
                "REP000", f"unreadable file: {exc}", path, 1, 0)]
        else:
            per_file[path] = _rule_findings(tree, path, config)
    if units:
        for finding in analyze_units(list(sources.items()), config.units):
            per_file[finding.path].append(finding)

    active = active_rule_codes(config, units)
    findings: List[Finding] = []
    for path in files:
        raw = per_file[path]
        if not raw and not report_unused_pragmas:
            continue
        pragmas = PragmaSet(sources.get(path, ""))
        findings.extend(f for f in raw if not pragmas.suppresses(f))
        if report_unused_pragmas:
            findings.extend(pragmas.unused(path, active))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return LintResult(findings=findings, files_checked=len(files))
