"""Command-line front end: ``python -m repro.lint`` / ``reprolint``.

Exit codes: 0 clean, 1 findings reported, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.engine import LintResult, lint_paths
from repro.lint.rules import RULE_SUMMARIES

#: JSON report schema version; bump on incompatible change.
JSON_SCHEMA_VERSION = 3

#: REP009 has no rule function; it is emitted by the pragma engine.
ENGINE_SUMMARIES = {
    "REP009": "unused reprolint pragma (--report-unused-pragmas)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Determinism lint for the TACK simulator "
                    "(rules REP001-REP009).",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--json", dest="format", action="store_const",
                        const="json", help="shorthand for --format json")
    parser.add_argument("--report-unused-pragmas", action="store_true",
                        help="report pragmas that suppress nothing (REP009)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule set and exit")
    return parser


def _report_text(result: LintResult) -> str:
    findings, checked = result.findings, result.files_checked
    lines = [f.render() for f in findings]
    counts = Counter(f.code for f in findings)
    if findings:
        summary = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
        lines.append(f"{len(findings)} finding(s) in {checked} file(s) "
                     f"({summary})")
    else:
        lines.append(f"clean: {checked} file(s), 0 findings")
    return "\n".join(lines)


def _report_json(result: LintResult) -> str:
    findings = result.findings
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(Counter(f.code for f in findings).items())),
    }
    return json.dumps(payload, indent=2)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code, summary in {**RULE_SUMMARIES, **ENGINE_SUMMARIES}.items():
            print(f"{code}  {summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"reprolint: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    result = lint_paths(paths,
                        report_unused_pragmas=args.report_unused_pragmas)
    report = (_report_json if args.format == "json" else _report_text)(result)
    print(report)
    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
