"""Result tables: the textual stand-in for the paper's figures."""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence


class Table:
    """Ordered rows of {column: value} plus formatting helpers."""

    def __init__(self, title: str, columns: Sequence[str],
                 note: Optional[str] = None):
        self.title = title
        self.columns = list(columns)
        self.note = note
        self.rows: list[dict[str, Any]] = []

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns: {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}")
        return [row.get(name) for row in self.rows]

    # ------------------------------------------------------------------
    @staticmethod
    def _fmt(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value != 0 and abs(value) < 0.01:
                return f"{value:.2e}"
            return f"{value:,.2f}".rstrip("0").rstrip(".")
        return str(value)

    def format_text(self) -> str:
        widths = {
            c: max(len(c), *(len(self._fmt(r.get(c))) for r in self.rows))
            if self.rows else len(c)
            for c in self.columns
        }
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(c.rjust(widths[c]) for c in self.columns))
        lines.append("  ".join("-" * widths[c] for c in self.columns))
        for row in self.rows:
            lines.append(
                "  ".join(self._fmt(row.get(c)).rjust(widths[c]) for c in self.columns)
            )
        if self.note:
            lines.append("")
            lines.append(self.note)
        return "\n".join(lines)

    def show(self) -> None:
        print(self.format_text())
        print()

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(self.format_text() + "\n")

    def to_dict(self) -> dict[str, Any]:
        return {"title": self.title, "columns": self.columns,
                "note": self.note, "rows": self.rows}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Table":
        table = cls(data["title"], data["columns"], data["note"])
        table.rows = data["rows"]
        return table

    def __len__(self) -> int:
        return len(self.rows)
