"""The Finding record — leaf module so every lint layer can import it.

Rules, the units checker, and the engine all produce or
consume findings; keeping the dataclass dependency-free avoids import
cycles between them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
