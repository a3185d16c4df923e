"""Reading and writing schema-v1 JSONL trace files."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.events import SCHEMA_NAME, TraceEvent
from repro.telemetry.sinks import JsonlSink


class TraceFormatError(ValueError):
    """The file is not a valid repro-telemetry trace."""


def _parse_header(line: str, path: str) -> Dict[str, Any]:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
        raise TraceFormatError(
            f"{path}: missing repro-telemetry header line")
    return header


def read_header(path: str) -> Dict[str, Any]:
    """Parse and validate just the header line of a trace file."""
    with open(path) as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"{path}: not a text trace ({exc})") from exc
    if not first:
        raise TraceFormatError(f"{path}: empty file")
    return _parse_header(first, path)


def iter_events(path: str) -> Iterator[TraceEvent]:
    """Stream events from a trace file (header skipped/validated)."""
    with open(path) as fh:
        try:
            first = fh.readline()
            if not first:
                raise TraceFormatError(f"{path}: empty file")
            _parse_header(first, path)
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield TraceEvent.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError) as exc:
                    raise TraceFormatError(
                        f"{path}:{lineno}: bad event line: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"{path}: not a text trace ({exc})") from exc


def read_trace(path: str) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Load a whole trace: ``(header, events)``."""
    return read_header(path), list(iter_events(path))


def write_trace(path: str, events: Sequence[TraceEvent],
                meta: Optional[Dict[str, Any]] = None) -> str:
    """Write *events* as a schema-v1 trace file; returns its digest."""
    sink = JsonlSink(path, meta=meta)
    try:
        for event in events:
            sink.append(event)
        return sink.digest()
    finally:
        sink.close()


def trace_digest(path: str) -> str:
    """SHA-256 hex digest of the trace file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
