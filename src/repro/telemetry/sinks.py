"""Event sinks: where a :class:`TraceCollector` puts emitted events.

Two sinks cover the two use cases:

* :class:`MemorySink` — an in-process ring buffer for tests and the
  always-on collector; ``max_events`` bounds memory on long runs
  (oldest events are evicted first).
* :class:`JsonlSink` — streaming JSONL writer for post-run analysis
  with the ``python -m repro.telemetry`` CLI.  The file starts with a
  schema header line and the sink accumulates a SHA-256 digest of the
  bytes written, so the campaign runner can record a trace's identity
  in the run manifest without re-reading the file.

Neither sink reads the wall clock: timestamps come stamped on the
events (from the sim clock) and any run metadata is passed in by the
caller via ``meta``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.telemetry.events import TraceEvent, format_header_line


class TraceSink:
    """Interface: receives events, may be closed."""

    def append(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class MemorySink(TraceSink):
    """Bounded (or unbounded) in-memory ring buffer of events.

    Ring-bound contract:

    * ``appended`` counts every event ever offered to the sink, even
      those since pushed out — it never decreases.
    * When the bound is hit, the *oldest* retained event is evicted
      first; ``evicted == appended - len(sink)`` always holds.
    * ``events()`` returns the retained tail, oldest first.
    * ``clear()`` drops the retained events but keeps ``appended``
      (and therefore folds the dropped events into ``evicted``).
    """

    def __init__(self, max_events: Optional[int] = None):
        self.max_events = max_events
        self._events: collections.deque[TraceEvent] = collections.deque(
            maxlen=max_events)
        self.appended = 0

    def append(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.appended += 1

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by the ``max_events`` bound."""
        return self.appended - len(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(TraceSink):
    """Streaming JSONL trace writer (schema v1).

    The first line is the header ``{"schema": "repro-telemetry",
    "version": 1, "meta": {...}}``; each subsequent line is one
    event's compact-JSON form.  ``digest()`` returns the SHA-256 of
    everything written so far, which equals the digest of the file's
    bytes once the sink is closed.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, Any]] = None):
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "w")
        self._hash = hashlib.sha256()
        self.events_written = 0
        self._write_raw(format_header_line(meta))

    def _write_raw(self, line: str) -> None:
        self._fh.write(line)
        self._hash.update(line.encode("utf-8"))

    def _write_line(self, obj: Dict[str, Any]) -> None:
        self._write_raw(json.dumps(obj, separators=(",", ":")) + "\n")

    def append(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        self._write_line(event.to_dict())
        self.events_written += 1

    def digest(self) -> str:
        """SHA-256 hex digest of the bytes written so far."""
        return self._hash.hexdigest()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
