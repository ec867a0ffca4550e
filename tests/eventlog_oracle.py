"""The event-log writer as it was before it escaped only what each
snapshot adds: every event's texts are escaped and encoded whole.  Kept
verbatim as the reference that ``save_event_log`` must match byte for
byte."""

from __future__ import annotations

import json
from pathlib import Path

from retrans.eventlog import Event, EventLog, format_seconds


def _event_line(event: Event) -> str:
    # Built by hand so the byte layout is pinned down, not left to json.dumps
    # float formatting.
    return '{"t": %s, "src": %s, "out": %s}' % (
        format_seconds(event.time),
        json.dumps(event.source_text, ensure_ascii=False),
        json.dumps(event.output_text, ensure_ascii=False),
    )


def save_event_log(log: EventLog, path: str | Path) -> None:
    """Write ``log`` as JSONL, one event per line, ordered by time."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for event in log.events:
            handle.write(_event_line(event) + "\n")
