"""The event-log writer and reader as they were before each paid only for
what a snapshot adds.  The writer escapes and encodes every event's texts
whole; it is the reference that ``save_event_log`` must match byte for
byte.  The reader decodes every line whole through ``json_object`` and
appends it with ``append_event``; ``load_event_log`` must give the same log,
or raise the same ``ValueError``, on every file.  Both are kept verbatim."""

from __future__ import annotations

import json
from pathlib import Path

from retrans.eventlog import Event, EventLog, append_event, format_seconds, json_object, read_lines


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


def load_event_log(path: str | Path) -> EventLog:
    """Read a JSONL event log written by :func:`save_event_log`.

    Each line must be a JSON object with exactly the keys "t", "src" and
    "out".  Saving the result again reproduces the input byte for byte, as
    long as the input was itself in canonical form.  Each line is appended
    as it is read (:func:`append_event`), so only what it adds is kept.
    """
    log = EventLog()

    def read_line(line: str) -> None:
        nonlocal log
        record = json_object(line, "t", "src", "out")
        if not isinstance(record["t"], float):
            raise ValueError('"t" must be a number')
        if not isinstance(record["src"], str) or not isinstance(record["out"], str):
            raise ValueError('"src" and "out" must be strings')
        event = Event(record["t"] + 0.0, record["src"], record["out"])  # + 0.0 as in parse_timed_token
        log = append_event(log, event)

    read_lines(path, read_line)
    return log
