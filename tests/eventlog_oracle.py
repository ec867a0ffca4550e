"""The event-log writer and reader as they were before each paid only for
what a snapshot adds.  The writer escapes and encodes every event's texts
whole; it is the reference that ``save_event_log`` must match byte for
byte.  The reader decodes every line whole through ``json_object`` and
folds the events into a plain tuple with its own order and repeat rule,
and :func:`changes` finds what each event adds one character at a time;
``load_event_log`` must give the same events and changes, or raise the
same ``ValueError``, on every file.  Neither shares ``append_event``'s
rule or ``EventLog``'s store."""

from __future__ import annotations

import json
from pathlib import Path

from retrans.eventlog import Event, EventLog, format_seconds, json_object, read_lines


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


def load_event_log(path: str | Path) -> tuple[Event, ...]:
    """The events of a JSONL event log: each line is decoded whole, an event
    earlier than the last raises, and one repeating the last (source,
    output) state is dropped."""
    events: tuple[Event, ...] = ()

    def read_line(line: str) -> None:
        nonlocal events
        record = json_object(line, "t", "src", "out")
        if not isinstance(record["t"], float):
            raise ValueError('"t" must be a number')
        if not isinstance(record["src"], str) or not isinstance(record["out"], str):
            raise ValueError('"src" and "out" must be strings')
        event = Event(record["t"] + 0.0, record["src"], record["out"])  # + 0.0 as in parse_timed_token
        if events and event.time < events[-1].time:
            raise ValueError(f"event time {event.time!r} precedes the last logged time {events[-1].time!r}")
        if not events or (event.source_text, event.output_text) != (events[-1].source_text, events[-1].output_text):
            events += (event,)

    read_lines(path, read_line)
    return events


def _shared_prefix(a: str, b: str) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def changes(events: tuple[Event, ...]) -> list[tuple[float, int, str, int, str]]:
    """What each event adds to the one before, as ``EventLog.changes`` gives
    it: its time and, per side, all it shares with the last text and the rest."""
    result = []
    source = output = ""
    for event in events:
        source_cut = _shared_prefix(source, event.source_text)
        output_cut = _shared_prefix(output, event.output_text)
        result.append((event.time, source_cut, event.source_text[source_cut:], output_cut, event.output_text[output_cut:]))
        source, output = event.source_text, event.output_text
    return result
