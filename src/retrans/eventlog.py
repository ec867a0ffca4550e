"""Event timelines for streaming re-translation sessions.

A session is recorded as a sequence of timestamped snapshots: whenever the
source transcript or the displayed translation changes, the new pair of
texts is appended together with the wall-clock time of the change.  The log
is the single input to every downstream metric, so the on-disk format is
kept deliberately small: UTF-8 JSON, one object per line with keys "t", "src"
and "out", ordered by time, whose texts escape only ``"``, ``\\`` and U+0000 to U+001F.
In memory a log keeps only what each event adds to the last one
(:meth:`EventLog.changes`), so it grows with the talk, not with the file.

Timestamps are seconds.  Text is compared token-wise everywhere in this
package, and :func:`tokenize` is the one tokenizer all modules share.
Every input file is read through :func:`read_lines`, which names the file
and line of a bad one, and every JSONL line through :func:`json_object`,
save an event-log line in the form :func:`save_event_log` writes that
changes a text: of its texts only what they add to the line before is
decoded.  Any other event-log line, a repeat included, is decoded whole
and appended by the one rule :func:`append_event` follows.
"""

from __future__ import annotations

import codecs
import json
import math
import os
import re
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from json.decoder import scanstring
from json.encoder import encode_basestring
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .align import lcp_len


def tokenize(text: str) -> list[str]:
    """Split ``text`` on runs of whitespace.

    Punctuation stays attached to its word and case is preserved.  Every
    token count and token comparison in this package is defined in terms of
    this function.
    """
    return text.split()


@dataclass(frozen=True, slots=True)
class TimedToken:
    """A single spoken token and the moment it became available."""

    token: str
    time: float

    def __post_init__(self) -> None:
        if tokenize(self.token) != [self.token]:
            raise ValueError(f"token must be non-empty and whitespace-free, got {self.token!r}")
        if not 0.0 <= self.time < math.inf:  # false for NaN too
            raise ValueError(f"token time must be finite and >= 0, got {self.time!r}")


@dataclass(frozen=True, slots=True)
class Event:
    """One snapshot of a session.

    At ``time`` the recognized source read ``source_text`` and the display
    showed ``output_text``.  Either side may be empty; the pair as a whole
    describes what a viewer saw at that moment.
    """

    time: float
    source_text: str
    output_text: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ValueError(f"event time must be finite and >= 0, got {self.time!r}")

    def state(self) -> tuple[str, str]:
        return (self.source_text, self.output_text)


class EventLog:
    """An ordered, change-only sequence of :class:`Event` snapshots.

    Invariants: timestamps never decrease, and consecutive events differ in
    their (source, output) state: each event extends the one before it as
    in :func:`append_event`, which drops a repeat instead of raising.

    A log stores what each event adds (see :meth:`changes`), so its size
    grows with what its events add, not with their whole texts.  Events are
    rebuilt on request: ``log[-1]`` at once, iteration and ``log[i]`` one
    event at a time from the first.  Logs grown by :func:`append_event`
    share one append-only store.
    """

    __slots__ = ("_changes", "_size", "_last")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        changes: list[tuple[float, int, str, int, str]] = []
        last = None
        for event in events:
            change = _change(last, event)
            if change is None:
                raise ValueError("consecutive events must differ in source or output")
            changes.append(change)
            last = event
        self._changes, self._size, self._last = changes, len(changes), last

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Event]:
        source = output = ""
        for time, source_cut, source_tail, output_cut, output_tail in self.changes():
            source = source[:source_cut] + source_tail
            output = output[:output_cut] + output_tail
            yield Event(time, source, output)

    def __getitem__(self, index: int) -> Event:
        position = index + self._size if index < 0 else index
        if not 0 <= position < self._size:
            raise IndexError("event index out of range")
        if position == self._size - 1:
            return self._last
        return next(islice(self, position, None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        # Each change holds the longest prefix its texts share with the last
        # ones, so equal events are equal changes.
        return self._size == other._size and list(self.changes()) == list(other.changes())

    def __repr__(self) -> str:
        return f"EventLog(events={self.events!r})"

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event, each with its whole texts."""
        return tuple(self)

    def changes(self) -> Iterator[tuple[float, int, str, int, str]]:
        """What each event adds, in order: its time and, for the source and
        then the output, how many characters of the last event's text it
        keeps (all they share, zero at the first event) and the text after
        them."""
        return islice(self._changes, self._size)

    @classmethod
    def _of(cls, changes: list[tuple[float, int, str, int, str]], last: Event | None) -> EventLog:
        """The log of ``changes``, a list it shares, ending in the event ``last``.
        Each cut must be all its text shares with the last one, as ``==`` assumes."""
        log = object.__new__(cls)
        log._changes, log._size, log._last = changes, len(changes), last
        return log


@contextmanager
def replacing_file(path: str | Path) -> Iterator[BinaryIO]:
    """Open a new file beside ``path`` to write bytes to through a 1 MiB
    buffer; every writer in this package writes UTF-8 with ``\\n`` line ends.
    When the block ends, the new file replaces ``path`` in one step; if the
    block raises, the new file is removed.  So ``path`` holds either its old
    content or all of the new one."""
    temp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    # The default 8 KiB buffer would make a write call per few lines of a long event log.
    handle = open(temp, "xb", 1 << 20)
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def read_lines(path: str | Path, read_line: Callable[[str], object]) -> None:
    """Pass each line of the UTF-8 file ``path`` that holds more than whitespace
    to ``read_line``, without its ``\\n``.  A ``ValueError`` from ``read_line``,
    bytes that are not UTF-8, or a byte order mark at the start of the file
    raise ``ValueError`` naming the file and line."""
    lineno = 1
    with open(path, "r", encoding="utf-8") as handle:
        try:
            # Kept, a mark would read as part of the first word or value.  peek
            # looks at the first bytes without consuming them.
            if handle.buffer.peek(3).startswith(codecs.BOM_UTF8):
                raise ValueError("starts with a UTF-8 byte order mark; save the file without one")
            for lineno, raw in enumerate(handle, 1):
                if not raw.isspace():
                    read_line(raw.rstrip("\n"))
        except ValueError as exc:
            error = str(exc)
            if isinstance(exc, UnicodeDecodeError):  # only a file that failed is read again, to find the line
                for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
                    try:
                        raw.decode("utf-8")
                    except UnicodeDecodeError as bad:
                        error = f"not valid UTF-8: {bad}"
                        break
            raise ValueError(f"{path}: line {lineno}: {error}") from None


_JSON = json.JSONDecoder(parse_int=float)
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def json_object(line: str, *keys: str) -> dict:
    """Decode one JSONL line, which must be an object with exactly ``keys``
    and no lone surrogate.  Every number decodes as a float, so an integer
    too large for one decodes as inf, as the literal 1e400 does."""
    line = line.strip()
    try:
        record, end = _JSON.raw_decode(line)  # stripped, so it fails as decode would
        if end != len(line):
            record = _JSON.decode(line)  # raises json.loads's "Extra data"
    except json.JSONDecodeError as exc:
        if line.startswith("\ufeff"):  # json.loads's own check, which the decoder skips
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(record, dict) or record.keys() != set(keys):
        expected = ", ".join(f'"{key}"' for key in keys)
        raise ValueError(f"expected an object with keys {expected}")
    if "\\" in line:  # JSON spells a surrogate only as an escape
        for key, value in record.items():
            found = _LONE_SURROGATE.search(json.dumps(value, ensure_ascii=False))
            if found:
                raise ValueError(f'"{key}" holds the lone surrogate {found.group()!r}')
    return record


def parse_timed_token(item: dict) -> TimedToken:
    """Build a :class:`TimedToken` from a decoded ``{"w", "time"}`` object."""
    if not isinstance(item["w"], str):
        raise ValueError('"w" must be a string')
    if not isinstance(item["time"], float):
        raise ValueError('"time" must be a number')
    return TimedToken(item["w"], item["time"] + 0.0)  # + 0.0: -0 and -0.0 read as 0.0, which saves as "0.0"


def _change(last: Event | None, event: Event) -> tuple[float, int, str, int, str] | None:
    """What ``event`` adds to a log ending in ``last``, as :meth:`EventLog.changes`
    gives it, or None if it repeats the last (source, output) state; a clock
    regression raises ``ValueError``."""
    if last is None:
        return (event.time, 0, event.source_text, 0, event.output_text)
    if event.time < last.time:
        raise ValueError(f"event time {event.time!r} precedes the last logged time {last.time!r}")
    if event.state() == last.state():
        return None
    source_cut = lcp_len(last.source_text, event.source_text)
    output_cut = lcp_len(last.output_text, event.output_text)
    return (event.time, source_cut, event.source_text[source_cut:], output_cut, event.output_text[output_cut:])


def append_event(log: EventLog, event: Event) -> EventLog:
    """Return ``log`` extended by ``event``.

    The log records change only: an event repeating the last (source,
    output) state is dropped and ``log`` itself is returned.  A timestamp
    earlier than the last one signals a corrupted session and raises
    ``ValueError``.  Appending to the newest log of a store costs what the
    event's texts cost to compare with the last ones; appending to an older
    one first copies its own changes into a store of its own.
    """
    change = _change(log._last, event)
    if change is None:
        return log
    changes = log._changes
    if len(changes) > log._size:  # a later log already grew this store
        changes = changes[:log._size]
    changes.append(change)
    return EventLog._of(changes, event)


def format_seconds(value: float) -> str:
    """Canonical wire form of a timestamp: at most 3 decimals, at least 1."""
    text = f"{value + 0.0:.3f}".rstrip("0")  # + 0.0: -0.0 writes as "0.0"
    return text + "0" if text.endswith(".") else text


def _escaped_body(text: str, cut: int, tail: str, body: bytes) -> tuple[str, bytes]:
    """``text`` cut after ``cut`` characters and extended by ``tail``, and that
    text as an unquoted UTF-8 JSON string, where ``body`` is ``text``'s.  Escaping
    and encoding act per character, so the cut drops from ``body`` the bytes
    that the part cut off escapes to, and only that part and ``tail`` are escaped."""
    if cut < len(text):
        body = body[:len(body) - len(encode_basestring(text[cut:])[1:-1].encode("utf-8"))]
    return text[:cut] + tail, body + encode_basestring(tail)[1:-1].encode("utf-8")


def save_event_log(log: EventLog, path: str | Path) -> None:
    """Write ``log`` as JSONL, one event per line, ordered by time: UTF-8 lines
    ``{"t": T, "src": S, "out": O}`` with ``T`` by :func:`format_seconds` and texts as
    ``json.dumps(..., ensure_ascii=False)`` escapes them: only ``"``, ``\\``, U+0000-U+001F.
    A failed save leaves ``path`` as it was (see :func:`replacing_file`)."""
    source = output = ""
    src_body = out_body = b""
    with replacing_file(path) as handle:  # five writes a line: joining copies each snapshot again
        for time, source_cut, source_tail, output_cut, output_tail in log.changes():
            source, src_body = _escaped_body(source, source_cut, source_tail, src_body)
            output, out_body = _escaped_body(output, output_cut, output_tail, out_body)
            handle.write(b'{"t": %s, "src": "' % format_seconds(time).encode())
            handle.write(src_body)
            handle.write(b'", "out": "')
            handle.write(out_body)
            handle.write(b'"}\n')


# A line as save_event_log writes it, up to its source text: the time is a
# JSON number with a point and no sign or exponent.
_CANONICAL_HEAD = re.compile(r'\{"t": ((?:0|[1-9][0-9]*)\.[0-9]+), "src": "')
_CANONICAL_MIDDLE = '", "out": "'


def _read_text(line: str, start: int, text: str, body: str | None) -> tuple[int, str, int] | None:
    """The JSON string whose body starts at ``line[start]``, read after one
    that held ``text`` as ``body`` (None: as a body not kept): how many
    characters of ``text`` it keeps (all they share), the text after them,
    and where its closing quote is.  None if it is not valid JSON or holds
    a lone surrogate.

    A body that starts with ``body`` is ``text`` and more, so only the rest
    is decoded: ``body`` was a whole string body with no lone surrogate, so
    it ends between two escapes and not inside an escaped surrogate pair."""
    try:
        if body is not None and line.startswith(body, start):
            cut = len(text)
            tail, end = scanstring(line, start + len(body), True)
        else:
            whole, end = scanstring(line, start, True)
            cut = lcp_len(text, whole)
            tail = whole[cut:]
    except ValueError:
        return None
    if _LONE_SURROGATE.search(tail):
        return None
    return cut, tail, end - 1


def _json_event(line: str) -> Event:
    """An event-log line read as any JSONL line is, through :func:`json_object`."""
    record = json_object(line, "t", "src", "out")
    if not isinstance(record["t"], float):
        raise ValueError('"t" must be a number')
    if not isinstance(record["src"], str) or not isinstance(record["out"], str):
        raise ValueError('"src" and "out" must be strings')
    return Event(record["t"] + 0.0, record["src"], record["out"])  # + 0.0 as in parse_timed_token


def load_event_log(path: str | Path) -> EventLog:
    """Read a JSONL event log written by :func:`save_event_log`.

    Each line must be a JSON object with exactly the keys "t", "src" and
    "out".  Saving the result again reproduces the input byte for byte, as
    long as the input was itself in canonical form.  Only what each line
    adds to the last event is kept.  A line is read in place when it is in
    the form the writer gives, its time is finite and no earlier than the
    last, and it changes a text of the last event (two empty texts before
    the first): where a text's escaped body starts with the line before's,
    only the rest is decoded.  Every other line (another form, bad JSON, a
    lone surrogate, a time that regresses, a repeat) is decoded whole
    (:func:`json_object`) and appended by the rule :func:`append_event`
    follows, so it raises as there or is dropped.
    """
    changes: list[tuple[float, int, str, int, str]] = []
    # The last event, and the bodies its texts had in its line: None after a line read whole.
    time, source, output = 0.0, "", ""
    source_body: str | None = ""
    output_body: str | None = ""

    def read_line(line: str) -> None:
        nonlocal time, source, output, source_body, output_body
        head = _CANONICAL_HEAD.match(line)
        if (
            head
            and time <= (line_time := float(head.group(1))) < math.inf
            and (src := _read_text(line, source_start := head.end(), source, source_body))
            and line.startswith(_CANONICAL_MIDDLE, src[2])
            and (out := _read_text(line, output_start := src[2] + len(_CANONICAL_MIDDLE), output, output_body))
            and line[out[2]:] == '"}'
            and (src[1] or out[1] or src[0] < len(source) or out[0] < len(output))  # changes a text
        ):
            changes.append((line_time, src[0], src[1], out[0], out[1]))
            time, source, output = line_time, source[:src[0]] + src[1], output[:out[0]] + out[1]
            source_body, output_body = line[source_start:src[2]], line[output_start:out[2]]
            return
        event = _json_event(line)
        change = _change(Event(time, source, output) if changes else None, event)
        if change is not None:
            changes.append(change)
            time, source, output = event.time, event.source_text, event.output_text
            source_body = output_body = None

    read_lines(path, read_line)
    return EventLog._of(changes, Event(time, source, output) if changes else None)
