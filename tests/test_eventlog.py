from __future__ import annotations

import math
import re
from json.decoder import scanstring

import pytest
from hypothesis import given, settings, strategies as st

from retrans import (
    Event,
    EventLog,
    MetricsReport,
    SweepRow,
    TimedToken,
    load_captions,
    load_event_log,
    load_reference_document,
    load_table_model,
    load_transcript,
    save_event_log,
    save_report,
    save_sweep_rows,
    save_transcript,
    tokenize,
)
import retrans.eventlog
from retrans.eventlog import append_event, format_seconds, json_object
from retrans.pipeline import TimedTranscript

import eventlog_oracle
import replay_oracle
from conftest import TOY_DIR, build_log


def test_tokenize_splits_on_whitespace_runs():
    assert tokenize("Neue  Arzneimittel könnten ") == ["Neue", "Arzneimittel", "könnten"]
    assert tokenize("") == []
    assert tokenize("   ") == []
    assert tokenize("one\ttwo\nthree") == ["one", "two", "three"]


def test_tokenize_keeps_punctuation_and_case():
    assert tokenize("May slow, ovarian cancer.") == ["May", "slow,", "ovarian", "cancer."]


@given(st.lists(st.text(alphabet="abcXYZ.!?", min_size=1), min_size=0, max_size=20))
def test_tokenize_round_trips_through_join(tokens):
    assert tokenize(" ".join(tokens)) == tokens


def test_event_rejects_bad_times():
    with pytest.raises(ValueError):
        Event(-0.5, "a", "b")
    with pytest.raises(ValueError):
        Event(float("nan"), "a", "b")
    with pytest.raises(ValueError):
        Event(float("inf"), "a", "b")


def test_append_grows_only_on_state_change():
    log = build_log((1.0, "a", "x"))
    same_state = append_event(log, Event(2.0, "a", "x"))
    assert same_state is log
    grown = append_event(log, Event(2.0, "a b", "x"))
    assert len(grown) == 2
    # source-only change is still a change worth logging
    assert grown[1].output_text == "x"


def test_append_rejects_clock_regression():
    log = build_log((2.0, "a", "x"))
    with pytest.raises(ValueError):
        append_event(log, Event(1.5, "b", "y"))


def test_append_allows_equal_timestamps():
    log = build_log((2.0, "a", "x"), (2.0, "a b", "x y"))
    assert len(log) == 2


def test_eventlog_constructor_checks_invariants():
    with pytest.raises(ValueError):
        EventLog((Event(2.0, "a", "x"), Event(1.0, "b", "y")))
    with pytest.raises(ValueError):
        EventLog((Event(1.0, "a", "x"), Event(2.0, "a", "x")))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.sampled_from(["", "a", "a b"]),
            st.sampled_from(["", "x"]),
        ),
        max_size=14,
    )
)
def test_append_keeps_what_the_validating_constructor_keeps(records):
    # Small clocks and texts make repeats and regressions common.  Folding
    # append_event must keep the events the validating fold keeps, and fail
    # at the same event with the same message, which the constructor also
    # raises for the kept events followed by that one.
    events = [Event(tenths / 10.0, src, out) for tenths, src, out in records]
    log, oracle_events = EventLog(), ()
    kept = []
    for event in events:
        try:
            oracle_events = replay_oracle.append_event(oracle_events, event)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                append_event(log, event)
            assert str(excinfo.value) == str(exc)
            with pytest.raises(ValueError) as excinfo:
                EventLog(tuple(kept) + (event,))
            assert str(excinfo.value) == str(exc)
            break
        log = append_event(log, event)
        if not kept or event.state() != kept[-1].state():
            kept.append(event)
        assert log == EventLog(oracle_events) == EventLog(tuple(kept))
    # Passed directly, a tuple with a repeat or a regression still fails.
    bad = any(
        cur.time < prev.time or cur.state() == prev.state() for prev, cur in zip(events, events[1:])
    )
    if bad:
        with pytest.raises(ValueError):
            EventLog(tuple(events))
    else:
        assert EventLog(tuple(events)).events == tuple(events)


def test_format_seconds_three_decimals_max():
    assert format_seconds(2.0) == "2.0"
    assert format_seconds(3.5) == "3.5"
    assert format_seconds(4.125) == "4.125"
    assert format_seconds(1.23456) == "1.235"
    assert format_seconds(0.0) == "0.0"
    assert format_seconds(-0.0) == "0.0"


def test_save_load_save_is_byte_identical(tmp_path, session_log):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    save_event_log(session_log, first)
    save_event_log(load_event_log(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"t": 1.0, "src": "a", "out": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_event_log(path)


def test_load_rejects_wrong_keys(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"time": 1.0, "src": "a", "out": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_event_log(path)
    path.write_text('{"t": 1.0, "src": "a", "out": "x", "extra": 1}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_event_log(path)


@pytest.mark.parametrize("key", ["src", "out"])
def test_load_names_the_line_and_key_of_a_lone_surrogate(tmp_path, key):
    path = tmp_path / "events.jsonl"
    texts = {"src": '"a"', "out": '"x"', key: '"a\\ud800"'}
    path.write_text(
        '{"t": 0.0, "src": "a \\\\", "out": "x"}\n'
        f'{{"t": 1.0, "src": {texts["src"]}, "out": {texts["out"]}}}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as excinfo:
        load_event_log(path)
    assert str(excinfo.value) == f"{path}: line 2: \"{key}\" holds the lone surrogate '\\ud800'"
    # An escaped surrogate pair is one character, and the log saves as it was read.
    path.write_text('{"t": 0.0, "src": "a", "out": "x \\ud83d\\ude00"}\n', encoding="utf-8")
    log = load_event_log(path)
    assert log.events[-1].output_text == "x \U0001f600"
    save_event_log(log, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_text(encoding="utf-8") == '{"t": 0.0, "src": "a", "out": "x \U0001f600"}\n'


def test_load_rejects_negative_and_regressing_times(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"t": -1.0, "src": "a", "out": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_event_log(path)
    path.write_text(
        '{"t": 2.0, "src": "a", "out": "x"}\n{"t": 1.0, "src": "b", "out": "y"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="line 2"):
        load_event_log(path)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-1000, max_value=3000),
            st.sampled_from(["", "a", "a b"]),
            st.sampled_from(["", "x"]),
        ),
        max_size=10,
    )
)
def test_load_keeps_what_append_keeps(tmp_path_factory, records):
    # Repeats are dropped and a clock regression fails on its line, with
    # append_event's message, exactly as folding append_event would.
    path = tmp_path_factory.mktemp("logs") / "log.jsonl"
    path.write_text(
        "".join(f'{{"t": {millis / 1000.0}, "src": "{src}", "out": "{out}"}}\n' for millis, src, out in records),
        encoding="utf-8",
    )
    expected = EventLog()
    error = None
    for lineno, (millis, src, out) in enumerate(records, 1):
        try:
            expected = append_event(expected, Event(millis / 1000.0, src, out))
        except ValueError as exc:
            error = f"{path}: line {lineno}: {exc}"
            break
    if error is None:
        assert load_event_log(path) == expected
    else:
        with pytest.raises(ValueError) as excinfo:
            load_event_log(path)
        assert str(excinfo.value) == error


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5000),
            st.text(alphabet="abc .", max_size=8),
            st.text(alphabet="xyz .", max_size=8),
        ),
        max_size=12,
    )
)
def test_random_logs_round_trip(tmp_path_factory, records):
    log = EventLog()
    clock = 0.0
    for millis, src, out in records:
        clock += millis / 1000.0
        log = append_event(log, Event(round(clock, 3), src, out))
    path = tmp_path_factory.mktemp("logs") / "log.jsonl"
    save_event_log(log, path)
    reloaded = load_event_log(path)
    assert reloaded == log


# Every character class the escaping treats apart: plain, the two escaped
# printables, control characters, DEL and U+2028 (not escaped), two- and
# three-byte UTF-8, and a non-BMP character.
_CHARACTERS = ["a", " ", '"', "\\", "\x00", "\x1f", "\x7f", "ü", "€", "\u2028", "\U0001f600"]
_pieces = st.text(alphabet=st.sampled_from(_CHARACTERS), max_size=6)


@st.composite
def _next_text(draw, last: str) -> str:
    """The text after ``last``: it extends, repeats, shrinks or diverges mid-text."""
    kind = draw(st.sampled_from(["extend", "repeat", "shrink", "diverge"]))
    if kind == "extend":
        return last + draw(_pieces)
    if kind == "repeat":
        return last
    cut = draw(st.integers(min_value=0, max_value=len(last)))
    return last[:cut] if kind == "shrink" else last[:cut] + draw(_pieces.filter(bool))


@settings(max_examples=300)
@given(st.data())
def test_save_matches_the_whole_snapshot_writer(tmp_path_factory, data):
    log, clock, src, out = EventLog(), 0.0, "", ""
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        src, out = data.draw(_next_text(src)), data.draw(_next_text(out))
        clock += data.draw(st.integers(min_value=0, max_value=2500)) / 1000.0
        log = append_event(log, Event(round(clock, 3), src, out))
    directory = tmp_path_factory.mktemp("logs")
    save_event_log(log, directory / "log.jsonl")
    eventlog_oracle.save_event_log(log, directory / "oracle.jsonl")
    assert (directory / "log.jsonl").read_bytes() == (directory / "oracle.jsonl").read_bytes()
    assert load_event_log(directory / "log.jsonl") == log


@pytest.mark.parametrize(
    "special", ['"', "\\", "\x00", "\n", "\x1f", "\U0001f600"], ids=["quote", "backslash", "nul", "newline", "us", "non_bmp"]
)
def test_save_matches_the_whole_snapshot_writer_on_cuts_next_to_escaped_characters(tmp_path, special):
    # Every revision cuts one text at each of its characters, so some cut
    # right after a character whose escape or UTF-8 form is longer than one
    # byte: the writer must drop exactly that many bytes from the line.
    base = f"a{special}b{special}{special}"
    log, clock = EventLog(), 0.0
    for cut in range(len(base) + 1):
        for text in (base, base[:cut] + "c" + special):
            clock += 0.5
            log = append_event(log, Event(clock, text, text[::-1]))
    save_event_log(log, tmp_path / "log.jsonl")
    eventlog_oracle.save_event_log(log, tmp_path / "oracle.jsonl")
    assert (tmp_path / "log.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    assert load_event_log(tmp_path / "log.jsonl") == log


def _assert_holds(log: EventLog, events: tuple[Event, ...]) -> None:
    assert len(log) == len(events)
    assert bool(log) == bool(events)
    assert list(log) == list(events)
    assert log.events == events
    assert log == EventLog(events)
    assert [log[i] for i in range(len(events))] == list(events)
    assert [log[i - len(events)] for i in range(len(events))] == list(events)
    for index in (len(events), -len(events) - 1):
        with pytest.raises(IndexError):
            log[index]


@settings(max_examples=200)
@given(st.data())
def test_logs_sharing_a_store_hold_the_events_appended(tmp_path_factory, data):
    # Logs grown from one another share one store.  Appending to an older log
    # after a newer one exists must leave every log holding exactly its own
    # events, as a plain tuple of whole events does.
    pairs = [(EventLog(), ())]
    for _ in range(data.draw(st.integers(min_value=0, max_value=14))):
        log, events = pairs[data.draw(st.sampled_from([-1, -1, 0, len(pairs) // 2]))]
        last = events[-1] if events else Event(0.0, "", "")
        seconds = data.draw(st.integers(min_value=-500, max_value=2500)) / 1000.0
        source, output = data.draw(_next_text(last.source_text)), data.draw(_next_text(last.output_text))
        event = Event(max(round(last.time + seconds, 3), 0.0), source, output)
        try:
            events = replay_oracle.append_event(events, event)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                append_event(log, event)
            continue
        pairs.append((append_event(log, event), events))
        for log, events in pairs:
            _assert_holds(log, events)
    for (log, events), (other, other_events) in zip(pairs, pairs[1:]):
        assert (log == other) == (events == other_events)
    directory = tmp_path_factory.mktemp("logs")
    for log, events in pairs[-3:]:
        save_event_log(log, directory / "log.jsonl")
        eventlog_oracle.save_event_log(EventLog(events), directory / "oracle.jsonl")
        assert (directory / "log.jsonl").read_bytes() == (directory / "oracle.jsonl").read_bytes()
        assert load_event_log(directory / "log.jsonl") == log


@pytest.mark.parametrize(
    "reader, first_line, bad_line",
    [
        (load_transcript, '{"w": "a", "time": 0.0}', b'{"w": "\xff", "time": 1.0}'),
        (load_reference_document, '{"src": [{"w": "a", "time": 0.0}], "ref": "x"}', b'{"src": [], "ref": "\xff"}'),
        (load_event_log, '{"t": 0.0, "src": "a", "out": "x"}', b'{"t": 1.0, "src": "\xff", "out": "x"}'),
        (load_table_model, "a\t\u2217\tx\t1.0", b"b\t\xe2\x88\tx\t1.0"),
        (load_captions, "0.0\t1.0\ta", b"1.0\t2.0\t\xff"),
    ],
    ids=["transcript", "reference", "event_log", "table_model", "captions"],
)
def test_readers_name_the_file_and_line_of_invalid_utf8(tmp_path, reader, first_line, bad_line):
    # The bad byte lies past the first 8 KiB, where a decoding error's own
    # position no longer counts from the start of the file.
    path = tmp_path / "input"
    path.write_bytes(first_line.encode("utf-8") + b"\n" * 9000 + bad_line + b"\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 9001: not valid UTF-8: 'utf-8' codec"):
        reader(path)


_MODEL_ROW = "a\t∗\tx\t0.5"
_CUE = "0.0\t2.0\ta"
_WORD = '{"w": "a", "time": 1.0}'
_SEGMENT = '{"src": [{"w": "a", "time": 1.0}], "ref": "x"}'
_EVENT = '{"t": 1.0, "src": "a", "out": "x"}'

# (reader, good lines, bad line, message of the bad line)
_LINE_ERRORS = {
    "model-columns": (load_table_model, [_MODEL_ROW], "b\t∗\tx", "expected 4 tab-separated columns, got 3"),
    "model-token": (load_table_model, [_MODEL_ROW], "b\t∗\tx y\t1.0", "every token must be non-empty and whitespace-free"),
    "model-probability": (load_table_model, [_MODEL_ROW], "b\t∗\tx\thalf", "bad probability 'half'"),
    "model-range": (load_table_model, [_MODEL_ROW], "b\t∗\tx\t1.5", "probability must be in (0, 1]"),
    "model-duplicate": (load_table_model, [_MODEL_ROW], _MODEL_ROW, "duplicate row for ('a', '∗', 'x')"),
    "captions-columns": (load_captions, [_CUE], "2.0\t3.0", "expected 3 tab-separated columns"),
    "captions-times": (load_captions, [_CUE], "two\t3.0\tb", "bad cue times"),
    "captions-window": (load_captions, [_CUE], "3.0\t3.0\tb", "cue window must satisfy 0 <= start < end < inf, got [3.0, 3.0)"),
    "captions-overlap": (load_captions, [_CUE], "1.5\t3.0\tb", "cue starting at 1.5 overlaps or precedes the cue ending at 2.0"),
    "transcript-keys": (load_transcript, [_WORD], '{"w": "b"}', 'expected an object with keys "w", "time"'),
    "transcript-w": (load_transcript, [_WORD], '{"w": 2.0, "time": 2.0}', '"w" must be a string'),
    "transcript-time": (load_transcript, [_WORD], '{"w": "b", "time": "2.0"}', '"time" must be a number'),
    "transcript-bool-time": (load_transcript, [_WORD], '{"w": "b", "time": true}', '"time" must be a number'),
    "transcript-order": (load_transcript, [_WORD], '{"w": "b", "time": 0.5}', "transcript times must be non-decreasing"),
    "reference-shape": (load_reference_document, [_SEGMENT], '{"src": {}, "ref": "y"}', '"src" must be a list and "ref" a string'),
    "reference-entry-keys": (
        load_reference_document, [_SEGMENT], '{"src": [{"w": "b"}], "ref": "y"}', 'source entries need exactly the keys "w", "time"'
    ),
    "reference-order": (
        load_reference_document, [_SEGMENT], '{"src": [{"w": "b", "time": 0.5}], "ref": "y"}', "source token times must be non-decreasing"
    ),
    "reference-empty-segment": (
        load_reference_document, [_SEGMENT], '{"src": [], "ref": "y"}', "a reference segment needs at least one source token"
    ),
    "event-log-json": (
        load_event_log, [_EVENT], '  {"t": 2.0,', "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 11 (char 10)"
    ),
    "event-log-bom": (
        load_event_log, [_EVENT], '\ufeff{"t": 2.0, "src": "b", "out": "y"}', "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    ),
    "event-log-t": (load_event_log, [_EVENT], '{"t": "2.0", "src": "b", "out": "y"}', '"t" must be a number'),
    "event-log-strings": (load_event_log, [_EVENT], '{"t": 2.0, "src": "b", "out": 1.0}', '"src" and "out" must be strings'),
    "event-log-clock": (load_event_log, [_EVENT], '{"t": 0.5, "src": "b", "out": "y"}', "event time 0.5 precedes the last logged time 1.0"),
}


@pytest.mark.parametrize("reader, good, bad, message", list(_LINE_ERRORS.values()), ids=list(_LINE_ERRORS))
def test_readers_name_the_file_and_line_of_each_bad_line(tmp_path, reader, good, bad, message):
    # The blank line before the bad one is skipped but still counted.
    path = tmp_path / "input"
    path.write_text("\n".join(good) + "\n   \n" + bad + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: line {len(good) + 2}: {message}"


@pytest.mark.parametrize("zeros", [400, 5000])
@pytest.mark.parametrize(
    "reader, line, message",
    [
        (load_transcript, '{"w": "a", "time": TIME}', "token time must be finite and >= 0, got inf"),
        (load_reference_document, '{"src": [{"w": "a", "time": TIME}], "ref": "x"}', "token time must be finite and >= 0, got inf"),
        (load_event_log, '{"t": TIME, "src": "a", "out": "x"}', "event time must be finite and >= 0, got inf"),
    ],
    ids=["transcript", "reference", "event_log"],
)
def test_an_integer_time_too_large_for_a_float_reads_as_inf(tmp_path, reader, line, message, zeros):
    # 1e400 overflows a float, and 5000 digits pass the limit on int() of a
    # string; both read as inf, as the literal 1e400 does.
    path = tmp_path / "input"
    path.write_text("\n" + line.replace("TIME", "1" + "0" * zeros) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: line 2: {message}"


def test_an_integer_time_reads_as_the_float_it_rounds_to(tmp_path):
    # -0.0 reads as 0.0 too, so every zero saves as "0.0".
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"w": "a", "time": -0}\n{"w": "z", "time": -0.0}\n{"w": "b", "time": 3}\n{"w": "c", "time": 9007199254740993}\n',
        encoding="utf-8",
    )
    times = [token.time for token in load_transcript(path).tokens]
    assert times == [0.0, 0.0, 3.0, float(9007199254740993)]
    assert all(type(time) is float and math.copysign(1.0, time) == 1.0 for time in times)
    save_transcript(load_transcript(path), path)
    assert path.read_text(encoding="utf-8").startswith('{"w": "a", "time": 0.0}\n{"w": "z", "time": 0.0}\n{"w": "b", "time": 3.0}\n')
    events = tmp_path / "e.jsonl"
    events.write_text('{"t": -0.0, "src": "a", "out": "x"}\n{"t": -0, "src": "a b", "out": "x"}\n{"t": 3, "src": "a b c", "out": "x"}\n', encoding="utf-8")
    assert [event.time for event in load_event_log(events)] == [0.0, 0.0, 3.0]
    save_event_log(load_event_log(events), events)
    assert events.read_text(encoding="utf-8").startswith('{"t": 0.0, "src": "a", "out": "x"}\n{"t": 0.0, "src": "a b", "out": "x"}\n{"t": 3.0,')


@pytest.mark.parametrize(
    "reader, first_line",
    [
        (load_transcript, _WORD),
        (load_reference_document, _SEGMENT),
        (load_event_log, _EVENT),
        (load_table_model, "a\t∗\tx\t1.0"),
        (load_captions, _CUE),
    ],
    ids=["transcript", "reference", "event_log", "table_model", "captions"],
)
def test_readers_reject_a_byte_order_mark_on_line_1(tmp_path, reader, first_line):
    # Kept, the mark would become part of the first word or value: a model
    # row whose source word never matches, or cue times that fail to parse.
    path = tmp_path / "input"
    path.write_text("\ufeff" + first_line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: line 1: starts with a UTF-8 byte order mark; save the file without one"
    path.write_text(first_line + "\n", encoding="utf-8")
    reader(path)


# Transcripts have a writer, so they round-trip: tokens holding the two
# escaped printables and characters beyond the BMP, at millisecond times.
@given(
    st.lists(
        st.tuples(st.text(alphabet=st.sampled_from(["a", '"', "\\", "ü", "\U0001f600"]), min_size=1, max_size=4), st.integers(0, 3000)),
        max_size=8,
    )
)
def test_transcripts_round_trip(tmp_path_factory, words):
    clock, tokens = 0, []
    for word, millis in words:
        clock += millis
        tokens.append(TimedToken(word, clock / 1000.0))
    transcript = TimedTranscript(tuple(tokens))
    directory = tmp_path_factory.mktemp("transcripts")
    save_transcript(transcript, directory / "first.jsonl")
    loaded = load_transcript(directory / "first.jsonl")
    assert loaded == transcript
    save_transcript(loaded, directory / "second.jsonl")
    assert (directory / "second.jsonl").read_bytes() == (directory / "first.jsonl").read_bytes()


# One character of one saved line inserted, deleted or replaced: by a
# character the two JSONL forms give meaning to, or by one they escape.  No
# edit adds a line end, so the edited line keeps its number.
_EDIT_CHARACTERS = ["0", "7", ".", "-", "e", " ", ",", ":", "{", "}", '"', "\\", "u", "a", "ü", "\x01", "\U0001f600"]


@st.composite
def _edited_lines(draw, lines: list[str]) -> tuple[int, list[str]]:
    """``lines`` with one character of one of them edited, and that line's 1-based number."""
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    at = draw(st.integers(0, len(line) if kind == "insert" else len(line) - 1))
    new = "" if kind == "delete" else draw(st.sampled_from(_EDIT_CHARACTERS))
    edited = line[:at] + new + line[at + (kind != "insert"):]
    return index + 1, lines[:index] + [edited] + lines[index + 1:]


def _assert_an_edit_fails_on_its_line_or_saves_canonically(directory, lines, lineno, load, save):
    """Loading the edited ``lines`` raises naming the file and a line no
    earlier than the edit, or what loads saves to bytes that load and save
    to themselves.  Returns the edited file."""
    path = directory / "edited.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")
    try:
        loaded = load(path)
    except ValueError as exc:
        failed = re.match(f"{re.escape(str(path))}: line ([0-9]+): ", str(exc))
        assert failed and int(failed.group(1)) >= lineno, str(exc)
        return path
    save(loaded, directory / "first.jsonl")
    save(load(directory / "first.jsonl"), directory / "second.jsonl")
    assert (directory / "second.jsonl").read_bytes() == (directory / "first.jsonl").read_bytes()
    return path


@settings(max_examples=150)
@given(
    words=st.lists(
        st.tuples(st.text(alphabet=st.sampled_from(["a", '"', "\\", "ü"]), min_size=1, max_size=4), st.integers(0, 3000)),
        min_size=1,
        max_size=4,
    ),
    data=st.data(),
)
def test_an_edited_transcript_line_fails_on_its_line_or_saves_canonically(tmp_path_factory, words, data):
    clock, tokens = 0, []
    for word, millis in words:
        clock += millis
        tokens.append(TimedToken(word, clock / 1000.0))
    directory = tmp_path_factory.mktemp("transcripts")
    save_transcript(TimedTranscript(tuple(tokens)), directory / "saved.jsonl")
    lines = (directory / "saved.jsonl").read_text(encoding="utf-8").splitlines()
    lineno, edited = data.draw(_edited_lines(lines))
    _assert_an_edit_fails_on_its_line_or_saves_canonically(directory, edited, lineno, load_transcript, save_transcript)


@settings(max_examples=150)
@given(
    records=st.lists(
        st.tuples(st.integers(0, 3000), st.text(alphabet="ab \"\\ü", max_size=6), st.text(alphabet="xy \"\\ü", max_size=6)),
        min_size=1,
        max_size=4,
    ),
    data=st.data(),
)
def test_an_edited_event_log_line_fails_on_its_line_or_saves_canonically(tmp_path_factory, records, data):
    log = EventLog()
    clock = 0
    for millis, src, out in records:
        clock += millis
        log = append_event(log, Event(clock / 1000.0, src, out))
    directory = tmp_path_factory.mktemp("logs")
    save_event_log(log, directory / "saved.jsonl")
    lines = (directory / "saved.jsonl").read_text(encoding="utf-8").splitlines()
    lineno, edited = data.draw(_edited_lines(lines))
    path = _assert_an_edit_fails_on_its_line_or_saves_canonically(
        directory, edited, lineno, load_event_log, save_event_log
    )
    _assert_loads_as_the_oracle(path)


def test_a_crlf_copy_of_a_model_file_loads_to_the_same_model(tmp_path):
    crlf = tmp_path / "model.crlf.tsv"
    crlf.write_bytes((TOY_DIR / "model.tsv").read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    assert load_table_model(crlf) == load_table_model(TOY_DIR / "model.tsv")


def test_a_crlf_copy_of_a_caption_cue_file_loads_to_the_same_transcript(tmp_path):
    cues = tmp_path / "cues.tsv"
    cues.write_bytes(b"0.0\t1.5\tdie Bank\n2.0\t3.0\tist zu.\n")
    crlf = tmp_path / "cues.crlf.tsv"
    crlf.write_bytes(cues.read_bytes().replace(b"\n", b"\r\n"))
    assert load_captions(crlf) == load_captions(cues)
    assert [token.token for token in load_captions(crlf).tokens] == ["die", "Bank", "ist", "zu."]


# load_event_log decodes a line in the writer's form only past what each text
# shares with the line before, and reads any other line as json_object does.
# The texts of the drawn files are runs of JSON string units, so that a line
# can extend the one before it by units the writer would not write: \u
# escapes, escaped surrogate pairs, "\/".  The rare units make a line fail:
# lone surrogates, a raw control character, a bad escape and a raw quote.
_UNITS = ["a", " ", "ü", "\U0001f600", '\\"', "\\\\", "\\n", "\\u0000", "\\u001f", "\\/", "\\u00fc", "\\ud83d\\ude00", "\\uD83D\\uDE00"]
_BAD_UNITS = ["\\ud83d", "\\ude00", "\x01", "\\x", '"']
_FORMS = [
    '{"src": "%(s)s", "t": %(t)s, "out": "%(o)s"}',
    '{"t":%(t)s,"src":"%(s)s","out":"%(o)s"}',
    ' {"t": %(t)s, "src": "%(s)s", "out": "%(o)s"} ',
    '{"t": %(t)s, "src": "%(s)s", "out": "%(o)s"}\r',  # text mode reads "\r\n" as "\n"
    '{"t": %(t)s, "src": "%(s)s", "put": "%(o)s"}',
]
_CANONICAL_FORM = '{"t": %(t)s, "src": "%(s)s", "out": "%(o)s"}'
_OTHER_TIMES = ["3", "-0", "-0.0", "1e400", "1" + "0" * 400 + ".0", "1.50", "01.5", "0.5e1"]


@st.composite
def _next_units(draw, units: list[str]) -> list[str]:
    """The units after ``units``: they extend, repeat, or are cut and extended."""
    unit = st.sampled_from(_UNITS) if draw(st.integers(0, 24)) else st.sampled_from(_BAD_UNITS)
    kind = draw(st.sampled_from(["extend", "extend", "repeat", "cut"]))
    if kind == "repeat":
        return units
    keep = len(units) if kind == "extend" else draw(st.integers(0, len(units)))
    return units[:keep] + draw(st.lists(unit, max_size=4))


@st.composite
def _event_log_lines(draw) -> list[str]:
    """Lines of an event log, mostly in the writer's form, some repeated,
    some with equal, regressing or non-canonical times, some in other forms."""
    lines: list[str] = []
    clock, source, output = 0.0, [], []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if lines and not draw(st.integers(0, 9)):
            lines.append(lines[-1])
            continue
        source, output = draw(_next_units(source)), draw(_next_units(output))
        clock += draw(st.sampled_from([0, 0, 1, 250, 1500])) / 1000.0
        time = format_seconds(clock)
        if not draw(st.integers(0, 9)):
            time = draw(st.sampled_from(_OTHER_TIMES + [format_seconds(max(clock - 1.0, 0.0))]))
        form = draw(st.sampled_from(_FORMS)) if not draw(st.integers(0, 5)) else _CANONICAL_FORM
        lines.append(form % {"t": time, "s": "".join(source), "o": "".join(output)})
    return lines


def _assert_loads_as_the_oracle(path, log: EventLog | None = None) -> None:
    """``load_event_log`` gives the events and changes the whole-line oracle
    gives (and ``log``'s, if given), or raises the same error."""
    try:
        loaded = load_event_log(path)
        live = (loaded.events, list(loaded.changes()))
    except ValueError as exc:
        live = ("error", str(exc))
    try:
        events = eventlog_oracle.load_event_log(path)
        oracle = (events, eventlog_oracle.changes(events))
    except ValueError as exc:
        oracle = ("error", str(exc))
    assert live == oracle
    if log is not None:
        assert live == (log.events, list(log.changes()))


@settings(max_examples=500)
@given(lines=_event_log_lines())
def test_load_matches_the_whole_line_reader(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("logs") / "events.jsonl"
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    _assert_loads_as_the_oracle(path)


def test_load_reads_a_source_text_holding_the_out_key(tmp_path):
    # The writer escapes the quotes, so the source's body runs on past them.
    log = build_log((1.0, 'er sagt ", "out": "', "x"), (2.0, 'er sagt ", "out": "ja', "x y"), (3.0, 'er sagt ", "out": "ja"}', "x y z"))
    path = tmp_path / "events.jsonl"
    save_event_log(log, path)
    assert '"src": "er sagt \\", \\"out\\": \\"ja\\"}", "out": "x y z"}' in path.read_text(encoding="utf-8")
    _assert_loads_as_the_oracle(path, log)


def test_load_reads_an_escaped_backslash_after_a_body_ending_in_one(tmp_path):
    # "a\\" then "a\\\\": the second body starts with the first, and the tail
    # is one whole escape, not the second half of "\\\\" read from its middle.
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"t": 1.0, "src": "a\\\\", "out": "x\\\\"}\n'
        '{"t": 2.0, "src": "a\\\\\\\\", "out": "x\\\\\\""}\n'
        '{"t": 3.0, "src": "a\\\\\\\\\\\\", "out": "x\\\\\\"\\\\"}\n',
        encoding="utf-8",
    )
    log = build_log((1.0, "a\\", "x\\"), (2.0, "a\\\\", 'x\\"'), (3.0, "a\\\\\\", 'x\\"\\'))
    _assert_loads_as_the_oracle(path, log)
    save_event_log(log, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_load_names_the_line_of_invalid_utf8_in_an_extending_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    save_event_log(build_log((1.0, "a", "x"), (2.0, "a b", "x y")), path)
    path.write_bytes(path.read_bytes() + b'{"t": 3.0, "src": "a b c\xff", "out": "x y"}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: not valid UTF-8: 'utf-8' codec"):
        load_event_log(path)
    _assert_loads_as_the_oracle(path)


def test_load_rejects_a_canonical_line_whose_time_regresses(tmp_path):
    # The line is in the writer's form and extends both texts; only its time is wrong.
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"t": 2.0, "src": "a", "out": "x"}\n{"t": 2.0, "src": "a b", "out": "x y"}\n{"t": 1.999, "src": "a b c", "out": "x y z"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as excinfo:
        load_event_log(path)
    assert str(excinfo.value) == f"{path}: line 3: event time 1.999 precedes the last logged time 2.0"
    _assert_loads_as_the_oracle(path)


def test_a_crlf_copy_of_a_saved_log_loads_to_the_same_log(tmp_path):
    log = build_log((0.0, "", ""), (1.0, 'a "b"', "x\r"), (1.0, 'a "b" c\\', "x\r\ny"), (2.5, "d", "\U0001f600"))
    path = tmp_path / "events.jsonl"
    save_event_log(log, path)
    crlf = tmp_path / "events.crlf.jsonl"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_event_log(crlf) == log
    _assert_loads_as_the_oracle(crlf, log)


def test_load_decodes_only_what_each_line_adds(tmp_path, monkeypatch):
    # A quote in the first word puts an escape on every line.  Each line's
    # texts extend the last ones, so only what they add is decoded, and no
    # line goes through json_object.
    log = EventLog()
    for i in range(200):
        log = append_event(log, Event(float(i), '"a" ' + " ".join(f"s{j}" for j in range(i)), " ".join(f"w{j}" for j in range(i + 1))))
    path = tmp_path / "events.jsonl"
    save_event_log(log, path)
    decoded = []

    def counting_scanstring(line, start, strict):
        text, end = scanstring(line, start, strict)
        decoded.append(text)
        return text, end

    monkeypatch.setattr(retrans.eventlog, "scanstring", counting_scanstring)
    monkeypatch.setattr(retrans.eventlog, "json_object", None)
    assert load_event_log(path) == log
    assert decoded == [tail for change in log.changes() for tail in (change[2], change[4])]


def test_a_repeated_line_is_read_whole_and_the_lines_after_it_in_place(tmp_path, monkeypatch):
    # The repeat goes through json_object and the append rule, which drops
    # it.  It changes nothing, so the next line still has only its tails decoded.
    log = build_log((1.0, '"a"', "x"), (2.0, '"a" b', "x y"), (3.0, '"a" b c', "x y z"))
    path = tmp_path / "events.jsonl"
    save_event_log(log, path)
    first, second, third = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(first + second + second + third, encoding="utf-8")
    decoded, read_whole = [], []

    def counting_scanstring(line, start, strict):
        text, end = scanstring(line, start, strict)
        decoded.append(text)
        return text, end

    def counting_json_object(line, *keys):
        read_whole.append(line)
        return json_object(line, *keys)

    monkeypatch.setattr(retrans.eventlog, "scanstring", counting_scanstring)
    monkeypatch.setattr(retrans.eventlog, "json_object", counting_json_object)
    assert load_event_log(path) == log
    assert read_whole == [second.rstrip("\n")]
    assert decoded == ['"a"', "x", " b", " y", "", "", " c", " z"]
    _assert_loads_as_the_oracle(path, log)


def test_a_negative_zero_time_saves_as_zero_and_reloads_in_place(tmp_path, monkeypatch):
    transcript = tmp_path / "transcript.jsonl"
    save_transcript(TimedTranscript((TimedToken("a", -0.0), TimedToken("b", 1.0))), transcript)
    assert transcript.read_text(encoding="utf-8") == '{"w": "a", "time": 0.0}\n{"w": "b", "time": 1.0}\n'
    path = tmp_path / "events.jsonl"
    save_event_log(EventLog((Event(-0.0, "a", "x"), Event(1.0, "a b", "x y"))), path)
    assert path.read_text(encoding="utf-8") == '{"t": 0.0, "src": "a", "out": "x"}\n{"t": 1.0, "src": "a b", "out": "x y"}\n'
    monkeypatch.setattr(retrans.eventlog, "json_object", None)  # so every line is read in place
    again = tmp_path / "again.jsonl"
    save_event_log(load_event_log(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_transcripts_reports_and_sweep_rows_save_as_these_exact_bytes(tmp_path):
    # Round trips compare a file with its own re-save, so they would not see
    # an escape or an encoding change; these literals would.  No token can
    # hold U+2028: str.split, and so tokenize, takes it for whitespace.
    transcript = TimedTranscript(
        (
            TimedToken('"Zitat"', -0.0),
            TimedToken("a\\b", 0.5),
            TimedToken("\x01", 2.125),
            TimedToken("\u00fcber\U0001F600", 2.125),
        )
    )
    save_transcript(transcript, tmp_path / "transcript.jsonl")
    assert (tmp_path / "transcript.jsonl").read_bytes() == (
        b'{"w": "\\"Zitat\\"", "time": 0.0}\n'
        b'{"w": "a\\\\b", "time": 0.5}\n'
        b'{"w": "\\u0001", "time": 2.125}\n'
        b'{"w": "\xc3\xbcber\xf0\x9f\x98\x80", "time": 2.125}\n'
    )
    least = 5e-324  # the least subnormal double
    save_report(MetricsReport(-0.0, least, 1e308, (0, 3), (-0.0, least, 1e308)), tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == (
        b'{"bleu": -0.0, "tl": 5e-324, "ne": 1e+308, "erasure": [0, 3], "lags": [-0.0, 5e-324, 1e+308]}\n'
    )
    rows = [SweepRow(-0.0, 2, least, 1e308, -0.0), SweepRow(0.5, 0, 1e308, -0.0, least)]
    save_sweep_rows(rows, tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (
        b"beta,k,bleu,tl,ne\n-0.0,2,5e-324,1e+308,-0.0\n0.5,0,1e+308,-0.0,5e-324\n"
    )


class _Unwritable:
    def __repr__(self):
        raise RuntimeError("cannot be written")


# (writer, something it saves, something it fails to save part-way)
_WRITERS = {
    "event_log": (
        save_event_log,
        build_log((0.5, "a", "A")),
        build_log((0.5, "a", "A"), (1.0, "a b\ud800", "A B")),
    ),
    "transcript": (
        save_transcript,
        TimedTranscript((TimedToken("a", 0.0),)),
        TimedTranscript((TimedToken("a", 0.0), TimedToken("b\ud800", 1.0))),
    ),
    "report": (
        save_report,
        MetricsReport(1.0, 0.5, 0.0, (0,), (0.5,)),
        MetricsReport(1.0, 0.5, 0.0, (0,), (object(),)),
    ),
    "sweep_rows": (
        save_sweep_rows,
        [SweepRow(0.0, 0, 1.0, 0.5, 0.0)],
        [SweepRow(0.0, 0, 1.0, 0.5, 0.0), SweepRow(_Unwritable(), 0, 1.0, 0.5, 0.0)],
    ),
}


@pytest.mark.parametrize("writer, good, bad", list(_WRITERS.values()), ids=list(_WRITERS))
def test_a_failed_save_keeps_the_old_file_and_leaves_nothing_behind(tmp_path, writer, good, bad):
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old bytes\n")
    with pytest.raises((UnicodeEncodeError, TypeError, RuntimeError)):
        writer(bad, path)
    assert path.read_bytes() == b"old bytes\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["out.jsonl"]
    writer(good, path)
    assert path.read_bytes() != b"old bytes\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["out.jsonl"]
