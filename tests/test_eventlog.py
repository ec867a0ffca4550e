from __future__ import annotations

import re

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
from retrans.eventlog import append_event, format_seconds
from retrans.pipeline import TimedTranscript

import eventlog_oracle
import replay_oracle
from conftest import build_log


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
    # at the same event with the same message.
    events = [Event(tenths / 10.0, src, out) for tenths, src, out in records]
    log, oracle_log = EventLog(), EventLog()
    kept = []
    for event in events:
        try:
            oracle_log = replay_oracle.append_event(oracle_log, event)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                append_event(log, event)
            assert str(excinfo.value) == str(exc)
            break
        log = append_event(log, event)
        if not kept or event.state() != kept[-1].state():
            kept.append(event)
        assert log == oracle_log == EventLog(tuple(kept))
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
