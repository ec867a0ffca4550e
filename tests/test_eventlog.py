from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from retrans import Event, EventLog, append_event, load_event_log, save_event_log, tokenize
from retrans.eventlog import format_seconds

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
