from __future__ import annotations

import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import bleu_oracle
import latency_oracle
import retrans.metrics
from retrans import (
    DecoderConfig,
    Event,
    EventLog,
    MetricsReport,
    ReferenceDocument,
    ReferenceSegment,
    TimedToken,
    evaluate_all,
    load_reference_document,
    run_simulation,
    save_report,
    tokenize,
)
from retrans.align import mwer_segment
from retrans.eventlog import append_event
from retrans.metrics import (
    DisplayFold,
    bleu_corpus,
    correspondence,
    erasure,
    evaluate_quality,
    finalization,
    normalized_erasure,
    token_lags,
)

from conftest import build_log
from erasure_oracle import tokenizing_erasure
from test_align import full_table_segment


def make_document(*segments: tuple[list[float], str]) -> ReferenceDocument:
    """Each segment is (source token times, reference text); source words
    are generated as s0, s1, ... since only their times matter here."""
    built = []
    counter = 0
    for times, ref_text in segments:
        tokens = []
        for t in times:
            tokens.append(TimedToken(f"s{counter}", t))
            counter += 1
        built.append(ReferenceSegment(tuple(tokens), ref_text))
    return ReferenceDocument(tuple(built))


# ---------------------------------------------------------------------------
# Erasure


def test_erasure_of_worked_session(session_log):
    assert erasure(session_log) == [0, 0, 3]
    assert normalized_erasure(session_log) == pytest.approx(0.5)


def test_first_event_never_erases():
    log = build_log((1.0, "a", "x y z"))
    assert erasure(log) == [0]


def test_erasure_counts_flicker():
    log = build_log((1.0, "a", "x y"), (2.0, "a b", "x"), (3.0, "a b c", "x y"))
    assert erasure(log) == [0, 1, 0]


def test_normalized_erasure_rejects_empty_final_output():
    log = build_log((1.0, "a", ""))
    with pytest.raises(ValueError):
        normalized_erasure(log)


def test_prefix_growing_session_has_zero_erasure():
    log = build_log((1.0, "a", "x"), (2.0, "a b", "x y"), (3.0, "a b c", "x y z"))
    assert sum(erasure(log)) == 0
    assert normalized_erasure(log) == 0.0


# ---------------------------------------------------------------------------
# Finalization


def test_finalization_of_worked_session(session_log):
    fin = finalization(session_log)
    assert fin == (1, 1, 2, 3, 3, 3)
    assert [session_log.events[i - 1].time for i in fin] == [2.0, 2.0, 3.5, 4.2, 4.2, 4.2]


def test_finalization_waits_out_flicker():
    # token "y" vanishes at event 2 and only counts as final from event 3
    log = build_log((1.0, "a", "x y"), (2.0, "a b", "x"), (3.0, "a b c", "x y"))
    assert finalization(log) == (1, 3)


def _finalization_oracle(log: EventLog) -> list[int]:
    final = tokenize(log.events[-1].output_text)
    outputs = [tokenize(event.output_text) for event in log]
    indices = []
    for j in range(1, len(final) + 1):
        for i in range(1, len(outputs) + 1):
            if all(len(out) >= j and out[:j] == final[:j] for out in outputs[i - 1:]):
                indices.append(i)
                break
    return indices


def test_finalization_matches_definition_on_random_sessions():
    rng = random.Random(7)
    for _ in range(150):
        log = EventLog()
        clock = 0.0
        for step_no in range(rng.randint(1, 8)):
            clock += rng.randint(1, 20) / 10.0
            out = " ".join(rng.choice("pqr") for _ in range(rng.randint(0, 6)))
            log = append_event(log, Event(clock, f"src {step_no}", out))
        if not log.events:
            continue
        fin = finalization(log)
        assert list(fin) == _finalization_oracle(log)
        # indices never decrease along the output
        assert list(fin) == sorted(fin)


SHARED_PREFIX_TOKENS = ["a", "ab", "a.", "ü", "abü"]
WHITESPACE = [" ", "  ", "\t", "\n", "\xa0", "\u3000"]


@st.composite
def whitespace_sessions(draw):
    """Displays of multi-character tokens that are prefixes of one another,
    joined by mixed whitespace with optional leading and trailing runs.  A
    display often starts with the previous one cut at any character, so a
    token can be cut and continued, whitespace can meet whitespace, and a
    display can shrink or flicker; some displays repeat the previous one."""
    log = EventLog()
    previous = ""
    for step in range(draw(st.integers(1, 8))):
        tokens = draw(st.lists(st.sampled_from(SHARED_PREFIX_TOKENS), max_size=6))
        text = draw(st.sampled_from(["", *WHITESPACE]))
        for token in tokens:
            text += token + draw(st.sampled_from(WHITESPACE))
        if not draw(st.booleans()):
            text = text.rstrip(" \t\n\xa0\u3000")
        move = draw(st.integers(0, 4)) if previous else 0
        if move == 1:
            text = previous
        elif move > 1:
            text = previous[: draw(st.integers(0, len(previous)))] + text
        log = append_event(log, Event(float(step), f"s{step}", text))
        previous = text
    return log


@settings(max_examples=500, deadline=None)
@given(log=whitespace_sessions())
@example(log=build_log((1.0, "a", "x ab"), (2.0, "a b", "x abc")))  # the shared prefix ends inside a token
@example(log=build_log((1.0, "a", "x\tab"), (2.0, "a b", "x\tab c")))  # no shared space, one shared tab
@example(log=build_log((1.0, "a", "x ab "), (2.0, "a b", "x ab c"), (3.0, "a b c", " x ab")))
@example(log=build_log((1.0, "a", "a ab"), (2.0, "a b", "a b"), (3.0, "a b c", "a ab")))  # "ab" flickers
def test_erasure_and_finalization_match_their_tokenizing_oracles(log):
    # The fold holds the finalization of every prefix of the log, not just of the whole.
    fold = DisplayFold()
    for count, event in enumerate(log, 1):
        fold.add(event.output_text)
        prefix = EventLog(log.events[:count])
        assert fold.erased == tokenizing_erasure(prefix)
        assert tuple(fold.changed) == latency_oracle.finalization(prefix).event_indices
    assert erasure(log) == tokenizing_erasure(log)
    assert finalization(log) == latency_oracle.finalization(log).event_indices


def test_scoring_a_growing_log_tokenizes_a_small_share_of_its_snapshots(monkeypatch):
    # 300 events; the display grows by one word per event and every tenth
    # event revises its last word.  Without the shared-prefix cut, erasure
    # and finalization would each tokenize every snapshot in full.
    log = EventLog()
    words: list[str] = []
    for i in range(300):
        words.append(f"w{i}")
        if i % 10 == 9:
            words[-1] = f"v{i}"
        log = append_event(log, Event(float(i), " ".join(f"s{j}" for j in range(i + 1)), " ".join(words)))
        words[-1] = f"w{i}"
    doc = make_document(([float(i) for i in range(300)], " ".join(words)))
    split_chars = 0

    def counting_tokenize(text):
        nonlocal split_chars
        split_chars += len(text)
        return text.split()

    monkeypatch.setattr(retrans.metrics, "tokenize", counting_tokenize)
    evaluate_all(log, doc)
    snapshot_chars = sum(len(event.output_text) for event in log)
    assert split_chars < 0.1 * snapshot_chars


# ---------------------------------------------------------------------------
# Correspondence


def test_correspondence_spreads_output_over_source():
    doc = make_document(([1.0, 2.0, 3.0, 4.0], "w x"))
    log = build_log((5.0, "s0 s1 s2 s3", "w x"))
    assert correspondence(log, doc) == (0.0, 2.0)


def test_correspondence_clamps_to_segment_end():
    doc = make_document(([1.0, 2.0], "w x y z"))
    log = build_log((5.0, "s0 s1", "w x y z"))
    # raw positions 0, 0.5, 1.0, 1.5; the last clamps to the final source token
    assert correspondence(log, doc) == (0.0, 0.5, 1.0, 1.0)


def test_correspondence_respects_segment_starts():
    doc = make_document(([1.0, 2.0], "w x"), ([3.0, 4.0], "y z"))
    log = build_log((5.0, "s0 s1 s2 s3", "w x y z"))
    # the second segment's first token points at its first source token
    assert correspondence(log, doc) == (0.0, 1.0, 2.0, 3.0)


def test_correspondence_document_mode_ignores_segments():
    doc = make_document(([1.0, 2.0], "w x"), ([3.0, 4.0], "y z"))
    log = build_log((5.0, "s0 s1 s2 s3", "w x"))
    # segment mode would put both tokens in the first segment: (0.0, 1.0)
    assert correspondence(log, doc, mode="document") == (0.0, 2.0)


def test_correspondence_rejects_unknown_mode(session_log):
    doc = make_document(([1.0], "x"))
    with pytest.raises(ValueError):
        correspondence(session_log, doc, mode="both")


# ---------------------------------------------------------------------------
# Lag


def test_lag_single_event_session():
    doc = make_document(([1.0, 2.0, 3.0], "w x y"))
    log = build_log((4.0, "s0 s1 s2", "w x y"))
    assert token_lags(log, doc) == [3.0, 2.0, 1.0]
    assert evaluate_all(log, doc).translation_lag == 4.0 - 2.0


def test_lag_shifts_with_event_time():
    doc = make_document(([1.0, 2.0, 3.0], "w x y"))
    log = build_log((5.5, "s0 s1 s2", "w x y"))
    assert evaluate_all(log, doc).translation_lag == 3.5


def test_lag_interpolates_fractional_positions():
    doc = make_document(([1.0, 2.0, 3.0], "w x"))
    log = build_log((4.0, "s0 s1 s2", "w x"))
    # positions 0 and 1.5: the second time is halfway between 2.0 and 3.0
    assert token_lags(log, doc) == [3.0, 1.5]


def test_lag_can_be_negative():
    doc = make_document(([1.0, 2.0, 6.0], "w x y"))
    log = build_log((4.0, "s0 s1 s2", "w x y"))
    assert token_lags(log, doc)[2] == -2.0


def test_lag_rejects_empty_final_output():
    doc = make_document(([1.0], "w"))
    log = build_log((1.0, "s0", "w"), (2.0, "s0 x", ""))
    with pytest.raises(ValueError, match="lag is undefined for an empty final translation"):
        token_lags(log, doc)


# ---------------------------------------------------------------------------
# Differential test: lag from plain per-token sequences against the records


@st.composite
def scored_sessions(draw):
    """A multi-segment document and a session over it.  Outputs may be
    shorter than the segment count (empty pieces) or longer than a
    segment's source (positions clamp to the segment end), and the final
    source may be shorter or longer than the timed one (document mode
    clamps too)."""
    times = iter(sorted(draw(st.lists(st.integers(0, 60), min_size=4, max_size=16))))
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        source = [next(times, 60) / 10.0 for _ in range(draw(st.integers(1, 4)))]
        reference = " ".join(draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=5)))
        segments.append((source, reference))
    doc = make_document(*segments)
    log = EventLog()
    clock = 0.0
    for _ in range(draw(st.integers(1, 8))):
        clock += draw(st.integers(0, 20)) / 10.0
        source = " ".join(f"s{i}" for i in range(draw(st.integers(0, 12))))
        output = " ".join(draw(st.lists(st.sampled_from("pqrs"), max_size=12)))
        log = append_event(log, Event(clock, source, output))
    return log, doc


def _oracle_report(log: EventLog, doc: ReferenceDocument, mode: str) -> MetricsReport:
    """The report of a session from the oracles alone: record-based lag,
    tokenizing erasure, and recounting BLEU over the pieces the full-table
    segmenter cuts."""
    lags = latency_oracle.token_lags(log, doc, mode=mode)
    erased = tokenizing_erasure(log)
    hyp = tokenize(log.events[-1].output_text)
    refs = [tokenize(segment.reference_text) for segment in doc.segments]
    cuts = [0, *full_table_segment(hyp, refs).boundaries, len(hyp)]
    pieces = [hyp[start:end] for start, end in zip(cuts, cuts[1:])]
    return MetricsReport(
        bleu=bleu_oracle.bleu_corpus(pieces, refs),
        translation_lag=math.fsum(lags) / len(lags),
        normalized_erasure=sum(erased) / len(hyp),
        per_event_erasure=tuple(erased),
        per_token_lag=tuple(lags),
    )


@settings(max_examples=300, deadline=None)
@given(session=scored_sessions(), mode=st.sampled_from(["segment", "document"]))
# two output tokens over three segments: an empty piece
@example(
    session=(build_log((5.0, "s0 s1 s2", "p q")), make_document(([1.0], "p"), ([2.0], "q"), ([3.0], "r"))),
    mode="segment",
)
# four output tokens over a two-token source: the last clamps to its end
@example(
    session=(build_log((5.0, "s0 s1", "p q r s")), make_document(([1.0, 2.0], "p q r s"))), mode="segment"
)
def test_lag_matches_the_record_oracle(session, mode):
    log, doc = session
    oracle_fin = latency_oracle.finalization(log)
    assert finalization(log) == oracle_fin.event_indices
    try:
        expected_report = _oracle_report(log, doc, mode)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            evaluate_all(log, doc, mode)
    else:
        assert evaluate_all(log, doc, mode) == expected_report
    try:
        expected = latency_oracle.correspondence(log, doc, mode=mode)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            correspondence(log, doc, mode=mode)
        return
    assert correspondence(log, doc, mode=mode) == tuple(r.source_position for r in expected.tokens)
    if not tokenize(log.events[-1].output_text):
        with pytest.raises(ValueError, match="empty final translation"):
            token_lags(log, doc, mode=mode)
        return
    assert token_lags(log, doc, mode=mode) == latency_oracle.token_lags(log, doc, mode=mode)


# ---------------------------------------------------------------------------
# BLEU

BLEU_PAIRS = [
    ("the quick brown fox jumps over the lazy dog", "the quick brown fox jumps over the lazy dog"),
    ("a stitch in time saves nine lives", "a stitch in time saves nine"),
    ("all that glitters is not gold", "all that glitters is not gold today"),
    ("the early bird catches the worm", "the early bird gets the worm"),
    ("actions speak louder than words do", "actions speak louder than words"),
    ("practice makes perfect every single time", "practice makes perfect"),
    ("better late than never they say", "better late than never"),
    ("the pen is mightier than the sword", "the pen is mightier than the sword"),
    ("when in rome do as the romans do", "when in rome do as the romans do"),
    ("fortune favors the bold and the brave", "fortune favors the bold"),
]
BLEU_HYPS = [hyp.split() for hyp, _ in BLEU_PAIRS]
BLEU_REFS = [ref.split() for _, ref in BLEU_PAIRS]


def test_bleu_frozen_corpus_value():
    assert bleu_corpus(BLEU_HYPS, BLEU_REFS) == pytest.approx(75.14840201763711, abs=1e-9)


def test_bleu_identity_is_exactly_100():
    assert bleu_corpus(BLEU_REFS, BLEU_REFS) == 100.0


def test_bleu_of_empty_hypotheses_is_zero():
    assert bleu_corpus([[] for _ in BLEU_REFS], BLEU_REFS) == 0.0


def test_bleu_zero_when_any_order_has_no_match():
    # unigrams overlap but no 4-gram does: no smoothing means score 0
    hyp = ["a", "x", "b", "y", "c", "z"]
    ref = ["a", "b", "c", "p", "q", "r"]
    assert bleu_corpus([hyp], [ref]) == 0.0


def test_bleu_is_case_sensitive():
    assert bleu_corpus([["The", "cat", "sat", "here"]], [["the", "cat", "sat", "here"]]) < 100.0


def test_bleu_rejects_empty_reference_corpus():
    with pytest.raises(ValueError):
        bleu_corpus([["a"]], [[]])


def test_bleu_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        bleu_corpus([["a"]], [["a"], ["b"]])


def test_quality_splits_before_scoring():
    doc = make_document(
        ([1.0, 2.0, 3.0, 4.0], "the dish tastes good"),
        ([5.0, 6.0, 7.0, 8.0], "the court was fair"),
    )
    log = build_log((9.0, " ".join(f"s{i}" for i in range(8)), "the dish tastes good the court was fair"))
    assert evaluate_quality(log, doc) == 100.0


def test_quality_of_empty_output_is_zero():
    doc = make_document(([1.0, 2.0, 3.0, 4.0], "the dish tastes good"))
    log = build_log((1.0, "s0", ""))
    assert evaluate_quality(log, doc) == 0.0


# ---------------------------------------------------------------------------
# Combined report


def test_evaluate_all_is_consistent_with_parts(session_log):
    doc = make_document(
        ([1.0, 1.6, 2.2, 3.1, 3.9], "New drugs may slow ovarian cancer"),
    )
    report = evaluate_all(session_log, doc)
    assert report.bleu == evaluate_quality(session_log, doc)
    assert report.normalized_erasure == normalized_erasure(session_log)
    assert list(report.per_event_erasure) == erasure(session_log)
    assert list(report.per_token_lag) == token_lags(session_log, doc)
    final_len = len(tokenize(session_log.events[-1].output_text))
    assert sum(report.per_event_erasure) == pytest.approx(report.normalized_erasure * final_len)
    assert report.translation_lag == math.fsum(report.per_token_lag) / len(report.per_token_lag)


def test_evaluate_all_segments_and_tokenizes_the_final_translation_once(monkeypatch, toy_model, toy_documents):
    _, transcript, doc = next(document for document in toy_documents if document[0] == "news.jsonl")
    log = run_simulation(transcript, toy_model, DecoderConfig(beam_size=4, bias_weight=0.5, mask_length=2))
    segmented = []
    tokenized = Counter()

    def counting_segment(hyp, refs):
        segmented.append(tuple(hyp))
        return mwer_segment(hyp, refs)

    def counting_tokenize(text):
        tokenized[text] += 1
        return tokenize(text)

    monkeypatch.setattr(retrans.metrics, "mwer_segment", counting_segment)
    monkeypatch.setattr(retrans.metrics, "tokenize", counting_tokenize)
    evaluate_all(log, doc)
    final = log.events[-1].output_text
    assert segmented == [tuple(tokenize(final))]
    assert tokenized[final] == 1
    assert [tokenized[segment.reference_text] for segment in doc.segments] == [1] * len(doc.segments)


def test_report_round_trips_through_json(tmp_path, session_log):
    doc = make_document(([1.0, 1.6, 2.2, 3.1, 3.9], "New drugs may slow ovarian cancer"))
    report = evaluate_all(session_log, doc)
    path = tmp_path / "report.json"
    save_report(report, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith('{"bleu":') and text.endswith("}\n")
    assert json.loads(text) == {
        "bleu": report.bleu,
        "tl": report.translation_lag,
        "ne": report.normalized_erasure,
        "erasure": list(report.per_event_erasure),
        "lags": list(report.per_token_lag),
    }


# ---------------------------------------------------------------------------
# Reference document I/O


def test_load_reference_document(tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_text(
        '{"src": [{"w": "s0", "time": 0.5}, {"w": "s1", "time": 1}], "ref": "w x"}\n\n'
        '{"src": [{"w": "s2", "time": 1.5}, {"w": "s3", "time": 2.25}], "ref": "y z"}\n',
        encoding="utf-8",
    )
    assert load_reference_document(path) == make_document(([0.5, 1.0], "w x"), ([1.5, 2.25], "y z"))


@pytest.mark.parametrize(
    "line, key",
    [
        ('{"src": [{"w": "s1", "time": 1}], "ref": "y\\ud800"}', "ref"),
        ('{"src": [{"w": "s1", "time": 1}, {"w": "\\udfffs", "time": 2}], "ref": "y"}', "src"),
    ],
    ids=["ref", "src"],
)
def test_load_reference_document_names_the_line_and_key_of_a_lone_surrogate(tmp_path, line, key):
    path = tmp_path / "doc.jsonl"
    path.write_text('{"src": [{"w": "s0", "time": 0.5}], "ref": "\\\\x"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_reference_document(path)
    surrogate = "\\ud800" if key == "ref" else "\\udfff"
    assert str(excinfo.value) == f"{path}: line 2: \"{key}\" holds the lone surrogate '{surrogate}'"


def test_reference_document_validation():
    with pytest.raises(ValueError):
        ReferenceDocument(())
    with pytest.raises(ValueError):
        ReferenceSegment((), "text")
    with pytest.raises(ValueError):
        ReferenceSegment((TimedToken("a", 1.0),), "   ")
    with pytest.raises(ValueError):
        make_document(([2.0], "w"), ([1.0], "x"))


def test_reference_document_load_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"src": [], "ref": "x", "extra": 1}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_reference_document(path)
    path.write_text('{"src": [{"w": "a"}], "ref": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_reference_document(path)
    path.write_text('{"src": [{"w": "a b", "time": 1}], "ref": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: token must be non-empty")):
        load_reference_document(path)
    path.write_text(
        '{"src": [{"w": "a", "time": 2}], "ref": "x"}\n{"src": [{"w": "b", "time": 1}], "ref": "y"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: source token times must be non-decreasing")):
        load_reference_document(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: a reference document needs at least one segment")):
        load_reference_document(path)
