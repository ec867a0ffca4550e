from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from retrans.align import lcp_len, mwer_segment
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

from conftest import build_log, worked_session_log
from erasure_oracle import common_prefix_len, tokenizing_erasure
from sweep_oracle import source_mismatch


def make_document(*segments: tuple[list[float], str], words: str | None = None) -> ReferenceDocument:
    """Each segment is (source token times, reference text); source words
    are generated as s0, s1, ... since only their times matter here, unless
    ``words`` spells them."""
    names = iter(words.split()) if words is not None else (f"s{i}" for i in itertools.count())
    built = []
    for times, ref_text in segments:
        built.append(ReferenceSegment(tuple(TimedToken(next(names), t) for t in times), ref_text))
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
    events = session_log.events
    assert [events[i - 1].time for i in fin] == [2.0, 2.0, 3.5, 4.2, 4.2, 4.2]


def test_finalization_waits_out_flicker():
    # token "y" vanishes at event 2 and only counts as final from event 3
    log = build_log((1.0, "a", "x y"), (2.0, "a b", "x"), (3.0, "a b c", "x y"))
    assert finalization(log) == (1, 3)


def _finalization_oracle(log: EventLog) -> list[int]:
    final = tokenize(log[-1].output_text)
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
        if not log:
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
    fold, events = DisplayFold(), log.events
    for count, event in enumerate(events, 1):
        fold.add(event.output_text, lcp_len(fold.display, event.output_text))
        prefix = EventLog(events[:count])
        assert fold.erased == tokenizing_erasure(prefix)
        assert tuple(fold.changed) == latency_oracle.finalization(prefix).event_indices
    assert erasure(log) == tokenizing_erasure(log)
    assert finalization(log) == latency_oracle.finalization(log).event_indices


_DISPLAY_TOKENS = ["a", "b", "", " ", "p q"]


@st.composite
def token_displays(draw):
    """Displays as lists of the tokens a model may return, each display
    keeping a drawn prefix of the one before it."""
    displays = [[]]
    for _ in range(draw(st.integers(1, 8))):
        kept = displays[-1][: draw(st.integers(0, len(displays[-1])))]
        displays.append(kept + draw(st.lists(st.sampled_from(_DISPLAY_TOKENS), max_size=4)))
    return displays[1:]


@settings(max_examples=300, deadline=None)
@given(displays=token_displays())
def test_folding_token_counts_equals_folding_joined_texts(displays):
    # Joining with one space leaves a token border after every token, so a
    # display's tokens are those of its tokens, one by one.
    texts, counts = DisplayFold(), DisplayFold()
    shown: list[str] = []
    for tokens in displays:
        text = " ".join(tokens)
        texts.add(text, lcp_len(texts.display, text))
        now = [word for token in tokens for word in token.split()]
        kept = common_prefix_len(shown, now)
        counts.count(len(shown) - kept, len(now) - kept)
        shown = now
        assert (counts.erased, counts.changed) == (texts.erased, texts.changed)


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


def test_correspondence_rejects_unknown_mode(session_log):
    # Lag has one correspondence: the retired mode's name must not score silently.
    doc = make_document(([1.0], "x"))
    with pytest.raises(ValueError, match=r'^correspondence mode must be "segment", got \'document\'$'):
        evaluate_all(session_log, doc, mode="document")


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
    doc = make_document(([1.0, 1.5], "w"))
    log = build_log((1.0, "s0", "w"), (2.0, "s0 s1", ""))
    with pytest.raises(ValueError, match="lag is undefined for an empty final translation"):
        token_lags(log, doc)


# ---------------------------------------------------------------------------
# Differential test: lag from plain per-token sequences against the records


@st.composite
def scored_sessions(draw):
    """A multi-segment document and a session over it.  Outputs may be
    shorter than the segment count (empty pieces) or longer than a
    segment's source (positions clamp to the segment end).  Earlier sources
    may be shorter or longer than the timed one; the final one is the
    document's source."""
    times = iter(sorted(draw(st.lists(st.integers(0, 60), min_size=4, max_size=16))))
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        source = [next(times, 60) / 10.0 for _ in range(draw(st.integers(1, 4)))]
        reference = " ".join(draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=5)))
        segments.append((source, reference))
    doc = make_document(*segments)
    log = EventLog()
    clock = 0.0
    events = draw(st.integers(1, 8))
    for index in range(events):
        clock += draw(st.integers(0, 20)) / 10.0
        words = sum(len(times) for times, _ in segments) if index == events - 1 else draw(st.integers(0, 12))
        source = " ".join(f"s{i}" for i in range(words))
        output = " ".join(draw(st.lists(st.sampled_from("pqrs"), max_size=12)))
        log = append_event(log, Event(clock, source, output))
    return log, doc


def _oracle_report(log: EventLog, doc: ReferenceDocument) -> MetricsReport:
    """The report of a session from the oracles alone: record-based lag,
    tokenizing erasure, and recounting BLEU over the pieces the full-table
    segmenter cuts."""
    lags = latency_oracle.token_lags(log, doc)
    erased = tokenizing_erasure(log)
    hyp = tokenize(log[-1].output_text)
    refs = [tokenize(segment.reference_text) for segment in doc.segments]
    return MetricsReport(
        bleu=bleu_oracle.bleu_corpus(latency_oracle.segment(hyp, refs), refs),
        translation_lag=math.fsum(lags) / len(lags),
        normalized_erasure=sum(erased) / len(hyp),
        per_event_erasure=tuple(erased),
        per_token_lag=tuple(lags),
    )


@settings(max_examples=300, deadline=None)
@given(session=scored_sessions())
# two output tokens over three segments: an empty piece
@example(session=(build_log((5.0, "s0 s1 s2", "p q")), make_document(([1.0], "p"), ([2.0], "q"), ([3.0], "r"))))
# four output tokens over a two-token source: the last clamps to its end
@example(session=(build_log((5.0, "s0 s1", "p q r s")), make_document(([1.0, 2.0], "p q r s"))))
def test_lag_matches_the_record_oracle(session):
    log, doc = session
    oracle_fin = latency_oracle.finalization(log)
    assert finalization(log) == oracle_fin.event_indices
    try:
        expected_report = _oracle_report(log, doc)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            evaluate_all(log, doc)
    else:
        assert evaluate_all(log, doc) == expected_report
    try:
        expected = latency_oracle.correspondence(log, doc)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            correspondence(log, doc)
        return
    assert correspondence(log, doc) == tuple(r.source_position for r in expected.tokens)
    if not tokenize(log[-1].output_text):
        with pytest.raises(ValueError, match="empty final translation"):
            token_lags(log, doc)
        return
    assert token_lags(log, doc) == latency_oracle.token_lags(log, doc)


# ---------------------------------------------------------------------------
# A session scored against the reference of another source


_SCORING_ENTRY_POINTS = [evaluate_all, token_lags, correspondence, evaluate_quality]


@pytest.mark.parametrize("entry_point", _SCORING_ENTRY_POINTS)
def test_a_log_scored_against_another_documents_reference_raises(toy_model, toy_documents, entry_point):
    documents = {name: (transcript, reference) for name, transcript, reference in toy_documents}
    config = DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=2)
    log = run_simulation(documents["news.jsonl"][0], toy_model, config)
    message = (
        "the source (22 tokens) differs from the reference's source (19 tokens) at token 1: 'die' instead of 'das'"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry_point(log, documents["games.jsonl"][1])


@settings(max_examples=100, deadline=None)
@given(session=scored_sessions(), source=st.lists(st.sampled_from(["s0", "s1", "s2", "x"]), max_size=6))
def test_every_session_over_another_source_raises_from_every_entry_point(session, source):
    # The drawn session ends on its document's source; one more event, at
    # the same time and output, moves it to ``source``.
    log, doc = session
    assume(source != tokenize(log[-1].source_text))
    log = append_event(log, Event(log[-1].time, " ".join(source), log[-1].output_text))
    message = source_mismatch(source, doc)
    for entry_point in _SCORING_ENTRY_POINTS:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry_point(log, doc)


def test_a_scorer_reads_its_source_words_from_any_sequence(toy_documents):
    # A tuple of the right words once read as differing at token 1: 'die' instead of 'die'.
    _, transcript, reference = next(doc for doc in toy_documents if doc[0] == "news.jsonl")
    words = tuple(token.token for token in transcript.tokens)
    Scorer = retrans.metrics.Scorer
    assert Scorer(reference, words).final("die") == Scorer(reference, list(words)).final("die")
    message = "the source (22 tokens) differs from the reference's source (22 tokens) at token 3: 'x' instead of 'sagen'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Scorer(reference, (*words[:2], "x", *words[3:]))


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
    log = build_log((1.0, "s0 s1 s2 s3", ""))
    assert evaluate_quality(log, doc) == 0.0


# ---------------------------------------------------------------------------
# Combined report


WORKED_LOG = worked_session_log()
WORKED_DOCUMENT = make_document(
    ([1.0, 1.6, 2.2, 3.1, 3.9], "New drugs may slow ovarian cancer"), words=WORKED_LOG[-1].source_text
)


@settings(max_examples=300, deadline=None)
@given(session=scored_sessions())
@example(session=(WORKED_LOG, WORKED_DOCUMENT))
def test_evaluate_all_is_consistent_with_parts(session):
    log, doc = session
    try:
        report = evaluate_all(log, doc)
    except ValueError:
        return  # what each refusal says is pinned by test_lag_matches_the_record_oracle
    assert report.bleu == evaluate_quality(log, doc)
    assert report.normalized_erasure == normalized_erasure(log)
    assert list(report.per_event_erasure) == erasure(log)
    assert list(report.per_token_lag) == token_lags(log, doc)
    final_len = len(tokenize(log[-1].output_text))
    assert report.normalized_erasure == sum(report.per_event_erasure) / final_len
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
    final = log[-1].output_text
    assert segmented == [tuple(tokenize(final))]
    assert tokenized[final] == 1
    assert [tokenized[segment.reference_text] for segment in doc.segments] == [1] * len(doc.segments)


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# a negative zero, the least subnormal, the least normal and the two ends of the exponent range
EDGE_FLOATS = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.0]


@settings(max_examples=300, deadline=None)
@given(floats=st.lists(FINITE_FLOATS, min_size=3, max_size=10), erased=st.lists(st.integers(0, 10**9), max_size=6))
@example(floats=EDGE_FLOATS, erased=[0, 3])
def test_report_round_trips_through_json(tmp_path_factory, floats, erased):
    # Read back with ``json``, every float is the one saved, sign of zero
    # included (``float.hex`` tells -0.0 from 0.0), and saving what was read
    # gives the same bytes.
    report = MetricsReport(*floats[:3], per_event_erasure=tuple(erased), per_token_lag=tuple(floats[3:]))
    directory = tmp_path_factory.mktemp("reports")
    save_report(report, directory / "report.json")
    text = (directory / "report.json").read_text(encoding="utf-8")
    assert text.startswith('{"bleu":') and text.endswith("}\n")
    payload = json.loads(text)
    assert list(payload) == ["bleu", "tl", "ne", "erasure", "lags"]
    read = MetricsReport(
        payload["bleu"], payload["tl"], payload["ne"], tuple(payload["erasure"]), tuple(payload["lags"])
    )
    read_floats = (read.bleu, read.translation_lag, read.normalized_erasure, *read.per_token_lag)
    assert [value.hex() for value in read_floats] == [value.hex() for value in floats]
    assert read.per_event_erasure == report.per_event_erasure
    assert all(type(count) is int for count in read.per_event_erasure)
    save_report(read, directory / "again.json")
    assert (directory / "again.json").read_bytes() == (directory / "report.json").read_bytes()


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
