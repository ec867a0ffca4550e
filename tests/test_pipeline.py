from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import replay_oracle
import retrans.pipeline as pipeline
from retrans import (
    ANY_CONTEXT,
    DecoderConfig,
    END_OF_SOURCE,
    EOS_TOKEN,
    ReferenceDocument,
    ReferenceSegment,
    TableModel,
    TimedToken,
    TimedTranscript,
    load_event_log,
    load_transcript,
    run_simulation,
    save_event_log,
    save_transcript,
    sweep,
)
from retrans.metrics import erasure, evaluate_all, finalization, normalized_erasure
from retrans.pipeline import SessionState, split_sentences, step


def transcript_of(*pairs: tuple[str, float]) -> TimedTranscript:
    return TimedTranscript(tuple(TimedToken(word, time) for word, time in pairs))


# ---------------------------------------------------------------------------
# Sentence splitting


def test_split_sentences_cases():
    assert split_sentences([]) == ([], True)
    assert split_sentences(["nur", "worte"]) == ([["nur", "worte"]], False)
    assert split_sentences(["ende."]) == ([["ende."]], True)
    assert split_sentences(["a.", "b", "c!", "d"]) == (
        [["a."], ["b", "c!"], ["d"]],
        False,
    )
    assert split_sentences(["wie?", "so."]) == ([["wie?"], ["so."]], True)


@given(st.lists(st.sampled_from(["w", "w.", "w!", "w?"]), max_size=12))
def test_split_sentences_partitions_the_input(tokens):
    sentences, last_complete = split_sentences(tokens)
    assert [t for s in sentences for t in s] == tokens
    for sentence in sentences[:-1]:
        assert sentence[-1][-1] in ".!?"
    if sentences:
        assert last_complete == (sentences[-1][-1][-1] in ".!?")


# ---------------------------------------------------------------------------
# Stepping and freezing

END_MODEL = TableModel(
    {
        ("y", ANY_CONTEXT): {"Y": 1.0},
        ("x.", END_OF_SOURCE): {"X.": 1.0},
        ("x.", ANY_CONTEXT): {"x_part": 1.0},
    }
)


def test_step_rejects_empty_feed(greedy_config):
    state = SessionState()
    with pytest.raises(ValueError):
        step(state, [], END_MODEL, greedy_config)


def test_step_rejects_time_regression(greedy_config):
    state = SessionState()
    state, _ = step(state, [TimedToken("y", 2.0)], END_MODEL, greedy_config)
    with pytest.raises(ValueError):
        step(state, [TimedToken("y", 1.0)], END_MODEL, greedy_config)
    with pytest.raises(ValueError, match="non-decreasing"):
        step(state, [TimedToken("y", 3.0), TimedToken("y", 2.5)], END_MODEL, greedy_config)


def test_completed_sentence_is_translated_with_end_context(greedy_config):
    state = SessionState()
    state, event = step(state, [TimedToken("y", 0.0)], END_MODEL, greedy_config)
    assert event.output_text == "Y"
    state, event = step(state, [TimedToken("x.", 1.0)], END_MODEL, greedy_config)
    # the sentence just closed, so "x." is looked up under the end marker
    assert state.frozen_text == "Y X. "
    assert event.output_text == "Y X."


def test_frozen_sentences_never_change(greedy_config):
    state = SessionState()
    state, _ = step(state, [TimedToken("y", 0.0), TimedToken("x.", 1.0)], END_MODEL, greedy_config)
    first_frozen = state.frozen_text
    state, event = step(state, [TimedToken("y", 2.0)], END_MODEL, greedy_config)
    assert state.frozen_text == first_frozen
    assert event.output_text == "Y X. Y"
    state, event = step(state, [TimedToken("x.", 3.0)], END_MODEL, greedy_config)
    assert state.frozen_text == "Y X. Y X. "
    assert event.output_text == "Y X. Y X."


def test_one_chunk_may_close_several_sentences(greedy_config):
    state = SessionState()
    feed = [TimedToken("y", 0.0), TimedToken("x.", 1.0), TimedToken("x.", 2.0)]
    state, event = step(state, feed, END_MODEL, greedy_config)
    assert state.frozen_text == "Y X. X. "
    assert event.output_text == "Y X. X."


def test_new_sentence_starts_without_bias():
    # under full bias a leftover target from the finished sentence would be
    # forced into the fresh one; the fresh sentence must come out clean
    model = TableModel(
        {
            ("p.", END_OF_SOURCE): {"A.": 1.0},
            ("p.", ANY_CONTEXT): {"A.": 1.0},
            ("q", ANY_CONTEXT): {"B": 1.0},
        }
    )
    config = DecoderConfig(beam_size=2, bias_weight=1.0)
    state = SessionState()
    state, _ = step(state, [TimedToken("p.", 0.0)], model, config)
    assert state.previous_unmasked == ()
    state, event = step(state, [TimedToken("q", 1.0)], model, config)
    assert event.output_text == "A. B"


def test_masked_display_concatenates_frozen_and_live(greedy_config):
    config = DecoderConfig(beam_size=1, mask_length=1)
    state = SessionState()
    state, event = step(state, [TimedToken("y", 0.0), TimedToken("x.", 1.0)], END_MODEL, config)
    state, event = step(state, [TimedToken("y", 2.0), TimedToken("y", 2.5)], END_MODEL, config)
    # the live sentence translates to ("Y", "Y"); one token is held back
    assert state.previous_unmasked == ("Y", "Y")
    assert event.output_text == "Y X. Y"


def test_event_time_is_last_fed_time_plus_delay():
    config = DecoderConfig(beam_size=1)
    state = SessionState()
    _, event = step(
        state, [TimedToken("y", 0.0), TimedToken("y", 1.25)], END_MODEL, config, delay=0.75
    )
    assert event.time == 2.0


# ---------------------------------------------------------------------------
# Whole-session replay


def test_run_simulation_event_times_and_count(toy_model):
    transcript = transcript_of(("die", 0.0), ("bank", 0.5), ("war", 1.0), ("alt.", 1.5))
    config = DecoderConfig(beam_size=2)
    log = run_simulation(transcript, toy_model, config)
    assert len(log) == 4
    assert [event.time for event in log] == [0.0, 0.5, 1.0, 1.5]
    assert log[-1].source_text == "die bank war alt."


def test_run_simulation_chunking_and_delay(toy_model):
    transcript = transcript_of(("die", 0.0), ("bank", 0.5), ("war", 1.0), ("alt.", 1.5))
    config = DecoderConfig(beam_size=2)
    log = run_simulation(transcript, toy_model, config, chunk_size=2, delay=0.25)
    assert len(log) == 2
    assert [event.time for event in log] == [0.75, 1.75]
    assert log[-1].output_text == run_simulation(transcript, toy_model, config)[-1].output_text


def test_run_simulation_empty_transcript(toy_model, greedy_config):
    assert len(run_simulation(transcript_of(), toy_model, greedy_config)) == 0


def test_run_simulation_validates_options(toy_model, greedy_config):
    transcript = transcript_of(("die", 0.0))
    with pytest.raises(ValueError):
        run_simulation(transcript, toy_model, greedy_config, chunk_size=0)
    with pytest.raises(ValueError):
        run_simulation(transcript, toy_model, greedy_config, delay=-0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"delay must be finite and >= 0, got {bad!r}"):
            run_simulation(transcript, toy_model, greedy_config, delay=bad)


def test_full_bias_never_erases(toy_model, toy_documents):
    config = DecoderConfig(beam_size=2, bias_weight=1.0)
    for _, transcript, _ in toy_documents:
        log = run_simulation(transcript, toy_model, config)
        assert normalized_erasure(log) == 0.0


def test_deep_mask_never_erases(toy_model, toy_documents):
    config = DecoderConfig(beam_size=2, mask_length=10)
    for _, transcript, _ in toy_documents:
        log = run_simulation(transcript, toy_model, config)
        assert normalized_erasure(log) == 0.0


# ---------------------------------------------------------------------------
# Split work: a step splits only its feed, never the live sentence or the prefix


@pytest.mark.parametrize("chunk_size", [1, 3])
def test_a_step_splits_only_its_feed(monkeypatch, toy_model, toy_documents, chunk_size):
    tokens, offset = [], 0.0
    for _, transcript, _ in toy_documents:
        tokens.extend(TimedToken(tok.token, tok.time + offset) for tok in transcript.tokens)
        offset = tokens[-1].time + 1.0
    split_tokens, states = [], []
    split, advance = pipeline.split_sentences, pipeline.advance

    def counting_split(words):
        split_tokens.append(len(words))
        return split(words)

    def recording_advance(*args):
        states.append(advance(*args))
        return states[-1]

    monkeypatch.setattr(pipeline, "split_sentences", counting_split)
    monkeypatch.setattr(pipeline, "advance", recording_advance)
    config = DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=2)
    run_simulation(TimedTranscript(tuple(tokens)), toy_model, config, chunk_size)

    # The live sentence, kept by hand: the words since the last one that
    # ends in '.', '!' or '?'.
    expected_tokens, expected_live, live = [], [], []
    for start in range(0, len(tokens), chunk_size):
        feed = [tok.token for tok in tokens[start:start + chunk_size]]
        expected_tokens.append(len(feed))
        for word in feed:
            live = [] if word[-1] in ".!?" else live + [word]
        expected_live.append(tuple(live))
    assert split_tokens == expected_tokens
    assert [state.live for state in states] == expected_live


@pytest.mark.parametrize("chunk_size", [1, 3])
def test_every_state_of_a_session_holds_one_memo(toy_model, toy_documents, chunk_size):
    """``advance`` makes no search memo: the session's first state holds
    the one that every search, of every sentence, resumes from."""
    (transcript,) = [transcript for name, transcript, _ in toy_documents if name == "news.jsonl"]
    config = DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=2)
    states = [SessionState()]
    for start in range(0, len(transcript), chunk_size):
        states.append(pipeline.advance(states[-1], transcript.tokens[start:start + chunk_size], toy_model, config))
    assert sum(not state.live for state in states[1:]) >= 2  # sentences completed along the way
    assert len({id(state.memo) for state in states}) == 1  # every state is kept, so no id is reused


# ---------------------------------------------------------------------------
# Differential test: the running-text replay against the rebuilding one

_SOURCE_WORDS = ("a", "b", "c", "a.", "b?", "c!", ".", "?!")
_CONTEXTS = (ANY_CONTEXT, END_OF_SOURCE, "a", "b", "c", "a.")
# EMPTY, SPACED and BLANK make tokens that are not one display token each
# (see EmptyTargetModel); EOS_TOKEN makes empty or short translations.
_TARGETS = ("X", "Y", "Z.", "W", "EMPTY", "SPACED", "BLANK", EOS_TOKEN)
_DISTRIBUTIONS = ((1.0,), (0.5, 0.5), (0.75, 0.25))
_RENAMED = {"EMPTY": "", "SPACED": "p q", "BLANK": " "}


@dataclass(frozen=True)
class EmptyTargetModel:
    """Serves a table's distributions with the targets EMPTY, SPACED and
    BLANK renamed to "", "p q" and " ": tokens that a TableModel rejects but
    any other model may produce, which show as no display token or as two."""

    table: TableModel

    def next_distribution(self, source, source_complete, prefix):
        dist = self.table.next_distribution(source, source_complete, prefix)
        return {_RENAMED.get(target, target): p for target, p in dist.items()}


@st.composite
def table_models(draw):
    entries = {}
    # Words left out of the table translate to themselves.
    for word in draw(st.lists(st.sampled_from(_SOURCE_WORDS), unique=True)):
        extra = draw(st.lists(st.sampled_from(_CONTEXTS[1:]), max_size=2, unique=True))
        for context in [ANY_CONTEXT, *extra]:
            probs = draw(st.sampled_from(_DISTRIBUTIONS))
            targets = draw(
                st.lists(st.sampled_from(_TARGETS), min_size=len(probs), max_size=len(probs), unique=True)
            )
            entries[(word, context)] = dict(zip(targets, probs))
    return EmptyTargetModel(TableModel(entries))


def assert_replays_agree(tmp_path, transcript, model, config, chunk_size, delay):
    """Step both replays side by side, compare every state and event, then
    compare the saved logs of both ``run_simulation`` byte for byte and
    check that the saved log reloads equal to the one in memory."""
    state, oracle_state = SessionState(), replay_oracle.SessionState()
    for start in range(0, len(transcript.tokens), chunk_size):
        feed = transcript.tokens[start:start + chunk_size]
        state, event = step(state, feed, model, config, delay)
        oracle_state, oracle_event = replay_oracle.step(oracle_state, feed, model, config, delay)
        assert event == oracle_event
        assert state.frozen_text == "".join(
            token + " " for sentence in oracle_state.frozen_translations for token in sentence
        )
        assert state.previous_unmasked == oracle_state.previous_unmasked
        sentences, last_complete = replay_oracle.split_sentences([tok.token for tok in oracle_state.transcript])
        assert state.live == (() if last_complete else tuple(sentences[-1]))
    log = run_simulation(transcript, model, config, chunk_size, delay)
    save_event_log(log, tmp_path / "new.jsonl")
    assert load_event_log(tmp_path / "new.jsonl") == log
    save_event_log(
        replay_oracle.run_simulation(transcript, model, config, chunk_size, delay), tmp_path / "old.jsonl"
    )
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    model=table_models(),
    feed=st.lists(
        st.tuples(st.sampled_from(_SOURCE_WORDS), st.integers(min_value=0, max_value=1500)),
        max_size=24,
    ),
    chunk_size=st.sampled_from([1, 2, 3, 5]),
    delay=st.sampled_from([0.0, 0.25, 1.5]),
    bias_weight=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    mask_length=st.sampled_from([0, 1, 2, 5]),
    beam_size=st.integers(min_value=1, max_value=3),
)
def test_replay_matches_the_rebuilding_oracle(
    tmp_path_factory, model, feed, chunk_size, delay, bias_weight, mask_length, beam_size
):
    clock = 0.0
    tokens = []
    for word, millis in feed:
        clock += millis / 1000.0
        tokens.append(TimedToken(word, clock))
    config = DecoderConfig(beam_size=beam_size, bias_weight=bias_weight, mask_length=mask_length)
    tmp_path = tmp_path_factory.mktemp("replay")
    assert_replays_agree(tmp_path, TimedTranscript(tuple(tokens)), model, config, chunk_size, delay)


def test_replay_matches_the_oracle_on_a_toy_talk(tmp_path, toy_model, toy_talk):
    settings_grid = [(4, 0.0, 0, 1, 0.0), (2, 0.5, 2, 1, 0.0), (3, 1.0, 5, 3, 0.5), (1, 0.25, 1, 5, 2.0)]
    for beam_size, bias_weight, mask_length, chunk_size, delay in settings_grid:
        config = DecoderConfig(beam_size=beam_size, bias_weight=bias_weight, mask_length=mask_length)
        assert_replays_agree(tmp_path, toy_talk, toy_model, config, chunk_size, delay)


# ---------------------------------------------------------------------------
# The paper's two knobs, bias weight and mask length: what holds for every
# session, not just on average


_KNOB_TARGETS = ("X", "Y", "Z.", "W")


@st.composite
def knob_models(draw, targets=_KNOB_TARGETS):
    entries = {}
    for word in draw(st.lists(st.sampled_from(_SOURCE_WORDS), unique=True)):
        extra = draw(st.lists(st.sampled_from(_CONTEXTS[1:]), max_size=2, unique=True))
        for context in [ANY_CONTEXT, *extra]:
            probs = draw(st.sampled_from(_DISTRIBUTIONS))
            chosen = draw(st.lists(st.sampled_from(targets), min_size=len(probs), max_size=len(probs), unique=True))
            entries[(word, context)] = dict(zip(chosen, probs))
    return TableModel(entries)


_KNOB_WORDS = st.lists(st.sampled_from(_SOURCE_WORDS), min_size=1, max_size=12)
_KNOB_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.8]), st.floats(min_value=0.0, max_value=1.0))
_MASKS = range(6)


def _timed(words) -> TimedTranscript:
    return TimedTranscript(tuple(TimedToken(word, float(i)) for i, word in enumerate(words)))


def _swept(model, transcript, bias_weights, beam_size):
    reference = ReferenceDocument((ReferenceSegment(transcript.tokens, "X Y W"),))
    return sweep(model, [("doc.jsonl", transcript, reference)], bias_weights, list(_MASKS), beam_size)


@settings(max_examples=150, deadline=None)
@given(
    model=knob_models(targets=_KNOB_TARGETS + (EOS_TOKEN,)),
    words=_KNOB_WORDS,
    bias_weight=_KNOB_WEIGHTS,
    beam_size=st.integers(min_value=1, max_value=4),
    chunk_size=st.integers(min_value=1, max_value=3),
)
def test_no_event_erases_more_under_a_longer_mask(model, words, bias_weight, beam_size, chunk_size):
    """For a fixed bias weight, beam and chunk, each event's erasure, and so
    the total, never grows as the mask length k grows.

    Proof.  The mask only changes the display, so every k sees the same
    frozen tokens F_e and live translation L_e at event e, and the display
    D_e under k + 1 is D_e under k less its last token when |L_e| > k
    (d_e = 1), else the same.  The erasure from X = D_{e-1} to Y = D_e is
    |X| - lcp(X, Y); cutting d_{e-1} tokens off X and d_e off Y changes it
    by -d_{e-1}, plus 1 when the shorter lcp falls below the old one, which
    needs X to be a prefix of Y with d_{e-1} = 1, or Y a prefix of X with
    d_e = 1.  The latter also needs d_{e-1} = 1: with |L_{e-1}| <= k, X is
    F_{e-1}, and Y holds F_e, which extends it, plus at least one live
    token, so it is longer than X.  Either way the change is at most 0."""
    transcript = _timed(words)
    erased = [
        erasure(run_simulation(transcript, model, DecoderConfig(beam_size, bias_weight, k), chunk_size))
        for k in _MASKS
    ]
    for shorter, longer in zip(erased, erased[1:]):
        assert len(longer) == len(shorter)
        assert all(b <= a for a, b in zip(shorter, longer)), (shorter, longer)


@settings(max_examples=150, deadline=None)
@given(
    model=knob_models(targets=_KNOB_TARGETS + (EOS_TOKEN,)),
    words=_KNOB_WORDS,
    bias_weight=_KNOB_WEIGHTS,
    beam_size=st.integers(min_value=1, max_value=4),
    chunk_size=st.integers(min_value=1, max_value=3),
)
def test_no_final_token_finalizes_earlier_under_a_longer_mask(model, words, bias_weight, beam_size, chunk_size):
    """For a fixed bias weight, beam and chunk, if the final display is the
    same under k and k + 1, no final token's finalization index is earlier
    under k + 1, so translation lag does not fall.

    Proof.  What is decoded does not depend on k, and the display under
    k + 1 is a token prefix of the display under k at the same event (the
    mask holds back one more live token, or the same ones).  Let token i
    finalize at event f > 1 under k.  At event f - 1 it is absent or
    different under k, so under k + 1 the prefix there lacks it or holds
    the same different token; the final token is the same under both, so
    under k + 1 token i finalizes at f or later.  Every feed changes the
    source, so both logs hold one event per feed, at the same times; a
    later or equal index gives a later or equal time, and each lag is that
    time less the same spoken time, read from the same final display."""
    transcript = _timed(words)
    reference = ReferenceDocument((ReferenceSegment(transcript.tokens, "X Y W"),))
    logs = [run_simulation(transcript, model, DecoderConfig(beam_size, bias_weight, k), chunk_size) for k in _MASKS]
    for shorter, longer in zip(logs, logs[1:]):
        assert [event.time for event in longer] == [event.time for event in shorter]
        if longer[-1].output_text != shorter[-1].output_text:
            continue
        before, after = finalization(shorter), finalization(longer)
        assert len(after) == len(before)
        assert all(a >= b for b, a in zip(before, after)), (before, after)
        if before:
            assert evaluate_all(longer, reference).translation_lag >= evaluate_all(shorter, reference).translation_lag


@settings(max_examples=100, deadline=None)
@given(
    model=knob_models(targets=_KNOB_TARGETS + (EOS_TOKEN,)),
    words=_KNOB_WORDS,
    beam_size=st.integers(min_value=1, max_value=4),
    chunk_size=st.integers(min_value=1, max_value=3),
)
def test_full_bias_never_erases_at_any_mask_beam_or_chunk(model, words, beam_size, chunk_size):
    """At bias weight 1 no event erases anything, whatever k, beam and chunk.

    Proof.  Weight 1 gives every token but the bias target probability 0,
    which the search skips, so each retranslation of a sentence, its last
    one included, extends its previous unmasked translation.  The frozen
    tokens only grow, and a live translation that extends the last one
    keeps its masked prefix too, so every display extends the one before."""
    transcript = _timed(words)
    for k in _MASKS:
        log = run_simulation(transcript, model, DecoderConfig(beam_size, 1.0, k), chunk_size)
        assert sum(erasure(log)) == 0


_SENTENCE_ENDS = st.sampled_from([word for word in _SOURCE_WORDS if word.endswith((".", "?", "!"))])


@settings(max_examples=60, deadline=None)
@given(model=knob_models(), words=_KNOB_WORDS, last=_SENTENCE_ENDS, beam_size=st.integers(min_value=1, max_value=4))
def test_a_full_bias_sweep_reads_zero_erasure(model, words, last, beam_size):
    """The property above, read from ``sweep`` rows: normalized erasure 0
    at weight 1 under every k.  (The transcript ends a sentence and no
    target ends one, so every final display has a token to score.)"""
    rows = _swept(model, _timed([*words, last]), [1.0], beam_size)
    assert [row.normalized_erasure for row in rows] == [0.0] * len(_MASKS)


@settings(max_examples=100, deadline=None)
@given(
    model=knob_models(),
    words=_KNOB_WORDS,
    last=_SENTENCE_ENDS,
    bias_weight=_KNOB_WEIGHTS,
    beam_size=st.integers(min_value=1, max_value=4),
    chunk_size=st.integers(min_value=1, max_value=3),
)
def test_a_transcript_that_ends_a_sentence_ends_on_one_display_under_every_mask(
    model, words, last, bias_weight, beam_size, chunk_size
):
    """When the transcript's last word ends a sentence, the final display,
    and so the BLEU, is the same under every k.

    Proof.  What is decoded does not depend on k.  After the last feed no
    sentence is live, so nothing is masked: the final display is the frozen
    translations alone, the same for every k, and BLEU reads only it."""
    transcript = _timed([*words, last])
    finals = {
        run_simulation(transcript, model, DecoderConfig(beam_size, bias_weight, k), chunk_size)[-1].output_text
        for k in _MASKS
    }
    assert len(finals) == 1
    assert len({row.bleu for row in _swept(model, transcript, [bias_weight], beam_size)}) == 1


# ---------------------------------------------------------------------------
# Transcript wire format


def test_transcript_requires_ordered_times():
    with pytest.raises(ValueError):
        transcript_of(("a", 1.0), ("b", 0.5))


def test_transcript_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    transcript = transcript_of(("die", 0.0), ("bank", 0.5))
    save_transcript(transcript, path)
    assert path.read_text(encoding="utf-8") == (
        '{"w": "die", "time": 0.0}\n{"w": "bank", "time": 0.5}\n'
    )
    loaded = load_transcript(path)
    assert loaded == transcript
    second = tmp_path / "u.jsonl"
    save_transcript(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_load_transcript_errors(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"w": "a"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_transcript(path)
    path.write_text('{"w": "a", "time": 1.0}\n{"w": "b", "time": 0.5}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_transcript(path)
    path.write_text('{"w": "a", "time": 1.0, "x": 2}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_transcript(path)


def test_load_transcript_names_the_line_of_a_lone_surrogate(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"w": "ok", "time": 0.0}\n\n{"w": "a\\ud800", "time": 0.5}\n', encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_transcript(path)
    assert str(excinfo.value) == f"{path}: line 3: \"w\" holds the lone surrogate '\\ud800'"
    # An escaped surrogate pair is one character, not a lone surrogate.
    path.write_text('{"w": "ok", "time": 0.0}\n{"w": "a\\ud83d\\ude00", "time": 0.5}\n', encoding="utf-8")
    assert [token.token for token in load_transcript(path).tokens] == ["ok", "a\U0001f600"]

