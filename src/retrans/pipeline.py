"""Replay a timed transcript through the translator and record what a
viewer would have seen.

Only the last, possibly still incomplete sentence, the live sentence, is
ever (re)translated, and each step splits only its words plus the fed
tokens: every cut before it is final.  Completed sentences are
translated once more with the end of the sentence in view, then frozen:
their translations never change again.  The display is the frozen
translations followed by the masked translation of the live sentence, and
every feed of new tokens appends one event to the session log, stamped
with the time the last fed token was spoken (plus a constant processing
delay if configured), to the millisecond the saved log carries.
Each event's texts extend the running source and frozen-display strings
the state carries, so a step costs what its new tokens and the live
sentence cost, not what the whole session so far costs.

A step has two parts.  :func:`advance` decodes: it feeds the tokens and
retranslates, biased toward the live sentence's previous *unmasked*
translation.  The state carries the live sentence's search rounds (a
:class:`~retrans.decoder.BeamMemo`), so under a model that declares its
look-ahead a retranslation redoes only the rounds whose source context or
bias target changed since the last one: with one-word feeds, three rounds
a word while the translation only grows.  :func:`display_event` masks the
live tail and stamps the event.  The mask only changes what is shown,
never what is decoded, so one decoded session serves every mask length:
``sweep`` decodes each (bias weight, document) pair once and displays it
under each of its mask lengths.

The timed transcript is read from JSONL (:func:`load_transcript`) or from
caption cues (:func:`load_captions`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .decoder import BeamMemo, DecoderConfig, ScoringModel, biased_beam_search, mask_tail
from .eventlog import (
    Event,
    EventLog,
    TimedToken,
    append_event,
    format_seconds,
    jsonl_records,
    parse_timed_token,
    replacing_file,
    tokenize,
    utf8_file,
)

_SENTENCE_FINAL = (".", "!", "?")


@dataclass(frozen=True, slots=True)
class TimedTranscript:
    """A tokenized source stream with one timestamp per token."""

    tokens: tuple[TimedToken, ...] = ()

    def __post_init__(self) -> None:
        for prev, cur in zip(self.tokens, self.tokens[1:]):
            if cur.time < prev.time:
                raise ValueError("transcript times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.tokens)


def save_transcript(transcript: TimedTranscript, path: str | Path) -> None:
    """Write one JSON line per token: {"w": word, "time": seconds}.  A failed
    save leaves ``path`` as it was."""
    with replacing_file(path) as handle:
        for tok in transcript.tokens:
            handle.write(
                '{"w": %s, "time": %s}\n'
                % (json.dumps(tok.token, ensure_ascii=False), format_seconds(tok.time))
            )


def load_transcript(path: str | Path) -> TimedTranscript:
    tokens = []
    for lineno, record in jsonl_records(path, "w", "time"):
        token = parse_timed_token(record, path, lineno)
        if tokens and token.time < tokens[-1].time:
            raise ValueError(f"{path}: line {lineno}: transcript times must be non-decreasing")
        tokens.append(token)
    return TimedTranscript(tuple(tokens))


def load_captions(path: str | Path) -> TimedTranscript:
    """Read caption cues from a TSV of start seconds, end seconds and text,
    and spread each cue's words evenly over its display window.

    Only the first two tabs delimit columns.  Word ``m`` of ``n`` starts at
    ``start + (m / n) * (end - start)``, counting from zero, so the first
    word of a cue is spoken at the cue's start.  Windows must satisfy
    ``0 <= start < end < inf``, and cues must be ordered and must not
    overlap.  Blank lines are skipped; errors name the file and line.
    """
    tokens: list[TimedToken] = []
    last_end = 0.0
    with utf8_file(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated columns")
            try:
                start, end = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad cue times") from None
            if not 0.0 <= start < end < math.inf:  # also false for nan
                raise ValueError(
                    f"{path}: line {lineno}: cue window must satisfy 0 <= start < end < inf, "
                    f"got [{start!r}, {end!r})"
                )
            if start < last_end:
                raise ValueError(
                    f"{path}: line {lineno}: cue starting at {start!r} overlaps or precedes "
                    f"the cue ending at {last_end!r}"
                )
            words = tokenize(parts[2])
            for m, word in enumerate(words):
                tokens.append(TimedToken(word, start + (m / len(words)) * (end - start)))
            last_end = end
    return TimedTranscript(tuple(tokens))


def split_sentences(tokens: Sequence[str]) -> tuple[list[list[str]], bool]:
    """Group tokens into sentences, cutting after any token that ends in
    '.', '!' or '?'.  The second result says whether the last sentence is
    complete; an empty input counts as complete."""
    sentences: list[list[str]] = []
    current: list[str] = []
    for token in tokens:
        current.append(token)
        if token.endswith(_SENTENCE_FINAL):
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
        return sentences, False
    return sentences, True


@dataclass(frozen=True, slots=True)
class SessionState:
    """What the next :func:`advance` reads, and what :func:`display_event`
    shows.

    ``live`` holds the words of the incomplete last sentence (empty once it
    is complete), the only words the next split reads, and ``last_time``
    the time of the last fed word (0.0 before the first feed).
    ``source_text`` joins every word fed so far by single spaces, and
    ``frozen_text`` is every frozen translation token, completed sentence
    by sentence, each followed by one space: the running texts each event
    extends.
    ``previous_unmasked`` is the live sentence's latest unmasked
    translation: the bias target of its next retranslation and the tail the
    display masks.  ``memo`` holds the live sentence's search rounds, from
    which its next retranslation resumes (see
    :class:`~retrans.decoder.BeamMemo`).  It checks its own inputs, so
    advancing one state twice, or under another config or model, stays
    exact; it takes no part in comparing or printing states.
    """

    live: tuple[str, ...] = ()
    last_time: float = 0.0
    source_text: str = ""
    frozen_text: str = ""
    previous_unmasked: tuple[str, ...] = ()
    memo: BeamMemo = field(default_factory=BeamMemo, compare=False, repr=False)


def advance(
    state: SessionState,
    new_tokens: Sequence[TimedToken],
    model: ScoringModel,
    config: DecoderConfig,
) -> SessionState:
    """Feed freshly recognized tokens and retranslate: the decode part of
    :func:`step`.  What it decodes does not depend on ``config.mask_length``.

    Sentences completed by this feed are translated one last time with the
    sentence end in view (still biased toward their previous translation)
    and frozen.  The last sentence, if incomplete, is retranslated biased
    toward its own previous unmasked translation.  Sentence 0, the live
    sentence plus the fed tokens, resumes its search from ``state.memo``;
    a sentence that starts in this feed searches from round 0, into a
    fresh memo that the new state keeps if it is the live one.
    """
    # Only the fed tokens need checking: earlier feeds were checked when fed.
    new_tokens = TimedTranscript(tuple(new_tokens)).tokens
    if not new_tokens:
        raise ValueError("step needs at least one new token")
    if new_tokens[0].time < state.last_time:
        raise ValueError("new tokens must not precede the transcript seen so far")

    fed = tuple(tok.token for tok in new_tokens)
    sentences, last_complete = split_sentences(state.live + fed)  # the frozen prefix ends at a cut

    frozen_text = state.frozen_text
    previous_unmasked: tuple[str, ...] = ()
    memo = state.memo
    for index, sentence in enumerate(sentences):
        complete = last_complete or index < len(sentences) - 1
        bias_target = state.previous_unmasked if index == 0 else ()  # sentence 0 is state.live's
        if index:
            memo = BeamMemo()
        translated = biased_beam_search(
            model,
            sentence,
            complete,
            # Field by field: dataclasses.replace would cost three times as much, every step.
            DecoderConfig(config.beam_size, config.bias_weight, config.mask_length, bias_target),
            memo=memo,
        )
        if complete:
            frozen_text += "".join(token + " " for token in translated)
        else:
            previous_unmasked = translated

    joined = " ".join(fed)
    source_text = f"{state.source_text} {joined}" if state.source_text else joined
    if last_complete:
        live, memo = (), BeamMemo()
    else:
        live = tuple(sentences[-1])
    return SessionState(live, new_tokens[-1].time, source_text, frozen_text, previous_unmasked, memo)


def display_event(state: SessionState, mask_length: int, delay: float = 0.0) -> Event:
    """What the viewer sees after ``state``'s last feed: the frozen
    translations and the live translation with its last ``mask_length``
    tokens held back, stamped at the last fed token's time plus ``delay``,
    rounded to the millisecond as :func:`save_event_log` writes it, so a
    saved and reloaded log equals the one in memory."""
    return Event(float(format_seconds(state.last_time + delay)), state.source_text, display_text(state, mask_length))


def display_text(state: SessionState, mask_length: int) -> str:
    """The display of :func:`display_event`: the frozen translations, then the
    live translation without its last ``mask_length`` tokens."""
    live = mask_tail(state.previous_unmasked, mask_length)
    return state.frozen_text + " ".join(live) if live else state.frozen_text[:-1]


def step(
    state: SessionState,
    new_tokens: Sequence[TimedToken],
    model: ScoringModel,
    config: DecoderConfig,
    delay: float = 0.0,
) -> tuple[SessionState, Event]:
    """Feed freshly recognized tokens, retranslate (:func:`advance`) and
    show the result under ``config.mask_length`` (:func:`display_event`).
    Returns the new state and the logged event."""
    state = advance(state, new_tokens, model, config)
    return state, display_event(state, config.mask_length, delay)


def run_simulation(
    transcript: TimedTranscript,
    model: ScoringModel,
    config: DecoderConfig,
    chunk_size: int = 1,
    delay: float = 0.0,
) -> EventLog:
    """Replay ``transcript`` in time order and collect the session log.

    Tokens are fed one at a time by default; ``chunk_size`` feeds fixed-size
    groups instead, emitting one event per group.  An empty transcript
    yields an empty log.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not math.isfinite(delay) or delay < 0.0:
        raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
    log = EventLog()
    state = SessionState()
    for start in range(0, len(transcript.tokens), chunk_size):
        state, event = step(state, transcript.tokens[start:start + chunk_size], model, config, delay)
        log = append_event(log, event)
    return log
