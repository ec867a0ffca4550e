"""Replay a timed transcript through the translator and record what a
viewer would have seen.

Only the last, possibly still incomplete sentence, the live sentence, is
ever (re)translated, and each step splits only the fed tokens: the live
sentence holds no cut, and every cut before it is final.  Completed sentences are
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
translation.  A session keeps one :class:`~retrans.decoder.BeamMemo`, and
every search goes through it, so under a model that declares its
look-ahead a search redoes only the rounds whose source context or bias
target changed since the last search: with one-word feeds, three rounds a
word while the translation only grows.  :func:`display_texts` masks the
live tail and :func:`event_time` stamps the event.  The mask only changes
what is shown, never what is decoded, so one decoded session serves every
mask length: ``sweep`` decodes each (bias weight, document) pair once,
folds each word's display under every mask length from token counts, and
shows the state it ends on under all of them in one call.

The timed transcript is read from JSONL (:func:`load_transcript`) or from
caption cues (:func:`load_captions`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .decoder import BeamMemo, DecoderConfig, ScoringModel, biased_beam_search
from .eventlog import (
    Event,
    EventLog,
    TimedToken,
    append_event,
    format_seconds,
    json_object,
    parse_timed_token,
    read_lines,
    replacing_file,
    tokenize,
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
            line = '{"w": %s, "time": %s}\n' % (json.dumps(tok.token, ensure_ascii=False), format_seconds(tok.time))
            handle.write(line.encode())


def load_transcript(path: str | Path) -> TimedTranscript:
    tokens: list[TimedToken] = []

    def read_line(line: str) -> None:
        token = parse_timed_token(json_object(line, "w", "time"))
        if tokens and token.time < tokens[-1].time:
            raise ValueError("transcript times must be non-decreasing")
        tokens.append(token)

    read_lines(path, read_line)
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

    def read_line(line: str) -> None:
        nonlocal last_end
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise ValueError("expected 3 tab-separated columns")
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError("bad cue times") from None
        if not 0.0 <= start < end < math.inf:  # also false for nan
            raise ValueError(f"cue window must satisfy 0 <= start < end < inf, got [{start!r}, {end!r})")
        if start < last_end:
            raise ValueError(f"cue starting at {start!r} overlaps or precedes the cue ending at {last_end!r}")
        words = tokenize(parts[2])
        tokens.extend(TimedToken(word, start + (m / len(words)) * (end - start)) for m, word in enumerate(words))
        last_end = end

    read_lines(path, read_line)
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
    """What the next :func:`advance` reads, and what :func:`display_texts`
    shows.

    ``live`` holds the words of the incomplete last sentence (empty once it
    is complete), so none of them ends a sentence, and ``last_time``
    the time of the last fed word (0.0 before the first feed).
    ``source_text`` joins every word fed so far by single spaces, and
    ``frozen_text`` is every frozen translation token, completed sentence
    by sentence, each followed by one space: the running texts each event
    extends.
    ``previous_unmasked`` is the live sentence's latest unmasked
    translation: the bias target of its next retranslation and the tail the
    display masks.  ``memo`` is the session's one search memo, which every
    state of the session shares and from which every search resumes (see
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
    toward its own previous unmasked translation.  Only the fed tokens are
    split: ``state.live`` holds no cut, so it goes in front of the feed's
    first sentence, sentence 0.  Every search resumes from ``state.memo``,
    which keeps only the rounds the search shares with the last one, and
    the new state holds that same memo.
    """
    for prev, cur in zip(new_tokens, new_tokens[1:]):  # earlier feeds were checked when fed
        if cur.time < prev.time:
            raise ValueError("transcript times must be non-decreasing")
    if not new_tokens:
        raise ValueError("step needs at least one new token")
    if new_tokens[0].time < state.last_time:
        raise ValueError("new tokens must not precede the transcript seen so far")

    fed = [tok.token for tok in new_tokens]
    sentences, last_complete = split_sentences(fed)
    sentences[0][:0] = state.live

    frozen_text = state.frozen_text
    previous_unmasked: tuple[str, ...] = ()
    for index, sentence in enumerate(sentences):
        complete = last_complete or index < len(sentences) - 1
        bias_target = state.previous_unmasked if index == 0 else ()  # sentence 0 is state.live's
        translated = biased_beam_search(
            model,
            sentence,
            complete,
            # Field by field: dataclasses.replace would cost three times as much, every step.
            DecoderConfig(config.beam_size, config.bias_weight, config.mask_length, bias_target),
            memo=state.memo,
        )
        if complete:
            frozen_text += "".join(token + " " for token in translated)
        else:
            previous_unmasked = translated

    joined = " ".join(fed)
    source_text = f"{state.source_text} {joined}" if state.source_text else joined
    live = () if last_complete else tuple(sentences[-1])
    return SessionState(live, new_tokens[-1].time, source_text, frozen_text, previous_unmasked, state.memo)


def event_time(last_time: float, delay: float) -> float:
    """The time of the event after a feed whose last word was spoken at
    ``last_time``, plus ``delay``, to the millisecond :func:`~retrans.eventlog.save_event_log`
    writes, so a saved and reloaded log equals the one in memory."""
    return float(format_seconds(last_time + delay))


def display_texts(state: SessionState, mask_lengths: Sequence[int]) -> list[str]:
    """What the viewer sees after ``state``'s last feed, per mask length ``k``: the
    frozen translations, then the live one without its last ``k`` tokens (``k`` < 0 raises)."""
    if min(mask_lengths, default=0) < 0:
        raise ValueError(f"mask_length must be >= 0, got {min(mask_lengths)}")
    live, frozen_text = state.previous_unmasked, state.frozen_text
    return [frozen_text + " ".join(live[:len(live) - k]) if len(live) > k else frozen_text[:-1] for k in mask_lengths]


def step(
    state: SessionState,
    new_tokens: Sequence[TimedToken],
    model: ScoringModel,
    config: DecoderConfig,
    delay: float = 0.0,
) -> tuple[SessionState, Event]:
    """Feed freshly recognized tokens, retranslate (:func:`advance`) and
    show the result under ``config.mask_length`` (:func:`display_texts`) at
    :func:`event_time`.  Returns the new state and the logged event."""
    state = advance(state, new_tokens, model, config)
    (display,) = display_texts(state, (config.mask_length,))
    return state, Event(event_time(state.last_time, delay), state.source_text, display)


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
