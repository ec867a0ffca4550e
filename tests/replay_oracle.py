"""The session replay that rebuilds everything on every event, kept as the
oracle for the running-text replay in :mod:`retrans.pipeline` and the
store-sharing :func:`retrans.eventlog.append_event`.

Each step re-splits and re-joins every source word and every frozen token,
and the events are kept whole, in a plain tuple, from which the validating
``EventLog`` constructor builds the log at the end.  Slow (quadratic in the
session), but obviously right.  The
sentence splitter is its own, so the feed-only split of
:func:`retrans.pipeline.advance` is checked against a whole-prefix split
that shares no code with it, and so is the mask: a literal slice.  The
search is :mod:`decoder_oracle`'s, so the resuming live search is not
trusted either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from decoder_oracle import biased_beam_search
from retrans.decoder import DecoderConfig, ScoringModel
from retrans.eventlog import Event, EventLog, TimedToken
from retrans.pipeline import TimedTranscript


def split_sentences(words: Sequence[str]) -> tuple[list[list[str]], bool]:
    """Cut after every word whose last character is '.', '!' or '?'; the
    flag says whether the last sentence is complete."""
    sentences: list[list[str]] = [[]]
    for word in words:
        sentences[-1].append(word)
        if word[-1:] in (".", "!", "?"):
            sentences.append([])
    if sentences[-1]:
        return sentences, False
    return sentences[:-1], True


def append_event(events: tuple[Event, ...], event: Event) -> tuple[Event, ...]:
    """``events`` followed by ``event``, unless it repeats the last state."""
    if events and event.time < events[-1].time:
        raise ValueError(f"event time {event.time!r} precedes the last logged time {events[-1].time!r}")
    if events and event.state() == events[-1].state():
        return events
    return events + (event,)


@dataclass(frozen=True, slots=True)
class SessionState:
    transcript: tuple[TimedToken, ...] = ()
    frozen_translations: tuple[tuple[str, ...], ...] = ()
    live_translation: tuple[str, ...] = ()
    previous_unmasked: tuple[str, ...] = ()

    def displayed_tokens(self) -> list[str]:
        shown = [token for sentence in self.frozen_translations for token in sentence]
        shown.extend(self.live_translation)
        return shown


def step(
    state: SessionState,
    new_tokens: Sequence[TimedToken],
    model: ScoringModel,
    config: DecoderConfig,
    delay: float = 0.0,
) -> tuple[SessionState, Event]:
    new_tokens = TimedTranscript(tuple(new_tokens)).tokens
    if not new_tokens:
        raise ValueError("step needs at least one new token")
    if state.transcript and new_tokens[0].time < state.transcript[-1].time:
        raise ValueError("new tokens must not precede the transcript seen so far")

    transcript = state.transcript + new_tokens
    words = [tok.token for tok in transcript]
    sentences, last_complete = split_sentences(words)

    frozen = list(state.frozen_translations)
    live_index = len(frozen)
    live: tuple[str, ...] = ()
    previous_unmasked: tuple[str, ...] = ()
    for index in range(len(frozen), len(sentences)):
        sentence = sentences[index]
        complete = last_complete or index < len(sentences) - 1
        bias_target = state.previous_unmasked if index == live_index else ()
        translated = biased_beam_search(
            model,
            sentence,
            complete,
            replace(config, previous_translation=bias_target),
        )
        if complete:
            frozen.append(translated)
        else:
            previous_unmasked = translated
            live = translated[:max(0, len(translated) - config.mask_length)]

    next_state = SessionState(transcript, tuple(frozen), live, previous_unmasked)
    event = Event(
        round(new_tokens[-1].time + delay, 3),  # the millisecond the saved log carries
        " ".join(words),
        " ".join(next_state.displayed_tokens()),
    )
    return next_state, event


def run_simulation(
    transcript: TimedTranscript,
    model: ScoringModel,
    config: DecoderConfig,
    chunk_size: int = 1,
    delay: float = 0.0,
) -> EventLog:
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if delay < 0.0:
        raise ValueError(f"delay must be >= 0, got {delay!r}")
    events: tuple[Event, ...] = ()
    state = SessionState()
    for start in range(0, len(transcript.tokens), chunk_size):
        state, event = step(state, transcript.tokens[start:start + chunk_size], model, config, delay)
        events = append_event(events, event)
    return EventLog(events)
