"""A long talk fits in memory that grows with the talk, not with its saved
log.  The saved log holds every snapshot whole, so its size grows with the
square of the talk; the log in memory holds what each event adds."""

from __future__ import annotations

import gc
import tracemalloc

from retrans import DecoderConfig, ReferenceDocument, ReferenceSegment, TimedToken, evaluate_all
from retrans.eventlog import load_event_log, save_event_log
from retrans.metrics import load_reference_document
from retrans.pipeline import TimedTranscript, run_simulation

from conftest import TOY_DIR

ROUNDS = 20  # passes over the six toy documents: 2,220 words
PAUSE = 1.0  # seconds between one document's last word and the next one's first


def _talk(rounds: int = ROUNDS) -> tuple[TimedTranscript, ReferenceDocument]:
    """The toy documents, ``rounds`` times over, each shifted to start a
    pause after the last one ends."""
    documents = [load_reference_document(path) for path in sorted((TOY_DIR / "references").glob("*.jsonl"))]
    segments = []
    end = 0.0
    for _ in range(rounds):
        for document in documents:
            shift = end + PAUSE - document.segments[0].source_tokens[0].time
            for segment in document.segments:
                tokens = tuple(TimedToken(tok.token, tok.time + shift) for tok in segment.source_tokens)
                segments.append(ReferenceSegment(tokens, segment.reference_text))
            end = segments[-1].source_tokens[-1].time
    reference = ReferenceDocument(tuple(segments))
    return TimedTranscript(tuple(tok for segment in segments for tok in segment.source_tokens)), reference


def test_a_long_talk_needs_far_less_memory_than_its_saved_log(tmp_path, toy_model):
    transcript, reference = _talk()
    assert len(transcript) >= 2000
    config = DecoderConfig(beam_size=4, bias_weight=0.0, mask_length=0)
    path = tmp_path / "talk.events.jsonl"
    peaks = {}

    def traced(stage: str, run):
        tracemalloc.reset_peak()
        result = run()
        peaks[stage] = tracemalloc.get_traced_memory()[1]
        return result

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        log = traced("simulate", lambda: run_simulation(transcript, toy_model, config))
        traced("save", lambda: save_event_log(log, path))
        del log
        log = traced("load", lambda: load_event_log(path))
        traced("evaluate", lambda: evaluate_all(log, reference))
    finally:
        if not tracing:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 20e6
    assert all(peak < size / 10 for peak in peaks.values()), (size, peaks)


def test_evaluate_memory_grows_little_faster_than_the_talk(toy_model):
    # evaluate_all's tracemalloc peak above the log it scores, at 1,110 and
    # 2,220 words: about 0.7 and 1.5 MB, and 3.6 MB at 4,440.  Part of it,
    # mwer_segment's border columns, grows with the square of the talk, so
    # the ratio may exceed 2; at 3 or more, evaluate as a whole grows so.
    config = DecoderConfig(beam_size=4, bias_weight=0.0, mask_length=0)
    peaks = {}
    tracing = tracemalloc.is_tracing()
    for rounds in (ROUNDS // 2, ROUNDS):
        transcript, reference = _talk(rounds)
        log = run_simulation(transcript, toy_model, config)
        # A full collection empties CPython's free lists.  Without one here,
        # a tuple evaluate_all builds may reuse untraced free-list memory or
        # not, depending on when the last full collection ran: that alone
        # moved the 2,220-word peak from 1.15 to 1.54 MB.
        gc.collect()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evaluate_all(log, reference)
            peaks[len(transcript)] = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
    (small_words, small), (large_words, large) = peaks.items()
    assert large / small < 3, (
        f"evaluate_all peaks {small / 1e6:.2f} MB at {small_words} words and {large / 1e6:.2f} MB at {large_words}"
    )
