"""A long talk fits in memory that grows with the talk, not with its saved
log.  The saved log holds every snapshot whole, so its size grows with the
square of the talk; the log in memory holds what each event adds."""

from __future__ import annotations

import tracemalloc

from retrans import DecoderConfig, ReferenceDocument, ReferenceSegment, TimedToken, evaluate_all
from retrans.eventlog import load_event_log, save_event_log
from retrans.metrics import load_reference_document
from retrans.pipeline import TimedTranscript, run_simulation

from conftest import TOY_DIR

ROUNDS = 20  # passes over the six toy documents: 2,220 words
PAUSE = 1.0  # seconds between one document's last word and the next one's first


def _talk() -> tuple[TimedTranscript, ReferenceDocument]:
    """The toy documents, ROUNDS times over, each shifted to start a pause
    after the last one ends."""
    documents = [load_reference_document(path) for path in sorted((TOY_DIR / "references").glob("*.jsonl"))]
    segments = []
    end = 0.0
    for _ in range(ROUNDS):
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
