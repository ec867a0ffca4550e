"""The record-based translation lag, kept as the oracle for the per-token
sequences :mod:`retrans.metrics` computes lag from.

Finalization returns each final token's event index and time, and
correspondence returns one six-field record per final token, of which lag
reads only the source position.  The final translation is segmented by
:func:`test_align.full_table_segment` and cut by hand, so no live
segmentation code is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from erasure_oracle import common_prefix_len
from retrans.eventlog import EventLog, tokenize
from retrans.metrics import ReferenceDocument
from test_align import full_table_segment


def segment(hyp: list[str], refs: list[list[str]]) -> list[list[str]]:
    """``hyp`` cut into one piece per reference segment, where the full-table segmenter cuts it."""
    cuts = [0, *full_table_segment(hyp, refs), len(hyp)]
    return [hyp[start:end] for start, end in zip(cuts, cuts[1:])]


@dataclass(frozen=True, slots=True)
class FinalizationMap:
    event_indices: tuple[int, ...]
    times: tuple[float, ...]


def finalization(log: EventLog) -> FinalizationMap:
    if not log:
        raise ValueError("finalization needs at least one event")
    final_tokens = tokenize(log[-1].output_text)
    agree = [common_prefix_len(tokenize(event.output_text), final_tokens) for event in log]
    for i in range(len(agree) - 2, -1, -1):
        agree[i] = min(agree[i], agree[i + 1])
    indices = []
    event = 0
    for position in range(1, len(final_tokens) + 1):
        while agree[event] < position:
            event += 1
        indices.append(event + 1)
    events = log.events
    times = tuple(events[i - 1].time for i in indices)
    return FinalizationMap(tuple(indices), times)


@dataclass(frozen=True, slots=True)
class TokenCorrespondence:
    segment_index: int
    output_start: int
    output_len: int
    source_start: int
    source_len: int
    source_position: float


@dataclass(frozen=True, slots=True)
class CorrespondenceMap:
    tokens: tuple[TokenCorrespondence, ...]


def correspondence(log: EventLog, doc: ReferenceDocument) -> CorrespondenceMap:
    if not log:
        raise ValueError("correspondence needs at least one event")
    hyp = tokenize(log[-1].output_text)
    refs = doc.reference_token_segments()
    pieces = segment(hyp, refs)
    source_lens = [len(seg.source_tokens) for seg in doc.segments]

    records = []
    output_start = 0
    source_start = 0
    for index, piece in enumerate(pieces):
        piece_len = len(piece)
        src_len = source_lens[index]
        for j in range(output_start, output_start + piece_len):
            position = (j - output_start) * src_len / piece_len + source_start
            position = min(max(position, float(source_start)), float(source_start + src_len - 1))
            records.append(
                TokenCorrespondence(index, output_start, piece_len, source_start, src_len, position)
            )
        output_start += piece_len
        source_start += src_len
    return CorrespondenceMap(tuple(records))


def _time_at(times: Sequence[float], position: float) -> float:
    base = int(math.floor(position))
    frac = position - base
    if frac == 0.0:
        return times[base]
    return times[base] * (1.0 - frac) + times[base + 1] * frac


def token_lags(log: EventLog, doc: ReferenceDocument) -> list[float]:
    if not log:
        raise ValueError("lag needs at least one event")
    if not tokenize(log[-1].output_text):
        raise ValueError("lag is undefined for an empty final translation")
    fin = finalization(log)
    cmap = correspondence(log, doc)
    times = doc.source_times()
    return [
        fin.times[j] - _time_at(times, record.source_position)
        for j, record in enumerate(cmap.tokens)
    ]
