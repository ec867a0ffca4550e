"""The sweep that simulates every (bias weight, mask length) setting on its
own, kept as the oracle for :func:`retrans.grid.sweep`, which decodes each
(bias weight, document) pair once and displays it under every mask length.

Each setting replays every document through :mod:`replay_oracle`'s
rebuilding ``run_simulation``, so neither the decode/display split of
:mod:`retrans.pipeline` nor the mask fan-out is trusted.  Each session is
segmented on its own by :func:`test_align.full_table_segment`, cut by hand,
and its pieces pooled for :mod:`bleu_oracle`, so neither the live
segmenter, nor the per-document memo of final translations, nor pooled BLEU
statistics are trusted either.  Lag comes from :mod:`latency_oracle` and
erasure from :mod:`erasure_oracle`, so the display fold is not trusted, and
the source check is spelled out here.  Slow (|k| times the decoding), but
obviously right.
"""

from __future__ import annotations

import math
from typing import Sequence

import latency_oracle
import replay_oracle
from bleu_oracle import bleu_corpus
from erasure_oracle import tokenizing_erasure
from retrans.decoder import DecoderConfig, ScoringModel
from retrans.eventlog import tokenize
from retrans.grid import SweepRow
from retrans.metrics import ReferenceDocument
from retrans.pipeline import TimedTranscript
from test_align import full_table_segment


def check_source(name: str, words: list[str], reference: ReferenceDocument) -> None:
    """Raise the message the live sweep raises unless ``words`` are the
    source words of ``reference``."""
    expected = [tok.token for segment in reference.segments for tok in segment.source_tokens]
    at = 0
    while at < len(words) and at < len(expected) and words[at] == expected[at]:
        at += 1
    if at < len(words) or at < len(expected):
        seen = repr(words[at]) if at < len(words) else "no token"
        wanted = repr(expected[at]) if at < len(expected) else "no token"
        raise ValueError(
            f"document {name}: the transcript ({len(words)} tokens) differs from its reference's source "
            f"({len(expected)} tokens) at token {at + 1}: {seen} instead of {wanted}"
        )


def segment(hyp: list[str], refs: list[list[str]]) -> list[list[str]]:
    cuts = [0, *full_table_segment(hyp, refs).boundaries, len(hyp)]
    return [hyp[start:end] for start, end in zip(cuts, cuts[1:])]


def sweep(
    model: ScoringModel,
    documents: Sequence[tuple[str, TimedTranscript, ReferenceDocument]],
    bias_weights: Sequence[float],
    mask_lengths: Sequence[int],
    beam_size: int,
) -> list[SweepRow]:
    if not documents:
        raise ValueError("sweep needs at least one document")
    if not bias_weights or not mask_lengths:
        raise ValueError("sweep needs at least one bias weight and one mask length")
    for name, transcript, reference in documents:
        words = [tok.token for tok in transcript.tokens]
        check_source(name, words, reference)
    rows = []
    for bias_weight in bias_weights:
        for mask_length in mask_lengths:
            config = DecoderConfig(
                beam_size=beam_size, bias_weight=bias_weight, mask_length=mask_length
            )
            pooled_pieces: list[list[str]] = []
            pooled_refs: list[list[str]] = []
            pooled_lags: list[float] = []
            erased = 0
            final_tokens = 0
            for name, transcript, reference in documents:
                try:
                    log = replay_oracle.run_simulation(transcript, model, config)
                    hyp = tokenize(log.events[-1].output_text) if log.events else []
                    refs = reference.reference_token_segments()
                    pooled_pieces.extend(segment(hyp, refs))
                    pooled_refs.extend(refs)
                    pooled_lags.extend(latency_oracle.token_lags(log, reference))
                    erased += sum(tokenizing_erasure(log))
                    final_tokens += len(hyp)
                except ValueError as exc:
                    raise ValueError(
                        f"sweep failed at beta={bias_weight!r} k={mask_length} document={name}: {exc}"
                    ) from None
            rows.append(
                SweepRow(
                    bias_weight,
                    mask_length,
                    bleu_corpus(pooled_pieces, pooled_refs),
                    math.fsum(pooled_lags) / len(pooled_lags),
                    erased / final_tokens,
                )
            )
    return rows
