"""The sweep that simulates every (bias weight, mask length) setting on its
own, kept as the oracle for :func:`retrans.cli.sweep`, which decodes each
(bias weight, document) pair once and displays it under every mask length.

Each setting replays every document through :mod:`replay_oracle`'s
rebuilding ``run_simulation``, so neither the decode/display split of
:mod:`retrans.pipeline` nor the mask fan-out is trusted.  Each session is
segmented on its own and its pieces pooled for :mod:`bleu_oracle`, so
neither the per-document memo of final translations nor pooled BLEU
statistics are trusted either.  Lag comes from :mod:`latency_oracle` and
erasure from :mod:`erasure_oracle`, so the display fold is not trusted.
Slow (|k| times the decoding), but obviously right.
"""

from __future__ import annotations

import math
from typing import Sequence

import latency_oracle
import replay_oracle
from bleu_oracle import bleu_corpus
from erasure_oracle import tokenizing_erasure
from retrans.align import mwer_segment, split_by_boundaries
from retrans.cli import SweepRow, _check_source
from retrans.decoder import DecoderConfig, ScoringModel
from retrans.eventlog import tokenize
from retrans.metrics import ReferenceDocument
from retrans.pipeline import TimedTranscript


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
        _check_source(words, f"document {name}: the transcript", reference, "its reference's source")
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
                    pooled_pieces.extend(split_by_boundaries(hyp, mwer_segment(hyp, refs).boundaries))
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
