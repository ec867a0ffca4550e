"""Grid sweeps over the two stability knobs, and their Pareto subset.

:func:`sweep` simulates and scores every document of a corpus under every
(bias weight, mask length) setting, pooled corpus-wide through one
:class:`~retrans.metrics.Tally` per setting, the same rule ``evaluate``
applies to one session.  :func:`pareto_subset` keeps the rows not dominated
in (BLEU up, lag down), and :func:`save_sweep_rows` writes rows as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .decoder import DecoderConfig, ScoringModel
from .eventlog import format_seconds, replacing_file
from .metrics import DisplayFold, ReferenceDocument, Scorer, Tally, check_source
from .pipeline import SessionState, TimedTranscript, advance, display_text


@dataclass(frozen=True, slots=True)
class SweepRow:
    """Corpus-level scores for one (bias weight, mask length) setting."""

    bias_weight: float
    mask_length: int
    bleu: float
    translation_lag: float
    normalized_erasure: float


def sweep(
    model: ScoringModel,
    documents: Sequence[tuple[str, TimedTranscript, ReferenceDocument]],
    bias_weights: Sequence[float],
    mask_lengths: Sequence[int],
    beam_size: int,
) -> list[SweepRow]:
    """Simulate and evaluate every document under every setting.

    BLEU is computed corpus-wide by pooling all documents' per-segment
    statistics; lag and erasure are pooled per token, which equals averaging
    per-document scores weighted by their final output token counts.  Rows
    come out ordered by the grids, bias weights outermost.

    The mask only changes the display: the search is biased toward the
    previous *unmasked* translation.  So each (bias weight, document) pair
    is decoded once, and each decoded state is shown under every mask
    length into that length's :class:`~retrans.metrics.DisplayFold`, added
    with the events' times to that length's :class:`~retrans.metrics.Tally`
    as soon as the document ends.  It is scored through
    :class:`~retrans.metrics.Scorer`, as ``evaluate_all`` scores a session:
    each reference is prepared once per sweep, and each distinct final
    translation of a document is segmented once for both BLEU and lag.

    Every setting and every transcript is checked before anything is
    decoded: an out-of-range setting fails naming it, and a transcript that
    is not its reference's source fails naming the document.  A later
    failure aborts the sweep, naming the bias weight, the document and,
    when scoring failed, the mask length.
    """
    if not documents:
        raise ValueError("sweep needs at least one document")
    if not bias_weights or not mask_lengths:
        raise ValueError("sweep needs at least one bias weight and one mask length")
    for bias_weight in bias_weights:
        for mask_length in mask_lengths:
            try:
                DecoderConfig(beam_size=beam_size, bias_weight=bias_weight, mask_length=mask_length)
            except ValueError as exc:
                raise ValueError(
                    f"sweep setting beta={bias_weight!r} k={mask_length} beam={beam_size}: {exc}"
                ) from None
    scorers = []
    for name, transcript, reference in documents:
        words = [tok.token for tok in transcript.tokens]
        check_source(words, f"document {name}: the transcript", reference, "its reference's source")
        scorers.append(Scorer(reference))
    rows = []
    for bias_weight in bias_weights:
        config = DecoderConfig(beam_size=beam_size, bias_weight=bias_weight)
        tallies = {mask_length: Tally() for mask_length in mask_lengths}
        for (name, transcript, _), scorer in zip(documents, scorers):
            folds = {mask_length: DisplayFold() for mask_length in tallies}
            event_times = []
            state = SessionState()
            try:
                for token in transcript.tokens:
                    state = advance(state, (token,), model, config)
                    event_times.append(float(format_seconds(state.last_time)))  # as display_event stamps it
                    for mask_length, fold in folds.items():
                        fold.add(display_text(state, mask_length))
            except ValueError as exc:
                raise ValueError(f"sweep failed at beta={bias_weight!r} document={name}: {exc}") from None
            for mask_length, fold in folds.items():
                try:
                    tallies[mask_length].add(fold, event_times, scorer)
                except ValueError as exc:
                    raise ValueError(
                        f"sweep failed at beta={bias_weight!r} k={mask_length} document={name}: {exc}"
                    ) from None
        for mask_length in mask_lengths:
            report = tallies[mask_length].report()
            rows.append(
                SweepRow(bias_weight, mask_length, report.bleu, report.translation_lag, report.normalized_erasure)
            )
    return rows


def pareto_subset(rows: Sequence[SweepRow], erasure_ceiling: float | None = None) -> list[SweepRow]:
    """Rows not dominated in (BLEU up, lag down), among those whose
    normalized erasure stays within ``erasure_ceiling`` (no ceiling: all
    rows are eligible).  Input order is preserved; rows with identical BLEU
    and lag do not dominate each other.  A ceiling that is not a number
    >= 0 raises ``ValueError``."""
    if erasure_ceiling is not None and not erasure_ceiling >= 0.0:  # also true for nan
        raise ValueError(f"erasure_ceiling must be a number >= 0, got {erasure_ceiling!r}")
    eligible = [
        row
        for row in rows
        if erasure_ceiling is None or row.normalized_erasure <= erasure_ceiling
    ]
    front = []
    for row in eligible:
        dominated = any(
            other.bleu >= row.bleu
            and other.translation_lag <= row.translation_lag
            and (other.bleu > row.bleu or other.translation_lag < row.translation_lag)
            for other in eligible
        )
        if not dominated:
            front.append(row)
    return front


def save_sweep_rows(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Write rows as CSV with the header ``beta,k,bleu,tl,ne``.  Floats are
    written in shortest round-trip form, so reading the file back yields
    the exact same values.  A failed save leaves ``path`` as it was."""
    with replacing_file(path) as handle:
        handle.write("beta,k,bleu,tl,ne\n")
        for row in rows:
            handle.write(
                f"{row.bias_weight!r},{row.mask_length},{row.bleu!r},"
                f"{row.translation_lag!r},{row.normalized_erasure!r}\n"
            )
