"""Command-line surface, grid sweeps and the Pareto subset.

Four subcommands cover the full workflow: ``ingest-captions`` turns caption
cues into a timed transcript, ``simulate`` replays a transcript through the
translator and writes the session log, ``evaluate`` scores one session
log against its reference, and ``sweep`` grids over bias weights and mask
lengths, aggregates over a directory of documents, and writes the rows plus
their Pareto-optimal subset as CSV.

Every command exits 0 on success and nonzero with a diagnostic on stderr
for invalid inputs.  Outputs are deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .align import lcp_len
from .decoder import DecoderConfig, ScoringModel, load_table_model
from .eventlog import format_seconds, load_event_log, replacing_file, save_event_log, tokenize
from .metrics import (
    DisplayFold, ReferenceDocument, Scorer, bleu_score, evaluate_all, lags_at, load_reference_document, save_report,
)
# These go unused here: perfbench/tracing.py wraps them on this module.
from .align import mwer_segment, split_by_boundaries
from .metrics import bleu_corpus, erasure, token_lags
from .pipeline import (
    SessionState,
    TimedTranscript,
    advance,
    display_text,
    load_captions,
    load_transcript,
    run_simulation,
    save_transcript,
)


# ---------------------------------------------------------------------------
# Grid sweep


@dataclass(frozen=True, slots=True)
class SweepRow:
    """Corpus-level scores for one (bias weight, mask length) setting."""

    bias_weight: float
    mask_length: int
    bleu: float
    translation_lag: float
    normalized_erasure: float


@dataclass(slots=True)
class _Pool:
    """One grid point's scores pooled over the documents scored so far, with
    ``ref_len`` the token count of all the documents' references."""

    ref_len: int
    statistics: list[int] = field(default_factory=lambda: [0] * 8)
    lags: list[float] = field(default_factory=list)
    erased: int = 0

    def add(self, fold: DisplayFold, event_times: list[float], scorer: Scorer) -> None:
        statistics, _, spoken = scorer.final(fold.display)
        self.lags.extend(lags_at(fold.changed, event_times, spoken))
        self.statistics = [pooled + more for pooled, more in zip(self.statistics, statistics)]
        self.erased += sum(fold.erased)

    def row(self, bias_weight: float, mask_length: int) -> SweepRow:
        return SweepRow(
            bias_weight,
            mask_length,
            bleu_score(self.statistics, self.ref_len),
            math.fsum(self.lags) / len(self.lags),
            self.erased / len(self.lags),  # one lag per final token
        )


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
    length into that length's :class:`~retrans.metrics.DisplayFold`, scored
    with the events' times as soon as the document ends.  It is scored
    through :class:`~retrans.metrics.Scorer`, as ``evaluate_all`` scores a
    session: each reference is prepared once per sweep, and each distinct
    final translation of a document is segmented once for both BLEU and lag.

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
        _check_source(words, f"document {name}: the transcript", reference, "its reference's source")
        scorers.append(Scorer(reference))
    ref_len = sum(scorer.ref_len for scorer in scorers)
    rows = []
    for bias_weight in bias_weights:
        config = DecoderConfig(beam_size=beam_size, bias_weight=bias_weight)
        pools = {mask_length: _Pool(ref_len) for mask_length in mask_lengths}
        for (name, transcript, _), scorer in zip(documents, scorers):
            folds = {mask_length: DisplayFold() for mask_length in pools}
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
                    pools[mask_length].add(fold, event_times, scorer)
                except ValueError as exc:
                    raise ValueError(
                        f"sweep failed at beta={bias_weight!r} k={mask_length} document={name}: {exc}"
                    ) from None
        rows.extend(pools[mask_length].row(bias_weight, mask_length) for mask_length in mask_lengths)
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


def _pareto_path(out: Path) -> Path:
    return out.with_suffix(".pareto.csv")


# ---------------------------------------------------------------------------
# Command surface


def _parse_grid_floats(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


def _parse_grid_ints(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("expected a comma-separated list of integers")
    return values


def _parse_ne_ceiling(text: str) -> float:
    value = float(text)
    if not value >= 0.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _check_source(words: list[str], what: str, reference: ReferenceDocument, of: str) -> None:
    """Raise ``ValueError`` unless ``words`` are the source words of
    ``reference``, naming the first token where they differ; ``what`` and
    ``of`` name the two sides in the message."""
    expected = [tok.token for seg in reference.segments for tok in seg.source_tokens]
    if words != expected:
        at = lcp_len(words, expected)
        seen = repr(words[at]) if at < len(words) else "no token"
        wanted = repr(expected[at]) if at < len(expected) else "no token"
        raise ValueError(
            f"{what} ({len(words)} tokens) differs from {of} ({len(expected)} tokens) "
            f"at token {at + 1}: {seen} instead of {wanted}"
        )


def _cmd_ingest_captions(args: argparse.Namespace) -> int:
    save_transcript(load_captions(args.cues), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = load_table_model(args.model)
    transcript = load_transcript(args.transcript)
    config = DecoderConfig(beam_size=args.beam, bias_weight=args.beta, mask_length=args.k)
    log = run_simulation(transcript, model, config, args.chunk, args.delay)
    save_event_log(log, args.out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    log = load_event_log(args.events)
    reference = load_reference_document(args.reference)
    spoken = tokenize(log.events[-1].source_text) if log.events else []
    _check_source(spoken, f"{args.events}: the final source", reference, f"the source of {args.reference}")
    report = evaluate_all(log, reference, mode=args.correspondence)
    save_report(report, args.out)
    return 0


def _collect_documents(
    transcripts_dir: Path, references_dir: Path
) -> list[tuple[str, TimedTranscript, ReferenceDocument]]:
    paths = sorted(transcripts_dir.glob("*.jsonl"))
    if not paths:
        raise ValueError(f"no *.jsonl transcripts found in {transcripts_dir}")
    documents = []
    for path in paths:
        reference_path = references_dir / path.name
        if not reference_path.is_file():
            raise ValueError(f"missing reference for {path.name} in {references_dir}")
        documents.append((path.name, load_transcript(path), load_reference_document(reference_path)))
    return documents


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = load_table_model(args.model)
    documents = _collect_documents(Path(args.transcripts), Path(args.references))
    rows = sweep(model, documents, args.betas, args.ks, args.beam)
    out = Path(args.out)
    save_sweep_rows(rows, out)
    save_sweep_rows(pareto_subset(rows, args.ne_ceiling), _pareto_path(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrans",
        description="Simulate re-translation over streaming transcripts and score the sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser(
        "ingest-captions", help="turn caption cues (start/end/text TSV) into a timed transcript"
    )
    ingest.add_argument("--cues", required=True, help="cue TSV: start seconds, end seconds, text")
    ingest.add_argument("--out", required=True, help="transcript JSONL to write")
    ingest.set_defaults(handler=_cmd_ingest_captions)

    simulate = sub.add_parser("simulate", help="replay a transcript and write the session log")
    simulate.add_argument("--model", required=True, help="translation table TSV")
    simulate.add_argument("--transcript", required=True, help="timed transcript JSONL")
    simulate.add_argument("--beta", required=True, type=float, help="bias toward the previous translation, 0..1")
    simulate.add_argument("--k", required=True, type=int, help="tokens held back while a sentence is incomplete")
    simulate.add_argument("--beam", required=True, type=int, help="beam size")
    simulate.add_argument("--chunk", type=int, default=1, help="source tokens fed per event (default 1)")
    simulate.add_argument("--delay", type=float, default=0.0, help="constant processing delay in seconds")
    simulate.add_argument("--out", required=True, help="event log JSONL to write")
    simulate.set_defaults(handler=_cmd_simulate)

    evaluate = sub.add_parser("evaluate", help="score one session log against its reference")
    evaluate.add_argument("--events", required=True, help="event log JSONL")
    evaluate.add_argument("--reference", required=True, help="reference document JSONL")
    evaluate.add_argument(
        "--correspondence",
        choices=("segment", "document"),
        default="segment",
        help="how output tokens map back to source positions (default: segment)",
    )
    evaluate.add_argument("--out", required=True, help="report JSON to write")
    evaluate.set_defaults(handler=_cmd_evaluate)

    grid = sub.add_parser("sweep", help="grid over bias/mask settings and write CSV rows plus the Pareto subset")
    grid.add_argument("--model", required=True, help="translation table TSV")
    grid.add_argument("--transcripts", required=True, help="directory of transcript JSONL files")
    grid.add_argument("--references", required=True, help="directory of same-named reference JSONL files")
    grid.add_argument("--betas", required=True, type=_parse_grid_floats, help="comma-separated bias weights")
    grid.add_argument("--ks", required=True, type=_parse_grid_ints, help="comma-separated mask lengths")
    grid.add_argument("--beam", required=True, type=int, help="beam size")
    grid.add_argument(
        "--ne-ceiling",
        type=_parse_ne_ceiling,
        default=None,
        help="only rows with normalized erasure at or below this enter the Pareto subset",
    )
    grid.add_argument("--out", required=True, help="CSV of all rows; the Pareto subset lands next to it as *.pareto.csv")
    grid.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
