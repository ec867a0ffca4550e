"""The command line: four subcommands that parse their arguments and call
the library.

``ingest-captions`` turns caption cues into a timed transcript,
``simulate`` replays a transcript through the translator and writes the
session log, ``evaluate`` scores one session log against its reference, and
``sweep`` grids over bias weights and mask lengths over a directory of
documents (:mod:`retrans.grid`) and writes the rows plus their
Pareto-optimal subset as CSV.

Every command exits 0 on success and nonzero with a diagnostic on stderr
for invalid inputs.  Outputs are deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .decoder import DecoderConfig, load_table_model
from .eventlog import load_event_log, save_event_log, tokenize
from .grid import pareto_subset, save_sweep_rows, sweep
from .metrics import ReferenceDocument, check_source, evaluate_all, load_reference_document, save_report
from .pipeline import TimedTranscript, load_captions, load_transcript, run_simulation, save_transcript

# These go unused here: perfbench/tracing.py wraps them on this module.
from .align import mwer_segment, split_by_boundaries
from .metrics import bleu_corpus, erasure, token_lags


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
    check_source(spoken, f"{args.events}: the final source", reference, f"the source of {args.reference}")
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
    save_sweep_rows(pareto_subset(rows, args.ne_ceiling), out.with_suffix(".pareto.csv"))
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
