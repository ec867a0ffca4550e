"""Deterministic re-translation over streaming transcripts, and metrics
for what that does to viewers: quality (segmented corpus BLEU), latency
(translation lag) and stability (normalized erasure).

The package exports what the README's quick tour, the command file formats,
the model file format and the :class:`ScoringModel` seam need; everything
else is imported from its module (``retrans.pipeline``, ``retrans.metrics``,
...)."""

from .cli import main
from .decoder import (
    ANY_CONTEXT,
    END_OF_SOURCE,
    EOS_TOKEN,
    DecoderConfig,
    ScoringModel,
    TableModel,
    load_table_model,
)
from .eventlog import Event, EventLog, TimedToken, load_event_log, save_event_log, tokenize
from .grid import SweepRow, pareto_subset, save_sweep_rows, sweep
from .metrics import (
    MetricsReport,
    ReferenceDocument,
    ReferenceSegment,
    evaluate_all,
    load_reference_document,
    save_report,
)
from .pipeline import (
    TimedTranscript,
    load_captions,
    load_transcript,
    run_simulation,
    save_transcript,
)

__version__ = "0.1.0"

__all__ = [
    "ANY_CONTEXT",
    "DecoderConfig",
    "END_OF_SOURCE",
    "EOS_TOKEN",
    "Event",
    "EventLog",
    "MetricsReport",
    "ReferenceDocument",
    "ReferenceSegment",
    "ScoringModel",
    "SweepRow",
    "TableModel",
    "TimedToken",
    "TimedTranscript",
    "evaluate_all",
    "load_captions",
    "load_event_log",
    "load_reference_document",
    "load_table_model",
    "load_transcript",
    "main",
    "pareto_subset",
    "run_simulation",
    "save_event_log",
    "save_report",
    "save_sweep_rows",
    "save_transcript",
    "sweep",
    "tokenize",
]
