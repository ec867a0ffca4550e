from __future__ import annotations

from pathlib import Path

import pytest

from retrans import (
    DecoderConfig,
    Event,
    EventLog,
    ReferenceDocument,
    TableModel,
    TimedToken,
    load_reference_document,
    load_table_model,
    load_transcript,
)
from retrans.decoder import ANY_CONTEXT, END_OF_SOURCE
from retrans.eventlog import append_event
from retrans.pipeline import TimedTranscript

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
TOY_DIR = DATA_DIR / "toy"


def build_log(*events: tuple[float, str, str]) -> EventLog:
    log = EventLog()
    for time, src, out in events:
        log = append_event(log, Event(time, src, out))
    return log


@pytest.fixture
def session_log() -> EventLog:
    """A short session whose metric values are known by hand: the display
    grows twice, then one verb is revised which retracts three tokens."""
    return build_log(
        (2.0, "Neue Arzneimittel könnten", "New Medicines"),
        (3.5, "Neue Arzneimittel könnten Eierstockkrebs", "New Medicines may be ovarian cancer"),
        (4.2, "Neue Arzneimittel könnten Eierstockkrebs verlangsamen", "New Medicines may slow ovarian cancer"),
    )


@pytest.fixture
def two_word_model() -> TableModel:
    """Minimal table: 'a' translates to X before 'b' and to Y otherwise,
    'b' to Z at a confirmed sentence end and to W otherwise."""
    return TableModel(
        {
            ("a", "b"): {"X": 1.0},
            ("a", ANY_CONTEXT): {"Y": 1.0},
            ("b", END_OF_SOURCE): {"Z": 1.0},
            ("b", ANY_CONTEXT): {"W": 1.0},
        }
    )


@pytest.fixture(scope="session")
def toy_model() -> TableModel:
    return load_table_model(TOY_DIR / "model.tsv")


@pytest.fixture(scope="session")
def toy_documents() -> list[tuple[str, TimedTranscript, ReferenceDocument]]:
    documents = []
    for path in sorted((TOY_DIR / "transcripts").glob("*.jsonl")):
        documents.append(
            (
                path.name,
                load_transcript(path),
                load_reference_document(TOY_DIR / "references" / path.name),
            )
        )
    assert len(documents) >= 5
    return documents


@pytest.fixture(scope="session")
def toy_talk(toy_documents) -> TimedTranscript:
    """The toy documents back to back, 1 s apart, twice: a talk of short
    sentences."""
    tokens = []
    offset = 0.0
    for _ in range(2):
        for _, transcript, _ in toy_documents:
            tokens.extend(TimedToken(tok.token, tok.time + offset) for tok in transcript.tokens)
            offset = tokens[-1].time + 1.0
    return TimedTranscript(tuple(tokens))


@pytest.fixture
def greedy_config() -> DecoderConfig:
    return DecoderConfig(beam_size=1)
