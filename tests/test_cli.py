from __future__ import annotations

import argparse
import csv
import math
import random
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

import eventlog_oracle
import retrans.metrics
import sweep_oracle
from retrans import (
    DecoderConfig,
    ReferenceDocument,
    ReferenceSegment,
    TimedToken,
    evaluate_all,
    load_captions,
    load_event_log,
    load_transcript,
    run_simulation,
    save_report,
    save_event_log,
)
from retrans.align import mwer_segment
from retrans.cli import _parse_grid_floats, _parse_grid_ints, _parse_ne_ceiling, main
from retrans.decoder import EOS_TOKEN
from retrans.eventlog import tokenize
from retrans.grid import SweepRow, pareto_subset, save_sweep_rows, sweep
from retrans.pipeline import TimedTranscript

from conftest import TOY_DIR
from test_pipeline import _SOURCE_WORDS, table_models


# ---------------------------------------------------------------------------
# Caption ingestion


def load_cues(tmp_path, text: str) -> TimedTranscript:
    path = tmp_path / "cues.tsv"
    path.write_text(text, encoding="utf-8")
    return load_captions(path)


def timed(transcript: TimedTranscript) -> list[tuple[str, float]]:
    return [(t.token, t.time) for t in transcript.tokens]


def test_cue_window_validation(tmp_path):
    path = tmp_path / "cues.tsv"
    for window in ("2.0\t2.0", "-1.0\t2.0", "nan\t2.0", "0.0\tnan", "0.0\tinf"):
        path.write_text(f"0.0\t0.5\tok\n{window}\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: cue window must satisfy")):
            load_captions(path)


def test_load_caption_cues(tmp_path):
    # only the first two tabs delimit; later tabs separate words of the text
    transcript = load_cues(tmp_path, "0.0\t2.0\thallo welt\n\n2.0\t3.5\tnoch\tein wort\n")
    assert timed(transcript) == [("hallo", 0.0), ("welt", 1.0), ("noch", 2.0), ("ein", 2.5), ("wort", 3.0)]


def test_load_caption_cues_errors(tmp_path):
    path = tmp_path / "cues.tsv"
    for text, message in (
        ("0.0\t1.0\ta\n0.0\t2.0\n", "line 2: expected 3 tab-separated columns"),
        ("0.0\t1.0\ta\n\nzero\t2.0\tx\n", "line 3: bad cue times"),
        ("3.0\t2.0\tx\n", "line 1: cue window must satisfy 0 <= start < end < inf, got [3.0, 2.0)"),
        ("0.0\t2.0\ta\n1.5\t3.0\tb\n", "line 2: cue starting at 1.5 overlaps or precedes the cue ending at 2.0"),
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_captions(path)


def test_ingest_spreads_tokens_over_the_window(tmp_path):
    transcript = load_cues(tmp_path, "1.0\t3.0\ta b\n3.0\t4.5\tc d e\n")
    assert timed(transcript) == [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 3.5), ("e", 4.0)]


def test_ingest_skips_empty_cues(tmp_path):
    assert timed(load_cues(tmp_path, "0.0\t1.0\t   \n1.0\t2.0\tw\n")) == [("w", 1.0)]


def test_ingest_rejects_overlapping_cues(tmp_path):
    # an empty cue still occupies its window
    with pytest.raises(ValueError, match="line 2: cue starting at 1.5 overlaps"):
        load_cues(tmp_path, "0.0\t2.0\t \n1.5\t3.0\tb\n")


def test_ingest_allows_touching_cues(tmp_path):
    assert len(load_cues(tmp_path, "0.0\t2.0\ta\n2.0\t3.0\tb\n")) == 2


# ---------------------------------------------------------------------------
# Sweep rows and the Pareto subset


def random_rows(rng: random.Random, count: int) -> list[SweepRow]:
    return [
        SweepRow(
            rng.choice([0.0, 0.5, 1.0]),
            rng.randint(0, 10),
            rng.uniform(0.0, 100.0),
            rng.uniform(-1.0, 5.0),
            rng.uniform(0.0, 1.0),
        )
        for _ in range(count)
    ]


def read_rows(path) -> list[SweepRow]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ["beta", "k", "bleu", "tl", "ne"]
        return [SweepRow(float(b), int(k), float(q), float(tl), float(ne)) for b, k, q, tl, ne in reader]


def dominates(a: SweepRow, b: SweepRow) -> bool:
    return (
        a.bleu >= b.bleu
        and a.translation_lag <= b.translation_lag
        and (a.bleu > b.bleu or a.translation_lag < b.translation_lag)
    )


def test_pareto_subset_matches_its_definition():
    rng = random.Random(77)
    for _ in range(30):
        rows = random_rows(rng, rng.randint(1, 25))
        for ceiling in (None, 0.3, 0.0):
            front = pareto_subset(rows, ceiling)
            eligible = [
                row for row in rows if ceiling is None or row.normalized_erasure <= ceiling
            ]
            expected = [
                row for row in eligible if not any(dominates(other, row) for other in eligible)
            ]
            assert front == expected


def test_pareto_keeps_tied_rows():
    a = SweepRow(0.0, 0, 50.0, 1.0, 0.0)
    b = SweepRow(1.0, 5, 50.0, 1.0, 0.0)
    assert pareto_subset([a, b]) == [a, b]


def test_pareto_ceiling_filters_before_domination():
    # the strong row is over the ceiling, so it cannot shadow the weak one
    strong = SweepRow(0.0, 0, 90.0, 0.5, 0.9)
    weak = SweepRow(0.5, 2, 40.0, 2.0, 0.1)
    assert pareto_subset([strong, weak], erasure_ceiling=0.5) == [weak]
    assert pareto_subset([strong, weak]) == [strong]


def test_pareto_rejects_a_nan_or_negative_ceiling():
    row = SweepRow(0.0, 0, 50.0, 1.0, 0.0)
    for bad in (math.nan, -0.1):
        with pytest.raises(ValueError, match="erasure_ceiling must be a number >= 0"):
            pareto_subset([row], bad)
    assert pareto_subset([row], math.inf) == [row]


def test_sweep_rows_round_trip_exactly(tmp_path):
    rng = random.Random(123)
    rows = random_rows(rng, 12)
    path = tmp_path / "rows.csv"
    save_sweep_rows(rows, path)
    assert read_rows(path) == rows
    assert path.read_text(encoding="utf-8").splitlines()[0] == "beta,k,bleu,tl,ne"


def test_sweep_failure_names_setting_and_document(toy_model, toy_documents):
    # An empty transcript is not its reference's source: rejected before the grid.
    _, _, reference = toy_documents[0]
    documents = [("leer.jsonl", TimedTranscript(), reference)]
    with pytest.raises(ValueError, match=r"^document leer\.jsonl: the transcript \(0 tokens\) differs"):
        sweep(toy_model, documents, [0.5], [2], beam_size=1)


class SilentModel:
    """Ends every translation at once, so each session's final display is empty."""

    def next_distribution(self, source, source_complete, prefix):
        return {EOS_TOKEN: 1.0}


def test_sweep_failure_in_the_grid_names_setting_and_document(toy_documents):
    with pytest.raises(
        ValueError, match=r"^sweep failed at beta=0\.5 k=2 document=games\.jsonl: lag is undefined"
    ):
        sweep(SilentModel(), toy_documents[:1], [0.5], [2], beam_size=1)


def test_sweep_rejects_a_transcript_of_another_document(toy_model, toy_documents):
    news = next(doc for doc in toy_documents if doc[0] == "news.jsonl")
    games = next(doc for doc in toy_documents if doc[0] == "games.jsonl")
    message = r"^document x\.jsonl: the transcript \(.*at token 1: 'die' instead of 'das'"
    with pytest.raises(ValueError, match=message):
        sweep(toy_model, [("x.jsonl", news[1], games[2])], [0.0], [0], beam_size=2)


def test_sweep_row_order_follows_the_grids(toy_model, toy_documents):
    rows = sweep(toy_model, toy_documents[:2], [0.0, 0.5], [0, 5], beam_size=2)
    assert [(r.bias_weight, r.mask_length) for r in rows] == [
        (0.0, 0),
        (0.0, 5),
        (0.5, 0),
        (0.5, 5),
    ]


def test_sweep_and_evaluate_agree_on_sub_millisecond_times(tmp_path, toy_model, toy_documents):
    # Every news time shifted by 0.4 ms: events are stamped at the
    # millisecond the saved log carries, so the saved log reloads equal to
    # the sweep's in-memory one and scores the same TL.
    name, transcript, reference = next(doc for doc in toy_documents if doc[0] == "news.jsonl")

    def shifted(tokens):
        return tuple(TimedToken(tok.token, tok.time + 0.0004) for tok in tokens)

    transcript = TimedTranscript(shifted(transcript.tokens))
    reference = ReferenceDocument(
        tuple(ReferenceSegment(shifted(seg.source_tokens), seg.reference_text) for seg in reference.segments)
    )
    log = run_simulation(transcript, toy_model, DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=2))
    save_event_log(log, tmp_path / "log.jsonl")
    reloaded = load_event_log(tmp_path / "log.jsonl")
    assert reloaded == log
    [row] = sweep(toy_model, [(name, transcript, reference)], [0.5], [2], beam_size=2)
    assert row.translation_lag == evaluate_all(reloaded, reference).translation_lag


class CountingModel:
    """Serves ``model``'s distributions and counts the searches that asked
    for them: a search over a non-empty source asks for the empty prefix
    exactly once."""

    def __init__(self, model):
        self.model = model
        self.searches = 0

    def next_distribution(self, source, source_complete, prefix):
        if not prefix:
            self.searches += 1
        return self.model.next_distribution(source, source_complete, prefix)


@pytest.mark.parametrize(
    "betas, ks, beam, setting, problem",
    [
        ([0.5], [2, -1], 2, "beta=0.5 k=-1 beam=2", "mask_length must be >= 0, got -1"),
        ([0.5, 1.5], [2], 2, "beta=1.5 k=2 beam=2", "bias_weight must be in [0, 1], got 1.5"),
        ([0.5], [2], 0, "beta=0.5 k=2 beam=0", "beam_size must be >= 1, got 0"),
    ],
)
def test_sweep_rejects_a_bad_setting_before_decoding(toy_model, toy_documents, betas, ks, beam, setting, problem):
    model = CountingModel(toy_model)
    with pytest.raises(ValueError, match=f"^sweep setting {re.escape(setting)}: {re.escape(problem)}$"):
        sweep(model, toy_documents, betas, ks, beam_size=beam)
    assert model.searches == 0


class FailingModel:
    def next_distribution(self, source, source_complete, prefix):
        raise ValueError("no distribution")


def test_sweep_failure_while_decoding_names_beta_and_document(toy_documents):
    with pytest.raises(ValueError, match=r"^sweep failed at beta=0\.5 document=games\.jsonl: no distribution$"):
        sweep(FailingModel(), toy_documents[:1], [0.5], [0, 2], beam_size=1)


_REFERENCE_WORDS = ("X", "Y", "Z.", "W", "a")


@st.composite
def random_corpora(draw):
    """A random table model and 1-3 documents over its words, each with a
    reference cut into segments at random token borders."""
    documents = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        words = draw(st.lists(st.sampled_from(_SOURCE_WORDS), min_size=1, max_size=10))
        clock = 0.0
        tokens = []
        for word in words:
            clock += draw(st.integers(min_value=0, max_value=1500)) / 1000.0
            tokens.append(TimedToken(word, clock))
        cuts = draw(st.lists(st.booleans(), min_size=len(tokens) - 1, max_size=len(tokens) - 1))
        borders = [0, *(at for at, cut in enumerate(cuts, 1) if cut), len(tokens)]
        segments = tuple(
            ReferenceSegment(
                tuple(tokens[start:end]),
                " ".join(draw(st.lists(st.sampled_from(_REFERENCE_WORDS), min_size=1, max_size=4))),
            )
            for start, end in zip(borders, borders[1:])
        )
        documents.append((f"d{index}.jsonl", TimedTranscript(tuple(tokens)), ReferenceDocument(segments)))
    return draw(table_models()), documents


def _sweep_outcome(sweep_fn, model, documents, betas, ks, beam_size, path):
    """The saved rows' bytes, or the failure message up to its mask length."""
    try:
        rows = sweep_fn(model, documents, betas, ks, beam_size)
    except ValueError as exc:
        return str(exc).split(" k=")[0].split(" document=")[0]
    save_sweep_rows(rows, path)
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    random_corpus=random_corpora(),
    toy_picks=st.lists(st.integers(min_value=0, max_value=4), max_size=3, unique=True),
    betas=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=3),
    ks=st.lists(st.sampled_from([0, 1, 2, 50]), min_size=1, max_size=3),
    beam_size=st.integers(min_value=1, max_value=4),
)
def test_sweep_matches_the_per_setting_sweep(
    tmp_path_factory, toy_model, toy_documents, random_corpus, toy_picks, betas, ks, beam_size
):
    # Picked toy documents run under the toy model, whose revisions make the
    # bias target decide what is shown; with no pick the random corpus runs.
    # k = 50 holds back more tokens than any translation in either has, and
    # grids may repeat a value.  Both sweeps fail at the same bias weight or
    # not at all, but may name another first failing k and document in it.
    model, documents = random_corpus
    if toy_picks:
        model, documents = toy_model, [toy_documents[index] for index in toy_picks]
    tmp_path = tmp_path_factory.mktemp("sweep")
    counting = CountingModel(model)
    outcome = _sweep_outcome(sweep, counting, documents, betas, ks, beam_size, tmp_path / "new.csv")
    expected = _sweep_outcome(sweep_oracle.sweep, model, documents, betas, ks, beam_size, tmp_path / "old.csv")
    assert outcome == expected
    if isinstance(outcome, bytes):
        words = sum(len(transcript) for _, transcript, _ in documents)
        assert counting.searches == len(betas) * words


_GRID = ([0.0, 0.25, 0.5, 0.75, 1.0], [0, 1, 2, 3, 4])


def _counting_segmentations(monkeypatch) -> list[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]:
    """Patch the sweep's segmentation to record each call's hypothesis and references."""
    calls = []

    def counting(hyp, refs):
        calls.append((tuple(hyp), tuple(map(tuple, refs))))
        return mwer_segment(hyp, refs)

    monkeypatch.setattr(retrans.metrics, "mwer_segment", counting)
    return calls


def _without_final_period(document):
    """``document`` with the period stripped from its last source word, in
    the transcript and the reference: its last sentence never completes, so
    the mask holds back the end of the final translation."""
    name, transcript, reference = document
    last = transcript.tokens[-1]
    cut = TimedToken(last.token.removesuffix("."), last.time)
    final = reference.segments[-1]
    segments = (*reference.segments[:-1], ReferenceSegment((*final.source_tokens[:-1], cut), final.reference_text))
    return name, TimedTranscript((*transcript.tokens[:-1], cut)), ReferenceDocument(segments)


def test_sweep_segments_each_distinct_final_translation_once(monkeypatch, tmp_path, toy_model, toy_documents):
    # Without its final period the news document ends on another text per
    # k, so a memo keyed by the document alone would score the wrong text.
    news = next(doc for doc in toy_documents if doc[0] == "news.jsonl")
    games = next(doc for doc in toy_documents if doc[0] == "games.jsonl")
    documents = [_without_final_period(news), games]
    betas, ks = _GRID
    finals = {name: set() for name, _, _ in documents}
    for name, transcript, _ in documents:
        for bias_weight in betas:
            for mask_length in ks:
                config = DecoderConfig(beam_size=2, bias_weight=bias_weight, mask_length=mask_length)
                finals[name].add(tuple(tokenize(run_simulation(transcript, toy_model, config).events[-1].output_text)))
    assert len(finals["news.jsonl"]) > 1
    refs = {name: tuple(map(tuple, reference.reference_token_segments())) for name, _, reference in documents}
    calls = _counting_segmentations(monkeypatch)
    save_sweep_rows(sweep(toy_model, documents, betas, ks, beam_size=2), tmp_path / "new.csv")
    assert sorted(calls) == sorted((hyp, refs[name]) for name, hyps in finals.items() for hyp in hyps)
    save_sweep_rows(sweep_oracle.sweep(toy_model, documents, betas, ks, beam_size=2), tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sweep_segments_each_toy_document_at_most_once_per_bias_weight(monkeypatch, toy_model, toy_documents):
    calls = _counting_segmentations(monkeypatch)
    betas, ks = _GRID
    sweep(toy_model, toy_documents, betas, ks, beam_size=2)
    assert 0 < len(calls) <= len(betas) * len(toy_documents)


def test_grid_parsers():
    assert _parse_grid_floats("0,0.5,1") == [0.0, 0.5, 1.0]
    assert _parse_grid_ints("0,2,10") == [0, 2, 10]
    with pytest.raises(ValueError):
        _parse_grid_floats(",")
    with pytest.raises(ValueError):
        _parse_grid_ints("1.5")


# ---------------------------------------------------------------------------
# Command surface


def test_ingest_command(tmp_path, capsys):
    cues = tmp_path / "cues.tsv"
    cues.write_text("0.0\t1.0\tguten tag\n1.0\t2.0\t\n2.0\t2.5\tdanke.\n", encoding="utf-8")
    out = tmp_path / "t.jsonl"
    assert main(["ingest-captions", "--cues", str(cues), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    loaded = load_transcript(out)
    assert [(t.token, t.time) for t in loaded.tokens] == [
        ("guten", 0.0),
        ("tag", 0.5),
        ("danke.", 2.0),
    ]


def test_simulate_command_matches_library_call(tmp_path, toy_model):
    out = tmp_path / "events.jsonl"
    code = main(
        [
            "simulate",
            "--model", str(TOY_DIR / "model.tsv"),
            "--transcript", str(TOY_DIR / "transcripts" / "news.jsonl"),
            "--beta", "0.5",
            "--k", "2",
            "--beam", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    expected = tmp_path / "expected.jsonl"
    config = DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=2)
    save_event_log(
        run_simulation(load_transcript(TOY_DIR / "transcripts" / "news.jsonl"), toy_model, config),
        expected,
    )
    assert out.read_bytes() == expected.read_bytes()


def test_evaluate_command_in_both_correspondence_modes(tmp_path, toy_model, toy_documents):
    name, transcript, reference = toy_documents[0]
    events = tmp_path / "events.jsonl"
    config = DecoderConfig(beam_size=2, mask_length=1)
    save_event_log(run_simulation(transcript, toy_model, config), events)
    for mode in ("segment", "document"):
        out = tmp_path / f"report-{mode}.json"
        code = main(
            [
                "evaluate",
                "--events", str(events),
                "--reference", str(TOY_DIR / "references" / name),
                "--correspondence", mode,
                "--out", str(out),
            ]
        )
        assert code == 0
        expected = tmp_path / f"expected-{mode}.json"
        save_report(evaluate_all(load_event_log(events), reference, mode=mode), expected)
        assert out.read_bytes() == expected.read_bytes()


def test_evaluate_command_rejects_a_log_of_another_document(tmp_path, toy_model, capsys):
    events = tmp_path / "news-events.jsonl"
    transcript = load_transcript(TOY_DIR / "transcripts" / "news.jsonl")
    save_event_log(run_simulation(transcript, toy_model, DecoderConfig(beam_size=2)), events)
    reference = TOY_DIR / "references" / "games.jsonl"
    out = tmp_path / "report.json"
    code = main(["evaluate", "--events", str(events), "--reference", str(reference), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(events) in err and str(reference) in err
    assert not out.exists()


def test_evaluate_command_names_the_file_of_an_empty_log(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text("", encoding="utf-8")
    reference = TOY_DIR / "references" / "news.jsonl"
    out = tmp_path / "report.json"
    code = main(["evaluate", "--events", str(events), "--reference", str(reference), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {events}: the final source (0 tokens) differs from the source of {reference} ("
    )
    assert not out.exists()


def test_sweep_command_rejects_a_transcript_of_another_document(tmp_path, capsys):
    transcripts = tmp_path / "transcripts"
    references = tmp_path / "references"
    transcripts.mkdir()
    references.mkdir()
    shutil.copy(TOY_DIR / "transcripts" / "news.jsonl", transcripts / "x.jsonl")
    shutil.copy(TOY_DIR / "references" / "games.jsonl", references / "x.jsonl")
    out = tmp_path / "grid.csv"
    argv = [
        "sweep",
        "--model", str(TOY_DIR / "model.tsv"),
        "--transcripts", str(transcripts),
        "--references", str(references),
        "--betas", "0",
        "--ks", "0",
        "--beam", "2",
        "--out", str(out),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: document x.jsonl: the transcript (")
    assert "at token 1: 'die' instead of 'das'" in err
    assert not out.exists() and not out.with_suffix(".pareto.csv").exists()


def test_sweep_command_writes_rows_and_pareto_sibling(tmp_path, toy_model, toy_documents):
    transcripts = tmp_path / "transcripts"
    references = tmp_path / "references"
    transcripts.mkdir()
    references.mkdir()
    for name in ("news.jsonl", "market.jsonl"):
        shutil.copy(TOY_DIR / "transcripts" / name, transcripts / name)
        shutil.copy(TOY_DIR / "references" / name, references / name)
    out = tmp_path / "grid.csv"
    code = main(
        [
            "sweep",
            "--model", str(TOY_DIR / "model.tsv"),
            "--transcripts", str(transcripts),
            "--references", str(references),
            "--betas", "0,0.5",
            "--ks", "0,5",
            "--beam", "2",
            "--ne-ceiling", "0.1",
            "--out", str(out),
        ]
    )
    assert code == 0
    documents = [doc for doc in toy_documents if doc[0] in ("market.jsonl", "news.jsonl")]
    documents.sort(key=lambda doc: doc[0])  # the command collects files in sorted order
    expected = sweep(toy_model, documents, [0.0, 0.5], [0, 5], beam_size=2)
    assert read_rows(out) == expected
    pareto = read_rows(out.with_suffix(".pareto.csv"))
    assert pareto == pareto_subset(expected, 0.1)
    assert all(row in expected for row in pareto)


def test_commands_report_errors_on_stderr(tmp_path, capsys):
    assert main(["ingest-captions", "--cues", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")

    assert main(
        [
            "simulate",
            "--model", str(TOY_DIR / "model.tsv"),
            "--transcript", str(TOY_DIR / "transcripts" / "news.jsonl"),
            "--beta", "2.0",
            "--k", "0",
            "--beam", "2",
            "--out", str(tmp_path / "o"),
        ]
    ) == 1
    assert "error:" in capsys.readouterr().err

    assert main(
        [
            "evaluate",
            "--events", str(tmp_path / "missing.jsonl"),
            "--reference", str(TOY_DIR / "references" / "news.jsonl"),
            "--out", str(tmp_path / "o"),
        ]
    ) == 1
    assert "error:" in capsys.readouterr().err

    empty = tmp_path / "empty-dir"
    empty.mkdir()
    assert main(
        [
            "sweep",
            "--model", str(TOY_DIR / "model.tsv"),
            "--transcripts", str(empty),
            "--references", str(empty),
            "--betas", "0",
            "--ks", "0",
            "--beam", "2",
            "--out", str(tmp_path / "o.csv"),
        ]
    ) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_rejects_a_non_finite_delay(tmp_path, capsys):
    out = tmp_path / "events.jsonl"
    code = main(
        [
            "simulate",
            "--model", str(TOY_DIR / "model.tsv"),
            "--transcript", str(TOY_DIR / "transcripts" / "news.jsonl"),
            "--beta", "0",
            "--k", "0",
            "--beam", "2",
            "--delay", "nan",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: delay must be finite and >= 0, got nan\n"
    assert not out.exists()


def _simulate_argv(transcript, out):
    return [
        "simulate",
        "--model", str(TOY_DIR / "model.tsv"),
        "--transcript", str(transcript),
        "--beta", "0.5",
        "--k", "1",
        "--beam", "2",
        "--out", str(out),
    ]


def test_simulate_rejects_a_lone_surrogate_before_writing(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text('{"w": "die", "time": 0.0}\n{"w": "a\\ud800", "time": 0.5}\n', encoding="utf-8")
    out = tmp_path / "events.jsonl"
    assert main(_simulate_argv(transcript, out)) == 1
    assert capsys.readouterr().err == f"error: {transcript}: line 2: \"w\" holds the lone surrogate '\\ud800'\n"
    assert not out.exists()


def test_simulate_keeps_an_escaped_surrogate_pair(tmp_path):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(
        '{"w": "die", "time": 0.0}\n{"w": "\\ud83d\\ude00.", "time": 0.5}\n{"w": "bank", "time": 1.0}\n',
        encoding="utf-8",
    )
    out, again = tmp_path / "events.jsonl", tmp_path / "again.jsonl"
    assert main(_simulate_argv(transcript, out)) == 0
    log = load_event_log(out)
    assert log.events[-1].source_text == "die \U0001f600. bank"
    assert "\U0001f600" in log.events[-1].output_text
    save_event_log(log, again)
    eventlog_oracle.save_event_log(log, tmp_path / "oracle.jsonl")
    assert again.read_bytes() == out.read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


@pytest.mark.parametrize("ceiling", ["nan", "-0.1", "abc"])
def test_sweep_rejects_a_bad_ne_ceiling_before_running(tmp_path, capsys, ceiling):
    out = tmp_path / "grid.csv"
    argv = [
        "sweep",
        "--model", str(TOY_DIR / "model.tsv"),
        "--transcripts", str(TOY_DIR / "transcripts"),
        "--references", str(TOY_DIR / "references"),
        "--betas", "0",
        "--ks", "0",
        "--beam", "2",
        "--ne-ceiling", ceiling,
        "--out", str(out),
    ]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--ne-ceiling" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".pareto.csv").exists()


def test_ne_ceiling_parser():
    assert _parse_ne_ceiling("0") == 0.0
    assert _parse_ne_ceiling("0.25") == 0.25
    assert _parse_ne_ceiling("inf") == math.inf
    for bad in ("nan", "-inf", "-1e-9"):
        with pytest.raises(argparse.ArgumentTypeError, match="expected a number >= 0"):
            _parse_ne_ceiling(bad)


def test_usage_errors_exit_with_argparse_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--beam", "two"])
    assert excinfo.value.code == 2
