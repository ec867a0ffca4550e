"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -q -s`` to see the lines.  The
oracles here are independent of the library code: brute-force segmentation,
an exact-rational BLEU scorer, a plain beam search, and exhaustive
enumeration of biased scores.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from retrans import (
    DecoderConfig,
    Event,
    EventLog,
    ReferenceDocument,
    ReferenceSegment,
    TimedToken,
    evaluate_all,
    main,
    pareto_subset,
    run_simulation,
    save_sweep_rows,
    sweep,
    tokenize,
)
from retrans.align import mwer_segment
from retrans.decoder import biased_beam_search, mask_tail
from retrans.metrics import bleu_corpus, erasure, finalization, normalized_erasure
from retrans.pipeline import SessionState, split_sentences, step

from conftest import TOY_DIR, build_log
from test_align import brute_force_segment
from test_cli import read_rows
from test_decoder import (
    enumerate_biased_best,
    plain_beam_search,
    random_source,
    random_table_model,
)
from test_metrics import BLEU_HYPS, BLEU_REFS


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


# ---------------------------------------------------------------------------
# 1. Worked example: erasure, normalized erasure, finalization times


def test_worked_example_session_metrics():
    with criterion(1, "worked-example session: E = [0, 0, 3], NE = 0.5, finalization times"):
        log = build_log(
            (2.0, "Neue Arzneimittel könnten", "New Medicines"),
            (3.5, "Neue Arzneimittel könnten Eierstockkrebs", "New Medicines may be ovarian cancer"),
            (4.2, "Neue Arzneimittel könnten Eierstockkrebs verlangsamen", "New Medicines may slow ovarian cancer"),
        )
        assert erasure(log) == [0, 0, 3]
        assert normalized_erasure(log) == 0.5
        assert [log.events[i - 1].time for i in finalization(log)] == [2.0, 2.0, 3.5, 4.2, 4.2, 4.2]


# ---------------------------------------------------------------------------
# 2. Segmentation vs exhaustive brute force


def test_segmentation_matches_brute_force():
    with criterion(2, "segmentation equals brute force on 220 random instances"):
        rng = random.Random(515151)
        alphabet = ["a", "b", "c", "d"]
        mismatches = 0
        for _ in range(220):
            hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
            refs = [
                [rng.choice(alphabet) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(2, 3))
            ]
            if mwer_segment(hyp, refs) != brute_force_segment(hyp, refs):
                mismatches += 1
        assert mismatches == 0


# ---------------------------------------------------------------------------
# 3. BLEU vs an independent exact-rational scorer


def independent_bleu(hypotheses, references) -> float:
    """Clipped n-gram precision via first-fit matching over exact rationals;
    structurally unrelated to the library's Counter-based path."""
    precisions = []
    for n in range(1, 5):
        matched, total = 0, 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            used = [False] * len(ref_grams)
            for gram in hyp_grams:
                for j, candidate in enumerate(ref_grams):
                    if not used[j] and candidate == gram:
                        used[j] = True
                        matched += 1
                        break
            total += len(hyp_grams)
        if total == 0 or matched == 0:
            return 0.0
        precisions.append(Fraction(matched, total))
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    geometric = math.exp(math.fsum(math.log(float(p)) for p in precisions) / 4.0)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * geometric


def test_bleu_matches_independent_scorer():
    with criterion(3, "BLEU within 0.01 of an independent scorer; identity 100.0; empty 0.0"):
        ours = bleu_corpus(BLEU_HYPS, BLEU_REFS)
        assert abs(ours - independent_bleu(BLEU_HYPS, BLEU_REFS)) <= 0.01
        assert abs(ours - 75.14840201763711) <= 1e-9
        assert bleu_corpus(BLEU_REFS, BLEU_REFS) == 100.0
        assert bleu_corpus([[] for _ in BLEU_REFS], BLEU_REFS) == 0.0


# ---------------------------------------------------------------------------
# 4. Search vs plain beam search, forced-prefix rule, exhaustive enumeration


def test_beam_search_against_oracles():
    with criterion(4, "search matches plain/full-bias/exhaustive oracles on random models"):
        rng = random.Random(60601)
        for _ in range(120):
            model = random_table_model(rng)
            source = random_source(rng, rng.randint(0, 4))
            complete = rng.random() < 0.5
            beam_size = rng.randint(1, 5)
            ours = biased_beam_search(model, source, complete, DecoderConfig(beam_size=beam_size))
            assert ours == plain_beam_search(model, source, complete, beam_size)
        for _ in range(120):
            model = random_table_model(rng)
            source = random_source(rng, rng.randint(1, 4))
            previous = tuple(f"t{rng.randint(0, 3)}" for _ in range(rng.randint(0, len(source))))
            config = DecoderConfig(
                beam_size=rng.randint(1, 4), bias_weight=1.0, previous_translation=previous
            )
            result = biased_beam_search(model, source, rng.random() < 0.5, config)
            assert result[: len(previous)] == previous
        for _ in range(120):
            model = random_table_model(rng)
            source = random_source(rng, 2)
            complete = rng.random() < 0.5
            weight = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
            previous = tuple(f"t{rng.randint(0, 3)}" for _ in range(rng.randint(0, 3)))
            config = DecoderConfig(
                beam_size=10_000, bias_weight=weight, previous_translation=previous
            )
            best_tokens, _, _ = enumerate_biased_best(model, source, complete, previous, weight)
            assert biased_beam_search(model, source, complete, config) == best_tokens


# ---------------------------------------------------------------------------
# 5. Masking contract over the bundled fixtures


def test_mask_contract_on_fixtures(toy_model, toy_documents):
    with criterion(5, "mask keeps a max(0, n - k) prefix while incomplete, all tokens once complete"):
        config = DecoderConfig(beam_size=2)
        for _, transcript, _ in toy_documents:
            words = [tok.token for tok in transcript.tokens]
            sentences, _ = split_sentences(words)
            for sentence in sentences:
                for cut in range(1, len(sentence) + 1):
                    _, complete = split_sentences(sentence[:cut])
                    translated = biased_beam_search(toy_model, sentence[:cut], complete, config)
                    for k in (0, 1, 2, 3, 5, 10):
                        if complete:
                            # the sentence is frozen unmasked, whatever k is
                            fed = [TimedToken(word, 0.0) for word in sentence]
                            _, event = step(SessionState(), fed, toy_model, DecoderConfig(beam_size=2, mask_length=k))
                            assert tuple(event.output_text.split()) == translated
                        else:
                            keep = max(0, len(translated) - k)
                            assert mask_tail(translated, k) == translated[:keep]


# ---------------------------------------------------------------------------
# 6. Stability over the toy corpus


def _frozen_display(state: SessionState) -> tuple[str, ...]:
    return tuple(tokenize(state.frozen_text))


def test_corpus_stability_properties(toy_model, toy_documents):
    with criterion(6, "frozen text never changes; deep mask gives NE = 0; bias+mask beats baseline NE"):
        total_sentences = sum(
            len(split_sentences([tok.token for tok in transcript.tokens])[0])
            for _, transcript, _ in toy_documents
        )
        assert len(toy_documents) >= 5 and total_sentences >= 20

        # (a) once frozen, a sentence's translation persists through every
        # later event, both in state and on the display
        for config in (DecoderConfig(beam_size=2), DecoderConfig(beam_size=2, bias_weight=0.5, mask_length=5)):
            for _, transcript, _ in toy_documents:
                state = SessionState()
                for token in transcript.tokens:
                    previous_frozen = state.frozen_text
                    state, event = step(state, [token], toy_model, config)
                    assert state.frozen_text[: len(previous_frozen)] == previous_frozen
                    shown = event.output_text.split()
                    frozen_part = _frozen_display(state)
                    assert tuple(shown[: len(frozen_part)]) == frozen_part

        # (b) masking deeper than the longest target sentence removes all flicker
        longest = 0
        deep = DecoderConfig(beam_size=2, mask_length=10)
        for _, transcript, _ in toy_documents:
            log = run_simulation(transcript, toy_model, deep)
            state = SessionState()
            for token in transcript.tokens:
                frozen_before = len(state.frozen_text)
                state, _ = step(state, [token], toy_model, deep)
                # one fed word closes at most one sentence: what it froze is that sentence's translation
                longest = max(longest, len(tokenize(state.frozen_text[frozen_before:])))
            assert normalized_erasure(log) == 0.0
        assert deep.mask_length >= longest

        # (c) direction of effect: bias 0.5 with mask 5 strictly reduces
        # corpus-level erasure against the unbiased unmasked baseline
        baseline = sweep(toy_model, toy_documents, [0.0], [0], beam_size=2)[0]
        treated = sweep(toy_model, toy_documents, [0.5], [5], beam_size=2)[0]
        assert treated.normalized_erasure < baseline.normalized_erasure


# ---------------------------------------------------------------------------
# 7. Hand-computed lag oracle


def test_lag_hand_oracle():
    with criterion(7, "single-event lag oracle gives 2.0, and 3.5 after delaying the event by 1.5"):
        document = ReferenceDocument(
            (
                ReferenceSegment(
                    (TimedToken("s0", 1.0), TimedToken("s1", 2.0), TimedToken("s2", 3.0)),
                    "x y z",
                ),
            )
        )
        log = EventLog((Event(4.0, "s0 s1 s2", "x y z"),))
        assert evaluate_all(log, document).translation_lag == 2.0
        delayed = EventLog((Event(5.5, "s0 s1 s2", "x y z"),))
        assert evaluate_all(delayed, document).translation_lag == 3.5


# ---------------------------------------------------------------------------
# 8. Sweep integrity


def test_sweep_integrity(tmp_path, toy_model, toy_documents):
    with criterion(8, "singleton sweep is bit-exact; Pareto subset passes brute force; CSV round-trips"):
        name, transcript, reference = toy_documents[0]
        for bias_weight, mask_length in ((0.0, 0), (0.5, 2)):
            row = sweep(toy_model, [(name, transcript, reference)], [bias_weight], [mask_length], beam_size=2)[0]
            config = DecoderConfig(beam_size=2, bias_weight=bias_weight, mask_length=mask_length)
            report = evaluate_all(run_simulation(transcript, toy_model, config), reference)
            assert row.bleu == report.bleu
            assert row.translation_lag == report.translation_lag
            assert row.normalized_erasure == report.normalized_erasure

        rows = sweep(toy_model, toy_documents, [0.0, 0.5], [0, 5], beam_size=2)
        front = pareto_subset(rows)
        for row in rows:
            dominated = any(
                other.bleu >= row.bleu
                and other.translation_lag <= row.translation_lag
                and (other.bleu > row.bleu or other.translation_lag < row.translation_lag)
                for other in rows
            )
            assert (row in front) == (not dominated)

        path = tmp_path / "rows.csv"
        save_sweep_rows(rows, path)
        assert read_rows(path) == rows


# ---------------------------------------------------------------------------
# 9. Byte-identical reruns of every command


def test_command_determinism(tmp_path):
    with criterion(9, "each command run twice produces byte-identical outputs"):
        cues = tmp_path / "cues.tsv"
        cues.write_text("0.0\t2.0\tguten morgen\n2.0\t3.0\tdanke.\n", encoding="utf-8")

        def run_twice(template):
            outputs = []
            for attempt in ("one", "two"):
                directory = tmp_path / attempt
                directory.mkdir(exist_ok=True)
                out = directory / template[-1]
                assert main(template[:-1] + [str(out)]) == 0
                outputs.append(out)
            return outputs

        first, second = run_twice(["ingest-captions", "--cues", str(cues), "--out", "t.jsonl"])
        assert first.read_bytes() == second.read_bytes()

        first, second = run_twice(
            [
                "simulate",
                "--model", str(TOY_DIR / "model.tsv"),
                "--transcript", str(TOY_DIR / "transcripts" / "news.jsonl"),
                "--beta", "0.5",
                "--k", "2",
                "--beam", "2",
                "--out", "events.jsonl",
            ]
        )
        assert first.read_bytes() == second.read_bytes()
        events_path = first

        first, second = run_twice(
            [
                "evaluate",
                "--events", str(events_path),
                "--reference", str(TOY_DIR / "references" / "news.jsonl"),
                "--out", "report.json",
            ]
        )
        assert first.read_bytes() == second.read_bytes()

        first, second = run_twice(
            [
                "sweep",
                "--model", str(TOY_DIR / "model.tsv"),
                "--transcripts", str(TOY_DIR / "transcripts"),
                "--references", str(TOY_DIR / "references"),
                "--betas", "0,0.5",
                "--ks", "0,5",
                "--beam", "2",
                "--out", "rows.csv",
            ]
        )
        assert first.read_bytes() == second.read_bytes()
        assert (
            first.with_suffix(".pareto.csv").read_bytes()
            == second.with_suffix(".pareto.csv").read_bytes()
        )
