"""Session-level evaluation on three axes: quality, latency and stability.

Quality is corpus BLEU, pooled from per-segment n-gram statistics, computed
after re-segmenting the session's final translation against the reference
segments (the session translates an unsegmented stream, so its output has
no segment borders of its own).
Latency is translation lag: for each token of the final translation, the
time it stopped changing minus the time its corresponding source words were
spoken.  Stability is normalized erasure: how many displayed tokens were
retracted per token of final output.

All three read the same :class:`~retrans.eventlog.EventLog`; quality and
latency additionally need a :class:`ReferenceDocument` carrying the timed
source transcript and the reference translation, segment by segment.

Erasure and finalization come from one pass over the displays
(:class:`DisplayFold`), each compared only with the one before it, so the
final display need not be known first.  The final translation is segmented
once (:class:`Scorer`), and that one segmentation serves both BLEU and the
source positions that lag reads.  A :class:`Tally` turns folded sessions
and their scorers into the three numbers: :func:`evaluate_all` is a tally
of one session, and :func:`retrans.grid.sweep` keeps one per mask length,
pooled over its documents.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .align import lcp_len, mwer_segment, split_by_boundaries
from .eventlog import EventLog, TimedToken, jsonl_records, parse_timed_token, replacing_file, tokenize


@dataclass(frozen=True, slots=True)
class ReferenceSegment:
    """One reference sentence: its timed source tokens and its translation."""

    source_tokens: tuple[TimedToken, ...]
    reference_text: str

    def __post_init__(self) -> None:
        if not self.source_tokens:
            raise ValueError("a reference segment needs at least one source token")
        if not tokenize(self.reference_text):
            raise ValueError("a reference segment needs a non-empty reference text")


@dataclass(frozen=True, slots=True)
class ReferenceDocument:
    """A document's reference: parallel source and target segments.

    Source token times must be non-decreasing across the whole document,
    not just within each segment.
    """

    segments: tuple[ReferenceSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a reference document needs at least one segment")
        times = [tok.time for seg in self.segments for tok in seg.source_tokens]
        for prev, cur in zip(times, times[1:]):
            if cur < prev:
                raise ValueError("source token times must be non-decreasing")

    def source_times(self) -> list[float]:
        return [tok.time for seg in self.segments for tok in seg.source_tokens]

    def reference_token_segments(self) -> list[list[str]]:
        return [tokenize(seg.reference_text) for seg in self.segments]


def check_source(words: list[str], what: str, reference: ReferenceDocument, of: str) -> None:
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


def load_reference_document(path: str | Path) -> ReferenceDocument:
    segments: list[ReferenceSegment] = []
    last_time = 0.0
    for lineno, record in jsonl_records(path, "src", "ref"):
        if not isinstance(record["src"], list) or not isinstance(record["ref"], str):
            raise ValueError(f'{path}: line {lineno}: "src" must be a list and "ref" a string')
        tokens = []
        for item in record["src"]:
            if not isinstance(item, dict) or set(item) != {"w", "time"}:
                raise ValueError(f'{path}: line {lineno}: source entries need exactly the keys "w", "time"')
            token = parse_timed_token(item, path, lineno)
            if token.time < last_time:
                raise ValueError(f"{path}: line {lineno}: source token times must be non-decreasing")
            last_time = token.time
            tokens.append(token)
        try:
            segments.append(ReferenceSegment(tuple(tokens), record["ref"]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    try:
        return ReferenceDocument(tuple(segments))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Stability


def _shared_cut(a: str, b: str) -> int:
    """An offset ``k`` with ``a[:k] == b[:k]`` at which both strings have a
    token border, so ``tokenize(x) == tokenize(x[:k]) + tokenize(x[k:])``
    for either: the end of ``a`` when ``b`` goes on from it with a space or
    not at all, else the last space both share, else 0."""
    if a == b or b.startswith(a + " "):
        return len(a)
    common = bisect_left(range(1, len(a) + 1), True, key=lambda m: not b.startswith(a[:m]))
    return max(a.rfind(" ", 0, common), 0)


class DisplayFold:
    """Erasure and finalization folded one display at a time: ``erased``
    holds the tokens each display retracted from the one before it (or from
    an empty one), and ``changed``, per token of the latest display, the
    1-based index of the display at which the prefix through that token
    last changed.  Only the two tails past :func:`_shared_cut` are tokenized."""

    __slots__ = ("display", "erased", "changed")

    def __init__(self, displays: Iterable[str] = ()) -> None:
        self.display = ""
        self.erased: list[int] = []
        self.changed: list[int] = []
        for text in displays:
            self.add(text)

    def add(self, text: str) -> None:
        cut = _shared_cut(self.display, text)
        new = tokenize(text[cut:])
        kept = erased = 0
        if cut < len(self.display):  # else the previous display ends at the cut and loses nothing
            old = tokenize(self.display[cut:])
            kept = lcp_len(new, old)
            erased = len(old) - kept
            del self.changed[len(self.changed) - erased:]
        self.erased.append(erased)
        self.changed += [len(self.erased)] * (len(new) - kept)
        self.display = text


def erasure(log: EventLog) -> list[int]:
    """Tokens retracted at each event: the length of the previous display
    minus the common prefix kept by the new one.  The first event is
    compared against an empty display, so its erasure is always zero.
    Only the text past the two displays' shared prefix is tokenized."""
    return DisplayFold(event.output_text for event in log).erased


def normalized_erasure(log: EventLog) -> float:
    """Total erasure per token of final output."""
    if not log.events:
        raise ValueError("normalized erasure needs at least one event")
    final_len = len(tokenize(log.events[-1].output_text))
    if final_len == 0:
        raise ValueError("normalized erasure is undefined for an empty final translation")
    return sum(erasure(log)) / final_len


# ---------------------------------------------------------------------------
# Latency


def finalization(log: EventLog) -> tuple[int, ...]:
    """For each token of the final translation, by position, the 1-based
    index of the earliest event from which it was present and never
    changed again.  Its finalization time is that event's time.

    A token counts as changed while it is absent, so a token that flickers
    out and back in is finalized only by its last reappearance.  Each
    display is compared only with the one before it (:class:`DisplayFold`),
    so the final display need not be known first.
    """
    if not log.events:
        raise ValueError("finalization needs at least one event")
    return tuple(DisplayFold(event.output_text for event in log).changed)


def correspondence(log: EventLog, doc: ReferenceDocument, mode: str = "segment") -> tuple[float, ...]:
    """For each token of the final translation, by position, the (possibly
    fractional) 0-based source position it corresponds to, counted across
    the whole document.

    In the default "segment" mode the final translation is first split
    against the reference segments (same segmentation that scoring uses);
    a token at offset ``d`` inside an output segment of length ``n`` points
    at offset ``d * source_len / n`` inside the paired source segment,
    clamped to that segment.

    Mode "document" is a diagnostic alternative that skips segmentation and
    scales positions document-wide: token ``j`` of the final output points
    at ``j * |final source| / |final output|``.  It is kept for comparison
    only; positions are clamped to the timed source range.
    """
    if not log.events:
        raise ValueError("correspondence needs at least one event")
    final = log.events[-1]
    if mode == "segment":
        return Scorer(doc).final(final.output_text)[1]
    if mode != "document":
        raise ValueError(f'correspondence mode must be "segment" or "document", got {mode!r}')
    hyp = tokenize(final.output_text)
    source_len = len(tokenize(final.source_text))
    if hyp and source_len == 0:
        raise ValueError("document mode needs a non-empty final source")
    last = float(min(source_len, len(doc.source_times())) - 1)
    return tuple(min(max(j * source_len / len(hyp), 0.0), last) for j in range(len(hyp)))


def spoken_times(positions: Sequence[float], times: Sequence[float]) -> list[float]:
    """The spoken time of each source position: a fractional one (clamped,
    so it has a right neighbour in its segment) interpolates linearly
    between its two neighbouring source token ``times``."""
    spoken = []
    for position in positions:
        base = int(math.floor(position))
        frac = position - base
        spoken.append(times[base] if frac == 0.0 else times[base] * (1.0 - frac) + times[base + 1] * frac)
    return spoken


def token_lags(log: EventLog, doc: ReferenceDocument, mode: str = "segment") -> list[float]:
    """Per-token lag: finalization time minus the spoken time of the
    corresponding source position.

    Fractional source positions take the linear interpolation of the two
    neighbouring token times.  Lags may be negative when the display
    commits to a token before its source words are fully spoken.
    """
    return list(evaluate_all(log, doc, mode).per_token_lag)


def lags_at(changed: Sequence[int], event_times: Sequence[float], spoken: Sequence[float]) -> list[float]:
    """:func:`token_lags` from a :class:`DisplayFold`'s ``changed`` indices
    into ``event_times``, and the final tokens' :func:`spoken_times`."""
    if not changed:
        raise ValueError("lag is undefined for an empty final translation")
    return [event_times[index - 1] - time for index, time in zip(changed, spoken)]


# ---------------------------------------------------------------------------
# Quality


def ngram_counts(tokens: Sequence[str]) -> Counter:
    """The counts of the n-grams of ``tokens`` for n = 1..4, keyed by the n-gram as a tuple."""
    return Counter(tuple(tokens[i:i + n]) for n in range(1, 5) for i in range(len(tokens) - n + 1))


def bleu_statistics(hypotheses: Sequence[Sequence[str]], reference_counts: Sequence[Counter]) -> list[int]:
    """Clipped n-gram matches for n = 1..4, then possible n-gram counts,
    summed over parallel segments.  A reference comes as its
    :func:`ngram_counts`, so it is counted only once."""
    if len(hypotheses) != len(reference_counts):
        raise ValueError("hypothesis and reference segment counts differ")
    statistics = [0] * 8
    for hyp, ref_counts in zip(hypotheses, reference_counts):
        for gram, count in ngram_counts(hyp).items():
            statistics[len(gram) - 1] += min(count, ref_counts[gram])
        for n in range(min(len(hyp), 4)):
            statistics[4 + n] += len(hyp) - n
    return statistics


def bleu_score(statistics: Sequence[int], ref_len: int) -> float:
    """Corpus BLEU, as a percentage, from :func:`bleu_statistics` summed over
    a corpus whose references hold ``ref_len`` tokens.  Its hypotheses hold
    as many tokens as there are possible unigrams."""
    if ref_len == 0:
        raise ValueError("BLEU is undefined for an empty reference corpus")
    if 0 in statistics:
        return 0.0
    hyp_len = statistics[4]
    log_precision = math.fsum(math.log(m / p) for m, p in zip(statistics[:4], statistics[4:])) / 4.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def bleu_corpus(hypotheses: Sequence[Sequence[str]], references: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU over parallel token segments, as a percentage.

    Case-sensitive, n-grams up to 4, modified (clipped) precisions pooled
    over the corpus, geometric mean, multiplicative brevity penalty.  No
    smoothing: if any n-gram order has zero matches the score is 0.0, which
    also covers empty hypotheses.  A reference corpus with no tokens at all
    raises ``ValueError``.  The score is pooled from per-segment statistics:
    :func:`bleu_statistics`, then :func:`bleu_score`.
    """
    statistics = bleu_statistics(hypotheses, [ngram_counts(ref) for ref in references])
    return bleu_score(statistics, sum(len(ref) for ref in references))


def evaluate_quality(log: EventLog, doc: ReferenceDocument) -> float:
    """BLEU of the final translation against the reference, after splitting
    the translation to minimize total edit distance to the reference
    segments."""
    if not log.events:
        raise ValueError("quality needs at least one event")
    scorer = Scorer(doc)
    return bleu_score(scorer.final(log.events[-1].output_text)[0], scorer.ref_len)


# ---------------------------------------------------------------------------
# Combined report


class Scorer:
    """Scores final translations against one reference document.  The
    reference is prepared once; each distinct final text is segmented
    against its segments once, and that one segmentation gives both the
    text's BLEU statistics and its tokens' source positions for lag."""

    def __init__(self, reference: ReferenceDocument) -> None:
        self.refs = reference.reference_token_segments()
        self.ref_counts = [ngram_counts(ref) for ref in self.refs]
        self.ref_len = sum(len(ref) for ref in self.refs)
        self.source_lens = [len(segment.source_tokens) for segment in reference.segments]
        self.times = reference.source_times()
        self.finals: dict[str, tuple[list[int], tuple[float, ...], list[float]]] = {}

    def final(self, text: str) -> tuple[list[int], tuple[float, ...], list[float]]:
        """The :func:`bleu_statistics` of a final translation, and per token
        its segment-mode :func:`correspondence` and its :func:`spoken_times`."""
        if text not in self.finals:
            hyp = tokenize(text)
            pieces = split_by_boundaries(hyp, mwer_segment(hyp, self.refs).boundaries)
            positions = []
            source_start = 0
            for piece, src_len in zip(pieces, self.source_lens):
                for offset in range(len(piece)):
                    position = offset * src_len / len(piece) + source_start
                    positions.append(min(max(position, float(source_start)), float(source_start + src_len - 1)))
                source_start += src_len
            statistics = bleu_statistics(pieces, self.ref_counts)
            self.finals[text] = (statistics, tuple(positions), spoken_times(positions, self.times))
        return self.finals[text]


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """All three session metrics plus their per-token/per-event breakdowns."""

    bleu: float
    translation_lag: float
    normalized_erasure: float
    per_event_erasure: tuple[int, ...]
    per_token_lag: tuple[float, ...]


class Tally:
    """BLEU, TL and NE pooled over the sessions added so far, in order:
    BLEU from the summed integer statistics against all their references,
    TL as the mean of all their final tokens' lags, and NE as all their
    erased tokens per final token.  One session's tally is its report."""

    __slots__ = ("statistics", "ref_len", "lags", "erased")

    def __init__(self) -> None:
        self.statistics = [0] * 8
        self.ref_len = 0
        self.lags: list[float] = []
        self.erased: list[int] = []

    def add(
        self,
        fold: DisplayFold,
        event_times: Sequence[float],
        scorer: Scorer,
        spoken: Sequence[float] | None = None,
    ) -> None:
        """Add one session: its displays folded, the time of each of its
        events, and the scorer of its reference.  Its final display is
        scored through ``scorer``, whose segmentation also places the lags,
        unless ``spoken`` gives each final token's spoken time instead."""
        statistics, _, segment_spoken = scorer.final(fold.display)
        lags = lags_at(fold.changed, event_times, segment_spoken if spoken is None else spoken)
        self.statistics = [pooled + more for pooled, more in zip(self.statistics, statistics)]
        self.ref_len += scorer.ref_len
        self.lags += lags
        self.erased += fold.erased

    def report(self) -> MetricsReport:
        return MetricsReport(
            bleu=bleu_score(self.statistics, self.ref_len),
            translation_lag=math.fsum(self.lags) / len(self.lags),
            normalized_erasure=sum(self.erased) / len(self.lags),  # one lag per final token
            per_event_erasure=tuple(self.erased),
            per_token_lag=tuple(self.lags),
        )


def evaluate_all(log: EventLog, doc: ReferenceDocument, mode: str = "segment") -> MetricsReport:
    """Evaluate one session end to end, as a :class:`Tally` of one: its
    displays are folded once for lag and erasure, and its final translation
    is segmented once for BLEU and for the lag's source positions
    (:class:`Scorer`); "document" mode takes those positions from
    :func:`correspondence` instead."""
    if not log.events:
        raise ValueError("lag needs at least one event")
    scorer = Scorer(doc)
    spoken = None if mode == "segment" else spoken_times(correspondence(log, doc, mode=mode), scorer.times)
    tally = Tally()
    tally.add(DisplayFold(event.output_text for event in log), [event.time for event in log], scorer, spoken)
    return tally.report()


def save_report(report: MetricsReport, path: str | Path) -> None:
    """Write a report as a single JSON object with keys "bleu", "tl", "ne",
    "erasure" and "lags".  A failed save leaves ``path`` as it was."""
    payload = {
        "bleu": report.bleu,
        "tl": report.translation_lag,
        "ne": report.normalized_erasure,
        "erasure": list(report.per_event_erasure),
        "lags": list(report.per_token_lag),
    }
    with replacing_file(path) as handle:
        handle.write(json.dumps(payload, ensure_ascii=False) + "\n")
