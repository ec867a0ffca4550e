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
source positions that lag reads; a scorer exists only for a session over
its reference's source.  A :class:`Tally` turns folded sessions and their
scorers into the three numbers: :func:`evaluate_all` is a tally of one
session, and :func:`retrans.grid.sweep` keeps one per mask length, pooled
over its documents.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

from .align import lcp_len, mwer_segment, split_by_boundaries
from .eventlog import EventLog, TimedToken, json_object, parse_timed_token, read_lines
from .eventlog import replacing_file, tokenize


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
        times = self.source_times()
        for prev, cur in zip(times, times[1:]):
            if cur < prev:
                raise ValueError("source token times must be non-decreasing")

    def source_times(self) -> list[float]:
        return [tok.time for seg in self.segments for tok in seg.source_tokens]

    def reference_token_segments(self) -> list[list[str]]:
        return [tokenize(seg.reference_text) for seg in self.segments]


def load_reference_document(path: str | Path) -> ReferenceDocument:
    segments: list[ReferenceSegment] = []
    last_time = 0.0

    def read_line(line: str) -> None:
        nonlocal last_time
        record = json_object(line, "src", "ref")
        if not isinstance(record["src"], list) or not isinstance(record["ref"], str):
            raise ValueError('"src" must be a list and "ref" a string')
        tokens = []
        for item in record["src"]:
            if not isinstance(item, dict) or set(item) != {"w", "time"}:
                raise ValueError('source entries need exactly the keys "w", "time"')
            token = parse_timed_token(item)
            if token.time < last_time:
                raise ValueError("source token times must be non-decreasing")
            last_time = token.time
            tokens.append(token)
        segments.append(ReferenceSegment(tuple(tokens), record["ref"]))

    read_lines(path, read_line)
    try:
        return ReferenceDocument(tuple(segments))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Stability


class DisplayFold:
    """Erasure and finalization folded one display at a time: ``erased``
    holds the tokens each display retracted from the one before it (or from
    an empty one), and ``changed``, per token of the latest display, the
    1-based index of the display at which the prefix through that token
    last changed.  :meth:`add` folds a display's text, tokenizing only the
    two tails past a token border both displays share, and keeps it in
    ``display``; :meth:`count` folds a change given as token counts, for a
    caller that knows them, and leaves ``display`` for it to set."""

    __slots__ = ("display", "erased", "changed")

    def __init__(self) -> None:
        self.display = ""
        self.erased: list[int] = []
        self.changed: list[int] = []

    def add(self, text: str, common: int) -> None:
        """Fold in the display ``text``, whose first ``common`` characters
        are the latest display's: the more they share, the less is tokenized."""
        # A cut where both texts have a token border, so that tokenize(x) ==
        # tokenize(x[:cut]) + tokenize(x[cut:]) for either: the end of the
        # latest display when text goes on from it with a space or not at
        # all, else the last space both share, else 0.
        if common == len(self.display) and text[common:common + 1] in ("", " "):
            cut = common
        else:
            cut = max(self.display.rfind(" ", 0, common), 0)
        new = tokenize(text[cut:])
        kept = erased = 0
        if cut < len(self.display):  # else the previous display ends at the cut and loses nothing
            old = tokenize(self.display[cut:])
            kept = lcp_len(new, old)
            erased = len(old) - kept
        self.count(erased, len(new) - kept)
        self.display = text

    def count(self, erased: int, added: int) -> None:
        """Fold in a display that keeps all but the last ``erased`` tokens
        of the latest one and shows ``added`` tokens after them."""
        if erased:
            del self.changed[-erased:]
        self.erased.append(erased)
        if added:
            self.changed += [len(self.erased)] * added


def _fold(log: EventLog) -> DisplayFold:
    """The displays of ``log`` folded one at a time, each rebuilt from what it changes."""
    fold = DisplayFold()
    for _, _, _, output_cut, output_tail in log.changes():
        fold.add(fold.display[:output_cut] + output_tail, output_cut)
    return fold


def erasure(log: EventLog) -> list[int]:
    """Tokens retracted at each event: the length of the previous display
    minus the common prefix kept by the new one.  The first event is
    compared against an empty display, so its erasure is always zero.
    Only the text past the two displays' shared prefix is tokenized."""
    return _fold(log).erased


def normalized_erasure(log: EventLog) -> float:
    """Total erasure per token of final output."""
    if not log:
        raise ValueError("normalized erasure needs at least one event")
    fold = _fold(log)
    if not fold.changed:  # one entry per final token
        raise ValueError("normalized erasure is undefined for an empty final translation")
    return sum(fold.erased) / len(fold.changed)


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
    if not log:
        raise ValueError("finalization needs at least one event")
    return tuple(_fold(log).changed)


def correspondence(log: EventLog, doc: ReferenceDocument) -> tuple[float, ...]:
    """For each token of the final translation, by position, the (possibly
    fractional) 0-based source position it corresponds to, counted across
    the whole document.

    The final translation is first split against the reference segments
    (the same segmentation that scoring uses); a token at offset ``d``
    inside an output segment of length ``n`` points at offset
    ``d * source_len / n`` inside the paired source segment, clamped to
    that segment.
    """
    if not log:
        raise ValueError("correspondence needs at least one event")
    return Scorer(doc, tokenize(log[-1].source_text)).final(log[-1].output_text)[1]


def token_lags(log: EventLog, doc: ReferenceDocument) -> list[float]:
    """Per-token lag: finalization time minus the spoken time of the
    corresponding source position.

    Fractional source positions take the linear interpolation of the two
    neighbouring token times.  Lags may be negative when the display
    commits to a token before its source words are fully spoken.
    """
    return list(evaluate_all(log, doc).per_token_lag)


# ---------------------------------------------------------------------------
# Quality


def ngram_counts(tokens: Sequence[str]) -> Counter:
    """The counts of the n-grams of ``tokens`` for n = 1..4, keyed by the n-gram as a tuple."""
    second, third, fourth = tokens[1:], tokens[2:], tokens[3:]
    return Counter(chain(zip(tokens), zip(tokens, second), zip(tokens, second, third), zip(tokens, second, third, fourth)))


def bleu_statistics(hypotheses: Sequence[Sequence[str]], reference_counts: Sequence[Counter]) -> list[int]:
    """Clipped n-gram matches for n = 1..4, then possible n-gram counts,
    summed over parallel segments.  A reference comes as its
    :func:`ngram_counts`, so it is counted only once."""
    if len(hypotheses) != len(reference_counts):
        raise ValueError("hypothesis and reference segment counts differ")
    statistics = [0] * 8
    for hyp, ref_counts in zip(hypotheses, reference_counts):
        for gram, count in ngram_counts(hyp).items():
            matched = ref_counts.get(gram, 0)  # not [gram], whose miss calls Counter.__missing__
            statistics[len(gram) - 1] += count if count < matched else matched
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
    if not log:
        raise ValueError("quality needs at least one event")
    scorer = Scorer(doc, tokenize(log[-1].source_text))
    return bleu_score(scorer.final(log[-1].output_text)[0], scorer.ref_len)


# ---------------------------------------------------------------------------
# Combined report


class Scorer:
    """Scores final translations of a session against its reference.  Built
    from the session's source words, it raises ``ValueError`` unless they
    are the reference's, naming both token counts and the first token where
    they differ.  The reference is prepared once; each distinct final text is segmented
    against its segments once, and that one segmentation gives both the
    text's BLEU statistics and its tokens' source positions for lag."""

    def __init__(self, reference: ReferenceDocument, source: Sequence[str]) -> None:
        expected = [token.token for segment in reference.segments for token in segment.source_tokens]
        source = list(source)
        if source != expected:
            at = lcp_len(source, expected)
            seen = repr(source[at]) if at < len(source) else "no token"
            wanted = repr(expected[at]) if at < len(expected) else "no token"
            raise ValueError(
                f"the source ({len(source)} tokens) differs from the reference's source "
                f"({len(expected)} tokens) at token {at + 1}: {seen} instead of {wanted}"
            )
        self.refs = reference.reference_token_segments()
        self.ref_counts = [ngram_counts(ref) for ref in self.refs]
        self.ref_len = sum(len(ref) for ref in self.refs)
        self.source_lens = [len(segment.source_tokens) for segment in reference.segments]
        self.times = reference.source_times()
        self.finals: dict[str, tuple[list[int], tuple[float, ...], list[float]]] = {}

    def final(self, text: str) -> tuple[list[int], tuple[float, ...], list[float]]:
        """The :func:`bleu_statistics` of a final translation and, per token, its
        :func:`correspondence` and the time that position was spoken: a fractional
        (clamped) one interpolates linearly between its two neighbouring source times."""
        if text not in self.finals:
            hyp = tokenize(text)
            pieces = split_by_boundaries(hyp, mwer_segment(hyp, self.refs))
            times = self.times
            positions = []
            spoken = []
            source_start = 0
            for piece, src_len in zip(pieces, self.source_lens):
                for offset in range(len(piece)):
                    position = min(offset * src_len / len(piece) + source_start, float(source_start + src_len - 1))
                    base = int(position)  # positions are never negative
                    frac = position - base
                    positions.append(position)
                    spoken.append(times[base] if frac == 0.0 else times[base] * (1.0 - frac) + times[base + 1] * frac)
                source_start += src_len
            statistics = bleu_statistics(pieces, self.ref_counts)
            self.finals[text] = (statistics, tuple(positions), spoken)
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

    def add(self, fold: DisplayFold, event_times: Sequence[float], scorer: Scorer) -> None:
        """Add one session: its displays folded, the time of each of its
        events, and the scorer of its reference.  Its final display is
        scored through ``scorer``, which also gives each final token's
        spoken time; its lag is the time of the event that last changed it
        (``fold.changed``) minus that spoken time."""
        statistics, _, spoken = scorer.final(fold.display)
        if not fold.changed:
            raise ValueError("lag is undefined for an empty final translation")
        lags = [event_times[index - 1] - time for index, time in zip(fold.changed, spoken)]
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
    (:class:`Scorer`: a final source that is not the reference's raises).
    ``mode`` names that one correspondence and takes no other value."""
    if mode != "segment":
        raise ValueError(f'correspondence mode must be "segment", got {mode!r}')
    if not log:
        raise ValueError("lag needs at least one event")
    scorer = Scorer(doc, tokenize(log[-1].source_text))
    tally = Tally()
    tally.add(_fold(log), [change[0] for change in log.changes()], scorer)
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
        handle.write((json.dumps(payload, ensure_ascii=False) + "\n").encode())
