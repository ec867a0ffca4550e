"""A deterministic word-table translation model and a beam search that can
be biased toward the previous translation of the same sentence.

The model translates word for word, left to right: target position ``j``
consumes source position ``j``.  Each source word's distribution over
target words may depend on the word that follows it, so a translation can
legitimately change when one more source word arrives.  That is exactly the
behaviour the rest of the package measures, and the bias knob exists to
suppress it: while a hypothesis has followed the previous translation token
for token, the search mixes a point mass on the previous translation's next
token into the model distribution.  From the first divergence on, the model
distribution is used unchanged.  A distribution has one form, from the
TSV row to the search: a read-only ``{target: probability}`` mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Mapping, Protocol, Sequence

from .align import lcp_len
from .eventlog import read_lines, tokenize

EOS_TOKEN = "</s>"
END_OF_SOURCE = "⟨END⟩"  # context marker: the source sentence ends here
ANY_CONTEXT = "∗"  # context marker: the next source word is unknown or unlisted


class ScoringModel(Protocol):
    """What the search needs from a model: a next-token distribution,
    possibly including :data:`EOS_TOKEN`, that depends only on the source,
    its completeness, and the target prefix.  The search only reads the
    mapping, so a model may return the same one on every call.

    A model may also declare an int class attribute ``source_lookahead``
    = L >= 0.  It promises that a distribution reads of the prefix only its
    length ``n``, and, while ``n + L + 1 <= len(source)``, of the source
    only the words before position ``n + L + 1``, not its completeness;
    past that bound it may read the whole source and its completeness.  For
    such a model :func:`biased_beam_search` asks for one distribution per
    target position and can resume from a :class:`BeamMemo`.  A model that
    does not declare it always gets the full search, one distribution per
    hypothesis.
    """

    def next_distribution(
        self, source: Sequence[str], source_complete: bool, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        ...


@dataclass(frozen=True)
class TableModel:
    """Word-for-word translation table.

    Entries map (source_word, context) to a distribution over target words.
    The context is the source word that follows, :data:`END_OF_SOURCE` when
    the source sentence verifiably ends there, or :data:`ANY_CONTEXT` when
    the future is unseen or unlisted.  Lookup falls back from the exact
    context to :data:`ANY_CONTEXT`; a source word with no entries at all
    translates to itself.  Tokens and probabilities follow the rules of
    :func:`load_table_model`.  The model keeps the
    mappings it is given and serves them as they are: do not change them.

    The distribution at target position ``n`` reads source words ``n`` and
    ``n + 1`` and, when word ``n`` is the last, whether the source is
    complete, so the model declares a ``source_lookahead`` of 1 (see
    :class:`ScoringModel`).  A subclass that reads more must set it to
    ``None`` or to its own look-ahead.
    """

    entries: Mapping[tuple[str, str], Mapping[str, float]]
    source_lookahead: ClassVar[int | None] = 1

    def __post_init__(self) -> None:
        words_with_exact = {word for word, ctx in self.entries if ctx != ANY_CONTEXT}
        for word in words_with_exact:
            if (word, ANY_CONTEXT) not in self.entries:
                raise ValueError(
                    f"source word {word!r} has context-specific entries but no {ANY_CONTEXT} entry"
                )
        for (word, ctx), dist in self.entries.items():
            if any(tokenize(token) != [token] for token in (word, ctx, *dist)):
                raise ValueError(f"({word!r}, {ctx!r}): every token must be non-empty and whitespace-free")
            if not dist:
                raise ValueError(f"empty distribution for ({word!r}, {ctx!r})")
            total = math.fsum(dist.values())
            if not abs(total - 1.0) <= 1e-6:
                raise ValueError(
                    f"distribution for ({word!r}, {ctx!r}) sums to {total!r}, expected 1"
                )
            if not all(0.0 < p <= 1.0 for p in dist.values()):
                raise ValueError(f"probabilities for ({word!r}, {ctx!r}) must be in (0, 1]")

    def next_distribution(
        self, source: Sequence[str], source_complete: bool, prefix: Sequence[str]
    ) -> Mapping[str, float]:
        """Distribution over the next target word given ``prefix``.

        Past the end of the source only :data:`EOS_TOKEN` remains.  Before
        that, the next target word is drawn from the entry for the source
        word at the prefix's position, keyed by the following source word
        when it is already visible, by :data:`END_OF_SOURCE` when the word
        is last and the source is complete, and by :data:`ANY_CONTEXT`
        otherwise.
        """
        if len(prefix) >= len(source):
            return {EOS_TOKEN: 1.0}
        word = source[len(prefix)]
        after = len(prefix) + 1
        if after < len(source):
            context = source[after]
        elif source_complete:
            context = END_OF_SOURCE
        else:
            context = ANY_CONTEXT
        dist = self.entries.get((word, context))
        if dist is None:
            dist = self.entries.get((word, ANY_CONTEXT))
        if dist is None:
            return {word: 1.0}
        return dist


def load_table_model(path: str | Path) -> TableModel:
    """Read a model from a UTF-8 TSV file.

    Four tab-separated columns per line: source word, context (a token,
    ``⟨END⟩`` or ``∗``), target word, probability.  Blank lines and lines
    whose first non-blank character is ``#`` are skipped, so a source word
    starting with ``#`` cannot be written here.  The first three columns
    must each be one token as :func:`tokenize` reads it, the probability
    must lie in (0, 1].  Rows with the same source word and context accumulate into one
    distribution, which must sum to 1 within 1e-6; an exact duplicate
    (source, context, target) row is an error, as is a context-specific
    entry without the ``∗`` fallback for that word.
    """
    table: dict[tuple[str, str], dict[str, float]] = {}

    def read_line(line: str) -> None:
        if line.lstrip().startswith("#"):
            return
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 tab-separated columns, got {len(parts)}")
        word, context, target, prob_text = parts
        if any(tokenize(token) != [token] for token in (word, context, target)):
            raise ValueError("every token must be non-empty and whitespace-free")
        try:
            prob = float(prob_text)
        except ValueError:
            raise ValueError(f"bad probability {prob_text!r}") from None
        if not 0.0 < prob <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        dist = table.setdefault((word, context), {})
        if target in dist:
            raise ValueError(f"duplicate row for ({word!r}, {context!r}, {target!r})")
        dist[target] = prob

    read_lines(path, read_line)
    try:
        return TableModel(table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True, slots=True)
class DecoderConfig:
    """Search settings.

    ``previous_translation`` is the unmasked translation this sentence got
    last time around; ``bias_weight`` is how much probability mass to put on
    sticking with it.
    """

    beam_size: int = 1
    bias_weight: float = 0.0
    mask_length: int = 0
    previous_translation: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if not 0.0 <= self.bias_weight <= 1.0:
            raise ValueError(f"bias_weight must be in [0, 1], got {self.bias_weight!r}")
        if self.mask_length < 0:
            raise ValueError(f"mask_length must be >= 0, got {self.mask_length}")


def _biased_step(
    dist: Mapping[str, float], target: str, weight: float
) -> dict[str, float]:
    """Mix a point mass on ``target`` into ``dist``: every probability is
    scaled by (1 - weight) and ``target`` gains ``weight`` on top.

    ``target`` enters the support even when the model gives it no mass, as
    a one-hot over the extended vocabulary; the result still sums to 1, so
    no renormalization pass is needed (renormalizing over the model's own
    support would be the alternative, and would change scores for every
    candidate rather than only the targeted one).
    """
    step = {token: (1.0 - weight) * p for token, p in dist.items()}
    step[target] = step.get(target, 0.0) + weight
    return step


class BeamMemo:
    """The beam after each round of the last search over one sentence, and
    the inputs that search read, so that the next search can resume.

    Round ``n`` of a search expands the hypotheses of ``n`` tokens.  For a
    model that declares a ``source_lookahead`` L (see :class:`ScoringModel`)
    it reads the model at prefix length ``n``, the bias target
    ``previous[n]`` (none past the end of ``previous``), the bias weight and
    the beam size.  So while the model, the weight, the beam size,
    ``previous[:n + 1]`` and either the source words before ``n + L + 1``
    (with ``n + L + 1 <= len(source)`` in both searches) or the whole source
    and its completeness are those of the last search, the beam after round
    ``n`` is the one recorded here.  :meth:`rebase` keeps exactly those
    rounds.  One memo serves one search at a time; a session passes its one
    memo to every search.
    """

    __slots__ = ("model", "source", "source_complete", "previous", "bias_weight", "beam_size", "beams")

    def __init__(self) -> None:
        self.model: ScoringModel | None = None
        self.source: tuple[str, ...] = ()
        self.source_complete = False
        self.previous: tuple[str, ...] = ()
        self.bias_weight = -1.0
        self.beam_size = 0
        self.beams: list[list[tuple]] = []  # the beam after each expanded round

    def rebase(
        self,
        model: ScoringModel,
        lookahead: int | None,
        source: tuple[str, ...],
        source_complete: bool,
        previous: tuple[str, ...],
        config: DecoderConfig,
    ) -> list[list[tuple]]:
        """Record the inputs of a new search by ``model``, whose declared
        look-ahead is ``lookahead``, and keep the beams of the rounds it
        shares with the last one; the search appends the rest."""
        beams = self.beams
        if (
            lookahead is None
            or model is not self.model
            or config.bias_weight != self.bias_weight
            or config.beam_size != self.beam_size
        ):
            beams.clear()
        else:
            kept = len(beams)
            if source != self.source or source_complete != self.source_complete:
                # A round n with n + lookahead + 1 <= lcp read only words both sources share.
                shared = lcp_len(source, self.source) - lookahead
                kept = shared if shared < kept else kept
            if previous != self.previous:
                shared = lcp_len(previous, self.previous)  # round n read previous[n]
                kept = shared if shared < kept else kept
            del beams[kept if kept > 0 else 0:]
        self.model, self.source, self.source_complete = model, source, source_complete
        self.previous, self.bias_weight, self.beam_size = previous, config.bias_weight, config.beam_size
        return beams


def biased_beam_search(
    model: ScoringModel,
    source: Sequence[str],
    source_complete: bool,
    config: DecoderConfig,
    *,
    memo: BeamMemo | None = None,
) -> tuple[str, ...]:
    """Beam search over ``model``'s distributions, optionally biased toward
    ``config.previous_translation``.

    While a hypothesis has followed the previous translation exactly and
    has not outgrown it, each step's distribution is mixed with a point
    mass on the previous translation's next token (see :func:`_biased_step`);
    after the first divergence the model distribution applies unchanged.
    Scores are accumulated log probabilities of the mixed distributions.

    A hypothesis is its own rank key, the tuple ``(-logscore, diverged,
    tokens, unfinished)``, so plain tuple order ranks the beam: higher
    score first, then the hypothesis still following the previous
    translation, then the lexicographically earlier tokens, then the
    finished one.  Each step subtracts log p from the negated score, which
    gives bit for bit the negation of the added-up score.

    Finished hypotheses stay in the beam and compete by score.  The search
    stops when every surviving hypothesis is finished or has
    2 * len(source) + 5 tokens (a cutoff word-for-word models never reach;
    it stops a model that never emits EOS), and returns the best finished
    one, or the best partial if nothing finished in time.  An empty source
    translates to an empty output without consulting the model.

    Round ``n`` expands every unfinished hypothesis, and each has ``n``
    tokens.  For a model that declares a ``source_lookahead`` (see
    :class:`ScoringModel`), one distribution serves the whole round, and
    the search starts from the last round ``memo`` can vouch for (see
    :class:`BeamMemo`) instead of round 0, then records its own rounds
    there.  The result is the full search's, bit for bit.  Without a memo
    or without the declaration the search starts at round 0.
    """
    source = tuple(source)
    if not source:
        return ()
    previous = tuple(config.previous_translation)
    previous_len = len(previous)
    weight = config.bias_weight
    biased = weight > 0.0
    beam_size = config.beam_size
    max_len = 2 * len(source) + 5
    next_distribution = model.next_distribution
    log = math.log
    lookahead = getattr(model, "source_lookahead", None)
    per_hypothesis = lookahead is None

    beams = [] if memo is None else memo.rebase(model, lookahead, source, source_complete, previous, config)
    beam = beams[-1] if beams else [(0.0, False, (), True)]
    while True:
        candidates = []
        expanded = False
        dist = None
        for hyp in beam:
            cost, diverged, tokens, unfinished = hyp
            position = len(tokens)
            if not unfinished or position >= max_len:
                candidates.append(hyp)
                continue
            expanded = True
            if per_hypothesis or dist is None:
                dist = next_distribution(source, source_complete, tokens)
                biased_dist = None
            # The token that keeps this hypothesis following the previous
            # translation, if it still does.
            target = None if diverged or position >= previous_len else previous[position]
            step = dist
            if biased and target is not None:
                if biased_dist is None:  # every following hypothesis of a round has the same target
                    biased_dist = _biased_step(dist, target, weight)
                step = biased_dist
            for token, prob in step.items():
                if prob <= 0.0:
                    continue
                if token == EOS_TOKEN:
                    candidates.append((cost - log(prob), diverged, tokens, False))
                else:
                    candidates.append((cost - log(prob), token != target, tokens + (token,), True))
        if not expanded:
            break
        candidates.sort()
        beam = candidates[:beam_size]
        beams.append(beam)

    finished = [hyp for hyp in beam if not hyp[3]]
    return min(finished or beam)[2]

