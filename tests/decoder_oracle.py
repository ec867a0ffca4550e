"""The object-per-candidate beam search, kept as the oracle for the
tuple-keyed search in :mod:`retrans.decoder`.

Each candidate is a ``Hypothesis`` record and the beam is sorted through a
separate rank function.  Slower, but the ranking is spelled out field by
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from retrans.decoder import EOS_TOKEN, DecoderConfig, ScoringModel


@dataclass(frozen=True, slots=True)
class Hypothesis:
    """A partial or finished translation: its tokens, accumulated log
    probability, and whether it is still a prefix of the previous
    translation."""

    tokens: tuple[str, ...]
    logscore: float
    following_previous: bool
    finished: bool = False


def _rank(hyp: Hypothesis) -> tuple:
    # Best first: higher score, then still-following, then lexicographically
    # earlier tokens.  The finished flag settles what little remains.
    return (-hyp.logscore, not hyp.following_previous, hyp.tokens, not hyp.finished)


def biased_beam_search(
    model: ScoringModel,
    source: Sequence[str],
    source_complete: bool,
    config: DecoderConfig,
) -> tuple[str, ...]:
    """Beam search over ``model``'s distributions, optionally biased toward
    ``config.previous_translation``.

    While a hypothesis has followed the previous translation exactly and
    has not outgrown it, each step's distribution is mixed with a point
    mass on the previous translation's next token: every probability is
    scaled by (1 - weight) and that token gains weight on top, even where
    the model gives it no mass.  After the first divergence the model
    distribution applies unchanged.
    Scores are accumulated log probabilities of the mixed distributions.

    Finished hypotheses stay in the beam and compete by score.  The search
    stops when every surviving hypothesis is finished or has
    2 * len(source) + 5 tokens (a cutoff word-for-word models never reach;
    it stops a model that never emits EOS), and returns the best finished
    one, or the best partial if nothing finished in time.  Ties prefer the
    hypothesis still following the previous translation, then the
    lexicographically earlier one.  An empty source translates to an empty
    output without consulting the model.
    """
    source = tuple(source)
    if not source:
        return ()
    previous = tuple(config.previous_translation)
    weight = config.bias_weight
    max_len = 2 * len(source) + 5

    beam = [Hypothesis((), 0.0, True)]
    while not all(h.finished or len(h.tokens) >= max_len for h in beam):
        candidates = []
        for hyp in beam:
            if hyp.finished or len(hyp.tokens) >= max_len:
                candidates.append(hyp)
                continue
            dist = model.next_distribution(source, source_complete, hyp.tokens)
            position = len(hyp.tokens)
            biased = weight > 0.0 and hyp.following_previous and position < len(previous)
            step = dist
            if biased:
                step = {token: (1.0 - weight) * prob for token, prob in dist.items()}
                step[previous[position]] = step.get(previous[position], 0.0) + weight
            for token, prob in step.items():
                if prob <= 0.0:
                    continue
                score = hyp.logscore + math.log(prob)
                if token == EOS_TOKEN:
                    candidates.append(
                        Hypothesis(hyp.tokens, score, hyp.following_previous, True)
                    )
                else:
                    follows = (
                        hyp.following_previous
                        and position < len(previous)
                        and token == previous[position]
                    )
                    candidates.append(Hypothesis(hyp.tokens + (token,), score, follows))
        candidates.sort(key=_rank)
        beam = candidates[: config.beam_size]

    finished = [h for h in beam if h.finished]
    best = min(finished or beam, key=_rank)
    return best.tokens
