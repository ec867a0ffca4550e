"""The corpus BLEU that counts every segment's n-grams, hypothesis and
reference alike, on each call, kept as the oracle for
:func:`retrans.metrics.bleu_corpus`, which pools per-segment statistics
(:func:`retrans.metrics.bleu_statistics`) and scores them once
(:func:`retrans.metrics.bleu_score`).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence


def bleu_corpus(hypotheses: Sequence[Sequence[str]], references: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU over parallel token segments, as a percentage.

    Case-sensitive, n-grams up to 4, modified (clipped) precisions pooled
    over the corpus, geometric mean, multiplicative brevity penalty.  No
    smoothing: if any n-gram order has zero matches the score is 0.0, which
    also covers empty hypotheses.  A reference corpus with no tokens at all
    raises ``ValueError``.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference segment counts differ")
    ref_len = sum(len(ref) for ref in references)
    if ref_len == 0:
        raise ValueError("BLEU is undefined for an empty reference corpus")
    hyp_len = sum(len(hyp) for hyp in hypotheses)

    matched = [0] * 4
    possible = [0] * 4
    for hyp, ref in zip(hypotheses, references):
        for n in range(1, 5):
            if len(hyp) < n:
                break
            hyp_counts = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            ref_counts = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            possible[n - 1] += len(hyp) - n + 1
            matched[n - 1] += sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())

    if any(p == 0 for p in possible) or any(m == 0 for m in matched):
        return 0.0
    log_precision = math.fsum(math.log(m / p) for m, p in zip(matched, possible)) / 4.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)
