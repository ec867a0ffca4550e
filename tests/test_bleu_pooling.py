"""Corpus BLEU pooled from per-segment statistics against the BLEU that
counts every segment's n-grams on each call (:mod:`bleu_oracle`)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import bleu_oracle
from retrans.metrics import bleu_corpus, bleu_score, bleu_statistics, ngram_counts

from test_acceptance import independent_bleu


@st.composite
def bleu_segment(draw):
    """A reference of 0-7 words over a three-word vocabulary, and a
    hypothesis that is either random, possibly holding a word no reference
    has, or the reference with one stretch replaced."""
    ref = draw(st.lists(st.sampled_from("abc"), max_size=7))
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from("abcz"), max_size=7)), ref
    start = draw(st.integers(0, len(ref)))
    end = draw(st.integers(start, len(ref)))
    return ref[:start] + draw(st.lists(st.sampled_from("abcz"), max_size=2)) + ref[end:], ref


def bleu_documents():
    """1-4 documents of 1-4 segments each: hypotheses may be empty or
    shorter than a 4-gram, and so may a reference."""
    return st.lists(st.lists(bleu_segment(), min_size=1, max_size=4), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(documents=bleu_documents())
# no hypothesis word in any reference
@example(documents=[[(["z", "z", "z", "z"], ["a", "b", "c", "a"])], [([], ["b"])]])
def test_pooled_bleu_statistics_match_the_oracle(documents):
    # Statistics summed over documents and scored once give, bit for bit,
    # the BLEU of all the documents' segments together.
    hyps = [hyp for document in documents for hyp, _ in document]
    refs = [ref for document in documents for _, ref in document]
    pooled = [0] * 8
    for document in documents:
        statistics = bleu_statistics([hyp for hyp, _ in document], [ngram_counts(ref) for _, ref in document])
        pooled = [total + more for total, more in zip(pooled, statistics)]
    if not any(refs):
        scorers = (lambda: bleu_corpus(hyps, refs), lambda: bleu_score(pooled, 0), lambda: bleu_oracle.bleu_corpus(hyps, refs))
        for score in scorers:
            with pytest.raises(ValueError, match="^BLEU is undefined for an empty reference corpus$"):
                score()
        return
    expected = bleu_oracle.bleu_corpus(hyps, refs)
    assert bleu_score(pooled, sum(len(ref) for ref in refs)) == expected
    assert bleu_corpus(hyps, refs) == expected
    assert abs(expected - independent_bleu(hyps, refs)) <= 1e-9


def slice_ngram_counts(tokens):
    """The n-gram counts as first defined: one slice tuple per n-gram."""
    return Counter(tuple(tokens[i:i + n]) for n in range(1, 5) for i in range(len(tokens) - n + 1))


_WORDS = st.lists(st.sampled_from("abc"), max_size=9)


@settings(max_examples=300, deadline=None)
@given(segments=st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=4))
# shares every unigram with its reference, no 4-gram
@example(segments=[(["a", "b", "c", "d", "e"], ["a", "b", "c", "e", "d"])])
def test_ngram_counts_keep_their_definition_and_clipping_leaves_references_as_they_were(segments):
    for tokens in (side for segment in segments for side in segment):
        for sequence in (tokens, tuple(tokens)):
            counts = ngram_counts(sequence)
            assert type(counts) is Counter
            assert dict(counts) == dict(slice_ngram_counts(tokens))
    # A Scorer reuses each reference's counts for every final translation
    # it scores, so clipping must not add a key for a missing n-gram.
    ref_counts = [ngram_counts(ref) for _, ref in segments]
    before = [list(counts.items()) for counts in ref_counts]
    statistics = bleu_statistics([hyp for hyp, _ in segments], ref_counts)
    assert [list(counts.items()) for counts in ref_counts] == before
    expected = [0] * 8
    for hyp, ref in segments:
        ref_grams = slice_ngram_counts(ref)
        for gram, count in slice_ngram_counts(hyp).items():
            expected[len(gram) - 1] += min(count, ref_grams[gram])
            expected[len(gram) + 3] += count
    assert statistics == expected
