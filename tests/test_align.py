from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from retrans import (
    DecoderConfig,
    Segmentation,
    lcp_len,
    levenshtein,
    mwer_segment,
    run_simulation,
    split_by_boundaries,
    tokenize,
)
from retrans.align import _MIN_BAND


def brute_force_segment(hyp, refs):
    """Try every non-decreasing cut vector; first optimum found is the
    lexicographically smallest one."""
    best_cost = None
    best_cuts = None
    for cuts in itertools.combinations_with_replacement(range(len(hyp) + 1), len(refs) - 1):
        edges = [0, *cuts, len(hyp)]
        if any(a > b for a, b in zip(edges, edges[1:])):
            continue
        cost = sum(
            levenshtein(hyp[edges[i]:edges[i + 1]], refs[i]) for i in range(len(refs))
        )
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_cuts = cuts
    return Segmentation(tuple(best_cuts), best_cost)


def full_table_segment(hyp, refs):
    """The unbanded segmenter the banded one replaced: the whole suffix
    table, then a fresh distance scan from every cut."""
    inf = 10**9

    def prefix_costs(hyp, refs):
        width = len(hyp)
        rows = [[0] + [inf] * width]
        for ref in refs:
            prev = rows[-1]
            acc = [prev[0]] + [0] * width
            for j in range(1, width + 1):
                acc[j] = min(prev[j], acc[j - 1] + 1)
            for ref_tok in ref:
                nxt = [acc[0] + 1] + [0] * width
                for j in range(1, width + 1):
                    sub = acc[j - 1] + (hyp[j - 1] != ref_tok)
                    nxt[j] = min(acc[j] + 1, nxt[j - 1] + 1, sub)
                acc = nxt
            rows.append(acc)
        return rows

    def distances_from(hyp, start, ref):
        width = len(hyp) - start
        prev = list(range(width + 1))
        for ref_tok in ref:
            cur = [prev[0] + 1]
            for c in range(1, width + 1):
                sub = prev[c - 1] + (hyp[start + c - 1] != ref_tok)
                cur.append(min(prev[c] + 1, cur[-1] + 1, sub))
            prev = cur
        return prev

    hyp = list(hyp)
    count = len(refs)
    width = len(hyp)
    rev_rows = prefix_costs(hyp[::-1], [list(ref)[::-1] for ref in refs[::-1]])
    suffix = [[rev_rows[count - r][width - j] for j in range(width + 1)] for r in range(count + 1)]
    boundaries = []
    pos = 0
    for r in range(1, count):
        piece_costs = distances_from(hyp, pos, refs[r - 1])
        for j in range(pos, width + 1):
            if piece_costs[j - pos] + suffix[r][j] == suffix[r - 1][pos]:
                boundaries.append(j)
                pos = j
                break
    return Segmentation(tuple(boundaries), suffix[0][0])


def test_levenshtein_basics():
    assert levenshtein([], []) == 0
    assert levenshtein(["a", "b"], []) == 2
    assert levenshtein([], ["a"]) == 1
    assert levenshtein(["a", "b", "c"], ["a", "x", "c"]) == 1
    assert levenshtein("kitten", "sitting") == 3  # any sequence of hashables works


@given(
    st.lists(st.sampled_from("abc"), max_size=6),
    st.lists(st.sampled_from("abc"), max_size=6),
    st.lists(st.sampled_from("abc"), max_size=6),
)
def test_levenshtein_is_a_metric(a, b, c):
    assert levenshtein(a, a) == 0
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
    assert abs(len(a) - len(b)) <= levenshtein(a, b) <= max(len(a), len(b))


def test_lcp_len():
    assert lcp_len([], ["a"]) == 0
    assert lcp_len(["a", "b"], ["a", "b", "c"]) == 2
    assert lcp_len(["a", "x"], ["a", "y"]) == 1


@given(st.lists(st.sampled_from("ab"), max_size=8), st.lists(st.sampled_from("ab"), max_size=8))
def test_lcp_is_symmetric_and_bounded(a, b):
    n = lcp_len(a, b)
    assert n == lcp_len(b, a)
    assert a[:n] == b[:n]
    assert n == min(len(a), len(b)) or a[n] != b[n]


def test_segment_empty_hypothesis_pays_full_deletion():
    result = mwer_segment([], [["a"], ["b"]])
    assert result == Segmentation((0,), 2)


def test_segment_exact_split():
    hyp = "the dish tastes good the court was fair".split()
    refs = ["the dish tastes good".split(), "the court was fair".split()]
    result = mwer_segment(hyp, refs)
    assert result.total_edit_distance == 0
    assert result.boundaries == (4,)


def test_segment_prefers_leftmost_of_equal_splits():
    # both cuts 1 and 2 give total distance 2; the left one must win
    result = mwer_segment(["x", "a", "x"], [["a"], ["a"]])
    oracle = brute_force_segment(["x", "a", "x"], [["a"], ["a"]])
    assert result == oracle
    assert result.boundaries == oracle.boundaries


def test_segment_rejects_bad_references():
    with pytest.raises(ValueError):
        mwer_segment(["a"], [])
    with pytest.raises(ValueError):
        mwer_segment(["a"], [["a"], []])


def test_split_by_boundaries_partitions():
    pieces = split_by_boundaries(["a", "b", "c"], (0, 2))
    assert pieces == [[], ["a", "b"], ["c"]]


def test_segment_matches_brute_force_on_many_random_instances():
    rng = random.Random(20240817)
    vocabulary = ["a", "b", "c", "d"]
    for _ in range(250):
        hyp = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        refs = [
            [rng.choice(vocabulary) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(2, 3))
        ]
        assert mwer_segment(hyp, refs) == brute_force_segment(hyp, refs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from("abcd"), max_size=10),
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), min_size=1, max_size=3),
)
def test_segment_matches_brute_force_property(hyp, refs):
    assert mwer_segment(hyp, refs) == brute_force_segment(hyp, refs)


@given(
    st.lists(st.sampled_from("abcd"), max_size=10),
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), min_size=1, max_size=3),
)
def test_segment_boundaries_are_well_formed(hyp, refs):
    result = mwer_segment(hyp, refs)
    assert len(result.boundaries) == len(refs) - 1
    assert all(0 <= b <= len(hyp) for b in result.boundaries)
    assert list(result.boundaries) == sorted(result.boundaries)
    pieces = split_by_boundaries(hyp, result.boundaries)
    assert sum(levenshtein(piece, ref) for piece, ref in zip(pieces, refs)) == result.total_edit_distance


# ---------------------------------------------------------------------------
# Banded segmenter against the full-table one


def _random_refs(rng, vocabulary, segments, longest):
    return [[rng.choice(vocabulary) for _ in range(rng.randint(1, longest))] for _ in range(segments)]


def _assert_matches_full_table(hyp, refs):
    result = mwer_segment(hyp, refs)
    assert result == full_table_segment(hyp, refs)
    return result


def test_banded_segment_matches_full_table_on_tiny_vocabularies():
    # Two-letter text is full of equally cheap splits: the tie-break decides.
    rng = random.Random(11)
    for _ in range(300):
        refs = _random_refs(rng, "ab", rng.randint(1, 6), 6)
        hyp = [rng.choice("ab") for _ in range(rng.randint(0, 30))]
        _assert_matches_full_table(hyp, refs)


def test_banded_segment_matches_full_table_when_the_band_must_widen():
    # Same lengths, unrelated words: the distance far exceeds both the
    # length difference and the first band, so the band widens.
    rng = random.Random(12)
    widened = 0
    for _ in range(40):
        refs = _random_refs(rng, "abcdefghij", rng.randint(2, 8), 12)
        total = sum(len(ref) for ref in refs)
        hyp = [rng.choice("abcdefghij") for _ in range(max(0, total + rng.randint(-2, 2)))]
        result = _assert_matches_full_table(hyp, refs)
        widened += result.total_edit_distance > max(abs(total - len(hyp)), _MIN_BAND)
    assert widened >= 10


def test_banded_segment_matches_full_table_on_disjoint_vocabularies():
    # Nothing matches, so the distance is max(N, M) and the band has to
    # grow to cover the table.
    rng = random.Random(13)
    for _ in range(30):
        refs = _random_refs(rng, "abc", rng.randint(1, 6), 10)
        hyp = [rng.choice("xyz") for _ in range(rng.randint(0, 60))]
        result = _assert_matches_full_table(hyp, refs)
        assert result.total_edit_distance == max(len(hyp), sum(len(ref) for ref in refs))


def test_banded_segment_matches_full_table_on_empty_hypothesis():
    rng = random.Random(14)
    for _ in range(20):
        refs = _random_refs(rng, "abcd", rng.randint(1, 8), 30)
        result = _assert_matches_full_table([], refs)
        assert result.boundaries == (0,) * (len(refs) - 1)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from("abcd"), max_size=40),
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8), min_size=1, max_size=8),
)
def test_banded_segment_matches_full_table_property(hyp, refs):
    _assert_matches_full_table(hyp, refs)


@pytest.mark.parametrize("sentences_per_segment", [1, 5])
def test_banded_segment_matches_full_table_on_the_toy_corpus(
    toy_model, toy_documents, sentences_per_segment
):
    # The toy documents' sessions run back to back, twice in two orders,
    # against their references: one per sentence (a long talk) or five
    # sentences joined into one segment (run-on speech).
    rng = random.Random(15)
    hyp = []
    sentences = []
    for round_ in range(2):
        order = list(toy_documents)
        rng.shuffle(order)
        for name, transcript, reference in order:
            config = DecoderConfig(beam_size=4, bias_weight=0.5 * round_, mask_length=2)
            hyp += tokenize(run_simulation(transcript, toy_model, config).events[-1].output_text)
            sentences += reference.reference_token_segments()
    refs = [
        [tok for sentence in sentences[i:i + sentences_per_segment] for tok in sentence]
        for i in range(0, len(sentences), sentences_per_segment)
    ]
    _assert_matches_full_table(hyp, refs)
    _assert_matches_full_table(hyp[: len(hyp) // 2], refs)
