from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from retrans import (
    DecoderConfig,
    run_simulation,
    tokenize,
)
from retrans.align import Segmentation, lcp_len, mwer_segment, split_by_boundaries


def levenshtein(a, b):
    """Token-level edit distance with unit insert/delete/substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, 1):
        cur = [i]
        for j, tok_b in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (tok_a != tok_b)))
        prev = cur
    return prev[-1]


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
    """The first segmenter: the whole suffix table, then a fresh distance
    scan from every cut."""
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


# Least cost budget the banded oracle's band is first built for.
_MIN_BAND = 16
_INF = 10**9


def _banded_prefix_costs(hyp, refs, band):
    """rows[r][j]: least summed edit distance of refs[:r] against any split
    of hyp[:j] into r pieces, over alignment paths that stay in the band;
    cells outside it hold ``_INF``.  A cell (i, j) is in the band when
    ``|i - j| + |(M - i) - (N - j)|``, a lower bound on any path through
    it, is at most ``band``."""
    width = len(hyp)
    delta = sum(len(ref) for ref in refs) - width
    # Diagonals d = i - j with |d| + |delta - d| <= band.
    d_lo = -((band - delta) // 2)
    d_hi = (band + delta) // 2

    def full_row(row, lo):
        return [_INF] * lo + row + [_INF] * (width + 1 - lo - len(row))

    lo = 0
    row = list(range(min(width, -d_lo) + 1))
    rows = [full_row(row, lo)]
    i = 0
    for ref in refs:
        for ref_tok in ref:
            i += 1
            new_lo = max(0, i - d_hi)
            new_hi = min(width, i - d_lo)
            # The previous row over columns new_lo - 1 .. new_hi, padded.  It
            # starts at column lo, which is new_lo - 1 unless both are 0.
            prev = row if new_lo > lo else [_INF] + row
            prev += [_INF] * (new_hi + 2 - new_lo - len(prev))
            if new_lo == 0:
                left = prev[1] + 1
                row = [left]
                first = 1
            else:
                left = _INF
                row = []
                first = new_lo
            for hyp_tok, diag, up in zip(
                hyp[first - 1:new_hi], prev[first - new_lo:], prev[first - new_lo + 1:]
            ):
                if hyp_tok != ref_tok:
                    diag += 1
                if up < left:
                    left = up
                left += 1
                if diag < left:
                    left = diag
                row.append(left)
            lo = new_lo
        rows.append(full_row(row, lo))
    return rows


def banded_segment(hyp, refs):
    """The banded segmenter the bit-vector one replaced: the suffix table
    filled inside a diagonal band, doubled until the best split fits in
    it, then the same piece-growing cut recovery.  Exact, and fast enough
    to serve as the reference on inputs of thousands of tokens."""
    hyp = list(hyp)
    refs = [list(ref) for ref in refs]
    width = len(hyp)
    rev_refs = [ref[::-1] for ref in refs[::-1]]
    band = max(abs(sum(map(len, refs)) - width), _MIN_BAND)
    while True:
        rev_rows = _banded_prefix_costs(hyp[::-1], rev_refs, band)
        total = rev_rows[-1][-1]
        if total <= band:
            break
        band = min(2 * band, total)
    suffix = [row[::-1] for row in reversed(rev_rows)]

    boundaries = []
    pos = 0
    for r in range(1, len(refs)):
        ref = refs[r - 1]
        costs = list(range(len(ref) + 1))
        j = pos
        while costs[-1] + suffix[r][j] != suffix[r - 1][pos]:
            hyp_tok = hyp[j]
            j += 1
            diag = costs[0]
            costs[0] = j - pos
            for k, ref_tok in enumerate(ref, 1):
                shorter = costs[k]
                costs[k] = min(diag + (hyp_tok != ref_tok), shorter + 1, costs[k - 1] + 1)
                diag = shorter
        boundaries.append(j)
        pos = j
    return Segmentation(tuple(boundaries), total)


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
# Bit-vector segmenter against the full-table and banded ones


def _random_refs(rng, vocabulary, segments, longest):
    return [[rng.choice(vocabulary) for _ in range(rng.randint(1, longest))] for _ in range(segments)]


def _assert_matches_full_table(hyp, refs):
    result = mwer_segment(hyp, refs)
    assert result == full_table_segment(hyp, refs)
    return result


def test_segment_matches_full_table_on_tiny_vocabularies():
    # Two-letter text is full of equally cheap splits: the tie-break decides.
    rng = random.Random(11)
    for _ in range(300):
        refs = _random_refs(rng, "ab", rng.randint(1, 6), 6)
        hyp = [rng.choice("ab") for _ in range(rng.randint(0, 30))]
        _assert_matches_full_table(hyp, refs)


def test_segment_and_banded_oracle_match_full_table_when_its_band_widens():
    # Same lengths, unrelated words: the distance far exceeds both the
    # length difference and the banded oracle's first band, so its band
    # widens; the oracle must still agree with the full table.
    rng = random.Random(12)
    widened = 0
    for _ in range(40):
        refs = _random_refs(rng, "abcdefghij", rng.randint(2, 8), 12)
        total = sum(len(ref) for ref in refs)
        hyp = [rng.choice("abcdefghij") for _ in range(max(0, total + rng.randint(-2, 2)))]
        result = _assert_matches_full_table(hyp, refs)
        assert banded_segment(hyp, refs) == result
        widened += result.total_edit_distance > max(abs(total - len(hyp)), _MIN_BAND)
    assert widened >= 10


def test_segment_matches_full_table_on_disjoint_vocabularies():
    # Nothing matches, so the distance is max(N, M): every step of the
    # bit-vector recurrence is a miss.
    rng = random.Random(13)
    for _ in range(30):
        refs = _random_refs(rng, "abc", rng.randint(1, 6), 10)
        hyp = [rng.choice("xyz") for _ in range(rng.randint(0, 60))]
        result = _assert_matches_full_table(hyp, refs)
        assert result.total_edit_distance == max(len(hyp), sum(len(ref) for ref in refs))


def test_segment_matches_full_table_on_empty_hypothesis():
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
def test_segment_matches_full_table_property(hyp, refs):
    _assert_matches_full_table(hyp, refs)


def _toy_sessions(toy_model, toy_documents):
    """The toy documents' final outputs back to back, twice in two orders,
    and their reference sentences in the same order."""
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
    return hyp, sentences


def _join_sentences(sentences, sentences_per_segment):
    return [
        [tok for sentence in sentences[i:i + sentences_per_segment] for tok in sentence]
        for i in range(0, len(sentences), sentences_per_segment)
    ]


@pytest.mark.parametrize("sentences_per_segment", [1, 5])
def test_segment_matches_full_table_on_the_toy_corpus(
    toy_model, toy_documents, sentences_per_segment
):
    # References one per sentence (a long talk) or five sentences joined
    # into one segment (run-on speech).
    hyp, sentences = _toy_sessions(toy_model, toy_documents)
    refs = _join_sentences(sentences, sentences_per_segment)
    _assert_matches_full_table(hyp, refs)
    _assert_matches_full_table(hyp[: len(hyp) // 2], refs)


@pytest.mark.parametrize("sentences_per_segment", [1, 5])
def test_segment_matches_banded_oracle_on_a_long_talk(
    toy_model, toy_documents, sentences_per_segment
):
    # The toy sessions repeated to about 1,800 tokens: the bit vectors span
    # many machine words, and the full table would be too slow.
    hyp, sentences = _toy_sessions(toy_model, toy_documents)
    hyp, sentences = hyp * 8, sentences * 8
    assert len(hyp) > 1700
    refs = _join_sentences(sentences, sentences_per_segment)
    for piece in (hyp, hyp[: len(hyp) // 2]):
        assert mwer_segment(piece, refs) == banded_segment(piece, refs)


def test_segment_matches_banded_oracle_when_no_word_matches():
    # Over 64 words none of which the references use: every bit-vector
    # step is a miss, on ints wider than one machine word.
    refs = _random_refs(random.Random(16), "abcdef", 12, 10)
    hyp = [f"w{i % 7}" for i in range(150)]
    result = mwer_segment(hyp, refs)
    assert result == banded_segment(hyp, refs)
    assert result.total_edit_distance == max(len(hyp), sum(len(ref) for ref in refs))
