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
from retrans.align import lcp_len, mwer_segment, split_by_boundaries


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


def cut_cost(hyp, refs, cuts):
    """Summed edit distance of the pieces that ``cuts`` make of ``hyp`` to ``refs``."""
    edges = [0, *cuts, len(hyp)]
    return sum(levenshtein(hyp[start:end], ref) for start, end, ref in zip(edges, edges[1:], refs))


def brute_force_segment(hyp, refs):
    """Try every non-decreasing cut vector; first optimum found is the
    lexicographically smallest one."""
    best_cost = None
    best_cuts = None
    for cuts in itertools.combinations_with_replacement(range(len(hyp) + 1), len(refs) - 1):
        edges = [0, *cuts, len(hyp)]
        if any(a > b for a, b in zip(edges, edges[1:])):
            continue
        cost = cut_cost(hyp, refs, cuts)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_cuts = cuts
    return tuple(best_cuts)


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
    return tuple(boundaries)


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
    return tuple(boundaries)


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
    assert lcp_len(("a",), ("a", "b")) == 1


@pytest.mark.parametrize("a, b", [(("a",), ["a"]), (["a"], ("a", "b")), ("ab", ["a", "b"]), ((), [])])
def test_lcp_len_rejects_sequences_of_different_types(a, b):
    # Their slices never compare equal, so a shared prefix would read 0.
    names = {type(a).__name__, type(b).__name__}
    for first, second in ((a, b), (b, a)):
        with pytest.raises(TypeError, match="^lcp_len needs two sequences of one type, got ") as caught:
            lcp_len(first, second)
        assert set(str(caught.value).split(", got ")[1].split(" and ")) == names


@given(st.lists(st.sampled_from("ab"), max_size=8), st.lists(st.sampled_from("ab"), max_size=8))
def test_lcp_is_symmetric_and_bounded(a, b):
    n = lcp_len(a, b)
    assert n == lcp_len(b, a)
    assert a[:n] == b[:n]
    assert n == min(len(a), len(b)) or a[n] != b[n]
    assert lcp_len("".join(a), "".join(b)) == n  # texts take the same search


def test_segment_empty_hypothesis_pays_full_deletion():
    result = mwer_segment([], [["a"], ["b"]])
    assert result == (0,)
    assert cut_cost([], [["a"], ["b"]], result) == 2


def test_segment_exact_split():
    hyp = "the dish tastes good the court was fair".split()
    refs = ["the dish tastes good".split(), "the court was fair".split()]
    result = mwer_segment(hyp, refs)
    assert cut_cost(hyp, refs, result) == 0
    assert result == (4,)


def test_segment_prefers_leftmost_of_equal_splits():
    # both cuts 1 and 2 give total distance 2; the left one must win
    result = mwer_segment(["x", "a", "x"], [["a"], ["a"]])
    oracle = brute_force_segment(["x", "a", "x"], [["a"], ["a"]])
    assert result == oracle == (1,)


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
    assert len(result) == len(refs) - 1
    assert all(0 <= b <= len(hyp) for b in result)
    assert list(result) == sorted(result)
    pieces = split_by_boundaries(hyp, result)
    assert [tok for piece in pieces for tok in piece] == hyp
    # Splitting never costs extra, so the best split costs the distance to
    # the references joined.
    assert cut_cost(hyp, refs, result) == levenshtein(hyp, [tok for ref in refs for tok in ref])


@given(
    st.lists(st.sampled_from("abcd"), max_size=10),
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), min_size=1, max_size=3),
)
def test_segment_cuts_tuples_and_texts_as_lists_and_changes_neither(hyp, refs):
    before = (list(hyp), [list(ref) for ref in refs])
    result = mwer_segment(hyp, refs)
    assert (hyp, refs) == before
    assert type(result) is tuple
    assert mwer_segment(tuple(hyp), tuple(map(tuple, refs))) == result
    # One-letter tokens: a text indexes and slices as its list of letters.
    assert mwer_segment("".join(hyp), ["".join(ref) for ref in refs]) == result


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
        widened += cut_cost(hyp, refs, result) > max(abs(total - len(hyp)), _MIN_BAND)
    assert widened >= 10


def test_segment_matches_full_table_on_disjoint_vocabularies():
    # Nothing matches, so the distance is max(N, M): every step of the
    # bit-vector recurrence is a miss.
    rng = random.Random(13)
    for _ in range(30):
        refs = _random_refs(rng, "abc", rng.randint(1, 6), 10)
        hyp = [rng.choice("xyz") for _ in range(rng.randint(0, 60))]
        result = _assert_matches_full_table(hyp, refs)
        assert cut_cost(hyp, refs, result) == max(len(hyp), sum(len(ref) for ref in refs))


def test_segment_matches_full_table_on_empty_hypothesis():
    rng = random.Random(14)
    for _ in range(20):
        refs = _random_refs(rng, "abcd", rng.randint(1, 8), 30)
        result = _assert_matches_full_table([], refs)
        assert result == (0,) * (len(refs) - 1)


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
            hyp += tokenize(run_simulation(transcript, toy_model, config)[-1].output_text)
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
    assert cut_cost(hyp, refs, result) == max(len(hyp), sum(len(ref) for ref in refs))


# ---------------------------------------------------------------------------
# Bit-vector cut recovery against the cell-by-cell recovery it replaced


def cell_recovery_segment(hyp, refs):
    """The bit-vector segmenter as it was before its cut recovery took
    bit-vector steps: the same forward pass over the reversed problem, then
    each piece grown one hypothesis token at a time, filling its distance
    to every prefix of its reference cell by cell."""
    count = len(refs)
    width = len(hyp)
    pattern = hyp[::-1]
    full = (1 << width) - 1
    match = {}
    for j, tok in enumerate(pattern):
        match[tok] = match.get(tok, 0) | 1 << j
    i, vp, vn = 0, full, 0
    columns = [(i, vp, vn)]
    for text in [ref[::-1] for ref in refs[::-1]]:
        for tok in text:
            x = match.get(tok, 0) | vn
            d0 = ((((x & vp) + vp) ^ vp) | x) & full
            hp = vn | ~(d0 | vp)
            hn = vp & d0
            x = hp << 1 | 1
            vn = x & d0
            vp = (hn << 1 | ~(x | d0)) & full
        i += len(text)
        columns.append((i, vp, vn))

    def suffix(r, j):
        i, vp, vn = columns[count - r]
        low = (1 << (width - j)) - 1
        vp &= low
        vn &= low
        return i + vp.bit_count() - vn.bit_count(), vp, vn

    target = suffix(0, 0)[0]
    boundaries = []
    pos = 0
    for r in range(1, count):
        ref = refs[r - 1]
        rest, vp, vn = suffix(r, pos)
        costs = list(range(len(ref) + 1))
        j = pos
        while costs[-1] + rest != target:
            hyp_tok = hyp[j]
            j += 1
            rest += (vn >> (width - j) & 1) - (vp >> (width - j) & 1)
            diag = costs[0]
            costs[0] = j - pos
            for k, ref_tok in enumerate(ref, 1):
                shorter = costs[k]
                costs[k] = min(diag + (hyp_tok != ref_tok), shorter + 1, costs[k - 1] + 1)
                diag = shorter
        boundaries.append(j)
        pos = j
        target = rest
    return tuple(boundaries)


def _assert_matches_cell_recovery(hyp, refs):
    result = mwer_segment(hyp, refs)
    assert result == cell_recovery_segment(hyp, refs)
    return result


def test_cell_recovery_oracle_matches_the_brute_force_oracle():
    rng = random.Random(21)
    for _ in range(150):
        refs = _random_refs(rng, "abc", rng.randint(1, 3), 4)
        hyp = [rng.choice("abcz") for _ in range(rng.randint(0, 9))]
        assert cell_recovery_segment(hyp, refs) == brute_force_segment(hyp, refs)


def test_segment_matches_cell_recovery_on_long_references_with_stray_words():
    # References of up to 150 tokens over a few words, so each piece's
    # masks span several machine words and hold every token many times;
    # "z" and "y" occur in no reference.
    rng = random.Random(22)
    longest = 0
    for _ in range(40):
        refs = _random_refs(rng, "abcd", rng.randint(1, 5), 150)
        total = sum(len(ref) for ref in refs)
        hyp = [rng.choice("abcdzy") for _ in range(max(0, total + rng.randint(-30, 30)))]
        _assert_matches_cell_recovery(hyp, refs)
        longest = max(longest, *map(len, refs))
    assert longest > 128


def test_segment_matches_cell_recovery_when_a_piece_must_be_empty():
    # The segment "q" shares no word with the hypothesis, which is exactly
    # the other segments back to back: its piece must be empty, whether it
    # comes first, in the middle or last.
    rng = random.Random(23)
    for _ in range(60):
        refs = _random_refs(rng, "abcd", rng.randint(2, 4), 80)
        hyp = [tok for ref in refs for tok in ref]
        for place in (0, rng.randint(1, len(refs) - 1), len(refs)):
            placed = refs[:place] + [["q"]] + refs[place:]
            result = _assert_matches_cell_recovery(hyp, placed)
            pieces = split_by_boundaries(hyp, result)
            assert pieces[place] == []
            assert cut_cost(hyp, placed, result) == 1


def test_segment_matches_cell_recovery_on_exact_ties():
    # One stray word between two segments costs 1 on either side of it:
    # both cuts are optimal, and the left one must win.
    rng = random.Random(24)
    for _ in range(60):
        first, second = _random_refs(rng, "abcd", 2, 70)
        hyp = first + ["z"] + second
        result = _assert_matches_cell_recovery(hyp, [first, second])
        assert cut_cost(hyp, [first, second], result) == 1
        assert cut_cost(hyp, [first, second], (len(first) + 1,)) == 1
        assert result[0] <= len(first)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from("abcz"), max_size=90),
    st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=70), min_size=1, max_size=4),
)
def test_segment_matches_cell_recovery_property(hyp, refs):
    _assert_matches_cell_recovery(hyp, refs)


@pytest.mark.parametrize("sentences_per_segment", [1, 5])
def test_segment_matches_cell_recovery_on_the_toy_corpus(toy_model, toy_documents, sentences_per_segment):
    hyp, sentences = _toy_sessions(toy_model, toy_documents)
    refs = _join_sentences(sentences, sentences_per_segment)
    _assert_matches_cell_recovery(hyp, refs)
    _assert_matches_cell_recovery(hyp[: len(hyp) // 2], refs)
    _assert_matches_cell_recovery(hyp * 3, refs * 3)
