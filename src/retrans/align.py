"""Token alignment primitives: edit distance, common prefixes, and
minimum-error segmentation of an unsegmented hypothesis against a list of
reference segments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

_INF = 10**9


def levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
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


def lcp_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common prefix of two token sequences."""
    n = 0
    for tok_a, tok_b in zip(a, b):
        if tok_a != tok_b:
            break
        n += 1
    return n


@dataclass(frozen=True, slots=True)
class Segmentation:
    """Result of :func:`mwer_segment`.

    ``boundaries`` holds one cut index per internal segment border, so its
    length is one less than the number of reference segments.  Cut ``b``
    means the hypothesis piece for the next segment starts at token ``b``.
    Boundaries are non-decreasing and empty pieces are legal.
    """

    boundaries: tuple[int, ...]
    total_edit_distance: int


# Least cost budget the band is first built for, so that short inputs with
# a handful of edits finish in one pass.
_MIN_BAND = 16


def _segment_prefix_costs(
    hyp: Sequence[str], refs: Sequence[Sequence[str]], band: int
) -> list[list[int]]:
    """rows[r][j]: least summed edit distance of refs[:r] against any split
    of hyp[:j] into r contiguous pieces, over alignment paths that stay in
    the band; cells outside it hold ``_INF``.

    A cell (i, j) pairs i reference tokens, counted across segments, with
    j hypothesis tokens.  For M reference and N hypothesis tokens, every
    path through it costs at least ``|i - j| + |(M - i) - (N - j)|``; the
    band holds the cells where that bound is at most ``band``.  Splitting
    the concatenated references never costs extra, so the table is an
    edit-distance table of ``hyp`` against their concatenation, kept at the
    segment borders.
    """
    width = len(hyp)
    delta = sum(len(ref) for ref in refs) - width
    # Diagonals d = i - j with |d| + |delta - d| <= band.
    d_lo = -((band - delta) // 2)
    d_hi = (band + delta) // 2

    def full_row(row: list[int], lo: int) -> list[int]:
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


def mwer_segment(hyp: Sequence[str], refs: Sequence[Sequence[str]]) -> Segmentation:
    """Split ``hyp`` into one piece per reference segment, minimizing the
    summed edit distance between each piece and its reference.

    The search considers every cut position; only cuts between reference
    segments are allowed, which is what makes the result comparable to a
    score computed on pre-segmented text.  Among equally cheap splits the
    one with the leftmost cuts wins, decided left to right.

    The cost table is filled only inside a diagonal band, widened until the
    best split costs no more than the band admits, so for N hypothesis and
    M reference tokens at total distance D the work is O(N * (D + |N - M|))
    amortised over the widenings.  The result is exact: every path of cost
    at most the band stays inside it, so the optimal total and every cell on
    an optimal path are exact, and out-of-band cells only overestimate, so
    the leftmost-cut test can fail on them but never pass wrongly.

    Raises ``ValueError`` when ``refs`` is empty or contains an empty
    segment.
    """
    if not refs:
        raise ValueError("at least one reference segment is required")
    if any(len(ref) == 0 for ref in refs):
        raise ValueError("reference segments must be non-empty")

    hyp = list(hyp)
    refs = [list(ref) for ref in refs]
    count = len(refs)
    width = len(hyp)

    # suffix[r][j]: cheapest alignment of refs[r:] against hyp[j:].  Computed
    # by running the prefix recurrence on the reversed problem; edit distance
    # is invariant under reversing both sequences.
    rev_hyp = hyp[::-1]
    rev_refs = [ref[::-1] for ref in refs[::-1]]
    band = max(abs(sum(map(len, refs)) - width), _MIN_BAND)
    while True:
        rev_rows = _segment_prefix_costs(rev_hyp, rev_refs, band)
        total = rev_rows[-1][-1]
        if total <= band:
            break
        band = min(2 * band, total)
    suffix = [row[::-1] for row in reversed(rev_rows)]

    boundaries: list[int] = []
    pos = 0
    for r in range(1, count):
        # Grow the piece hyp[pos:j] one token at a time; costs[k] is its
        # edit distance to ref[:k].
        ref = refs[r - 1]
        target = suffix[r - 1][pos]
        after = suffix[r]
        costs = list(range(len(ref) + 1))
        j = pos
        while costs[-1] + after[j] != target:
            if j == width:
                raise AssertionError("segmentation table is inconsistent")
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


def split_by_boundaries(hyp: Sequence[str], boundaries: Sequence[int]) -> list[list[str]]:
    """Cut ``hyp`` at ``boundaries`` into len(boundaries) + 1 pieces."""
    edges = [0, *boundaries, len(hyp)]
    return [list(hyp[edges[i]:edges[i + 1]]) for i in range(len(edges) - 1)]
