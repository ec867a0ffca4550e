"""Alignment primitives: common prefixes of token sequences and texts, and
minimum-error segmentation of an unsegmented hypothesis against a list of
reference segments."""

from __future__ import annotations

from typing import Sequence


def lcp_len(a: Sequence, b: Sequence) -> int:
    """Length of the longest common prefix of two sequences of one type, such as
    two token lists or two strings, by slice comparisons at C speed.  Two of
    different types, whose slices never compare equal, raise ``TypeError``."""
    if len(a) > len(b):
        a, b = b, a
    if b[:len(a)] == a:  # one comparison when one extends the other
        return len(a)
    if type(a) is not type(b):
        raise TypeError(f"lcp_len needs two sequences of one type, got {type(a).__name__} and {type(b).__name__}")
    known, bound = 0, len(a) - 1  # a[:known] == b[:known], and the common prefix ends by bound
    while known < bound:  # a binary search that compares only what is not yet known to be shared
        middle = (known + bound + 1) // 2
        if a[known:middle] == b[known:middle]:
            known = middle
        else:
            bound = middle - 1
    return known


def _match_masks(pattern: Sequence[str]) -> dict[str, int]:
    """Per token of ``pattern``, the int whose bit j is set where pattern[j] is that token."""
    match: dict[str, int] = {}
    for j, tok in enumerate(pattern):
        match[tok] = match.get(tok, 0) | 1 << j
    return match


def _border_columns(pattern: Sequence[str], texts: Sequence[Sequence[str]]) -> list[tuple[int, int, int]]:
    """Columns of the edit-distance table of ``pattern`` against the
    concatenated ``texts``, kept before the first text and after each one.

    Column i holds D[i][j], the distance of the first i text tokens to
    ``pattern[:j]`` for every j, as the bit vectors of Myers (1999) in
    Hyyrö's (2001) global form: ``(i, vp, vn)``, where bit j - 1 of ``vp``
    (``vn``) is set when D[i][j] - D[i][j - 1] is +1 (-1).  One text token
    is one step on len(pattern)-bit ints.  Splitting the texts never costs
    extra, so D at the column after text r is the least summed distance of
    texts[:r] against any split of ``pattern[:j]`` into r pieces.
    """
    full = (1 << len(pattern)) - 1
    match = _match_masks(pattern)
    i, vp, vn = 0, full, 0
    columns = [(i, vp, vn)]
    for text in texts:
        for tok in text:
            # Bits only carry and shift upward, so cutting d0 and vp to
            # len(pattern) bits changes no cell; it keeps the ints that wide.
            x = match.get(tok, 0) | vn
            d0 = ((((x & vp) + vp) ^ vp) | x) & full
            hp = vn | ~(d0 | vp)
            hn = vp & d0
            x = hp << 1 | 1
            vn = x & d0
            vp = (hn << 1 | ~(x | d0)) & full
        i += len(text)
        columns.append((i, vp, vn))
    return columns


def mwer_segment(hyp: Sequence[str], refs: Sequence[Sequence[str]]) -> tuple[int, ...]:
    """Split ``hyp`` into one piece per reference segment, minimizing the
    summed edit distance between each piece and its reference, and return
    the cuts: one per internal segment border, so one fewer than ``refs``.
    Cut ``b`` starts the next segment's piece at token ``b``; cuts never
    decrease and empty pieces are legal.

    The search considers every cut position; only cuts between reference
    segments are allowed, which is what makes the result comparable to a
    score computed on pre-segmented text.  Among equally cheap splits the
    one with the leftmost cuts wins, decided left to right.

    For N hypothesis and M reference tokens the cost table takes M
    bit-vector steps on N-bit ints, with no band and no widening, and keeps
    one exact column per segment border.  Cuts are recovered by growing
    each piece one hypothesis token at a time, each token one such step on
    len(ref)-bit ints against the piece's own reference, whose horizontal
    deltas' top bit moves the piece's cost; the cost of the rest is read
    off the next border column once and then updated by one bit per token.

    Raises ``ValueError`` when ``refs`` is empty or contains an empty
    segment.
    """
    if not refs:
        raise ValueError("at least one reference segment is required")
    if any(len(ref) == 0 for ref in refs):
        raise ValueError("reference segments must be non-empty")

    count = len(refs)
    width = len(hyp)

    # Columns of the reversed problem; edit distance is invariant under
    # reversing both sequences.
    columns = _border_columns(hyp[::-1], [ref[::-1] for ref in refs[::-1]])

    def suffix(r: int, j: int) -> tuple[int, int, int]:
        """Cheapest alignment of refs[r:] against hyp[j:], and the column bits it sums."""
        i, vp, vn = columns[count - r]
        low = (1 << (width - j)) - 1
        vp &= low
        vn &= low
        return i + vp.bit_count() - vn.bit_count(), vp, vn

    target = suffix(0, 0)[0]
    boundaries: list[int] = []
    pos = 0
    for r in range(1, count):
        # Grow the piece hyp[pos:j] by _border_columns' step against ref;
        # cost, its distance to ref, moves by the top bit of hp and hn, and
        # rest is suffix(r, j), which loses bit width - j of its column's sum.
        ref = refs[r - 1]
        rest, vp, vn = suffix(r, pos)
        match, full, top = _match_masks(ref), (1 << len(ref)) - 1, len(ref) - 1
        cost, piece_vp, piece_vn = len(ref), full, 0
        j = pos
        while cost + rest != target:
            if j == width:
                raise AssertionError("segmentation table is inconsistent")
            x = match.get(hyp[j], 0) | piece_vn
            j += 1
            rest += (vn >> (width - j) & 1) - (vp >> (width - j) & 1)
            d0 = ((((x & piece_vp) + piece_vp) ^ piece_vp) | x) & full
            hp = piece_vn | ~(d0 | piece_vp)
            hn = piece_vp & d0
            cost += (hp >> top & 1) - (hn >> top & 1)
            x = hp << 1 | 1
            piece_vn = x & d0
            piece_vp = (hn << 1 | ~(x | d0)) & full
        boundaries.append(j)
        pos = j
        target = rest
    return tuple(boundaries)


def split_by_boundaries(hyp: Sequence[str], boundaries: Sequence[int]) -> list[list[str]]:
    """Cut ``hyp`` at ``boundaries`` into len(boundaries) + 1 pieces."""
    edges = [0, *boundaries, len(hyp)]
    return [list(hyp[edges[i]:edges[i + 1]]) for i in range(len(edges) - 1)]
