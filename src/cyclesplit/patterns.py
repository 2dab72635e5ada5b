"""Finders for the two edge-interaction patterns the switch engine needs.

In a two-row drawing (one cycle's edge positions on the top row, the other's
on the bottom), edges ``(i, j)`` and ``(i', j')`` with distinct endpoints are
disconnected iff ``(i - i')(j - j') > 0`` and crossing iff the product is
negative.  Three pairwise disconnected edges are therefore a strictly
increasing chain of length 3 in both coordinates, and three pairwise crossing
edges an increasing-in-i, decreasing-in-j chain.  On a single circle, two
chords ``(h, j)`` and ``(i, m)`` interleave iff ``h < i < j < m``.

Ties (equal coordinate) count as neither increasing nor decreasing: every
pattern requires strict interleaving.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Optional, Sequence

IndexPair = tuple[int, int]
Triple = tuple[int, int, int]


def find_increasing_triple(pairs: Sequence[IndexPair]) -> Optional[Triple]:
    """Indices of three pairs strictly increasing in both coordinates.

    Patience-style chain tracking: pairs are scanned in sorted order keeping,
    for chain lengths 1 and 2, the smallest reachable final j (plus back
    pointers).  The length-3 cutoff keeps the state constant-size, so the
    whole scan is O(m log m).  Returns None when no such chain exists.
    """
    return _chain_of_three(pairs, decreasing=False)


def find_decreasing_triple(pairs: Sequence[IndexPair]) -> Optional[Triple]:
    """Like :func:`find_increasing_triple` with strictly decreasing j."""
    return _chain_of_three(pairs, decreasing=True)


def _chain_of_three(pairs: Sequence[IndexPair], decreasing: bool) -> Optional[Triple]:
    if len(pairs) < 3:
        return None
    # Sort by i ascending; within equal i put j in the order that prevents
    # same-i chaining (larger-usable-j first).
    if decreasing:
        order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0], pairs[k][1]))
    else:
        order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0], -pairs[k][1]))
    # tails[L] = (best j ending a chain of length L+1, index, predecessor state)
    tails = [None, None]
    for k in order:
        i, j = pairs[k]
        jj = -j if decreasing else j
        if tails[1] is not None and jj > tails[1][0]:
            return (tails[1][2][1], tails[1][1], k)
        if tails[0] is not None and jj > tails[0][0]:
            if tails[1] is None or jj < tails[1][0]:
                tails[1] = (jj, k, tails[0])
        if tails[0] is None or jj < tails[0][0]:
            tails[0] = (jj, k, None)
    return None


def iter_increasing_triples(pairs: Sequence[IndexPair]) -> Iterator[Triple]:
    """Index triples strictly increasing in both coordinates, lex order.

    Scans index-ascending triples only, so the input must be sorted by
    first coordinate (the switch engine's candidate lists are).
    """
    return _increasing_triples(pairs)


def iter_decreasing_triples(pairs: Sequence[IndexPair]) -> Iterator[Triple]:
    """Index triples with i increasing, j decreasing; input sorted by i."""
    return _increasing_triples([(i, -j) for i, j in pairs])


def _increasing_triples(pairs: Sequence[IndexPair]) -> Iterator[Triple]:
    # one loop for both public names, neither calling the other, so a
    # wrapper around one of them counts only its own items
    n = len(pairs)
    for a in range(n):
        ia, ja = pairs[a]
        for b in range(a + 1, n):
            ib, jb = pairs[b]
            if not (ia < ib and ja < jb):
                continue
            for c in range(b + 1, n):
                ic, jc = pairs[c]
                if ib < ic and jb < jc:
                    yield (a, b, c)


def find_interleaved_pair(chords: Sequence[IndexPair]) -> Optional[tuple[int, int]]:
    """Two chords ``(h, j)`` and ``(i, m)`` of one circle with h < i < j < m.

    Chords must be normalized with first coordinate strictly smaller.
    Returns list indices (first chord supplies h and j) or None.
    """
    for pair in iter_interleaved_pairs(chords):
        return pair
    return None


def iter_interleaved_pairs(chords: Sequence[IndexPair]) -> Iterator[tuple[int, int]]:
    """Interleaved chord pairs in deterministic sweep order.

    Chords are processed by increasing start position; for each chord
    ``(i, m)`` every earlier-starting open chord whose end falls strictly
    inside ``(i, m)`` interleaves with it.  Candidates with the same opener
    come out ordered by the opener's list position.
    """
    for h, j in chords:
        if h >= j:
            raise ValueError(f"chord ({h}, {j}) not normalized (need h < j)")
    order = sorted(range(len(chords)), key=lambda k: (chords[k][0], chords[k][1], k))
    open_ends: list[tuple[int, int]] = []  # (end position, chord index), sorted
    for k in order:
        i, m = chords[k]
        lo = bisect_left(open_ends, (i + 1, -1))
        hits = []
        for end, idx in open_ends[lo:]:
            if end >= m:
                break
            if chords[idx][0] < i:
                hits.append(idx)
        for idx in sorted(hits):
            yield (idx, k)
        insort(open_ends, (m, k))

