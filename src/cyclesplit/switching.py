"""C4-switching: enumeration, application, and the split-one-more-cycle step.

An implanted C4 consists of two non-incident cover edges plus two chords of
the host graph that are not cover edges.  Toggling it (removing the cover
edges, adding the chords) changes the component count by +1, 0 or -1
depending on the chord configuration:

* same cycle, "parallel" chords  ``{x_a x_{b+1}, x_{a+1} x_b}`` -> split (+1)
* same cycle, "crossing" chords  ``{x_a x_b, x_{a+1} x_{b+1}}`` -> rewire (0)
* two cycles (either orientation)                               -> merge (-1)

A single parallel switch raises the component count, and so do two crossing
switches whose chords interleave on one cycle, or three aligned / three
anti-aligned cross-cycle switches in chain position.  ``increase_by_one``
searches those four configurations in order of increasing edge perturbation
and commits to the first well-formed one: a configuration whose new cycles
are all at least 3 long always adds exactly one cycle, so a step never tries
a second.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Optional, Sequence

from .graphs import (
    CoverError,
    CycleCover,
    Graph,
    _iter_bits,
    _oriented,
    edge_key,
    validate_cover,
)
from .patterns import (
    find_decreasing_triple,
    find_increasing_triple,
    iter_decreasing_triples,
    iter_increasing_triples,
    iter_interleaved_pairs,
)


class SwitchKind(enum.Enum):
    SAME_CYCLE_PARALLEL = "same-cycle-parallel"
    SAME_CYCLE_CROSSING = "same-cycle-crossing"
    CROSS_CYCLE = "cross-cycle"

    @property
    def component_delta(self) -> int:
        if self is SwitchKind.SAME_CYCLE_PARALLEL:
            return 1
        if self is SwitchKind.SAME_CYCLE_CROSSING:
            return 0
        return -1


@dataclass(frozen=True)
class ImplantedC4:
    """Two non-incident cover edges plus the two off-cover chords joining them.

    ``edge_a`` and ``edge_b`` are (cycle index, position) pairs; ``aligned``
    records the chord orientation: True pairs first endpoint with first
    endpoint (``{u y, v z}``), False pairs first with second (``{u z, v y}``).
    """

    edge_a: tuple[int, int]
    edge_b: tuple[int, int]
    chords: tuple[tuple[int, int], tuple[int, int]]
    kind: SwitchKind
    aligned: bool

    def cover_edges(self, cover: CycleCover) -> tuple[tuple[int, int], tuple[int, int]]:
        u, v = cover.cycle_edge(*self.edge_a)
        y, z = cover.cycle_edge(*self.edge_b)
        return edge_key(u, v), edge_key(y, z)


@dataclass(frozen=True)
class SwitchPlan:
    """An ordered batch of implanted C4's to toggle at once.

    Toggling it adds exactly one cycle and changes ``4 * len(switches)``
    edges: each switch swaps two cover edges for two chords off the cover.
    """

    switches: tuple[ImplantedC4, ...]
    case: int


def _make_c4(cover: CycleCover, ea, eb, aligned: bool) -> ImplantedC4:
    u, v = cover.cycle_edge(*ea)
    y, z = cover.cycle_edge(*eb)
    if aligned:
        chords = (edge_key(u, y), edge_key(v, z))
    else:
        chords = (edge_key(u, z), edge_key(v, y))
    if ea[0] == eb[0]:
        kind = SwitchKind.SAME_CYCLE_CROSSING if aligned else SwitchKind.SAME_CYCLE_PARALLEL
    else:
        kind = SwitchKind.CROSS_CYCLE
    return ImplantedC4(ea, eb, tuple(sorted(chords)), kind, aligned)


# -- the implanted-C4 kernel ------------------------------------------------
#
# Take the cover edge u -> v (v = nxt[u]).  An implanted C4 through it has a
# chord u-w, w an off-cover neighbour of u, and its partner edge y -> z is
# (w, nxt[w]) with the chord v-z (aligned, {u y, v z}) or (prev[w], w) with
# the chord v-prev[w] (anti-aligned, {u z, v y}).  So every implanted C4 is
# found from two bitset rows per vertex, once from each of its two cover
# edges, not by a scan over all pairs of cover edges.
#
# The neighbour rows are the graph's bitsets.  The predecessor row p(x) adds
# one single-bit integer per neighbour of x, summed when the row is read, so
# a caller pays only for the rows it reads: a whole cover costs 2m big-integer
# additions, and a split step's filing reads only the rows of its gained cycles.


def _kernel_rows(g: Graph, prev, nxt):
    """Row builder of the implanted-C4 kernel.

    ``rows(x)`` returns two vertex bitsets: ``a``, the neighbours of x other
    than its two cover neighbours, and ``p``, the cover predecessors of those.
    For the cover edge u -> v, the aligned partner edges start at the vertices
    of ``a(u) & p(v)`` and the anti-aligned ones at those of ``p(u) & a(v)``.
    Chords are off-cover by construction, and the four endpoints are distinct
    because v is a cover neighbour of u.
    """
    neighbor_bits, adjacency = g.neighbor_bits, g.adjacency
    pbit = [1 << p for p in prev]

    def rows(x: int) -> tuple[int, int]:
        p, q = prev[x], nxt[x]
        a = neighbor_bits(x) & ~((1 << p) | (1 << q))
        # p(x) holds prev[w] for each neighbour w; drop w = p and w = q
        pred = sum(map(pbit.__getitem__, adjacency(x))) & ~((1 << prev[p]) | (1 << x))
        return a, pred

    return rows


def _later_partners(cycles: Iterable[Sequence[int]], rows, n: int):
    """``(u, aligned, anti)`` for each edge u -> v of ``cycles`` with a partner.

    ``aligned`` and ``anti`` are the start vertices of u -> v's partner edges
    by chord orientation (``rows`` is a ``_kernel_rows`` builder), less those
    walked before it, so each C4 with both edges in ``cycles`` comes once.
    """
    later = (1 << n) - 1  # all but the start vertices walked so far
    for cyc in cycles:
        au, pu = first = rows(cyc[0])
        for u, (av, pv) in zip(cyc, chain(map(rows, cyc[1:]), (first,))):
            later ^= 1 << u
            aligned = au & pv & later
            anti = pu & av & later
            if aligned or anti:
                yield u, aligned, anti
            au, pu = av, pv


def _implanted_pairs(g: Graph, cover: CycleCover):
    """``(edge_a, edge_b, aligned)`` of each implanted C4, lexicographically.

    ``edge_a`` precedes ``edge_b`` in global (cycle, position) order, and an
    aligned C4 precedes the anti-aligned one on the same pair.  The items are
    found lazily, edge by edge, so a caller that stops early stops the walk.
    The cover must already be a 2-factor of ``g``; it is not re-checked here.
    """
    prev, nxt = cover.prev_next
    locator = cover.locator
    rows = _kernel_rows(g, prev, nxt)
    for u, aligned, anti in _later_partners(cover.cycles, rows, cover.n):
        partners = [(locator[y], 0) for y in _iter_bits(aligned)]
        partners += [(locator[y], 1) for y in _iter_bits(anti)]
        partners.sort()
        ea = locator[u]
        for eb, side in partners:
            yield ea, eb, not side


def enumerate_implanted(
    g: Graph, cover: CycleCover, cap: Optional[int] = None
) -> list[ImplantedC4]:
    """All implanted C4's in lexicographic position order, truncated at cap.

    Both chord orientations of a cover-edge pair are reported separately.
    """
    validate_cover(g, cover)
    return [
        _make_c4(cover, ea, eb, aligned)
        for ea, eb, aligned in islice(_implanted_pairs(g, cover), cap)
    ]


def count_h_edges(g: Graph, cover: CycleCover) -> int:
    """Number of C4's implanted in the cover (one per chord orientation)."""
    prev, nxt = cover.prev_next
    rows = _kernel_rows(g, prev, nxt)
    seen = 0
    # _later_partners' walk, inlined: solve's merge -> walk -> unmerge
    # fallback calls this, and it runs on every failed split, most of them at
    # n <= 12, where a generator's per-edge cost shows
    for cyc in cover.cycles:
        first = au, pu = rows(cyc[0])
        for v in cyc[1:]:
            av, pv = rows(v)
            seen += (au & pv).bit_count() + (pu & av).bit_count()
            au, pu = av, pv
        av, pv = first
        seen += (au & pv).bit_count() + (pu & av).bit_count()
    # each implanted C4 is seen from both of its cover edges
    return seen // 2


def _toggle(cover: CycleCover, switches: Sequence[ImplantedC4]) -> Optional[CycleCover]:
    """Apply a batch of switches by splicing the cycles they touch; None if degenerate.

    Each touched cycle is cut at its removed edges into arcs, each kept as a
    range of positions of the old cycle, and the chords join the arcs into
    the new cycles.  Each new cycle comes out canonical, copied from slices
    of the old tuples (one per arc, two where an arc wraps), and the
    untouched cycles keep their tuples.

    The arcs are listed in cycle order, and each touched cycle's first arc
    wraps past its end to hold position 0, the old minimum.  Each walk starts
    at the first arc not yet walked, so one that starts at a position-0 arc
    meets only cycles with larger minima: it starts on the new minimum and
    needs no scan.  Only a walk that starts elsewhere scans for its minimum
    and rotates to it.  Either way ``graphs._oriented`` orients it.

    The batch is degenerate when a cover edge or chord repeats, a chord is a
    cover edge, a vertex gains a number of chords other than the number of
    cover edges it loses, or a cycle shorter than 3 results.  Each check is
    local, so the cover is never rebuilt.
    """
    cycles = cover.cycles
    removed = set()
    cuts: dict[int, list[int]] = {}  # touched cycle -> removed positions
    where = {}  # endpoint of a removed edge -> (cycle, position)
    balance = {}  # per vertex: cover edges removed minus chords added
    for c4 in switches:
        for ci, pos in (c4.edge_a, c4.edge_b):
            cyc = cycles[ci]
            nxt = (pos + 1) % len(cyc)
            u, v = cyc[pos], cyc[nxt]
            removed.add(edge_key(u, v))
            cuts.setdefault(ci, []).append(pos)
            where[u] = (ci, pos)
            where[v] = (ci, nxt)
            balance[u] = balance.get(u, 0) + 1
            balance[v] = balance.get(v, 0) + 1
    chords = {chord for c4 in switches for chord in c4.chords}
    if len(removed) != 2 * len(switches) or len(chords) != 2 * len(switches):
        return None
    link: dict[int, list[int]] = {}  # chord partners of each vertex
    for x, y in chords:
        balance[x] = balance.get(x, 0) - 1
        balance[y] = balance.get(y, 0) - 1
        link.setdefault(x, []).append(y)
        link.setdefault(y, []).append(x)
    if any(balance.values()):
        return None
    for x, y in chords:
        (cx, px), (cy, py) = where[x], where[y]
        if cx == cy and (px - py) % len(cycles[cx]) in (1, len(cycles[cx]) - 1):
            return None

    # an arc is (cycle, lo, hi), positions lo..hi; the first arc of each
    # touched cycle wraps past the cycle's end (lo <= 0)
    arcs = []
    arc_at = {}  # both ends of each arc -> its index
    for ci in sorted(cuts):
        cut = cuts[ci]
        cyc = cycles[ci]
        cut.sort()
        lo = cut[-1] + 1 - len(cyc)
        for hi in cut:
            arc_at[cyc[lo]] = arc_at[cyc[hi]] = len(arcs)
            arcs.append((cyc, lo, hi))
            lo = hi + 1
    new = []
    done = [False] * len(arcs)
    for i, (home, first, hi) in enumerate(arcs):
        if done[i]:
            continue
        done[i] = True
        # every arc before this one is spent: from position 0, the walk starts
        # on its new cycle's minimum, and a wrapping arc's rest comes last
        start = home[first]
        seq = []
        seq += home[first : hi + 1] if first > 0 else home[: hi + 1]
        came_from = z = home[hi]
        x = link[z][0]
        while x != start:
            j = arc_at[x]
            done[j] = True
            cyc, lo, hi = arcs[j]
            if cyc[lo] == x:
                if lo < 0:
                    seq += cyc[lo:]
                    lo = 0
                seq += cyc[lo : hi + 1]
                z = cyc[hi]
            else:
                seq += cyc[hi : lo - 1 : -1] if lo > 0 else cyc[hi::-1]
                if lo < 0:
                    seq += cyc[: lo - 1 : -1]
                z = cyc[lo]
            # a one-vertex arc has two chords: leave by the one not arrived on
            partners = link[z]
            came_from, x = z, (
                partners[1] if x == z and partners[0] == came_from else partners[0]
            )
        if first < 0:
            seq += home[first:]
        if len(seq) < 3:
            return None
        if first > 0:
            at = seq.index(min(seq))
            seq = seq[at:] + seq[:at]
        new.append(_oriented(seq))
    kept = [cyc for ci, cyc in enumerate(cycles) if ci not in cuts]
    return CycleCover._from_canonical(tuple(sorted(kept + new)), cover.n)


def apply_switch(cover: CycleCover, c4: ImplantedC4) -> CycleCover:
    """Toggle one implanted C4; the component delta follows its kind."""
    for ci, pos in (c4.edge_a, c4.edge_b):
        # a negative index would alias a cycle or position from the end
        if not (0 <= ci < len(cover.cycles) and 0 <= pos < len(cover.cycles[ci])):
            raise CoverError("switch references a cover edge position that does not exist")
    ea, eb = c4.cover_edges(cover)
    endpoints = set(ea) | set(eb)
    chord_points = set(c4.chords[0]) | set(c4.chords[1])
    if len(endpoints) != 4 or chord_points != endpoints:
        raise CoverError("switch chords do not match its cover-edge endpoints")
    result = _toggle(cover, [c4])
    if result is None:
        raise CoverError("switch is inconsistent with the cover")
    delta = result.num_components - cover.num_components
    if delta != c4.kind.component_delta:
        raise CoverError(
            f"switch of kind {c4.kind.value} produced component delta {delta}"
        )
    return result


# -- raising the component count by one ------------------------------------


def _parallel_in(g: Graph, cyc: Sequence[int]) -> Optional[tuple[int, int]]:
    """Positions (a, b) of the first parallel implanted C4 of one cycle, lazily."""
    neighbor_bits = g.neighbor_bits
    L = len(cyc)
    ba1 = neighbor_bits(cyc[0])
    for a in range(L - 3):
        ba, ba1 = ba1, neighbor_bits(cyc[a + 1])
        # spans outside [3, L-3] would turn a chord into a cover edge
        for b in range(a + 3, min(a + L - 2, L)):
            xb = cyc[b]
            xb1 = cyc[(b + 1) % L]
            if (ba >> xb1) & 1 and (ba1 >> xb) & 1:
                return a, b
    return None


def _find_parallel(
    g: Graph, cover: CycleCover, parallel_free: dict
) -> Optional[ImplantedC4]:
    """Lexicographically first same-cycle parallel implanted C4.

    ``parallel_free`` maps a first vertex to the cycle scanned there without a
    hit.  A cycle is skipped when it is that very tuple (``is``), and each
    cycle scanned to the end without a hit is filed under its first vertex.
    """
    for ci, cyc in enumerate(cover.cycles):
        if len(cyc) < 6 or parallel_free.get(cyc[0]) is cyc:
            continue
        hit = _parallel_in(g, cyc)
        if hit is not None:
            return _make_c4(cover, (ci, hit[0]), (ci, hit[1]), aligned=False)
        parallel_free[cyc[0]] = cyc
    return None


class _SplitMemo:
    """What one split run has learned about its cycles, keyed by first vertex.

    The cycles of one cover share no vertex, so a cycle is known by its first
    vertex, and first vertices sort as the tuples do.  A cycle counts as
    known when the tuple filed under its first vertex is the cover's own
    tuple object (``is``).  ``_toggle`` hands back every untouched cycle as
    the same object, so a split run never meets an equal but distinct copy;
    if a caller passed one, it would only be filed again.

    ``parallel_free`` maps a first vertex to the cycle scanned there without
    a parallel C4, and ``cycles`` to the cycle filed there.  The vertex
    arrays ``first`` (the first vertex of each vertex's cycle), ``pos`` (its
    position on that cycle), ``prev`` and ``nxt`` (its cover neighbours) are
    rewritten only for the vertices of gained cycles.  The memo keeps its
    own ``prev`` and ``nxt`` rather than reading ``CycleCover.prev_next``,
    because it carries them from one cover of the run to the next.

    Three orders hold the filed pairs, each order sorted and each list of
    pairs (a, b) sorted:

    * ``crossing``: ``(-size, v, pairs)``, the crossing pairs of the cycle at
      v, a < b;
    * ``aligned`` and ``anti``: ``(-size, lower, higher, pairs)``, the aligned
      and the anti-aligned pairs of a cycle pair, each holding the position
      on the lower cycle first.

    A list below its threshold can never yield a candidate, so it is neither
    sorted nor kept: case 2 needs two crossing pairs, cases 3 and 4 three
    pairs.  A cycle's parallel C4's are not filed: case 1 finds them.

    Invariant: an entry holds for every cover that contains its cycles,
    whatever the other cycles are.  The chords of a C4 implanted in one or
    two cycles join vertices of those cycles, and such a chord is a cover
    edge only if it is an edge of one of them; the positions come from the
    tuples.  So untouched tuples keep their positions, their
    parallel-freeness and their pairs, and a step reads only the cycles its
    cover gained.  Every list holds a gained cycle when it is filed, so its
    pairs are complete then and never change, and a list left out could
    never yield.  So a step that reads the memo searches, and finds, what a step
    that starts from an empty memo does.
    """

    __slots__ = (
        "parallel_free", "cycles", "first", "pos", "prev", "nxt", "crossing", "aligned", "anti"
    )

    def __init__(self, n: int):
        self.parallel_free: dict[int, tuple[int, ...]] = {}
        self.cycles: dict[int, tuple[int, ...]] = {}
        self.first = [0] * n
        self.pos = [0] * n
        self.prev = [0] * n
        self.nxt = [0] * n
        self.crossing: list[tuple] = []
        self.aligned: list[tuple] = []
        self.anti: list[tuple] = []

    def buckets(self, g: Graph, cover: CycleCover, budget: int):
        """File the C4's of the cycles ``cover`` gained; ``(fresh, index)``.

        ``fresh`` counts the implanted C4's with an edge on a cycle the cover
        gained, read from kernel rows of those cycles' vertices only:
        partners on the other cycles in full, partners on gained cycles only
        later in global order.  Each is filed once, into a list that holds a
        gained cycle and so is created here.  The entries of the lost cycles
        leave the orders first; the lists long enough to yield are sorted
        and merged in.  ``index`` maps the first vertex of each cycle of
        ``cover`` to its position.  When ``fresh`` exceeds ``budget``, nothing
        is filed and ``index`` is None.
        """
        cycles = cover.cycles
        index = {cyc[0]: ci for ci, cyc in enumerate(cycles)}
        filed = self.cycles
        lost = {v for v, cyc in filed.items() if v not in index or cycles[index[v]] is not cyc}
        if lost:
            for v in lost:
                del filed[v]
            self.crossing = [e for e in self.crossing if e[1] not in lost]
            self.aligned = [e for e in self.aligned if e[1] not in lost and e[2] not in lost]
            self.anti = [e for e in self.anti if e[1] not in lost and e[2] not in lost]

        new = [cyc for cyc in cycles if cyc[0] not in filed]
        first, pos, prev, nxt = self.first, self.pos, self.prev, self.nxt
        for cyc in new:
            v, L = cyc[0], len(cyc)
            for i, x in enumerate(cyc):
                first[x], pos[x], prev[x], nxt[x] = v, i, cyc[i - 1], cyc[(i + 1) % L]
        found = list(_later_partners(new, _kernel_rows(g, prev, nxt), cover.n))
        fresh = sum(aligned.bit_count() + anti.bit_count() for _, aligned, anti in found)
        if fresh > budget:
            return fresh, None

        # each list fills from one side only: the gained cycle when the other
        # is kept, the lower one when both are gained (partners only later)
        filing = {}  # walked first vertex -> per side, {partner first vertex: pairs}
        for u, aligned, anti in found:
            cu, a = first[u], pos[u]
            sides = filing.get(cu)
            if sides is None:
                sides = filing[cu] = ({}, {})
            for partners, mask in zip(sides, (aligned, anti)):
                # _iter_bits, inlined: this loop runs once per filed C4
                while mask:
                    low = mask & -mask
                    y = low.bit_length() - 1
                    mask ^= low
                    cy = first[y]
                    pairs = partners.get(cy)
                    if pairs is None:
                        partners[cy] = [(a, pos[y])]
                    else:
                        pairs.append((a, pos[y]))
        for cu, (aligned, anti) in filing.items():
            pairs = aligned.pop(cu, ())
            if len(pairs) >= 2:
                pairs.sort()
                self.crossing.append((-len(pairs), cu, pairs))
            anti.pop(cu, None)  # the parallel ones: case 1 finds them
            for order, partners in ((self.aligned, aligned), (self.anti, anti)):
                for cy, pairs in partners.items():
                    if len(pairs) < 3:
                        continue
                    if cu < cy:
                        pairs.sort()
                        order.append((-len(pairs), cu, cy, pairs))
                    else:
                        order.append((-len(pairs), cy, cu, sorted((y, x) for x, y in pairs)))
        # each key is unique, so the sorts never compare two lists of pairs
        for order in (self.crossing, self.aligned, self.anti):
            order.sort()
        filed.update((cyc[0], cyc) for cyc in new)
        return fresh, index


def _candidates(cover: CycleCover, memo: _SplitMemo, index: dict):
    """``(case, switches)`` for each case-2/3/4 candidate, in search order.

    ``switches`` is None where the new cycles would be shorter than 3.  The
    buckets are the memo's orders (``index`` maps each first vertex to its
    cycle's position): case 2 takes the crossing pairs per cycle, cases 3 and
    4 the aligned and the anti-aligned pairs per cycle pair, each by
    decreasing size, then first vertex, which is index order.
    """
    cycles = cover.cycles
    # case 2: two interleaved crossing switches on one cycle, 8 changed edges
    for _, v, chords in memo.crossing:
        ci = index[v]
        L = len(cycles[ci])
        for ka, kb in iter_interleaved_pairs(chords):
            h, j = chords[ka]
            i, m = chords[kb]
            # resulting cycle lengths (i-h)+(m-j) and (j-i)+(L-(m-h))
            if (i - h) + (m - j) < 3 or (j - i) + (L - (m - h)) < 3:
                yield 2, None
                continue
            yield 2, [
                _make_c4(cover, (ci, h), (ci, j), aligned=True),
                _make_c4(cover, (ci, i), (ci, m), aligned=True),
            ]

    # case 3 / case 4: three cross-cycle switches, 12 changed edges; the
    # positions b on the higher cycle run up in case 3 and down in case 4
    for case, order, sign, finder, itertriples in (
        (3, memo.aligned, 1, find_increasing_triple, iter_increasing_triples),
        (4, memo.anti, -1, find_decreasing_triple, iter_decreasing_triples),
    ):
        for _, lower, higher, pairs in order:
            if finder(pairs) is None:
                continue
            ci, cj = index[lower], index[higher]
            lx, ly = len(cycles[ci]), len(cycles[cj])
            for ta, tb, tc in itertriples(pairs):
                a1, b1 = pairs[ta]
                a2, b2 = pairs[tb]
                a3, b3 = pairs[tc]
                # the three new cycles have exactly these lengths
                g2 = (a2 - a1) + sign * (b2 - b1)
                g3 = (a3 - a2) + sign * (b3 - b2)
                gw = (lx - (a3 - a1)) + (ly - sign * (b3 - b1))
                if g2 < 3 or g3 < 3 or gw < 3:
                    yield case, None
                    continue
                yield case, [
                    _make_c4(cover, (ci, a), (cj, b), aligned=case == 3)
                    for a, b in (pairs[ta], pairs[tb], pairs[tc])
                ]


def _plan(cover, switches, case):
    # every chord is an edge of g (a kernel row or _find_parallel's bit test),
    # so the result is a 2-factor of g; split_to_k validates the final cover.
    # A well-formed configuration always splits one cycle: anything else is a bug
    new = _toggle(cover, switches)
    if new is None or new.num_components != cover.num_components + 1:
        raise AssertionError(f"a case-{case} configuration did not split one cycle")
    return new, SwitchPlan(tuple(switches), case)


# work per split step: each implanted C4 filed from a cycle the step has not
# seen, and each pair or triple it tries, costs one unit
SWITCH_CANDIDATE_BUDGET = 500_000


def increase_by_one(g: Graph, cover: CycleCover) -> Optional[tuple[CycleCover, SwitchPlan]]:
    """One induction step: a cover with one more component, |delta| <= 12."""
    validate_cover(g, cover)
    result, _ = increase_by_one_with_diag(g, cover)
    return result


def increase_by_one_with_diag(g: Graph, cover: CycleCover, memo: Optional[_SplitMemo] = None):
    """``(step, budget_exhausted)``: ``increase_by_one``'s result, and
    whether a step that found nothing ran out of budget.

    The cover must already be a 2-factor of ``g``; it is not re-checked here.
    ``memo`` is the split run's ``_SplitMemo``.  Case 1's parallel C4 is the
    plan outright; otherwise the plan is the first well-formed candidate of
    one ``_candidates`` stream over the memo's sorted orders.  Case 1 skips
    the cycles it knows to be parallel-free, and the step files only the
    cycles it has not seen.  By the memo's invariant, the search and its
    result are those of a step without a memo, which starts from an empty one.

    ``SWITCH_CANDIDATE_BUDGET`` bounds the step's work: each implanted
    C4 it reads from a cycle the memo has not seen costs one unit, and so
    does each candidate the stream yields, one too short to try included.  A
    step that runs out stops, before filing if its new C4's alone overrun
    it.  A step without a memo reads every cycle, so under a tight budget it
    can run out where a step with one goes on.
    """
    memo = _SplitMemo(cover.n) if memo is None else memo
    budget = SWITCH_CANDIDATE_BUDGET

    # case 1: single parallel switch, 4 changed edges
    c4 = _find_parallel(g, cover, memo.parallel_free)
    if c4 is not None:
        return _plan(cover, [c4], case=1), False

    # cases 2-4: one candidate stream over the memo's pairs; a filing that
    # overruns the budget leaves it negative and the stream untried
    fresh, index = memo.buckets(g, cover, budget)
    budget -= fresh
    for case, switches in () if index is None else _candidates(cover, memo, index):
        budget -= 1
        if budget < 0:
            break
        if switches is not None:
            return _plan(cover, switches, case), False
    return None, budget < 0


@dataclass
class SplitOutcome:
    cover: Optional[CycleCover]
    plans: tuple[SwitchPlan, ...]
    sym_diff: int
    diagnostics: dict


def split_to_k(g: Graph, cover: CycleCover, k: int) -> SplitOutcome:
    """Raise the component count to exactly k, <= 12 changed edges per step.

    Never merges: ``k`` below the current count is an error, as is
    ``k > n/3`` (a 2-factor needs at least three vertices per cycle).  The
    input cover is validated once, and so is the result when a step ran.
    The split draws no randomness and reads no config: its outcome is a
    function of ``g``, ``cover`` and ``k`` alone.

    The steps share one ``_SplitMemo``, which lives only for this call.  By
    the memo's invariant the plans are those of steps that start from
    nothing, except that such a step pays ``SWITCH_CANDIDATE_BUDGET``
    units for every implanted C4 of the cover, so under a tight budget it
    can run out where a step of the run goes on.
    """
    _check_target(g.n, cover.num_components, k)
    validate_cover(g, cover)
    return _split_validated(g, cover, k)


def _check_target(n: int, ell: int, k: int) -> None:
    """Reject a target a split cannot reach: below the cover's ell cycles, or
    above n/3 (a 2-factor needs at least three vertices per cycle)."""
    if k < ell:
        raise ValueError(
            f"target k={k} below the {ell} cycles of the input cover; "
            "merging cycles is out of scope"
        )
    if 3 * k > n:
        raise ValueError(f"k={k} infeasible: a 2-factor of {n} vertices has at most {n // 3} cycles")


def _split_validated(g: Graph, cover: CycleCover, k: int) -> SplitOutcome:
    """``split_to_k`` for a cover the caller has just validated, ell <= k <= n/3.

    Each step removes cover edges and adds chords that are off the cover
    (``_toggle`` rejects a chord that is a cover edge), so it changes exactly
    those edges, and the final cover differs from the input by the xor of the
    steps' changed-edge sets: ``sym_diff`` needs no whole-cover edge set.  A
    step that finds no plan ends the run with the record
    ``{"stopped_at", "budget_exhausted"}``; a success records ``stopped_at`` k.
    """
    memo = _SplitMemo(cover.n)
    ell = cover.num_components
    changed = set()
    plans = []
    current = cover
    while current.num_components < k:
        step, exhausted = increase_by_one_with_diag(g, current, memo)
        if step is None:
            record = {"stopped_at": current.num_components, "budget_exhausted": exhausted}
            return SplitOutcome(None, tuple(plans), len(changed), record)
        new, plan = step
        for c4 in plan.switches:
            changed.symmetric_difference_update((*c4.cover_edges(current), *c4.chords))
        current = new
        plans.append(plan)
    if plans:
        validate_cover(g, current)
    sym = len(changed)
    if sym > 12 * (k - ell):
        raise AssertionError("edge budget 12(k - l) exceeded")
    return SplitOutcome(current, tuple(plans), sym, {"stopped_at": k})
