"""Second-Hamilton-cycle machinery with protected edges.

Given a Hamilton cycle of a graph G and a small protected edge set E on it,
we look for a different Hamilton cycle of G that keeps E, absorbs at least
one edge of G off the cycle, and differs only at a sparse switch set S of
vertices: the cycle minus S is left untouched.  Every edge of G is
desirable (the paper's G' is taken as G).  S is drawn at random from the
vertices far from the protected region (each with probability
1/sqrt(n ln n)); a valid draw is one that is cycle-independent and
dominates everything outside the protected region in G minus the cycle.
Re-linking the fixed path system through S is a complete constrained
backtracking search.  The pipeline's fallback walk calls the rewire above
its tiny-n cutoff and reads the exhaustive enumerator ``_hamilton_cycles``
at or below it.

A ``RewireRequest`` derives, once, every fact that neither the random
stream nor ``Params`` can change (listed on the class).  A call relinks one
stream of switch-set proposals, the sampler's and then the desk-scale
seeded ones, and skips each that has already failed in the call: the
relink draws nothing, so it would fail again.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Optional

from .graphs import CycleCover, Graph, Params, _iter_bits, bits_of, edge_key


# switch-set draws per sampler call, and desk-scale rounds per rewire call
SAMPLE_RETRIES = 32
# node budget of each relink, and of the walk's Hamilton-cycle enumerator
REWIRE_NODE_BUDGET = 200_000


class RewireError(ValueError):
    """A rewire request violates its invariants."""


@dataclass(frozen=True)
class RewireRequest:
    """Inputs for one rewiring attempt.

    ``graph`` hosts the Hamilton cycle ``cycle``, and each graph edge off
    the cycle is one the new cycle may absorb; ``protected`` lists cycle
    edges that must survive.

    The request derives these facts on first use, none of them from the
    random stream or ``Params``: the ``fault`` verdict that both entry
    points raise, the blocked set B' (``blocked``), the per-vertex rows
    ``cycle_bits`` and ``off_cycle_bits``, the clear candidates
    (``clear``), the sampler's ``targets`` and its ``undominable`` verdict,
    ``usable_count`` and the desk-scale phase's seed pairs
    (``seed_rotation``).  ``usable_edges`` generates the usable edges from
    the rows in sorted order, so a caller reads only as many as it needs.
    """

    graph: Graph
    cycle: CycleCover
    protected: frozenset[tuple[int, int]]

    @cached_property
    def fault(self) -> Optional[str]:
        """Why no rewire call can take this request, or None."""
        n = self.graph.n
        if (
            self.cycle.num_components != 1
            or self.cycle.n != n
            or any(c & ~row for c, row in zip(self.cycle_bits, self.graph._bits))
        ):
            return "rewiring requires a Hamilton cycle of the host graph"
        # an empty set needs no check, which would pin an edge set on the
        # caller's cover
        if self.protected and not self.protected <= self.cycle.edge_set():
            return "protected edges must lie on the cycle"
        if len(self.blocked) >= n:
            return "blocked set covers every vertex"
        return None

    @cached_property
    def blocked(self) -> frozenset[int]:
        """B' = the endpoints of the protected edges."""
        return frozenset().union(*self.protected)

    @cached_property
    def cycle_bits(self) -> list[int]:
        """Per vertex, its two cycle neighbours."""
        prev, nxt = self.cycle.prev_next
        return [(1 << p) | (1 << q) for p, q in zip(prev, nxt)]

    @cached_property
    def off_cycle_bits(self) -> list[int]:
        """Graph neighbours of each vertex, its two cycle neighbours removed."""
        return [row & ~c for row, c in zip(self.graph._bits, self.cycle_bits)]

    @cached_property
    def clear(self) -> tuple[int, ...]:
        """Vertices outside the blocked set and its cycle neighbourhood, sorted."""
        blocked = self.blocked
        near = blocked.union(*map(self.cycle.cycle_neighbors, blocked))
        return tuple(v for v in range(self.cycle.n) if v not in near)

    @cached_property
    def targets(self) -> tuple[int, ...]:
        """The vertices a sampled switch set must dominate: all but B', sorted."""
        blocked = self.blocked
        return tuple(v for v in range(self.graph.n) if v not in blocked)

    @cached_property
    def undominable(self) -> bool:
        """True iff some target has no clear candidate among its off-cycle
        neighbours, so that no draw can dominate it."""
        off_bits = self.off_cycle_bits
        cand_bits = bits_of(self.clear)
        return any(not (off_bits[t] & cand_bits) for t in self.targets)

    @cached_property
    def usable_count(self) -> int:
        """The number of graph edges off the cycle."""
        return sum(map(int.bit_count, self.off_cycle_bits)) // 2

    def usable_edges(self) -> Iterator[tuple[int, int]]:
        """The graph edges off the cycle, generated in sorted order."""
        for u, row in enumerate(self.off_cycle_bits):
            for v in _iter_bits(row >> (u + 1)):
                yield u, u + 1 + v

    @cached_property
    def seed_rotation(self) -> tuple[tuple[int, int], ...]:
        """The seed pairs of desk-scale rounds 0 .. SAMPLE_RETRIES - 1, in order.

        Round r tries usable edge r mod ``usable_count``.  The seed pair
        (a, x) of the edge (u, w) is u itself and a cycle neighbour of w,
        both clear, distinct and not cycle neighbours of each other, so the
        relink can route the edge; a round whose edge has no seed pair draws
        nothing and is left out.  Only the first min(``usable_count``,
        SAMPLE_RETRIES) edges are read, so only they are generated.
        """
        count = self.usable_count
        clear = set(self.clear)
        nbrs = self.cycle.cycle_neighbors

        def seed(edge):
            for a, b in (edge, edge[::-1]):
                if a in clear:
                    for x in nbrs(b):
                        if x in clear and x != a and x not in nbrs(a):
                            return a, x
            return None

        pairs = [seed(e) for e in islice(self.usable_edges(), SAMPLE_RETRIES)]
        return tuple(
            pair
            for r in range(SAMPLE_RETRIES if count else 0)
            if (pair := pairs[r % count]) is not None
        )


@dataclass
class RewireResult:
    cycle: CycleCover
    switch_set: frozenset[int]
    absorbed: frozenset[tuple[int, int]]


def check_independent_dominating(g: Graph, cycle: CycleCover, s: Iterable[int]) -> bool:
    """True iff S is cycle-independent and dominates N_cycle(S) off the cycle.

    Cycle-independent: no two members consecutive on the cycle.  Domination:
    every cycle-neighbour of S has an S-neighbour through an edge of the
    graph that is not a cycle edge.
    """
    s = set(s)
    if not s:
        return True
    if not s <= set(range(g.n)):
        raise ValueError("switch set contains vertices outside the graph")
    cyc_edges = cycle.edge_set()
    boundary = set()
    for v in s:
        a, b = cycle.cycle_neighbors(v)
        if a in s or b in s:
            return False
        boundary.add(a)
        boundary.add(b)
    boundary -= s
    for w in boundary:
        if not any(
            g.has_edge(w, x) and edge_key(w, x) not in cyc_edges for x in s
        ):
            return False
    return True


def sampling_probability(n: int) -> float:
    """Each clear vertex's chance of joining a switch set: 1/sqrt(n ln n)."""
    if n < 3:
        return 1.0
    return min(1.0, 1.0 / math.sqrt(n * math.log(n)))


def sample_switch_set(req: RewireRequest, rng: random.Random) -> Optional[frozenset[int]]:
    """Draw a switch set from the vertices clear of the blocked region.

    Candidates A are the vertices outside B' = ``req.blocked`` and its
    cycle neighbourhood; each lands in S independently with the sampling
    probability.  A draw is returned only if it is cycle-independent and
    dominates everything outside B' in the graph minus the cycle.
    None after the retry budget; ``RewireError`` on a request no call can
    take (``RewireRequest.fault``).
    """
    if req.fault is not None:
        raise RewireError(req.fault)
    candidates = req.clear
    if not candidates or req.undominable:
        return None
    targets = req.targets
    off_bits = req.off_cycle_bits
    cycle_bits = req.cycle_bits
    p = sampling_probability(req.graph.n)
    for _ in range(SAMPLE_RETRIES):
        s = [v for v in candidates if rng.random() < p]
        if not s:
            continue
        s_bits = bits_of(s)
        if any(cycle_bits[v] & s_bits for v in s):
            continue
        if all(off_bits[t] & s_bits for t in targets):
            return frozenset(s)
    return None


def _segments(cycle: CycleCover, s: Iterable[int]) -> list[tuple[int, ...]]:
    """Maximal runs of non-S vertices in cyclic order (S is cycle-independent).

    Run i follows the i-th S vertex in cycle order.
    """
    assert cycle.num_components == 1
    seq = cycle.cycles[0]
    locator = cycle.locator
    positions = sorted(locator[v][1] for v in s)
    segments = [seq[p + 1 : q] for p, q in zip(positions, positions[1:])]
    segments.append(seq[positions[-1] + 1 :] + seq[: positions[0]])
    if not all(segments):
        raise RewireError("switch set is not cycle-independent")
    return segments


def _relink(
    cycle: CycleCover,
    s: Iterable[int],
    rows: list[int],
    budget: int,
) -> Optional[CycleCover]:
    """Complete search over re-insertions of S into the fixed path system.

    The new cycle must alternate the |S| paths (each in either direction)
    with the S vertices, every junction an edge of ``rows``.  The first
    arrangement other than the original cycle wins.  Every edge inside a
    path is a cycle edge, so an arrangement is the original cycle exactly
    when all its junction edges are cycle edges; the search carries that
    verdict and the current end vertex, and builds the cycle only at a close.
    A node that no arrangement can complete (``dead``) still counts against
    the budget but is not expanded: the search meets the same arrangements
    in the same order, minus subtrees that hold none, so it returns what the
    unpruned search returns with at most as many nodes.  Without the cut, a
    switch set of ten or more vertices on a sparse host could spend tens of
    thousands of nodes on arrangements that fail only at their close.
    """
    s_sorted = sorted(s)
    if len(s_sorted) < 2:
        return None
    segments = _segments(cycle, s_sorted)
    k = len(segments)
    n = cycle.n
    nodes = budget

    anchor = segments[0]
    start = anchor[0]
    seg_used = [False] * k
    seg_used[0] = True
    ends = [(seg[0], seg[-1]) for seg in segments]
    rest = bits_of(s_sorted)  # the S vertices not placed yet
    # (S vertex, run) pieces placed after the anchor, in order
    pieces: list[tuple[int, tuple[int, ...]]] = []
    # a junction (x, v) is a cycle edge iff x is a cycle neighbour of v
    near = {v: cycle.cycle_neighbors(v) for v in s_sorted}

    def close(last: int) -> CycleCover:
        seq = list(anchor)
        for v, run in pieces:
            seq.append(v)
            seq.extend(run)
        seq.append(last)
        return CycleCover([seq], n)

    def dead(end: int) -> bool:
        """True if no arrangement completes the current one: an open run
        end or the start has no unplaced S neighbour (a run needs two
        distinct ones between its ends), or an unplaced S vertex has fewer
        than two neighbours among the open ends, ``end`` and the start."""
        if not rows[start] & rest:
            return True
        ports = (1 << end) | (1 << start)
        for si in range(1, k):
            if not seg_used[si]:
                a, b = ends[si]
                ra, rb = rows[a] & rest, rows[b] & rest
                both = ra | rb
                if not (ra and rb and both & (both - 1)):
                    return True
                ports |= (1 << a) | (1 << b)
        for v in _iter_bits(rest):
            row = rows[v] & ports
            if not row & (row - 1):
                return True
        return False

    def extend(end: int, changed: bool) -> Optional[CycleCover]:
        nonlocal nodes, rest
        nodes -= 1
        if nodes < 0:
            return None
        if len(pieces) < k - 1 and dead(end):
            return None
        remaining = list(_iter_bits(rest))
        if len(pieces) == k - 1:
            # all segments placed: the single remaining S vertex closes the loop
            v = remaining[0]
            # v's two junctions need no test: if every earlier junction is a
            # cycle edge, the path before v is the cycle minus v, whose ends
            # are v's cycle neighbours, so the arrangement is the original
            if changed and (rows[end] >> v) & 1 and (rows[v] >> start) & 1:
                return close(v)
            return None
        for v in remaining:
            if not (rows[end] >> v) & 1:
                continue
            v_changed = changed or end not in near[v]
            for si in range(1, k):
                if seg_used[si]:
                    continue
                seg = segments[si]
                orientations = (seg,) if len(seg) == 1 else (seg, seg[::-1])
                for run in orientations:
                    if not (rows[v] >> run[0]) & 1:
                        continue
                    seg_used[si] = True
                    rest ^= 1 << v
                    pieces.append((v, run))
                    found = extend(run[-1], v_changed or run[0] not in near[v])
                    pieces.pop()
                    rest ^= 1 << v
                    seg_used[si] = False
                    if found is not None:
                        return found
                    if nodes < 0:
                        return None
        return None

    return extend(anchor[-1], False)


def _hamilton_cycles(
    n: int,
    rows: list[int],
    forced: frozenset[tuple[int, int]],
    budget: int,
) -> Iterator[CycleCover]:
    """Each Hamilton cycle of the neighbour rows that keeps the forced edges, once.

    A depth-first search from vertex 0 that extends the path by a forced
    edge where the end vertex has one left, else by each neighbour
    off the path in increasing order.  It meets each cycle in both
    orientations and yields it the first time, as its ``CycleCover`` value.
    The search stops for good after ``budget`` nodes, however many items the
    caller has read.
    """
    forced_at = [[] for _ in range(n)]
    for u, v in forced:
        forced_at[u].append(v)
        forced_at[v].append(u)
    if any(len(f) > 2 for f in forced_at):
        return
    seen = set()  # canonical tuples of the cycles yielded
    path = [0]
    on_path = 1  # bitmask
    frames = []  # per path vertex, the candidates for the next one
    nodes = budget
    while True:
        nodes -= 1
        if nodes < 0:
            return
        v = path[-1]
        depth = len(path)
        musts = forced_at[v]
        if musts and depth > 1:
            musts = [w for w in musts if w != path[-2]]
        candidates = ()
        if depth == n:
            # closing edge (v, 0): v's leftover forced edge must be it, and
            # the start's forced edges must be among its two cycle edges
            if (
                (rows[v] & 1)
                and all(w == 0 for w in musts)
                and all(w == path[1] or w == v for w in forced_at[0])
            ):
                # the path starts at vertex 0, so it is canonical read one way
                cyc = tuple(path) if path[1] < v else (0, *path[:0:-1])
                if cyc not in seen:
                    seen.add(cyc)
                    yield CycleCover._from_canonical((cyc,), n)
        elif not musts:
            candidates = _iter_bits(rows[v] & ~on_path)
        elif depth == 1 or len(musts) == 1:
            row = rows[v] & ~on_path
            candidates = [w for w in sorted(musts) if (row >> w) & 1]
        frames.append(iter(candidates))
        # step to the next unvisited child, backing up past finished vertices
        while (w := next(frames[-1], -1)) < 0:
            frames.pop()
            if not frames:
                return
            on_path ^= 1 << path.pop()
        path.append(w)
        on_path |= 1 << w


def second_hamilton_cycle(
    req: RewireRequest,
    rng: random.Random,
    params: Optional[Params] = None,
) -> Optional[RewireResult]:
    """A different Hamilton cycle keeping the protected edges.

    On success the result also absorbs at least one graph edge off the
    cycle and only touches edges incident to its switch set.  Raises
    ``RewireError`` on a request no call can take (``RewireRequest.fault``)
    and when a vertex outside B' has degree below
    ``params.thomassen_degree_floor`` (the paper's sqrt(n) ln^2 n + 3|B'| + 2
    exceeds every reachable host's degrees, so the default is 1).  None when
    every proposed switch set fails.
    """
    params = params or Params()
    if req.fault is not None:
        raise RewireError(req.fault)
    g = req.graph
    blocked = req.blocked
    floor = params.thomassen_degree_floor
    short = next((v for v in range(g.n) if v not in blocked and g.degree(v) < floor), None)
    if short is not None:
        raise RewireError(f"vertex {short} has desirable degree {g.degree(short)} < {floor}")

    misses = set()  # switch sets this call relinked without finding a cycle
    for s in _proposals(req, rng):
        if s not in misses:
            found = _relink(req.cycle, s, g._bits, REWIRE_NODE_BUDGET)
            if found is not None:
                return _package(req, found, s)
            misses.add(s)
    return None


def _proposals(req: RewireRequest, rng: random.Random) -> Iterator[frozenset[int]]:
    """The switch sets a call relinks, in order: the sampler's draws until it
    gives up, at most ``SAMPLE_RETRIES`` of them, then one set per
    desk-scale round.

    The full-domination draw needs degrees around sqrt(n) log^2 n to
    succeed, so at reachable sizes each desk-scale round instead starts from
    a usable edge's seed pair (``RewireRequest.seed_rotation``) and pads it
    with random clear extras, none a cycle neighbour of a member.  The
    relink search and the post-hoc checks carry correctness either way."""
    for _ in range(SAMPLE_RETRIES):
        s = sample_switch_set(req, rng)
        if s is None:
            break
        yield s
    clear = req.clear
    p_extra = min(0.3, max(sampling_probability(req.graph.n), 6.0 / max(1, len(clear))))
    nbrs = req.cycle.cycle_neighbors
    for seed in req.seed_rotation:
        s = set(seed)
        for v in clear:
            if v not in s and rng.random() < p_extra:
                na, nb = nbrs(v)
                if na not in s and nb not in s:
                    s.add(v)
        yield frozenset(s)


def _package(req, new_cycle, switch_set):
    absorbed = new_cycle.edge_set().difference(req.cycle.iter_edges())
    if not req.protected <= new_cycle.edge_set():
        raise AssertionError("protected edge lost during rewiring")
    if not absorbed:
        raise AssertionError("rewiring produced the original cycle")
    return RewireResult(new_cycle, frozenset(switch_set), absorbed)
