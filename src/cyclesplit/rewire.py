"""Second-Hamilton-cycle machinery with protected and desirable edges.

Given a Hamilton cycle, a small protected edge set E on it, and a graph G' of
desirable edges, we look for a different Hamilton cycle that keeps E, absorbs
at least one G'-edge, and differs only at a sparse switch set S of vertices:
the cycle minus S is left untouched.  S is drawn at random from the vertices
far from the protected region (each with probability 1/sqrt(n ln n)); a valid
draw is one that is cycle-independent and dominates everything outside the
protected region in G' minus the cycle.  Re-linking the fixed path system
through S is a complete constrained backtracking search; below a size cutoff
an exhaustive Hamilton search (protected edges forced, the old cycle
excluded) stands in when sampling fails.

A failed call is retried with the same request, so only the random draws and
what depends on them are redone per call.  The request derives, once, every
fact that neither the random stream nor ``Params`` can change: the blocked
set, the desirable and cycle neighbour rows and from them the allowed and
off-cycle neighbour bitsets, the clear candidates, the sampler's targets and
its verdict that some target can never be dominated, the usable-edge count,
the desk-scale seed pairs, the exhaustive search's answer and, from these,
whether a call can do anything at all (``idle``); a call on an idle request
returns None once its checks pass, drawing nothing.  The relink search carries
its end vertex and the pieces placed so far, builds a cycle only when it
closes one that differs from the original; a request never repeats a failed
desk-scale search.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Optional, Union

from .graphs import CycleCover, Graph, Params, _iter_bits, bits_of, edge_key


# switch-set draws per sampler call, and desk-scale rounds per rewire call
SAMPLE_RETRIES = 32
# node budget of each relink and exhaustive search
REWIRE_NODE_BUDGET = 200_000
# the exhaustive Hamilton search stands in only up to this many vertices
EXHAUSTIVE_CUTOFF = 14


class RewireError(ValueError):
    """A rewire request violates its invariants."""


@dataclass(frozen=True)
class RewireRequest:
    """Inputs for one rewiring attempt.

    ``graph`` hosts the cycle; ``desirable`` is a subgraph on the same
    vertices whose edges we want to pull into the new cycle, given as an
    edge set or, as ``enrich`` gives it, as a tuple of symmetric per-vertex
    neighbour rows;
    ``protected`` lists cycle edges that must survive; ``bad`` holds vertices
    exempt from the degree requirement.

    ``enrich`` passes one request to every call until a rewire lands, so the
    request derives these facts once, on first use: the blocked set B'
    (``blocked``), the per-vertex rows ``desirable_bits`` and ``cycle_bits``
    and from them ``allowed_bits`` and ``off_cycle_bits``, the clear
    candidates (``clear``), the sampler's ``targets`` and its ``undominable``
    verdict, ``usable_count``, the desk-scale phase's seed pairs
    (``seed_rotation``), the exhaustive fallback's cycle
    (``exhaustive_cycle``) and the ``idle`` verdict, which
    ``second_hamilton_cycle`` reads to return None without drawing.
    None of them reads the random stream or ``Params``.  ``usable_edges``
    generates the usable edges from the rows in sorted order, so a caller
    reads only as many as it needs.
    """

    graph: Graph
    cycle: CycleCover
    protected: frozenset[tuple[int, int]]
    desirable: Union[frozenset[tuple[int, int]], tuple[int, ...]]
    bad: frozenset[int] = frozenset()

    @cached_property
    def blocked(self) -> frozenset[int]:
        """B' = bad vertices plus endpoints of protected edges."""
        return self.bad.union(*self.protected)

    @cached_property
    def desirable_bits(self) -> list[int]:
        """Per vertex, its desirable neighbours that are graph neighbours."""
        rows = self.desirable
        if not isinstance(rows, tuple):
            rows = [0] * self.graph.n
            for u, v in self.desirable:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return [row & nbrs for row, nbrs in zip(rows, self.graph._bits)]

    @cached_property
    def cycle_bits(self) -> list[int]:
        """Per vertex, its two cycle neighbours."""
        prev, nxt = self.cycle.prev_next
        return [(1 << p) | (1 << q) for p, q in zip(prev, nxt)]

    @cached_property
    def allowed_bits(self) -> list[int]:
        """Neighbour bitsets of the desirable edges plus the cycle."""
        return [d | c for d, c in zip(self.desirable_bits, self.cycle_bits)]

    @cached_property
    def off_cycle_bits(self) -> list[int]:
        """Desirable neighbours of each vertex, its two cycle neighbours removed."""
        return [d & ~c for d, c in zip(self.desirable_bits, self.cycle_bits)]

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
        desirable neighbours, so that no draw can dominate it."""
        off_bits = self.off_cycle_bits
        cand_bits = bits_of(self.clear)
        return any(not (off_bits[t] & cand_bits) for t in self.targets)

    @cached_property
    def usable_count(self) -> int:
        """The number of desirable edges off the cycle."""
        return sum(map(int.bit_count, self.off_cycle_bits)) // 2

    def usable_edges(self) -> Iterator[tuple[int, int]]:
        """The desirable edges off the cycle, generated in sorted order."""
        for u, row in enumerate(self.off_cycle_bits):
            for v in _iter_bits(row >> (u + 1)):
                yield u, u + 1 + v

    @cached_property
    def exhaustive_cycle(self) -> Optional[CycleCover]:
        """The exhaustive search's second Hamilton cycle (protected edges
        forced, the original excluded), or None; it draws nothing, so a
        request runs it once.  Only read up to ``EXHAUSTIVE_CUTOFF``
        vertices."""
        return _exhaustive_second_cycle(
            self.graph.n, self.allowed_bits, self.protected, self.cycle, REWIRE_NODE_BUDGET
        )

    @cached_property
    def idle(self) -> bool:
        """True iff a rewire call on this request could only return None,
        drawing nothing: it has no usable edge, or its sampler cannot draw
        (no clear candidate, or an undominable target), it has no
        desk-scale seed pair, and it has no exhaustive fallback (more than
        ``EXHAUSTIVE_CUTOFF`` vertices, or the search finds nothing).

        ``second_hamilton_cycle`` reads it after its checks and returns None
        when it holds.  That runs no search a call would not run: the call
        reads ``seed_rotation`` in its desk-scale phase anyway, and
        ``exhaustive_cycle`` is read here only when neither the sampler nor
        a seed pair can draw, where the call's last phase reads it."""
        if not self.usable_count:
            return True
        if (self.clear and not self.undominable) or self.seed_rotation:
            return False
        return self.graph.n > EXHAUSTIVE_CUTOFF or self.exhaustive_cycle is None

    @cached_property
    def _failed_relinks(self) -> set[frozenset[int]]:
        """The switch sets of desk-scale relinks that found no cycle; the
        relink draws nothing, so each would fail again."""
        return set()

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
    used_fallback: bool = False


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


def sample_switch_set(
    req: RewireRequest,
    rng: random.Random,
    params: Optional[Params] = None,
) -> Optional[frozenset[int]]:
    """Draw a switch set from the vertices clear of the blocked region.

    Candidates A are the vertices outside B' = ``req.blocked`` and its
    cycle neighbourhood; each lands in S independently with the sampling
    probability.  A draw is returned only if it is cycle-independent and
    dominates everything outside B' in the desirable graph minus the cycle.
    None after the retry budget.
    """
    params = params or Params()
    n = req.graph.n
    if len(req.blocked) >= n:
        raise RewireError("blocked set covers every vertex")
    candidates = req.clear
    if not candidates:
        return None
    if req.undominable:
        return None
    targets = req.targets
    off_bits = req.off_cycle_bits
    p = params.sampling_probability(n)
    for _ in range(SAMPLE_RETRIES):
        s = [v for v in candidates if rng.random() < p]
        if not s:
            continue
        s_bits = bits_of(s)
        independent = True
        for v in s:
            a, b = req.cycle.cycle_neighbors(v)
            if (s_bits >> a) & 1 or (s_bits >> b) & 1:
                independent = False
                break
        if not independent:
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
    allowed_bits: list[int],
    budget: int,
) -> Optional[CycleCover]:
    """Complete search over re-insertions of S into the fixed path system.

    The new cycle must alternate the |S| paths (each in either direction)
    with the S vertices, every junction using an allowed edge.  The first
    arrangement other than the original cycle wins.  Every edge inside a
    path is a cycle edge, so an arrangement is the original cycle exactly
    when all its junction edges are cycle edges; the search carries that
    verdict and the current end vertex, and builds the cycle only at a close.
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
    used_s = set()
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

    def extend(end: int, changed: bool) -> Optional[CycleCover]:
        nonlocal nodes
        nodes -= 1
        if nodes < 0:
            return None
        remaining = [v for v in s_sorted if v not in used_s]
        if len(pieces) == k - 1:
            # all segments placed: the single remaining S vertex closes the loop
            v = remaining[0]
            # v's two junctions need no test: if every earlier junction is a
            # cycle edge, the path before v is the cycle minus v, whose ends
            # are v's cycle neighbours, so the arrangement is the original
            if changed and (allowed_bits[end] >> v) & 1 and (allowed_bits[v] >> start) & 1:
                return close(v)
            return None
        for v in remaining:
            if not (allowed_bits[end] >> v) & 1:
                continue
            v_changed = changed or end not in near[v]
            for si in range(1, k):
                if seg_used[si]:
                    continue
                seg = segments[si]
                orientations = (seg,) if len(seg) == 1 else (seg, seg[::-1])
                for run in orientations:
                    if not (allowed_bits[v] >> run[0]) & 1:
                        continue
                    seg_used[si] = True
                    used_s.add(v)
                    pieces.append((v, run))
                    found = extend(run[-1], v_changed or run[0] not in near[v])
                    pieces.pop()
                    used_s.discard(v)
                    seg_used[si] = False
                    if found is not None:
                        return found
                    if nodes < 0:
                        return None
        return None

    return extend(anchor[-1], False)


def _exhaustive_second_cycle(
    n: int,
    allowed_bits: list[int],
    forced: frozenset[tuple[int, int]],
    original: CycleCover,
    budget: int,
) -> Optional[CycleCover]:
    """Backtracking Hamilton search with forced edges, skipping ``original``."""
    forced_at = [[] for _ in range(n)]
    for u, v in forced:
        forced_at[u].append(v)
        forced_at[v].append(u)
    if any(len(f) > 2 for f in forced_at):
        return None
    nodes = [budget]

    path = [0]
    on_path = 1  # bitmask

    def dfs() -> Optional[CycleCover]:
        nonlocal on_path
        nodes[0] -= 1
        if nodes[0] < 0:
            return None
        v = path[-1]
        at_start = len(path) == 1
        prev = -1 if at_start else path[-2]
        musts = forced_at[v] if at_start else [w for w in forced_at[v] if w != prev]
        if len(path) == n:
            # closing edge (v, 0): v's leftover forced edge must be it, and
            # the start's forced edges must be among its two cycle edges
            if (
                (allowed_bits[v] & 1)
                and all(w == 0 for w in musts)
                and all(w == path[1] or w == v for w in forced_at[0])
            ):
                found = CycleCover([path], n)
                if found != original:
                    return found
            return None
        if not at_start and len(musts) > 1:
            return None
        if musts:
            candidates = [w for w in sorted(musts) if not (on_path >> w) & 1]
        else:
            candidates = list(_iter_bits(allowed_bits[v] & ~on_path))
        for w in candidates:
            if not (allowed_bits[v] >> w) & 1:
                continue
            path.append(w)
            on_path |= 1 << w
            found = dfs()
            path.pop()
            on_path &= ~(1 << w)
            if found is not None:
                return found
            if nodes[0] < 0:
                return None
        return None

    return dfs()


def second_hamilton_cycle(
    req: RewireRequest,
    rng: random.Random,
    params: Optional[Params] = None,
) -> Optional[RewireResult]:
    """A different Hamilton cycle keeping the protected edges.

    On success the result also absorbs at least one desirable off-cycle edge
    and only touches edges incident to its switch set.  None when every
    sampled switch set fails and the instance is above the exhaustive cutoff,
    and at once, after the request checks and the degree precondition (or
    its desk-scale warning), when the request is idle (``RewireRequest.idle``).
    """
    params = params or Params()
    cycle = req.cycle
    n = req.graph.n
    if cycle.num_components != 1 or cycle.n != n:
        raise RewireError("rewiring requires a Hamilton cycle of the host graph")
    cyc_edges = cycle.edge_set()
    if not req.protected <= cyc_edges:
        raise RewireError("protected edges must lie on the cycle")
    blocked = req.blocked
    if len(blocked) >= n:
        raise RewireError("blocked set covers every vertex")
    # degree precondition on the desirable graph
    if params.thomassen_degree_floor is None:
        floor = math.sqrt(n) * math.log(n) ** 2 + 3 * len(blocked) + 2
        deg = [row.bit_count() for row in req.desirable_bits]
        short = [v for v in range(n) if v not in blocked and deg[v] < floor]
        if short:
            raise RewireError(
                f"vertex {short[0]} has desirable degree {deg[short[0]]} < {floor:.1f}"
            )
    else:
        warnings.warn(
            "rewire degree precondition overridden at desk scale",
            stacklevel=2,
        )

    if req.idle:
        return None

    for _ in range(SAMPLE_RETRIES):
        s = sample_switch_set(req, rng, params)
        if s is None:
            break
        found = _relink(cycle, s, req.allowed_bits, REWIRE_NODE_BUDGET)
        if found is not None:
            return _package(req, found, s, used_fallback=False)

    # Desk-scale phase: the full-domination draw above needs degrees around
    # sqrt(n) log^2 n to succeed, so at reachable sizes we instead seed one
    # usable edge into the switch set and pad with random extras.  The relink
    # search and the post-hoc checks carry correctness either way.
    p_relax = min(0.3, max(params.sampling_probability(n), 6.0 / max(1, len(req.clear))))
    for seed in req.seed_rotation:
        s = frozenset(_seeded_switch_set(cycle, seed, req.clear, p_relax, rng))
        if s in req._failed_relinks:
            continue
        found = _relink(cycle, s, req.allowed_bits, REWIRE_NODE_BUDGET)
        if found is not None:
            return _package(req, found, s, used_fallback=False)
        req._failed_relinks.add(s)

    if n <= EXHAUSTIVE_CUTOFF:
        found = req.exhaustive_cycle
        if found is not None:
            changed = found.edge_set() ^ cyc_edges
            s_post = frozenset(v for e in changed for v in e)
            return _package(req, found, s_post, used_fallback=True)
    return None


def _seeded_switch_set(
    cycle: CycleCover,
    seed: tuple[int, int],
    clear: tuple[int, ...],
    p_extra: float,
    rng: random.Random,
) -> set[int]:
    """Switch set built around a usable edge's seed pair (see
    ``RewireRequest.seed_rotation``), padded with random clear extras."""
    s = set(seed)
    for v in clear:
        if v not in s and rng.random() < p_extra:
            na, nb = cycle.cycle_neighbors(v)
            if na not in s and nb not in s:
                s.add(v)
    return s


def _package(req, new_cycle, switch_set, used_fallback):
    absorbed = frozenset(
        e for e in (new_cycle.edge_set() - req.cycle.edge_set())
    )
    if not req.protected <= new_cycle.edge_set():
        raise AssertionError("protected edge lost during rewiring")
    if not absorbed:
        raise AssertionError("rewiring produced the original cycle")
    return RewireResult(new_cycle, frozenset(switch_set), absorbed, used_fallback)
