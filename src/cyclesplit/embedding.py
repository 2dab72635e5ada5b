"""Forcing many implanted C4's into a Hamilton cycle.

The pipeline: partition the vertices so that intra-part pairs have many
common neighbours (dependent-random-choice style), then repeatedly rewire the
cycle to absorb edges that are C4-rich with respect to the partition,
tracking progress in a per-part ledger of protected edge sets.  The ledger
potential (number of promoted full sets, then overflow mass, then the
implanted-C4 count itself) never decreases and strictly increases on every
accepted rewire, so the loop terminates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .graphs import CycleCover, Graph, Params, _iter_bits, bits_of, edge_key
from .rewire import RewireError, RewireRequest, second_hamilton_cycle
from .switching import count_h_edges, induced_h_edges

class PartitionError(RuntimeError):
    """Partitioning could not satisfy the common-neighbourhood invariant."""


# -- M-sets -----------------------------------------------------------------


def _witness_bits(g: Graph, x: int, y: int, z: int) -> int:
    """Vertices w with zw an edge such that xy and zw form a C4."""
    wits = 0
    if g.has_edge(y, z):
        wits |= g.neighbor_bits(z) & g.neighbor_bits(x)
    if g.has_edge(x, z):
        wits |= g.neighbor_bits(z) & g.neighbor_bits(y)
    return wits & ~((1 << x) | (1 << y))


def m_set(g: Graph, edge: tuple[int, int], threshold: int) -> int:
    """Exact M-set of an edge as a vertex bitset: the vertices z with at
    least ``threshold`` C4 witnesses.  A vertex with a witness is adjacent
    to an end of the edge, so only those neighbours are scanned."""
    x, y = edge
    if not g.has_edge(x, y):
        raise ValueError(f"edge ({x}, {y}) not in the graph")
    if threshold < 1:
        raise ValueError("M-set threshold must be positive")
    members = 0
    for z in _iter_bits((g.neighbor_bits(x) | g.neighbor_bits(y)) & ~((1 << x) | (1 << y))):
        if _witness_bits(g, x, y, z).bit_count() >= threshold:
            members |= 1 << z
    return members


class MSetCache:
    """Per-edge M-set bitmasks for one graph and threshold (graph-static)."""

    def __init__(self, g: Graph, threshold: int):
        self.g = g
        self.threshold = threshold
        self._bits: dict[tuple[int, int], int] = {}

    def member_bits(self, edge: tuple[int, int]) -> int:
        edge = edge_key(*edge)
        got = self._bits.get(edge)
        if got is None:
            got = m_set(self.g, edge, self.threshold)
            self._bits[edge] = got
        return got

    def union_bits(self, edges: Iterable[tuple[int, int]]) -> int:
        acc = 0
        for e in edges:
            acc |= self.member_bits(e)
        return acc


# -- partition ---------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    parts: tuple[frozenset[int], ...]

    @property
    def s(self) -> int:
        return len(self.parts)


def verify_partition(g: Graph, partition: Partition, threshold: int) -> bool:
    """Exhaustively check the intra-part common-neighbourhood invariant.

    Every pair inside a part is tested on the graph's own neighbour bitsets,
    independently of how the partition was built.
    """
    n = g.n
    bits = g._bits
    count = int.bit_count
    covered = 0
    for part in partition.parts:
        vs = sorted(part)
        if vs and (vs[0] < 0 or vs[-1] >= n):
            return False
        mask = bits_of(vs)
        if covered & mask:
            return False
        covered |= mask
        rows = [bits[v] for v in vs]
        for i in range(len(rows) - 1):
            if min(map(count, map(rows[i].__and__, rows[i + 1 :]))) < threshold:
                return False
    return covered == (1 << n) - 1


def _compatible_rows(g: Graph, threshold: int) -> list[int]:
    """C(u) = {v != u : |N(u) ∩ N(v)| >= threshold} as a bitset per vertex."""
    bits = g._bits
    n = g.n
    rows = [0] * n
    for u in range(n):
        bu = bits[u]
        ubit = 1 << u
        acc = 0
        for v in range(u + 1, n):
            if (bu & bits[v]).bit_count() >= threshold:
                acc |= 1 << v
                rows[v] |= ubit
        rows[u] |= acc
    return rows


def partition_vertices(
    g: Graph, threshold: int, rng: Optional[random.Random] = None
) -> Partition:
    """Partition V(G) so pairs in a part share ``threshold`` common neighbours.

    First pass mirrors the randomized recipe (random half split, random
    witness set M, colouring by M-neighbourhood prefixes); every candidate
    part is then checked directly and failures fall back to greedy
    agglomeration, so the output invariant is exact, not probabilistic.
    A final coalescing pass merges parts whenever the merged part still
    satisfies it, keeping the part count small.

    Each vertex's compatible row C(u), the vertices sharing at least the
    threshold of common neighbours with u, is computed once.  A part keeps
    its member mask and the AND of its members' rows, the vertices
    compatible with all of them, so admitting a vertex and merging two
    parts are each one mask test.  The result is then checked pair by pair
    on the graph by ``verify_partition``.  Without ``rng`` the draws come
    from ``Random(0)``.
    """
    rng = rng or random.Random(0)
    n = g.n
    if n == 0:
        return Partition(())

    candidates: list[list[int]] = []
    pool: list[int] = []
    if n >= 4:
        half = sorted(rng.sample(range(n), n // 2))
        side_a = set(half)
        side_b = set(range(n)) - side_a
        # colour size: stand-in for the ceil(2m/zeta) palette of the
        # randomized recipe, which is vacuous at desk scale
        ell = 2
        for side, other in ((side_a, side_b), (side_b, side_a)):
            witness_pool = sorted(other)
            msize = min(len(witness_pool), max(ell, round(n ** 0.5)))
            witness = sorted(rng.sample(witness_pool, msize)) if msize else []
            groups: dict[tuple, list[int]] = {}
            for v in sorted(side):
                nb = [u for u in witness if (g.neighbor_bits(v) >> u) & 1]
                if len(nb) < ell:
                    pool.append(v)
                else:
                    groups.setdefault(tuple(nb[:ell]), []).append(v)
            candidates.extend(groups[k] for k in sorted(groups))
    else:
        pool.extend(range(n))

    rows = _compatible_rows(g, threshold)
    # a part is [members, member mask, AND of the members' rows]; the
    # members keep their admission order, which the coalescing order reads
    parts: list[list] = []
    for cand in candidates:
        mask, common = 0, -1
        for v in cand:
            if not (common >> v) & 1:
                pool.extend(cand)
                break
            mask |= 1 << v
            common &= rows[v]
        else:
            parts.append([sorted(cand), mask, common])

    # greedy agglomeration: admit each vertex into the first part that keeps
    # the invariant, else open a new one (singletons satisfy it vacuously)
    for v in sorted(pool):
        for part in parts:
            if (part[2] >> v) & 1:
                part[0].append(v)
                part[1] |= 1 << v
                part[2] &= rows[v]
                break
        else:
            parts.append([[v], 1 << v, rows[v]])

    # coalesce while any merge preserves the invariant
    merged = True
    while merged:
        merged = False
        parts.sort(key=lambda p: (-len(p[0]), p[0][0]))
        for i in range(len(parts)):
            members, mask, common = parts[i]
            for j in range(i + 1, len(parts)):
                other = parts[j]
                if not other[1] & ~common:
                    parts[i] = [sorted(members + other[0]), mask | other[1], common & other[2]]
                    del parts[j]
                    merged = True
                    break
            if merged:
                break

    parts.sort(key=lambda p: p[0][0])
    partition = Partition(tuple(frozenset(p[0]) for p in parts))
    if not verify_partition(g, partition, threshold):
        raise PartitionError("partition invariant failed verification")
    return partition


# -- helper graphs -----------------------------------------------------------


def cover_floor(t_size: int) -> int:
    """Floor on |N(u) ∩ T| used when building the covering helper graph.

    Stands for |T|^(1-2*zeta), with zeta = 1/4 at desk scale.
    """
    return max(1, math.ceil(t_size ** 0.5))


def cover_graph(
    g: Graph,
    s_vertices: Iterable[int],
    t_vertices: Iterable[int],
) -> dict[int, int]:
    """Edges at S whose far endpoint sees much of T; C4-rich towards T.

    It keeps, for each v in S, the edges to the neighbours u with
    |N(u) ∩ T| at or above ``cover_floor(|T|)``.  A helper graph is returned
    as neighbour rows: vertex -> bitset of its helper neighbours, for the
    vertices that have one.
    """
    s_sorted = sorted(set(s_vertices))
    t_sorted = sorted(set(t_vertices))
    if not set(t_sorted) <= set(s_sorted):
        raise ValueError("T must be a subset of S")
    if len(t_sorted) < 1:
        raise ValueError("T must be non-empty")
    floor = cover_floor(len(t_sorted))
    tbits = bits_of(t_sorted)
    bits = g._bits
    sbits = bits_of(s_sorted)
    # the far endpoints, neighbours of S that see enough of T, are tested
    # once per vertex, not once per edge
    far = 0
    rows = {}
    for u, nbrs in enumerate(bits):
        if (nbrs & tbits).bit_count() >= floor and (row := nbrs & sbits):
            far |= 1 << u
            rows[u] = row
    for v in s_sorted:
        if row := bits[v] & far:
            rows[v] = rows.get(v, 0) | row
    return rows


def close_graph(
    g: Graph,
    s_vertices: Iterable[int],
    e_lists: Sequence[Iterable[tuple[int, int]]],
    mcache: Optional[MSetCache] = None,
) -> tuple[dict[int, int], frozenset[int]]:
    """Edges forming C4's with the given disjoint edge sets.

    Returns the helper edges, as neighbour rows like ``cover_graph``, and
    the bad set B of vertices landing outside the M-set of at least half of
    the edge sets.  Every helper edge forms a C4 with at least one listed
    edge.
    """
    sets = [frozenset(edge_key(*e) for e in el) for el in e_lists]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                raise ValueError(f"edge sets {i} and {j} overlap")
    s_sorted = sorted(set(s_vertices))
    mcache = mcache or MSetCache(g, M_SET_THRESHOLD)
    member = [mcache.union_bits(es) for es in sets]
    t = len(sets)
    bad = frozenset(
        v
        for v in s_sorted
        if 2 * sum(1 for mb in member if not (mb >> v) & 1) >= t
    )
    listed = [e for es in sets for e in es]
    rows: dict[int, int] = {}
    for v in s_sorted:
        if v in bad:
            continue
        acc = 0
        for x, y in listed:
            if v != x and v != y:
                acc |= _witness_bits(g, x, y, v)
        if row := acc & g.neighbor_bits(v):
            rows[v] = rows.get(v, 0) | row
            for u in _iter_bits(row):
                rows[u] = rows.get(u, 0) | (1 << v)
    return rows, bad


# -- good-set ledger ---------------------------------------------------------

# partition: pairwise common-neighbourhood floor (stands for n^(1-zeta)+1)
COMMON_NBR_THRESHOLD = 3
# M-set membership: witness floor (stands for n^(1-zeta))
M_SET_THRESHOLD = 2
# tolerated uncovered residue |V_i \ M(E_ij)| (stands for n^(1-eta'))
COVERAGE_SLACK = 2
# number of full sets per part (stands for n^(1-3eta'))
LEDGER_T_CAP = 8
# edges per full/unsaturated set (stands for n^(2eta'))
LEDGER_SET_CAP = 16
# saturated-part overflow size (stands for n^(1-6eta'))
OVERFLOW_CAP = 16
# protected-set ceiling for enrichment (stands for n^(1-eta))
PROTECTED_CAP = 200


@dataclass
class PartLedger:
    vertices: frozenset[int]
    bits: int
    full_sets: list[frozenset[tuple[int, int]]] = field(default_factory=list)
    overflow: frozenset[tuple[int, int]] = frozenset()

    def copy(self) -> "PartLedger":
        return PartLedger(self.vertices, self.bits, list(self.full_sets), self.overflow)

    def all_edges(self) -> set[tuple[int, int]]:
        out = set(self.overflow)
        for es in self.full_sets:
            out |= es
        return out


class GoodSetLedger:
    """Per-part bookkeeping for the enrichment loop.

    Each part carries up to ``LEDGER_T_CAP`` promoted full sets (each covering
    the part up to the slack through M-sets) plus one growing overflow set.
    Parts born smaller than the slack are saturated from the start with all
    sets empty.  An overflow set may grow while its M-sets cover at least as
    many part vertices as it has edges; in a saturated part, while the part's
    edges induce at least that many H-edges.  These per-edge rates stand for
    n^(1-2eta') and n^(1-4eta'), and are 1 at desk scale.
    """

    def __init__(self, g: Graph, partition: Partition):
        self.g = g
        self.parts: list[PartLedger] = []
        for vs in partition.parts:
            part = PartLedger(vs, bits_of(vs))
            if len(vs) <= COVERAGE_SLACK:
                part.full_sets = [frozenset() for _ in range(LEDGER_T_CAP)]
            self.parts.append(part)

    def copy(self) -> "GoodSetLedger":
        dup = object.__new__(GoodSetLedger)
        dup.g = self.g
        dup.parts = [p.copy() for p in self.parts]
        return dup

    def saturated(self, part: PartLedger) -> bool:
        return len(part.full_sets) >= LEDGER_T_CAP

    @property
    def t_sum(self) -> int:
        return sum(len(p.full_sets) for p in self.parts)

    @property
    def m_sum(self) -> int:
        return sum(len(p.overflow) for p in self.parts)

    def protected_edges(self) -> set[tuple[int, int]]:
        out = set()
        for p in self.parts:
            out |= p.all_edges()
        return out

    def residue(self, part: PartLedger, edges, mcache: MSetCache) -> int:
        """|V_i \\ M(edges)| for this part."""
        return (part.bits & ~mcache.union_bits(edges)).bit_count()

    def try_absorb(
        self,
        part: PartLedger,
        edge: tuple[int, int],
        mcache: MSetCache,
        cycle: CycleCover,
    ) -> bool:
        """Grow the part's overflow with one absorbed edge of ``cycle`` if
        the ledger growth condition holds; promote on full coverage."""
        edge = edge_key(*edge)
        if edge in part.overflow or any(edge in es for es in part.full_sets):
            return False
        grown = part.overflow | {edge}
        if self.saturated(part):
            if len(grown) > OVERFLOW_CAP:
                return False
            pool = part.all_edges() | {edge}
            if induced_h_edges(self.g, cycle, pool) < len(grown):
                return False
            part.overflow = grown
            return True
        if len(grown) > LEDGER_SET_CAP:
            return False
        covered = (part.bits & mcache.union_bits(grown)).bit_count()
        if covered < len(grown):
            return False
        part.overflow = grown
        if self.residue(part, grown, mcache) <= COVERAGE_SLACK:
            part.full_sets.append(grown)
            part.overflow = frozenset()
        return True

    def verify(self, cycle: CycleCover, mcache: MSetCache) -> None:
        """Assert the ledger invariants against the current cycle."""
        cyc_edges = cycle.edge_set()
        for part in self.parts:
            seen: set[tuple[int, int]] = set()
            for es in list(part.full_sets) + [part.overflow]:
                if not es <= cyc_edges:
                    raise AssertionError("ledger set leaked off the cycle")
                if es & seen:
                    raise AssertionError("ledger sets are not disjoint")
                seen |= es
            if len(part.full_sets) > LEDGER_T_CAP:
                raise AssertionError("too many full sets")
            for es in part.full_sets:
                if len(es) > LEDGER_SET_CAP:
                    raise AssertionError("full set over the size cap")
                if es and self.residue(part, es, mcache) > COVERAGE_SLACK:
                    raise AssertionError("full set does not cover its part")
            if self.saturated(part):
                if len(part.overflow) > OVERFLOW_CAP:
                    raise AssertionError("overflow over the saturated cap")
                if part.overflow:
                    yielded = induced_h_edges(self.g, cycle, part.all_edges())
                    if yielded < len(part.overflow):
                        raise AssertionError("saturated overflow below H yield")
            else:
                if len(part.overflow) > LEDGER_SET_CAP:
                    raise AssertionError("overflow over the size cap")
                if part.overflow:
                    covered = (part.bits & mcache.union_bits(part.overflow)).bit_count()
                    if covered < len(part.overflow):
                        raise AssertionError("overflow below partial coverage growth")
                    if self.residue(part, part.overflow, mcache) <= COVERAGE_SLACK:
                        raise AssertionError("coverable overflow left unpromoted")

    def summary(self) -> dict:
        return {
            "parts": len(self.parts),
            "t_sum": self.t_sum,
            "m_sum": self.m_sum,
            "saturated_parts": sum(1 for p in self.parts if self.saturated(p)),
            "protected_edges": len(self.protected_edges()),
        }


# -- enrichment loop ----------------------------------------------------------


@dataclass
class EnrichResult:
    cycle: CycleCover
    h_edges: int
    reached_target: bool
    iterations: int
    thomassen_calls: int
    ledger_summary: dict
    diagnostics: list[str]


def enrich(
    g: Graph,
    cycle: CycleCover,
    protected: Iterable[tuple[int, int]],
    params: Optional[Params] = None,
    rng: Optional[random.Random] = None,
    h_edges: Optional[int] = None,
) -> EnrichResult:
    """Rewire the Hamilton cycle until it hosts many implanted C4's.

    Keeps the given protected edges in every intermediate cycle.  Returns the
    target-reaching cycle, or the best cycle found at budget exhaustion with
    diagnostics.  The (t_sum, m_sum, h_count) potential never decreases.
    ``h_edges`` is ``count_h_edges(g, cycle)`` where the caller has it.

    The helper graphs and the one ``RewireRequest`` built from them change
    only with the ledger and the cycle, so they are rebuilt only after an
    accepted rewire.  Every round calls the rewire; a call on an idle
    request returns None without drawing (``RewireRequest.idle``).
    ``thomassen_calls`` counts the calls that did not raise.
    """
    params = params or Params()
    rng = rng or random.Random(params.seed)
    e0 = frozenset(edge_key(*e) for e in protected)
    if cycle.num_components != 1 or cycle.n != g.n:
        raise ValueError("enrichment requires a Hamilton cycle of the graph")
    # an empty e0 needs no check, which would pin an edge set on the caller's cover
    if e0 and not e0 <= cycle.edge_set():
        raise ValueError("protected edges must lie on the cycle")
    if len(e0) > PROTECTED_CAP:
        raise ValueError(f"protected set exceeds cap {PROTECTED_CAP}")

    h = count_h_edges(g, cycle) if h_edges is None else h_edges
    target = params.h_edge_target
    diagnostics: list[str] = []
    if h >= target:
        return EnrichResult(cycle, h, True, 0, 0, {}, ["target already met"])

    partition = partition_vertices(g, COMMON_NBR_THRESHOLD, rng)
    mcache = MSetCache(g, M_SET_THRESHOLD)
    ledger = GoodSetLedger(g, partition)
    iterations = 0
    calls = 0

    req = None
    for _ in range(params.enrich_rounds):
        if h >= target:
            break
        if req is None:
            helper_rows: list[dict[int, int]] = []
            bad_union: set[int] = set()
            all_rows = [0] * g.n
            for part in ledger.parts:
                if len(part.vertices) < 2:
                    helper_rows.append({})
                    continue
                if ledger.saturated(part):
                    helper, bad = close_graph(g, part.vertices, part.full_sets, mcache)
                    bad_union |= bad
                else:
                    tbits = part.bits & ~mcache.union_bits(part.overflow)
                    t_vertices = list(_iter_bits(tbits))
                    helper = cover_graph(g, part.vertices, t_vertices)
                helper_rows.append(helper)
                for v, row in helper.items():
                    all_rows[v] |= row
            # the helper edges are graph edges, so these off-cycle rows are
            # the request's usable edges
            prev, nxt = cycle.prev_next
            off_rows = [
                row & ~((1 << prev[v]) | (1 << nxt[v])) for v, row in enumerate(all_rows)
            ]
            if not any(off_rows):
                diagnostics.append("helper graph empty")
                break
            # vertices the helpers cannot serve play the role of bad vertices
            bad_union.update(v for v, row in enumerate(off_rows) if not row)
            # the rewire's degree check counts desirable cycle edges too, so
            # the request takes the whole rows
            prot = frozenset(e0 | ledger.protected_edges())
            req = RewireRequest(g, cycle, prot, tuple(all_rows), frozenset(bad_union))
            if len(req.blocked) >= g.n:
                diagnostics.append("every vertex is bad or protected")
                break
        try:
            res = second_hamilton_cycle(req, rng, params)
        except RewireError as exc:
            diagnostics.append(f"rewire precondition failed: {exc}")
            break
        calls += 1
        if res is None:
            diagnostics.append("rewire attempt exhausted its budget")
            continue
        new_cycle = res.cycle
        trial = ledger.copy()
        for e in sorted(res.absorbed):
            u, v = e
            for part, rows in zip(trial.parts, helper_rows):
                if (rows.get(u, 0) >> v) & 1 and trial.try_absorb(part, e, mcache, new_cycle):
                    break
        new_h = count_h_edges(g, new_cycle)
        if (trial.t_sum, trial.m_sum, new_h) <= (ledger.t_sum, ledger.m_sum, h):
            diagnostics.append("rewire gave no potential gain; discarded")
            continue
        ledger = trial
        cycle = new_cycle
        h = new_h
        req = None
        iterations += 1
        if e0 and not e0 <= cycle.edge_set():
            raise AssertionError("protected edge lost during enrichment")
        ledger.verify(cycle, mcache)
    else:
        if h < target:
            diagnostics.append(f"budget exhausted at h={h} < target={target}")
    return EnrichResult(
        cycle, h, h >= target, iterations, calls, ledger.summary(), diagnostics
    )
