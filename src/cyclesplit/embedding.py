"""Partitioning the vertices by common neighbourhoods.

The paper's enrichment step starts from a partition of the vertices in which
every two vertices of a part share many common neighbours (dependent random
choice).  ``partition_vertices`` builds one and ``verify_partition`` checks
the invariant pair by pair.  The solver does not call either: its fallback
walks Hamilton cycles of the merged graph (``pipeline``), so the partition
stands beside it as a checked construction of the paper's first step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, bits_of


class PartitionError(RuntimeError):
    """Partitioning could not satisfy the common-neighbourhood invariant."""


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
