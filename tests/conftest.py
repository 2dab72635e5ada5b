import random
from itertools import combinations
from typing import Optional

import pytest

from cyclesplit.graphs import CycleCover, Graph
from cyclesplit.instances import gen_planted


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ham_cover(n: int) -> CycleCover:
    return CycleCover([list(range(n))])


def rows_of(n: int, edges) -> tuple[int, ...]:
    """Symmetric neighbour rows (one bitset per vertex) of ``edges``, each
    given in either orientation: a rewire request's desirable graph."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_cycle_lengths(rng: random.Random, n: int) -> list[int]:
    """A composition of n into parts >= 3."""
    lengths = []
    left = n
    while left:
        if left < 6:
            lengths.append(left)
            break
        top = min(left - 3, max(3, left // 2))
        lengths.append(rng.randint(3, top))
        left -= lengths[-1]
    return lengths


def random_factor_instance(
    rng: random.Random, n: int, p: float, lengths: Optional[list[int]] = None
) -> tuple[Graph, CycleCover]:
    """Random graph containing a planted 2-factor.

    The cycle lengths (summing to n) are drawn unless ``lengths`` gives them.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    cycles = []
    at = 0
    for length in lengths or random_cycle_lengths(rng, n):
        cycles.append(perm[at : at + length])
        at += length
    cover = CycleCover(cycles, n)
    edges = set(cover.edge_set())
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < p:
            edges.add((u, v))
    return Graph(n, edges), cover


def planted_cover(n: int, p: float, seed: int, ell: int) -> tuple[Graph, CycleCover]:
    """Planted graph whose Hamilton cycle is cut into ell closed arcs.

    The enrich-strict benchmark workload draws its instances this way.
    """
    g, ham = gen_planted(n, p, seed)
    perm = ham.cycles[0]
    cuts = [round(i * n / ell) for i in range(ell + 1)]
    arcs = [perm[cuts[i] : cuts[i + 1]] for i in range(ell)]
    g = g.with_extra_edges((arc[0], arc[-1]) for arc in arcs)
    return g, CycleCover(arcs, n)


def two_cycle_instance(n: int, p: float, seed: int) -> tuple[Graph, CycleCover]:
    """Two planted cycles of length n/2 plus iid extra edges."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    half = n // 2
    cover = CycleCover([perm[:half], perm[half:]], n)
    edges = set(cover.edge_set())
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < p:
            edges.add((u, v))
    return Graph(n, edges), cover


# -- brute-force pattern oracles (quadratic/cubic scans) ---------------------


def brute_increasing_triple(pairs):
    for combo in combinations(range(len(pairs)), 3):
        trio = sorted(combo, key=lambda k: pairs[k])
        (i1, j1), (i2, j2), (i3, j3) = (pairs[k] for k in trio)
        if i1 < i2 < i3 and j1 < j2 < j3:
            return tuple(trio)
    return None


def brute_decreasing_triple(pairs):
    for combo in combinations(range(len(pairs)), 3):
        trio = sorted(combo, key=lambda k: pairs[k])
        (i1, j1), (i2, j2), (i3, j3) = (pairs[k] for k in trio)
        if i1 < i2 < i3 and j1 > j2 > j3:
            return tuple(trio)
    return None


def brute_interleaved_pair(chords):
    n = len(chords)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            h, j = chords[a]
            i, m = chords[b]
            if h < i < j < m:
                return tuple(sorted((a, b)))
    return None


@pytest.fixture
def rng():
    return random.Random(0xC4C4)
