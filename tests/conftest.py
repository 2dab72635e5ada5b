import random
from itertools import combinations
from typing import Optional

import pytest

from cyclesplit.graphs import CycleCover, Graph


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ham_cover(n: int) -> CycleCover:
    return CycleCover([list(range(n))])


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


@pytest.fixture
def rng():
    return random.Random(0xC4C4)
