"""Seeded instance lists for the four benchmark workloads.

Each workload function turns a seed into a fixed list of solve calls, one
graph at a time: it yields the calls of each graph as a list, so that set-up
can be timed graph by graph (``instance_list`` flattens them).  The solver
sees only the graph, cover, k, Params and strict flag of each call; the
oracle answers, where a workload has them, stay with the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import cyclesplit as cs


@dataclass(frozen=True)
class Instance:
    graph: "cs.Graph"
    cover: "cs.CycleCover"
    k: int
    params: "cs.Params"
    strict: bool = False
    # component counts the exhaustive oracle allows; None where n is too large
    feasible: Optional[frozenset] = None


def _graph_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


Graphs = Iterator[list[Instance]]


def dense_planted(seed: int) -> Graphs:
    # Average degree ~77.  Every step is case 1, so the O(n^2) pair scan of
    # count_h_edges dominates and enumerate_implanted never runs.
    n = 500
    for gs in _graph_seeds(seed, 10):
        g, cover = cs.gen_planted(n, n ** -0.3, gs)
        yield [Instance(g, cover, k, cs.Params(seed=gs)) for k in range(2, 12)]


def sparse_planted(seed: int) -> Graphs:
    # Average degree 20.  k=8 is all case 1; k=20 mixes cases 1-4 through
    # repeated enumerate_implanted rescans; k=33 lies past the stall (about
    # 20-25 cycles at this size) and fails honestly after a second
    # split_to_k.  Solve times differ widely between graphs (the k=20 ones by
    # 2x between quartiles) and the median solve is a k=20 one, so a pass
    # holds many graphs: with 80 the median moved by 15% between seeds.
    n = 100
    for gs in _graph_seeds(seed, 240):
        g, cover = cs.gen_planted(n, 20 / n, gs)
        yield [Instance(g, cover, k, cs.Params(seed=gs)) for k in (8, 20, 33)]


def _planted_cover(n: int, p: float, seed: int, ell: int):
    """Planted graph whose Hamilton cycle is cut into ell arcs, each arc
    closed by one added edge, so the input cover has ell cycles."""
    g, ham = cs.gen_planted(n, p, seed)
    perm = ham.cycles[0]
    cuts = [round(i * n / ell) for i in range(ell + 1)]
    arcs = [perm[cuts[i] : cuts[i + 1]] for i in range(ell)]
    g = g.with_extra_edges((arc[0], arc[-1]) for arc in arcs)
    return g, cs.CycleCover(arcs, n)


def enrich_strict(seed: int) -> Graphs:
    # The default rewire degree floor raises on every call at this size and
    # an h_edge_target below reach ends enrichment at once, so the floor is
    # overridden and the target set out of reach: all enrich_rounds run.
    for gs in _graph_seeds(seed, 100):
        g, cover = _planted_cover(60, 0.15, gs, ell=4)
        params = cs.Params(seed=gs, thomassen_degree_floor=1, h_edge_target=2000)
        yield [Instance(g, cover, 6, params, strict=True)]


def oracle_small(seed: int) -> Graphs:
    # The acceptance suite's soundness corpus recipe, with its Params, drawn
    # stratified: n runs through 6..12 in turn, and each n's p values are
    # spread over U(0.1, 0.8) one per equal slice.  The oracle's cost grows
    # steeply with n and p, so independent draws made set-up time differ by
    # 1.6x between seeds.
    rng = random.Random(seed)
    sizes = range(6, 13)
    slices = -(-200 // len(sizes))
    for idx in range(200):
        n = sizes[idx % len(sizes)]
        p = 0.1 + 0.7 * (idx // len(sizes) + rng.random()) / slices
        g, cover = cs.gen_planted(n, p, rng.randrange(1 << 30))
        feasible = cs.oracle_component_counts(g)
        params = cs.Params(seed=idx, enrich_rounds=4, thomassen_degree_floor=1)
        yield [Instance(g, cover, k, params, feasible=feasible) for k in range(1, n // 3 + 1)]


def instance_list(graphs: Graphs) -> list[Instance]:
    return [inst for group in graphs for inst in group]


WORKLOADS: dict[str, Callable[[int], Graphs]] = {
    "dense-planted": dense_planted,
    "sparse-planted": sparse_planted,
    "enrich-strict": enrich_strict,
    "oracle-small": oracle_small,
}
