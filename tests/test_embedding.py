import random
from itertools import combinations

import pytest

from cyclesplit.embedding import Partition, partition_vertices, verify_partition
from cyclesplit.graphs import Graph

from conftest import complete_graph, gnp


def two_cliques(q, threshold_edge=True):
    edges = list(combinations(range(q), 2))
    edges += [(u + q, v + q) for u, v in combinations(range(q), 2)]
    if threshold_edge:
        edges.append((0, q))
    return Graph(2 * q, edges)


class TestPartition:
    def test_complete_graph_single_part(self):
        p = partition_vertices(complete_graph(12), 3)
        assert p.s == 1

    def test_two_cliques_two_parts(self):
        g = two_cliques(20)
        p = partition_vertices(g, 10, random.Random(1))
        assert p.s == 2
        assert {frozenset(x) for x in p.parts} == {
            frozenset(range(20)),
            frozenset(range(20, 40)),
        }
        assert verify_partition(g, p, 10)

    def test_invariant_verified_exhaustively(self, rng):
        g = gnp(rng, 60, 0.5)
        p = partition_vertices(g, 10, rng)
        assert verify_partition(g, p, 10)

    def test_deterministic(self):
        g = gnp(random.Random(3), 40, 0.4)
        a = partition_vertices(g, 6, random.Random(9))
        b = partition_vertices(g, 6, random.Random(9))
        assert a.parts == b.parts


def _reference_pair_ok(g, u, v, threshold):
    return (g.neighbor_bits(u) & g.neighbor_bits(v)).bit_count() >= threshold


def _reference_partition(g, threshold, rng):
    """The pair-by-pair partition: every candidate, admission and merge test
    checks each pair on the graph, without compatible rows."""
    n = g.n
    if n == 0:
        return Partition(())

    def pairs_ok(vertices):
        return all(
            _reference_pair_ok(g, u, v, threshold)
            for u, v in combinations(sorted(vertices), 2)
        )

    candidates, pool = [], []
    if n >= 4:
        side_a = set(sorted(rng.sample(range(n), n // 2)))
        side_b = set(range(n)) - side_a
        ell = 2
        for side, other in ((side_a, side_b), (side_b, side_a)):
            witness_pool = sorted(other)
            msize = min(len(witness_pool), max(ell, round(n ** 0.5)))
            witness = sorted(rng.sample(witness_pool, msize)) if msize else []
            groups = {}
            for v in sorted(side):
                nb = [u for u in witness if (g.neighbor_bits(v) >> u) & 1]
                if len(nb) < ell:
                    pool.append(v)
                else:
                    groups.setdefault(tuple(nb[:ell]), []).append(v)
            candidates.extend(groups[k] for k in sorted(groups))
    else:
        pool.extend(range(n))
    parts = []
    for cand in candidates:
        if pairs_ok(cand):
            parts.append(sorted(cand))
        else:
            pool.extend(cand)
    for v in sorted(pool):
        for part in parts:
            if all(_reference_pair_ok(g, u, v, threshold) for u in part):
                part.append(v)
                break
        else:
            parts.append([v])
    merged = True
    while merged:
        merged = False
        parts.sort(key=lambda p: (-len(p), p[0]))
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if all(
                    _reference_pair_ok(g, u, v, threshold)
                    for u in parts[i]
                    for v in parts[j]
                ):
                    parts[i] = sorted(parts[i] + parts[j])
                    del parts[j]
                    merged = True
                    break
            if merged:
                break
    parts.sort(key=lambda p: p[0])
    return Partition(tuple(frozenset(p) for p in parts))


class TestPartitionMatchesReference:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 12, 40, 60, 80])
    def test_same_parts_and_rng_state(self, n):
        for case, p in enumerate((0.2, 0.5, 0.8, 0.35)):
            g = gnp(random.Random(1000 * n + case), n, p)
            top = max((g.degree(v) for v in range(n)), default=0)
            for threshold in (0, 1, 3, 8, top + 1):
                want_rng = random.Random(7 * n + case)
                got_rng = random.Random(7 * n + case)
                want = _reference_partition(g, threshold, want_rng)
                got = partition_vertices(g, threshold, got_rng)
                assert got.parts == want.parts, (n, case, threshold)
                assert got_rng.getstate() == want_rng.getstate()
                assert verify_partition(g, got, threshold)

    def test_verify_rejects_out_of_range_vertices(self):
        g = complete_graph(4)
        assert verify_partition(g, Partition((frozenset(range(4)),)), 2)
        for stray in (4, -1):
            assert not verify_partition(g, Partition((frozenset({0, 1, 2, 3, stray}),)), 2)
            assert not verify_partition(g, Partition((frozenset(range(4)), frozenset({stray}))), 2)

    def test_verify_rejects_tampered_partitions(self):
        g = gnp(random.Random(4), 30, 0.4)
        threshold = 4
        good = partition_vertices(g, threshold, random.Random(1))
        assert verify_partition(g, good, threshold)
        parts = list(good.parts)
        # a pair below the threshold: join a part with a vertex it rejects
        low = next(
            (i, j, u, v)
            for i, a in enumerate(parts)
            for j, b in enumerate(parts)
            if i != j
            for u in a
            for v in b
            if not _reference_pair_ok(g, u, v, threshold)
        )
        i, j, u, v = low
        below = [set(p) for p in parts]
        below[j].discard(v)
        below[i].add(v)
        below = Partition(tuple(frozenset(p) for p in below if p))
        assert not verify_partition(g, below, threshold)
        # an overlap: one vertex in two parts
        overlap = Partition(tuple(parts) + (frozenset({next(iter(parts[0]))}),))
        assert not verify_partition(g, overlap, threshold)
        # a missing vertex
        missing = set(parts[0])
        missing.discard(next(iter(missing)))
        missing = Partition((frozenset(missing),) + tuple(parts[1:]))
        assert not verify_partition(g, missing, threshold)
