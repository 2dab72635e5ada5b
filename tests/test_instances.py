import math
import random
import tracemalloc
from array import array

import pytest

from cyclesplit.graphs import (
    CycleCover,
    Graph,
    Params,
    dump_graph,
    edge_key,
    load_graph,
    validate_cover,
)
from cyclesplit.instances import (
    ORACLE_CAP,
    InstanceSpec,
    _cycle_masks,
    count_implanted_bruteforce,
    gen_cliques_hamilton,
    gen_cliques_matching,
    gen_implant_free,
    gen_planted,
    gen_triangles_biclique,
    oracle_component_counts,
    oracle_exists_k_factor,
)
from cyclesplit.pipeline import solve
from cyclesplit.switching import count_h_edges

from conftest import complete_graph, cycle_graph, ham_cover


class TestGenImplantFree:
    @pytest.mark.parametrize("n", range(9, 61))
    def test_given_cycle_hosts_no_implanted_c4(self, n):
        g, cover = gen_implant_free(n, n)
        assert cover.cycles == (tuple(range(n)),)
        assert validate_cover(g, cover) == 1
        assert count_h_edges(g, cover) == 0
        assert g.m > n  # the chords are there

    def test_small_cycle_checked_by_brute_force(self):
        for n in range(5, 13):
            for seed in range(3):
                g, cover = gen_implant_free(n, seed)
                assert count_implanted_bruteforce(g, cover) == 0

    def test_maximal_and_deterministic(self):
        n = 30
        g, cover = gen_implant_free(n, 4)
        assert gen_implant_free(n, 4)[0] == g
        chords = g.edge_set() - cover.edge_set()
        # every left-out pair is blocked by a chord among its four neighbours
        for u in range(n):
            for v in range(u + 2, n):
                if v - u == n - 1 or (u, v) in chords:
                    continue
                near = {
                    (min(a, b), max(a, b))
                    for a in ((u + 1) % n, (u - 1) % n)
                    for b in ((v + 1) % n, (v - 1) % n)
                }
                assert near & chords, (u, v)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            gen_implant_free(3, 0)


class TestGenPlanted:
    def test_p_zero_is_cycle(self):
        g, cover = gen_planted(12, 0.0, 1)
        assert g.m == 12 and g.min_degree() == 2
        assert validate_cover(g, cover) == 1

    def test_p_one_is_complete(self):
        g, _ = gen_planted(9, 1.0, 1)
        assert g.m == 36

    def test_edge_count_within_four_sigma(self):
        n, p = 100, 0.3
        g, cover = gen_planted(n, p, 7)
        assert validate_cover(g, cover) == 1
        extra_pairs = n * (n - 1) // 2 - n
        mean = extra_pairs * p
        sigma = math.sqrt(extra_pairs * p * (1 - p))
        assert abs((g.m - n) - mean) <= 4 * sigma

    def test_deterministic(self):
        assert gen_planted(40, 0.25, 9) == gen_planted(40, 0.25, 9)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gen_planted(2, 0.5, 0)
        with pytest.raises(ValueError):
            gen_planted(10, 1.5, 0)


def _reference_gen_planted(n: int, p: float, seed: int) -> tuple[Graph, CycleCover]:
    """The per-draw planted loop the bulk generator replaced, kept verbatim."""
    if n < 3:
        raise ValueError("planted instances need n >= 3")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    cycle_edges = {
        edge_key(perm[i], perm[(i + 1) % n]) for i in range(n)
    }
    edges = set(cycle_edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in cycle_edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, edges), CycleCover([perm])


def _slots(g: Graph) -> tuple:
    """The stored slots, each row read as a tuple of ints."""
    return (g.n, tuple(map(tuple, g._adj)), g._bits, g.m, g.min_degree())


def _reference_slots(n: int, edges) -> tuple:
    """What every constructor must store, built the plain way: sorted
    neighbour tuples, OR-ed bitsets, the edge count and the minimum degree."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    bits = []
    for row in adj:
        b = 0
        for v in row:
            b |= 1 << v
        bits.append(b)
    m = sum(map(len, adj)) // 2
    return (n, adj, tuple(bits), m, min(map(len, adj), default=0))


class TestBulkPlantedStream:
    """The bulk row draws give the graph of one ``random()`` per pair."""

    @pytest.mark.parametrize("p", [0, 0.0, 1, 1.0, 5e-324, 1e-9, 0.5, 0.999999])
    @pytest.mark.parametrize("n", [*range(3, 13), 57, 100, 301])
    def test_matches_per_draw_reference(self, n, p):
        for seed in (0, 1, n * 7919 + 3):
            g, cover = gen_planted(n, p, seed)
            want, want_cover = _reference_gen_planted(n, p, seed)
            assert _slots(g) == _slots(want)
            assert _slots(g) == _reference_slots(n, want.edges())
            assert cover.cycles == want_cover.cycles

    @pytest.mark.parametrize("n, seed", [(8, 2), (40, 11), (150, 5)])
    def test_forced_tie_takes_the_low_words(self, n, seed):
        # p equal to a draw's exact value must miss (strict <) and the next
        # float up must hit; either way the top byte ties with the threshold
        rng = random.Random(seed)
        perm = list(range(n))
        rng.shuffle(perm)
        cycle = {edge_key(perm[i - 1], perm[i]) for i in range(n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in cycle]
        draws = [(pair, rng.random()) for pair in pairs]
        for j in (0, len(draws) // 2, len(draws) - 1):
            pair, value = draws[j]
            for p, hit in ((value, False), (math.nextafter(value, 1), True)):
                g, _ = gen_planted(n, p, seed)
                assert g.has_edge(*pair) is hit
                assert _slots(g) == _slots(_reference_gen_planted(n, p, seed)[0])


class TestConstructorsAgree:
    """``Graph(n, edges)``, ``load_graph``, ``with_extra_edges`` and
    ``gen_implant_free``'s row build store the same slots."""

    def test_random_graphs(self):
        rng = random.Random(0xB17)
        for _ in range(60):
            n = rng.randint(0, 40)
            p = rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            rng.shuffle(edges)
            want = _reference_slots(n, edges)
            g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
            assert _slots(g) == want
            assert _slots(load_graph(dump_graph(g))) == want
            cut = rng.randint(0, len(edges))
            part = Graph(n, edges[:cut]).with_extra_edges(edges[cut // 2 :])
            assert _slots(part) == want

    def test_implant_free_rows(self):
        for n in (4, 9, 64):
            g, _ = gen_implant_free(n, n)
            assert _slots(g) == _reference_slots(n, g.edges())


class TestRowFormat:
    """Every constructor stores ascending ``array('I')`` rows, 4 bytes an
    entry, beside n^2/8 bytes of bitsets."""

    @staticmethod
    def _assert_rows(g: Graph):
        for v in range(g.n):
            row = g.adjacency(v)
            assert type(row) is array and row.typecode == "I" and row.itemsize == 4
            assert list(row) == sorted(set(row))

    def test_every_constructor(self):
        rng = random.Random(5)
        edges = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.3]
        rng.shuffle(edges)
        g = Graph(30, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        made = [
            Graph(0, []),
            g,
            load_graph(dump_graph(g)),
            g.with_extra_edges([(0, 29), (3, 17)]),
            gen_planted(40, 0.2, 3)[0],
            gen_planted(3, 1.0, 0)[0],
            gen_implant_free(30, 2)[0],
            gen_cliques_matching(7, 1),
            gen_triangles_biclique(3, 4, 2)[0],
        ]
        for h in made:
            self._assert_rows(h)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_planted_graph_size(self, seed):
        gen_planted(50, 0.3, 0)  # one-off allocations happen before tracing
        n = 1000
        tracemalloc.start()
        try:
            g = gen_planted(n, 0.3, seed)[0]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 4 bytes per row entry and n^2/8 bytes of bits, plus per vertex about
        # 80 bytes of array header, 35 of int header and digit slack and 16
        # of tuple slots; tuples of int objects held 40 bytes per entry
        assert held <= 4 * 2 * g.m + n * n // 8 + 256 * n
        self._assert_rows(g)


class TestGenCliquesMatching:
    def test_q7_shape(self):
        g = gen_cliques_matching(7, 3)
        assert g.n == 14 and g.min_degree() == 6
        # exactly two disjoint bridges between the halves
        bridges = [
            (u, v) for u in range(7) for v in range(7, 14) if g.has_edge(u, v)
        ]
        assert len(bridges) == 2
        assert len({u for u, _ in bridges}) == 2 and len({v for _, v in bridges}) == 2

    def test_explicit_hamilton_cycle_through_bridges(self):
        q = 7
        g = gen_cliques_matching(q, 3)
        bridges = sorted(
            (u, v) for u in range(q) for v in range(q, 2 * q) if g.has_edge(u, v)
        )
        (a1, b1), (a2, b2) = bridges
        left = [a1] + [u for u in range(q) if u not in (a1, a2)] + [a2]
        right = [b2] + [v for v in range(q, 2 * q) if v not in (b1, b2)] + [b1]
        assert validate_cover(g, CycleCover([left + right], g.n)) == 1

    def test_hamilton_cover(self):
        for q in (5, 7, 9):
            for seed in range(6):
                g, cover = gen_cliques_hamilton(q, seed)
                assert g == gen_cliques_matching(q, seed)
                assert validate_cover(g, cover) == 1

    def test_even_requires_flag(self):
        with pytest.raises(ValueError):
            gen_cliques_matching(6, 0)
        assert gen_cliques_matching(6, 0, allow_even=True).n == 12

    def test_q5_shape(self):
        g = gen_cliques_matching(5, 1)
        assert g.n == 10 and g.min_degree() == 4
        assert g.m == 2 * 10 + 2

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_cliques_matching(3, 0)

    def test_deterministic(self):
        assert gen_cliques_matching(7, 5) == gen_cliques_matching(7, 5)


class TestGenTrianglesBiclique:
    def test_k2_m3_shape(self):
        g, cover = gen_triangles_biclique(2, 3, 0)
        assert g.n == 9
        assert validate_cover(g, cover) == 2
        assert g.min_degree() == 3

    def test_k3_m4_no_smaller_factor(self):
        g, cover = gen_triangles_biclique(3, 4, 1)
        assert g.n == 14 and validate_cover(g, cover) == 3
        counts = oracle_component_counts(g)
        assert 3 in counts
        assert all(c >= 3 for c in counts)

    def test_min_degree_is_m(self):
        for k, m in ((2, 3), (3, 4), (4, 5)):
            g, _ = gen_triangles_biclique(k, m, 2)
            assert g.min_degree() == m

    def test_component_count_always_k(self):
        for seed in range(5):
            g, cover = gen_triangles_biclique(4, 3, seed)
            assert cover.num_components == 4

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_triangles_biclique(1, 4, 0)
        with pytest.raises(ValueError):
            gen_triangles_biclique(3, 2, 0)


class TestOracle:
    def test_k4(self):
        assert oracle_exists_k_factor(complete_graph(4), 1)
        assert not oracle_exists_k_factor(complete_graph(4), 2)

    def test_k6_two_triangles(self):
        assert oracle_exists_k_factor(complete_graph(6), 2)

    def test_c8_only_itself(self):
        assert oracle_component_counts(cycle_graph(8)) == {1}

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            oracle_component_counts(complete_graph(15))

    def test_no_two_factor_at_all(self):
        from cyclesplit.graphs import Graph

        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert oracle_component_counts(star) == frozenset()

    def test_counts_complete_graphs(self):
        # K_n realizes every count up to n // 3
        for n in (6, 9, 12):
            counts = oracle_component_counts(complete_graph(n))
            assert counts == set(range(1, n // 3 + 1))


# -- the textbook subset DPs the oracle replaced, kept as references ---------


def _reference_cycle_masks(g: Graph) -> bytearray:
    """cyc[mask] == 1 iff the vertices of mask carry a spanning cycle."""
    n = g.n
    adj = [g.neighbor_bits(v) for v in range(n)]
    full = 1 << n
    paths = [0] * full  # endpoint bitmask of paths from lowbit(mask) over mask
    cyc = bytearray(full)
    for v in range(n):
        paths[1 << v] = 1 << v
    for mask in range(1, full):
        ends = paths[mask]
        if not ends:
            continue
        low = mask & -mask
        start = low.bit_length() - 1
        if mask.bit_count() >= 3 and ends & adj[start]:
            cyc[mask] = 1
        above_start = ~((low << 1) - 1)
        e = ends
        while e:
            vb = e & -e
            e ^= vb
            v = vb.bit_length() - 1
            ext = adj[v] & ~mask & above_start
            while ext:
                ub = ext & -ext
                ext ^= ub
                paths[mask | ub] |= ub
    return cyc


def _reference_component_counts(g: Graph) -> frozenset[int]:
    """All component counts realized by 2-factors of g (exact, n <= 14)."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"exhaustive oracle capped at n <= {ORACLE_CAP}")
    if g.n == 0:
        return frozenset({0})
    cyc = _reference_cycle_masks(g)
    full = 1 << g.n
    counts = [0] * full  # bit c set: mask partitions into c cycles
    counts[0] = 1
    for mask in range(1, full):
        low = mask & -mask
        rest = mask ^ low
        acc = 0
        sub = rest
        while True:
            piece = sub | low
            if cyc[piece]:
                prev = counts[mask ^ piece]
                if prev:
                    acc |= prev << 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        counts[mask] = acc
    final = counts[full - 1]
    return frozenset(c for c in range(g.n + 1) if (final >> c) & 1)


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()])


def _planted_corpus():
    return [
        gen_planted(n, p, 100 * n + i)[0]
        for n in range(3, 13)
        for i, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9))
    ]


def _union_corpus():
    sizes = ((3, 3), (3, 6), (4, 4), (4, 8), (5, 5), (5, 7), (6, 6))
    return [
        _disjoint_union(gen_planted(a, p, a)[0], gen_planted(b, p, b)[0])
        for a, b in sizes
        for p in (0.3, 0.9)
    ]


def _low_degree_corpus():
    graphs = []
    for n in range(3, 13):
        clique = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)]
        graphs.append(Graph(n, clique))  # vertex n - 1 isolated
        graphs.append(Graph(n, clique + [(0, n - 1)]))  # vertex n - 1 pendant
    graphs.append(Graph(1, []))
    graphs.append(Graph(2, [(0, 1)]))
    return graphs


def _large_corpus():
    rng = random.Random(1314)
    return [
        gen_planted(n, rng.uniform(0.15, 0.9), rng.randrange(1 << 20))[0]
        for n in (13, 14)
        for _ in range(4)
    ]


ORACLE_CORPORA = {
    "planted": _planted_corpus,
    "implant_free": lambda: [gen_implant_free(n, n)[0] for n in range(5, 13)],
    "union": _union_corpus,
    "low_degree": _low_degree_corpus,
    "complete": lambda: [complete_graph(n) for n in range(13)],
    "cycle": lambda: [cycle_graph(n) for n in range(3, 13)],
    "n13_n14": _large_corpus,
}


class TestOracleMatchesReference:
    @pytest.mark.parametrize("family", sorted(ORACLE_CORPORA))
    def test_same_cycle_masks_and_counts(self, family):
        for g in ORACLE_CORPORA[family]():
            assert _cycle_masks(g) == _reference_cycle_masks(g), (family, g)
            counts = oracle_component_counts(g)
            assert counts == _reference_component_counts(g), (family, g)
            if family == "union":
                assert 1 not in counts and counts, g
            elif family == "low_degree":
                assert counts == frozenset(), g
            elif family == "cycle":
                assert counts == {1}, g


# answers of the reference DP for gen_implant_free(n, seed), seeds 0..3
IMPLANT_FREE_COUNTS = {
    12: ({1, 2, 3}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3}),
    13: ({1, 2, 3, 4}, {1, 2, 3}, {1, 2}, {1, 2, 3, 4}),
    14: ({1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}),
}


class TestImplantFreeAtTheCap:
    @pytest.mark.parametrize("n", sorted(IMPLANT_FREE_COUNTS))
    def test_oracle_counts_and_desk_floor_soundness(self, n):
        """Every desk-floor success has a k the oracle allows; whether the
        solver finds every allowed k is a benchmark number, not checked
        here."""
        solved = 0
        for seed, want in enumerate(IMPLANT_FREE_COUNTS[n]):
            g, cover = gen_implant_free(n, seed)
            counts = oracle_component_counts(g)
            assert counts == want, (n, seed)
            for k in range(1, n // 3 + 1):
                res = solve(g, cover, k, Params(thomassen_degree_floor=1))
                if res.cover is not None:
                    assert validate_cover(g, res.cover) == k
                    assert k in counts, (n, seed, k)
                    solved += k > 1
        assert solved >= 2, solved


class TestBruteCount:
    def test_fixed_values(self):
        assert count_implanted_bruteforce(complete_graph(4), ham_cover(4)) == 2
        assert count_implanted_bruteforce(complete_graph(5), ham_cover(5)) == 5
        assert count_implanted_bruteforce(cycle_graph(10), ham_cover(10)) == 0

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            count_implanted_bruteforce(complete_graph(13), ham_cover(13))

    def test_agrees_with_fast_count(self, rng):
        for _ in range(30):
            n = rng.randint(5, 12)
            g, cover = gen_planted(n, rng.random() * 0.8, rng.randrange(1 << 20))
            assert count_h_edges(g, cover) == count_implanted_bruteforce(g, cover)


def test_instance_spec_json():
    spec = InstanceSpec("planted", 50, 7, {"p": 0.3})
    text = spec.to_json()
    assert '"model": "planted"' in text and '"seed": 7' in text
