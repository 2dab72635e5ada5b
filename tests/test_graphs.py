import random
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesplit.graphs import (
    CoverError,
    CycleCover,
    Graph,
    GraphFormatError,
    Params,
    dump_cover,
    dump_graph,
    edge_key,
    load_cover,
    load_graph,
    parse_params,
    validate_cover,
)

from conftest import complete_graph, cycle_graph, gnp


class TestLoadGraph:
    def test_triangle(self):
        g = load_graph("3 3\n0 1\n1 2\n0 2\n")
        assert g.n == 3 and g.m == 3 and g.min_degree() == 2

    def test_blank_lines_skipped(self):
        g = load_graph("3 3\n\n0 1\n  \n1 2\r\n\n0 2\n\n")
        assert g == load_graph("3 3\n0 1\n1 2\n0 2\n")
        cover = load_cover("\n0 1 2\n \n3 4 5\n\n", 6)
        assert cover.cycles == ((0, 1, 2), (3, 4, 5))

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            load_graph("2 2\n0 1\n0 1\n")

    def test_hexagon(self):
        g = load_graph("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        assert g.min_degree() == 2 and g.m == 6

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="loop"):
            load_graph("3 1\n1 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph("3 1\n0 3\n")

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("3 1\n2 0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="announced"):
            load_graph("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph("3\n")

    def test_max_n(self):
        assert load_graph("3 1\n0 1\n", max_n=3).n == 3
        with pytest.raises(GraphFormatError, match="line 1: n = 100000000000 exceeds the 3"):
            load_graph("100000000000 0\n", max_n=3)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, [], "vertex count must be non-negative"),
        (3, [(0, 1), (2, 2)], "loop at vertex 2"),
        (3, [(0, 3)], r"vertex out of range in edge \(0, 3\)"),
        (3, [(-1, 2)], r"vertex out of range in edge \(-1, 2\)"),
        (3, [(0, 1), (1, 0)], r"duplicate edge \(1, 0\)"),
    ],
    ids=["negative-n", "loop", "endpoint-too-large", "negative-endpoint", "duplicate"],
)
def test_graph_rejects_bad_input(n, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(n, edges)


def test_round_trip_bit_exact():
    text = "5 4\n0 1\n0 4\n1 2\n2 3\n"
    assert dump_graph(load_graph(text)) == text


def _reference_dump(g):
    """``dump_graph`` as one join of every ``g.edges()`` line."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def test_dump_graph_matches_edge_list_join():
    from cyclesplit.instances import gen_implant_free, gen_planted

    graphs = [Graph(0, []), Graph(4, []), cycle_graph(7)]
    graphs += [gen_planted(n, 0.3, seed)[0] for n, seed in ((12, 1), (60, 2))]
    graphs += [gen_implant_free(n, seed)[0] for n, seed in ((9, 0), (40, 3))]
    for g in graphs:
        assert dump_graph(g) == _reference_dump(g)


@settings(max_examples=60)
@given(st.integers(3, 12), st.random_module())
def test_round_trip_random(n, rnd):
    g = gnp(random.Random(rnd.seed), n, 0.5)
    h = load_graph(dump_graph(g))
    assert h == g and hash(h) == hash(g)
    assert dump_graph(load_graph(dump_graph(g))) == dump_graph(g)
    assert g.edges() == sorted(g.edge_set())


def test_equality_reads_n_and_rows():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 15)
        g = gnp(rng, n, rng.random())
        edges = g.edges()
        for e in edges[:5]:
            assert Graph(n, [f for f in edges if f != e]) != g
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        for e in missing[:5]:
            assert Graph(n, edges + [e]) != g
        assert Graph(n + 1, edges) != g
        assert Graph(n, edges) == g and hash(Graph(n, edges)) == hash(g)
    assert Graph(0, []) != Graph(1, []) and Graph(1, []) != Graph(2, [])


def test_queries_pin_nothing_on_the_graph():
    # a graph holds only its rows: dumping, comparing, hashing and listing
    # edges must leave nothing allocated beside it (an edge set cached on
    # first use held 3.1 MB here)
    from cyclesplit.instances import gen_planted

    g, _ = gen_planted(500, 500 ** -0.3, 7)
    tracemalloc.start()
    try:
        assert load_graph(dump_graph(g)) == g
        hash(g)
        g.edges()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 500_000


def test_min_degree_matches_degrees():
    assert Graph(0, []).min_degree() == 0
    assert Graph(3, [(0, 1)]).min_degree() == 0
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 30)
        g = gnp(rng, n, rng.random())
        assert g.min_degree() == min(g.degree(v) for v in range(n))
        extra = g.with_extra_edges([(0, v) for v in range(1, n)])
        assert extra.min_degree() == min(extra.degree(v) for v in range(n))


def _same_graph(a, b):
    """Field-by-field equality of two graphs."""
    assert a.n == b.n and a.m == b.m
    assert [a.adjacency(v) for v in range(a.n)] == [b.adjacency(v) for v in range(b.n)]
    assert [a.neighbor_bits(v) for v in range(a.n)] == [b.neighbor_bits(v) for v in range(b.n)]
    assert a.min_degree() == b.min_degree()
    assert a.edges() == b.edges()
    assert a == b and hash(a) == hash(b)


class TestWithExtraEdges:
    def test_matches_rebuilt_graph(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(0, 25)
            g = gnp(rng, n, rng.random())
            before = ([g.adjacency(v) for v in range(n)], g.edges(), g.m)
            extra = []
            if n >= 2:
                for _ in range(rng.randint(0, 3 * n)):
                    u, v = rng.sample(range(n), 2)
                    extra.append((u, v))
                # repeats among the extras, both orientations, and edges of g
                extra += extra[: len(extra) // 3] + [(v, u) for u, v in extra[:2]]
                extra += g.edges()[:3]
            rng.shuffle(extra)
            want = Graph(n, g.edge_set() | {edge_key(u, v) for u, v in extra})
            got = g.with_extra_edges(iter(extra))
            _same_graph(got, want)
            assert ([g.adjacency(v) for v in range(n)], g.edges(), g.m) == before

    def test_empty_extra(self):
        g = gnp(random.Random(3), 12, 0.4)
        _same_graph(g.with_extra_edges([]), g)
        _same_graph(Graph(0, []).with_extra_edges([]), Graph(0, []))

    @pytest.mark.parametrize("bad", [(2, 2), (0, 6), (6, 0), (-1, 3), (3, -2)])
    def test_bad_edge_raises_constructor_message(self, bad):
        g = cycle_graph(6)
        edges = g.edges()
        with pytest.raises(ValueError) as built:
            Graph(6, [bad])
        with pytest.raises(ValueError) as patched:
            g.with_extra_edges([(0, 2), bad])
        assert str(patched.value) == str(built.value)
        assert g.edges() == edges and g.m == 6


class TestValidateCover:
    def test_triangle(self):
        assert validate_cover(complete_graph(3), [[0, 1, 2]]) == 1

    def test_missing_edge(self):
        with pytest.raises(CoverError, match="absent"):
            validate_cover(cycle_graph(6), [[0, 1, 2], [3, 4, 5]])

    def test_k6_two_triangles(self):
        assert validate_cover(complete_graph(6), [[0, 1, 2], [3, 4, 5]]) == 2

    def test_short_cycle(self):
        with pytest.raises(CoverError, match="shorter"):
            validate_cover(complete_graph(4), [[0, 1], [2, 3]])

    def test_repeated_vertex(self):
        with pytest.raises(CoverError, match="repeated"):
            validate_cover(complete_graph(6), [[0, 1, 2], [2, 3, 4]])

    def test_missing_vertex(self):
        with pytest.raises(CoverError):
            validate_cover(complete_graph(6), [[0, 1, 2]])

    @pytest.mark.parametrize(
        "cycles, message",
        [
            (((0, 1), (2, 3, 4)), r"cycle \[0, 1\] shorter than 3"),
            (((0, 1, 2),), "cover cycles hold 3 vertices, graph has 5"),
        ],
        ids=["short-cycle", "missing-vertices"],
    )
    def test_unchecked_cover(self, cycles, message):
        # a cover built without the constructor's checks, as the splice builds
        # them: its cycle lengths are checked here
        cover = CycleCover._from_canonical(cycles, 5)
        with pytest.raises(CoverError, match=message):
            validate_cover(complete_graph(5), cover)

    @pytest.mark.parametrize("located", [False, True], ids=["unlocated", "located"])
    @pytest.mark.parametrize(
        "cycles",
        [((0, 1, 2), (0, 1, 2)), ((0, 1, 2, 0, 3, 4),)],
        ids=["across-cycles", "within-a-cycle"],
    )
    def test_unchecked_cover_repeating_a_vertex(self, cycles, located):
        # lengths summing to n hide a repeat when a vertex is left out, and
        # every edge of these covers is in K6; a locator built beforehand
        # holds fewer keys than the cycles hold vertices
        cover = CycleCover._from_canonical(cycles, 6)
        if located:
            assert len(cover.locator) < 6
        with pytest.raises(CoverError, match="repeated vertex: cover cycles hold 6 vertices, [35] distinct"):
            validate_cover(complete_graph(6), cover)

    def test_cover_of_another_vertex_count(self):
        cover = CycleCover([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(CoverError, match="cover spans 6 vertices, graph has 7"):
            validate_cover(complete_graph(7), cover)

    def test_reports_first_missing_edge(self, rng):
        # the first cover edge absent from the graph, in iter_edges order
        for _ in range(40):
            n = rng.randint(6, 30)
            g = gnp(rng, n, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            cover = CycleCover([perm[: n // 2], perm[n // 2 :]], n)
            absent = [e for e in cover.iter_edges() if not g.has_edge(*e)]
            if not absent:
                assert validate_cover(g, cover) == 2
                continue
            with pytest.raises(CoverError) as info:
                validate_cover(g, cover)
            assert str(info.value) == f"cover edge {absent[0]} absent from graph"


def _brute_two_regular_components(g, edges):
    adj = {v: [] for v in range(g.n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) != 2 for a in adj.values()):
        return None
    seen = set()
    comps = 0
    for start in range(g.n):
        if start in seen:
            continue
        comps += 1
        frontier = [start]
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(adj[v])
    return comps


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 12), st.random_module())
def test_validate_matches_brute_force_two_regularity(n, rnd):
    from conftest import random_factor_instance

    g, cover = random_factor_instance(random.Random(rnd.seed), n, 0.3)
    comps = validate_cover(g, cover)
    assert comps == _brute_two_regular_components(g, cover.edge_set())


class TestCycleCover:
    def test_canonical_form(self):
        a = CycleCover([[2, 0, 1], [5, 4, 3]])
        b = CycleCover([[3, 4, 5], [0, 1, 2]])
        assert a == b
        assert a.cycles == ((0, 1, 2), (3, 4, 5))

    def test_locator(self):
        cov = CycleCover([[4, 5, 6], [0, 1, 2, 3]])
        for v in range(7):
            ci, pos = cov.locator[v]
            assert cov.cycles[ci][pos] == v
        # a cover made from canonical cycles builds it on first use, alike
        assert CycleCover._from_canonical(cov.cycles, cov.n).locator == cov.locator

    @pytest.mark.parametrize(
        "cycles, n, message",
        [
            ([[-1, 0, 1]], None, "negative vertex -1"),
            ([[0, 1, 0, 2]], None, r"repeated vertex within cycle \[0, 1, 0, 2\]"),
            ([[0, 1, 2], [2, 3, 4]], None, "repeated vertex 2 across cycles"),
            ([[0, 1, 2]], 4, r"does not partition \[0, 4\): vertex 3"),
            ([[0, 1, 2, 3]], 3, r"does not partition \[0, 3\): vertex 3"),
            ([[0, 1, 2, 3, 4, 10**11]], None, r"\[0, 100000000001\): vertex 5"),
            ([[0, 1, 2]], 10**11, r"\[0, 100000000000\): vertex 3"),
        ],
        ids=["negative", "repeated-within", "repeated-across", "missing", "n-below-max",
             "huge-vertex", "huge-n"],
    )
    def test_constructor_errors(self, cycles, n, message):
        with pytest.raises(CoverError, match=message):
            CycleCover(cycles, n)

    def test_from_edge_set_round_trip(self, rng):
        from conftest import random_factor_instance

        for _ in range(20):
            _, cover = random_factor_instance(rng, rng.randint(6, 20), 0.2)
            rebuilt = CycleCover.from_edge_set(cover.n, cover.edge_set())
            assert rebuilt == cover

    def test_cover_file_round_trip(self):
        cov = CycleCover([[0, 1, 2], [3, 4, 5, 6]])
        assert load_cover(dump_cover(cov)) == cov

    def test_degree_one_rejected(self):
        with pytest.raises(CoverError, match="degree"):
            CycleCover.from_edge_set(4, [(0, 1), (1, 2), (2, 3)])

    @pytest.mark.parametrize("far", [5, -3])
    def test_endpoint_outside_range_rejected(self, far):
        # a negative index would alias a row counted from the end
        with pytest.raises(CoverError, match=rf"edge \(2, {far}\) has an endpoint outside \[0, 3\)"):
            CycleCover.from_edge_set(3, [(0, 1), (1, 2), (2, far)])

    def test_edge_set_is_built_on_each_call(self):
        cover = CycleCover([[0, 1, 2], [3, 4, 5, 6]])
        first = cover.edge_set()
        assert first == {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)}
        assert cover.edge_set() is not first


def _walked_neighbors(cover):
    """Each vertex's (predecessor, successor) on its cycle tuple."""
    out = {}
    for cyc in cover.cycles:
        for i, v in enumerate(cyc):
            out[v] = (cyc[i - 1], cyc[(i + 1) % len(cyc)])
    return out


class TestCoverArrays:
    """``prev_next`` equals a walk over the cycle tuples, in the orientation
    ``cycle_neighbors`` reports, however the cover was made."""

    @staticmethod
    def _check(cover):
        prev, nxt = cover.prev_next
        walked = _walked_neighbors(cover)
        assert len(prev) == len(nxt) == cover.n == len(walked)
        for v in range(cover.n):
            assert (prev[v], nxt[v]) == walked[v] == cover.cycle_neighbors(v)

    def test_constructor_and_from_edge_set(self, rng):
        from conftest import random_factor_instance

        for _ in range(30):
            _, cover = random_factor_instance(rng, rng.randint(3, 40), 0.2)
            self._check(cover)
            self._check(CycleCover.from_edge_set(cover.n, cover.edge_set()))
        self._check(CycleCover([[2, 0, 1]]))

    def test_toggled_covers(self):
        from cyclesplit.instances import gen_planted
        from cyclesplit.switching import apply_switch, enumerate_implanted, split_to_k

        toggled = 0
        for seed in range(6):
            g, cover = gen_planted(30, 0.25, seed)
            for c4 in enumerate_implanted(g, cover)[:20]:
                self._check(apply_switch(cover, c4))
                toggled += 1
            out = split_to_k(g, cover, 5)
            if out.cover is not None:
                self._check(out.cover)
                toggled += 1
        assert toggled >= 60, toggled


class TestParams:
    def test_defaults_valid(self):
        Params()

    def test_only_the_workload_knobs(self):
        names = [f.name for f in fields(Params)]
        assert names == ["h_edge_target", "thomassen_degree_floor", "enrich_rounds", "seed"]

    def test_positive_enforced(self):
        with pytest.raises(ValueError):
            Params(h_edge_target=0)

    def test_parse_round_trip(self):
        p = parse_params("h_edge_target = 7\nseed = 3\n# comment\nthomassen_degree_floor = 4\n")
        assert p.h_edge_target == 7 and p.seed == 3 and p.thomassen_degree_floor == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown"):
            parse_params("h_edge_targett = 7\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("enrich_rounds", "many"), ("thomassen_degree_floor", "half"),
            ("thomassen_degree_floor", "none"), ("thomassen_degree_floor", "null"),
            ("h_edge_target", "none"), ("seed", "none"), ("enrich_rounds", "none"),
        ],
    )
    def test_bad_value_rejected(self, key, value):
        # every knob is an integer: none is a bad value like any other word
        with pytest.raises(GraphFormatError, match=f"^line 2: bad value for '{key}': '{value}'$"):
            parse_params(f"seed = 1\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "key",
        [
            "cover_common_floor", "zeta", "min_degree_floor", "enum_cap", "ledger_set_cap",
            "overflow_cap", "partial_growth", "h_yield", "sample_retries",
            "rewire_node_budget", "exhaustive_cutoff", "common_nbr_threshold",
            "m_set_threshold", "coverage_slack", "ledger_t_cap", "protected_cap",
            "sample_prob", "switch_candidate_budget",
        ],
    )
    def test_removed_key_rejected(self, key):
        with pytest.raises(GraphFormatError, match=f"unknown params key '{key}'"):
            parse_params(f"{key} = 1\n")
