import math
import random
from itertools import combinations

import pytest

from cyclesplit import pipeline, rewire
from cyclesplit.graphs import CycleCover, Graph, Params, edge_key, validate_cover
from cyclesplit.instances import gen_planted
from cyclesplit.rewire import (
    RewireError,
    RewireRequest,
    check_independent_dominating,
    sample_switch_set,
    second_hamilton_cycle,
)

from conftest import complete_graph, cycle_graph, ham_cover, rows_of

DESK = Params(thomassen_degree_floor=1)


def cycle_edges_at(cover, vertices):
    """The cycle edges with both endpoints in ``vertices``: for a run of at
    least two consecutive cycle vertices, protecting them blocks the run."""
    return frozenset(e for e in cover.edge_set() if set(e) <= set(vertices))


class TestCheckIndependentDominating:
    def test_empty_set_vacuous(self):
        assert check_independent_dominating(complete_graph(4), ham_cover(4), set())

    def test_k4_singleton(self):
        # N_C({0}) = {1, 3}; the only chords are 02 and 13, so 1 is undominated
        assert not check_independent_dominating(complete_graph(4), ham_cover(4), {0})

    def test_k5_cases(self):
        assert not check_independent_dominating(complete_graph(5), ham_cover(5), {0})
        assert not check_independent_dominating(complete_graph(5), ham_cover(5), {0, 2})

    def test_adjacent_pair_rejected(self):
        assert not check_independent_dominating(complete_graph(6), ham_cover(6), {0, 1})

    def test_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            check_independent_dominating(complete_graph(4), ham_cover(4), {9})

    def test_matches_naive_definition(self, rng):
        for _ in range(60):
            n = rng.randint(5, 12)
            g, cover = gen_planted(n, 0.5, rng.randrange(1 << 20))
            s = set(rng.sample(range(n), rng.randint(0, n // 2)))
            cyc = cover.edge_set()
            indep = all(
                u not in s
                for v in s
                for u in cover.cycle_neighbors(v)
            )
            boundary = {u for v in s for u in cover.cycle_neighbors(v)} - s
            dominated = all(
                any(g.has_edge(w, x) and edge_key(w, x) not in cyc for x in s)
                for w in boundary
            )
            assert check_independent_dominating(g, cover, s) == (indep and dominated)


def sample(g, cover, protected, rng):
    """The sampler on a request that protects the cycle edges ``protected``."""
    return sample_switch_set(RewireRequest(g, cover, frozenset(protected)), rng)


class TestSampleSwitchSet:
    def test_sampling_probability(self):
        assert rewire.sampling_probability(0) == rewire.sampling_probability(2) == 1.0
        for n in (3, 10, 200, 4000):
            assert rewire.sampling_probability(n) == min(1.0, 1.0 / math.sqrt(n * math.log(n)))

    def test_everything_blocked(self):
        g = complete_graph(6)
        with pytest.raises(RewireError):
            sample(g, ham_cover(6), {(0, 1), (2, 3), (4, 5)}, random.Random(0))

    def test_no_clear_candidates(self):
        g = complete_graph(6)
        # blocking two opposite edges' endpoints leaves no vertex clear of
        # the blocked set's cycle neighbourhood
        assert sample(g, ham_cover(6), {(0, 1), (3, 4)}, random.Random(0)) is None

    def test_undominable_target_draws_nothing(self):
        # vertex 5 has no chord, so no switch set can dominate it: the sampler
        # returns before its first draw, on every call with the same request
        cycle = {edge_key(v, (v + 1) % 10) for v in range(10)}
        chords = {e for e in combinations(range(10), 2) if 5 not in e}
        g = Graph(10, cycle | chords)
        req = RewireRequest(g, ham_cover(10), frozenset())
        rng = random.Random(0)
        state = rng.getstate()
        for _ in range(2):
            assert sample_switch_set(req, rng) is None
        assert req.undominable and rng.getstate() == state

    def test_deterministic(self):
        g = complete_graph(20)
        a = sample(g, ham_cover(20), {(0, 1)}, random.Random(5))
        b = sample(g, ham_cover(20), {(0, 1)}, random.Random(5))
        assert a == b and a is not None

    def test_dense_instance_with_probability_override(self, monkeypatch):
        # the derived 1/sqrt(n ln n) draw needs asymptotic degrees to
        # dominate; the override makes the dense n=200 instance land
        g, cover = gen_planted(200, 0.3, 42)
        monkeypatch.setattr(rewire, "sampling_probability", lambda n: 0.09)
        first = {edge_key(*cover.cycle_edge(0, 0))}
        for seed in range(4):
            s = sample(g, cover, first, random.Random(seed))
            assert s is not None
            assert check_independent_dominating(g, cover, s)

    def test_verified_by_predicate(self, rng):
        hits = 0
        for seed in range(40):
            g, cover = gen_planted(16, 0.6, seed)
            first = edge_key(*cover.cycle_edge(0, 0))
            s = sample(g, cover, {first}, random.Random(seed))
            if s is None:
                continue
            hits += 1
            assert check_independent_dominating(g, cover, s)
            # S keeps clear of the blocked region's cycle neighbourhood
            blocked_nbrs = {u for v in first for u in (v, *cover.cycle_neighbors(v))}
            assert not s & blocked_nbrs
        assert hits > 0


class TestSecondHamiltonCycle:
    def test_no_usable_desirable_edge(self):
        # the host has no edge off the cycle
        req = RewireRequest(cycle_graph(6), ham_cover(6), frozenset())
        assert second_hamilton_cycle(req, random.Random(1), DESK) is None

    def test_exhaustive_search_refuses_three_forced_edges(self):
        """A vertex with three forced edges lies on no Hamilton cycle, so the
        enumerator yields nothing."""
        g = complete_graph(6)
        allowed = [g.neighbor_bits(v) for v in range(6)]
        forced = frozenset({(0, 1), (0, 2), (0, 3)})
        assert list(rewire._hamilton_cycles(6, allowed, forced, 10**6)) == []
        # two forced edges at the vertex leave cycles to find
        found = list(rewire._hamilton_cycles(6, allowed, forced - {(0, 3)}, 10**6))
        assert found and all({(0, 1), (0, 2)} <= c.edge_set() for c in found)

    def test_blocked_everything_rejected(self):
        req = RewireRequest(complete_graph(4), ham_cover(4), frozenset({(0, 1), (2, 3)}))
        with pytest.raises(RewireError):
            second_hamilton_cycle(req, random.Random(1), DESK)

    @pytest.mark.parametrize(
        "graph, cover, protected, message",
        [
            (complete_graph(6), CycleCover([[0, 1, 2], [3, 4, 5]]), frozenset(),
             "rewiring requires a Hamilton cycle of the host graph"),
            (complete_graph(6), ham_cover(5), frozenset(),
             "rewiring requires a Hamilton cycle of the host graph"),
            # the cycle runs through (0, 1), which the graph lacks
            (Graph(16, [e for e in combinations(range(16), 2) if e != (0, 1)]),
             CycleCover([range(16)], 16), frozenset(),
             "rewiring requires a Hamilton cycle of the host graph"),
            (complete_graph(6), ham_cover(6), frozenset({(0, 2)}),
             "protected edges must lie on the cycle"),
            (complete_graph(6), ham_cover(6), frozenset({(0, 1), (2, 3), (4, 5)}),
             "blocked set covers every vertex"),
        ],
        ids=["two-cycles", "wrong-order", "cycle-off-graph", "protected-chord", "all-blocked"],
    )
    def test_malformed_request_rejected(self, graph, cover, protected, message):
        """Both entry points, under a floor every vertex meets and one none
        meets, raise the request's one verdict, before they read anything
        else of it."""
        req = RewireRequest(graph, cover, protected)
        unmet = Params(thomassen_degree_floor=graph.n)
        for call in (
            lambda: second_hamilton_cycle(req, random.Random(1), DESK),
            lambda: second_hamilton_cycle(req, random.Random(1), unmet),
            lambda: sample_switch_set(req, random.Random(1)),
        ):
            with pytest.raises(RewireError) as raised:
                call()
            assert str(raised.value) == message

    def test_degree_precondition_without_override(self):
        # the default floor 1 holds on every host of a Hamilton cycle; a
        # floor of n holds on none
        req = RewireRequest(complete_graph(6), ham_cover(6), frozenset())
        assert second_hamilton_cycle(req, random.Random(1), Params())
        with pytest.raises(RewireError, match="vertex 0 has desirable degree 5 < 6"):
            second_hamilton_cycle(req, random.Random(1), Params(thomassen_degree_floor=6))

    def test_integer_floor_is_the_floor(self):
        """An integer ``thomassen_degree_floor`` d requires degree >= d
        outside B': vertex 5 of this K10 minus its chords has degree 2."""
        on_cycle = {(4, 5), (5, 6)}
        g = Graph(10, [e for e in combinations(range(10), 2) if 5 not in e or e in on_cycle])
        assert g.degree(5) == 2
        req = RewireRequest(g, ham_cover(10), frozenset())
        with pytest.raises(RewireError, match="vertex 5 has desirable degree 2 < 3"):
            second_hamilton_cycle(req, random.Random(1), Params(thomassen_degree_floor=3))
        for floor in (1, 2):
            params = Params(thomassen_degree_floor=floor)
            assert second_hamilton_cycle(req, random.Random(1), params)
        # inside B' the vertex is exempt
        req = RewireRequest(g, ham_cover(10), frozenset({(4, 5)}))
        assert second_hamilton_cycle(req, random.Random(1), Params(thomassen_degree_floor=3))

    def test_postconditions_small(self, rng):
        found = 0
        for seed in range(30):
            n = rng.randint(8, 14)
            g, cover = gen_planted(n, 0.5, seed)
            protected = frozenset(list(cover.edge_set())[:2])
            req = RewireRequest(g, cover, protected)
            res = second_hamilton_cycle(req, random.Random(seed), DESK)
            if res is None:
                continue
            found += 1
            out = res.cycle
            assert validate_cover(g, out) == 1
            assert out.edge_set() != cover.edge_set()
            assert protected <= out.edge_set()
            assert res.absorbed and all(
                g.has_edge(*e) and e not in cover.edge_set() for e in res.absorbed
            )
            changed = out.edge_set() ^ cover.edge_set()
            assert all(u in res.switch_set or v in res.switch_set for u, v in changed)
        assert found == 20

    def test_sampled_path_on_larger_instance(self):
        g, cover = gen_planted(60, 0.5, 3)
        protected = frozenset(list(cover.edge_set())[:3])
        req = RewireRequest(g, cover, protected)
        res = second_hamilton_cycle(req, random.Random(3), DESK)
        assert res is not None
        assert validate_cover(g, res.cycle) == 1

    def test_deterministic_given_seed(self):
        g, cover = gen_planted(24, 0.4, 11)
        req = RewireRequest(g, cover, frozenset())
        a = second_hamilton_cycle(req, random.Random(2), DESK)
        b = second_hamilton_cycle(req, random.Random(2), DESK)
        assert a.cycle == b.cycle and a.switch_set == b.switch_set


def _reference_segments(cycle, s):
    """The relink's segments as a scan over every vertex of the cycle."""
    seq = list(cycle.cycles[0])
    n = len(seq)
    positions = sorted(i for i, v in enumerate(seq) if v in s)
    segments = []
    for idx, p in enumerate(positions):
        q = positions[(idx + 1) % len(positions)]
        run = []
        i = (p + 1) % n
        while i != q:
            run.append(seq[i])
            i = (i + 1) % n
        if not run:
            raise RewireError("switch set is not cycle-independent")
        segments.append(run)
    return segments


def _reference_dead(seq, start, segments, seg_used, remaining, allowed_bits):
    """The relink's dead-node test on sets: every open end (the start, and
    both ends of each unused run) needs an unplaced S neighbour, a run two
    distinct ones, and every unplaced S vertex two neighbours among the
    open ends and the sequence's last vertex."""

    def adj(x, y):
        return (allowed_bits[x] >> y) & 1

    ports = {seq[-1], start}
    if not any(adj(start, v) for v in remaining):
        return True
    for used, seg in zip(seg_used, segments):
        if used:
            continue
        at_a = {v for v in remaining if adj(seg[0], v)}
        at_b = {v for v in remaining if adj(seg[-1], v)}
        if not at_a or not at_b or len(at_a | at_b) < 2:
            return True
        ports |= {seg[0], seg[-1]}
    return any(sum(adj(v, x) for x in ports) < 2 for v in remaining)


def _reference_relink(cycle, s, allowed_bits, budget, prune=True):
    """The relink search copying its whole sequence at every node and
    comparing each closed arrangement's edge set with the original's; with
    ``prune`` off it expands dead nodes too."""
    if len(s) < 2:
        return None
    segments = _reference_segments(cycle, s)
    k = len(segments)
    original = cycle.edge_set()
    n = cycle.n
    nodes = [budget]
    anchor = segments[0]
    seg_used = [False] * k
    seg_used[0] = True
    s_sorted = sorted(s)

    def close(sequence):
        edges = set()
        prev = sequence[-1]
        for v in sequence:
            edges.add(edge_key(prev, v))
            prev = v
        if frozenset(edges) == original:
            return None
        return CycleCover.from_edge_set(n, edges)

    def extend(seq, used_s):
        nodes[0] -= 1
        if nodes[0] < 0:
            return None
        end = seq[-1]
        remaining = [v for v in s_sorted if v not in used_s]
        if prune and not all(seg_used):
            if _reference_dead(seq, anchor[0], segments, seg_used, remaining, allowed_bits):
                return None
        if not any(not u for u in seg_used):
            v = remaining[0]
            if (allowed_bits[end] >> v) & 1 and (allowed_bits[v] >> anchor[0]) & 1:
                return close(seq + [v])
            return None
        for v in remaining:
            if not (allowed_bits[end] >> v) & 1:
                continue
            for si in range(1, k):
                if seg_used[si]:
                    continue
                seg = segments[si]
                for run in [seg] if len(seg) == 1 else [seg, seg[::-1]]:
                    if not (allowed_bits[v] >> run[0]) & 1:
                        continue
                    seg_used[si] = True
                    used_s.add(v)
                    found = extend(seq + [v] + run, used_s)
                    used_s.discard(v)
                    seg_used[si] = False
                    if found is not None:
                        return found
                    if nodes[0] < 0:
                        return None
        return None

    return extend(list(anchor), set())


def _recursive_second_cycle(n, allowed_bits, forced, original, budget):
    """The exhaustive search as a recursive function that returns the first
    Hamilton cycle other than ``original``: the reference for the
    enumerator's order and budget."""
    forced_at = [[] for _ in range(n)]
    for u, v in forced:
        forced_at[u].append(v)
        forced_at[v].append(u)
    if any(len(f) > 2 for f in forced_at):
        return None
    nodes = [budget]
    path = [0]
    on_path = [1]

    def dfs():
        nodes[0] -= 1
        if nodes[0] < 0:
            return None
        v = path[-1]
        at_start = len(path) == 1
        prev = -1 if at_start else path[-2]
        musts = forced_at[v] if at_start else [w for w in forced_at[v] if w != prev]
        if len(path) == n:
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
            candidates = [w for w in sorted(musts) if not (on_path[0] >> w) & 1]
        else:
            candidates = [w for w in range(n) if (allowed_bits[v] & ~on_path[0]) >> w & 1]
        for w in candidates:
            if not (allowed_bits[v] >> w) & 1:
                continue
            path.append(w)
            on_path[0] |= 1 << w
            found = dfs()
            path.pop()
            on_path[0] &= ~(1 << w)
            if found is not None:
                return found
            if nodes[0] < 0:
                return None
        return None

    return dfs()


class TestHamiltonCycles:
    def test_each_cycle_once_against_permutations(self):
        """Every Hamilton cycle of the allowed rows that keeps the forced
        edges comes exactly once, checked against all vertex orders."""
        from itertools import permutations

        seen_forced = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(3, 8)
            pairs = [e for e in combinations(range(n), 2) if rng.random() < rng.uniform(0.3, 0.9)]
            rows = rows_of(n, pairs)
            edges = sorted(pairs)
            forced = frozenset(rng.sample(edges, min(len(edges), rng.randint(0, 3))))
            want = set()
            for rest in permutations(range(1, n)):
                order = (0, *rest)
                cyc = [edge_key(order[i], order[(i + 1) % n]) for i in range(n)]
                if all((rows[u] >> v) & 1 for u, v in cyc) and forced <= set(cyc):
                    want.add(CycleCover([order], n))
            got = list(rewire._hamilton_cycles(n, rows, forced, 10**6))
            assert len(got) == len(set(got)), seed
            assert set(got) == want, seed
            seen_forced += bool(forced and want)
        assert seen_forced >= 5

    def test_first_other_cycle_matches_the_recursive_search(self, rng):
        """The enumerator's first item other than the request's cycle is the
        cycle the recursive search returns, at every budget, on the requests
        of ``TestRequestFacts`` up to the walk's cutoff."""
        checked = 0
        for seed in range(120):
            g, cover, req = TestRequestFacts._random_request(rng, seed)
            if g.n > pipeline.EXHAUSTIVE_CUTOFF:
                continue
            args = (g.n, g._bits, req.protected)
            for budget in (1, 4, 20, 100, rewire.REWIRE_NODE_BUDGET):
                cycles = rewire._hamilton_cycles(*args, budget)
                got = next((c for c in cycles if c != cover), None)
                assert got == _recursive_second_cycle(*args, cover, budget), (seed, budget)
            checked += got is not None
        assert checked >= 5


class TestRelinkMatchesReference:
    def test_seeded_requests(self, rng):
        # n <= 40, node budgets from one node up: searches that find a cycle,
        # exhaust, are cut by the budget, or meet a dependent switch set
        outcomes = {"found": 0, "none": 0, "cut": 0, "dependent": 0}
        for _ in range(300):
            n = rng.randint(6, 40)
            g, cover = gen_planted(n, rng.uniform(0.15, 0.9), rng.randrange(1 << 30))
            # the cycle plus about 60 % of the other edges
            kept = [e for e in g.edge_set() if rng.random() < 0.6]
            allowed = list(rows_of(n, [*kept, *cover.edge_set()]))
            # mostly cycle-independent sets; a few with two consecutive vertices
            s = set()
            for v in rng.sample(range(n), rng.randint(2, max(2, n // 3))):
                if rng.random() < 0.1 or not set(cover.cycle_neighbors(v)) & s:
                    s.add(v)
            for budget in (1, 2, 3, 5, 8, 200_000):
                try:
                    expected = _reference_relink(cover, set(s), allowed, budget)
                except RewireError:
                    with pytest.raises(RewireError, match="cycle-independent"):
                        rewire._relink(cover, set(s), allowed, budget)
                    outcomes["dependent"] += 1
                    break
                got = rewire._relink(cover, set(s), allowed, budget)
                assert got == expected, (n, sorted(s), budget)
                if budget == 200_000:
                    # the dead-node cut changes no result the search reaches
                    assert _reference_relink(cover, s, allowed, budget, prune=False) == got
                if expected is not None:
                    assert validate_cover(g, got) == 1
                    outcomes["found"] += 1
                elif budget < 200_000 and rewire._relink(cover, s, allowed, 200_000):
                    outcomes["cut"] += 1
                else:
                    outcomes["none"] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_cut_costs_no_nodes(self, rng):
        """The search finds each cycle within the budget the search without
        the dead-node cut needs, and on sparse hosts with large switch sets
        within far fewer nodes."""

        def least_budget(search):
            lo, hi = 1, 200_000
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if search(mid) is not None else (mid + 1, hi)
            return lo

        needed = []
        while len(needed) < 40:
            n = rng.randint(20, 40)
            g, cover = gen_planted(n, rng.uniform(0.15, 0.35), rng.randrange(1 << 30))
            allowed = g._bits
            s = set()
            for v in rng.sample(range(n), n // 3):
                if not set(cover.cycle_neighbors(v)) & s:
                    s.add(v)
            full = _reference_relink(cover, s, allowed, 200_000, prune=False)
            if full is None or len(s) < 5:
                continue
            plain = least_budget(lambda b: _reference_relink(cover, s, allowed, b, prune=False))
            assert rewire._relink(cover, s, allowed, plain) == full
            needed.append((least_budget(lambda b: rewire._relink(cover, s, allowed, b)), plain))
        assert all(cut <= plain for cut, plain in needed)
        assert sum(cut for cut, _ in needed) * 4 < sum(plain for _, plain in needed), needed

    def test_differs_only_in_junctions_out_of_s(self):
        # every junction into an S vertex is a cycle edge here, yet the first
        # arrangement found leaves vertex 4 along the chord (4, 7)
        cover = CycleCover([[0, 1, 6, 3, 2, 4, 7, 5]])
        chords = [(0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (2, 5), (2, 7)]
        chords += [(3, 4), (3, 5), (4, 6), (5, 6), (6, 7)]
        allowed = list(rows_of(8, [*chords, *cover.edge_set()]))
        s = {1, 3, 4, 5}
        expected = _reference_relink(cover, s, allowed, 200_000)
        assert expected.cycles == ((0, 4, 7, 1, 6, 3, 2, 5),)
        assert rewire._relink(cover, s, allowed, 200_000) == expected

    def test_segments_match_reference(self, rng):
        for _ in range(100):
            n = rng.randint(6, 40)
            cover = CycleCover([rng.sample(range(n), n)], n)
            s = set(rng.sample(range(n), rng.randint(1, n // 2)))
            try:
                expected = _reference_segments(cover, s)
            except RewireError:
                with pytest.raises(RewireError):
                    rewire._segments(cover, s)
                continue
            assert [list(run) for run in rewire._segments(cover, s)] == expected


class TestRequestReuse:
    """What the rounds of one call share: the request's seed rotation, and
    the proposals whose relink already failed."""

    def test_failed_proposal_runs_no_relink(self, monkeypatch, rng):
        """Within one call, a proposal that already failed is skipped without
        a relink: the call relinks its proposals in order, each the first
        time it comes.  Protected cycle edges block all but an arc of 8
        cycle vertices of a small sparse host, so few vertices are clear,
        few edges are usable and the desk-scale rounds repeat their seeds."""
        proposed, relinked = [], []
        proposals, relink = rewire._proposals, rewire._relink

        def recorded(req, rng):
            for s in proposals(req, rng):
                proposed.append(s)
                yield s

        def counted(cycle, s, rows, budget):
            relinked.append(frozenset(s))
            return relink(cycle, s, rows, budget)

        monkeypatch.setattr(rewire, "_proposals", recorded)
        monkeypatch.setattr(rewire, "_relink", counted)
        repeats = 0
        for seed in range(24):
            n = rng.randint(10, 16)
            g, cover = gen_planted(n, rng.uniform(0.1, 0.3), seed)
            start = rng.randrange(n)
            rest = [cover.cycles[0][(start + i) % n] for i in range(8, n)]
            req = RewireRequest(g, cover, cycle_edges_at(cover, rest))
            assert len(req.blocked) == n - 8
            ours = random.Random(seed)
            for _ in range(8):
                proposed.clear()
                relinked.clear()
                second_hamilton_cycle(req, ours, DESK)
                assert relinked == list(dict.fromkeys(proposed))
                repeats += len(proposed) - len(relinked)
        assert repeats > 50, repeats

    def test_seed_rotation_matches_every_edge_seeded(self, rng):
        """The rotation over the 32 desk-scale rounds equals the one read
        from the seed pairs of all usable edges, with the rounds whose edge
        has none left out."""
        for seed in range(30):
            n = rng.randint(8, 40)
            g, cover = gen_planted(n, rng.uniform(0.2, 0.7), seed)
            protected = frozenset(rng.sample(sorted(cover.edge_set()), rng.randint(0, 2)))
            req = RewireRequest(g, cover, protected)
            clear = set(req.clear)
            nbrs = cover.cycle_neighbors

            def seed_pair(edge):
                for a, b in (edge, edge[::-1]):
                    if a in clear:
                        for x in nbrs(b):
                            if x in clear and x != a and x not in nbrs(a):
                                return a, x
                return None

            pairs = [seed_pair(e) for e in sorted(g.edge_set() - cover.edge_set())]
            expected = tuple(
                pairs[r % len(pairs)] for r in range(32) if pairs[r % len(pairs)] is not None
            )
            assert rewire.SAMPLE_RETRIES == 32
            assert req.seed_rotation == expected
            assert req.seed_rotation is req.seed_rotation


class TestRequestFacts:
    """Each row-built fact of a request equals its definition over edge sets."""

    @staticmethod
    def _random_request(rng, seed):
        n = rng.randint(5, 40)
        g, cover = gen_planted(n, rng.uniform(0.1, 0.7), seed)
        if seed % 6 == 0:
            # nothing usable: the host is the cycle alone
            g = Graph(n, cover.edge_set())
        protected = frozenset(rng.sample(sorted(cover.edge_set()), rng.randint(0, 2)))
        return g, cover, RewireRequest(g, cover, protected)

    def test_facts_match_set_definitions(self, rng):
        seen = {"undominable": 0, "dominable": 0, "no usable": 0}
        for seed in range(60):
            g, cover, req = self._random_request(rng, seed)
            n = g.n
            cyc = cover.edge_set()
            usable = sorted(g.edge_set() - cyc)
            assert req.off_cycle_bits == list(rows_of(n, usable))
            assert req.cycle_bits == list(rows_of(n, cyc))
            assert list(req.usable_edges()) == usable
            assert req.usable_count == len(usable)
            assert req.blocked == {v for e in req.protected for v in e}
            clear = set(req.clear)

            def seed_pair(edge):
                for a, b in (edge, edge[::-1]):
                    if a in clear:
                        for x in cover.cycle_neighbors(b):
                            if x in clear and x != a and x not in cover.cycle_neighbors(a):
                                return a, x
                return None

            pairs = [seed_pair(e) for e in usable]
            assert req.seed_rotation == tuple(
                pairs[r % len(pairs)]
                for r in range(rewire.SAMPLE_RETRIES if pairs else 0)
                if pairs[r % len(pairs)] is not None
            )
            targets = [v for v in range(n) if v not in req.blocked]
            undominable = any(
                not any(g.has_edge(t, c) and edge_key(t, c) not in cyc for c in clear)
                for t in targets
            )
            assert req.undominable == undominable
            seen["undominable" if undominable else "dominable"] += 1
            seen["no usable"] += not usable
        assert min(seen.values()) >= 3, seen

    def test_requests_without_proposals_draw_nothing(self, rng):
        """A call whose sampler cannot draw (no clear vertex, or an
        undominable target) and that has no seed pair returns None and
        leaves the random stream as it was, call after call.  Every other
        request protects the cycle edges of all but an arc of at most 6
        vertices, so that few are clear."""
        seen = {"no usable": 0, "quiet, usable": 0, "busy": 0}
        for seed in range(80):
            g, cover, req = self._random_request(rng, seed)
            if seed % 2:
                start, arc = rng.randrange(g.n), rng.randint(1, min(6, g.n - 2))
                rest = [cover.cycles[0][(start + i) % g.n] for i in range(arc, g.n)]
                req = RewireRequest(g, cover, cycle_edges_at(cover, rest))
            quiet = (not req.clear or req.undominable) and not req.seed_rotation
            ours = random.Random(seed)
            for call in range(3):
                state = ours.getstate()
                got = second_hamilton_cycle(req, ours, DESK)
                if quiet:
                    assert got is None and ours.getstate() == state, (seed, call)
            if quiet:
                seen["quiet, usable" if req.usable_count else "no usable"] += 1
            else:
                seen["busy"] += 1
        assert min(seen.values()) >= 5, seen
