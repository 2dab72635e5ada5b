import math
import random
import warnings
from itertools import combinations

import pytest

from cyclesplit import rewire
from cyclesplit.graphs import CycleCover, Graph, Params, edge_key, validate_cover
from cyclesplit.instances import gen_planted
from cyclesplit.rewire import (
    RewireError,
    RewireRequest,
    check_independent_dominating,
    sample_switch_set,
    second_hamilton_cycle,
)

from conftest import complete_graph, ham_cover, rows_of

DESK = Params(thomassen_degree_floor=1)


@pytest.fixture(autouse=True)
def _quiet_desk_override():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


def all_chords(n):
    cyc = ham_cover(n).edge_set()
    return rows_of(n, (e for e in combinations(range(n), 2) if edge_key(*e) not in cyc))


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


def sample(g, cover, blocked, rng):
    """The sampler on a request with desirable graph ``g`` and bad set ``blocked``."""
    req = RewireRequest(g, cover, frozenset(), rows_of(g.n, g.edge_set()), frozenset(blocked))
    return sample_switch_set(req, rng)


class TestSampleSwitchSet:
    def test_sampling_probability(self):
        assert rewire.sampling_probability(0) == rewire.sampling_probability(2) == 1.0
        for n in (3, 10, 200, 4000):
            assert rewire.sampling_probability(n) == min(1.0, 1.0 / math.sqrt(n * math.log(n)))

    def test_everything_blocked(self):
        g = complete_graph(6)
        with pytest.raises(RewireError):
            sample(g, ham_cover(6), set(range(6)), random.Random(0))

    def test_no_clear_candidates(self):
        g = complete_graph(6)
        # blocking alternate vertices leaves no vertex clear of the blocked
        # set's cycle neighbourhood
        assert sample(g, ham_cover(6), {0, 2, 4}, random.Random(0)) is None

    def test_undominable_target_draws_nothing(self):
        # vertex 5 has no chord, so no switch set can dominate it: the sampler
        # returns before its first draw, on every call with the same request
        cycle = {edge_key(v, (v + 1) % 10) for v in range(10)}
        chords = {e for e in combinations(range(10), 2) if 5 not in e}
        g = Graph(10, cycle | chords)
        req = RewireRequest(g, ham_cover(10), frozenset(), rows_of(g.n, g.edge_set()))
        rng = random.Random(0)
        state = rng.getstate()
        for _ in range(2):
            assert sample_switch_set(req, rng) is None
        assert req.undominable and rng.getstate() == state

    def test_deterministic(self):
        g = complete_graph(20)
        a = sample(g, ham_cover(20), {0, 1}, random.Random(5))
        b = sample(g, ham_cover(20), {0, 1}, random.Random(5))
        assert a == b and a is not None

    def test_dense_instance_with_probability_override(self, monkeypatch):
        # the derived 1/sqrt(n ln n) draw needs asymptotic degrees to
        # dominate; the override makes the dense n=200 instance land
        g, cover = gen_planted(200, 0.3, 42)
        monkeypatch.setattr(rewire, "sampling_probability", lambda n: 0.09)
        for seed in range(4):
            s = sample(g, cover, {0, 1}, random.Random(seed))
            assert s is not None
            assert check_independent_dominating(g, cover, s)

    def test_verified_by_predicate(self, rng):
        hits = 0
        for seed in range(40):
            g, cover = gen_planted(16, 0.6, seed)
            s = sample(g, cover, {0}, random.Random(seed))
            if s is None:
                continue
            hits += 1
            assert check_independent_dominating(g, cover, s)
            # S keeps clear of the blocked region's cycle neighbourhood
            blocked_nbrs = {0} | set(cover.cycle_neighbors(0))
            assert not s & blocked_nbrs
        assert hits > 0


class TestSecondHamiltonCycle:
    def test_k4_example(self):
        req = RewireRequest(
            complete_graph(4), ham_cover(4), frozenset({(0, 1)}), all_chords(4)
        )
        res = second_hamilton_cycle(req, random.Random(1), DESK)
        assert res.cycle.cycles == ((0, 1, 3, 2),)
        assert (0, 2) in res.cycle.edge_set() and (1, 3) in res.cycle.edge_set()

    def test_no_usable_desirable_edge(self):
        req = RewireRequest(
            complete_graph(4), ham_cover(4), frozenset(), rows_of(4, [(0, 1)])
        )
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
        g = complete_graph(4)
        req = RewireRequest(
            g, ham_cover(4), frozenset({(0, 1), (2, 3)}), all_chords(4), frozenset({0, 1, 2, 3})
        )
        with pytest.raises(RewireError):
            second_hamilton_cycle(req, random.Random(1), DESK)

    @pytest.mark.parametrize(
        "cover, protected, bad, desirable, message",
        [
            (CycleCover([[0, 1, 2], [3, 4, 5]]), frozenset(), frozenset(), all_chords(6),
             "rewiring requires a Hamilton cycle of the host graph"),
            (ham_cover(5), frozenset(), frozenset(), all_chords(6),
             "rewiring requires a Hamilton cycle of the host graph"),
            (ham_cover(6), frozenset({(0, 2)}), frozenset(), all_chords(6),
             "protected edges must lie on the cycle"),
            (ham_cover(6), frozenset({(0, 1)}), frozenset({2, 3, 4, 5}), all_chords(6),
             "blocked set covers every vertex"),
            (ham_cover(6), frozenset(), frozenset(), all_chords(6)[:5],
             "desirable graph has 5 rows, host graph has 6 vertices"),
            (ham_cover(6), frozenset(), frozenset(), (0, 0, 0),
             "desirable graph has 3 rows, host graph has 6 vertices"),
        ],
        ids=["two-cycles", "wrong-order", "protected-chord", "all-blocked", "short-rows",
             "three-empty-rows"],
    )
    def test_malformed_request_rejected(self, cover, protected, bad, desirable, message):
        """Both entry points, under either degree floor, raise the request's
        one verdict, before they read anything else of it."""
        req = RewireRequest(complete_graph(6), cover, protected, desirable, bad)
        for call in (
            lambda: second_hamilton_cycle(req, random.Random(1), DESK),
            lambda: second_hamilton_cycle(req, random.Random(1), Params()),
            lambda: sample_switch_set(req, random.Random(1)),
        ):
            with pytest.raises(RewireError) as raised:
                call()
            assert str(raised.value) == message

    def test_desirable_non_edges_never_absorbed(self):
        found = 0
        for seed in range(12):
            g, cover = gen_planted(12, 0.5, seed)
            # every pair, so the request has to drop the non-edges of g
            everything = frozenset((v, u) for u, v in combinations(range(12), 2))
            non_edges = frozenset(edge_key(*e) for e in everything) - g.edge_set()
            assert non_edges
            only_non_edges = RewireRequest(g, cover, frozenset(), rows_of(12, non_edges))
            assert second_hamilton_cycle(only_non_edges, random.Random(seed), DESK) is None
            req = RewireRequest(g, cover, frozenset(), rows_of(12, everything))
            res = second_hamilton_cycle(req, random.Random(seed), DESK)
            if res is None:
                continue
            found += 1
            assert not res.absorbed & non_edges
            assert validate_cover(g, res.cycle) == 1
        assert found >= 10

    def test_degree_precondition_without_override(self):
        req = RewireRequest(
            complete_graph(6), ham_cover(6), frozenset(), all_chords(6)
        )
        with pytest.raises(RewireError, match="degree"):
            second_hamilton_cycle(req, random.Random(1), Params())

    def test_postconditions_small(self, rng):
        found = 0
        for seed in range(30):
            n = rng.randint(8, 14)
            g, cover = gen_planted(n, 0.5, seed)
            protected = frozenset(list(cover.edge_set())[:2])
            desirable = rows_of(g.n, g.edge_set())
            req = RewireRequest(g, cover, protected, desirable)
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
        assert found >= 25

    def test_sampled_path_on_larger_instance(self):
        g, cover = gen_planted(60, 0.5, 3)
        protected = frozenset(list(cover.edge_set())[:3])
        req = RewireRequest(g, cover, protected, rows_of(g.n, g.edge_set()))
        res = second_hamilton_cycle(req, random.Random(3), DESK)
        assert res is not None and not res.used_fallback
        assert validate_cover(g, res.cycle) == 1

    def test_deterministic_given_seed(self):
        g, cover = gen_planted(24, 0.4, 11)
        req = RewireRequest(g, cover, frozenset(), rows_of(g.n, g.edge_set()))
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
        """``exhaustive_cycle`` is the enumerator's first item other than the
        request's cycle: the cycle the recursive search returns, at every
        budget, on the requests of ``TestRequestFacts``."""
        checked = 0
        for seed in range(120):
            g, cover, _, req = TestRequestFacts._random_request(rng, seed)
            if g.n > rewire.EXHAUSTIVE_CUTOFF:
                continue
            args = (g.n, req.allowed_bits, req.protected)
            assert req.exhaustive_cycle == _recursive_second_cycle(
                *args, cover, rewire.REWIRE_NODE_BUDGET
            )
            for budget in (1, 4, 20, 100):
                cycles = rewire._hamilton_cycles(*args, budget)
                got = next((c for c in cycles if c != cover), None)
                assert got == _recursive_second_cycle(*args, cover, budget), (seed, budget)
            checked += req.exhaustive_cycle is not None
        assert checked >= 5


class TestRelinkMatchesReference:
    def test_seeded_requests(self, rng):
        # n <= 40, node budgets from one node up: searches that find a cycle,
        # exhaust, are cut by the budget, or meet a dependent switch set
        outcomes = {"found": 0, "none": 0, "cut": 0, "dependent": 0}
        for _ in range(300):
            n = rng.randint(6, 40)
            g, cover = gen_planted(n, rng.uniform(0.15, 0.9), rng.randrange(1 << 30))
            desirable = rows_of(n, (e for e in g.edge_set() if rng.random() < 0.6))
            allowed = RewireRequest(g, cover, frozenset(), desirable).allowed_bits
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
            allowed = RewireRequest(g, cover, frozenset(), g._bits).allowed_bits
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
        desirable = rows_of(8, chords)
        allowed = RewireRequest(complete_graph(8), cover, frozenset(), desirable).allowed_bits
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


def _result_key(res):
    if res is None:
        return None
    return res.cycle, res.switch_set, res.absorbed, res.used_fallback


class TestRequestReuse:
    def test_reused_request_draws_like_a_fresh_one(self, rng):
        """One request passed to every call, as ``enrich`` does: each call
        returns what a fresh request returns and leaves the random stream in
        the same state."""
        results = {"found": 0, "none": 0}
        for seed in range(24):
            n = rng.randint(8, 40)
            g, cover = gen_planted(n, rng.uniform(0.2, 0.6), seed)
            edges = sorted(cover.edge_set())
            protected = frozenset(rng.sample(edges, rng.randint(0, 3)))
            desirable = rows_of(n, (e for e in g.edge_set() if rng.random() < 0.5))
            bad = frozenset(rng.sample(range(n), rng.randint(0, 2)))

            def fresh():
                return RewireRequest(g, cover, protected, desirable, bad)

            reused = fresh()
            ours, theirs = random.Random(seed), random.Random(seed)
            for call in range(8):
                assert sample_switch_set(reused, ours) == sample_switch_set(fresh(), theirs)
                assert ours.getstate() == theirs.getstate()
                got = second_hamilton_cycle(reused, ours, DESK)
                assert _result_key(got) == _result_key(
                    second_hamilton_cycle(fresh(), theirs, DESK)
                )
                assert ours.getstate() == theirs.getstate()
                results["none" if got is None else "found"] += 1
        assert min(results.values()) >= 10, results

    def test_reused_request_relinks_each_switch_set_once(self, monkeypatch, rng):
        """A request passed to every call never searches again a switch set
        whose search failed, and its results and random stream equal
        those of a fresh request per call, which searches again.  All but an
        arc of 8 cycle vertices are bad, so few vertices are clear and the
        desk-scale switch sets repeat."""
        searched = []
        relink = rewire._relink

        def counted(cycle, s, allowed_bits, budget):
            found = relink(cycle, s, allowed_bits, budget)
            searched.append((frozenset(s), found is None))
            return found

        monkeypatch.setattr(rewire, "_relink", counted)
        saved = 0
        for seed in range(24):
            n = rng.randint(20, 40)
            g, cover = gen_planted(n, rng.uniform(0.2, 0.5), seed)
            start = rng.randrange(n)
            arc = {cover.cycles[0][(start + i) % n] for i in range(8)}
            bad = frozenset(range(n)) - arc

            def fresh():
                return RewireRequest(g, cover, frozenset(), rows_of(g.n, g.edge_set()), bad)

            runs = []
            for make in (lambda req=fresh(): req, fresh):
                searched.clear()
                ours = random.Random(seed)
                got = [
                    _result_key(second_hamilton_cycle(make(), ours, DESK))
                    for call in range(8)
                ]
                runs.append((got, ours.getstate(), list(searched)))
            (reused, state, once), (fresh_got, fresh_state, every) = runs
            assert reused == fresh_got and state == fresh_state
            failed = set()
            for tried, failure in once:
                assert tried not in failed
                if failure:
                    failed.add(tried)
            assert {tried for tried, _ in once} == {tried for tried, _ in every}
            saved += len(every) - len(once)
        assert saved > 50, saved

    def test_failed_proposal_runs_no_relink(self, monkeypatch, rng):
        """A proposal already in the request's failed set is skipped without
        a relink, and the results and the random stream equal those of a run
        with the skip disabled (a failed set that never reports a member),
        which relinks every proposal.  Few vertices are clear, as above, so
        proposals repeat."""

        class Forgetful(set):
            def __contains__(self, item):
                return False

        requests = []
        known = []
        relink = rewire._relink

        def counted(cycle, s, allowed_bits, budget):
            known.append(set.__contains__(requests[-1].failed, frozenset(s)))
            return relink(cycle, s, allowed_bits, budget)

        monkeypatch.setattr(rewire, "_relink", counted)
        repeats = 0
        for seed in range(24):
            n = rng.randint(20, 40)
            g, cover = gen_planted(n, rng.uniform(0.2, 0.5), seed)
            start = rng.randrange(n)
            arc = {cover.cycles[0][(start + i) % n] for i in range(8)}
            bad = frozenset(range(n)) - arc
            runs = []
            for skip in (True, False):
                req = RewireRequest(g, cover, frozenset(), rows_of(g.n, g.edge_set()), bad)
                if not skip:
                    object.__setattr__(req, "failed", Forgetful())
                requests.append(req)
                known.clear()
                ours = random.Random(seed)
                got = [_result_key(second_hamilton_cycle(req, ours, DESK)) for _ in range(8)]
                runs.append((got, ours.getstate(), list(known)))
            (got, state, skipping), (plain_got, plain_state, plain) = runs
            assert got == plain_got and state == plain_state
            assert not any(skipping)
            repeats += sum(plain)
        assert repeats > 50, repeats

    def test_seed_rotation_matches_every_edge_seeded(self, rng):
        """The rotation over the 32 desk-scale rounds equals the one read
        from the seed pairs of all usable edges, with the rounds whose edge
        has none left out."""
        for seed in range(30):
            n = rng.randint(8, 40)
            g, cover = gen_planted(n, rng.uniform(0.2, 0.7), seed)
            blocked = frozenset(rng.sample(range(n), rng.randint(0, 3)))
            req = RewireRequest(g, cover, frozenset(), rows_of(g.n, g.edge_set()), blocked)
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
        pairs = list(combinations(range(n), 2))
        # graph edges, non-edges of g and cycle edges, in either orientation
        desirable = {e for e in pairs if rng.random() < rng.choice((0.1, 0.5, 0.9))}
        if seed % 6 == 0:
            # nothing usable: only non-edges, plus the cycle edges below
            desirable = {e for e in desirable if not g.has_edge(*e)}
        desirable |= set(rng.sample(sorted(cover.edge_set()), rng.randint(0, n)))
        desirable = frozenset((v, u) if rng.random() < 0.5 else (u, v) for u, v in desirable)
        edges = sorted(cover.edge_set())
        protected = frozenset(rng.sample(edges, rng.randint(0, 2)))
        bad = frozenset(rng.sample(range(n), rng.randint(0, 3)))
        return g, cover, desirable, RewireRequest(g, cover, protected, rows_of(n, desirable), bad)

    def test_facts_match_set_definitions(self, rng):
        seen = {"undominable": 0, "dominable": 0, "no usable": 0}
        for seed in range(60):
            g, cover, desirable, req = self._random_request(rng, seed)
            n = g.n
            cyc = cover.edge_set()
            desirable = {edge_key(u, v) for u, v in desirable if g.has_edge(u, v)}
            allowed = [0] * n
            for u, v in desirable | cyc:
                allowed[u] |= 1 << v
                allowed[v] |= 1 << u
            assert req.allowed_bits == allowed
            off = [0] * n
            for u, v in desirable - cyc:
                off[u] |= 1 << v
                off[v] |= 1 << u
            assert req.off_cycle_bits == off
            usable = sorted(desirable - cyc)
            assert list(req.usable_edges()) == usable
            assert req.usable_count == len(usable)
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
                not any(
                    edge_key(t, c) in desirable and edge_key(t, c) not in cyc for c in clear
                )
                for t in targets
            )
            assert req.undominable == undominable
            seen["undominable" if undominable else "dominable"] += 1
            seen["no usable"] += not usable
        assert min(seen.values()) >= 3, seen

    def test_idle_requests_draw_nothing_and_find_nothing(self, monkeypatch, rng):
        """A call on an idle request returns None and leaves the random
        stream as it was, and so does the next call; at most
        ``EXHAUSTIVE_CUTOFF`` vertices a request runs the exhaustive search
        at most once.  Every other request has all but a few vertices bad,
        as enrich's requests have them, so that few are clear."""
        searches = [0]
        search = rewire._hamilton_cycles

        def counted(*args):
            searches[0] += 1
            return search(*args)

        monkeypatch.setattr(rewire, "_hamilton_cycles", counted)
        seen = {"no usable": 0, "idle, usable": 0, "busy": 0}
        for seed in range(80):
            g, cover, _, req = self._random_request(rng, seed)
            if seed % 2:
                bad = frozenset(rng.sample(range(g.n), g.n - rng.randint(1, min(6, g.n))))
                req = RewireRequest(g, cover, frozenset(), req.desirable, bad)
            searches[0] = 0
            ours = random.Random(seed)
            for call in range(3):
                state = ours.getstate()
                got = second_hamilton_cycle(req, ours, DESK)
                if req.idle:
                    assert got is None and ours.getstate() == state, (seed, call)
            assert searches[0] <= (g.n <= rewire.EXHAUSTIVE_CUTOFF)
            if req.idle:
                seen["idle, usable" if req.usable_count else "no usable"] += 1
            else:
                seen["busy"] += 1
        assert min(seen.values()) >= 5, seen
