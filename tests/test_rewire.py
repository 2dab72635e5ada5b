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

from conftest import complete_graph, ham_cover

DESK = Params(thomassen_degree_floor=1)


@pytest.fixture(autouse=True)
def _quiet_desk_override():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


def all_chords(n):
    cyc = ham_cover(n).edge_set()
    return frozenset(e for e in combinations(range(n), 2) if edge_key(*e) not in cyc)


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


def sample(g, cover, blocked, rng, params):
    """The sampler on a request with desirable graph ``g`` and bad set ``blocked``."""
    req = RewireRequest(g, cover, frozenset(), frozenset(g.edge_set()), frozenset(blocked))
    return sample_switch_set(req, rng, params)


class TestSampleSwitchSet:
    def test_everything_blocked(self):
        g = complete_graph(6)
        with pytest.raises(RewireError):
            sample(g, ham_cover(6), set(range(6)), random.Random(0), DESK)

    def test_no_clear_candidates(self):
        g = complete_graph(6)
        # blocking alternate vertices leaves no vertex clear of the blocked
        # set's cycle neighbourhood
        assert sample(g, ham_cover(6), {0, 2, 4}, random.Random(0), DESK) is None

    def test_undominable_target_draws_nothing(self):
        # vertex 5 has no chord, so no switch set can dominate it: the sampler
        # returns before its first draw, on every call with the same request
        cycle = {edge_key(v, (v + 1) % 10) for v in range(10)}
        chords = {e for e in combinations(range(10), 2) if 5 not in e}
        g = Graph(10, cycle | chords)
        req = RewireRequest(g, ham_cover(10), frozenset(), frozenset(g.edge_set()))
        rng = random.Random(0)
        state = rng.getstate()
        for _ in range(2):
            assert sample_switch_set(req, rng, DESK) is None
        assert req.undominable and rng.getstate() == state

    def test_deterministic(self):
        g = complete_graph(20)
        a = sample(g, ham_cover(20), {0, 1}, random.Random(5), DESK)
        b = sample(g, ham_cover(20), {0, 1}, random.Random(5), DESK)
        assert a == b and a is not None

    def test_dense_instance_with_probability_override(self):
        # the derived 1/sqrt(n ln n) draw needs asymptotic degrees to
        # dominate; the override makes the dense n=200 instance land
        g, cover = gen_planted(200, 0.3, 42)
        params = Params(sample_prob=0.09)
        for seed in range(4):
            s = sample(g, cover, {0, 1}, random.Random(seed), params)
            assert s is not None
            assert check_independent_dominating(g, cover, s)

    def test_verified_by_predicate(self, rng):
        hits = 0
        for seed in range(40):
            g, cover = gen_planted(16, 0.6, seed)
            s = sample(g, cover, {0}, random.Random(seed), DESK)
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
            complete_graph(4), ham_cover(4), frozenset(), frozenset({(0, 1)})
        )
        assert second_hamilton_cycle(req, random.Random(1), DESK) is None

    def test_exhaustive_search_refuses_three_forced_edges(self):
        """A vertex with three forced edges lies on no Hamilton cycle, so the
        exhaustive search answers None."""
        g = complete_graph(6)
        allowed = [g.neighbor_bits(v) for v in range(6)]
        forced = frozenset({(0, 1), (0, 2), (0, 3)})
        assert rewire._exhaustive_second_cycle(6, allowed, forced, ham_cover(6), 10**6) is None
        # two forced edges at the vertex leave a cycle to find
        found = rewire._exhaustive_second_cycle(6, allowed, forced - {(0, 3)}, ham_cover(6), 10**6)
        assert found is not None and {(0, 1), (0, 2)} <= found.edge_set()

    def test_blocked_everything_rejected(self):
        g = complete_graph(4)
        req = RewireRequest(
            g, ham_cover(4), frozenset({(0, 1), (2, 3)}), all_chords(4), frozenset({0, 1, 2, 3})
        )
        with pytest.raises(RewireError):
            second_hamilton_cycle(req, random.Random(1), DESK)

    @pytest.mark.parametrize(
        "cover, protected, message",
        [
            (CycleCover([[0, 1, 2], [3, 4, 5]]), frozenset(), "Hamilton cycle"),
            (ham_cover(5), frozenset(), "Hamilton cycle"),
            (ham_cover(6), frozenset({(0, 2)}), "protected edges must lie on the cycle"),
        ],
        ids=["two-cycles", "wrong-order", "protected-chord"],
    )
    def test_malformed_request_rejected(self, cover, protected, message):
        req = RewireRequest(complete_graph(6), cover, protected, all_chords(6))
        with pytest.raises(RewireError, match=message):
            second_hamilton_cycle(req, random.Random(1), DESK)

    def test_desirable_non_edges_never_absorbed(self):
        found = 0
        for seed in range(12):
            g, cover = gen_planted(12, 0.5, seed)
            # every pair, reversed, so the filter has to normalise and drop
            everything = frozenset((v, u) for u, v in combinations(range(12), 2))
            non_edges = frozenset(edge_key(*e) for e in everything) - g.edge_set()
            assert non_edges
            only_non_edges = RewireRequest(g, cover, frozenset(), non_edges)
            assert second_hamilton_cycle(only_non_edges, random.Random(seed), DESK) is None
            req = RewireRequest(g, cover, frozenset(), everything)
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
            desirable = frozenset(g.edge_set())
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
        req = RewireRequest(g, cover, frozenset(list(cover.edge_set())[:3]), frozenset(g.edge_set()))
        res = second_hamilton_cycle(req, random.Random(3), DESK)
        assert res is not None and not res.used_fallback
        assert validate_cover(g, res.cycle) == 1

    def test_deterministic_given_seed(self):
        g, cover = gen_planted(24, 0.4, 11)
        req = RewireRequest(g, cover, frozenset(), frozenset(g.edge_set()))
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


def _reference_relink(cycle, s, allowed_bits, budget):
    """The relink search copying its whole sequence at every node and
    comparing each closed arrangement's edge set with the original's."""
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


class TestRelinkMatchesReference:
    def test_seeded_requests(self, rng):
        # n <= 40, node budgets from one node up: searches that find a cycle,
        # exhaust, are cut by the budget, or meet a dependent switch set
        outcomes = {"found": 0, "none": 0, "cut": 0, "dependent": 0}
        for _ in range(300):
            n = rng.randint(6, 40)
            g, cover = gen_planted(n, rng.uniform(0.15, 0.9), rng.randrange(1 << 30))
            desirable = frozenset(e for e in g.edge_set() if rng.random() < 0.6)
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
                if expected is not None:
                    assert validate_cover(g, got) == 1
                    outcomes["found"] += 1
                elif budget < 200_000 and rewire._relink(cover, s, allowed, 200_000):
                    outcomes["cut"] += 1
                else:
                    outcomes["none"] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_differs_only_in_junctions_out_of_s(self):
        # every junction into an S vertex is a cycle edge here, yet the first
        # arrangement found leaves vertex 4 along the chord (4, 7)
        cover = CycleCover([[0, 1, 6, 3, 2, 4, 7, 5]])
        chords = [(0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (2, 5), (2, 7)]
        chords += [(3, 4), (3, 5), (4, 6), (5, 6), (6, 7)]
        desirable = frozenset(chords)
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
            desirable = frozenset(e for e in g.edge_set() if rng.random() < 0.5)
            bad = frozenset(rng.sample(range(n), rng.randint(0, 2)))

            def fresh():
                return RewireRequest(g, cover, protected, desirable, bad)

            reused = fresh()
            ours, theirs = random.Random(seed), random.Random(seed)
            for call in range(8):
                assert sample_switch_set(reused, ours, DESK) == sample_switch_set(
                    fresh(), theirs, DESK
                )
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
                return RewireRequest(g, cover, frozenset(), frozenset(g.edge_set()), bad)

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

    def test_seed_rotation_matches_every_edge_seeded(self, rng):
        """The rotation over the 32 desk-scale rounds equals the one read
        from the seed pairs of all usable edges, with the rounds whose edge
        has none left out."""
        for seed in range(30):
            n = rng.randint(8, 40)
            g, cover = gen_planted(n, rng.uniform(0.2, 0.7), seed)
            blocked = frozenset(rng.sample(range(n), rng.randint(0, 3)))
            req = RewireRequest(g, cover, frozenset(), frozenset(g.edge_set()), blocked)
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
        return g, cover, RewireRequest(g, cover, protected, desirable, bad)

    def test_facts_match_set_definitions(self, rng):
        seen = {"undominable": 0, "dominable": 0, "no usable": 0}
        for seed in range(60):
            g, cover, req = self._random_request(rng, seed)
            n = g.n
            cyc = cover.edge_set()
            desirable = {edge_key(u, v) for u, v in req.desirable if g.has_edge(u, v)}
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
        search = rewire._exhaustive_second_cycle

        def counted(*args):
            searches[0] += 1
            return search(*args)

        monkeypatch.setattr(rewire, "_exhaustive_second_cycle", counted)
        seen = {"no usable": 0, "idle, usable": 0, "busy": 0}
        for seed in range(80):
            g, cover, req = self._random_request(rng, seed)
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

    def test_rows_input_derives_the_same_facts(self, rng):
        """A request given its desirable graph as neighbour rows, as enrich
        gives it, derives what the same graph given as an edge set does."""
        for seed in range(20):
            g, cover, req = self._random_request(rng, seed)
            rows = [0] * g.n
            for u, v in req.desirable:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            by_rows = RewireRequest(g, cover, req.protected, tuple(rows), req.bad)
            for name in (
                "desirable_bits", "allowed_bits", "off_cycle_bits", "usable_count",
                "blocked", "clear", "targets", "undominable", "seed_rotation",
            ):
                assert getattr(by_rows, name) == getattr(req, name), name
            assert list(by_rows.usable_edges()) == list(req.usable_edges())
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _result_key(second_hamilton_cycle(by_rows, ours, DESK)) == _result_key(
                second_hamilton_cycle(req, theirs, DESK)
            )
            assert ours.getstate() == theirs.getstate()
