import random
import warnings
from itertools import combinations

import pytest

from cyclesplit.graphs import CycleCover, Params, edge_key, validate_cover
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
