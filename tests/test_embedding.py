import random
import re
import warnings
from types import SimpleNamespace
from itertools import combinations

import pytest

from cyclesplit import embedding
from cyclesplit.embedding import (
    GoodSetLedger,
    MSetCache,
    Partition,
    close_graph,
    cover_floor,
    cover_graph,
    enrich,
    m_set,
    partition_vertices,
    verify_partition,
)
from cyclesplit.graphs import CycleCover, Graph, Params, _iter_bits, bits_of, edge_key
from cyclesplit.instances import gen_planted
from cyclesplit.pipeline import merge_cover, protected_for_merge, solve
from cyclesplit.rewire import RewireRequest
from cyclesplit.switching import count_h_edges, induced_h_edges

from conftest import complete_graph, cycle_graph, gnp, ham_cover, planted_cover


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield


def two_cliques(q, threshold_edge=True):
    edges = list(combinations(range(q), 2))
    edges += [(u + q, v + q) for u, v in combinations(range(q), 2)]
    if threshold_edge:
        edges.append((0, q))
    return Graph(2 * q, edges)


class TestMSet:
    def test_c6_no_c4(self):
        assert m_set(cycle_graph(6), (0, 1), 1) == 0

    def test_k5_two_witnesses(self):
        assert m_set(complete_graph(5), (0, 1), 2) == bits_of({2, 3, 4})

    def test_k5_threshold_three_empty(self):
        assert m_set(complete_graph(5), (0, 1), 3) == 0

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            m_set(cycle_graph(6), (0, 2), 1)

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            m_set(complete_graph(5), (0, 1), 0)

    def test_matches_brute_force(self, rng):
        """At every threshold from 1 to 3, the members are the vertices with
        at least that many witnesses, counted pair by pair over all of V."""
        for _ in range(25):
            n = rng.randint(5, 30)
            g = gnp(rng, n, 0.5)
            edges = sorted(g.edge_set())
            if not edges:
                continue
            x, y = edges[rng.randrange(len(edges))]
            counts = {}
            for z in range(n):
                if z in (x, y):
                    continue
                wits = set()
                for w in g.adjacency(z):
                    if w in (x, y):
                        continue
                    if (g.has_edge(y, z) and g.has_edge(w, x)) or (
                        g.has_edge(y, w) and g.has_edge(z, x)
                    ):
                        wits.add(w)
                counts[z] = len(wits)
            for t in (1, 2, 3):
                want = bits_of(z for z, c in counts.items() if c >= t)
                assert m_set(g, (x, y), t) == want == m_set(g, (y, x), t), (x, y, t)


class TestPartition:
    def test_complete_graph_single_part(self):
        p = partition_vertices(complete_graph(12), Params(common_nbr_threshold=3))
        assert p.s == 1

    def test_two_cliques_two_parts(self):
        g = two_cliques(20)
        p = partition_vertices(g, Params(common_nbr_threshold=10), random.Random(1))
        assert p.s == 2
        assert {frozenset(x) for x in p.parts} == {
            frozenset(range(20)),
            frozenset(range(20, 40)),
        }
        assert verify_partition(g, p, 10)

    def test_invariant_verified_exhaustively(self, rng):
        g = gnp(rng, 60, 0.5)
        params = Params(common_nbr_threshold=10)
        p = partition_vertices(g, params, rng)
        assert verify_partition(g, p, 10)

    def test_deterministic(self):
        g = gnp(random.Random(3), 40, 0.4)
        a = partition_vertices(g, Params(common_nbr_threshold=6), random.Random(9))
        b = partition_vertices(g, Params(common_nbr_threshold=6), random.Random(9))
        assert a.parts == b.parts


def _reference_pair_ok(g, u, v, threshold):
    return (g.neighbor_bits(u) & g.neighbor_bits(v)).bit_count() >= threshold


def _reference_partition(g, params, rng):
    """The pair-by-pair partition: every candidate, admission and merge test
    checks each pair on the graph, without compatible rows."""
    n = g.n
    threshold = params.common_nbr_threshold
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
                # Params refuses a threshold of 0, the partition does not
                params = SimpleNamespace(common_nbr_threshold=threshold)
                want_rng = random.Random(7 * n + case)
                got_rng = random.Random(7 * n + case)
                want = _reference_partition(g, params, want_rng)
                got = partition_vertices(g, params, got_rng)
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
        good = partition_vertices(g, Params(common_nbr_threshold=threshold), random.Random(1))
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


def edges_of(rows):
    """The edge set of a helper graph's neighbour rows, which must be
    symmetric, loop-free and listed only for vertices with an edge."""
    assert all(rows.values())
    pairs = {(u, v) for u, row in rows.items() for v in _iter_bits(row)}
    assert all((v, u) in pairs and u != v for u, v in pairs)
    return {(u, v) for u, v in pairs if u < v}


class TestHelperRows:
    """The row-built helper graphs hold exactly the edges of their
    edge-by-edge definitions."""

    def test_cover_graph_matches_definition(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 40)
            g = gnp(rng, n, rng.uniform(0.1, 0.9))
            s_vertices = rng.sample(range(n), rng.randint(1, n))
            t_vertices = rng.sample(s_vertices, rng.randint(1, len(s_vertices)))
            floor = cover_floor(len(t_vertices))
            tset = set(t_vertices)
            want = {
                edge_key(u, v)
                for v in s_vertices
                for u in g.adjacency(v)
                if len(set(g.adjacency(u)) & tset) >= floor
            }
            assert edges_of(cover_graph(g, s_vertices, t_vertices)) == want

    def test_close_graph_matches_definition(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(30):
            n = rng.randint(6, 30)
            g = gnp(rng, n, rng.uniform(0.3, 0.9))
            edges = sorted(g.edge_set())
            if len(edges) < 4:
                continue
            picked = rng.sample(edges, rng.randint(2, min(8, len(edges))))
            half = len(picked) // 2
            e_lists = [picked[:half], picked[half:]]
            s_vertices = rng.sample(range(n), rng.randint(2, n))
            params = Params(m_set_threshold=rng.randint(1, 2))
            rows, bad = close_graph(g, s_vertices, e_lists, params)
            want = set()
            for v in s_vertices:
                if v in bad:
                    continue
                for x, y in picked:
                    if v in (x, y):
                        continue
                    for u in g.adjacency(v):
                        if u in (x, y):
                            continue
                        # uv closes a C4 with xy through yv, ux or xv, uy
                        if (g.has_edge(y, v) and g.has_edge(u, x)) or (
                            g.has_edge(x, v) and g.has_edge(u, y)
                        ):
                            want.add(edge_key(u, v))
            assert edges_of(rows) == want
            checked += bool(want)
        assert checked >= 10, checked


class TestCoverGraph:
    def test_complete_graph_full(self):
        h = cover_graph(complete_graph(10), range(10), range(10))
        assert len(edges_of(h)) == 45

    def test_empty_t_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            cover_graph(complete_graph(10), range(10), [])

    def test_t_not_subset_rejected(self):
        with pytest.raises(ValueError, match="subset"):
            cover_graph(complete_graph(10), range(5), range(10))

    def test_m_stats_consistent_on_partition_part(self):
        g = gnp(random.Random(30), 300, 0.4)
        params = Params(m_set_threshold=2, common_nbr_threshold=20)
        part = max(partition_vertices(g, params, random.Random(1)).parts, key=len)
        h = cover_graph(g, sorted(part), sorted(part))
        tbits = bits_of(part)
        for e in sorted(edges_of(h))[:16]:
            hits = (m_set(g, e, params.m_set_threshold) & tbits).bit_count()
            assert hits == (
                MSetCache(g, params.m_set_threshold).member_bits(e) & tbits
            ).bit_count()


class TestCloseGraph:
    def test_all_empty_sets(self):
        h, bad = close_graph(complete_graph(8), range(8), [frozenset(), frozenset()])
        assert h == {} and bad == frozenset(range(8))

    def test_overlap_rejected(self):
        eset = frozenset({(0, 1)})
        with pytest.raises(ValueError, match="overlap"):
            close_graph(complete_graph(8), range(8), [eset, eset])

    def test_block_coverage(self):
        g = complete_graph(8)
        params = Params(m_set_threshold=1)
        h, bad = close_graph(g, range(8), [frozenset({(0, 1), (2, 3)})], params)
        assert bad == frozenset()
        # every reported edge forms a C4 with at least one listed edge
        for u, v in edges_of(h):
            partners = 0
            for x, y in [(0, 1), (2, 3)]:
                if len({u, v, x, y}) < 4:
                    continue
                if (g.has_edge(u, x) and g.has_edge(v, y)) or (
                    g.has_edge(u, y) and g.has_edge(v, x)
                ):
                    partners += 1
            assert partners >= 1


def desk_params(**kw):
    base = dict(
        thomassen_degree_floor=1,
        common_nbr_threshold=2,
        m_set_threshold=1,
        coverage_slack=4,
        enrich_rounds=40,
        h_edge_target=50,
        seed=0,
    )
    base.update(kw)
    return Params(**base)


class TestEnrich:
    def test_target_already_met(self):
        res = enrich(complete_graph(12), ham_cover(12), [], Params(h_edge_target=10))
        assert res.reached_target and res.iterations == 0
        assert res.cycle == ham_cover(12)
        assert res.h_edges == count_h_edges(complete_graph(12), ham_cover(12))

    def test_chordless_best_effort(self):
        res = enrich(cycle_graph(12), ham_cover(12), [], desk_params(h_edge_target=5))
        assert not res.reached_target and res.h_edges == 0
        assert res.cycle == ham_cover(12)
        assert any("helper graph empty" in d for d in res.diagnostics)
        # an early break is not an exhausted budget
        assert not any("budget exhausted" in d for d in res.diagnostics)

    def test_rounds_exhausted_reported(self):
        g, cov = gen_planted(40, 0.18, 3)
        params = desk_params(h_edge_target=10**6, enrich_rounds=3)
        res = enrich(g, cov, [], params, random.Random(5))
        assert not res.reached_target and res.thomassen_calls == 3
        assert res.diagnostics[-1] == f"budget exhausted at h={res.h_edges} < target={10**6}"

    def test_helpers_rebuilt_only_after_accepted_rewire(self, monkeypatch):
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kw):
                calls[0] += 1
                return fn(*args, **kw)
            return wrapper

        monkeypatch.setattr(embedding, "cover_graph", counted(embedding.cover_graph))
        monkeypatch.setattr(embedding, "close_graph", counted(embedding.close_graph))
        g, cov = gen_planted(40, 0.18, 3)
        params = desk_params(h_edge_target=10**6, enrich_rounds=16)
        res = enrich(g, cov, [], params, random.Random(5))
        assert res.thomassen_calls == 16 and res.iterations < 15
        assert 0 < calls[0] <= (res.iterations + 1) * res.ledger_summary["parts"]

    def test_one_request_per_helper_rebuild(self, monkeypatch):
        """Each rebuild of the helper graphs builds exactly one rewire
        request, and every later round until the next rebuild calls the
        rewire with it."""
        log = []

        def helper(fn):
            def wrapper(*args, **kw):
                log.append("h")
                return fn(*args, **kw)
            return wrapper

        built = []

        def request(*args):
            built.append(RewireRequest(*args))
            log.append("R")
            return built[-1]

        real = embedding.second_hamilton_cycle

        def call(req, *args):
            assert req is built[-1]
            return real(req, *args)

        monkeypatch.setattr(embedding, "cover_graph", helper(embedding.cover_graph))
        monkeypatch.setattr(embedding, "close_graph", helper(embedding.close_graph))
        monkeypatch.setattr(embedding, "RewireRequest", request)
        monkeypatch.setattr(embedding, "second_hamilton_cycle", call)
        rebuilt = 0
        for seed in range(4):
            g, cov = gen_planted(40, 0.18, seed)
            log.clear()
            res = enrich(g, cov, [], desk_params(h_edge_target=10**6, enrich_rounds=16), random.Random(seed))
            trace = "".join(log)
            assert re.fullmatch(r"(h+R)+", trace), trace
            assert 1 <= trace.count("R") <= res.iterations + 1
            rebuilt += trace.count("R") - 1
        assert rebuilt >= 2, rebuilt

    def test_cover_not_a_hamilton_cycle_rejected(self):
        g = complete_graph(6)
        with pytest.raises(ValueError, match="Hamilton cycle"):
            enrich(g, CycleCover([[0, 1, 2], [3, 4, 5]]), [], desk_params())
        with pytest.raises(ValueError, match="Hamilton cycle"):
            enrich(g, ham_cover(5), [], desk_params())

    def test_idle_verdict_changes_nothing(self, monkeypatch):
        """On enrich-strict instances, every round calls the rewire, and the
        idle verdict only cuts a call short: the result (thomassen_calls and
        diagnostics included) and the random stream equal those of a run
        whose requests are never idle, and the desk-scale warning fires once
        per call made."""
        made = [0]
        real = embedding.second_hamilton_cycle

        def counted(*args):
            made[0] += 1
            return real(*args)

        monkeypatch.setattr(embedding, "second_hamilton_cycle", counted)
        calls = {True: 0, False: 0}
        for seed in range(8):
            g, cover = planted_cover(60, 0.15, seed, ell=4)
            aug, merged, rec = merge_cover(g, cover)
            protected = protected_for_merge(merged, rec)
            params = Params(seed=seed, thomassen_degree_floor=1, h_edge_target=2000)
            runs = []
            for verdict in (True, False):
                with monkeypatch.context() as m:
                    if not verdict:
                        m.setattr(RewireRequest, "idle", property(lambda req: False))
                    made[0] = 0
                    rng = random.Random(seed)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        res = enrich(aug, merged, protected, params, rng)
                    desk = [w for w in caught if "desk scale" in str(w.message)]
                    assert len(desk) == made[0]
                    calls[verdict] += made[0]
                    runs.append((res, rng.getstate()))
            assert runs[0] == runs[1], seed
            assert runs[0][0].thomassen_calls == params.enrich_rounds
        assert calls[True] == calls[False] == 8 * params.enrich_rounds, calls

    def test_protected_not_on_cycle_rejected(self):
        with pytest.raises(ValueError, match="protected"):
            enrich(complete_graph(8), ham_cover(8), [(0, 2)], desk_params())

    def test_makes_progress(self):
        g, cov = gen_planted(40, 0.18, 3)
        h0 = count_h_edges(g, cov)
        params = desk_params(h_edge_target=h0 + 3)
        res = enrich(g, cov, [], params, random.Random(5))
        assert res.reached_target
        assert res.h_edges >= h0 + 3
        assert res.iterations >= 1

    def test_protected_edges_survive(self):
        g, cov = gen_planted(40, 0.18, 3)
        h0 = count_h_edges(g, cov)
        keep = sorted(cov.edge_set())[:4]
        params = desk_params(h_edge_target=h0 + 2)
        res = enrich(g, cov, keep, params, random.Random(5))
        assert all(e in res.cycle.edge_set() for e in keep)
        assert res.cycle.num_components == 1

    def test_potential_monotone_and_ledger_valid(self):
        g, cov = gen_planted(36, 0.2, 9)
        h0 = count_h_edges(g, cov)
        params = desk_params(h_edge_target=h0 + 6, enrich_rounds=25)
        res = enrich(g, cov, [], params, random.Random(2))
        # verify() ran inside after every accepted iteration; check summary sane
        assert res.ledger_summary["t_sum"] >= 0
        assert res.h_edges >= h0

    def test_planted_instance_reaches_target(self):
        g, cov = gen_planted(300, 300 ** -0.3, 7)
        res = enrich(g, cov, sorted(cov.edge_set())[:5], desk_params(h_edge_target=50))
        assert res.reached_target and res.h_edges >= 50
        assert res.cycle.num_components == 1


class TestLedger:
    def test_initial_saturation_of_tiny_parts(self):
        g = cycle_graph(9)
        params = Params(coverage_slack=2, ledger_t_cap=3, common_nbr_threshold=2)
        part = partition_vertices(g, params)
        ledger = GoodSetLedger(g, part, params)
        for p in ledger.parts:
            if len(p.vertices) <= 2:
                assert ledger.saturated(p)
        ledger.verify(ham_cover(9), MSetCache(g, params.m_set_threshold))

    def test_absorb_and_promote(self):
        g = complete_graph(10)
        params = Params(
            common_nbr_threshold=2,
            m_set_threshold=1,
            coverage_slack=9,
            ledger_t_cap=2,
        )
        partition = partition_vertices(g, params)
        ledger = GoodSetLedger(g, partition, params)
        cache = MSetCache(g, params.m_set_threshold)
        part = ledger.parts[0]
        assert not ledger.saturated(part)
        # any K10 edge covers everything: absorb promotes immediately
        assert ledger.try_absorb(part, (0, 1), cache, ham_cover(10))
        assert len(part.full_sets) == 1 and part.overflow == frozenset()
        assert ledger.t_sum == 1

    def test_saturated_parts_absorb_in_strict_solves(self, monkeypatch):
        # The enrich-strict benchmark recipe with one full set per part: a
        # part saturates at its first promotion, and its later absorbs pass
        # only while the protected edges induce enough H-edges.
        induced = []
        absorbed = []

        def counted(*args):
            induced.append(args)
            return induced_h_edges(*args)

        real_absorb = GoodSetLedger.try_absorb

        def absorb(self, part, edge, mcache, cycle):
            saturated = self.saturated(part)
            got = real_absorb(self, part, edge, mcache, cycle)
            absorbed.append((saturated, got))
            return got

        monkeypatch.setattr(embedding, "induced_h_edges", counted)
        monkeypatch.setattr(GoodSetLedger, "try_absorb", absorb)
        for seed in range(30):
            g, cover = planted_cover(60, 0.15, seed, ell=4)
            params = Params(
                seed=seed, thomassen_degree_floor=1, h_edge_target=2000, ledger_t_cap=1
            )
            solve(g, cover, 6, params, strict=True)
        assert absorbed.count((True, True)) == 5
        assert len(induced) == 12
