import random
import warnings
from dataclasses import replace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesplit.graphs import (
    CoverError,
    CycleCover,
    Graph,
    Params,
    dump_cover,
    dump_graph,
    edge_key,
    validate_cover,
)
from cyclesplit.instances import (
    gen_implant_free,
    gen_planted,
    gen_triangles_biclique,
    oracle_component_counts,
)
from cyclesplit import pipeline, switching
from cyclesplit.pipeline import MergeRecord, merge_cover, protected_for_merge, solve, unmerge
from cyclesplit.switching import count_h_edges

from conftest import (
    complete_graph,
    cycle_graph,
    ham_cover,
    planted_cover,
    random_factor_instance,
)


def two_triangles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return g, CycleCover([[0, 1, 2], [3, 4, 5]])


def three_squares():
    g = Graph(12, [(i + o, (i + 1) % 4 + o) for o in (0, 4, 8) for i in range(4)])
    return g, CycleCover([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])



def _walk_record(res) -> dict:
    """The walk's one diagnostics record."""
    (walk,) = [d for d in res.stats.diagnostics if d.get("stage") == "walk"]
    return walk


def _edge_sets_held(cover: CycleCover) -> list[str]:
    """The slots of ``cover`` that hold a set (a cover pins no edge set)."""
    return [
        name for name in CycleCover.__slots__
        if isinstance(getattr(cover, name, None), (set, frozenset))
    ]


# -- edge-set references: merge and unmerge as they were before they became
# switch batches, kept verbatim to pin the splice to the same outputs


def _reference_pick_merge_edge(
    g: Graph, cycle: tuple[int, ...], exclude: Optional[tuple[int, int]]
) -> tuple[int, int]:
    """Edge of the cycle whose endpoints have maximum degree sum, lex first."""
    scored = []
    L = len(cycle)
    for pos in range(L):
        u, v = cycle[pos], cycle[(pos + 1) % L]
        e = edge_key(u, v)
        if e != exclude:
            scored.append((-(g.degree(u) + g.degree(v)), e))
    return min(scored)[1]


def _reference_merge_cover(g: Graph, cover: CycleCover) -> tuple[Graph, CycleCover, MergeRecord]:
    """Chain all cycles into one Hamilton cycle of the bridge-augmented graph.

    For consecutive cycles the construction removes one edge from each and
    adds the two parallel bridges joining the loose ends; a single-cycle
    cover passes through untouched.
    """
    validate_cover(g, cover)
    ell = cover.num_components
    if ell == 1:
        rec = MergeRecord((), ())
        return g, cover, rec
    e_minus = []
    e_plus = []
    # per cycle: the edge removed when merging into the chain ("outgoing")
    # and the edge removed when the chain absorbs it ("incoming")
    incoming = [None] * ell
    outgoing = [None] * ell
    for i in range(ell - 1):
        outgoing[i] = _reference_pick_merge_edge(g, cover.cycles[i], incoming[i])
        incoming[i + 1] = _reference_pick_merge_edge(g, cover.cycles[i + 1], None)
    edges = set(cover.edge_set())
    for i in range(ell - 1):
        zw = outgoing[i]
        xy = incoming[i + 1]
        # orient each removed edge along its cycle before bridging
        z, w = _reference_oriented(cover, zw)
        x, y = _reference_oriented(cover, xy)
        bridge_a = edge_key(z, x)
        bridge_b = edge_key(w, y)
        e_minus.extend([edge_key(*zw), edge_key(*xy)])
        # each bridge pair sorted, as the merge switch lists its chords
        e_plus.extend(sorted([bridge_a, bridge_b]))
        edges.discard(edge_key(*zw))
        edges.discard(edge_key(*xy))
        edges.add(bridge_a)
        edges.add(bridge_b)
    augmented = g.with_extra_edges(e_plus)
    merged = CycleCover.from_edge_set(g.n, edges)
    if merged.num_components != 1:
        raise AssertionError("merge did not produce a Hamilton cycle")
    rec = MergeRecord(tuple(e_minus), tuple(e_plus))
    return augmented, merged, rec


def _reference_oriented(cover: CycleCover, e: tuple[int, int]) -> tuple[int, int]:
    u, v = e
    ci, pos = cover.locator[u]
    cyc = cover.cycles[ci]
    if cyc[(pos + 1) % len(cyc)] == v:
        return u, v
    return v, u


def _reference_unmerge(cycle: CycleCover, rec: MergeRecord) -> CycleCover:
    """Swap the bridges back out; valid whenever they were all protected."""
    edges = set(cycle.edge_set())
    for e in rec.e_plus:
        if e not in edges:
            raise CoverError(f"bridge edge {e} missing from the cycle")
    for e in rec.e_plus:
        edges.discard(e)
    for e in rec.e_minus:
        edges.add(e)
    out = CycleCover.from_edge_set(cycle.n, edges)
    if out.num_components > len(rec.e_plus) // 2 + 1:
        raise AssertionError("unmerge created more cycles than it started with")
    return out


def triangle_instance(rng, count, p=0.3):
    """A cover of ``count`` triangles: each middle cycle's incoming and
    outgoing merge edges share a vertex."""
    return random_factor_instance(rng, 3 * count, p, lengths=[3] * count)


def reference_instances(rng):
    """Random factor instances, three squares and all-triangle covers."""
    for _ in range(25):
        yield random_factor_instance(rng, rng.randint(9, 24), 0.2)
    yield three_squares()
    for count in (2, 3, 5, 8):
        yield triangle_instance(rng, count)


class TestMergeCover:
    def test_single_cycle_identity(self):
        g = complete_graph(5)
        aug, merged, rec = merge_cover(g, ham_cover(5))
        assert merged == ham_cover(5)
        assert rec.e_plus == () and rec.e_minus == () and aug == g

    def test_two_triangles(self):
        g, cover = two_triangles()
        aug, merged, rec = merge_cover(g, cover)
        assert set(rec.e_minus) == {(0, 1), (3, 4)}
        assert set(rec.e_plus) == {(0, 3), (1, 4)}
        assert merged.cycles == ((0, 2, 1, 4, 5, 3),)
        assert validate_cover(aug, merged) == 1

    def test_three_squares(self):
        g, cover = three_squares()
        aug, merged, rec = merge_cover(g, cover)
        assert len(rec.e_plus) == 4 and len(rec.e_minus) == 4
        assert validate_cover(aug, merged) == 1
        prot = protected_for_merge(merged, rec)
        assert len(prot) <= 8 * 2
        assert set(rec.e_plus) <= prot

    def test_bridges_recorded_when_present_in_graph(self):
        g, cover = two_triangles()
        g2 = g.with_extra_edges([(0, 3)])
        aug, merged, rec = merge_cover(g2, cover)
        assert (0, 3) in rec.e_plus
        assert unmerge(merged, rec) == cover
        assert aug == g2.with_extra_edges(rec.e_plus)

    def test_random_merges_are_hamilton(self, rng):
        for _ in range(25):
            g, cover = random_factor_instance(rng, rng.randint(9, 24), 0.2)
            aug, merged, rec = merge_cover(g, cover)
            assert validate_cover(aug, merged) == 1
            assert len(rec.e_plus) == 2 * (cover.num_components - 1)
            assert len(protected_for_merge(merged, rec)) <= 8 * (cover.num_components - 1)

    def test_matches_edge_set_reference(self, rng):
        for g, cover in reference_instances(rng):
            assert merge_cover(g, cover) == _reference_merge_cover(g, cover)

    def test_triangles_share_a_vertex_in_the_middle_cycle(self, rng):
        g, cover = triangle_instance(rng, 4)
        aug, merged, rec = merge_cover(g, cover)
        # cycle i's incoming edge is e_minus[2i - 1], its outgoing e_minus[2i]
        for i in (1, 2):
            assert set(rec.e_minus[2 * i - 1]) & set(rec.e_minus[2 * i])
        assert validate_cover(aug, merged) == 1
        assert len({v for e in rec.e_minus for v in e}) == 4 * 3 - 2


class TestUnmerge:
    def test_inverse_without_enrichment(self, rng):
        for _ in range(25):
            g, cover = random_factor_instance(rng, rng.randint(9, 24), 0.25)
            aug, merged, rec = merge_cover(g, cover)
            assert unmerge(merged, rec) == cover

    def test_matches_edge_set_reference(self, rng):
        for g, cover in reference_instances(rng):
            aug, merged, rec = merge_cover(g, cover)
            assert unmerge(merged, rec) == _reference_unmerge(merged, rec) == cover

    def test_missing_bridge_rejected(self):
        g, cover = two_triangles()
        aug, merged, rec = merge_cover(g, cover)
        other = CycleCover([[0, 1, 4, 5, 3, 2]])
        assert (0, 3) in rec.e_plus and (0, 3) not in other.edge_set()
        with pytest.raises(CoverError, match=r"bridge edge \(0, 3\) missing from the cycle"):
            unmerge(other, rec)

    def test_bridge_pair_off_its_4_cycle_rejected(self):
        g, cover = three_squares()
        aug, merged, rec = merge_cover(g, cover)
        # pair the first merge's bridge zx with the second merge's
        b = rec.e_plus
        swapped = replace(rec, e_plus=(b[0], b[2], b[1], b[3]))
        with pytest.raises(CoverError, match="do not bound a 4-cycle"):
            unmerge(merged, swapped)

    def test_removed_edge_already_on_the_cycle_rejected(self):
        g, cover = two_triangles()
        aug, merged, rec = merge_cover(g, cover)
        # both bridges (0, 3), (1, 4) and the removed edge (0, 1) are on it
        cycle = CycleCover([[0, 1, 4, 2, 5, 3]])
        assert set(rec.e_plus) | {(0, 1)} <= cycle.edge_set()
        with pytest.raises(CoverError, match="do not fit back into the cycle"):
            unmerge(cycle, rec)
        with pytest.raises(CoverError):
            _reference_unmerge(cycle, rec)


class TestSolve:
    def test_complete_graphs(self):
        for n in (6, 10, 15, 21):
            for k in (1, 2, n // 3):
                res = solve(complete_graph(n), ham_cover(n), k)
                assert res.cover is not None
                assert validate_cover(complete_graph(n), res.cover) == k
                assert res.stats.success

    def test_identity_when_k_matches(self):
        g, cover = two_triangles()
        res = solve(g, cover, 2)
        assert res.cover == cover and res.stats.switch_log == []

    def test_k_below_components_rejected(self):
        g, cover = gen_triangles_biclique(3, 4, 0)
        with pytest.raises(ValueError, match="out of scope"):
            solve(g, cover, 2)

    def test_k_above_capacity_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve(complete_graph(8), ham_cover(8), 3)

    def test_honest_failure_exit(self):
        res = solve(
            cycle_graph(9),
            ham_cover(9),
            2,
            Params(thomassen_degree_floor=1, enrich_rounds=3),
        )
        assert res.cover is None and not res.stats.success
        assert res.stats.diagnostics

    @pytest.fixture
    def split_calls(self, monkeypatch):
        """The arguments of each split that ``solve`` runs."""
        calls = []

        def counted(*args, split=pipeline._split_validated, **kwargs):
            calls.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_split_validated", counted)
        return calls

    @pytest.mark.parametrize("strict", [False, True])
    def test_split_runs_once_on_unchanged_cover(self, split_calls, strict):
        # the walk lands no cycle, so the failure is recorded once, by the
        # walk record, with the one split's outcome
        res = solve(cycle_graph(9), ham_cover(9), 2, strict=strict)
        assert res.cover is None and len(split_calls) == 1
        walk = _walk_record(res)
        assert res.stats.diagnostics == [walk]
        assert walk["best_stopped_at"] == 1 and walk["budget_exhausted"] is False

    def test_split_reruns_on_enriched_cover(self, split_calls):
        # the direct split stops short, enrichment changes the cover, and the
        # split on the enriched cover reaches k
        g, cover = gen_planted(10, 0.3, 33)
        params = Params(seed=33, enrich_rounds=4, thomassen_degree_floor=1)
        res = solve(g, cover, 3, params, random.Random(33))
        assert len(split_calls) == 2 and split_calls[1][1] != cover
        assert validate_cover(g, res.cover) == 3
        walk = _walk_record(res)
        assert res.stats.diagnostics == [walk] and walk["reason"] == "success"
        assert walk["best_stopped_at"] == 3 and walk["budget_exhausted"] is False

    def test_enrich_error_leaves_input_cover(self, split_calls):
        # above the exhaustive cutoff a degree floor no vertex meets makes
        # the rewire raise on the walk's first call, so the split runs on
        # the input cover
        g = complete_graph(30)
        cover = CycleCover([list(range(15)), list(range(15, 30))])
        params = Params(h_edge_target=10**6, thomassen_degree_floor=g.n)
        res = solve(g, cover, 3, params, strict=True)
        walk = _walk_record(res)
        assert walk["reason"] == "error" and walk["detail"].startswith("vertex ")
        assert walk["rounds"] == 1 and walk["landed"] == 0
        assert walk["best_stopped_at"] == 3 and res.stats.rewire_calls == 0
        assert len(split_calls) == 1 and split_calls[0][1] is cover
        assert res.stats.ell_presplit == 2
        assert validate_cover(g, res.cover) == 3

    def test_unmerge_error_is_a_pipeline_diagnostic(self, monkeypatch):
        # a record whose bridge pairs are crossed between merges: unmerge
        # raises, and solve splits the input cover instead
        def crossed(g, cover, inner=merge_cover):
            aug, merged, rec = inner(g, cover)
            b = rec.e_plus
            return aug, merged, replace(rec, e_plus=(b[0], b[2], b[1], b[3]) + b[4:])

        monkeypatch.setattr(pipeline, "merge_cover", crossed)
        g, cover = planted_cover(60, 0.15, 3, ell=4)
        params = Params(seed=3, thomassen_degree_floor=1, h_edge_target=2000)
        res = solve(g, cover, 6, params, random.Random(3), strict=True)
        walk = _walk_record(res)
        assert walk["reason"] == "error" and walk["landed"] == 1
        assert "do not bound a 4-cycle" in walk["detail"]
        assert res.stats.ell_presplit == 4
        assert validate_cover(g, res.cover) == 6

    def test_each_cover_validated_once(self, monkeypatch):
        # the input on entry and the split's result: the split trusts the
        # check solve has just made
        checked = []

        def counted(g, cover, validate=validate_cover):
            checked.append(cover)
            return validate(g, cover)

        for module in (pipeline, switching):
            monkeypatch.setattr(module, "validate_cover", counted)
        res = solve(complete_graph(12), ham_cover(12), 4)
        assert checked == [ham_cover(12), res.cover]

    def test_input_not_corrupted(self):
        g = cycle_graph(9)
        cover = ham_cover(9)
        before = cover.cycles
        solve(g, cover, 2, Params(thomassen_degree_floor=1, enrich_rounds=3))
        assert cover.cycles == before

    def test_switch_log_deltas_sum(self, rng):
        for _ in range(10):
            n = rng.randint(12, 30)
            g, cover = gen_planted(n, 0.5, rng.randrange(1 << 20))
            k = rng.randint(1, n // 3)
            res = solve(g, cover, k)
            if res.cover is None:
                continue
            total = sum(entry["delta"] for entry in res.stats.switch_log)
            assert total == k - res.stats.ell_presplit

    def test_stats_fields(self):
        res = solve(complete_graph(9), ham_cover(9), 2, Params(seed=4))
        st = res.stats
        assert st.n == 9 and st.m == 36 and st.min_degree == 8
        assert st.ell_initial == 1 and st.k_target == 2
        # a round-0 success writes no walk record and calls no rewire
        assert st.diagnostics == [] and st.rewire_calls == 0
        assert st.seed == 4
        payload = st.to_json(drop_timing=True)
        assert "wall_time" not in payload and '"success": true' in payload
        # the input cover's H-edges are not counted, so no field holds them
        assert "h_edges_initial" not in payload

    @pytest.mark.parametrize("strict", [False, True])
    def test_h_edges_initial_counted_when_fallback_runs(self, strict):
        # the direct split stalls on this cover, so both modes walk, and the
        # walk record keeps the merged cycle's count its target check read
        g, cover = gen_planted(10, 0.3, 33)
        params = Params(seed=33, enrich_rounds=4, thomassen_degree_floor=1)
        res = solve(g, cover, 3, params, random.Random(33), strict=strict)
        assert res.stats.diagnostics == [_walk_record(res)]
        augmented, merged, _ = merge_cover(g, cover)
        assert _walk_record(res)["h_edges"] == count_h_edges(augmented, merged) > 0

    def test_direct_success_skips_count_h_edges(self, monkeypatch):
        calls = [0]

        def counted(*args, count=pipeline.count_h_edges):
            calls[0] += 1
            return count(*args)

        monkeypatch.setattr(pipeline, "count_h_edges", counted)
        g, cover = gen_planted(60, 0.3, 2)
        assert solve(g, cover, 5).cover is not None
        assert calls[0] == 0
        params = Params(seed=5, thomassen_degree_floor=1, h_edge_target=20)
        res = solve(g, cover, 5, params, random.Random(5), strict=True)
        assert _walk_record(res) and calls[0] >= 1

    def test_single_cycle_fallback_counts_the_cover_once(self, monkeypatch):
        # a Hamilton cover past the stall: the merge is a no-op, so the
        # walk's target check counts the input cover, once
        calls = [0]

        def counted(*args, count=count_h_edges):
            calls[0] += 1
            return count(*args)

        monkeypatch.setattr(pipeline, "count_h_edges", counted)
        g, cover = gen_planted(100, 0.2, 7)
        res = solve(g, cover, 33)
        assert res.cover is None and res.stats.diagnostics == [_walk_record(res)]
        assert res.stats.ell_initial == 1
        assert calls[0] == 1
        walk = _walk_record(res)
        assert walk["reason"] == "target met" and walk["rounds"] == 0

    def test_single_cycle_fallback_pins_no_edge_set_on_the_cover(self):
        # the no-op merge hands the walk the caller's own cover and no
        # protected edge: no slot of the cover holds an edge set after it
        g, cover = gen_planted(100, 0.2, 7)
        res = solve(g, cover, 33)
        assert res.cover is None and res.stats.diagnostics == [_walk_record(res)]
        assert res.stats.ell_initial == 1
        assert _edge_sets_held(cover) == []

    @pytest.mark.parametrize("target, walked", [(1, False), (2000, True)])
    def test_h_edges_counted_on_the_input_and_the_merged_cycle(
        self, monkeypatch, target, walked
    ):
        # only the merged cycle is counted, never the input cover: target 1
        # is met at once, so the walk takes no round and the input cover is
        # split; out of reach, the walk lands rewires and splits the restored
        # covers, none of which is counted
        counted_covers = []

        def counted(g, cover, count=pipeline.count_h_edges):
            counted_covers.append(cover)
            return count(g, cover)

        monkeypatch.setattr(pipeline, "count_h_edges", counted)
        g, cover = planted_cover(60, 0.15, 3, ell=4)
        params = Params(seed=3, thomassen_degree_floor=1, h_edge_target=target)
        res = solve(g, cover, 6, params, random.Random(3), strict=True)
        assert res.stats.ell_initial == 4
        assert (res.stats.rewire_calls > 0) == walked
        assert [c.num_components for c in counted_covers] == [1]
        walk = _walk_record(res)
        assert (walk["landed"] > 0) == walked
        assert walk["h_edges"] > 0

    def test_strict_mode_runs_pipeline(self):
        g, cover = gen_planted(24, 0.5, 5)
        params = Params(thomassen_degree_floor=1, h_edge_target=20, seed=5)
        res = solve(g, cover, 3, params, random.Random(5), strict=True)
        assert res.stats.diagnostics == [_walk_record(res)]
        assert res.cover is not None
        assert validate_cover(g, res.cover) == 3

    def test_full_pipeline_with_enrichment_rewiring(self, monkeypatch):
        """merge -> enrich (with a real rewire) -> unmerge -> split, end to end."""
        from conftest import two_cycle_instance

        seen = []

        def recorded(cycle, rec, inner=pipeline.unmerge):
            seen.append((cycle, rec))
            return inner(cycle, rec)

        monkeypatch.setattr(pipeline, "unmerge", recorded)
        g, cover = two_cycle_instance(60, 0.2, 0)
        aug, merged, rec = merge_cover(g, cover)
        h0 = count_h_edges(aug, merged)
        params = Params(thomassen_degree_floor=1, h_edge_target=h0 + 4, enrich_rounds=40, seed=0)
        res = solve(g, cover, 4, params, random.Random(0), strict=True)
        assert res.cover is not None
        assert validate_cover(g, res.cover) == 4
        assert res.stats.rewire_calls >= 1
        assert res.stats.ell_initial == 2
        # the rewire changed the merged cycle; unmerge still matches the
        # edge-set reference on it
        ((cycle, seen_rec),) = seen
        assert seen_rec == rec and cycle != merged
        assert unmerge(cycle, rec) == _reference_unmerge(cycle, rec) != cover

    @pytest.mark.parametrize("seed", range(6))
    def test_non_hamiltonian_host(self, seed):
        """The paper's second result: the host needs only a 2-factor with at
        most k cycles.  Two disjoint planted graphs, with their two cycles as
        the cover, have no Hamilton cycle; the strict solve merges them
        through 2 bridges, rewires the merged cycle and unmerges it."""
        g1, c1 = gen_planted(30, 0.3, seed)
        n = g1.n
        g = Graph(2 * n, [*g1.edge_set(), *((u + n, v + n) for u, v in g1.edge_set())])
        cover = CycleCover([c1.cycles[0], [v + n for v in c1.cycles[0]]], 2 * n)
        before = cover.cycles
        params = Params(seed=seed, thomassen_degree_floor=1, h_edge_target=2000)
        res = solve(g, cover, 4, params, random.Random(seed), strict=True)
        assert res.cover is not None and validate_cover(g, res.cover) == 4
        assert res.stats.ell_initial == 2
        walk = _walk_record(res)
        assert walk["landed"] >= 1 and res.stats.rewire_calls >= 1
        assert cover.cycles == before

    @pytest.mark.parametrize("n", [24, 30, 40, 60])
    def test_implant_free_host_needs_the_rewire(self, n):
        """The given Hamilton cycle hosts no implanted C4, so the direct
        split cannot move; with the desk floor (the default), enrichment
        rewires the cycle and the split then reaches k."""
        for k in (2, 4):
            for seed in range(6):
                g, cover = gen_implant_free(n, seed)
                params = Params(seed=seed, thomassen_degree_floor=1)
                res = solve(g, cover, k, params, random.Random(seed))
                assert res.cover is not None, (n, k, seed, res.stats.diagnostics)
                assert validate_cover(g, res.cover) == k
                assert res.stats.diagnostics == [_walk_record(res)] and res.stats.rewire_calls >= 1

    def test_rewire_precondition_failure(self):
        # a degree floor no vertex meets: the rewire degree precondition
        # raises on the first call, which ends the walk with one record
        g, cover = gen_planted(30, 0.15, 1)
        res = solve(g, cover, 3, Params(thomassen_degree_floor=g.n), strict=True)
        assert res.stats.rewire_calls == 0
        walk = _walk_record(res)
        assert walk["reason"] == "error" and walk["rounds"] == 1
        assert "desirable degree" in walk["detail"]

    def test_h_edge_drop_bound_after_unmerge(self, rng):
        """e(H) after unmerge stays within 2(l-1)n of the enriched count."""
        for seed in range(5):
            g, cover = random_factor_instance(random.Random(seed), 18, 0.45)
            if cover.num_components == 1:
                continue
            aug, merged, rec = merge_cover(g, cover)
            restored = unmerge(merged, rec)
            before = count_h_edges(aug, merged)
            after = count_h_edges(g, restored)
            assert after >= before - 2 * (cover.num_components - 1) * g.n


class TestWalk:
    @pytest.fixture
    def unmerged(self, monkeypatch):
        """The cycles each walk round hands to ``unmerge``."""
        cycles = []

        def recorded(cycle, rec, inner=pipeline.unmerge):
            cycles.append(cycle)
            return inner(cycle, rec)

        monkeypatch.setattr(pipeline, "unmerge", recorded)
        return cycles

    def test_never_revisits_a_cycle(self, monkeypatch, unmerged):
        # with patience past the round budget the walk runs until it lands a
        # success, runs out of cycles or spends its rounds
        monkeypatch.setattr(pipeline, "WALK_PATIENCE", 64)
        rounds = 0
        for n in range(9, 13):
            for seed in range(4):
                for g, cover in (gen_implant_free(n, seed), gen_planted(n, 0.4, seed)):
                    _, merged, _ = merge_cover(g, cover)
                    for k in range(2, n // 3 + 1):
                        unmerged.clear()
                        res = solve(g, cover, k, Params(seed=seed), strict=True)
                        assert merged not in unmerged
                        assert len(set(unmerged)) == len(unmerged)
                        walk = _walk_record(res)
                        assert walk["landed"] == len(unmerged) <= walk["rounds"] <= 64
                        assert res.stats.rewire_calls == 0
                        rounds += walk["rounds"]
        assert rounds >= 200

    def test_strict_without_a_landed_cycle_splits_the_input(self, monkeypatch):
        # a cycle graph has one Hamilton cycle, so the walk lands nothing
        calls = []

        def counted(*args, split=pipeline._split_validated):
            calls.append(args)
            return split(*args)

        monkeypatch.setattr(pipeline, "_split_validated", counted)
        g, cover = cycle_graph(12), ham_cover(12)
        res = solve(g, cover, 2, Params(thomassen_degree_floor=1), strict=True)
        assert res.cover is None
        assert _walk_record(res) == {
            "stage": "walk",
            "reason": "no cycle",
            "rounds": 1,
            "landed": 0,
            "h_edges": 0,
            "best_stopped_at": 1,
            "budget_exhausted": False,
        }
        assert len(calls) == 1 and calls[0][1] is cover
        assert res.stats.ell_presplit == 1

    def test_target_already_met(self, monkeypatch, unmerged):
        # the merged cycle hosts the target's implanted C4's: the walk takes
        # no round, and strict mode splits the input cover
        g, cover = planted_cover(60, 0.15, 3, ell=4)
        aug, merged, _ = merge_cover(g, cover)
        h = count_h_edges(aug, merged)
        res = solve(g, cover, 6, Params(seed=3, h_edge_target=h), strict=True)
        assert _walk_record(res) == {
            "stage": "walk",
            "reason": "target met",
            "rounds": 0,
            "landed": 0,
            "h_edges": h,
            "best_stopped_at": 6,
            "budget_exhausted": False,
        }
        assert unmerged == [] and res.stats.rewire_calls == 0
        assert res.stats.ell_presplit == 4 and validate_cover(g, res.cover) == 6

    def test_protected_edges_survive(self, monkeypatch, unmerged):
        # every landed cycle keeps the edges around the merge's bridges, in
        # both the enumerated (n <= 14) and the rewired walk
        monkeypatch.setattr(pipeline, "WALK_PATIENCE", 64)
        landed = 0
        for g, cover in (
            planted_cover(12, 0.6, 2, ell=2),
            planted_cover(13, 0.5, 1, ell=2),
            planted_cover(60, 0.15, 3, ell=4),
        ):
            _, merged, rec = merge_cover(g, cover)
            protected = protected_for_merge(merged, rec)
            assert protected
            unmerged.clear()
            params = Params(seed=1, thomassen_degree_floor=1, h_edge_target=2000, enrich_rounds=8)
            solve(g, cover, g.n // 3, params, random.Random(1), strict=True)
            assert all(protected <= cycle.edge_set() for cycle in unmerged)
            landed += len(unmerged)
        assert landed >= 15

    def test_stops_at_the_round_budget(self, monkeypatch, unmerged):
        monkeypatch.setattr(pipeline, "WALK_PATIENCE", 64)
        g, cover = gen_implant_free(12, 2)
        res = solve(g, cover, 4, Params(enrich_rounds=3), strict=True)
        assert res.cover is None
        walk = _walk_record(res)
        assert walk["reason"] == "rounds" and walk["rounds"] == walk["landed"] == 3

    def test_patience_ends_a_walk_that_does_not_gain(self, unmerged):
        # the first landed cycle splits no further than the direct split
        for n in range(9, 15):
            for seed in range(10):
                g, cover = gen_implant_free(n, seed)
                res = solve(g, cover, 2, Params(seed=seed, thomassen_degree_floor=1))
                walk = _walk_record(res)
                if walk["reason"] == "no gain":
                    assert res.cover is None and walk["rounds"] == walk["landed"] == 1
                    assert walk["best_stopped_at"] == 1 and len(unmerged) == 1
                    return
                unmerged.clear()
        pytest.fail("no walk ended for want of a gain")

    def test_implant_free_corpus_solved_count(self):
        """``gen_implant_free(n, s)`` for n 9-12 and s 0-9 with every k >= 2
        the oracle allows, under the desk floor: the walk's enumerator solves
        43 of these 50 feasible pairs (the direct split solves none, and the
        ledger it replaced solved 17)."""
        solved = total = 0
        for n in range(9, 13):
            for seed in range(10):
                g, cover = gen_implant_free(n, seed)
                for k in sorted(oracle_component_counts(g) - {1}):
                    total += 1
                    res = solve(g, cover, k, Params(seed=seed, thomassen_degree_floor=1))
                    if res.cover is not None:
                        assert validate_cover(g, res.cover) == k
                        solved += 1
        assert (solved, total) == (43, 50)

    def test_rewire_pins_no_edge_set_on_the_input_cover(self):
        # above the cutoff the one-cycle input is the first request's cycle
        g, cover = gen_implant_free(30, 1)
        assert g.n > pipeline.EXHAUSTIVE_CUTOFF
        res = solve(g, cover, 2, Params(seed=1, thomassen_degree_floor=1))
        assert res.stats.rewire_calls >= 1 and _walk_record(res)["landed"] >= 1
        assert _edge_sets_held(cover) == []

    def test_desk_floor_walk_warns_nothing(self):
        # above the cutoff the rewire reads the desk floor as its degree
        # floor, so a walk that calls it runs with warnings as errors
        g, cover = gen_implant_free(30, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(g, cover, 2, Params(seed=1, thomassen_degree_floor=1))
        assert res.stats.rewire_calls >= 1
        assert validate_cover(g, res.cover) == 2


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(6, 12), st.floats(0.1, 0.8), st.integers(0, (1 << 30) - 1), st.booleans())
def test_solve_on_planted_graphs(n, p, seed, strict):
    """Every k <= n/3 on a planted graph, strict and not: a success validates
    to k and the oracle allows k; the inputs dump as before; a rerun gives
    the same cover and timing-free stats; a failure carries one diagnostics
    record, the walk's, with the outcome of the split the solve returns (the
    first split that got furthest)."""
    g, cover = gen_planted(n, p, seed)
    graph_text, cover_text = dump_graph(g), dump_cover(cover)
    feasible = oracle_component_counts(g)
    params = Params(seed=seed, enrich_rounds=4, thomassen_degree_floor=1)
    splits = []

    def recorded(*args, split=pipeline._split_validated):
        splits.append(split(*args))
        return splits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_split_validated", recorded)
        for k in range(1, n // 3 + 1):
            runs = []
            for _ in range(2):
                splits.clear()
                res = solve(g, cover, k, params, random.Random(seed), strict)
                runs.append((res.cover and dump_cover(res.cover), res.stats.to_json(drop_timing=True)))
            assert runs[0] == runs[1]
            assert dump_graph(g) == graph_text and dump_cover(cover) == cover_text
            if res.cover is not None:
                assert validate_cover(g, res.cover) == k and k in feasible
                continue
            (walk,) = res.stats.diagnostics
            returned = max(splits, key=lambda out: out.diagnostics["stopped_at"])
            assert walk["stage"] == "walk" and returned.cover is None
            assert walk["best_stopped_at"] == returned.diagnostics["stopped_at"]
            assert walk["budget_exhausted"] == returned.diagnostics["budget_exhausted"]
