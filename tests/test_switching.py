import random
import tracemalloc
from collections import Counter

import pytest

from cyclesplit import switching

from cyclesplit.graphs import (
    CoverError,
    CycleCover,
    Graph,
    _canonical_cycle,
    edge_key,
    validate_cover,
)
from cyclesplit.instances import count_implanted_bruteforce, gen_implant_free, gen_planted
from cyclesplit.patterns import (
    find_decreasing_triple,
    find_increasing_triple,
    iter_decreasing_triples,
    iter_increasing_triples,
    iter_interleaved_pairs,
)
from cyclesplit.switching import (
    ImplantedC4,
    SwitchKind,
    _cut,
    _implanted_pairs,
    _make_c4,
    _plan,
    _toggle,
    apply_switch,
    count_h_edges,
    enumerate_implanted,
    increase_by_one,
    split_to_k,
)

from conftest import complete_graph, cycle_graph, ham_cover, random_factor_instance


def _reference_implanted(g, cover):
    """Implanted C4's by the O(n^2) scan over pairs of cover edges.

    Returns ``(edge_a, edge_b, aligned)`` in lexicographic position order:
    edges in global (cycle, position) order, aligned before anti-aligned.
    """
    edges = [(ci, pos) for ci, cyc in enumerate(cover.cycles) for pos in range(len(cyc))]

    def valid(u, v, y, z):
        # chords {u y, v z}: in the graph and not cover edges
        return (
            g.has_edge(u, y)
            and g.has_edge(v, z)
            and y not in cover.cycle_neighbors(u)
            and z not in cover.cycle_neighbors(v)
        )

    out = []
    for ia, ea in enumerate(edges):
        u, v = cover.cycle_edge(*ea)
        for eb in edges[ia + 1 :]:
            y, z = cover.cycle_edge(*eb)
            if len({u, v, y, z}) < 4:
                continue
            if valid(u, v, y, z):
                out.append((ea, eb, True))
            if valid(u, v, z, y):
                out.append((ea, eb, False))
    return out


def _kernel_cases(seed=0x1C4):
    """Seeded instances, n from 6 to 60, plus covers with 3- and 4-cycles."""
    rng = random.Random(seed)
    for _ in range(300):
        yield random_factor_instance(rng, rng.randint(6, 60), rng.uniform(0.05, 0.6))
    # short cycles: on a 4-cycle u v w x, nxt[v] == prev[u]
    for _ in range(60):
        lengths = [rng.choice((3, 4)) for _ in range(rng.randint(2, 6))]
        lengths += [rng.randint(3, 12) for _ in range(rng.randint(0, 2))]
        yield random_factor_instance(rng, sum(lengths), rng.uniform(0.1, 0.9), lengths)
    for n in (4, 5, 6, 7, 8):
        yield complete_graph(n), ham_cover(n)


class TestKernelMatchesReference:
    def test_enumeration_count_and_cap(self):
        for g, cover in _kernel_cases():
            want = _reference_implanted(g, cover)
            got = enumerate_implanted(g, cover)
            assert [(c.edge_a, c.edge_b, c.aligned) for c in got] == want
            assert count_h_edges(g, cover) == len(got) == len(want)
            for cap in (1, 3, 50):
                assert enumerate_implanted(g, cover, cap=cap) == got[:cap]

    def test_small_n_matches_brute_force(self, rng):
        for n in range(6, 13):
            for _ in range(8):
                g, cover = random_factor_instance(rng, n, rng.uniform(0.1, 0.9))
                brute = count_implanted_bruteforce(g, cover)
                assert count_h_edges(g, cover) == brute
                assert len(enumerate_implanted(g, cover)) == brute


def _covers_with_cycle_counts(rng, sizes):
    """Seeded covers: for each n, 1 to n/3 cycles and a density in [0, 1]."""
    for n in sizes:
        count = rng.randint(1, n // 3)
        lengths = [3] * count
        for _ in range(n - 3 * count):
            lengths[rng.randrange(count)] += 1
        yield random_factor_instance(rng, n, rng.choice((0.0, 1.0, rng.random())), lengths)


@pytest.fixture
def transposes(monkeypatch):
    """The column count of each ``_transpose`` call the test makes."""
    calls = []
    transpose = switching._transpose

    def counted(cols):
        calls.append(len(cols))
        return transpose(cols)

    monkeypatch.setattr(switching, "_transpose", counted)
    return calls


def _builder_cases(n):
    """A planted, an implant-free and a multi-cycle cover on n vertices."""
    yield gen_planted(n, 0.3, n)
    yield gen_implant_free(n, n)
    yield from _covers_with_cycle_counts(random.Random(n), [n])


class TestRowBuilders:
    """The transpose and the per-vertex sums build the same predecessor rows,
    and the kernel's rows count what brute force counts through either."""

    def test_transpose_matches_definition(self):
        rng = random.Random(0x7A5)
        for n in list(range(0, 41)) + [63, 64, 65, 127, 129]:
            cols = [rng.getrandbits(n) if n else 0 for _ in range(n)]
            want = [sum(((cols[y] >> x) & 1) << y for y in range(n)) for x in range(n)]
            assert switching._transpose(cols) == want

    @pytest.mark.parametrize("n", [16, 17, 23, 60, 100, 257, 1000])
    def test_builders_agree(self, n):
        for g, cover in _builder_cases(n):
            prev, nxt = cover.prev_next
            sums = switching._pred_sums(g, prev)
            transposed = switching._transpose([g.neighbor_bits(y) for y in nxt])
            assert transposed == [sums(x) for x in range(n)]

    def test_count_matches_brute_force(self):
        rng = random.Random(0xB7)
        sizes = [n for n in range(3, 13) for _ in range(6)]
        for g, cover in _covers_with_cycle_counts(rng, sizes):
            assert count_h_edges(g, cover) == count_implanted_bruteforce(g, cover)

    def test_transposed_count_matches_reference(self, transposes):
        # n from 16 up, dense enough that a whole-cover read transposes
        rng = random.Random(0x10)
        for n in range(16, 41, 2):
            for lengths in ([n], [3, n - 3], None):
                g, cover = random_factor_instance(rng, n, rng.uniform(0.4, 0.9), lengths)
                want = _reference_implanted(g, cover)
                calls = len(transposes)
                assert count_h_edges(g, cover) == len(want)
                got = enumerate_implanted(g, cover)
                assert [(c.edge_a, c.edge_b, c.aligned) for c in got] == want
                assert transposes[calls:] == [n, n]

    def test_rule(self, transposes):
        k15 = complete_graph(15)
        switching._kernel_rows(k15, *ham_cover(15).prev_next, 10**6)
        assert transposes == []  # n = 15 never transposes
        g, cover = gen_planted(100, 0.2, 5)
        prev, nxt = cover.prev_next
        switching._kernel_rows(g, prev, nxt, 16)
        assert transposes == []  # a few rows are cheaper summed
        switching._kernel_rows(g, prev, nxt, 100)
        assert transposes == [100]

    def test_whole_cover_reads_transpose(self, transposes):
        g, cover = gen_planted(100, 0.2, 5)
        count_h_edges(g, cover)
        enumerate_implanted(g, cover)
        switching._SplitMemo(g.n).buckets(g, cover, switching.SWITCH_CANDIDATE_BUDGET)
        assert transposes == [100, 100, 100]
        enumerate_implanted(g, cover, cap=5)
        assert transposes == [100, 100, 100]  # a capped walk may read a few rows

    def test_transpose_memory(self):
        # a whole-cover read holds little beyond a few copies of the matrix
        n = 1000
        rng = random.Random(0x3E8)
        cols = [rng.getrandbits(n) for _ in range(n)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            rows = switching._transpose(cols)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == n
        assert peak <= 5 * n * n / 8, peak / (n * n / 8)


class TestEnumerate:
    def test_chordless_cycle(self):
        assert enumerate_implanted(cycle_graph(6), ham_cover(6)) == []

    def test_k4(self):
        c4s = enumerate_implanted(complete_graph(4), ham_cover(4))
        assert len(c4s) == 2
        assert all(c.kind is SwitchKind.SAME_CYCLE_CROSSING for c in c4s)
        assert all(set(c.chords) == {(0, 2), (1, 3)} for c4 in [c4s] for c in c4)
        assert {c4s[0].edge_a, c4s[0].edge_b} == {(0, 0), (0, 2)}
        assert {c4s[1].edge_a, c4s[1].edge_b} == {(0, 1), (0, 3)}

    def test_k5(self):
        c4s = enumerate_implanted(complete_graph(5), ham_cover(5))
        assert len(c4s) == 5
        assert all(c.kind is SwitchKind.SAME_CYCLE_CROSSING for c in c4s)

    def test_chord_invariants(self, rng):
        for _ in range(20):
            g, cover = random_factor_instance(rng, rng.randint(6, 18), 0.35)
            cov_edges = cover.edge_set()
            for c4 in enumerate_implanted(g, cover):
                ea, eb = c4.cover_edges(cover)
                assert not set(ea) & set(eb)
                for chord in c4.chords:
                    assert g.has_edge(*chord)
                    assert chord not in cov_edges
                assert set(c4.chords[0]) | set(c4.chords[1]) == set(ea) | set(eb)

    def test_cap(self):
        c4s = enumerate_implanted(complete_graph(8), ham_cover(8), cap=3)
        assert len(c4s) == 3

    def test_zero_cap_is_empty(self):
        assert enumerate_implanted(complete_graph(8), ham_cover(8), cap=0) == []


class TestCountHEdges:
    def test_fixed_values(self):
        assert count_h_edges(cycle_graph(8), ham_cover(8)) == 0
        assert count_h_edges(complete_graph(4), ham_cover(4)) == 2
        assert count_h_edges(complete_graph(5), ham_cover(5)) == 5

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            n = rng.randint(5, 12)
            g, cover = gen_planted(n, rng.random() * 0.7, rng.randrange(1 << 20))
            assert count_h_edges(g, cover) == count_implanted_bruteforce(g, cover)

    def test_matches_enumeration_length(self, rng):
        for _ in range(15):
            g, cover = random_factor_instance(rng, rng.randint(6, 16), 0.4)
            assert count_h_edges(g, cover) == len(enumerate_implanted(g, cover))

    @pytest.mark.parametrize("cover_n, graph_n", [(20, 24), (24, 20)])
    def test_cover_of_another_size_rejected(self, cover_n, graph_n):
        g = gen_planted(graph_n, 0.9, 1)[0]
        cover = gen_planted(cover_n, 0.9, 1)[1]
        with pytest.raises(CoverError, match=f"cover spans {cover_n} vertices, graph has {graph_n}"):
            count_h_edges(g, cover)


class TestApplySwitch:
    def _c6_with(self, chords):
        return Graph(6, [(i, (i + 1) % 6) for i in range(6)] + chords)

    def test_parallel_splits(self):
        g = self._c6_with([(1, 3), (0, 4)])
        (c4,) = enumerate_implanted(g, ham_cover(6))
        assert c4.kind is SwitchKind.SAME_CYCLE_PARALLEL
        out = apply_switch(ham_cover(6), c4)
        assert out.cycles == ((0, 4, 5), (1, 2, 3))

    def test_crossing_rewires(self):
        g = self._c6_with([(0, 3), (1, 4)])
        (c4,) = enumerate_implanted(g, ham_cover(6))
        assert c4.kind is SwitchKind.SAME_CYCLE_CROSSING
        out = apply_switch(ham_cover(6), c4)
        assert out.num_components == 1
        assert out.cycles == ((0, 3, 2, 1, 4, 5),)

    def test_cross_cycle_merges(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4)])
        cover = CycleCover([[0, 1, 2], [3, 4, 5]])
        (c4,) = enumerate_implanted(g, cover)
        assert c4.kind is SwitchKind.CROSS_CYCLE
        out = apply_switch(cover, c4)
        assert out.num_components == 1 and out.n == 6

    def test_inconsistent_rejected(self):
        g = self._c6_with([(1, 3), (0, 4)])
        (c4,) = enumerate_implanted(g, ham_cover(6))
        other = CycleCover([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(CoverError):
            apply_switch(other, c4)

    @pytest.mark.parametrize(
        "edge_a, edge_b, chords, kind, message",
        [
            ((0, 9), (0, 4), ((0, 5), (1, 4)), SwitchKind.SAME_CYCLE_PARALLEL,
             "position that does not exist"),
            ((0, 0), (0, 4), ((0, 6), (1, 4)), SwitchKind.SAME_CYCLE_PARALLEL,
             "chords do not match"),
            # chord (1, 2) is itself a cover edge
            ((0, 0), (0, 2), ((0, 3), (1, 2)), SwitchKind.SAME_CYCLE_CROSSING,
             "inconsistent with the cover"),
            # parallel chords split the cycle, so the crossing label is wrong
            ((0, 0), (0, 4), ((0, 5), (1, 4)), SwitchKind.SAME_CYCLE_CROSSING,
             "same-cycle-crossing produced component delta 1"),
        ],
        ids=["position", "chord-endpoints", "chord-on-cover", "wrong-kind"],
    )
    def test_malformed_switch_rejected(self, edge_a, edge_b, chords, kind, message):
        c4 = switching.ImplantedC4(edge_a, edge_b, chords, kind, aligned=False)
        with pytest.raises(CoverError, match=message):
            apply_switch(ham_cover(8), c4)

    @pytest.mark.parametrize(
        "edge_a, edge_b, chords",
        [
            # a cycle or position counted from the end: (-1, 0) aliases the
            # edge 6-7 of cycle 1, so the batch would cut that cycle twice
            # and splice a "cover" that repeats vertices
            ((-1, 0), (1, 3), ((6, 9), (7, 10))),
            ((1, -6), (1, 3), ((6, 9), (7, 10))),
            ((0, 0), (-2, 3), ((0, 3), (1, 4))),
        ],
        ids=["cycle-from-end", "position-from-end", "partner-from-end"],
    )
    def test_negative_index_rejected(self, edge_a, edge_b, chords):
        cover = CycleCover([list(range(6)), list(range(6, 12))])
        c4 = ImplantedC4(edge_a, edge_b, chords, SwitchKind.SAME_CYCLE_CROSSING, aligned=True)
        with pytest.raises(CoverError, match="position that does not exist"):
            apply_switch(cover, c4)

    def test_delta_table_random(self, rng):
        """Component delta is +1 / 0 / -1 by kind, covers stay valid."""
        checked = 0
        while checked < 300:
            g, cover = random_factor_instance(rng, rng.randint(6, 30), 0.3)
            c4s = enumerate_implanted(g, cover, cap=2000)
            for c4 in rng.sample(c4s, min(10, len(c4s))):
                out = apply_switch(cover, c4)
                assert validate_cover(g, out) == out.num_components
                delta = out.num_components - cover.num_components
                assert delta == c4.kind.component_delta
                assert len(out.edge_set() ^ cover.edge_set()) == 4
                checked += 1


def _reference_toggle(cover, switches):
    """A batch of switches applied by edge symmetric difference; None if degenerate.

    Rebuilds the whole cover from its edge set, where ``_toggle`` splices
    only the cycles the batch touches.
    """
    removed = set()
    added = set()
    for c4 in switches:
        ea, eb = c4.cover_edges(cover)
        removed.add(ea)
        removed.add(eb)
        added.update(c4.chords)
    if len(removed) != 2 * len(switches) or len(added) != 2 * len(switches):
        return None
    edge_set = cover.edge_set()
    if not removed <= edge_set or added & edge_set:
        return None
    try:
        return CycleCover.from_edge_set(cover.n, (edge_set - removed) | added)
    except CoverError:
        return None


def _toggle_batches(rng, g, cover):
    """Switch batches on one cover: the split plans' shapes and malformed ones."""
    pairs = list(_implanted_pairs(g, cover))
    c4s = [_make_c4(cover, ea, eb, aligned) for ea, eb, aligned in pairs]
    same = [c for c in c4s if c.edge_a[0] == c.edge_b[0]]
    yield [c for c in same if not c.aligned][:1]  # parallel
    crossing = [c for c in same if c.aligned]
    for _ in range(3):
        if len(crossing) >= 2:
            yield rng.sample(crossing, 2)
    by_pair = {}
    for c in c4s:
        if c.edge_a[0] != c.edge_b[0]:
            by_pair.setdefault((c.edge_a[0], c.edge_b[0], c.aligned), []).append(c)
    for group in by_pair.values():
        if len(group) >= 3:
            yield rng.sample(group, 3)
    for _ in range(6):
        if c4s:
            yield rng.sample(c4s, min(len(c4s), rng.randint(1, 3)))
    # malformed: arbitrary cover-edge pairs, adjacent ones (one-vertex arcs)
    # among them; chords that are cover edges or loops follow from those
    edges = [(ci, pos) for ci, cyc in enumerate(cover.cycles) for pos in range(len(cyc))]
    for _ in range(6):
        batch = []
        for _ in range(rng.randint(1, 3)):
            ci, pos = rng.choice(edges)
            step = rng.choice((1, 2, rng.randrange(len(cover.cycles[ci]))))
            other = (ci, (pos + step) % len(cover.cycles[ci]))
            if rng.random() < 0.5:
                other = rng.choice(edges)
            batch.append(_make_c4(cover, (ci, pos), other, rng.random() < 0.5))
        yield batch
    if c4s:
        c4 = rng.choice(c4s)
        yield [c4, c4]  # repeated cover edges and chords
        # a chord endpoint off the removed edges
        (x, y), second = c4.chords
        w = rng.randrange(cover.n)
        yield [ImplantedC4(c4.edge_a, c4.edge_b, ((x, w), second), c4.kind, c4.aligned)]
        other = rng.choice(c4s)
        # a cover edge shared by two switches, chords distinct
        yield [c4, ImplantedC4(c4.edge_a, other.edge_b, other.chords, other.kind, other.aligned)]


class TestToggleSplice:
    def test_matches_edge_set_reference(self):
        rng = random.Random(0x5A1)
        outcomes = {"none": 0, "cover": 0}
        for g, cover in _kernel_cases(seed=0x70C):
            for batch in _toggle_batches(rng, g, cover):
                if not batch:
                    continue
                got = _toggle(cover, batch)
                want = _reference_toggle(cover, batch)
                assert got == want
                if got is None:
                    outcomes["none"] += 1
                    continue
                outcomes["cover"] += 1
                assert got.n == cover.n
                assert got.locator == CycleCover(got.cycles, cover.n).locator
        assert min(outcomes.values()) > 500, outcomes

    def test_untouched_cycles_keep_their_tuples(self):
        cover = CycleCover([[0, 1, 2], list(range(3, 11)), [11, 12, 13]])
        c4 = _make_c4(cover, (1, 0), (1, 4), aligned=False)
        out = _toggle(cover, [c4])
        assert out.cycles == ((0, 1, 2), (3, 8, 9, 10), (4, 5, 6, 7), (11, 12, 13))
        assert out.cycles[0] is cover.cycles[0]
        assert out.cycles[3] is cover.cycles[2]


def _spliced(cover, specs):
    """``_toggle`` of the switches ``(edge_a, edge_b, aligned)``, checked
    against the edge-set reference and against the public constructor."""
    batch = [_make_c4(cover, ea, eb, aligned) for ea, eb, aligned in specs]
    got = _toggle(cover, batch)
    assert got is not None
    assert got == _reference_toggle(cover, batch)
    assert got.cycles == CycleCover(got.cycles, cover.n).cycles
    return got.cycles


class TestToggleNamedCases:
    """Splices whose arcs meet the edge cases of the canonical assembly."""

    @pytest.mark.parametrize(
        "edge_a, edge_b, want",
        [
            # cut at position 0: the first arc wraps and ends on the minimum
            ((0, 0), (0, 5), ((0, 6, 7, 8, 9), (1, 2, 3, 4, 5))),
            # cut at L - 1: the first arc starts on the minimum, no wrap
            ((0, 3), (0, 9), ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))),
        ],
        ids=["cut-at-0", "cut-at-L-1"],
    )
    def test_cut_at_either_end(self, edge_a, edge_b, want):
        assert _spliced(ham_cover(10), [(edge_a, edge_b, False)]) == want

    def test_one_vertex_arc_at_position_0(self):
        # both edges at vertex 0 go: its arc is the one vertex, and both of
        # its new neighbours come from other arcs
        cover = ham_cover(10)
        got = _spliced(cover, [((0, 0), (0, 4), False), ((0, 6), (0, 9), False)])
        assert got == ((0, 5, 6), (1, 2, 3, 4), (7, 8, 9))

    @pytest.mark.parametrize(
        "cycle, want",
        [
            # the minimum 2 opens the walk; its neighbour across the chord (3)
            # is below the one in its own piece (7): the walk reverses
            ((0, 1, 2, 7, 6, 8, 3, 4, 5, 9, 10, 11), ((0, 1, 8, 6, 9, 10, 11), (2, 3, 4, 5, 7))),
            # the minimum 2 closes the walk; its neighbour across the chord
            # (3), in the walk's first piece, decides again
            ((0, 1, 3, 5, 7, 8, 2, 4, 6, 9, 10, 11), ((0, 1, 8, 7, 9, 10, 11), (2, 3, 5, 6, 4))),
        ],
        ids=["minimum-opens-walk", "minimum-closes-walk"],
    )
    def test_minimum_at_a_piece_boundary(self, cycle, want):
        # two interleaved crossing switches: the second new cycle holds no
        # position 0, so its minimum is scanned for, and it ends a piece
        cover = CycleCover([cycle])
        assert cover.cycles == (cycle,)
        assert _spliced(cover, [((0, 1), (0, 5), True), ((0, 3), (0, 8), True)]) == want

    def test_wrapping_arc_walked_backwards(self):
        # the aligned merge enters cycle 1's wrapping arc at its last vertex
        cover = CycleCover([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
        got = _spliced(cover, [((0, 2), (1, 1), True)])
        assert got == ((0, 1, 2, 6, 5, 9, 8, 7, 3, 4),)

    def test_merge_and_split_batches_of_twenty_switches(self):
        # 21 cycles of lengths 3 to 6 chained by 20 aligned switches, as
        # merge_cover chains them; the batch that swaps each switch's chords
        # back out splits the Hamilton cycle into the same 21 cycles
        rng = random.Random(0xB47C)
        sizes = [rng.randint(3, 6) for _ in range(21)]
        perm = list(range(sum(sizes)))
        rng.shuffle(perm)
        cover = CycleCover([perm[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(21)])
        specs, incoming = [], None
        for i in range(20):
            outgoing = rng.choice([p for p in range(len(cover.cycles[i])) if p != incoming])
            incoming = rng.randrange(len(cover.cycles[i + 1]))
            specs.append(((i, outgoing), (i + 1, incoming), True))
        merged = CycleCover._from_canonical(_spliced(cover, specs), cover.n)
        assert merged.num_components == 1
        back = []
        for ea, eb, aligned in specs:
            c4 = _make_c4(cover, ea, eb, aligned)
            removed = set(c4.cover_edges(cover))
            at = [_edge_position(merged, chord) for chord in c4.chords]
            back.append(next(
                (at[0], at[1], side) for side in (True, False)
                if set(_make_c4(merged, at[0], at[1], side).chords) == removed
            ))
        assert _spliced(merged, back) == cover.cycles


def _edge_position(cover, edge):
    """(cycle, position) of a cover edge given as a pair."""
    u, v = edge
    ci, pos = cover.locator[u]
    cyc = cover.cycles[ci]
    return (ci, pos) if cyc[(pos + 1) % len(cyc)] == v else (ci, (pos - 1) % len(cyc))


class TestIncreaseByOne:
    def test_case2_example(self):
        g = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 3), (1, 4), (2, 5), (3, 6)])
        new, plan = increase_by_one(g, ham_cover(8))
        assert plan.case == 2 and 4 * len(plan.switches) == 8
        assert {frozenset(c) for c in new.cycles} == {
            frozenset({0, 3, 6, 7}),
            frozenset({1, 2, 5, 4}),
        }
        assert validate_cover(g, new) == 2

    def test_case3_example(self):
        edges = (
            [(i, (i + 1) % 6) for i in range(6)]
            + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
            + [(i, i + 6) for i in range(6)]
        )
        g = Graph(12, edges)
        cover = CycleCover([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]])
        new, plan = increase_by_one(g, cover)
        assert plan.case == 3 and 4 * len(plan.switches) == 12
        assert {frozenset(c) for c in new.cycles} == {
            frozenset({0, 6, 11, 5}),
            frozenset({1, 7, 8, 2}),
            frozenset({3, 9, 10, 4}),
        }
        assert validate_cover(g, new) == 3

    def test_chordless_none(self):
        assert increase_by_one(cycle_graph(8), ham_cover(8)) is None

    def test_case1_preferred(self):
        new, plan = increase_by_one(complete_graph(8), ham_cover(8))
        assert plan.case == 1 and 4 * len(plan.switches) == 4
        assert new.num_components == 2

    def test_postconditions_random(self, rng):
        done = 0
        while done < 40:
            g, cover = random_factor_instance(rng, rng.randint(8, 24), 0.35)
            got = increase_by_one(g, cover)
            if got is None:
                continue
            new, plan = got
            assert new.num_components == cover.num_components + 1
            sym = new.edge_set() ^ cover.edge_set()
            assert len(sym) in (4, 8, 12)
            assert all(e in cover.edge_set() for e in cover.edge_set() - new.edge_set())
            added = new.edge_set() - cover.edge_set()
            assert all(g.has_edge(*e) and e not in cover.edge_set() for e in added)
            assert 4 * len(plan.switches) == len(sym)
            assert validate_cover(g, new) == new.num_components
            done += 1

    def test_plan_that_keeps_the_count_rejected(self):
        # a single crossing switch rewires one cycle: it toggles, but a plan
        # must split, so planning it is a bug
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)])
        (c4,) = enumerate_implanted(g, ham_cover(6))
        with pytest.raises(AssertionError, match="did not split"):
            _plan(ham_cover(6), [c4], case=1)

    def test_non_splitting_candidate_raises(self, monkeypatch):
        # a step commits to the stream's first candidate with switches: one
        # that keeps the count is not skipped for the next but raises
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)])
        (c4,) = enumerate_implanted(g, ham_cover(6))
        candidates = switching._candidates

        def with_rewire_first(cover, memo, index):
            yield 2, [c4]
            yield from candidates(cover, memo, index)

        monkeypatch.setattr(switching, "_candidates", with_rewire_first)
        with pytest.raises(AssertionError, match="did not split"):
            increase_by_one(g, ham_cover(6))

    def test_cover_edge_absent_from_graph_rejected(self):
        # the Hamilton cover uses the edge 0-7, which the graph lacks
        g = Graph(8, [e for e in complete_graph(8).edges() if e != (0, 7)])
        with pytest.raises(CoverError, match="absent"):
            increase_by_one(g, ham_cover(8))
        with pytest.raises(CoverError, match="absent"):
            enumerate_implanted(g, ham_cover(8))


class TestSplitToK:
    def test_k12_to_four(self):
        out = split_to_k(complete_graph(12), ham_cover(12), 4)
        assert out.cover is not None
        assert validate_cover(complete_graph(12), out.cover) == 4
        assert out.sym_diff <= 12 * 3

    def test_base_case(self):
        out = split_to_k(complete_graph(9), ham_cover(9), 1)
        assert out.cover == ham_cover(9) and out.sym_diff == 0

    def test_chordless_fails_honestly(self):
        out = split_to_k(cycle_graph(9), ham_cover(9), 2)
        assert out.cover is None
        assert out.diagnostics["stopped_at"] == 1

    def test_input_cover_checked(self):
        # the Hamilton cover uses the edge 0-7, which the graph lacks
        g = Graph(8, [e for e in complete_graph(8).edges() if e != (0, 7)])
        with pytest.raises(CoverError, match="absent"):
            split_to_k(g, ham_cover(8), 2)

    def test_never_merges(self):
        with pytest.raises(ValueError, match="merging"):
            split_to_k(complete_graph(9), CycleCover([[0, 1, 2], [3, 4, 5], [6, 7, 8]]), 2)

    def test_infeasible_k(self):
        with pytest.raises(ValueError, match="infeasible"):
            split_to_k(complete_graph(8), ham_cover(8), 3)

    def test_budget_on_random_instances(self, rng):
        for _ in range(15):
            n = rng.randint(12, 40)
            g, cover = gen_planted(n, 0.4, rng.randrange(1 << 20))
            k = rng.randint(1, n // 3)
            out = split_to_k(g, cover, k)
            if out.cover is not None:
                assert validate_cover(g, out.cover) == k
                assert out.sym_diff <= 12 * (k - 1)

    def test_sym_diff_matches_replayed_plans(self):
        # sym_diff is accumulated from the steps' changed edges; replaying the
        # plans and diffing whole edge sets must give the same count, on
        # successes and on stalls alike
        seen = Counter()
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(12, 60)
            g, cover = gen_planted(n, rng.uniform(0.1, 0.5), seed)
            out = split_to_k(g, cover, rng.randint(2, n // 3))
            replayed = cover
            for plan in out.plans:
                replayed = _toggle(replayed, plan.switches)
            assert out.sym_diff == len(replayed.edge_set() ^ cover.edge_set())
            if out.cover is not None:
                assert replayed == out.cover
            seen[out.cover is not None] += 1
        assert seen[True] and seen[False]


_LOOPS = ("iter_interleaved_pairs", "iter_increasing_triples", "iter_decreasing_triples")


class TestCandidateBudget:
    """Every budget exit of a split step: the filing, the case-2 loop and the
    two case-3/4 loops.

    A step spends one unit per implanted C4 it reads from a cycle the memo has
    not seen and one per candidate it tries.  Each budget below comes from a
    run under the default budget: what the target step files, plus the
    candidates it tries before the target.  On this instance the split reaches
    k=20, and its last step, the first one case 1 cannot serve, files the
    whole cover and tries candidates of all three loops.
    """

    @pytest.fixture
    def record(self, monkeypatch):
        """``run(budget)``: split to k=20 under that step budget, and per step
        the C4's it filed and the loop of each candidate it tried."""
        steps = []
        for name in _LOOPS:

            def tracked(pairs, inner=getattr(switching, name), name=name):
                for item in inner(pairs):
                    steps[-1]["tried"].append(name)
                    yield item

            monkeypatch.setattr(switching, name, tracked)
        buckets, step = switching._SplitMemo.buckets, switching.increase_by_one_with_diag

        def filing(memo, g, cover, budget):
            fresh, got = buckets(memo, g, cover, budget)
            steps[-1]["filed"] = fresh
            return fresh, got

        def logged(g, cover, memo=None):
            steps.append({"filed": 0, "tried": []})
            return step(g, cover, memo)

        monkeypatch.setattr(switching._SplitMemo, "buckets", filing)
        monkeypatch.setattr(switching, "increase_by_one_with_diag", logged)
        g, cover = gen_planted(100, 0.2, 31)

        def run(budget=switching.SWITCH_CANDIDATE_BUDGET):
            monkeypatch.setattr(switching, "SWITCH_CANDIDATE_BUDGET", budget)
            steps.clear()
            return split_to_k(g, cover, 20), list(steps)

        return run

    @pytest.mark.parametrize("loop", _LOOPS)
    def test_budget_exhausted(self, record, loop):
        out, steps = record()
        assert out.cover is not None
        at = next(i for i, s in enumerate(steps) if loop in s["tried"])
        before = steps[at]["tried"].index(loop)
        budget = steps[at]["filed"] + before
        # every earlier step fits, so the run reaches that step unchanged
        assert all(s["filed"] + len(s["tried"]) <= budget for s in steps[:at])
        out, cut = record(budget)
        assert out.cover is None
        assert out.diagnostics["budget_exhausted"] is True
        assert len(cut) == len(out.plans) + 1 == at + 1
        # the loop's first candidate is the first one past the budget
        assert cut[at] == {"filed": steps[at]["filed"], "tried": steps[at]["tried"][: before + 1]}

    def test_filing_exhausts_before_any_candidate(self, record):
        out, steps = record()
        at = next(i for i, s in enumerate(steps) if s["filed"])
        filed = steps[at]["filed"]
        assert all(s == {"filed": 0, "tried": []} for s in steps[:at])
        out, cut = record(filed - 1)
        assert out.cover is None and len(out.plans) == at
        # the Hamilton cover gained one cycle per plan before the stop
        assert out.diagnostics == {"stopped_at": 1 + at, "budget_exhausted": True}
        assert cut[at] == {"filed": filed, "tried": []}
        # one unit more pays for the filing, and the step goes on to a candidate
        _, cut = record(filed)
        assert cut[at]["filed"] == filed and cut[at]["tried"]


def _reference_file(pairs):
    """The case-2/3/4 buckets of ``(edge_a, edge_b, aligned)`` items, in their order.

    Returns the crossing pairs (a, b) per cycle, and the aligned and the
    anti-aligned pairs per cycle pair (ci, cj), ci < cj.
    """
    same_crossing: dict[int, list] = {}
    cross_aligned: dict[tuple[int, int], list] = {}
    cross_anti: dict[tuple[int, int], list] = {}
    for (ci, a), (cj, b), aligned in pairs:
        if ci != cj:
            bucket = cross_aligned if aligned else cross_anti
            bucket.setdefault((ci, cj), []).append((a, b))
        elif aligned:
            same_crossing.setdefault(ci, []).append((a, b))
    return same_crossing, cross_aligned, cross_anti


def _yielding(buckets):
    """``_reference_file``'s buckets less the lists too short to yield a
    candidate: two crossing pairs make case 2's least, three pairs a triple's."""
    same_crossing, cross_aligned, cross_anti = buckets
    return (
        {ci: pairs for ci, pairs in same_crossing.items() if len(pairs) >= 2},
        {key: pairs for key, pairs in cross_aligned.items() if len(pairs) >= 3},
        {key: pairs for key, pairs in cross_anti.items() if len(pairs) >= 3},
    )


def _memo_lists(memo, index):
    """The memo's kept lists keyed by cycle index, as ``_reference_file`` keys
    its buckets."""
    return (
        {index[v]: pairs for _, v, pairs in memo.crossing},
        {(index[lower], index[higher]): pairs for _, lower, higher, pairs in memo.aligned},
        {(index[lower], index[higher]): pairs for _, lower, higher, pairs in memo.anti},
    )


def _reference_candidates(cover, buckets):
    """The case-2/3/4 loops over ``_reference_file``'s buckets, as a stream.

    Yields ``(case, switches)`` at each point where the loops charge the
    budget one unit, with ``switches`` None where they skip a candidate whose
    new cycles would be shorter than 3.
    """
    same_crossing, cross_aligned, cross_anti = buckets
    for ci in sorted(same_crossing, key=lambda c: (-len(same_crossing[c]), c)):
        chords = same_crossing[ci]
        L = len(cover.cycles[ci])
        for ka, kb in iter_interleaved_pairs(chords):
            h, j = chords[ka]
            i, m = chords[kb]
            if (i - h) + (m - j) < 3 or (j - i) + (L - (m - h)) < 3:
                yield 2, None
                continue
            yield 2, [
                _make_c4(cover, (ci, h), (ci, j), aligned=True),
                _make_c4(cover, (ci, i), (ci, m), aligned=True),
            ]
    for case, buckets, finder, itertriples in (
        (3, cross_aligned, find_increasing_triple, iter_increasing_triples),
        (4, cross_anti, find_decreasing_triple, iter_decreasing_triples),
    ):
        for key in sorted(buckets, key=lambda p: (-len(buckets[p]), p)):
            pairs = buckets[key]
            if finder(pairs) is None:
                continue
            ci, cj = key
            lx = len(cover.cycles[ci])
            ly = len(cover.cycles[cj])
            for ta, tb, tc in itertriples(pairs):
                a1, b1 = pairs[ta]
                a2, b2 = pairs[tb]
                a3, b3 = pairs[tc]
                if case == 3:
                    g2 = (a2 - a1) + (b2 - b1)
                    g3 = (a3 - a2) + (b3 - b2)
                    gw = (lx - (a3 - a1)) + (ly - (b3 - b1))
                else:
                    g2 = (a2 - a1) + (b1 - b2)
                    g3 = (a3 - a2) + (b2 - b3)
                    gw = (lx - (a3 - a1)) + (ly - (b1 - b3))
                if g2 < 3 or g3 < 3 or gw < 3:
                    yield case, None
                    continue
                aligned = case == 3
                yield case, [
                    _make_c4(cover, (ci, a1), (cj, b1), aligned=aligned),
                    _make_c4(cover, (ci, a2), (cj, b2), aligned=aligned),
                    _make_c4(cover, (ci, a3), (cj, b3), aligned=aligned),
                ]


# (n, average degree, seed): planted graphs split up to k = n/3, past the
# stall; together their steps reach cases 2, 3 and 4
_MEMO_RUNS = [(30, 20, 0), (60, 20, 0), (100, 10, 2), (300, 20, 2)]


def _planted(n, degree, seed):
    return gen_planted(n, degree / n, seed)


class TestSplitMemo:
    """A split run's memo changes what a step reads, never what it finds."""

    def test_steps_match_fresh_steps(self, monkeypatch):
        checked = {"buckets": 0, "parallel": 0}
        buckets, find_parallel = switching._SplitMemo.buckets, switching._find_parallel

        def checked_buckets(memo, g, cover, budget):
            unseen = {
                ci for ci, cyc in enumerate(cover.cycles) if memo.cycles.get(cyc[0]) is not cyc
            }
            fresh, index = buckets(memo, g, cover, budget)
            pairs = list(_implanted_pairs(g, cover))
            assert index == {cyc[0]: ci for ci, cyc in enumerate(cover.cycles)}
            assert memo.cycles == {cyc[0]: cyc for cyc in cover.cycles}
            assert _memo_lists(memo, index) == _yielding(_reference_file(pairs))
            # the step pays for the C4's with an edge on a cycle it had not seen
            assert fresh == sum(ea[0] in unseen or eb[0] in unseen for ea, eb, _ in pairs)
            checked["buckets"] += 1
            return fresh, index

        def checked_parallel(g, cover, parallel_free):
            got = find_parallel(g, cover, parallel_free)
            assert got == find_parallel(g, cover, {})
            checked["parallel"] += 1
            return got

        monkeypatch.setattr(switching._SplitMemo, "buckets", checked_buckets)
        monkeypatch.setattr(switching, "_find_parallel", checked_parallel)
        cases = set()
        failures = 0
        for n, degree, seed in _MEMO_RUNS:
            g, cover = _planted(n, degree, seed)
            out = split_to_k(g, cover, n // 3)
            failures += out.cover is None
            cases.update(plan.case for plan in out.plans)
            # the same steps, each starting from nothing
            fresh, current = [], cover
            while True:
                step, _ = switching.increase_by_one_with_diag(g, current)
                if step is None:
                    break
                current, plan = step
                fresh.append(plan)
            assert tuple(fresh) == out.plans
            assert out.diagnostics["stopped_at"] == current.num_components
        assert cases == {1, 2, 3, 4}
        assert failures == len(_MEMO_RUNS)
        assert checked["buckets"] > 2 * len(_MEMO_RUNS) and checked["parallel"] > 100

    def test_orders_match_sorted_buckets(self, monkeypatch):
        """At every filing the three orders are the reference buckets sorted
        from scratch, though most filings gain a cycle under the first vertex
        of a cycle they lose."""
        seen = Counter()
        buckets = switching._SplitMemo.buckets

        def checked(memo, g, cover, budget):
            cycles = cover.cycles
            ids = set(map(id, cycles))
            lost = {v for v, cyc in memo.cycles.items() if id(cyc) not in ids}
            gained = {cyc[0] for cyc in cycles if memo.cycles.get(cyc[0]) is not cyc}
            fresh, index = buckets(memo, g, cover, budget)
            same, aligned, anti = _yielding(_reference_file(_implanted_pairs(g, cover)))
            assert memo.crossing == sorted((-len(p), cycles[ci][0], p) for ci, p in same.items())
            for order, bucket in ((memo.aligned, aligned), (memo.anti, anti)):
                assert order == sorted(
                    (-len(p), cycles[ci][0], cycles[cj][0], p) for (ci, cj), p in bucket.items()
                )
            seen["filings"] += 1
            seen["reused"] += bool(lost & gained)
            seen["kept"] += len(memo.crossing) + len(memo.aligned) + len(memo.anti)
            return fresh, index

        monkeypatch.setattr(switching._SplitMemo, "buckets", checked)
        for n, degree, seed in _MEMO_RUNS:
            g, cover = _planted(n, degree, seed)
            split_to_k(g, cover, n // 3)
        assert seen["reused"] > seen["filings"] // 2 and seen["kept"] > 100, seen

    def test_filing_meets_parallel_free_cycles(self, monkeypatch):
        """A step files only once case 1 has found every cycle parallel-free,
        so no list pairs a cycle with itself: its anti-aligned pairs would be
        parallel C4's."""
        seen = Counter()
        buckets, parallel_in = switching._SplitMemo.buckets, switching._parallel_in

        def checked(memo, g, cover, budget):
            assert all(parallel_in(g, cyc) is None for cyc in cover.cycles)
            fresh, index = buckets(memo, g, cover, budget)
            for order in (memo.aligned, memo.anti):
                assert all(lower != higher for _, lower, higher, _ in order)
                seen["kept"] += len(order)
            seen["filings"] += 1
            return fresh, index

        monkeypatch.setattr(switching._SplitMemo, "buckets", checked)
        for _ in _step_covers():  # each step starts from an empty memo
            pass
        runs = [_planted(n, degree, seed) for n, degree, seed in ((90, 20, 1), (150, 12, 3))]
        runs += [gen_implant_free(n, seed) for n, seed in ((30, 0), (60, 1))]
        for g, cover in runs:
            split_to_k(g, cover, g.n // 3)
        assert seen["filings"] > 20 and seen["kept"] > 500, seen

    def test_toggle_keeps_untouched_tuples(self, monkeypatch):
        """A switch batch hands back every cycle it leaves untouched as the same
        tuple object, which the memo's first-vertex keys rely on."""
        cases = Counter()
        plan = switching._plan

        def checked(cover, switches, case):
            new, got = plan(cover, switches, case)
            touched = {ci for c4 in switches for ci in (c4.edge_a[0], c4.edge_b[0])}
            ids = set(map(id, new.cycles))
            for ci, cyc in enumerate(cover.cycles):
                assert ci in touched or id(cyc) in ids
            cases[case] += 1
            return new, got

        monkeypatch.setattr(switching, "_plan", checked)
        for n, degree, seed in _MEMO_RUNS:
            g, cover = _planted(n, degree, seed)
            split_to_k(g, cover, n // 3)
        assert set(cases) == {1, 2, 3, 4}, cases

    def test_success_matches_fresh_steps(self):
        g, cover = _planted(100, 20, 0)
        out = split_to_k(g, cover, 20)
        assert out.cover is not None and {2, 3, 4} & {p.case for p in out.plans}
        current = cover
        for plan in out.plans:
            (current, fresh), _ = switching.increase_by_one_with_diag(g, current)
            assert fresh == plan
        assert current == out.cover

    def test_each_cycle_read_once(self, monkeypatch):
        """Case 1 scans a tuple to the end at most once, and the kernel builds a
        vertex's rows at most once per tuple it belongs to."""
        scans = Counter()
        row_builds = Counter()
        parallel_in, kernel_rows = switching._parallel_in, switching._kernel_rows

        def counted_scan(g, cyc):
            hit = parallel_in(g, cyc)
            if hit is None:
                scans[cyc] += 1
            return hit

        def counted_rows(g, prev, nxt, reads):
            rows = kernel_rows(g, prev, nxt, reads)

            def built(x):
                cyc, y = [x], nxt[x]
                while y != x:
                    cyc.append(y)
                    y = nxt[y]
                row_builds[x, _canonical_cycle(cyc)] += 1
                return rows(x)

            return built

        monkeypatch.setattr(switching, "_parallel_in", counted_scan)
        monkeypatch.setattr(switching, "_kernel_rows", counted_rows)
        g, cover = _planted(300, 20, 2)
        out = split_to_k(g, cover, 100)
        assert out.diagnostics["stopped_at"] == 35
        steps = [plan.case for plan in out.plans]
        assert steps.count(1) < len(steps)  # some steps enumerate
        assert len(row_builds) > 300 and max(row_builds.values()) == 1
        assert len(scans) > 20 and max(scans.values()) == 1


def _step_covers():
    """``(g, cover)`` of every split step of ``_MEMO_RUNS``."""
    for n, degree, seed in _MEMO_RUNS:
        g, cover = _planted(n, degree, seed)
        current = cover
        while True:
            yield g, current
            step, _ = switching.increase_by_one_with_diag(g, current)
            if step is None:
                break
            current = step[0]


def _stream_covers():
    """``(g, cover)`` of every split step of ``_MEMO_RUNS`` that reads the
    candidate stream."""
    for g, cover in _step_covers():
        if switching._find_parallel(g, cover, {}) is None:
            yield g, cover


class TestCandidateStream:
    """Cases 2-4 try the candidates of the reference loops, in their order,
    and pay one unit for each, a candidate too short to try included."""

    def test_stream_matches_reference_loops(self, monkeypatch):
        seen = Counter()
        runs = []
        candidates = switching._candidates

        def checked(cover, memo, index):
            got = list(candidates(cover, memo, index))
            buckets = _reference_file(_implanted_pairs(runs[-1], cover))
            assert got == list(_reference_candidates(cover, buckets))
            for bucket in buckets:
                sizes = [len(pairs) for pairs in bucket.values()]
                seen["ties"] += len(set(sizes)) < len(sizes)
                seen["orders"] += sizes != sorted(sizes, reverse=True)
            seen.update(case if switches else "short" for case, switches in got)
            yield from got

        monkeypatch.setattr(switching, "_candidates", checked)
        for n, degree, seed in _MEMO_RUNS[:3]:
            g, cover = _planted(n, degree, seed)
            runs.append(g)
            split_to_k(g, cover, n // 3)
        # buckets tie in size, and size is not index order, on many steps
        assert seen["ties"] > 10 and seen["orders"] > 10, seen
        assert all(seen[key] for key in (2, 3, 4, "short")), seen

    def test_every_well_formed_configuration_splits(self):
        """A step commits to its first plan because no other can differ: each
        parallel C4 and each candidate of the whole stream with switches,
        not just the first, toggles to exactly one more cycle."""
        seen = Counter()
        for g, cover in _step_covers():
            want = cover.num_components + 1
            for c4 in enumerate_implanted(g, cover):
                if c4.kind is SwitchKind.SAME_CYCLE_PARALLEL:
                    assert _toggle(cover, [c4]).num_components == want
                    seen[1] += 1
            if switching._find_parallel(g, cover, {}) is not None:
                continue
            memo = switching._SplitMemo(cover.n)
            _, index = memo.buckets(g, cover, switching.SWITCH_CANDIDATE_BUDGET)
            for case, switches in switching._candidates(cover, memo, index):
                if switches is not None:
                    assert _toggle(cover, switches).num_components == want, case
                    seen[case] += 1
        assert all(seen[case] > 10 for case in (1, 2, 3, 4)), seen

    def test_each_candidate_costs_one_unit(self, monkeypatch):
        seen = Counter()
        for g, cover in _stream_covers():
            pairs = list(_implanted_pairs(g, cover))
            want, units = None, 0
            for case, switches in _reference_candidates(cover, _reference_file(pairs)):
                units += 1
                if switches is None:
                    seen["short"] += 1
                    continue
                want = _plan(cover, switches, case)
                break
            # a step with no memo files every C4, then pays for its candidates
            for budget, exhausted in ((len(pairs) + units, False), (len(pairs) + units - 1, True)):
                # only this step: the stream's own splits keep the default
                with monkeypatch.context() as m:
                    m.setattr(switching, "SWITCH_CANDIDATE_BUDGET", budget)
                    step, ran_out = switching.increase_by_one_with_diag(g, cover)
                assert ran_out is exhausted
                if not exhausted:
                    assert step == want
            seen["stall" if want is None else "plan"] += 1
        # stalls and plans, with short candidates among those paid for
        assert seen["stall"] >= 4 and seen["plan"] >= 15 and seen["short"] > 100, seen


class TestCut:
    """Case 1 cuts its cycle in two where the splice would walk its arcs: the
    same cover, with every other cycle the same tuple object."""

    def test_cut_equals_splice_on_step_covers(self):
        # every parallel C4 of every split step's cover, not only the first
        # one case 1 takes; every other C4 is refused
        seen = Counter()
        for g, cover in _step_covers():
            for c4 in enumerate_implanted(g, cover):
                seen[c4.kind] += 1
                got = _cut(cover, c4)
                if c4.kind is not SwitchKind.SAME_CYCLE_PARALLEL:
                    assert got is None
                    continue
                assert got == _toggle(cover, [c4])
                ids = set(map(id, got.cycles))
                for ci, cyc in enumerate(cover.cycles):
                    assert ci == c4.edge_a[0] or id(cyc) in ids
        assert all(seen[kind] > 100 for kind in SwitchKind), seen

    def test_guard_is_the_splice_checks(self):
        # every ordered pair of positions on each cycle, spans the splice
        # rejects and edge_a after edge_b included: the cut refuses exactly
        # the switches the splice does, and agrees with it on the rest
        rng = random.Random(0xC07)
        outcomes = Counter()
        for sizes in ((3, 6), (7,), (4, 9, 5), (3, 8, 3)):
            perm = list(range(sum(sizes)))
            rng.shuffle(perm)
            ends = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
            cover = CycleCover([perm[lo:hi] for lo, hi in zip(ends, ends[1:])])
            for ci, cyc in enumerate(cover.cycles):
                for a in range(len(cyc)):
                    for b in range(len(cyc)):
                        c4 = _make_c4(cover, (ci, a), (ci, b), aligned=False)
                        want = _toggle(cover, [c4])
                        assert _cut(cover, c4) == want
                        outcomes["none" if want is None else "cover"] += 1
        assert min(outcomes.values()) > 50, outcomes
