"""Acceptance suite: one test per criterion, exact tolerances, fixed seeds.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output) carrying the measured quantities next to the stated budget.
"""

import random
import time

import pytest

from cyclesplit.graphs import Params, dump_cover, validate_cover
from cyclesplit.instances import (
    count_implanted_bruteforce,
    gen_planted,
    gen_triangles_biclique,
    oracle_component_counts,
)
from cyclesplit.patterns import (
    find_decreasing_triple,
    find_increasing_triple,
    find_interleaved_pair,
)
from cyclesplit.pipeline import solve
from cyclesplit.rewire import (
    RewireRequest,
    check_independent_dominating,
    sample_switch_set,
    second_hamilton_cycle,
)
from cyclesplit.switching import apply_switch, count_h_edges, enumerate_implanted

from conftest import (
    brute_decreasing_triple,
    brute_increasing_triple,
    brute_interleaved_pair,
    complete_graph,
    ham_cover,
    random_factor_instance,
)

DESK = Params(thomassen_degree_floor=1)


def _report(num, elapsed, budget, detail):
    print(f"criterion {num}: PASS ({elapsed:.1f}s < {budget:.0f}s) — {detail}")


# -- criterion 1: switch-delta table ----------------------------------------


def test_criterion_01_switch_delta_table():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    kinds = {"same-cycle-parallel": 0, "same-cycle-crossing": 0, "cross-cycle": 0}
    while checked < 1000:
        n = rng.randint(8, 50)
        g, cover = random_factor_instance(rng, n, rng.uniform(0.15, 0.5))
        c4s = enumerate_implanted(g, cover, cap=4000)
        if not c4s:
            continue
        for c4 in rng.sample(c4s, min(12, len(c4s))):
            out = apply_switch(cover, c4)
            assert validate_cover(g, out) == out.num_components
            delta = out.num_components - cover.num_components
            assert delta == c4.kind.component_delta
            kinds[c4.kind.value] += 1
            checked += 1
    elapsed = time.monotonic() - t0
    assert all(kinds.values()), f"some switch kind untested: {kinds}"
    assert elapsed < 10
    _report(1, elapsed, 10, f"{checked} configurations, exact deltas, {kinds}")


# -- criterion 2: implanted-count oracle -------------------------------------


def test_criterion_02_implanted_count_oracle():
    t0 = time.monotonic()
    assert count_h_edges(complete_graph(4), ham_cover(4)) == 2
    assert count_h_edges(complete_graph(5), ham_cover(5)) == 5
    rng = random.Random(202)
    for trial in range(200):
        n = rng.randint(4, 12)
        g, cover = gen_planted(n, rng.random() * 0.85, rng.randrange(1 << 30))
        fast = count_h_edges(g, cover)
        brute = count_implanted_bruteforce(g, cover)
        assert fast == brute, (trial, n, fast, brute)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(2, elapsed, 30, "200 random pairs plus K4=2, K5=5, exact")


# -- criteria 3 + 4: complete-graph sweep with edge budget -------------------


@pytest.fixture(scope="module")
def complete_sweep():
    runs = []
    for n in range(6, 41):
        g = complete_graph(n)
        cover = ham_cover(n)
        for k in range(1, n // 3 + 1):
            res = solve(g, cover, k, Params(seed=n * 100 + k))
            runs.append((g, cover, k, res))
    return runs


def test_criterion_04_complete_graph_sweep(complete_sweep):
    t0 = time.monotonic()
    total = 0
    for g, cover, k, res in complete_sweep:
        assert res.cover is not None, (g.n, k)
        assert validate_cover(g, res.cover) == k
        total += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(4, elapsed, 120, f"{total} (n, k) pairs over K_6..K_40, 100% success")


def test_criterion_03_edge_budget(complete_sweep, planted_runs):
    t0 = time.monotonic()
    checked = 0
    for g, cover, k, res in complete_sweep:
        if res.stats.diagnostics:
            continue
        sym = len(res.cover.edge_set() ^ cover.edge_set())
        ell = cover.num_components
        assert sym <= 12 * (k - ell), (g.n, k, sym)
        checked += 1
    for g, cover, k, res, _ in planted_runs:
        if res.cover is None or res.stats.diagnostics:
            continue
        sym = len(res.cover.edge_set() ^ cover.edge_set())
        assert sym <= 12 * (k - cover.num_components)
        checked += 1
    elapsed = time.monotonic() - t0
    _report(3, elapsed, 120, f"|E out ^ E in| <= 12(k-l) on {checked} split runs, exact")


# -- criterion 5: planted dense instances ------------------------------------


@pytest.fixture(scope="module")
def planted_runs():
    runs = []
    for n in (200, 500, 1000):
        p = n ** -0.3
        for k in sorted({2, 8, int(n ** 0.4)}):
            for seed in range(10):
                g, cover = gen_planted(n, p, seed * 7919 + n)
                t0 = time.monotonic()
                res = solve(g, cover, k, Params(seed=seed))
                wall = time.monotonic() - t0
                runs.append((g, cover, k, res, wall))
    return runs


def test_criterion_05_planted_dense(planted_runs):
    t0 = time.monotonic()
    by_combo = {}
    worst = 0.0
    for g, cover, k, res, wall in planted_runs:
        worst = max(worst, wall)
        assert wall < 60, f"instance n={g.n} k={k} took {wall:.1f}s"
        ok = res.cover is not None
        if ok:
            assert validate_cover(g, res.cover) == k
        by_combo.setdefault((g.n, k), []).append(ok)
    for combo, oks in by_combo.items():
        rate = sum(oks) / len(oks)
        assert rate >= 0.9, (combo, rate)
    elapsed = time.monotonic() - t0
    total = sum(len(v) for v in by_combo.values())
    rate = sum(sum(v) for v in by_combo.values()) / total
    _report(5, elapsed, 60, f"{total} instances, success rate {rate:.0%}, max wall {worst:.1f}s < 60s")


# -- criterion 6: small-n soundness vs oracle --------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    corpus = []
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(6, 12)
        g, cover = gen_planted(n, rng.uniform(0.1, 0.8), rng.randrange(1 << 30))
        corpus.append((g, cover))
    return corpus


def test_criterion_06_small_n_soundness(small_corpus):
    t0 = time.monotonic()
    solved = 0
    for idx, (g, cover) in enumerate(small_corpus):
        counts = oracle_component_counts(g)
        assert 1 in counts  # the planted Hamilton cycle is a 1-component 2-factor
        for k in range(1, g.n // 3 + 1):
            res = solve(g, cover, k, Params(seed=idx, enrich_rounds=4, thomassen_degree_floor=1))
            if res.cover is not None:
                assert k in counts, f"solve produced a {k}-factor the oracle rules out"
                assert validate_cover(g, res.cover) == k
                solved += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(6, elapsed, 300, f"200 graphs, {solved} solves, zero unsound successes")


# -- criterion 7: Thomassen contract ------------------------------------------


def test_criterion_07_thomassen_contract():
    t0 = time.monotonic()
    rng = random.Random(707)
    verified = 0
    attempts = 0
    while verified < 100:
        attempts += 1
        assert attempts < 4000, "could not assemble 100 verified instances"
        n = rng.randint(8, 14)
        g, cover = gen_planted(n, rng.uniform(0.45, 0.85), rng.randrange(1 << 30))
        cov_edges = sorted(cover.edge_set())
        protected = frozenset(rng.sample(cov_edges, rng.randint(0, 2)))
        blocked = {v for e in protected for v in e}
        if len(blocked) >= n:
            continue
        req = RewireRequest(g, cover, protected)
        s = sample_switch_set(req, rng)
        if s is None:
            continue
        assert check_independent_dominating(g, cover, s)
        res = second_hamilton_cycle(req, random.Random(verified), DESK)
        assert res is not None, "guaranteed second cycle not found"
        out = res.cycle
        assert validate_cover(g, out) == 1
        assert out.edge_set() != cover.edge_set()
        assert protected <= out.edge_set()
        assert res.absorbed and all(
            g.has_edge(*e) and e not in cover.edge_set() for e in res.absorbed
        )
        changed = out.edge_set() ^ cover.edge_set()
        assert all(u in res.switch_set or v in res.switch_set for u, v in changed)
        verified += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(7, elapsed, 120, f"100/100 verified instances rewired, all four postconditions")


# -- criterion 8: pattern finders ---------------------------------------------


def test_criterion_08_pattern_finders():
    t0 = time.monotonic()
    rng = random.Random(808)
    for trial in range(1000):
        size = rng.randint(0, 50)
        pairs = [(rng.randrange(60), rng.randrange(60)) for _ in range(size)]
        fast_i = find_increasing_triple(pairs)
        assert (fast_i is None) == (brute_increasing_triple(pairs) is None)
        if fast_i:
            (a, b, c) = (pairs[i] for i in fast_i)
            assert a[0] < b[0] < c[0] and a[1] < b[1] < c[1]
        fast_d = find_decreasing_triple(pairs)
        assert (fast_d is None) == (brute_decreasing_triple(pairs) is None)
        if fast_d:
            (a, b, c) = (pairs[i] for i in fast_d)
            assert a[0] < b[0] < c[0] and a[1] > b[1] > c[1]
        chords = []
        for _ in range(size // 2):
            x, y = rng.sample(range(50), 2)
            chords.append((min(x, y), max(x, y)))
        fast_p = find_interleaved_pair(chords)
        assert (fast_p is None) == (brute_interleaved_pair(chords) is None)
        if fast_p:
            h, j = chords[fast_p[0]]
            i, m = chords[fast_p[1]]
            assert h < i < j < m
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    _report(8, elapsed, 5, "1000 random inputs, all three finders match brute force")


# -- criterion 10: counterexample family behaviour ----------------------------


def test_criterion_10_family_behaviour():
    t0 = time.monotonic()
    g, cover = gen_triangles_biclique(3, 4, 1)
    assert g.n == 14 and cover.num_components == 3
    with pytest.raises(ValueError):
        solve(g, cover, 2)
    counts = oracle_component_counts(g)
    assert all(c >= 3 for c in counts) and 3 in counts
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(10, elapsed, 120, f"k'=2 rejected at precondition; oracle counts {sorted(counts)} all >= 3")


# -- criterion 11: determinism -------------------------------------------------


def test_criterion_11_determinism(small_corpus):
    t0 = time.monotonic()
    cases = [
        (complete_graph(12), ham_cover(12), 4, Params(seed=3)),
        (complete_graph(33), ham_cover(33), 11, Params(seed=4)),
    ]
    for n, k, seed in ((200, 8, 5), (500, 2, 6)):
        g, cover = gen_planted(n, n ** -0.3, seed)
        cases.append((g, cover, k, Params(seed=seed)))
    for g, cover in small_corpus[:3]:
        cases.append((g, cover, 1, Params(seed=9, enrich_rounds=4, thomassen_degree_floor=1)))
    for g, cover, k, params in cases:
        runs = []
        for _ in range(2):
            res = solve(g, cover, k, params, random.Random(params.seed))
            out_bytes = dump_cover(res.cover).encode() if res.cover else b"<none>"
            runs.append((out_bytes, res.stats.to_json(drop_timing=True).encode()))
        assert runs[0] == runs[1], "rerun with fixed seed differed"
    elapsed = time.monotonic() - t0
    _report(11, elapsed, 300, f"{len(cases)} instances re-solved byte-identically (covers and stats)")
