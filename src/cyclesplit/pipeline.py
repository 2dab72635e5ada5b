"""End-to-end pipeline: merge the cover into one cycle, enrich, undo, split.

Merging removes one edge from each of two cycles and bridges their loose
ends in parallel, which is exactly the inverse of a parallel C4-switch; the
bridges may fall outside the host graph, so the enrichment stage runs on the
augmented graph and the bridges stay protected until they are removed again.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from .embedding import PartitionError, enrich
from .graphs import CoverError, CycleCover, Graph, Params, edge_key, validate_cover
from .rewire import RewireError
from .switching import _split_validated, count_h_edges

@dataclass(frozen=True)
class MergeRecord:
    """Bookkeeping for undoing a merge.

    Unmerge removes every bridge in ``e_plus`` from the cycle; a bridge that
    happened to exist in the host graph already stays in the graph.
    """

    e_minus: tuple[tuple[int, int], ...]
    e_plus: tuple[tuple[int, int], ...]
    touched: frozenset[int]
    ell: int


def _pick_merge_edge(
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


def merge_cover(g: Graph, cover: CycleCover) -> tuple[Graph, CycleCover, MergeRecord]:
    """Chain all cycles into one Hamilton cycle of the bridge-augmented graph.

    For consecutive cycles the construction removes one edge from each and
    adds the two parallel bridges joining the loose ends; a single-cycle
    cover passes through untouched.
    """
    validate_cover(g, cover)
    ell = cover.num_components
    if ell == 1:
        rec = MergeRecord((), (), frozenset(), 1)
        return g, cover, rec
    e_minus = []
    e_plus = []
    touched = set()
    # per cycle: the edge removed when merging into the chain ("outgoing")
    # and the edge removed when the chain absorbs it ("incoming")
    incoming = [None] * ell
    outgoing = [None] * ell
    for i in range(ell - 1):
        outgoing[i] = _pick_merge_edge(g, cover.cycles[i], incoming[i])
        incoming[i + 1] = _pick_merge_edge(g, cover.cycles[i + 1], None)
    edges = set(cover.edge_set())
    for i in range(ell - 1):
        zw = outgoing[i]
        xy = incoming[i + 1]
        # orient each removed edge along its cycle before bridging
        z, w = _oriented(cover, zw)
        x, y = _oriented(cover, xy)
        bridge_a = edge_key(z, x)
        bridge_b = edge_key(w, y)
        e_minus.extend([edge_key(*zw), edge_key(*xy)])
        e_plus.extend([bridge_a, bridge_b])
        touched.update((z, w, x, y))
        edges.discard(edge_key(*zw))
        edges.discard(edge_key(*xy))
        edges.add(bridge_a)
        edges.add(bridge_b)
    augmented = g.with_extra_edges(e_plus)
    merged = CycleCover.from_edge_set(g.n, edges)
    if merged.num_components != 1:
        raise AssertionError("merge did not produce a Hamilton cycle")
    rec = MergeRecord(tuple(e_minus), tuple(e_plus), frozenset(touched), ell)
    return augmented, merged, rec


def _oriented(cover: CycleCover, e: tuple[int, int]) -> tuple[int, int]:
    u, v = e
    ci, pos = cover.locator[u]
    cyc = cover.cycles[ci]
    if cyc[(pos + 1) % len(cyc)] == v:
        return u, v
    return v, u


def protected_for_merge(cycle: CycleCover, rec: MergeRecord) -> frozenset:
    """All cycle edges incident to the merge-touched vertices (size <= 8(l-1))."""
    out = set()
    for v in rec.touched:
        a, b = cycle.cycle_neighbors(v)
        out.add(edge_key(v, a))
        out.add(edge_key(v, b))
    return frozenset(out)


def unmerge(cycle: CycleCover, rec: MergeRecord) -> CycleCover:
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
    if out.num_components > rec.ell:
        raise AssertionError("unmerge created more cycles than it started with")
    return out


@dataclass
class RunStats:
    """Machine-readable record of one solve run."""

    n: int = 0
    m: int = 0
    min_degree: int = 0
    ell_initial: int = 0
    ell_presplit: int = 0
    k_target: int = 0
    success: bool = False
    strict: bool = False
    used_enrichment: bool = False
    switch_log: list = field(default_factory=list)
    # implanted C4's of the input cover, counted only when the merge ->
    # enrich -> unmerge fallback runs (used_enrichment); None after a direct
    # split succeeds, since nothing on that path reads it
    h_edges_initial: Optional[int] = None
    h_edges_enriched: Optional[int] = None
    thomassen_calls: int = 0
    merge_bridges: int = 0
    ledger_summary: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    wall_time: float = 0.0
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, drop_timing: bool = False) -> str:
        d = self.to_dict()
        if drop_timing:
            del d["wall_time"]
        return json.dumps(d, sort_keys=True, indent=2) + "\n"


@dataclass
class SolveResult:
    cover: Optional[CycleCover]
    stats: RunStats


def _log_plans(stats: RunStats, plans) -> None:
    for plan in plans:
        stats.switch_log.append(
            {
                "case": plan.case,
                "kinds": [c.kind.value for c in plan.switches],
                "positions": [[c.edge_a, c.edge_b] for c in plan.switches],
                "delta": plan.predicted_delta,
                "sym_diff": plan.predicted_sym_diff,
            }
        )


def _merge_enrich_unmerge(
    g: Graph, cover: CycleCover, params: Params, rng: random.Random, stats: RunStats
) -> CycleCover:
    """The enriched cover to split next; the input cover if any stage fails."""
    stats.used_enrichment = True
    augmented, merged, rec = merge_cover(g, cover)
    stats.merge_bridges = len(rec.e_plus)
    protected = protected_for_merge(merged, rec)
    try:
        # a no-op merge passes the cover on, with the count solve has just taken
        h_edges = None if rec.e_plus else stats.h_edges_initial
        enriched = enrich(augmented, merged, protected, params, rng, h_edges)
        stats.h_edges_enriched = enriched.h_edges
        stats.thomassen_calls = enriched.thomassen_calls
        stats.ledger_summary = enriched.ledger_summary
        if enriched.diagnostics:
            stats.diagnostics.append({"enrich": enriched.diagnostics})
        restored = unmerge(enriched.cycle, rec)
        if rec.e_plus:
            # an unchanged cover keeps the count solve has just taken
            after = (
                stats.h_edges_initial if restored == cover else count_h_edges(g, restored)
            )
            if after < enriched.h_edges - 2 * (rec.ell - 1) * g.n:
                raise AssertionError("unmerge lost more H-edges than the merge bound")
        validate_cover(g, restored)
    except (RewireError, CoverError, PartitionError, ValueError) as exc:
        stats.diagnostics.append({"pipeline": str(exc)})
        return cover
    return restored


def solve(
    g: Graph,
    cover: CycleCover,
    k: int,
    params: Optional[Params] = None,
    rng: Optional[random.Random] = None,
    strict: bool = False,
) -> SolveResult:
    """Transform a <=k-cycle 2-factor into one with exactly k cycles.

    Strategy: try splitting directly; if that stalls, merge everything into
    one Hamilton cycle of the augmented graph, enrich it with implanted C4's
    while protecting the bridges, undo the merge, and split again.  The
    strict flag skips the opportunistic first step.  ``split_to_k`` draws no
    randomness, so when the restored cover equals the input the direct
    split's outcome is reused, not recomputed.  Every cover the split gets
    was validated just before (the input here, the restored cover in
    ``_merge_enrich_unmerge``), so the split does not check it again.
    Honest failure returns ``cover=None`` with diagnostics; the input is
    never modified.
    """
    params = params or Params()
    rng = rng or random.Random(params.seed)
    t0 = time.perf_counter()
    stats = RunStats(
        n=g.n,
        m=g.m,
        min_degree=g.min_degree(),
        k_target=k,
        strict=strict,
        seed=params.seed,
    )
    ell = validate_cover(g, cover)
    stats.ell_initial = ell
    if k < ell:
        raise ValueError(
            f"target k={k} below the {ell} cycles of the input cover; "
            "reducing the cycle count is out of scope"
        )
    if 3 * k > g.n:
        raise ValueError(f"k={k} infeasible for n={g.n}: need k <= n/3")

    outcome = None
    if not strict:
        stats.ell_presplit = ell
        outcome = _split_validated(g, cover, k, params)
        if outcome.cover is None:
            stats.diagnostics.append({"opportunistic_split": outcome.diagnostics})
    if outcome is None or outcome.cover is None:
        stats.h_edges_initial = count_h_edges(g, cover)
        restored = _merge_enrich_unmerge(g, cover, params, rng, stats)
        stats.ell_presplit = restored.num_components
        if outcome is None or restored != cover:
            outcome = _split_validated(g, restored, k, params)
        if outcome.cover is None:
            stats.diagnostics.append({"final_split": outcome.diagnostics})
    if outcome.cover is not None:
        _log_plans(stats, outcome.plans)
        stats.success = True
    stats.wall_time = time.perf_counter() - t0
    return SolveResult(outcome.cover, stats)
