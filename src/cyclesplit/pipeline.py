"""End-to-end pipeline: merge the cover into one cycle, walk, undo, split.

Merging removes one edge from each of two cycles and bridges their loose
ends in parallel, which is exactly the inverse of a parallel C4-switch; the
bridges may fall outside the host graph, so the walk runs on the augmented
graph and the bridges stay protected until they are removed again.  The walk
takes Hamilton cycles of the augmented graph one at a time and splits each,
once unmerged, until a split reaches k.  Merge and unmerge are each one batch
of switches through the splice ``switching._toggle``, the only way the
pipeline changes a cover.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Optional

from .graphs import CoverError, CycleCover, Graph, Params, edge_key, validate_cover
from .rewire import (
    REWIRE_NODE_BUDGET,
    RewireError,
    RewireRequest,
    _hamilton_cycles,
    second_hamilton_cycle,
)
from .switching import SplitOutcome, _make_c4, _split_validated, _toggle, count_h_edges

# rounds in a row that land no cycle or do not beat the best split, after
# which the walk stops
WALK_PATIENCE = 1
# up to this many vertices the walk enumerates Hamilton cycles instead of
# calling the rewire
EXHAUSTIVE_CUTOFF = 14

@dataclass(frozen=True)
class MergeRecord:
    """Bookkeeping for undoing a merge.

    Per merge, ``e_minus`` holds the removed edges ``zw, xy`` and ``e_plus``
    the bridges ``zx, wy``.  Unmerge removes every bridge in ``e_plus`` from
    the cycle; a bridge that happened to exist in the host graph already
    stays in the graph.
    """

    e_minus: tuple[tuple[int, int], ...]
    e_plus: tuple[tuple[int, int], ...]
    ell: int


def _merge_positions(g: Graph, cycle: tuple[int, ...]) -> list[int]:
    """Positions of the two cycle edges whose endpoints have the largest
    degree sums, best first, the smallest edge key first among ties."""
    scored = [
        (-(g.degree(u) + g.degree(v)), edge_key(u, v), pos)
        for pos, (u, v) in enumerate(zip(cycle, cycle[1:] + cycle[:1]))
    ]
    return [pos for _, _, pos in sorted(scored)[:2]]


def merge_cover(g: Graph, cover: CycleCover) -> tuple[Graph, CycleCover, MergeRecord]:
    """Chain all cycles into one Hamilton cycle of the bridge-augmented graph.

    Cycle i is joined to cycle i + 1 by the aligned cross-cycle switch on
    its outgoing edge z -> w and the next cycle's incoming edge x -> y
    (bridges zx and wy), and all ell - 1 switches go through the splice
    ``_toggle`` as one batch.  A cycle's incoming edge is its best by degree
    sum and its outgoing edge the best other one, so each cycle is scored
    once.  A single-cycle cover passes through untouched.
    """
    validate_cover(g, cover)
    ell = cover.num_components
    if ell == 1:
        return g, cover, MergeRecord((), (), 1)
    switches, e_minus, e_plus = [], [], []
    best = [_merge_positions(g, cyc) for cyc in cover.cycles]
    for i in range(ell - 1):
        # cycle 0 has no incoming edge, so it gives up its best one
        outgoing = best[i][1 if i else 0]
        incoming = best[i + 1][0]
        switches.append(_make_c4(cover, (i, outgoing), (i + 1, incoming), aligned=True))
        z, w = cover.cycle_edge(i, outgoing)
        x, y = cover.cycle_edge(i + 1, incoming)
        e_minus.extend([edge_key(z, w), edge_key(x, y)])
        e_plus.extend([edge_key(z, x), edge_key(w, y)])
    merged = _toggle(cover, switches)
    if merged is None or merged.num_components != 1:
        raise AssertionError("merge did not produce a Hamilton cycle")
    rec = MergeRecord(tuple(e_minus), tuple(e_plus), ell)
    return g.with_extra_edges(e_plus), merged, rec


def protected_for_merge(cycle: CycleCover, rec: MergeRecord) -> frozenset:
    """All cycle edges at an endpoint of a removed merge edge (size <= 8(l-1))."""
    out = set()
    for v in chain.from_iterable(rec.e_minus):
        a, b = cycle.cycle_neighbors(v)
        out.add(edge_key(v, a))
        out.add(edge_key(v, b))
    return frozenset(out)


def unmerge(cycle: CycleCover, rec: MergeRecord) -> CycleCover:
    """Swap the bridges back out; valid whenever they were all protected.

    Each merge's bridges and removed edges bound a 4-cycle, so undoing it is
    the switch on its bridges whose chords are its removed edges; the splice
    ``_toggle`` applies all of them as one batch.  A missing bridge, a pair
    off its 4-cycle or a removed edge already on the cycle is a CoverError.
    """
    at = []  # (cycle, position) of each bridge
    for e in rec.e_plus:
        u, v = e
        ci, pos = cycle.locator[u]
        cyc = cycle.cycles[ci]
        if cyc[(pos + 1) % len(cyc)] == v:
            at.append((ci, pos))
        elif cyc[pos - 1] == v:
            at.append((ci, (pos - 1) % len(cyc)))
        else:
            raise CoverError(f"bridge edge {e} missing from the cycle")
    switches = []
    for j in range(0, len(at), 2):
        for aligned in (True, False):
            c4 = _make_c4(cycle, at[j], at[j + 1], aligned)
            if set(c4.chords) == set(rec.e_minus[j : j + 2]):
                switches.append(c4)
                break
        else:
            raise CoverError(
                f"bridges {rec.e_plus[j:j + 2]} and removed edges "
                f"{rec.e_minus[j:j + 2]} do not bound a 4-cycle"
            )
    out = _toggle(cycle, switches)
    if out is None:
        raise CoverError("the merge's removed edges do not fit back into the cycle")
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
    # rewire calls of the walk that did not raise
    thomassen_calls: int = 0
    merge_bridges: int = 0
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


def _merge_walk_unmerge(
    g: Graph,
    cover: CycleCover,
    k: int,
    params: Params,
    rng: random.Random,
    stats: RunStats,
    best: Optional[SplitOutcome],
) -> SplitOutcome:
    """Walk Hamilton cycles of the augmented graph until one splits to k.

    ``best`` is the direct split's failed outcome, None in strict mode.  Each
    round takes a new Hamilton cycle that keeps the protected edges, undoes
    the merge on it and splits the restored cover.  Up to
    ``EXHAUSTIVE_CUTOFF`` vertices the cycles come from one enumerator, in
    its order, so none repeats and nothing is drawn; above it, each is a
    rewire of the current cycle with every augmented edge desirable.  The
    walk stops on a success, after ``params.enrich_rounds`` rounds, or after
    ``WALK_PATIENCE`` rounds in a row that land no cycle or do not beat the
    best ``stopped_at``.  It takes no round when the merged cycle already
    hosts ``params.h_edge_target`` implanted C4's; the walk record keeps
    that count as ``h_edges``.  Returns the success, else the best failed
    split; in strict mode a walk that split nothing splits the input cover.
    """
    stats.used_enrichment = True
    augmented, merged, rec = merge_cover(g, cover)
    stats.merge_bridges = len(rec.e_plus)
    protected = protected_for_merge(merged, rec)
    h = count_h_edges(augmented, merged)
    record = {"stage": "walk", "reason": "target met", "rounds": 0, "landed": 0, "h_edges": h}
    best_at = best.diagnostics["stopped_at"] if best else None
    if h < params.h_edge_target:
        tiny = g.n <= EXHAUSTIVE_CUTOFF
        if tiny:
            cycles = _hamilton_cycles(g.n, augmented._bits, protected, REWIRE_NODE_BUDGET)
            cycles = (c for c in cycles if c != merged)
        cycle = merged
        stale = 0  # rounds in a row without a better split
        try:
            while record["rounds"] < params.enrich_rounds and stale < WALK_PATIENCE:
                record["rounds"] += 1
                stale += 1
                if tiny:
                    found = next(cycles, None)
                else:
                    req = RewireRequest(augmented, cycle, protected)
                    res = second_hamilton_cycle(req, rng, params)
                    stats.thomassen_calls += 1
                    found = res and res.cycle
                if found is None:
                    record["reason"] = "no cycle"
                    continue
                record["landed"] += 1
                cycle = found
                restored = unmerge(cycle, rec)
                validate_cover(g, restored)
                out = _split_validated(g, restored, k)
                record["reason"] = "no gain"
                # a success stops at k, past every failure
                if best_at is None or out.diagnostics["stopped_at"] > best_at:
                    best, best_at, stale = out, out.diagnostics["stopped_at"], 0
                    stats.ell_presplit = restored.num_components
                if out.cover is not None:
                    record["reason"] = "success"
                    break
            else:
                if stale < WALK_PATIENCE:
                    record["reason"] = "rounds"
        except (RewireError, CoverError) as exc:
            record["reason"] = "error"
            record["detail"] = str(exc)
    record["best_stopped_at"] = best_at
    stats.diagnostics.append(record)
    if best is None:
        stats.ell_presplit = cover.num_components
        best = _split_validated(g, cover, k)
    return best


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
    one Hamilton cycle of the augmented graph and walk to other Hamilton
    cycles that keep the edges around the bridges, undoing the merge on each
    and splitting again (``_merge_walk_unmerge``).  The strict flag skips
    the opportunistic first step.  Every cover the split gets was validated
    just before (the input here, each restored cover in the walk), so the
    split does not check it again.
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
        outcome = _split_validated(g, cover, k)
        if outcome.cover is None:
            stats.diagnostics.append({"opportunistic_split": outcome.diagnostics})
    if outcome is None or outcome.cover is None:
        outcome = _merge_walk_unmerge(g, cover, k, params, rng, stats, outcome)
        if outcome.cover is None:
            stats.diagnostics.append({"final_split": outcome.diagnostics})
    if outcome.cover is not None:
        _log_plans(stats, outcome.plans)
        stats.success = True
    stats.wall_time = time.perf_counter() - t0
    return SolveResult(outcome.cover, stats)
