"""End-to-end pipeline: one loop of split rounds over a walk of Hamilton cycles.

Round 0 splits the input cover.  When that stalls, the cover is merged into
one cycle: merging removes one edge from each of two cycles and bridges
their loose ends in parallel, which is exactly the inverse of a parallel
C4-switch.  The bridges may fall outside the host graph, so the walk runs on
the augmented graph and the edges around the bridges stay protected.  Each
later round takes the walk's next Hamilton cycle, unmerges it and splits
the restored cover, until a split reaches k.  Merge and unmerge are each one
batch of switches through the splice ``switching._toggle``; a split step
splices too, except in case 1, where ``switching._cut`` cuts one cycle in
two.  The pipeline changes a cover in no other way.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Iterator, Optional

from .graphs import CoverError, CycleCover, Graph, Params, edge_key, validate_cover
from .rewire import (
    REWIRE_NODE_BUDGET,
    RewireError,
    RewireRequest,
    _hamilton_cycles,
    second_hamilton_cycle,
)
from .switching import _check_target, _make_c4, _split_validated, _toggle, count_h_edges

# rounds in a row that land no cycle or do not beat the best split, after
# which the walk stops
WALK_PATIENCE = 1
# up to this many vertices the walk enumerates Hamilton cycles instead of
# calling the rewire
EXHAUSTIVE_CUTOFF = 14

@dataclass(frozen=True)
class MergeRecord:
    """Bookkeeping for undoing a merge.

    Per merge switch, ``e_minus`` holds its two removed cover edges and
    ``e_plus`` its two chords, the bridges, each pair sorted; the input cover
    had ``len(e_plus) // 2 + 1`` cycles.  Unmerge removes every bridge in
    ``e_plus`` from the cycle; a bridge that happened to exist in the host
    graph already stays in the graph.
    """

    e_minus: tuple[tuple[int, int], ...]
    e_plus: tuple[tuple[int, int], ...]


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
        return g, cover, MergeRecord((), ())
    switches, e_minus, e_plus = [], [], []
    best = [_merge_positions(g, cyc) for cyc in cover.cycles]
    for i in range(ell - 1):
        # cycle 0 has no incoming edge, so it gives up its best one
        outgoing = best[i][1 if i else 0]
        incoming = best[i + 1][0]
        c4 = _make_c4(cover, (i, outgoing), (i + 1, incoming), aligned=True)
        switches.append(c4)
        e_minus.extend(c4.cover_edges(cover))
        e_plus.extend(c4.chords)
    merged = _toggle(cover, switches)
    if merged is None or merged.num_components != 1:
        raise AssertionError("merge did not produce a Hamilton cycle")
    rec = MergeRecord(tuple(e_minus), tuple(e_plus))
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
    if out.num_components > len(rec.e_plus) // 2 + 1:
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
    switch_log: list = field(default_factory=list)
    # rewire calls of the walk that did not raise
    rewire_calls: int = 0
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
                "delta": 1,
                "sym_diff": 4 * len(plan.switches),
            }
        )


def _walk_cycles(
    augmented: Graph,
    merged: CycleCover,
    protected: frozenset,
    params: Params,
    rng: random.Random,
    stats: RunStats,
) -> Iterator[Optional[CycleCover]]:
    """The walk's Hamilton cycles of ``augmented`` after ``merged``, one a round.

    Each keeps the ``protected`` edges.  Up to ``EXHAUSTIVE_CUTOFF`` vertices
    they come from one enumerator, in its order, so none repeats and nothing
    is drawn, until it runs dry.  Above it each is a rewire of the last
    cycle landed, with every augmented edge desirable, and a rewire that
    finds none gives None.
    """
    if augmented.n <= EXHAUSTIVE_CUTOFF:
        cycles = _hamilton_cycles(augmented.n, augmented._bits, protected, REWIRE_NODE_BUDGET)
        yield from (c for c in cycles if c != merged)
        return
    cycle = merged
    while True:
        res = second_hamilton_cycle(RewireRequest(augmented, cycle, protected), rng, params)
        stats.rewire_calls += 1
        if res is not None:
            cycle = res.cycle
        yield res and res.cycle


def solve(
    g: Graph,
    cover: CycleCover,
    k: int,
    params: Optional[Params] = None,
    rng: Optional[random.Random] = None,
    strict: bool = False,
) -> SolveResult:
    """Transform a <=k-cycle 2-factor into one with exactly k cycles.

    One loop over rounds, each of which splits one cover and keeps the split
    that got furthest.  Round 0 splits the input cover.  When it stalls, or
    in strict mode, the cover is merged into one Hamilton cycle of the
    augmented graph, and each later round takes the walk's next Hamilton
    cycle (``_walk_cycles``), unmerges it and splits the restored cover.
    Every cover a round splits was validated just before (the input on
    entry, each restored cover after its unmerge), so the split does not
    check it again.

    The walk takes no round when the merged cycle already hosts
    ``params.h_edge_target`` implanted C4's.  It stops on a success, after
    ``params.enrich_rounds`` rounds, after ``WALK_PATIENCE`` rounds in a row
    that land no cycle or do not beat the best ``stopped_at``, or on a
    rewire or unmerge error.  Strict mode defers round 0 and runs it only
    when no walk round landed a cycle.  A solve that walks writes one
    diagnostics record, ``{"stage": "walk", "reason", "rounds", "landed",
    "h_edges", "best_stopped_at", "budget_exhausted"}`` (and ``detail`` on
    an error), whose last two are those of the split it returns.
    Honest failure returns ``cover=None``; the input is never modified.
    """
    params = params or Params()
    rng = rng or random.Random(params.seed)
    t0 = time.perf_counter()
    ell = validate_cover(g, cover)
    stats = RunStats(
        n=g.n,
        m=g.m,
        min_degree=g.min_degree(),
        ell_initial=ell,
        ell_presplit=ell,
        k_target=k,
        strict=strict,
        seed=params.seed,
    )
    _check_target(g.n, ell, k)

    best = None if strict else _split_validated(g, cover, k)
    if best is None or best.cover is None:
        augmented, merged, rec = merge_cover(g, cover)
        h = count_h_edges(augmented, merged)
        walk = {"stage": "walk", "reason": "target met", "rounds": 0, "landed": 0, "h_edges": h}
        protected = protected_for_merge(merged, rec)
        cycles = _walk_cycles(augmented, merged, protected, params, rng, stats)
        stale = 0  # rounds in a row without a better split
        try:
            while h < params.h_edge_target and stale < WALK_PATIENCE:
                if walk["rounds"] == params.enrich_rounds:
                    walk["reason"] = "rounds"
                    break
                walk["rounds"] += 1
                stale += 1
                cycle = next(cycles, None)
                if cycle is None:
                    walk["reason"] = "no cycle"
                    continue
                walk["landed"] += 1
                restored = unmerge(cycle, rec)
                validate_cover(g, restored)
                out = _split_validated(g, restored, k)
                # a success stops at k, past every failure
                if best is None or out.diagnostics["stopped_at"] > best.diagnostics["stopped_at"]:
                    best, stale = out, 0
                    stats.ell_presplit = restored.num_components
                if out.cover is not None:
                    walk["reason"] = "success"
                    break
                walk["reason"] = "no gain"
        except (RewireError, CoverError) as exc:
            walk["reason"] = "error"
            walk["detail"] = str(exc)
        if best is None:  # strict mode's deferred round 0
            best = _split_validated(g, cover, k)
        walk["best_stopped_at"] = best.diagnostics["stopped_at"]
        walk["budget_exhausted"] = best.diagnostics.get("budget_exhausted", False)
        stats.diagnostics.append(walk)
    if best.cover is not None:
        _log_plans(stats, best.plans)
        stats.success = True
    stats.wall_time = time.perf_counter() - t0
    return SolveResult(best.cover, stats)
