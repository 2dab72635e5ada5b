"""The paper's two results as a completeness gate at n <= 60.

Both families are solved with default ``Params(seed=s)`` for seeds 0..4 and
k in {2, 3, 4, 8, n/10, n/4}:

- the first result's host, ``gen_implant_free(n, s)``: a Hamilton cycle
  hosting no implanted C4 plus dense chords, so only the walk's rewire
  lets the split start;
- the second result's host, the disjoint union of ``gen_implant_free(n/2,
  s)`` and ``gen_implant_free(n/2, s + 100)`` with its 2-cycle cover: no
  Hamilton cycle, so the walk runs on the merged cycle of the augmented
  graph.

Feasibility is not known (the oracle stops at n = 14), so each cell pins
its solved count, and every success must validate with exactly k cycles.
A change that moves a count says so in CHANGES.md.
"""

import pytest

from cyclesplit.graphs import CycleCover, Graph, Params, validate_cover
from cyclesplit.instances import gen_implant_free
from cyclesplit.pipeline import solve

SEEDS = range(5)

# solved seeds of 5, by k
SOLVED = {
    ("implant_free", 30): {2: 5, 3: 5, 4: 5, 7: 3, 8: 2},
    ("implant_free", 60): {2: 5, 3: 5, 4: 5, 6: 5, 8: 5, 15: 5},
    ("union", 30): {2: 5, 3: 5, 4: 5, 7: 1, 8: 0},
    ("union", 60): {2: 5, 3: 5, 4: 5, 6: 5, 8: 3, 15: 0},
}


def implant_free_union(n: int, seed: int) -> tuple[Graph, CycleCover]:
    h = n // 2
    a, _ = gen_implant_free(h, seed)
    b, _ = gen_implant_free(h, seed + 100)
    g = Graph(n, a.edges() + [(u + h, v + h) for u, v in b.edges()])
    return g, CycleCover([list(range(h)), list(range(h, n))])


@pytest.mark.parametrize("family, n", list(SOLVED), ids=[f"{f}-{n}" for f, n in SOLVED])
def test_solved_counts(family, n):
    make = gen_implant_free if family == "implant_free" else implant_free_union
    solved = {}
    for k in sorted({2, 3, 4, 8, n // 10, n // 4}):
        solved[k] = 0
        for s in SEEDS:
            g, cover = make(n, s)
            res = solve(g, cover, k, Params(seed=s))
            if res.cover is not None:
                assert validate_cover(g, res.cover) == k, (family, n, k, s)
                solved[k] += 1
    assert solved == SOLVED[family, n]
