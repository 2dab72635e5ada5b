"""Golden outputs: fixed-seed solves pinned by digest.

Each solve pins two digests: ``cover``, the sha256 of its cover dump
(``"None"`` on an honest failure), and ``stats``, the sha256 of its stats
JSON without timing, so a change shows which of the two it alters.  A change
that keeps the outputs byte-identical keeps every digest.  A change that alters an output on
purpose says why and rewrites ``golden_digests.json`` with
``PYTHONPATH=src python tests/test_golden.py``.

The corpus reaches split cases 1-4, honest failures, strict walks with
rewire calls and walks over the enumerated Hamilton cycles of small graphs,
merged covers with protected edges among them;
``test_corpus_reaches_every_path`` keeps it that way.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from cyclesplit import rewire
from cyclesplit.graphs import Params, dump_cover
from cyclesplit.instances import gen_planted, gen_triangles_biclique
from cyclesplit.pipeline import solve

from conftest import planted_cover

GOLDEN = Path(__file__).with_name("golden_digests.json")


def corpus():
    """Yield ``(name, graph, cover, k, params, strict)`` for every pinned solve."""
    # sparse planted: cases 1-3 everywhere, case 4 at seed 3, honest failures
    for s in range(4):
        g, cover = gen_planted(100, 0.2, s)
        for k in (8, 20, 33):
            yield f"planted-s{s}-k{k}", g, cover, k, Params(seed=s), False
    # strict walks with the desk rewire floor: every round calls rewire
    for s in range(10):
        g, cover = planted_cover(60, 0.15, s, ell=4)
        params = Params(seed=s, thomassen_degree_floor=1, h_edge_target=2000)
        yield f"enrich-strict-s{s}", g, cover, 6, params, True
    # criterion-6 graphs: n <= 12 walks the enumerated Hamilton cycles
    rng = random.Random(606)
    for idx in range(20):
        n = rng.randint(6, 12)
        g, cover = gen_planted(n, rng.uniform(0.1, 0.8), rng.randrange(1 << 30))
        params = Params(seed=idx, enrich_rounds=4, thomassen_degree_floor=1)
        for k in range(1, n // 3 + 1):
            yield f"small-{idx}-k{k}", g, cover, k, params, False
    # covers of 2-4 cycles at n 9-14: the walk enumerates the Hamilton cycles
    # of the merged host that keep the protected edges around its bridges,
    # with 0, 1 or 2 of them at vertex 0
    merged = (
        (9, 2, 3, False), (10, 2, 3, True), (12, 3, 4, False), (12, 2, 4, True),
        (13, 2, 4, False), (13, 3, 4, False), (13, 3, 4, True), (14, 4, 4, True),
    )
    for n, ell, k, strict in merged:
        g, cover = planted_cover(n, 0.5, n + 10 * ell, ell)
        params = Params(seed=n + 10 * ell, enrich_rounds=4, thomassen_degree_floor=1, h_edge_target=2000)
        yield f"small-merged-n{n}-l{ell}-k{k}{'-strict' * strict}", g, cover, k, params, strict
    # the counterexample's 3-cycle cover (n = 14): only a strict solve walks
    for s in range(2):
        g, cover = gen_triangles_biclique(3, 4, s)
        params = Params(seed=s, enrich_rounds=4, thomassen_degree_floor=1, h_edge_target=2000)
        yield f"small-biclique-s{s}-k4-strict", g, cover, 4, params, True


def _digest(res) -> dict:
    cover = "None" if res.cover is None else dump_cover(res.cover)
    stats = res.stats.to_json(drop_timing=True)
    return {
        "cover": hashlib.sha256(cover.encode()).hexdigest(),
        "stats": hashlib.sha256(stats.encode()).hexdigest(),
    }


def run_corpus():
    """Digests by solve name, the solve results, and per solve name the
    number of cycles its rewire calls relinked."""
    relinked = {}
    package = rewire._package

    def recording_package(req, new_cycle, switch_set):
        relinked[name] += 1
        return package(req, new_cycle, switch_set)

    digests, results = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewire, "_package", recording_package)
        for name, g, cover, k, params, strict in corpus():
            relinked[name] = 0
            res = solve(g, cover, k, params, random.Random(params.seed), strict)
            digests[name] = _digest(res)
            results[name] = res
    return digests, results, relinked


@pytest.fixture(scope="module")
def golden_run():
    return run_corpus()


def test_digests_match(golden_run):
    digests, _, _ = golden_run
    expected = json.loads(GOLDEN.read_text())
    assert list(digests) == list(expected)
    changed = [
        (name, part)
        for name, want in expected.items()
        for part in ("cover", "stats")
        if digests[name][part] != want[part]
    ]
    assert not changed, f"outputs changed for {changed}"


def test_corpus_reaches_every_path(golden_run):
    _, results, relinked = golden_run
    cases = {e["case"] for r in results.values() for e in r.stats.switch_log}
    assert cases == {1, 2, 3, 4}
    assert any(r.cover is None for r in results.values())
    strict = [name for name in results if name.startswith("enrich-strict")]
    assert all(results[name].stats.rewire_calls > 0 for name in strict)
    # every strict walk lands a relinked cycle; its small-n rounds
    # enumerate, calling no rewire
    assert all(relinked[name] > 0 for name in strict)
    small = [r for name, r in results.items() if name.startswith("small-")]
    walks = [(r, d) for r in small for d in r.stats.diagnostics if d.get("stage") == "walk"]
    assert any(w["landed"] for _, w in walks)
    # some enumerated walk keeps protected edges around merge bridges and
    # still lands a cycle
    assert any(r.stats.ell_initial > 1 and w["landed"] for r, w in walks)
    assert all(r.stats.rewire_calls == 0 for r in small)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_corpus()[0], indent=1) + "\n")
