"""Instance generators and exhaustive small-n oracles.

The planted model supplies the solver's hypothesis (a known 2-factor) by
construction.  Its random stream is a contract that the acceptance seeds,
the golden digests and the CI pins rest on: ``Random(seed).shuffle`` gives
the Hamilton cycle, then one ``random()`` per non-cycle pair (u, v), u < v,
in lexicographic order decides that edge.  The generator reads those draws
in bulk, one ``getrandbits`` call of two words per draw for each row, and
finishes each row as it reaches it: the neighbours below u came from
earlier rows, and those above u, with that half of the bitset, from the
row's draws.  On a shared 2-CPU host (Python 3.11) a graph takes about
0.45 s at n = 4000, p = 20/n, and 8.4 s in 122 MB peak RSS at n = 16000,
p = n^-0.3 (7.0 million edges), where rows of int tuples and a
power-of-two table took 27 s and 510 MB.  The implant-free model builds
its graph from rows too, with a Hamilton cycle that hosts no implanted C4,
so only the fallback walk can start a split.  The two counterexample
families are the ones with explicit recipes: disjoint triangles feeding a
complete bipartite block (no 2-factor has fewer cycles), and two cliques
joined by a matching of size two.

The oracle enumerates 2-regular spanning subgraphs exactly, so it is capped
at 14 vertices.  It finds every cycle mask with word-parallel path
integers (one per vertex, a bit per vertex mask) and then runs a forward DP
over the covered sets reachable by adding cycles in order of their lowest
vertex.  At n = 14 (Python 3.11, one core of a Xeon server) the cycle masks
take about 1 ms and a whole call 0.006 s at p = 0.2, 0.05 s at p = 0.5 and
0.14 s at p = 0.8 or on K14; the textbook subset DPs it replaced took 0.3 to
0.6 s on the same graphs.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass, field
from itertools import compress

from .graphs import CycleCover, Graph, _iter_bits, _row, _row_bits, edge_key

ORACLE_CAP = 14  # a call takes at most about 0.15 s here (K14)
BRUTE_CAP = 12


@dataclass(frozen=True)
class InstanceSpec:
    model: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return (
            json.dumps(
                {
                    "model": self.model,
                    "n": self.n,
                    "seed": self.seed,
                    "params": self.params,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )


def gen_planted(n: int, p: float, seed: int) -> tuple[Graph, CycleCover]:
    """Hamilton cycle on a random permutation plus iid extra edges.

    The stream: ``Random(seed).shuffle`` of ``0..n-1`` gives the cycle, then
    one ``random() < p`` per non-cycle pair (u, v), u < v, in lexicographic
    order decides that edge.  Each row's draws are read in bulk (see
    ``_row_hits``), so the graph is the one the per-pair loop gives.
    """
    if n < 3:
        raise ValueError("planted instances need n >= 3")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    above = [[] for _ in range(n)]  # above[u]: u's cycle neighbours v > u
    for i in range(n):
        u, v = edge_key(perm[i - 1], perm[i])
        above[u].append(v)
    threshold = math.ceil(p * 2.0**53)
    top = threshold >> 45
    table = bytes(1 if t < top else 2 if t == top else 0 for t in range(256))
    rows = [_row() for _ in range(n)]  # rows[v]: v's neighbours found so far
    bits = []
    for u in range(n):
        mask = _row_hits(rng, u, n, sorted(above[u]), threshold, table)
        forward = list(compress(range(u + 1, n), mask))
        for v in forward:
            rows[v].append(u)
        # row u's neighbours below u all came before it, ascending
        bits.append(_row_bits(rows[u], u + 1, mask))
        rows[u] = rows[u] + _row(forward)
    return Graph._from_rows(n, tuple(rows), tuple(bits)), CycleCover([perm])


def _row_hits(
    rng: random.Random, u: int, n: int, cycle: list[int], threshold: int, table: bytes
) -> bytearray:
    """Row u's neighbours above u as a mask: byte j is 1 exactly when u + 1 + j
    is a cycle neighbour or a pair whose draw hits.

    c draws of ``random()`` read 2c Mersenne Twister words, a then b, and
    return ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, so a draw is below p
    exactly when that 53-bit integer is below ``threshold = ceil(p * 2**53)``.
    ``getrandbits(64 * c)`` returns the same 2c words, least significant
    first, so byte 8j + 3 of its little-endian bytes is the top byte of draw
    j's a.  ``table`` maps that byte to 1 (hit), 0 (miss) or 2 when it equals
    ``threshold >> 45`` and the low bits decide; those draws, about 1 in 256,
    are settled from their two words.
    """
    count = n - 1 - u - len(cycle)
    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    mask = bytearray(raw[3::8].translate(table))
    j = mask.find(2)
    while j >= 0:
        a = int.from_bytes(raw[8 * j : 8 * j + 4], "little")
        b = int.from_bytes(raw[8 * j + 4 : 8 * j + 8], "little")
        mask[j] = ((a >> 5) << 26 | b >> 6) < threshold
        j = mask.find(2, j + 1)
    for v in cycle:  # ascending, so each lands at its offset in u+1..n-1
        mask.insert(v - u - 1, 1)
    return mask


def gen_implant_free(n: int, seed: int) -> tuple[Graph, CycleCover]:
    """The cycle 0..n-1 plus every chord that implants no C4 in it.

    The non-cycle pairs are visited in a seeded random order, and u-v is
    added unless one of the four pairs {u±1, v±1} is already a chord, so
    the returned Hamilton cycle hosts no implanted C4 while the minimum
    degree grows as about n^0.8.  The pair loop is O(n^2) Python.

    The shuffled pairs are one ``array('I')`` of ``u * n + v``, 4 bytes a
    pair where a list of tuples took about 100 (at n = 2000 the process
    peaks at 34 MB RSS, not 224 MB, on CPython 3.11); ``shuffle`` draws by
    length alone, so the order is that of the tuple list.  The 32-bit
    entries cap n at 65,535.
    """
    if n < 4:
        raise ValueError("implant-free instances need n >= 4")
    if n > 65_535:
        raise ValueError("implant-free instances need n <= 65535")
    rng = random.Random(seed)
    pairs = array("I", (u * n + v for u in range(n) for v in range(u + 2, n) if v - u != n - 1))
    rng.shuffle(pairs)
    chord = [0] * n  # chord[u] bit v: u-v is a chord
    for uv in pairs:
        u, v = divmod(uv, n)
        up, um = chord[(u + 1) % n], chord[u - 1]
        vp, vm = (v + 1) % n, v - 1
        if not ((up >> vp) & 1 or (up >> vm) & 1 or (um >> vp) & 1 or (um >> vm) & 1):
            chord[u] |= 1 << v
            chord[v] |= 1 << u
    bits = tuple(c | 1 << (u - 1) % n | 1 << (u + 1) % n for u, c in enumerate(chord))
    adj = tuple(_row(list(_iter_bits(b))) for b in bits)
    return Graph._from_rows(n, adj, bits), CycleCover([list(range(n))])


def gen_cliques_matching(q: int, seed: int, allow_even: bool = False) -> Graph:
    """Two disjoint cliques of order q joined by a matching of size two.

    The family has odd q = 2k+1; arbitrary q >= 4 is allowed behind a flag.
    The bridge endpoints are drawn from the seed; the clique labels are
    canonical (first clique 0..q-1).
    """
    if q < 4:
        raise ValueError("clique order must be at least 4")
    if q % 2 == 0 and not allow_even:
        raise ValueError("the family uses odd clique order 2k+1; pass allow_even to override")
    rng = random.Random(seed)
    edges = []
    for base in (0, q):
        for u in range(base, base + q):
            for v in range(u + 1, base + q):
                edges.append((u, v))
    a1, a2 = rng.sample(range(q), 2)
    b1, b2 = rng.sample(range(q, 2 * q), 2)
    edges.append(edge_key(a1, b1))
    edges.append(edge_key(a2, b2))
    return Graph(2 * q, edges)


def gen_cliques_hamilton(q: int, seed: int) -> tuple[Graph, CycleCover]:
    """``gen_cliques_matching(q, seed)`` with a Hamilton cycle as the cover.

    The cycle runs through the first clique, crosses one matching edge,
    runs through the second clique and returns over the other.
    """
    g = gen_cliques_matching(q, seed)
    (a1, b1), (a2, b2) = [
        (u, v) for u in range(q) for v in range(q, 2 * q) if g.has_edge(u, v)
    ]
    left = [a1] + [u for u in range(q) if u not in (a1, a2)] + [a2]
    right = [b2] + [v for v in range(q, 2 * q) if v not in (b1, b2)] + [b1]
    return g, CycleCover([left + right], g.n)


def gen_triangles_biclique(k: int, m: int, seed: int) -> tuple[Graph, CycleCover]:
    """k-1 disjoint triangles, a K_{m,m}, and all triangle-to-A edges.

    The returned cover (the triangles plus a Hamilton cycle of the bipartite
    block) has exactly k components; the graph has no 2-factor with fewer.
    Labels are shuffled by the seed.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if m < 3:
        raise ValueError("need m >= 3 for the bipartite block to have a Hamilton cycle")
    n = 3 * (k - 1) + 2 * m
    rng = random.Random(seed)
    relabel = list(range(n))
    rng.shuffle(relabel)
    tri_base = [(3 * t, 3 * t + 1, 3 * t + 2) for t in range(k - 1)]
    a_side = list(range(3 * (k - 1), 3 * (k - 1) + m))
    b_side = list(range(3 * (k - 1) + m, n))
    edges = set()
    for x, y, z in tri_base:
        edges.update({edge_key(x, y), edge_key(y, z), edge_key(x, z)})
    for a in a_side:
        for b in b_side:
            edges.add(edge_key(a, b))
    for t in tri_base:
        for v in t:
            for a in a_side:
                edges.add(edge_key(v, a))
    bip_cycle = []
    for i in range(m):
        bip_cycle.append(a_side[i])
        bip_cycle.append(b_side[i])
    cycles = [list(t) for t in tri_base] + [bip_cycle]
    edges = {edge_key(relabel[u], relabel[v]) for u, v in edges}
    cycles = [[relabel[v] for v in cyc] for cyc in cycles]
    return Graph(n, edges), CycleCover(cycles, n)


# -- exhaustive oracles ------------------------------------------------------


def _tile(word: int, period: int, width: int) -> int:
    """``word``, ``period`` bits wide, repeated to fill ``width`` bits."""
    while period < width:
        word |= word << period
        period <<= 1
    return word


def _cycle_masks(g: Graph) -> bytes:
    """cyc[mask] == 1 iff the vertices of mask carry a spanning cycle.

    ends[v] is an integer indexed by all 2^n masks: bit M is set iff a path
    from the lowest vertex of M through all of M ends at v.  A round
    extends, for each v in turn, all paths ending next to v at once: OR v's
    neighbours' integers, keep the masks without v whose lowest vertex lies
    below v, and shift by 2^v (adding v to M).  After at most n - 1 rounds
    every Hamiltonian path of every mask is there; a mask carries a cycle
    iff it has at least 3 vertices and a path ends next to its lowest
    vertex.
    """
    n = g.n
    width = 1 << n
    adj = [g.neighbor_bits(v) for v in range(n)]
    # keep[v]: masks without v whose lowest vertex is below v
    keep = [_tile((1 << (1 << v)) - 2, 2 << v, width) for v in range(n)]
    ends = [1 << (1 << v) for v in range(n)]
    for _ in range(n - 1):
        grown = False
        for v in range(n):
            into = 0
            for u in _iter_bits(adj[v]):
                into |= ends[u]
            new = ends[v] | ((into & keep[v]) << (1 << v))
            if new != ends[v]:
                ends[v] = new
                grown = True
        if not grown:
            break
    closed = 0
    for s in range(n):
        back = 0
        for v in _iter_bits(adj[s]):
            back |= ends[v]
        # masks whose lowest vertex is s
        closed |= back & _tile(1 << (1 << s), 2 << s, width)
    # a path over an edge {s, v} closes through the same edge: not a cycle
    for u, v in g.edges():
        closed &= ~(1 << ((1 << u) | (1 << v)))
    bits = format(closed, f"0{width}b")[::-1].encode()
    return bits.translate(bytes.maketrans(b"01", b"\x00\x01"))


def oracle_component_counts(g: Graph) -> frozenset[int]:
    """All component counts realized by 2-factors of g (exact, n <= 14).

    A 2-factor is a partition of the vertices into cycle masks; listing its
    cycles by lowest vertex, each one passes through the lowest vertex the
    earlier ones leave uncovered.  So the DP runs forward over the covered
    sets R reachable from the empty set, in increasing order, keeping for
    each R the bitmask of cycle counts that reach it.  From R it adds every
    cycle mask through the lowest uncovered vertex that does not meet R,
    enumerating whichever list is shorter: the cycle masks with that lowest
    vertex, or the subsets of the uncovered set through it.
    """
    if g.n > ORACLE_CAP:
        raise ValueError(f"exhaustive oracle capped at n <= {ORACLE_CAP}")
    n = g.n
    full = (1 << n) - 1
    cyc = _cycle_masks(g)
    by_low = [
        list(compress(range(1 << s, full + 1, 2 << s), cyc[1 << s :: 2 << s]))
        for s in range(n)
    ]
    reach = [0] * (full + 1)  # bit c set: R is covered by c cycles
    reach[0] = 1
    for covered in range(full):
        counts = reach[covered]
        if not counts:
            continue
        counts <<= 1
        free = full ^ covered
        low = free & -free
        rest = free ^ low
        masks = by_low[low.bit_length() - 1]
        if len(masks) < 1 << rest.bit_count():
            for piece in masks:
                if not piece & covered:
                    reach[covered | piece] |= counts
        else:
            sub = rest
            while True:
                piece = sub | low
                if cyc[piece]:
                    reach[covered | piece] |= counts
                if not sub:
                    break
                sub = (sub - 1) & rest
    final = reach[full]
    return frozenset(c for c in range(n + 1) if (final >> c) & 1)


def oracle_exists_k_factor(g: Graph, k: int) -> bool:
    """True iff g has a spanning 2-regular subgraph with exactly k cycles."""
    return k in oracle_component_counts(g)


def count_implanted_bruteforce(g: Graph, cover: CycleCover) -> int:
    """Exact implanted-C4 count by scanning ordered vertex quadruples."""
    if g.n > BRUTE_CAP:
        raise ValueError(f"brute-force count capped at n <= {BRUTE_CAP}")
    cov = cover.edge_set()
    n = g.n
    count = 0
    for a in range(n):
        for b in range(n):
            if b == a or edge_key(a, b) not in cov:
                continue
            for c in range(n):
                if c in (a, b) or not g.has_edge(b, c):
                    continue
                if edge_key(b, c) in cov:
                    continue
                for d in range(n):
                    if d in (a, b, c):
                        continue
                    if edge_key(c, d) not in cov:
                        continue
                    if not g.has_edge(d, a) or edge_key(d, a) in cov:
                        continue
                    count += 1
    # each C4 appears once per cover edge per direction
    assert count % 4 == 0
    return count // 4
