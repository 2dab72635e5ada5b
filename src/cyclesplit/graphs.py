"""Immutable simple graphs, cycle covers (2-factors), and tuning knobs.

Vertices are dense integers ``0..n-1`` so cycle positions can be used for
modular arithmetic.  Adjacency is kept both as sorted tuples (public) and as
integer bitsets (fast intersections / membership in the hot loops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union, get_args, get_type_hints


class GraphFormatError(ValueError):
    """Raised on malformed graph/cover files (carries the offending line)."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CoverError(ValueError):
    """Raised when a claimed cycle cover is not a valid 2-factor."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an edge to an ordered pair ``(min, max)``."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "_edges", "_adj", "_bits", "_m", "_min_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        self.n = n
        self._m = m
        self._adj = tuple(tuple(sorted(s)) for s in adj)
        self._min_degree = min(map(len, adj), default=0)
        bits = []
        for s in adj:
            b = 0
            for v in s:
                b |= 1 << v
            bits.append(b)
        self._bits = tuple(bits)
        self._edges = None  # built lazily

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def adjacency(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def neighbor_bits(self, v: int) -> int:
        return self._bits[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def min_degree(self) -> int:
        return self._min_degree

    def has_edge(self, u: int, v: int) -> bool:
        return (self._bits[u] >> v) & 1 == 1

    def edge_set(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset(
                (u, v) for u in range(self.n) for v in self._adj[u] if u < v
            )
        return self._edges

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``, lexicographic."""
        return sorted(self.edge_set())

    def with_extra_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with ``extra`` edges added (duplicates ignored).

        Only the rows of vertices that gain a neighbour are rebuilt; a loop
        or an out-of-range vertex raises the constructor's error.
        """
        n = self.n
        m = self._m
        bits = list(self._bits)
        gained: dict[int, list[int]] = {}
        for u, v in extra:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if not (bits[u] >> v) & 1:
                bits[u] |= 1 << v
                bits[v] |= 1 << u
                gained.setdefault(u, []).append(v)
                gained.setdefault(v, []).append(u)
                m += 1
        adj = list(self._adj)
        for v, new in gained.items():
            adj[v] = tuple(sorted(adj[v] + tuple(new)))
        out = Graph.__new__(Graph)
        out.n = n
        out._m = m
        out._adj = tuple(adj)
        out._bits = tuple(bits)
        out._min_degree = min(map(len, adj), default=0)
        out._edges = None
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edge_set() == other.edge_set()
        )

    def __hash__(self):
        return hash((self.n, self.edge_set()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"


# -- file formats ---------------------------------------------------------
#
# Graph file: first line "n m", then m lines "u v" with 0 <= u < v < n.
# Cover file: one cycle per line, vertices space-separated in cyclic order.


def load_graph(text: str, max_n: Optional[int] = None) -> Graph:
    """Parse the edge-list format, reporting errors with line numbers.

    A header n above ``max_n`` is refused before anything is allocated.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphFormatError("missing header 'n m'", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("header must be 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError("header must contain two integers", 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative", 1)
    if max_n is not None and n > max_n:
        raise GraphFormatError(f"n = {n} exceeds the {max_n} vertices allowed here", 1)
    edges = []
    seen = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", lineno) from None
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", lineno)
        if not (0 <= u < v < n):
            raise GraphFormatError(
                f"edge ({u}, {v}) violates 0 <= u < v < n = {n}", lineno
            )
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(
            f"header announced {m} edges but file has {len(edges)}", lineno
        )
    return Graph(n, edges)


def dump_graph(g: Graph) -> str:
    """Canonical serialization; ``load_graph(dump_graph(g))`` round-trips."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def _canonical_cycle(cyc: Sequence[int]) -> tuple[int, ...]:
    """``cyc`` rotated to start at its smallest vertex and oriented toward the
    smaller of that vertex's two cycle neighbours (a list or a tuple)."""
    i = cyc.index(min(cyc))
    rot = cyc[i:] + cyc[:i]
    if rot[-1] < rot[1]:
        rot = rot[:1] + rot[:0:-1]
    return tuple(rot)


class CycleCover:
    """A 2-factor stored as canonically ordered vertex cycles.

    Canonical form: each cycle is rotated to start at its smallest vertex and
    oriented toward the smaller of that vertex's two cycle neighbours; cycles
    are sorted by their starting vertex.  A Hamilton cycle is the 1-cycle case.
    ``locator`` maps each vertex to its (cycle index, position).  The public
    constructor builds it while it checks the partition; a cover made by
    ``_from_canonical`` builds it on first use.  ``prev_next`` holds each
    vertex's two cycle neighbours, built on first use.
    """

    __slots__ = ("cycles", "n", "_locator", "_prev_next", "_edge_set")

    def __init__(self, cycles: Sequence[Sequence[int]], n: Optional[int] = None):
        canon = []
        for cyc in cycles:
            cyc = list(cyc)
            if len(cyc) < 3:
                raise CoverError(f"cycle {cyc} shorter than 3")
            if len(set(cyc)) != len(cyc):
                raise CoverError(f"repeated vertex within cycle {cyc}")
            canon.append(_canonical_cycle(cyc))
        canon.sort(key=lambda c: c[0])
        locator = {}
        for ci, cyc in enumerate(canon):
            for pos, v in enumerate(cyc):
                if v < 0:
                    raise CoverError(f"negative vertex {v}")
                if v in locator:
                    raise CoverError(f"repeated vertex {v} across cycles")
                locator[v] = (ci, pos)
        count = len(locator)
        if n is None:
            n = (max(locator) + 1) if locator else 0
        # [0, count] cannot all be present, so the smallest missing vertex
        # lies below count + 1: the scan stays O(count) for a huge vertex
        missing = [v for v in range(min(n, count + 1)) if v not in locator]
        if missing or count != n:
            bad = missing[0] if missing else max(locator)
            raise CoverError(f"cover does not partition [0, {n}): vertex {bad}")
        self.cycles = tuple(canon)
        self._locator = locator
        self.n = n
        self._prev_next = None
        self._edge_set = None

    @classmethod
    def _from_canonical(cls, cycles: tuple[tuple[int, ...], ...], n: int) -> "CycleCover":
        """A cover of cycles already canonical and sorted; nothing is checked.

        The caller guarantees that the cycles partition ``[0, n)``.
        """
        self = cls.__new__(cls)
        self.cycles = cycles
        self.n = n
        self._locator = None
        self._prev_next = None
        self._edge_set = None
        return self

    @classmethod
    def from_edge_set(cls, n: int, edges: Iterable[tuple[int, int]]) -> "CycleCover":
        """Reconstruct cycles from a 2-regular spanning edge set."""
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in range(n):
            if len(adj[v]) != 2:
                raise CoverError(f"vertex {v} has degree {len(adj[v])}, expected 2")
        seen = [False] * n
        cycles = []
        for start in range(n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            prev, cur = start, adj[start][0]
            while cur != start:
                cyc.append(cur)
                seen[cur] = True
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            cycles.append(cyc)
        return cls(cycles, n)

    # -- queries ---------------------------------------------------------

    @property
    def locator(self) -> dict[int, tuple[int, int]]:
        """Vertex -> (cycle index, position), built on first use."""
        if self._locator is None:
            self._locator = {
                v: (ci, pos)
                for ci, cyc in enumerate(self.cycles)
                for pos, v in enumerate(cyc)
            }
        return self._locator

    @property
    def prev_next(self) -> tuple[list[int], list[int]]:
        """Per-vertex arrays ``(prev, nxt)``: each vertex's predecessor and
        successor in its cycle's canonical orientation, built on first use.
        Every caller gets the same two lists, so none may modify them."""
        if self._prev_next is None:
            prev = [0] * self.n
            nxt = [0] * self.n
            for cyc in self.cycles:
                for p, v, q in zip(cyc[-1:] + cyc[:-1], cyc, cyc[1:] + cyc[:1]):
                    prev[v] = p
                    nxt[v] = q
            self._prev_next = prev, nxt
        return self._prev_next

    @property
    def num_components(self) -> int:
        return len(self.cycles)

    def cycle_edge(self, ci: int, pos: int) -> tuple[int, int]:
        """The cover edge at ``pos`` of cycle ``ci`` in cyclic orientation."""
        cyc = self.cycles[ci]
        return cyc[pos], cyc[(pos + 1) % len(cyc)]

    def iter_edges(self):
        for ci, cyc in enumerate(self.cycles):
            L = len(cyc)
            for pos in range(L):
                yield edge_key(cyc[pos], cyc[(pos + 1) % L])

    def edge_set(self) -> frozenset[tuple[int, int]]:
        if self._edge_set is None:
            self._edge_set = frozenset(self.iter_edges())
        return self._edge_set

    def cycle_neighbors(self, v: int) -> tuple[int, int]:
        prev, nxt = self.prev_next
        return prev[v], nxt[v]

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleCover) and self.cycles == other.cycles

    def __hash__(self):
        return hash(self.cycles)

    def __repr__(self):
        return f"CycleCover({len(self.cycles)} cycles, n={self.n})"


def load_cover(text: str, n: Optional[int] = None) -> CycleCover:
    """Parse a cover file (one cycle per line)."""
    cycles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            cycles.append([int(t) for t in raw.split()])
        except ValueError:
            raise GraphFormatError("cycle line must be integers", lineno) from None
    try:
        return CycleCover(cycles, n)
    except CoverError as exc:
        raise GraphFormatError(str(exc)) from exc


def dump_cover(cover: CycleCover) -> str:
    return "\n".join(" ".join(str(v) for v in cyc) for cyc in cover.cycles) + "\n"


def validate_cover(
    g: Graph, cover: Union[CycleCover, Sequence[Sequence[int]]]
) -> int:
    """Check that ``cover`` is a 2-factor of ``g``; return its cycle count.

    Raises :class:`CoverError` on: missing vertex, repeated vertex, a cover
    edge absent from ``g``, or a cycle shorter than 3.
    """
    if not isinstance(cover, CycleCover):
        cover = CycleCover(cover, g.n)
    if cover.n != g.n:
        raise CoverError(f"cover spans {cover.n} vertices, graph has {g.n}")
    bits = g._bits
    # the edges in ``iter_edges`` order, so the first missing one is reported
    for cyc in cover.cycles:
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            if not (bits[u] >> v) & 1:
                raise CoverError(f"cover edge {edge_key(u, v)} absent from graph")
    return cover.num_components


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(vertices: Iterable[int]) -> int:
    b = 0
    for v in vertices:
        b |= 1 << v
    return b


@dataclass(frozen=True)
class Params:
    """Desk-scale tuning knobs that a caller sets.

    The asymptotic hierarchy constants have no valid instantiation at sizes a
    machine can touch, so every threshold here is an absolute value; each
    field documents the asymptotic quantity it stands in for, in the
    hierarchy zeta = eta'/6, eta = 10 eta'.  The fixed stand-ins that no
    caller sets live beside the code that reads them: the ledger caps,
    growth rates and cover floor in ``embedding.py``, the rewire budgets in
    ``rewire.py``.
    """

    # partition: pairwise common-neighbourhood floor (stands for n^(1-zeta)+1)
    common_nbr_threshold: int = 3
    # M-set membership: witness floor (stands for n^(1-zeta))
    m_set_threshold: int = 2
    # ledger: tolerated uncovered residue |V_i \ M(E_ij)| (stands for n^(1-eta'))
    coverage_slack: int = 2
    # ledger: number of full sets per part (stands for n^(1-3eta'))
    ledger_t_cap: int = 8
    # enrichment goal (stands for n^(2-eta))
    h_edge_target: int = 50
    # protected-set ceiling for enrichment (stands for n^(1-eta))
    protected_cap: int = 200
    # switch-set sampling probability; None derives 1/sqrt(n ln n)
    sample_prob: Optional[float] = None
    # None keeps the rewire degree check (sqrt(n) log^2 n + 3|B'| + 2); any
    # integer, whatever its value, turns it off and warns (desk scale)
    thomassen_degree_floor: Optional[int] = None
    # enrichment rounds, one rewire call each
    enrich_rounds: int = 64
    # work per split step: each implanted C4 filed from a cycle the step has
    # not seen, and each pair or triple it tries, costs one unit
    switch_candidate_budget: int = 500_000
    seed: int = 0

    def __post_init__(self):
        positive = (
            "common_nbr_threshold",
            "m_set_threshold",
            "coverage_slack",
            "ledger_t_cap",
            "h_edge_target",
            "protected_cap",
            "enrich_rounds",
            "switch_candidate_budget",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"params.{name} must be positive")
        if self.sample_prob is not None and not (0.0 < self.sample_prob <= 1.0):
            raise ValueError("params.sample_prob must lie in (0, 1]")

    def sampling_probability(self, n: int) -> float:
        if self.sample_prob is not None:
            return self.sample_prob
        if n < 3:
            return 1.0
        return min(1.0, 1.0 / math.sqrt(n * math.log(n)))


_PARAM_TYPES = get_type_hints(Params)


def parse_params(text: str, base: Optional[Params] = None) -> Params:
    """Parse the flat ``key = value`` params format; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise GraphFormatError("expected 'key = value'", lineno)
            key, val = parts
        key = key.strip()
        val = val.strip()
        if key not in _PARAM_TYPES:
            raise GraphFormatError(f"unknown params key '{key}'", lineno)
        values[key] = _parse_param_value(key, val, lineno)
    return replace(base or Params(), **values)


def _parse_param_value(key: str, val: str, lineno: int):
    kind = _PARAM_TYPES[key]
    if val.lower() in ("none", "null"):
        if type(None) not in get_args(kind):
            raise GraphFormatError(f"'{key}' cannot be {val}", lineno)
        return None
    try:
        if kind == Optional[float]:
            return float(val)
        return int(val)
    except ValueError:
        raise GraphFormatError(f"bad value for '{key}': {val!r}", lineno) from None
