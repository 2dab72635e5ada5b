"""Immutable simple graphs, cycle covers (2-factors), and tuning knobs.

Vertices are dense integers ``0..n-1`` so cycle positions can be used for
modular arithmetic.  A graph holds its two row forms, ascending neighbour
rows as ``array('I')`` (public, 4 bytes an entry, every one made by
``_row``) and integer bitsets (hot loops), and derives everything else on
each call.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable, Optional, Sequence, Union


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
    """Immutable simple undirected graph on vertices ``0..n-1``, held as its
    two row forms alone: it derives everything else on each call, and
    equality and hashing read the bitset rows."""

    __slots__ = ("n", "_adj", "_bits", "_m", "_min_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # bit v of row u's ``stride`` bytes is set once u-v is read: n^2/8
        # bytes, which become the bitsets
        stride = (n + 7) >> 3
        matrix = bytearray(n * stride)
        rows = [_row() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            at = u * stride + (v >> 3)
            if matrix[at] >> (v & 7) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            matrix[at] |= 1 << (v & 7)
            matrix[v * stride + (u >> 3)] |= 1 << (u & 7)
            rows[u].append(v)
            rows[v].append(u)
        bits = tuple(
            int.from_bytes(matrix[u * stride : (u + 1) * stride], "little") for u in range(n)
        )
        self._set_rows(n, tuple(_row(sorted(r)) for r in rows), bits)

    @classmethod
    def _from_rows(cls, n: int, adj: tuple[array, ...], bits: tuple[int, ...]) -> "Graph":
        """Graph from already valid rows: ``adj[v]`` is v's ascending row made
        by ``_row``, ``bits[v]`` the same set as a bitset.  Nothing is
        checked, so a caller that builds rows owns their validity."""
        g = cls.__new__(cls)
        g._set_rows(n, adj, bits)
        return g

    def _set_rows(self, n, adj, bits) -> None:
        # the one place that sets the slots; O(n), nothing per edge
        self.n = n
        self._m = sum(map(len, adj)) // 2
        self._adj = adj
        self._bits = bits
        self._min_degree = min(map(len, adj), default=0)

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def adjacency(self, v: int) -> array:
        """v's neighbours, ascending; the graph's own row, so read-only."""
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
        """All edges as ``(u, v)`` pairs with ``u < v``, a new set on each call."""
        return frozenset(self.edges())

    def edges(self) -> list[tuple[int, int]]:
        """All ``(u, v)`` edges with ``u < v``, lexicographic: the rows in order."""
        return [
            (u, v) for u, row in enumerate(self._adj) for v in row[bisect(row, u):]
        ]

    def with_extra_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with ``extra`` edges added (duplicates ignored).

        Only the rows of vertices that gain a neighbour are rebuilt; a loop
        or an out-of-range vertex raises the constructor's error.
        """
        n = self.n
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
        adj = list(self._adj)
        for v, new in gained.items():
            adj[v] = _row(sorted(chain(adj[v], new)))
        return Graph._from_rows(n, tuple(adj), tuple(bits))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._bits == other._bits

    def __hash__(self):
        return hash((self.n, self._bits))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"


def _row(vertices: Iterable[int] = ()) -> array:
    """A graph row: ``vertices``, which the caller gives in ascending order,
    as C unsigned ints (4 bytes each).  Every row a graph holds is made here,
    exactly sized when ``vertices`` is a list, a tuple or a row."""
    return array("I", vertices)


_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _row_bits(lower: Iterable[int], start: int, upper: bytes) -> int:
    """The bitset of ``lower``, vertices below ``start``, and of each vertex
    ``start + j`` with ``upper[j] == 1`` (every byte of ``upper`` 0 or 1).

    It writes one binary digit per vertex and parses them at once, so a row
    costs time linear in its ``start + len(upper)`` vertices and needs no
    table; a sum of single-bit ints would copy the bitset per neighbour.
    """
    digits = bytearray(b"0") * start
    for v in lower:
        digits[v] = 49  # b"1"
    digits += upper.translate(_ASCII_BITS)
    digits.reverse()  # the highest vertex first
    return int(digits, 2)


# -- file formats ---------------------------------------------------------
#
# Graph file: first line "n m", then m lines "u v" with 0 <= u < v < n.
# Cover file: one cycle per line, vertices space-separated in cyclic order.


def _read_header(lines: list[str]) -> tuple[int, int]:
    """``n`` and ``m`` from the header, the first of a graph file's lines."""
    head = lines[0].split() if lines else []
    if not head:
        raise GraphFormatError("missing header 'n m'", 1)
    if len(head) != 2:
        raise GraphFormatError("header must be 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError("header must contain two integers", 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative", 1)
    return n, m


def load_graph(text: str, max_n: Optional[int] = None) -> Graph:
    """Parse the edge-list format, reporting errors with line numbers.

    A header n above ``max_n`` is refused before anything is allocated.  The
    edges go to the constructor as they are read, so no edge list is held;
    its duplicate check is reported at the line just read.
    """
    lines = text.splitlines()
    n, m = _read_header(lines)
    if max_n is not None and n > max_n:
        raise GraphFormatError(f"n = {n} exceeds the {max_n} vertices allowed here", 1)
    lineno = 1

    def edges():
        nonlocal lineno
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
            yield u, v

    try:
        g = Graph(n, edges())
    except GraphFormatError:
        raise
    except ValueError as exc:  # the lines above leave only a duplicate edge
        raise GraphFormatError(str(exc), lineno) from None
    if g.m != m:
        raise GraphFormatError(f"header announced {m} edges but file has {g.m}", lineno)
    return g


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
    edge absent from ``g``, or a cycle shorter than 3.  A cover made by
    ``CycleCover._from_canonical`` (every splice result) was never checked,
    so its partition is checked here too: each cycle at least 3 long, all
    lengths summing to n, and n distinct vertices among them.
    """
    if not isinstance(cover, CycleCover):
        cover = CycleCover(cover, g.n)
    if cover.n != g.n:
        raise CoverError(f"cover spans {cover.n} vertices, graph has {g.n}")
    bits = g._bits
    count = 0
    # the edges in ``iter_edges`` order, so the first missing one is reported
    for cyc in cover.cycles:
        if len(cyc) < 3:
            raise CoverError(f"cycle {list(cyc)} shorter than 3")
        count += len(cyc)
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            if not (bits[u] >> v) & 1:
                raise CoverError(f"cover edge {edge_key(u, v)} absent from graph")
    if count != g.n:
        raise CoverError(f"cover cycles hold {count} vertices, graph has {g.n}")
    locator = cover._locator  # once built, one key per distinct vertex
    distinct = len(set().union(*cover.cycles)) if locator is None else len(locator)
    if distinct != count:
        raise CoverError(f"repeated vertex: cover cycles hold {count} vertices, {distinct} distinct")
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
    """The knobs a workload sets.

    The asymptotic hierarchy constants have no valid instantiation at sizes a
    machine can touch, so every threshold is an absolute stand-in, in the
    hierarchy zeta = eta'/6, eta = 10 eta'.  Those no caller sets are module
    constants beside their only reader: the split's work budget in
    ``switching.py``; the walk's patience and tiny-n cutoff in
    ``pipeline.py``; the sampling probability and the rewire budgets in
    ``rewire.py``.
    """

    # the fallback walk takes no round once the merged cycle hosts this many
    # implanted C4's (stands for n^(2-eta))
    h_edge_target: int = 50
    # the least degree the rewire requires outside B'; the paper's
    # sqrt(n) log^2 n + 3|B'| + 2 exceeds n^0.8 for every n up to 10^8, so
    # no reachable host passes it, and 1 holds on every Hamiltonian host
    thomassen_degree_floor: int = 1
    # rounds of the fallback walk, one Hamilton cycle each (one rewire call
    # above pipeline.EXHAUSTIVE_CUTOFF vertices)
    enrich_rounds: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("h_edge_target", "enrich_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"params.{name} must be positive")


_PARAM_KEYS = frozenset(f.name for f in fields(Params))


def parse_params(text: str) -> Params:
    """Parse the flat ``key = value`` params format; unknown keys are errors."""
    return Params(**_param_values(text))


def _param_values(text: str) -> dict:
    """The values a params file sets, by key, each parsed and checked."""
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
        if key not in _PARAM_KEYS:
            raise GraphFormatError(f"unknown params key '{key}'", lineno)
        try:
            values[key] = int(val)
        except ValueError:
            raise GraphFormatError(f"bad value for '{key}': {val!r}", lineno) from None
    return values
