"""Core graph types plus neighborhood primitives.

The central type is an immutable :class:`Graph` that doubles as a subgraph
view: every view shares one host edge table, so edge ids are dense on the
host and stable across views.  All operations here are pure functions; the
objects are safe to share between threads.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence


# largest vertex count a graph may have: a host graph holds every vertex id
# in a frozenset, so an unchecked header could exhaust memory before any edge
MAX_VERTICES = 1 << 24


class ParseError(ValueError):
    """Raised for malformed edge-list text; carries a 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Undirected simple graph, possibly a masked view of a host graph.

    Vertices are ints in ``range(host_n)``; a view keeps only a subset of
    them live.  Edge ids index the shared host edge table, so a view and
    its host agree on what edge ``e`` means.  The table holds each edge as
    (u, v), u < v, in pair order: ``arrays()`` relies on it, and hosts come
    from ``from_edges`` or ``parse_edge_list``, which sort it.
    """

    __slots__ = (
        "host_n", "edge_table", "vertices", "edge_ids", "found", "_adj", "_eid_of", "_fp",
    )

    def __init__(
        self,
        host_n: int,
        edge_table: tuple[tuple[int, int], ...],
        vertices: frozenset[int],
        edge_ids: frozenset[int],
        arrays: Optional[Arrays] = None,
        found: Optional[tuple[Optional[Cycle]]] = None,
    ):
        """edge_table is a host's table, in pair order; arrays, when given,
        hold exactly the live edges as ``arrays()`` would build them, and
        become this graph's own.  found, when given, holds what the
        long-cycle finder returns on the live edges, the cycle or None, as
        a 1-tuple; None means it is not known.  Only the long-cycle peel
        sets it, on its residual, and reads it, on its input."""
        self.host_n = host_n
        self.edge_table = edge_table
        self.vertices = vertices
        self.edge_ids = edge_ids
        self.found = found
        self._adj = arrays
        self._eid_of: Optional[dict[tuple[int, int], int]] = None
        self._fp: Optional[str] = None

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a host graph on vertex set ``range(n)`` from endpoint pairs.

        Pairs may come in either endpoint order and in any order; edge ids
        number them in pair order.  Loops and duplicate pairs are rejected:
        the type models simple graphs only.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        codes: dict[int, None] = {}
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"endpoint out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            code = u * n + v if u < v else v * n + u
            if code in codes:
                raise ValueError(f"duplicate edge {divmod(code, n)}")
            codes[code] = None
        return cls._host(n, codes)

    @classmethod
    def _host(cls, n: int, codes: Iterable[int]) -> "Graph":
        """Host graph on ``range(n)`` whose edge ids number its edges in pair order.

        codes holds each edge (u, v), u < v, as u * n + v, which sorts as the
        pair does, in input order, so input already in pair order sorts in
        one linear pass; the caller has checked the pairs.  The pairs are
        made here, in pair order, so walks over the table read memory in
        order whatever order the input came in.
        """
        table = tuple(map(divmod, sorted(codes), repeat(n)))
        return cls(n, table, frozenset(range(n)), frozenset(range(len(table))))

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of live vertices."""
        return len(self.vertices)

    @property
    def m(self) -> int:
        """Number of live edges."""
        return len(self.edge_ids)

    def vertex_list(self) -> list[int]:
        return sorted(self.vertices)

    def edge_id_list(self) -> list[int]:
        return sorted(self.edge_ids)

    def arrays(self) -> Arrays:
        """Live adjacency: per vertex, the neighbours in ascending order and
        the edge ids beside them, built on first use.  Callers only read
        them; one that cuts them down takes ``arrays_copy()``."""
        if self._adj is None:
            self._adj = _neighbour_lists(self)
        return self._adj

    def arrays_copy(self) -> Arrays:
        """Lists of ``arrays()`` that the caller may cut down: copies of the
        cached ones, or fresh ones, which are not cached on this graph."""
        if self._adj is None:
            return _neighbour_lists(self)
        nbrs, eids = self._adj
        return {v: nb[:] for v, nb in nbrs.items()}, {v: eb[:] for v, eb in eids.items()}

    def degrees(self) -> dict[int, int]:
        """Live degrees keyed as ``arrays()``, read from them only if already built."""
        if self._adj is not None:
            return {v: len(nb) for v, nb in self._adj[0].items()}
        deg = dict.fromkeys(self.vertices, 0)
        tab = self.edge_table
        for e in self.edge_ids:
            u, v = tab[e]
            deg[u] += 1
            deg[v] += 1
        return deg

    def avg_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def _edge_index(self) -> dict[tuple[int, int], int]:
        """Live edges as {(u, v): edge id} with u < v, built on first use."""
        if self._eid_of is None:
            tab = self.edge_table
            self._eid_of = {tab[eid]: eid for eid in self.edge_ids}
        return self._eid_of

    def edge_id(self, u: int, v: int) -> int:
        """Live edge id joining u and v; KeyError if absent."""
        return self._edge_index()[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        try:
            self.edge_id(u, v)
            return True
        except KeyError:
            return False

    # -- views -----------------------------------------------------------

    def subview(
        self,
        vertices: Optional[Iterable[int]] = None,
        edge_ids: Optional[Iterable[int]] = None,
    ) -> "Graph":
        """Restricted view sharing this graph's host edge table: the subgraph
        induced by vertices, the spanning subgraph on edge_ids, or both.

        Restricting vertices drops edges with a dead endpoint; restricting
        edges never drops vertices.  Edge ids keep their host meaning.
        """
        verts = self.vertices if vertices is None else frozenset(vertices)
        if not verts <= self.vertices:
            raise ValueError("subview vertices must be live in the parent")
        eids = self.edge_ids if edge_ids is None else frozenset(edge_ids)
        if not eids <= self.edge_ids:
            raise ValueError("subview edges must be live in the parent")
        tab = self.edge_table
        # a live edge has both ends live, so only a vertex restriction drops edges
        keep = eids if vertices is None else frozenset(
            e for e in eids if tab[e][0] in verts and tab[e][1] in verts
        )
        return Graph(self.host_n, tab, verts, keep)

    def without_edges(self, drop: Iterable[int]) -> "Graph":
        return Graph(self.host_n, self.edge_table, self.vertices, self.edge_ids - frozenset(drop))

    def components(self) -> list[list[int]]:
        """Connected components of live vertices, each sorted, in sorted order."""
        return [sorted(comp) for _, comp in _component_sets(self)]

    def component(self, comp: list[int]) -> "Graph":
        """This graph's component on the vertices comp, carrying its slice of
        ``arrays()`` but no ``found``; the graph itself when comp spans it."""
        if len(comp) == self.n:
            return self
        nbrs, eids = self.arrays()
        edge_ids = frozenset(e for v in comp for e in eids[v])
        arrays = ({v: nbrs[v] for v in comp}, {v: eids[v] for v in comp})
        return Graph(self.host_n, self.edge_table, frozenset(comp), edge_ids, arrays)

    def fingerprint(self) -> str:
        """Stable hex digest of (host size, live vertices, live edges)."""
        if self._fp is None:
            h = hashlib.sha256()
            h.update(str(self.host_n).encode())
            h.update(array("q", self.vertex_list()).tobytes())
            flat = array("q")
            tab = self.edge_table
            for eid in self.edge_id_list():
                u, v = tab[eid]
                flat.append(u)
                flat.append(v)
            h.update(flat.tobytes())
            self._fp = h.hexdigest()[:16]
        return self._fp

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# per-vertex neighbour lists and edge-id lists, as ``Graph.arrays`` gives them
Arrays = tuple[dict[int, list[int]], dict[int, list[int]]]


def _neighbour_lists(g: Graph) -> Arrays:
    """Fresh per-vertex neighbour and edge-id lists of g's live edges, in neighbour order.

    A host's edge table is in pair order, so the walk in edge-id order
    gives every list already sorted.
    """
    nbrs: dict[int, list[int]] = {v: [] for v in g.vertices}
    eids: dict[int, list[int]] = {v: [] for v in g.vertices}
    tab = g.edge_table
    for e in sorted(g.edge_ids):
        u, v = tab[e]
        nbrs[u].append(v)
        eids[u].append(e)
        nbrs[v].append(u)
        eids[v].append(e)
    return nbrs, eids


def _component_sets(g: Graph) -> Iterator[tuple[int, set[int]]]:
    """g's components as (smallest vertex, vertex set), by smallest vertex."""
    nbrs = g.arrays()[0]
    seen: set[int] = set()
    for r in g.vertex_list():
        if r in seen:
            continue
        comp = {r}
        stack = [r]
        while stack:
            for b in nbrs[stack.pop()]:
                if b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        yield r, comp


# -- paths, cycles, decompositions ------------------------------------------


@dataclass(frozen=True)
class Path:
    """Simple path: k+1 distinct vertices joined by k edge ids in order."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edge_ids) + 1:
            raise ValueError("path needs exactly one more vertex than edge")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path repeats a vertex")

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def check(self, g: Graph) -> None:
        """Raise unless every edge is live in g and joins its two vertices."""
        _check_incidence(g, "path", zip(self.edge_ids, self.vertices, self.vertices[1:]))


@dataclass(frozen=True)
class Cycle:
    """Simple cycle: L >= 3 distinct vertices; edge_ids[i] joins v[i], v[i+1 mod L]."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("cycle needs at least 3 vertices")
        if len(self.vertices) != len(self.edge_ids):
            raise ValueError("cycle needs one edge per vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle repeats a vertex")

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    def check(self, g: Graph) -> None:
        vs = self.vertices
        _check_incidence(g, "cycle", zip(self.edge_ids, vs, vs[1:] + vs[:1]))


def _check_incidence(g: Graph, kind: str, steps: Iterable[tuple[int, int, int]]) -> None:
    """Raise unless each step (edge id, a, b) is a live edge of g joining a and b."""
    live, tab = g.edge_ids, g.edge_table
    for eid, a, b in steps:
        if eid not in live:
            raise ValueError(f"{kind} edge {eid} not live")
        if ((a, b) if a < b else (b, a)) != tab[eid]:
            raise ValueError(f"{kind} edge {eid} does not join {a},{b}")


@dataclass(frozen=True)
class Decomposition:
    """Exact partition of a graph's edges into cycles plus single edges."""

    source: str
    n: int
    m: int
    cycles: tuple[Cycle, ...]
    single_edges: tuple[int, ...]
    stats: dict = field(default_factory=dict)

    @classmethod
    def from_parts(
        cls,
        g: Graph,
        cycles: Sequence[Cycle],
        single_edges: Iterable[int],
        stats: Optional[dict] = None,
    ) -> "Decomposition":
        singles = tuple(sorted(single_edges))
        base = {"n_cycles": len(cycles), "n_single_edges": len(singles),
                "pieces": len(cycles) + len(singles)}
        if stats:
            base.update(stats)
        return cls(
            source=g.fingerprint(),
            n=g.host_n,
            m=g.m,
            cycles=tuple(cycles),
            single_edges=singles,
            stats=base,
        )

    @property
    def pieces(self) -> int:
        return len(self.cycles) + len(self.single_edges)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]
    n_cycles: int
    n_single_edges: int
    covered_edges: int


def validate_decomposition(g: Graph, d: Decomposition) -> ValidationReport:
    """Check that d is an exact, well-formed edge partition of g.

    Verifies the source fingerprint, every cycle's simplicity and incidence,
    liveness of single edges, and that each live edge of g is covered exactly
    once.  Collects up to 20 problems instead of stopping at the first.
    """
    problems: list[str] = []

    def note(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    if d.source != g.fingerprint():
        note(f"fingerprint mismatch: {d.source} vs {g.fingerprint()}")
    if d.n != g.host_n:
        note(f"vertex count mismatch: {d.n} vs {g.host_n}")
    if d.m != g.m:
        note(f"edge count mismatch: {d.m} vs {g.m}")

    used: set[int] = set()
    covered = 0
    for ci, cyc in enumerate(d.cycles):
        try:
            cyc.check(g)
        except ValueError as exc:
            note(f"cycle {ci}: {exc}")
            continue
        # a checked cycle's edges are distinct, so when none is covered yet
        # they are added at once
        if used.isdisjoint(cyc.edge_ids):
            used.update(cyc.edge_ids)
            covered += len(cyc.edge_ids)
            continue
        for eid in cyc.edge_ids:
            if eid in used:
                note(f"cycle {ci}: edge {eid} already covered")
            else:
                used.add(eid)
                covered += 1
    for eid in d.single_edges:
        if eid not in g.edge_ids:
            note(f"single edge {eid} not live")
        elif eid in used:
            note(f"single edge {eid} already covered")
        else:
            used.add(eid)
            covered += 1
    missing = g.edge_ids - used
    if missing:
        note(f"{len(missing)} live edges uncovered, e.g. {sorted(missing)[:5]}")

    return ValidationReport(
        ok=not problems,
        problems=tuple(problems),
        n_cycles=len(d.cycles),
        n_single_edges=len(d.single_edges),
        covered_edges=covered,
    )


# -- neighborhood primitives ------------------------------------------------


def _check_sets(g: Graph, U: Iterable[int], F: Iterable[int]) -> tuple[set[int], set[int]]:
    Uset = set(U)
    if not Uset:
        raise ValueError("U must be nonempty")
    if not Uset <= g.vertices:
        raise ValueError("U must consist of live vertices")
    Fset = set(F)
    if not Fset <= g.edge_ids:
        raise ValueError("F must consist of live edge ids")
    return Uset, Fset


def neighborhood(g: Graph, U: Iterable[int], F: Iterable[int] = ()) -> set[int]:
    """External neighborhood of U in g minus the edge set F."""
    Uset, Fset = _check_sets(g, U, F)
    nbrs, eids = g.arrays()
    out: set[int] = set()
    for u in Uset:
        for w, eid in zip(nbrs[u], eids[u]):
            if w not in Uset and eid not in Fset:
                out.add(w)
    return out


def robust_neighborhood(g: Graph, U: Iterable[int], F: Iterable[int], d: int) -> set[int]:
    """Vertices outside U with at least d edges into U, in g minus F."""
    if d < 1:
        raise ValueError("d must be a positive count")
    Uset, Fset = _check_sets(g, U, F)
    nbrs, eids = g.arrays()
    count: dict[int, int] = {}
    for u in Uset:
        for w, eid in zip(nbrs[u], eids[u]):
            if w not in Uset and eid not in Fset:
                count[w] = count.get(w, 0) + 1
    return {w for w, c in count.items() if c >= d}


# -- edge-list text format ----------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: header ``n m``, then ``u v`` lines.

    Requires 0 <= u < v < n on each edge line.  Blank lines and lines whose
    first nonblank character is ``#`` are ignored.  Edge ids number the edges
    in pair order, whatever the order of their lines.  Raises
    :class:`ParseError` with a 1-based line number on any malformed content.
    """
    n = m = -1
    # each edge (u, v) as u * n + v, in line order: the duplicate check and
    # the host's input are one dict
    codes: dict[int, None] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        try:
            a, b = fields
            a, b = int(a), int(b)
        except ValueError:
            # blank and comment lines land here too: "#" is no part of an integer
            if not fields or fields[0][0] == "#":
                continue
            raise ParseError(f"expected two integers, got {raw!r}", line_no) from None
        if m < 0:
            if a < 0 or b < 0:
                raise ParseError("header counts must be nonnegative", line_no)
            if a > MAX_VERTICES:
                raise ParseError(f"header n={a} exceeds the limit of {MAX_VERTICES}", line_no)
            n, m = a, b
            continue
        if len(codes) == m:
            raise ParseError(f"more than {m} edge lines", line_no)
        if not (0 <= a < b < n):
            raise ParseError(f"edge must satisfy 0 <= u < v < n, got {a} {b}", line_no)
        code = a * n + b
        if code in codes:
            raise ParseError(f"duplicate edge {a} {b}", line_no)
        codes[code] = None
    if m < 0:
        raise ParseError("missing header line", 1)
    if len(codes) != m:
        raise ParseError(f"header promised {m} edges, found {len(codes)}", 1)
    return Graph._host(n, codes)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.host_n} {g.m}"]
    tab = g.edge_table
    for eid in g.edge_id_list():
        u, v = tab[eid]
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# -- decomposition JSON -------------------------------------------------------

DECOMPOSITION_SCHEMA_VERSION = 1


def decomposition_to_json_dict(d: Decomposition, g: Graph) -> dict:
    """Schema-stable dict form; see docs/decomposition.schema.json."""
    tab = g.edge_table
    return {
        "schema": DECOMPOSITION_SCHEMA_VERSION,
        "n": d.n,
        "m": d.m,
        "source": d.source,
        "cycles": [list(c.vertices) for c in d.cycles],
        "edges": [list(tab[eid]) for eid in d.single_edges],
        "stats": dict(sorted(d.stats.items())),
    }


def decomposition_to_json(d: Decomposition, g: Graph) -> str:
    return json.dumps(decomposition_to_json_dict(d, g), sort_keys=True, separators=(",", ":"))


def decomposition_from_json_dict(doc: dict, g: Graph) -> Decomposition:
    """Rebind a JSON document to graph g, resolving vertex pairs to edge ids.

    Raises ValueError naming the pair when a cycle or single edge joins two
    vertices that are not adjacent in g.
    """
    index = g._edge_index()

    def eid(u: int, v: int) -> int:
        try:
            return index[(u, v) if u < v else (v, u)]
        except KeyError:
            raise ValueError(f"({u}, {v}) is not an edge of the graph") from None

    cycles = []
    for verts in doc["cycles"]:
        vs = tuple(verts)
        nxt = vs[1:] + vs[:1]
        try:
            eids = tuple([index[(a, b) if a < b else (b, a)] for a, b in zip(vs, nxt)])
        except KeyError:
            # name the first pair that is not an edge, in the cycle's order
            eids = tuple([eid(a, b) for a, b in zip(vs, nxt)])
        cycles.append(Cycle(vs, eids))
    singles = tuple(eid(u, v) for u, v in doc["edges"])
    return Decomposition(
        source=doc.get("source", g.fingerprint()),
        n=doc["n"],
        m=doc["m"],
        cycles=tuple(cycles),
        single_edges=singles,
        stats=dict(doc.get("stats", {})),
    )


def _vertex_ids(item, what: str, note) -> Optional[list[int]]:
    """Vertex ids of one cycle, path or edge; None once a non-integer is noted.

    Raises ValueError unless item is a list of JSON numbers: such a document
    is malformed, not an invalid decomposition.
    """
    if isinstance(item, list) and all(type(v) is int for v in item):
        return item
    if not isinstance(item, list) or not all(isinstance(v, (int, float)) for v in item):
        raise ValueError(f"{what}: expected a list of vertex ids, got {repr(item)[:40]}")
    bad = next(v for v in item if type(v) is not int)
    note(f"{what}: vertex id {json.dumps(bad)} is not an integer")
    return None


def validate_decomposition_json(doc: dict, g: Optional[Graph] = None) -> ValidationReport:
    """Validate a decomposition document, standalone or against a graph.

    Standalone mode reconstructs the implied graph from the document itself:
    cycles expand to their consecutive edges, plus the listed single edges;
    paths (optional field) expand likewise.  The implied edge multiset must
    be simple, have m members, and use integer vertex ids below n.  A
    document of the wrong shape (not an object, a field or member that is
    not a list, a vertex that is not a number, an edge that is not a pair)
    raises ValueError instead.
    """
    if not isinstance(doc, dict):
        raise ValueError("decomposition document must be a JSON object")
    problems: list[str] = []

    def note(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    def members(key: str) -> list:
        val = doc.get(key, [])
        if not isinstance(val, list):
            raise ValueError(f"{key} must be a list")
        return val

    n = doc.get("n")
    m = doc.get("m")
    if type(n) is not int or n < 0:  # bools are not counts
        note("bad or missing n")
        n = 0
    if type(m) is not int or m < 0:
        note("bad or missing m")
        m = 0

    edge_multiset: list[tuple[int, int]] = []

    def add_edge(a: int, b: int, what: str) -> None:
        if a == b:
            note(f"{what}: loop at {a}")
            return
        if not (0 <= a < n and 0 <= b < n):
            note(f"{what}: endpoint out of range ({a}, {b})")
            return
        edge_multiset.append((a, b) if a < b else (b, a))

    # a cycle also joins its last vertex to its first; a path does not
    for key, kind, min_len, closing in (("cycles", "cycle", 3, 1), ("paths", "path", 2, 0)):
        for idx, item in enumerate(members(key)):
            what = f"{kind} {idx}"
            verts = _vertex_ids(item, what, note)
            if verts is None:
                continue
            if len(verts) < min_len:
                note(f"{what}: fewer than {min_len} vertices")
                continue
            if len(set(verts)) != len(verts):
                note(f"{what}: repeated vertex")
                continue
            nxt = verts[1:] + verts[:1] if closing else verts[1:]
            if 0 <= min(verts) and max(verts) < n:
                # distinct vertices in range: no pair is a loop or out of range
                edge_multiset += [(a, b) if a < b else (b, a) for a, b in zip(verts, nxt)]
            else:
                for a, b in zip(verts, nxt):
                    add_edge(a, b, what)
    singles = members("edges")
    for si, item in enumerate(singles):
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"single edge {si}: expected a [u, v] pair, got {repr(item)[:40]}")
        pair = _vertex_ids(item, f"single edge {si}", note)
        if pair is not None:
            add_edge(pair[0], pair[1], "single edge")

    counts = Counter(edge_multiset)
    if len(counts) != len(edge_multiset):
        dupes = sorted(e for e, c in counts.items() if c > 1)
        note(f"edges covered more than once, e.g. {dupes[:5]}")
    if len(edge_multiset) != m:
        note(f"document covers {len(edge_multiset)} edges but claims m={m}")

    if g is not None:
        actual = g._edge_index().keys()
        implied = counts.keys()
        if g.host_n != n:
            note(f"graph has n={g.host_n}, document says {n}")
        if implied != actual:
            extra = sorted(implied - actual)[:5]
            miss = sorted(actual - implied)[:5]
            note(f"edge sets differ from graph (extra {extra}, missing {miss})")
        src = doc.get("source")
        if src is not None and src != g.fingerprint():
            note("source fingerprint does not match graph")

    return ValidationReport(
        ok=not problems,
        problems=tuple(problems),
        n_cycles=len(members("cycles")),
        n_single_edges=len(singles),
        covered_edges=len(counts),
    )


# -- DOT export ---------------------------------------------------------------

_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#bcbd22", "#666666",
)


def to_dot(g: Graph, d: Optional[Decomposition] = None) -> str:
    """Graphviz text for g, named G; with a decomposition, cycles are colored by index."""
    lines = ["graph G {"]
    color: dict[int, str] = {}
    if d is not None:
        for ci, cyc in enumerate(d.cycles):
            c = _DOT_PALETTE[ci % len(_DOT_PALETTE)]
            for eid in cyc.edge_ids:
                color[eid] = c
    for v in g.vertex_list():
        lines.append(f"  {v};")
    tab = g.edge_table
    for eid in g.edge_id_list():
        u, v = tab[eid]
        if d is None:
            lines.append(f"  {u} -- {v};")
        elif eid in color:
            lines.append(f'  {u} -- {v} [color="{color[eid]}"];')
        else:
            lines.append(f'  {u} -- {v} [color="#999999", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
