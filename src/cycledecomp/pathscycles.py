"""Path/cycle decompositions, long-cycle extraction, and the Eulerian finisher.

The well-spread decomposition pairs odd-degree vertices with virtual edges,
takes an Euler circuit per component, and splits the resulting walks into one
simple path each plus excised simple cycles.  Every vertex ends up an
endvertex of at most two paths, which is the only property downstream
consumers rely on.  The Eulerian finisher is its case with no odd vertex.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterable, NamedTuple, Optional

from .graph import Cycle, Graph, Path, _component_sets


class WellSpreadResult(NamedTuple):
    """Paths and cycles partitioning the edges; in paths_only mode, only the
    cycles that splitting would push some vertex past endpoint multiplicity 2."""

    paths: tuple[Path, ...]
    cycles: tuple[Cycle, ...]

    def endpoint_multiplicity(self) -> dict[int, int]:
        return _endpoint_multiplicity(self.paths)


def _endpoint_multiplicity(paths: Iterable[Path]) -> dict[int, int]:
    """The number of path ends at each vertex."""
    mult: dict[int, int] = {}
    for p in paths:
        for v in (p.vertices[0], p.vertices[-1]):
            mult[v] = mult.get(v, 0) + 1
    return mult


def _euler_circuit(
    start: int, nbrs: dict[int, list[int]], eids: dict[int, list[int]]
) -> tuple[list[int], list[int]]:
    """Hierholzer circuit over a connected even-degree multigraph.

    nbrs and eids hold, per vertex, the neighbours and the edge ids beside
    them; an edge id names one edge, so a used edge is skipped from both
    ends.  Returns the circuit as a vertex sequence v0..vk (v0 == vk) and
    edge-id sequence e1..ek where e_i joins v_{i-1} and v_i.
    """
    used: set[int] = set()
    ptr = dict.fromkeys(nbrs, 0)
    vstack = [start]
    estack: list[int] = []
    vout: list[int] = []
    eout: list[int] = []
    while vstack:
        v = vstack[-1]
        eb = eids[v]
        i = ptr[v]
        while i < len(eb) and eb[i] in used:
            i += 1
        ptr[v] = i
        if i == len(eb):
            vout.append(v)
            vstack.pop()
            if estack:
                eout.append(estack.pop())
        else:
            used.add(eb[i])
            ptr[v] = i + 1
            vstack.append(nbrs[v][i])
            estack.append(eb[i])
    vout.reverse()
    eout.reverse()
    return vout, eout


def _excise_walk(
    vs: list[int], es: list[int]
) -> tuple[Optional[Path], list[Cycle]]:
    """Split a walk into one simple path plus simple cycles.

    Left-to-right scan; each first-repeated vertex closes a cycle which is
    cut out in place.  The survivor keeps the walk's endpoints, so for a
    closed walk nothing but cycles remain.
    """
    cycles: list[Cycle] = []
    stack_v = [vs[0]]
    stack_e: list[int] = []
    pos = {vs[0]: 0}
    for v, e in zip(vs[1:], es):
        j = pos.get(v)
        if j is None:
            pos[v] = len(stack_v)
            stack_v.append(v)
            stack_e.append(e)
            continue
        cyc_vs = tuple(stack_v[j:])
        cyc_es = tuple(stack_e[j:]) + (e,)
        cycles.append(Cycle(cyc_vs, cyc_es))
        for w in stack_v[j + 1 :]:
            del pos[w]
        del stack_v[j + 1 :]
        del stack_e[j:]
    if stack_e:
        return Path(tuple(stack_v), tuple(stack_e)), cycles
    return None, cycles


def _component_walks(g: Graph, comp: list[int]) -> list[tuple[list[int], list[int]]]:
    """Euler-circuit walks of one component, virtual pairing edges removed.

    comp is the component's vertex list in ascending order.  Returns a list
    of (vertex_seq, edge_id_seq) walks.  The odd-degree vertices are paired
    ascending through virtual edges and each returned walk is open (one per
    pair); when every degree is even there is no pair, and the single closed
    circuit is returned.  The circuit reads the component's slice of g's
    ``arrays()``; each odd vertex gets a copy of its lists holding one
    virtual entry, with edge id -1 - k for the k-th pair, placed after any
    real entry for the same neighbour.
    """
    all_nbrs, all_eids = g.arrays()
    nbrs = {v: all_nbrs[v] for v in comp}
    eids = {v: all_eids[v] for v in comp}
    if not nbrs[comp[0]]:
        return []
    odd = [v for v in comp if len(nbrs[v]) % 2]
    for k in range(len(odd) // 2):
        a, b = odd[2 * k], odd[2 * k + 1]
        for x, y in ((a, b), (b, a)):
            i = bisect_right(nbrs[x], y)
            nbrs[x] = nbrs[x][:i] + [y] + nbrs[x][i:]
            eids[x] = eids[x][:i] + [-1 - k] + eids[x][i:]
    vseq, eseq = _euler_circuit(comp[0], nbrs, eids)
    if 2 * len(eseq) != sum(map(len, eids.values())):
        raise RuntimeError(f"Euler circuit from {comp[0]} missed edges of its component")
    if not odd:
        return [(vseq, eseq)]

    # rotate the closed circuit to start just after its first virtual edge,
    # so it ends with one, then cut it at every virtual edge
    first = next(i for i, e in enumerate(eseq) if e < 0)
    vs = vseq[first + 1 : -1] + vseq[: first + 2]
    es = eseq[first + 1 :] + eseq[: first + 1]
    walks: list[tuple[list[int], list[int]]] = []
    cur_vs = [vs[0]]
    cur_es: list[int] = []
    for e, w in zip(es, vs[1:]):
        if e < 0:
            if cur_es:
                walks.append((cur_vs, cur_es))
            cur_vs = [w]
            cur_es = []
        else:
            cur_es.append(e)
            cur_vs.append(w)
    return walks


def well_spread_path_cycle_decompose(g: Graph, mode: str = "euler") -> WellSpreadResult:
    """Partition E(g) into paths and cycles, endpoint multiplicity <= 2.

    euler mode emits exactly (#odd-degree vertices)/2 paths, each odd vertex
    serving as an endpoint exactly once.  paths_only mode additionally splits
    each cycle into two paths where the multiplicity budget allows; the
    cycles it returns are exactly those that could not be split.
    """
    if mode not in ("euler", "paths_only"):
        raise ValueError(f"unknown mode {mode!r}")
    paths: list[Path] = []
    cycles: list[Cycle] = []
    for comp in g.components():
        for vs, es in _component_walks(g, comp):
            leftover, excised = _excise_walk(vs, es)
            cycles.extend(excised)
            if leftover is not None:
                paths.append(leftover)

    if mode == "euler":
        return WellSpreadResult(tuple(paths), tuple(cycles))

    mult = _endpoint_multiplicity(paths)
    kept: list[Cycle] = []
    for cyc in cycles:
        free = [i for i, v in enumerate(cyc.vertices) if mult.get(v, 0) == 0]
        if len(free) < 2:
            kept.append(cyc)
            continue
        i, j = free[0], free[1]
        vs, es = cyc.vertices, cyc.edge_ids
        first = Path(vs[i : j + 1], es[i:j])
        second = Path(vs[j:] + vs[: i + 1], es[j:] + es[:i])
        paths.extend([first, second])
        for v in (vs[i], vs[j]):
            mult[v] = mult.get(v, 0) + 2
    return WellSpreadResult(tuple(paths), tuple(kept))


def _largest_component(g: Graph) -> tuple[int, set[int]]:
    """Smallest vertex and vertex set of g's largest component.

    Among components of equal size the one with the smallest vertex wins,
    as ``max(g.components(), key=len)`` picks it.  The search stops once
    the vertices left unseen could not form a larger one.
    """
    root, best = -1, set()
    unseen = g.n
    for r, comp in _component_sets(g):
        unseen -= len(comp)
        if len(comp) > len(best):
            root, best = r, comp
        if unseen <= len(best):
            break
    return root, best


def _longest_back_edge_cycle(g: Graph) -> Optional[Cycle]:
    """Longest cycle closable by a single DFS back edge, over all components.

    The DFS stack holds one vertex per depth, so any neighbour on the stack
    closes a simple cycle through the stack edges below it; the edge to the
    parent closes a 2-cycle, which is too short to count.  The first cycle
    of the greatest length wins.  Returns None exactly when g is acyclic.
    Reads g's ``arrays()`` with the depth table of ``_back_edge_pass``.
    A cycle lies on the stack, among the unfinished vertices, and only a
    strictly longer one replaces the best; so the search returns as soon as
    no more than ``longest`` vertices are unfinished, with the same result
    a full sweep would give.
    """
    nbrs, eids = g.arrays()
    depth = _per_vertex(g, -1)
    ptr = _per_vertex(g, 0)
    best: Optional[Cycle] = None
    longest = 2
    left = g.n  # vertices not yet finished
    for root in g.vertex_list():
        if depth[root] != -1:
            continue
        stack_v = [root]
        stack_e: list[Optional[int]] = [None]
        depth[root] = 0
        while stack_v:
            v = stack_v[-1]
            nb = nbrs[v]
            end = len(nb)
            i = ptr[v]
            while i < end:
                w = nb[i]
                j = depth[w]
                if j == -1:
                    ptr[v] = i + 1
                    depth[w] = len(stack_v)
                    stack_v.append(w)
                    stack_e.append(eids[v][i])
                    break
                if j >= 0 and len(stack_v) - j > longest:
                    longest = len(stack_v) - j
                    best = Cycle(tuple(stack_v[j:]), tuple(stack_e[j + 1 :]) + (eids[v][i],))
                i += 1
            else:
                stack_v.pop()
                stack_e.pop()
                depth[v] = -2
                left -= 1
                if left <= longest:
                    return best
    return best


# the share of the snapshot path P that its middle segment Y takes
Y_FRACTION = 1 / 3


def find_long_cycle_dfs(g: Graph) -> Optional[Cycle]:
    """Long-cycle extraction via the unexplored/path/removed DFS process.

    Runs DFS on the largest component tracking the unexplored set U and the
    removed set R; the DFS stops at the first moment |U| = |R|, which always
    comes before the path empties, and P is the path at that moment.
    P splits into consecutive X, Y, Z; a shortest X-Z path Q in G minus Y is
    found by multi-source BFS (its interior automatically avoids all of P),
    and Q plus the P-segment between its endpoints closes a simple cycle
    containing all of Y.  When X and Z are separated (Y is a separator, which
    well-expanding inputs rule out but sparse ones do not) the search falls
    back to the longest single-back-edge cycle, so None is returned only for
    acyclic inputs.  Reads g's ``arrays()``.
    """
    if g.n == 0 or g.m == 0:
        return None
    nbrs, eids = g.arrays()
    root, unexplored = _largest_component(g)
    if len(unexplored) < 3:
        return None

    unexplored.discard(root)
    u_count, r_count = len(unexplored), 0
    path = [root]
    path_e: list[Optional[int]] = [None]  # path_e[t] joins path[t - 1] and path[t]
    ptr = {root: 0}
    # |U| - |R| starts at 2 or more and falls by exactly one per step; an
    # empty path would leave U empty and R full, so it reaches 0 before that
    while u_count != r_count:
        v = path[-1]
        nb = nbrs[v]
        end = len(nb)
        i = ptr[v]
        while i < end and nb[i] not in unexplored:
            i += 1
        ptr[v] = i
        if i == end:
            path.pop()
            path_e.pop()
            r_count += 1
        else:
            w = nb[i]
            unexplored.discard(w)
            u_count -= 1
            path.append(w)
            path_e.append(eids[v][i])
            ptr[w] = 0
    if len(path) < 3:
        return _longest_back_edge_cycle(g)

    p = len(path)
    y_len = max(1, min(int(Y_FRACTION * p), p - 2))
    x_len = (p - y_len + 1) // 2
    X = path[:x_len]
    Y = path[x_len : x_len + y_len]
    Z = path[x_len + y_len :]

    y_set = set(Y)
    z_set = set(Z)
    parent: dict[int, Optional[tuple[int, int]]] = {x: None for x in X}
    queue = deque(sorted(X))
    hit = None
    while queue and hit is None:
        v = queue.popleft()
        for w, eid in zip(nbrs[v], eids[v]):
            if w in y_set or w in parent:
                continue
            parent[w] = (v, eid)
            if w in z_set:
                hit = w
                break
            queue.append(w)
    if hit is None:
        return _longest_back_edge_cycle(g)

    q_vs = [hit]
    q_es: list[int] = []
    cur = hit
    while parent[cur] is not None:
        prev, eid = parent[cur]
        q_vs.append(prev)
        q_es.append(eid)
        cur = prev
    q_vs.reverse()  # X endpoint first
    q_es.reverse()

    pos = {v: i for i, v in enumerate(path)}
    ix, iz = pos[q_vs[0]], pos[hit]
    cyc_vs = tuple(path[ix : iz + 1]) + tuple(reversed(q_vs[1:-1]))
    cyc_es = tuple(path_e[ix + 1 : iz + 1]) + tuple(reversed(q_es))
    return Cycle(cyc_vs, cyc_es)


def _drop_cycle(
    nbrs: dict[int, list[int]],
    eids: dict[int, list[int]],
    alive: set[int],
    cyc: Cycle,
    ptr: list[int] | dict[int, int] | None = None,
) -> None:
    """Remove a cycle's edges from the live arrays and from alive.

    Each cycle vertex loses the entries of its two cycle neighbours.  The
    neighbour lists stay sorted, so each entry is found by bisection and
    deleted in place from both lists, the later one first.  A scan position
    in ptr moves back by the number of entries deleted before it, so it
    still names the same next live entry.
    """
    vs = cyc.vertices
    for x, y, z in zip(vs, vs[-1:] + vs[:-1], vs[1:] + vs[:1]):
        nb, eb = nbrs[x], eids[x]
        ky = bisect_left(nb, y)
        kz = bisect_left(nb, z)
        if ky < kz:
            del nb[kz], nb[ky], eb[kz], eb[ky]
        else:
            del nb[ky], nb[kz], eb[ky], eb[kz]
        if ptr is not None:
            p = ptr[x]
            ptr[x] = p - (ky < p) - (kz < p)
    alive.difference_update(cyc.edge_ids)


def _per_vertex(g: Graph, value: int) -> list[int] | dict[int, int]:
    """A table holding value for every vertex of g, indexed by vertex id.

    A list over the host's ids is the fastest to index, but costs time in
    the host's size; below a sixteenth of the host, where a part of a large
    graph is swept, a dict over g's own vertices costs less to build.
    """
    if 16 * g.n >= g.host_n:
        return [value] * g.host_n
    return dict.fromkeys(g.vertices, value)


def _back_edge_pass(
    g: Graph,
    nbrs: dict[int, list[int]],
    eids: dict[int, list[int]],
    alive: set[int],
    min_len: int,
    out: list[Cycle],
) -> int:
    """One DFS sweep extracting qualifying back-edge cycles in place.

    nbrs and eids are the live arrays: per vertex, the neighbours in
    ascending order and the edge ids beside them.  Every extracted cycle
    leaves them at once, so a sweep scans live entries only.  One depth
    table marks each vertex unvisited (-1), finished (-2) or on the stack
    at that depth; the edge to the parent closes a 2-cycle, below any
    min_len >= 3, so it needs no test of its own; while the stack holds
    fewer than min_len vertices no neighbour on it can close a cycle that
    long, so the scan only looks for an unvisited one.  Per-vertex scan
    pointers move forward (a deleted entry behind a pointer pulls it back
    one place), so a full pass is near-linear in the live edges; cycles
    missed because their stack was truncated are picked up by later
    passes.  A finished vertex stays finished for the rest of the pass,
    and a cycle is only taken from a stack of at least min_len unfinished
    vertices, so the pass returns once fewer than min_len of g's vertices
    are unfinished: the rest of it could neither take a cycle nor delete
    an edge, so the cycles, alive and the arrays are those of the full
    sweep.
    """
    found = 0
    depth = _per_vertex(g, -1)
    ptr = _per_vertex(g, 0)
    left = g.n  # vertices not yet finished
    for root in g.vertex_list():
        if depth[root] != -1:
            continue
        stack_v = [root]
        stack_e: list[Optional[int]] = [None]
        depth[root] = 0
        top = 1
        while stack_v:
            v = stack_v[-1]
            nb = nbrs[v]
            end = len(nb)
            i = ptr[v]
            lim = top - min_len  # an ancestor at depth <= lim closes a long cycle
            if lim < 0:  # no ancestor can
                while i < end and depth[nb[i]] != -1:
                    i += 1
            while i < end:
                w = nb[i]
                j = depth[w]
                if j == -1:
                    ptr[v] = i + 1
                    depth[w] = top
                    stack_v.append(w)
                    stack_e.append(eids[v][i])
                    top += 1
                    break
                if 0 <= j <= lim:
                    cyc = Cycle(tuple(stack_v[j:]), tuple(stack_e[j + 1 :]) + (eids[v][i],))
                    out.append(cyc)
                    _drop_cycle(nbrs, eids, alive, cyc, ptr)
                    found += 1
                    # unmark the consumed vertices so this pass can descend
                    # through them again along surviving edges
                    for t in range(j + 1, top):
                        depth[stack_v[t]] = -1
                    del stack_v[j + 1 :]
                    del stack_e[j + 1 :]
                    top = j + 1
                    break
                i += 1
            else:
                ptr[v] = end
                stack_v.pop()
                stack_e.pop()
                depth[v] = -2
                top -= 1
                left -= 1
                if left < min_len:
                    return found
    return found


def peel_long_cycles(g: Graph, min_len: int) -> tuple[list[Cycle], Graph]:
    """Greedily extract edge-disjoint cycles of length >= min_len.

    Each round tries the DFS long-cycle finder once, then runs back-edge
    sweeps until they stop producing; rounds repeat until neither search
    finds anything.  Maximality is relative to these searches (a second peel
    of the residual returns no cycles).  The finder and the sweeps read
    ``g.arrays_copy()``: per vertex, the neighbours in ascending order and
    the edge ids beside them.  Every cycle's edges are deleted from them as
    it is taken, and the residual carries the final arrays as its own.
    The last finder call is made on the final live edges, so the residual
    carries its answer as ``found``; a peel of a graph that carries one
    takes it in place of its first finder call, and returns at once when
    it says that the graph is acyclic.
    """
    if min_len < 3:
        raise ValueError("min_len must be at least 3")
    carried = g.found
    if g.n < min_len or (carried is not None and carried[0] is None):
        return [], g  # no room for a cycle that long, or no cycle at all
    arrays = nbrs, eids = g.arrays_copy()
    alive = set(g.edge_ids)
    cycles: list[Cycle] = []
    swept = False
    while True:
        if carried is None:
            # the view wraps alive, so it describes its edges only until
            # the next cycle is dropped
            cyc = find_long_cycle_dfs(Graph(g.host_n, g.edge_table, g.vertices, alive, arrays))
        else:
            cyc = carried[0]
            carried = None
            if not alive.issuperset(cyc.edge_ids):
                raise RuntimeError(f"carried cycle through {cyc.vertices[:3]} is not live")
        progress = cyc is not None and len(cyc.edge_ids) >= min_len
        if progress:
            cycles.append(cyc)
            _drop_cycle(nbrs, eids, alive, cyc)
        elif swept:
            # nothing changed since the last sweep, which found nothing
            break
        while _back_edge_pass(g, nbrs, eids, alive, min_len, cycles):
            progress = True
        if not progress:
            break
        swept = True
    # both exits follow a finder answer with nothing dropped after it
    return cycles, Graph(g.host_n, g.edge_table, g.vertices, frozenset(alive), arrays, (cyc,))


def eulerian_cycle_decompose(g: Graph) -> list[Cycle]:
    """Partition an even-degree graph's edges into simple cycles.

    The cycles of ``well_spread_path_cycle_decompose``, which with no odd
    vertex to pair takes one closed Euler circuit per component and excises
    cycles at first vertex repeats, so every edge lands in exactly one
    simple cycle.  Raises ValueError when some vertex has odd degree.
    """
    odd = sorted(v for v, d in g.degrees().items() if d % 2)
    if odd:
        raise ValueError(f"odd-degree vertices present: {odd[:5]}")
    res = well_spread_path_cycle_decompose(g)
    if res.paths:
        raise RuntimeError(f"closed walk left an open path at {res.paths[0].ends}")
    return list(res.cycles)
