"""Robust sublinear expansion: certification and the tools built on it.

A graph is an (epsilon, s)-expander when every vertex set U with
1 <= |U| <= 2n/3 keeps at least epsilon*|U|/denominator(n) external
neighbors after any s*|U| edges are removed.  The certifier solves the
inner minimization exactly (cheapest whole neighbors first), so exhaustive
mode is a true certificate; heuristic mode only reports "no violation
found" and is labelled non-certifying.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from typing import Iterable, NamedTuple, Optional

from .graph import Graph, _Checked, _check_sets, _edges_into, neighborhood, robust_neighborhood


# greedy-growth roots of the heuristic certifier: half lowest-degree, half random
HEURISTIC_SEEDS = 8


class CapacityError(ValueError):
    """Exhaustive certification requested beyond the configured cap."""


class TheoremViolation(AssertionError):
    """A certified-expander guarantee failed empirically; carries the witness."""


class _ExpanderParamsFields(NamedTuple):
    epsilon: float
    s: float
    denominator: str = "log2sq"
    denominator_const: float = 1.0


class ExpanderParams(_Checked, _ExpanderParamsFields):
    """Expansion parameters: epsilon in (0,1], finite robustness budget s >= 0.

    ``denominator`` selects the threshold denominator as a function of the
    live vertex count: "log2sq" gives max(1, log2(n)^2); "const" gives the
    fixed ``denominator_const``, which must be finite and positive.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0 <= self.s < math.inf:
            raise ValueError("s must be finite and nonnegative")
        if self.denominator not in ("log2sq", "const"):
            raise ValueError("denominator must be 'log2sq' or 'const'")
        if not 0 < self.denominator_const < math.inf:
            raise ValueError("denominator_const must be finite and positive")
        return self

    def denominator_value(self, n: int) -> float:
        if self.denominator == "log2sq":
            if n < 2:
                return 1.0
            return max(1.0, math.log2(n) ** 2)
        return self.denominator_const

    def threshold(self, u_size: int, n: int) -> int:
        """Integer survivor threshold: ceil(epsilon*|U|/denominator(n))."""
        return math.ceil(self.epsilon * u_size / self.denominator_value(n))

    def budget(self, u_size: int) -> int:
        """floor(s*|U|), saturating at the largest float where that overflows."""
        return math.floor(min(self.s * u_size, sys.float_info.max))

    def connectivity_only(self, n: int) -> bool:
        """True when (epsilon, s)-expansion on n vertices is just connectivity.

        That is the case when the removal budget is 0 at |U| = floor(2n/3)
        and the survivor threshold is 1 at every size: at least 1 at |U| = 1
        and at most 1 at |U| = floor(2n/3), as both only grow with |U|.  A
        violation is then exactly a nonempty union of components of at most
        2n/3 vertices.  A threshold that underflows to 0 lets no set violate.
        """
        max_size = (2 * n) // 3
        return (
            self.budget(max_size) == 0
            and self.threshold(1, n) >= 1
            and self.threshold(max_size, n) <= 1
        )

    def every_set_violates(self, max_degree: int) -> bool:
        """True when every U with 1 <= |U| <= 2n/3 is a violation.

        That is the case when budget(1) is at least the graph's maximum
        degree: U has at most |U| * max_degree outside edges, budget(|U|) can
        delete all of them, and no survivor is left under a threshold of at
        least 1.  The only expanders are then single vertices, so the split
        ends in edgeless singletons with every edge removed.  The paper's
        s = log2(n)^273 (saturating past n of about 11,290) makes budget(1)
        at least n - 1 at every n.
        """
        return self.budget(1) >= max_degree


class ExpanderVerdict(NamedTuple):
    mode: str
    params: ExpanderParams
    violation: Optional[tuple[frozenset[int], frozenset[int]]]
    subsets_checked: int  # the vertex sets this call tested

    @property
    def is_expander(self) -> bool:
        return self.violation is None

    @property
    def certified(self) -> bool:
        return self.mode == "exhaustive"

    def reverify(self, g: Graph) -> bool:
        """Re-evaluate the reported violation definitionally on g."""
        if self.violation is None:
            return False
        U, F = self.violation
        if len(F) > self.params.s * len(U):
            return False
        if not (1 <= len(U) <= math.floor(2 * g.n / 3)):
            return False
        survivors = neighborhood(g, U, F)
        return len(survivors) < self.params.threshold(len(U), g.n)


class DichotomyOutcome(NamedTuple):
    case: str  # "WellExpanding" or "RobustNeighborhood"
    neighbor_count: int = 0
    robust_set: frozenset[int] = frozenset()


# -- worst-case frontier -------------------------------------------------------


def worst_case_frontier(
    g: Graph, U: Iterable[int], budget: int
) -> tuple[set[int], set[int]]:
    """Exact adversary for Defn-style expansion: delete at most ``budget``
    edges to minimize the surviving external neighborhood of U.

    Removing a neighbor from N(U) forces deleting all its edges into U, so
    the minimum survivor count is achieved by deleting whole neighbors in
    ascending order of their U-edge count (ties: lowest vertex id).
    Returns (deleted edge ids, surviving neighbors).
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    order = sorted(_edges_into(g, U).items(), key=lambda kv: (len(kv[1]), kv[0]))
    kill = len(order) - _survivors_from_counts({w: len(ids) for w, ids in order}, budget)
    F = {eid for _, ids in order[:kill] for eid in ids}
    return F, {w for w, _ in order[kill:]}


# -- certification ---------------------------------------------------------------


def certify_expander(
    g: Graph,
    p: ExpanderParams,
    mode: str = "exhaustive",
    *,
    cap: int = 20,
    seed: int = 0,
) -> ExpanderVerdict:
    """Test the (epsilon, s)-expansion property of g.

    Exhaustive mode iterates every U with 1 <= |U| <= floor(2n/3) (size
    ascending, then lexicographic), solves the inner minimization exactly,
    and is a certificate either way; it refuses n > ``cap`` with
    ``CapacityError``, except when ``p.connectivity_only(n)`` lets a test
    of the smallest component give the same answer at any size, or a
    survivor threshold of at most 0 lets no set violate.  Heuristic mode
    searches candidate U via connected components, low-degree greedy growth,
    BFS prefix cuts, and random seeds; a true verdict only means "no
    violation found".

    Each certifier returns its violating U, or None, and the vertex sets
    this call tested; the verdict is built here alone, its F the
    adversary's deletions for U.
    """
    if mode == "exhaustive":
        U, checked = _certify_exhaustive(g, p, cap)
    elif mode == "heuristic":
        U, checked = _certify_heuristic(g, p, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    violation = None
    if U is not None:
        violation = (frozenset(U), frozenset(worst_case_frontier(g, U, p.budget(len(U)))[0]))
    return ExpanderVerdict(mode, p, violation, checked)


def _survivors_from_counts(cnt: dict[int, int], budget: int) -> int:
    """Neighbors left after greedily deleting whole cheapest neighbors."""
    if budget <= 0:
        return len(cnt)
    kill = 0
    for c in sorted(cnt.values()):
        if budget < c:
            break
        budget -= c
        kill += 1
    return len(cnt) - kill


def _component_violation(g: Graph, p: ExpanderParams) -> tuple[Optional[set[int]], int]:
    """Test g's smallest component as U, ties to the lowest first vertex.

    It is tested only when g has at least 2 components, so it holds at most
    n/2 <= floor(2n/3) vertices; having no outside neighbour, it violates
    exactly when the threshold is above 0.  Returns U or None, and the sets
    tested, 0 or 1.
    """
    comps = g.components()
    if len(comps) < 2:
        return None, 0
    smallest = min(comps, key=len)
    if p.threshold(len(smallest), g.n) > 0:
        return set(smallest), 1
    return None, 1


def _certify_exhaustive(g: Graph, p: ExpanderParams, cap: int) -> tuple[Optional[set[int]], int]:
    """The enumeration's first violating U, or None, and the sets this call tested.

    In the connectivity regime a violation is a union of components, so the
    first one (size ascending, then lexicographic) is the smallest component.
    """
    n = g.n
    if p.connectivity_only(n):
        return _component_violation(g, p)
    max_size = (2 * n) // 3
    if p.threshold(max_size, n) <= 0:
        # the threshold only grows with |U|, so no set leaves fewer survivors
        return None, 0
    if n > cap:
        raise CapacityError(f"exhaustive certification capped at n={cap}, got {n}")
    verts = g.vertex_list()
    nbrs = g.arrays()[0]
    checked = 0
    for size in range(1, max_size + 1):
        budget = p.budget(size)
        thresh = p.threshold(size, n)
        for combo in itertools.combinations(verts, size):
            checked += 1
            Uset = set(combo)
            costs: dict[int, int] = {}
            for u in combo:
                for w in nbrs[u]:
                    if w not in Uset:
                        costs[w] = costs.get(w, 0) + 1
            if _survivors_from_counts(costs, budget) < thresh:
                return Uset, checked
    return None, checked


def _certify_heuristic(g: Graph, p: ExpanderParams, seed: int) -> tuple[Optional[set[int]], int]:
    """The search's first violating U, or None, and the vertex sets this call tested."""
    n = g.n
    nbrs = g.arrays()[0]
    max_size = (2 * n) // 3

    # (b) components; in the connectivity regime, which holds below 2
    # vertices, a violation is exactly a disconnection, so the search ends
    U, checked = _component_violation(g, p)
    if U is not None or p.connectivity_only(n):
        return U, checked

    def grow(root, pick, top, every):
        """Grow U from root by pick(U, cnt) up to top vertices, keeping cnt,
        U's edge count into each outside neighbour; U is tested from cnt at
        every size, or at x1.25 checkpoints, and returned once it violates."""
        nonlocal checked
        U: set[int] = set()
        cnt: dict[int, int] = {}
        next_check = 1
        v = root
        while v is not None and len(U) < top:
            U.add(v)
            cnt.pop(v, None)
            for w in nbrs[v]:
                if w not in U:
                    cnt[w] = cnt.get(w, 0) + 1
            size = len(U)
            if every or size >= next_check:
                next_check = max(size + 1, int(size * 1.25))
                checked += 1
                if _survivors_from_counts(cnt, p.budget(size)) < p.threshold(size, n):
                    return U
            v = pick(U, cnt)
        return None

    def layers(root):
        """BFS order from root, each layer sorted."""
        seen = {root}
        frontier = [root]
        while frontier:
            frontier.sort()
            yield from frontier
            nxt = []
            for a in frontier:
                for b in nbrs[a]:
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt

    def fewest_fresh(U, cnt):
        # swallow the neighbour, among those with most edges into U, that
        # adds fewest fresh neighbours
        best, best_fresh = None, None
        for v, _ in sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:24]:
            fresh = sum(1 for w in nbrs[v] if w not in U and w not in cnt)
            if best_fresh is None or fresh < best_fresh:
                best, best_fresh = v, fresh
        return best

    degs = g.degrees()
    by_degree = sorted(g.vertices, key=lambda v: (degs[v], v))

    # (b) BFS prefix cuts from low-degree roots; every size is tried on
    # small graphs, geometric checkpoints on large ones
    for root in by_degree[:2]:
        order = layers(root)
        U = grow(next(order), lambda U, cnt: next(order, None), max_size, n <= 256)
        if U is not None:
            return U, checked

    # (a)+(c) greedy growth from low-degree and random seeds
    rng = random.Random(seed)
    seeds = by_degree[: HEURISTIC_SEEDS // 2]
    pool = g.vertex_list()
    while len(seeds) < HEURISTIC_SEEDS and pool:
        seeds.append(pool[rng.randrange(len(pool))])
    for root in seeds:
        U = grow(root, fewest_fresh, min(max_size, 96), True)
        if U is not None:
            return U, checked
    return None, checked


# -- red/blue dichotomy -----------------------------------------------------------


def check_dichotomy(
    g: Graph,
    p: ExpanderParams,
    U: Iterable[int],
    F: Iterable[int],
    d: int,
) -> DichotomyOutcome:
    """Either U keeps many neighbors, or many vertices see U robustly.

    Evaluates case-a (|N_{G-F}(U)| >= s|U|/(2d)) then case-b
    (|N_{G-F,d}(U)| >= epsilon|U|/denominator(n)) and returns the first
    that holds.  Raises :class:`TheoremViolation` when neither does; that
    is a genuine fault only on graphs certified as (epsilon, s)-expanders.
    """
    Uset = set(U)
    Fset = set(F)
    n = g.n
    if len(Uset) > 2 * n / 3:
        raise ValueError("|U| must be at most 2n/3")
    if not (0 < d <= p.s):
        raise ValueError("d must satisfy 0 < d <= s")
    if len(Fset) > p.s * len(Uset) / 2:
        raise ValueError("|F| must be at most s|U|/2")
    nf = neighborhood(g, Uset, Fset)
    if len(nf) >= p.s * len(Uset) / (2 * d):
        return DichotomyOutcome(case="WellExpanding", neighbor_count=len(nf))
    robust = robust_neighborhood(g, Uset, Fset, d)
    if len(robust) >= p.epsilon * len(Uset) / p.denominator_value(n):
        return DichotomyOutcome(case="RobustNeighborhood", robust_set=frozenset(robust))
    raise TheoremViolation(
        f"neither dichotomy case holds for |U|={len(Uset)}, |F|={len(Fset)}, d={d} "
        f"(fault only if g was certified as ({p.epsilon},{p.s})-expander)"
    )


# -- well-expanding core ---------------------------------------------------------------


def extract_well_expanding_core(g: Graph, U: Iterable[int], tau: float) -> set[int]:
    """Greedy core: grow U' inside U while each addition keeps
    |N_G(U')| >= tau * |U'|; stop at single-addition maximality.

    The returned set always satisfies |N_G(U')| >= tau * |U'| (vacuous for
    the empty set, which is returned when no single vertex meets tau).
    """
    Uset, _ = _check_sets(g, U, ())
    adj = g.arrays()[0]
    core: set[int] = set()
    nbrs: set[int] = set()
    while True:
        need = (len(core) + 1) * tau
        added = False
        for v in sorted(Uset - core):
            gain = len(nbrs) - (1 if v in nbrs else 0)
            for w in adj[v]:
                if w not in nbrs and w not in core and w != v:
                    gain += 1
            if gain >= need:
                core.add(v)
                nbrs.discard(v)
                for w in adj[v]:
                    if w not in core:
                        nbrs.add(w)
                added = True
                break
        if not added:
            return core
