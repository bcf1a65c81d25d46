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
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph, neighborhood, robust_neighborhood


# greedy-growth roots of the heuristic certifier: half lowest-degree, half random
HEURISTIC_SEEDS = 8


class CapacityError(ValueError):
    """Exhaustive certification requested beyond the configured cap."""


class TheoremViolation(AssertionError):
    """A certified-expander guarantee failed empirically; carries the witness."""


@dataclass(frozen=True)
class ExpanderParams:
    """Expansion parameters: epsilon in (0,1], finite robustness budget s >= 0.

    ``denominator`` selects the threshold denominator as a function of the
    live vertex count: "log2sq" gives max(1, log2(n)^2); "const" gives the
    fixed ``denominator_const``, which must be finite and positive.
    """

    epsilon: float
    s: float
    denominator: str = "log2sq"
    denominator_const: float = 1.0

    def __post_init__(self):
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0 <= self.s < math.inf:
            raise ValueError("s must be finite and nonnegative")
        if self.denominator not in ("log2sq", "const"):
            raise ValueError("denominator must be 'log2sq' or 'const'")
        if not 0 < self.denominator_const < math.inf:
            raise ValueError("denominator_const must be finite and positive")

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


@dataclass(frozen=True)
class ExpanderVerdict:
    is_expander: bool
    certified: bool
    mode: str
    params: ExpanderParams
    violation: Optional[tuple[frozenset[int], frozenset[int]]] = None
    subsets_checked: int = 0

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


@dataclass(frozen=True)
class DichotomyOutcome:
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
    Uset = set(U)
    if not Uset:
        raise ValueError("U must be nonempty")
    if not Uset <= g.vertices:
        raise ValueError("U must consist of live vertices")
    nbrs, eids = g.arrays()
    into_u: dict[int, list[int]] = {}
    for u in Uset:
        for w, eid in zip(nbrs[u], eids[u]):
            if w not in Uset:
                into_u.setdefault(w, []).append(eid)
    order = sorted(into_u.items(), key=lambda kv: (len(kv[1]), kv[0]))
    F: set[int] = set()
    survivors = set(into_u)
    remaining = budget
    for w, eids in order:
        if len(eids) > remaining:
            break  # costs ascend; nothing cheaper is left
        remaining -= len(eids)
        F.update(eids)
        survivors.discard(w)
    return F, survivors


def _min_survivors(Uset: set[int], budget: int, nbrs: dict[int, list[int]]) -> int:
    """Survivor count after optimal deletion; inner loop of certification."""
    costs: dict[int, int] = {}
    for u in Uset:
        for w in nbrs[u]:
            if w not in Uset:
                costs[w] = costs.get(w, 0) + 1
    return _survivors_from_counts(costs, budget)


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
    ``CapacityError``, except when ``p.connectivity_only(n)`` lets a
    component count give the same answer at any size, or a survivor
    threshold of at most 0 lets no set violate.  Heuristic mode
    searches candidate U via connected components, low-degree greedy growth,
    BFS prefix cuts, and random seeds; a true verdict only means "no
    violation found".
    """
    if mode == "exhaustive":
        return _certify_exhaustive(g, p, cap)
    if mode == "heuristic":
        return _certify_heuristic(g, p, seed)
    raise ValueError(f"unknown mode {mode!r}")


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


def _certify_exhaustive(g: Graph, p: ExpanderParams, cap: int) -> ExpanderVerdict:
    n = g.n
    if p.connectivity_only(n):
        return _certify_by_components(g, p)
    max_size = (2 * n) // 3
    if p.threshold(max_size, n) <= 0:
        # the threshold only grows with |U|, so no set leaves fewer survivors
        return ExpanderVerdict(
            is_expander=True, certified=True, mode="exhaustive", params=p,
            subsets_checked=_subset_count(n, max_size),
        )
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
            if _min_survivors(Uset, budget, nbrs) < thresh:
                F, _ = worst_case_frontier(g, Uset, budget)
                return ExpanderVerdict(
                    is_expander=False,
                    certified=True,
                    mode="exhaustive",
                    params=p,
                    violation=(frozenset(Uset), frozenset(F)),
                    subsets_checked=checked,
                )
    return ExpanderVerdict(
        is_expander=True, certified=True, mode="exhaustive", params=p,
        subsets_checked=checked,
    )


def _subset_count(n: int, top: int) -> int:
    """Number of subsets of an n-set with 1 <= size <= top."""
    total = 0
    c = 1
    for k in range(top):
        c = c * (n - k) // (k + 1)  # C(n, k + 1), exactly
        total += c
    return total


def _subsets_after(a: list[int], n: int) -> int:
    """Subsets of range(n) of size len(a) >= 1 lexicographically after a.

    For sorted indices a_0 < ... < a_{k-1} that is sum_i C(n - 1 - a_i, k - i).
    The terms are walked from the last index to the first, each obtained
    from the one before by unit steps of the binomial recurrences, so the
    whole sum costs O(n) big-integer steps.
    """
    N = n - 1 - a[-1]
    r = 1
    c = N  # C(N, r); N >= r - 1 holds throughout, so c = 0 only when N = r - 1
    after = c
    for i in range(len(a) - 2, -1, -1):
        for _ in range(a[i + 1] - a[i]):
            N += 1
            c = 1 if N == r else c * N // (N - r)  # C(N, r) from C(N - 1, r)
        c = c * (N - r) // (r + 1)  # C(N, r + 1) from C(N, r)
        r += 1
        after += c
    return after


def _certify_by_components(g: Graph, p: ExpanderParams) -> ExpanderVerdict:
    """Exhaustive verdict in the connectivity-only regime, without enumerating.

    Every union of components is at least as large as the smallest one, so
    the first violation the enumeration reaches (size ascending, then
    lexicographic) is the smallest component, ties to the lowest first
    vertex, with F empty.  ``subsets_checked`` is what the enumeration would
    have counted: every smaller subset, plus the witness's lexicographic
    position among subsets of its size.
    """
    n = g.n
    max_size = (2 * n) // 3
    smallest = min(g.components(), key=len, default=[])
    if not 1 <= len(smallest) <= max_size:
        return ExpanderVerdict(
            is_expander=True, certified=True, mode="exhaustive", params=p,
            subsets_checked=_subset_count(n, max_size),
        )
    index = {v: i for i, v in enumerate(g.vertex_list())}
    after = _subsets_after([index[v] for v in smallest], n)
    return ExpanderVerdict(
        is_expander=False,
        certified=True,
        mode="exhaustive",
        params=p,
        violation=(frozenset(smallest), frozenset()),
        subsets_checked=_subset_count(n, len(smallest)) - after,
    )


def _certify_heuristic(g: Graph, p: ExpanderParams, seed: int) -> ExpanderVerdict:
    n = g.n
    checked = 0
    if n < 2:
        return ExpanderVerdict(True, False, "heuristic", p, subsets_checked=0)
    nbrs = g.arrays()[0]
    max_size = (2 * n) // 3

    def violates(Uset: set[int]) -> bool:
        nonlocal checked
        size = len(Uset)
        if not (1 <= size <= max_size):
            return False
        checked += 1
        return _min_survivors(Uset, p.budget(size), nbrs) < p.threshold(size, n)

    def verdict_for(Uset: set[int]) -> ExpanderVerdict:
        F, _ = worst_case_frontier(g, Uset, p.budget(len(Uset)))
        return ExpanderVerdict(
            is_expander=False,
            certified=False,
            mode="heuristic",
            params=p,
            violation=(frozenset(Uset), frozenset(F)),
            subsets_checked=checked,
        )

    # (b) components: any component within size range has empty neighborhood
    comps = g.components()
    if len(comps) > 1:
        smallest = min(comps, key=len)
        if violates(set(smallest)):
            return verdict_for(set(smallest))

    if p.connectivity_only(n):
        # a violation is exactly a set with no outside neighbors, i.e. a
        # disconnection, and the component check above already looked
        return ExpanderVerdict(
            is_expander=True, certified=False, mode="heuristic", params=p,
            subsets_checked=checked,
        )

    degs = g.degrees()
    by_degree = sorted(g.vertices, key=lambda v: (degs[v], v))

    # (b) BFS prefix cuts from low-degree roots, boundary counts maintained
    # incrementally; every size is tried on small graphs, geometric
    # checkpoints on large ones
    eval_all = n <= 256
    for root in by_degree[:2]:
        order = []
        seen = {root}
        frontier = [root]
        while frontier:
            order.extend(sorted(frontier))
            nxt = []
            for a in sorted(frontier):
                for b in nbrs[a]:
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        prefix: set[int] = set()
        cnt: dict[int, int] = {}
        next_check = 1
        for v in order:
            prefix.add(v)
            cnt.pop(v, None)
            for w in nbrs[v]:
                if w not in prefix:
                    cnt[w] = cnt.get(w, 0) + 1
            size = len(prefix)
            if size > max_size:
                break
            if not eval_all and size < next_check:
                continue
            next_check = max(size + 1, int(size * 1.25))
            checked += 1
            if _survivors_from_counts(cnt, p.budget(size)) < p.threshold(size, n):
                return verdict_for(set(prefix))

    # (a)+(c) greedy growth from low-degree and random seeds
    rng = random.Random(seed)
    seeds = by_degree[: HEURISTIC_SEEDS // 2]
    pool = g.vertex_list()
    while len(seeds) < HEURISTIC_SEEDS and pool:
        seeds.append(pool[rng.randrange(len(pool))])
    step_cap = min(max_size, 96)
    for root in seeds:
        Uset = {root}
        if violates(Uset):
            return verdict_for(Uset)
        bnd: dict[int, int] = {}
        for w in nbrs[root]:
            bnd[w] = bnd.get(w, 0) + 1
        for _ in range(step_cap - 1):
            if not bnd:
                break
            # prefer swallowing the neighbor that adds fewest fresh neighbors
            cands = sorted(bnd.items(), key=lambda kv: (-kv[1], kv[0]))[:24]
            best, best_fresh = None, None
            for v, _ in cands:
                fresh = sum(1 for w in nbrs[v] if w not in Uset and w not in bnd)
                if best_fresh is None or fresh < best_fresh:
                    best, best_fresh = v, fresh
            v = best
            Uset.add(v)
            del bnd[v]
            for w in nbrs[v]:
                if w not in Uset:
                    bnd[w] = bnd.get(w, 0) + 1
            if len(Uset) > max_size:
                break
            if violates(set(Uset)):
                return verdict_for(set(Uset))
    return ExpanderVerdict(
        is_expander=True, certified=False, mode="heuristic", params=p,
        subsets_checked=checked,
    )


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
    Uset = set(U)
    if not Uset:
        raise ValueError("U must be nonempty")
    if not Uset <= g.vertices:
        raise ValueError("U must consist of live vertices")
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
