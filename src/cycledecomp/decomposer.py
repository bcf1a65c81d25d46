"""Decompose graphs into expander parts, and split expander edges into k parts.

Two operations: a recursive almost-decomposition that carves out violating
sets until every remaining part looks like an expander, and a seeded uniform
edge-split with verification and resampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .expansion import (
    ExpanderParams,
    ExpanderVerdict,
    TheoremViolation,
    certify_expander,
)
from .graph import Graph, neighborhood


@dataclass(frozen=True)
class AlmostDecomposeResult:
    """Parts plus removed edges; parts ∪ removed partition E(G) exactly."""

    parts: tuple[Graph, ...]
    removed: frozenset[int]
    certified: tuple[bool, ...]  # per part: proven an expander?
    max_depth: int

    def part_sizes(self) -> list[int]:
        return [p.n for p in self.parts]


def almost_decompose_into_expanders(
    g: Graph,
    p: ExpanderParams,
    *,
    cap: int = 20,
    seed: int = 0,
) -> AlmostDecomposeResult:
    """Recursively split g along expansion violations.

    At each node: disconnected graphs recurse per component (batched form of
    the violation U = smallest component, F = empty).  Otherwise a violation
    (U, F) is searched heuristically, with an exhaustive fallback when the
    part fits under ``cap``; finding one splits the node into
    G1 = G[U ∪ N_{G-F}(U)] - F and G2 = G∖U - E(G1) - F with F removed, and
    both sides recurse.  Parts where no violation is found are emitted,
    tagged certified when the exhaustive pass vouched for them or when
    connectivity alone proves them expanders.

    When ``p.connectivity_only(n)`` holds for every component's order n
    (zero removal budget, unit thresholds: epsilon 2^-5 with s = 0 up to n
    of about 8000), being an expander means being connected, so the
    components are emitted as certified parts at once, without asking a
    certifier.

    When ``p.every_set_violates`` holds for a part's maximum degree (a
    removal budget per vertex of at least that degree: the paper's
    s = log2(n)^273 at every n), only single vertices are expanders, so the
    part is emitted at once as one edgeless, certified part per vertex, in
    vertex order, and all its edges are removed.  The budget test comes
    first, so zero-budget parameters never count degrees for it.

    Asserted on return: exact edge partition, Σ|parts| <= 2n, recursion
    depth <= n, and removed = ∅ whenever s = 0.
    """
    parts: list[Graph] = []
    certified: list[bool] = []
    removed: set[int] = set()
    max_depth = 0
    n_top = max(g.n, 1)

    stack: list[tuple[Graph, int]] = [(g, 0)]
    while stack:
        cur, depth = stack.pop()
        max_depth = max(max_depth, depth)
        if depth > n_top:
            raise TheoremViolation("almost-decomposition recursion exceeded n levels")
        if cur.n == 0:
            continue
        if p.budget(1) > 0 and p.every_set_violates(max(cur.degrees().values())):
            # only single vertices are expanders: every edge goes
            parts.extend(cur.subview(vertices=(v,), edge_ids=()) for v in cur.vertex_list())
            certified.extend([True] * cur.n)
            removed |= cur.edge_ids
            max_depth = max(max_depth, depth + (cur.n > 1))
            continue
        comps = cur.components()
        split = [cur.component(comp) for comp in comps]
        if all(p.connectivity_only(len(comp)) for comp in comps):
            # every component is an expander as it stands
            parts.extend(split)
            certified.extend([True] * len(split))
            max_depth = max(max_depth, depth + (len(split) > 1))
            continue
        if len(split) > 1:
            stack.extend((part, depth + 1) for part in reversed(split))
            continue

        violation = _find_violation(cur, p, cap=cap, seed=seed)
        if violation is None:
            parts.append(cur)
            certified.append(cur.n <= cap or p.connectivity_only(cur.n))
            continue
        U, F = violation
        X = U | neighborhood(cur, U, F)
        if len(X) >= cur.n:
            # no progress possible; only reachable with thresholds far outside
            # the regime the decomposition argument covers
            parts.append(cur)
            certified.append(False)
            continue
        g1 = cur.subview(vertices=X).without_edges(F)
        g2 = cur.subview(vertices=cur.vertices - U).without_edges(set(g1.edge_ids) | F)
        removed |= F
        stack.append((g2, depth + 1))
        stack.append((g1, depth + 1))

    result = AlmostDecomposeResult(
        parts=tuple(parts),
        removed=frozenset(removed),
        certified=tuple(certified),
        max_depth=max_depth,
    )
    _assert_almost_decompose_guarantees(g, p, result)
    return result


def _assert_almost_decompose_guarantees(
    g: Graph, p: ExpanderParams, r: AlmostDecomposeResult
) -> None:
    covered: set[int] = set(r.removed)
    total = len(r.removed)
    for part in r.parts:
        total += part.m
        covered |= part.edge_ids
    if total != g.m or covered != set(g.edge_ids):
        raise TheoremViolation("parts plus removed do not partition E(G) exactly")
    if sum(part.n for part in r.parts) > 2 * g.n:
        raise TheoremViolation("sum of part orders exceeded 2n")
    if p.s == 0 and r.removed:
        raise TheoremViolation("s=0 must yield a full decomposition, removed nonempty")
    n = g.n
    if n >= 2 and len(r.removed) > 4 * p.s * n * math.log2(n):
        raise TheoremViolation("removed set exceeded 4*s*n*log(n)")


def _find_violation(
    g: Graph, p: ExpanderParams, *, cap: int, seed: int
) -> Optional[tuple[set[int], set[int]]]:
    """Heuristic search first; exhaustive fallback under the cap.  Both
    modes get cap and seed, and each ignores the one it does not use."""
    for mode in ("heuristic", "exhaustive") if g.n <= cap else ("heuristic",):
        v = certify_expander(g, p, mode=mode, cap=cap, seed=seed)
        if not v.is_expander:
            U, F = v.violation
            return set(U), set(F)
    return None


# -- edge splitting ---------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    parts: tuple[Graph, ...]
    attempts: int
    target: ExpanderParams
    verdicts: tuple[Optional[ExpanderVerdict], ...]


class SplitFailure(RuntimeError):
    """Retry cap exhausted; carries the failing part and its witness."""

    def __init__(self, attempts: int, failing_part: Graph, verdict: ExpanderVerdict):
        super().__init__(
            f"edge split failed verification after {attempts} attempts "
            f"(failing part has m={failing_part.m})"
        )
        self.attempts = attempts
        self.failing_part = failing_part
        self.verdict = verdict


def split_target_params(p: ExpanderParams, k: int, n: int) -> ExpanderParams:
    """Relaxed parameters each split part is checked against: (ε/4, s')."""
    log_n = max(1.0, math.log2(max(n, 2)))
    s_prime = math.sqrt(p.s * p.epsilon) / (8 * k * log_n)
    return ExpanderParams(
        epsilon=p.epsilon / 4,
        s=s_prime,
        denominator=p.denominator,
        denominator_const=p.denominator_const,
    )


# sampled assignments tried before a split fails
SPLIT_RETRY_CAP = 32


def split_expander_edges(
    g: Graph,
    p: ExpanderParams,
    k: int,
    rng_seed: int,
    *,
    check: str = "auto",
    cap: int = 20,
) -> SplitResult:
    """Assign each edge of g independently uniformly to one of k parts.

    All parts share V(g); edge sets partition E(g).  Each part is verified
    against the relaxed target (ε/4, s') — exhaustively when the graph fits
    under ``cap``, heuristically otherwise — and the whole assignment is
    resampled on failure, up to ``SPLIT_RETRY_CAP`` attempts (reported).  With
    ``check="none"`` the first sample is accepted unverified.

    Raises :class:`SplitFailure` if no attempt verifies.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if check not in ("auto", "exhaustive", "heuristic", "none"):
        raise ValueError(f"unknown check mode {check!r}")
    target = split_target_params(p, k, g.n)
    rng = random.Random(rng_seed)
    eids = g.edge_id_list()

    last_fail: Optional[tuple[Graph, ExpanderVerdict]] = None
    for attempt in range(1, SPLIT_RETRY_CAP + 1):
        buckets: list[list[int]] = [[] for _ in range(k)]
        for eid in eids:
            buckets[rng.randrange(k)].append(eid)
        parts = tuple(g.subview(edge_ids=b) for b in buckets)
        if check == "none" or g.m == 0:
            return SplitResult(parts, attempt, target, (None,) * k)
        mode = check
        if mode == "auto":
            mode = "exhaustive" if g.n <= cap else "heuristic"
        verdicts = []
        ok = True
        for part in parts:
            v = certify_expander(part, target, mode=mode, cap=cap, seed=rng_seed)
            verdicts.append(v)
            if not v.is_expander:
                ok = False
                last_fail = (part, v)
                break
        if ok:
            return SplitResult(parts, attempt, target, tuple(verdicts))
    raise SplitFailure(SPLIT_RETRY_CAP, *last_fail)
