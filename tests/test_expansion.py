import itertools
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycledecomp.expansion import (
    CapacityError,
    DichotomyOutcome,
    ExpanderParams,
    TheoremViolation,
    certify_expander,
    check_dichotomy,
    extract_well_expanding_core,
    worst_case_frontier,
    _certify_heuristic,
)
from cycledecomp.graph import MAX_VERTICES, Graph, neighborhood, robust_neighborhood

from helpers import (
    brute_certify,
    brute_min_survivors,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    paper_params,
    path_graph,
    random_gnp,
    reference_certify,
    reference_certify_heuristic,
    reference_neighborhood,
    reference_robust_neighborhood,
    reference_worst_case_frontier,
    scattered_subview,
    star_graph,
)


# -- params ------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ExpanderParams(epsilon=0, s=1)
    with pytest.raises(ValueError):
        ExpanderParams(epsilon=1.5, s=1)
    with pytest.raises(ValueError):
        ExpanderParams(epsilon=1, s=-1)
    p = ExpanderParams(epsilon=1, s=1)
    assert p.denominator_value(4) == 4.0
    assert p.threshold(2, 4) == 1  # ceil(2/4)
    assert ExpanderParams(1, 1, "const", 1.0).threshold(5, 10) == 5


def test_params_reject_non_finite_s():
    # a guard, not an assert: it must hold under python -O too
    for s in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ExpanderParams(epsilon=0.5, s=s)


def test_params_reject_a_denominator_const_not_finite_and_positive():
    # a guard, not an assert: it must hold under python -O too
    for c in (math.nan, math.inf, -math.inf, 0.0, -5.0):
        with pytest.raises(ValueError, match="must be finite and positive"):
            ExpanderParams(epsilon=0.5, s=0.0, denominator="const", denominator_const=c)
    assert ExpanderParams(0.5, 0.0, "const", 1e-300).denominator_value(5) == 1e-300


def test_budget_saturates_instead_of_overflowing():
    p = ExpanderParams(epsilon=0.5, s=sys.float_info.max)
    top = math.floor(sys.float_info.max)
    assert p.budget(1) == p.budget(2) == p.budget(10 ** 6) == top
    assert ExpanderParams(epsilon=0.5, s=2.5).budget(3) == 7


# -- worst_case_frontier --------------------------------------------------------


def test_worst_frontier_c4_budget_one():
    g = cycle_graph(4)
    F, survivors = worst_case_frontier(g, {0}, 1)
    assert len(survivors) == 1 and len(F) == 1


def test_worst_frontier_c4_budget_two():
    g = cycle_graph(4)
    F, survivors = worst_case_frontier(g, {0}, 2)
    assert survivors == set() and len(F) == 2


def test_worst_frontier_budget_zero():
    g = complete_graph(5)
    F, survivors = worst_case_frontier(g, {0, 1}, 0)
    assert F == set() and survivors == neighborhood(g, {0, 1})


def test_worst_frontier_tie_break_lowest_id():
    # two neighbors with equal cost 1; budget for only one: lowest id goes
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    F, survivors = worst_case_frontier(g, {0}, 1)
    assert survivors == {2}
    assert F == {g.edge_id(0, 1)}


def test_worst_frontier_never_partial_deletes():
    # one neighbor with 2 parallel routes into U: budget 1 cannot remove it
    g = Graph.from_edges(3, [(0, 2), (1, 2)])
    F, survivors = worst_case_frontier(g, {0, 1}, 1)
    assert survivors == {2} and F == set()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_worst_frontier_matches_exhaustive_minimization(data):
    n = data.draw(st.integers(2, 6))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_gnp(rng, n, 0.55)
    verts = g.vertex_list()
    U = set(data.draw(st.sets(st.sampled_from(verts), min_size=1)))
    budget = data.draw(st.integers(0, 4))
    _, survivors = worst_case_frontier(g, U, budget)
    assert len(survivors) == brute_min_survivors(g, U, budget)


# every function that takes a vertex set U rejects it with the same words
VERTEX_SET_CHECKERS = {
    "worst_case_frontier": lambda g, U: worst_case_frontier(g, U, 1),
    "extract_well_expanding_core": lambda g, U: extract_well_expanding_core(g, U, 1.0),
    "neighborhood": lambda g, U: neighborhood(g, U),
}


@pytest.mark.parametrize("name", sorted(VERTEX_SET_CHECKERS))
@pytest.mark.parametrize("U, message", [
    ((), "U must be nonempty"),
    ((0, 3), "U must consist of live vertices"),  # vertex 3 is dead in the view
])
def test_vertex_set_messages(name, U, message):
    g = path_graph(4).subview(vertices=(0, 1, 2))
    with pytest.raises(ValueError) as exc:
        VERTEX_SET_CHECKERS[name](g, U)
    assert str(exc.value) == message


def test_worst_frontier_budget_checked_before_the_set():
    with pytest.raises(ValueError) as exc:
        worst_case_frontier(path_graph(4), (), -1)
    assert str(exc.value) == "budget must be nonnegative"


def _outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc), str(exc)


def test_boundary_walks_match_reference():
    """``neighborhood``, ``robust_neighborhood`` and ``worst_case_frontier``
    share one walk over U's boundary and one adversary; each is held to a
    copy that walked and deleted on its own, on views with gaps, U from one
    vertex to all of them, F from nothing to every edge at U, budgets from 0
    past U's edge count and d from 1 past U's largest count, and on invalid
    U, F, d and budget, which must raise the same error."""
    rng = random.Random(29)
    seen: Counter = Counter()
    cases = 0
    while cases < 1200:
        if rng.random() < 0.7:
            g = scattered_subview(rng)
        else:
            g = random_gnp(rng, rng.randint(1, 12), 0.5)
        verts = g.vertex_list()
        if not verts:
            continue
        cases += 1
        seen["gaps"] += verts[-1] - verts[0] + 1 > len(verts)
        size = rng.choice([1, len(verts), rng.randint(1, len(verts))])
        seen["U one vertex"] += size == 1
        seen["U all vertices"] += size == len(verts)
        U = set(rng.sample(verts, size))
        nbrs, eids = g.arrays()
        at_u = sorted({e for u in U for e in eids[u]})
        F = set(rng.sample(at_u, rng.choice([0, len(at_u), rng.randint(0, len(at_u))])))
        seen["F empty"] += not F
        seen["F every edge at U"] += bool(at_u) and len(F) == len(at_u)
        counts = Counter(w for u in U for w in nbrs[u] if w not in U)
        budget = rng.randint(0, sum(counts.values()) + 2)
        seen["budget 0"] += budget == 0
        seen["budget past U's edge count"] += budget > sum(counts.values())
        top = max(counts.values(), default=0)
        d = rng.randint(1, top + 1)
        seen["d 1"] += d == 1
        seen["d above U's largest count"] += d > top
        bad = rng.choice(["U", "F", "d", "budget"]) if rng.random() < 0.2 else None
        if bad == "U":
            U = rng.choice([set(), U | {g.host_n + rng.randint(0, 3)}])
        elif bad == "F":
            F = F | {len(g.edge_table) + rng.randint(0, 3)}
        elif bad == "d":
            d = rng.randint(-2, 0)
        elif bad == "budget":
            budget = rng.randint(-3, -1)
        for got, want in (
            (_outcome(neighborhood, g, U, F), _outcome(reference_neighborhood, g, U, F)),
            (_outcome(robust_neighborhood, g, U, F, d),
             _outcome(reference_robust_neighborhood, g, U, F, d)),
            (_outcome(worst_case_frontier, g, U, budget),
             _outcome(reference_worst_case_frontier, g, U, budget)),
        ):
            assert got == want, (g.fingerprint(), sorted(U), sorted(F), d, budget)
            if isinstance(want, tuple) and isinstance(want[0], type):
                seen[f"invalid: {want[1]}"] += 1
    assert min(seen.values()) >= 30 and len(seen) == 14, seen


# -- certify_expander ----------------------------------------------------------


def test_certify_c4_robustness_one_finds_pair_violation():
    # Defн-level truth: the adjacent pair loses both boundary edges within
    # budget 2 and keeps 0 < ceil(2/4) survivors, so the verdict is negative.
    g = cycle_graph(4)
    v = certify_expander(g, ExpanderParams(epsilon=1, s=1))
    assert not v.is_expander and v.certified
    U, F = v.violation
    assert len(U) == 2 and len(F) == 2
    assert v.reverify(g)
    assert not brute_certify(g, ExpanderParams(epsilon=1, s=1))


def test_certify_c4_half_budget_is_expander():
    g = cycle_graph(4)
    v = certify_expander(g, ExpanderParams(epsilon=1, s=0.5))
    assert v.is_expander and v.certified and v.violation is None
    assert brute_certify(g, ExpanderParams(epsilon=1, s=0.5))


def test_certify_c4_budget_two_kills_single_vertex():
    # matches the minimum-degree remark: delta(G) > s for any expander
    g = cycle_graph(4)
    v = certify_expander(g, ExpanderParams(epsilon=0.5, s=2))
    assert not v.is_expander
    U, F = v.violation
    assert U == frozenset({0})
    assert F == {g.edge_id(0, 1), g.edge_id(0, 3)}
    assert v.reverify(g)


def test_certify_single_vertex_trivially_true():
    g = Graph.from_edges(1, [])
    assert certify_expander(g, ExpanderParams(1, 1)).is_expander


def test_certify_k4_positive():
    v = certify_expander(complete_graph(4), ExpanderParams(1, 1))
    assert v.is_expander and v.certified


def test_certify_capacity_error_over_cap():
    g = complete_graph(6)
    with pytest.raises(CapacityError):
        certify_expander(g, ExpanderParams(1, 1), cap=5)


def test_certify_isomorphism_invariance():
    rng = random.Random(11)
    for _ in range(12):
        g = random_gnp(rng, rng.randint(3, 7), 0.5)
        p = ExpanderParams(rng.choice([0.25, 1.0]), rng.choice([0, 1, 2]))
        base = certify_expander(g, p).is_expander
        perm = list(range(g.host_n))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(
            g.host_n,
            [(perm[u], perm[v]) for u, v in (g.edge_table[e] for e in g.edge_ids)],
        )
        assert certify_expander(relabeled, p).is_expander == base


def test_certify_agrees_with_brute_on_random_graphs():
    rng = random.Random(23)
    for _ in range(20):
        g = random_gnp(rng, rng.randint(2, 6), 0.5)
        p = ExpanderParams(rng.choice([0.25, 0.5, 1.0]), rng.choice([0, 0.5, 1, 2]))
        assert certify_expander(g, p).is_expander == brute_certify(g, p)


# -- connectivity-only regime ----------------------------------------------------


def test_connectivity_only_predicate():
    eng = ExpanderParams(2**-5, 0.0)
    assert all(eng.connectivity_only(n) for n in (0, 1, 2, 20, 1024, 8000))
    assert not eng.connectivity_only(10**5)  # threshold 8 at |U| = 2n/3
    assert not ExpanderParams(2**-5, 1.0).connectivity_only(20)  # budget 13
    assert not ExpanderParams(1.0, 0.0, "const").connectivity_only(20)


def test_every_set_violates_predicate():
    assert ExpanderParams(2**-5, 3.0).every_set_violates(3)
    assert ExpanderParams(2**-5, 3.9).every_set_violates(3)
    assert not ExpanderParams(2**-5, 2.9).every_set_violates(3)
    paper = ExpanderParams(2**-5, sys.float_info.max, "const")
    assert paper.every_set_violates(10**6)
    # checked against the exhaustive adversary on small graphs
    rng = random.Random(5)
    for g in (path_graph(4), cycle_graph(5), complete_graph(4), random_gnp(rng, 6, 0.4)):
        deg = max(g.degrees().values())
        p = ExpanderParams(1.0, float(deg), "const")
        assert p.every_set_violates(deg)
        for size in range(1, (2 * g.n) // 3 + 1):
            for U in itertools.combinations(g.vertex_list(), size):
                assert brute_min_survivors(g, set(U), p.budget(size)) < p.threshold(size, g.n)


@pytest.mark.parametrize("n", [2, 3, 11_400, 2 ** 20, MAX_VERTICES])
def test_paper_budget_covers_every_degree(n):
    # past n of about 11,290, log2(n)^273 is no float and s saturates
    p = paper_params(n)
    assert p.every_set_violates(n - 1)
    assert p.threshold(1, n) == 1


def test_component_shortcut_matches_enumeration():
    """Both modes test only the smallest component: the enumeration's verdict
    and witness, and a count of 1 with a violation and 0 without."""
    p = ExpanderParams(2**-5, 0.0)
    rng = random.Random(31)
    cases = [Graph.from_edges(n, []) for n in (0, 1, 2)] + [path_graph(2)]
    cases.append(Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)]))
    for _ in range(320):
        n = rng.randint(3, 12)
        g = random_gnp(rng, n, rng.choice((0.1, 0.2, 0.35, 0.6)))
        if rng.random() < 0.4:
            # a subview whose live ids have gaps
            g = g.subview(vertices=rng.sample(range(n), rng.randint(1, n)))
        cases.append(g)
    seen = Counter()
    for g in cases:
        assert p.connectivity_only(g.n)
        v = certify_expander(g, p, mode="exhaustive")
        h = certify_expander(g, p, mode="heuristic")
        ok, witness, _ = reference_certify(g, p)
        assert v.certified and v.mode == "exhaustive"
        assert v.is_expander == ok, g.vertex_list()
        assert v.violation == (None if ok else (frozenset(witness), frozenset()))
        assert (h.violation, h.subsets_checked) == (v.violation, v.subsets_checked)
        assert v.subsets_checked == (0 if ok else 1)
        seen["pass" if ok else "fail"] += 1
        seen["disconnected"] += len(g.components()) > 1
        seen["gaps"] += g.vertex_list() != list(range(g.n))
    assert min(seen["pass"], seen["fail"]) >= 20, seen
    assert min(seen["disconnected"], seen["gaps"]) >= 100, seen


def test_threshold_that_underflows_to_zero_is_not_connectivity():
    """With thresholds that underflow to 0 at small |U| the component check
    is no certificate: both certifiers agree with the enumeration, and every
    witness reverifies.  Where the threshold at floor(2n/3) is at most 0 no
    set is tested; otherwise the enumeration counts what the reference
    visits."""
    underflow_everywhere = ExpanderParams(1e-300, 0.0, "const", 1e308)
    # 0 at |U| <= 2, 1 above: an isolated vertex is no violation, a triangle is
    underflow_below_3 = ExpanderParams(1e-300, 0.0, "const", 1e24)
    assert underflow_everywhere.threshold(10**6, 10**6) == 0
    assert [underflow_below_3.threshold(k, 9) for k in (1, 2, 3, 6)] == [0, 0, 1, 1]
    rng = random.Random(33)
    cases = [Graph.from_edges(6, [(0, 1), (2, 3)]), path_graph(2)]
    cases.append(Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7), (5, 7)]))
    cases += [random_gnp(rng, rng.randint(1, 10), rng.choice((0.1, 0.25, 0.5))) for _ in range(60)]
    verdicts = []
    for p in (underflow_everywhere, underflow_below_3):
        for g in cases:
            assert not p.connectivity_only(g.n)
            ok, witness, checked = reference_certify(g, p)
            v = certify_expander(g, p, mode="exhaustive")
            if p.threshold(2 * g.n // 3, g.n) <= 0:
                checked = 0
            assert (v.is_expander, v.subsets_checked) == (ok, checked), (p, g.vertex_list())
            assert v.violation is None or (v.violation[0] == witness and v.reverify(g))
            h = certify_expander(g, p, mode="heuristic")
            assert h.is_expander or (not ok and h.reverify(g))
            verdicts.append(ok)
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 20


def test_component_shortcut_ignores_the_cap():
    """Over the cap, the connectivity regime still gets the exact verdict."""
    p = ExpanderParams(2**-5, 0.0)
    n = 30
    assert p.connectivity_only(n)
    v = certify_expander(cycle_graph(n), p, mode="exhaustive", cap=20)
    assert v.is_expander and v.certified
    assert v.subsets_checked == 0  # connected: no component to test
    # components {0..9} and {10..29}: the witness is the first 10-subset
    pairs = [(i, (i + 1) % 10) for i in range(10)]
    pairs += [(10 + i, 10 + (i + 1) % 20) for i in range(20)]
    v = certify_expander(Graph.from_edges(n, pairs), p, mode="exhaustive", cap=20)
    assert not v.is_expander and v.certified
    assert v.violation == (frozenset(range(10)), frozenset())
    assert v.subsets_checked == 1
    # the enumeration itself still refuses to run over the cap
    with pytest.raises(CapacityError):
        certify_expander(cycle_graph(n), ExpanderParams(2**-5, 1.0), mode="exhaustive", cap=20)


def test_heuristic_is_labelled_non_certifying():
    g = complete_graph(8)
    v = certify_expander(g, ExpanderParams(1, 1), mode="heuristic")
    assert v.is_expander and not v.certified and v.mode == "heuristic"


def test_heuristic_finds_disconnection():
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    g = Graph.from_edges(6, pairs)
    v = certify_expander(g, ExpanderParams(1, 0), mode="heuristic")
    assert not v.is_expander
    assert v.reverify(g)


def test_heuristic_violations_reverify_on_random_graphs():
    rng = random.Random(5)
    found = 0
    for _ in range(30):
        g = random_gnp(rng, rng.randint(4, 24), 0.12)
        v = certify_expander(g, ExpanderParams(1, 1, "const", 1.0), mode="heuristic")
        if not v.is_expander:
            found += 1
            assert v.reverify(g)
    assert found > 0  # sparse G(n, .12) graphs do produce violations


def test_heuristic_matches_the_two_loop_reference(monkeypatch):
    """The one growth loop tests the sets the two loops tested, in their
    order, from the counts it keeps: the same violating U, or None, and the
    same count, on graphs of 0 to 3 vertices, disconnected graphs, graphs
    past the every-size limit of 256 vertices, and with the connectivity
    shortcut switched off."""
    rng = random.Random(28)
    seen = Counter()
    for shortcut in (True, False):
        if not shortcut:
            monkeypatch.setattr(ExpanderParams, "connectivity_only", lambda self, n: False)
        for i in range(1100):
            if i < 100:
                n = i % 4
            elif i < 104:
                n = rng.randint(257, 300)
            else:
                n = rng.randint(4, 36)
            g = random_gnp(rng, n, rng.choice((0.02, 0.1, 0.2, 0.4, 0.8)) if n <= 256
                           else rng.choice((0.004, 0.02, 0.1)))
            eps = rng.choice((2**-5, 0.1, 0.5, 1.0))
            s = rng.choice((0.0, 0.25, 0.5, 1.0, 3.0))
            p = rng.choice((
                ExpanderParams(eps, s),
                ExpanderParams(eps, s, "const", rng.choice((0.5, 1.0, 4.0))),
                ExpanderParams(1e-300, s, "const", 1e300),  # every threshold underflows to 0
            ))
            seed = rng.randrange(1000)
            got = _certify_heuristic(g, p, seed)
            assert got == reference_certify_heuristic(g, p, seed), (n, g.m, p, seed)
            seen["found" if got[0] is not None else "none"] += 1
            seen["disconnected"] += len(g.components()) > 1
            seen["large"] += n > 256
            seen["underflow"] += p.epsilon == 1e-300
    assert seen["found"] >= 300 and seen["none"] >= 300 and seen["disconnected"] >= 300, seen
    assert seen["large"] == 8 and seen["underflow"] >= 300, seen


def test_every_witness_deletes_what_the_exact_adversary_deletes():
    """In both modes a violating verdict's F is worst_case_frontier's
    deletion set for its U at budget(|U|), and it is empty in the
    connectivity regime, where that budget is 0."""
    rng = random.Random(12)
    params = [ExpanderParams(1, 1), ExpanderParams(1, 2, "const", 1.0),
              ExpanderParams(0.5, 0.5, "const", 1.0), ExpanderParams(2**-5, 0.0)]
    seen = Counter()
    for _ in range(60):
        g = random_gnp(rng, rng.randint(2, 12), rng.choice((0.15, 0.3, 0.5, 0.8)))
        for p in params:
            for mode in ("exhaustive", "heuristic"):
                v = certify_expander(g, p, mode=mode)
                if v.is_expander:
                    assert v.violation is None
                    continue
                U, F = v.violation
                assert F == worst_case_frontier(g, U, p.budget(len(U)))[0]
                regime = p.connectivity_only(g.n)
                assert not (regime and F)
                seen[mode, regime, bool(F)] += 1
    for mode in ("exhaustive", "heuristic"):
        assert seen[mode, False, True] >= 10 and seen[mode, True, False] >= 10, seen


# -- check_dichotomy ---------------------------------------------------------------


def test_dichotomy_c4_case_a():
    g = cycle_graph(4)
    out = check_dichotomy(g, ExpanderParams(1, 1), {0}, set(), 1)
    assert out.case == "WellExpanding" and out.neighbor_count == 2


def test_dichotomy_k4_case_a():
    g = complete_graph(4)
    out = check_dichotomy(g, ExpanderParams(1, 1), {0}, set(), 1)
    assert out.case == "WellExpanding" and out.neighbor_count == 3


def test_dichotomy_threshold_formula_at_d_equals_s():
    # with F empty and d = s the case-a threshold is |U|/2, taken literally
    g = complete_graph(5)
    p = ExpanderParams(1, 2)
    out = check_dichotomy(g, p, {0, 1}, set(), 2)
    assert out.case == "WellExpanding" and out.neighbor_count == 3  # 3 >= 2/2


def test_dichotomy_case_b_when_neighbors_scarce():
    # K_{1,6} plus three isolated vertices keeps |U| within 2n/3; the lone
    # center fails case-a (1 < s|U|/(2d) = 6) but sees U robustly for case-b
    g = Graph.from_edges(10, [(0, i) for i in range(1, 7)])
    p = ExpanderParams(1, 2)
    U = {1, 2, 3, 4, 5, 6}
    out = check_dichotomy(g, p, U, set(), 1)
    assert out.case == "RobustNeighborhood" and out.robust_set == frozenset({0})


def test_dichotomy_preconditions():
    g = complete_graph(4)
    p = ExpanderParams(1, 1)
    with pytest.raises(ValueError):
        check_dichotomy(g, p, {0, 1, 2}, set(), 1)  # |U| > 2n/3
    with pytest.raises(ValueError):
        check_dichotomy(g, p, {0}, set(), 2)  # d > s
    with pytest.raises(ValueError):
        check_dichotomy(g, p, {0}, {0, 1}, 1)  # |F| > s|U|/2


def test_dichotomy_raises_on_non_expander_geometry():
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    g = Graph.from_edges(6, pairs)
    with pytest.raises(TheoremViolation):
        check_dichotomy(g, ExpanderParams(1, 1), {0, 1, 2}, set(), 1)


def test_dichotomy_never_faults_on_certified_expander_sample():
    # small-scale version of the acceptance sweep
    g = complete_graph(6)
    p = ExpanderParams(1, 1)
    assert certify_expander(g, p).is_expander
    rng = random.Random(2)
    eids = sorted(g.edge_ids)
    for _ in range(300):
        size = rng.randint(1, (2 * g.n) // 3)
        U = set(rng.sample(g.vertex_list(), size))
        fmax = math.floor(p.s * size / 2)
        F = set(rng.sample(eids, rng.randint(0, fmax))) if fmax else set()
        out = check_dichotomy(g, p, U, F, 1)
        assert out.case in ("WellExpanding", "RobustNeighborhood")


# -- extract_well_expanding_core ----------------------------------------------------


def test_core_star_center():
    g = star_graph(5)
    assert extract_well_expanding_core(g, {0}, 3) == {0}


def test_core_empty_on_sparse_path():
    g = path_graph(3)
    assert extract_well_expanding_core(g, {0, 2}, 3) == set()


def test_core_on_unbalanced_bipartite():
    g = complete_bipartite(3, 30)
    core = extract_well_expanding_core(g, {0, 1, 2}, 10)
    assert len(core) >= 1
    assert len(neighborhood(g, core)) >= 10 * len(core)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_core_guarantee_always_holds(data):
    n = data.draw(st.integers(2, 9))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_gnp(rng, n, 0.5)
    U = set(data.draw(st.sets(st.sampled_from(g.vertex_list()), min_size=1)))
    tau = data.draw(st.sampled_from([1, 2, 3, 4.5]))
    core = extract_well_expanding_core(g, U, tau)
    assert core <= U
    if core:
        assert len(neighborhood(g, core)) >= tau * len(core)
