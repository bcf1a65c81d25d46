import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycledecomp.graph import (
    MAX_VERTICES,
    Cycle,
    Decomposition,
    Graph,
    ParseError,
    Path,
    decomposition_from_json_dict,
    decomposition_to_json,
    decomposition_to_json_dict,
    format_edge_list,
    neighborhood,
    parse_edge_list,
    robust_neighborhood,
    to_dot,
    validate_decomposition,
    validate_decomposition_json,
)
from cycledecomp.pathscycles import peel_long_cycles

from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnp,
    reference_adjacency,
    reference_components,
    reference_from_edges,
    reference_parse_edge_list,
    scattered_subview,
    star_graph,
    zipped_arrays,
)


# -- Graph basics ------------------------------------------------------------


def test_from_edges_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_edge_ids_dense_and_stable_under_views():
    g = complete_graph(5)
    assert sorted(g.edge_ids) == list(range(10))
    sub = g.subview(vertices=[0, 1, 2])
    assert sub.n == 3
    for eid in sub.edge_ids:
        assert g.edge_table[eid] == sub.edge_table[eid]
    # restricting edges never drops vertices
    sub2 = g.subview(edge_ids=[0])
    assert sub2.n == 5 and sub2.m == 1


def test_subview_drops_edges_with_dead_endpoint():
    g = path_graph(4)
    sub = g.subview(vertices=[0, 1, 3])
    assert sub.m == 1  # only 0-1 survives
    assert sub.degrees()[3] == 0


def test_components():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert g.components() == [[0, 1, 2], [3, 4], [5]]


def test_degrees_equal_the_adjacency_count_without_building_it():
    rng = random.Random(1019)
    for _ in range(200):
        g = scattered_subview(rng)
        fresh = Graph(g.host_n, g.edge_table, g.vertices, g.edge_ids)
        counted = fresh.degrees()
        assert fresh._adj is None
        want = [(v, len(nb)) for v, nb in g.arrays()[0].items()]
        assert list(counted.items()) == want
        assert list(g.degrees().items()) == want  # read from the built arrays


def test_arrays_equal_an_adjacency_built_from_the_definition():
    """The cached arrays of from_edges hosts (pairs in either endpoint
    order), parsed graphs whose lines are not in pair order, subviews and
    peel residuals equal ``reference_adjacency``.  Both hosts number their
    edges in pair order, as from_edges over the sorted pairs does, and
    their edge index agrees.  A peel leaves arrays cached on its input as
    they were, and caches none on an input that had none."""
    rng = random.Random(1020)
    unordered = 0
    for _ in range(200):
        n = rng.randint(1, 30)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        assert list(Graph.from_edges(n, pairs).edge_table) == pairs
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        host = Graph.from_edges(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in shuffled])
        parsed = parse_edge_list(f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in shuffled))
        unordered += shuffled != pairs
        for h in (host, parsed):
            assert list(h.edge_table) == pairs
            assert h._edge_index() == {pair: e for e, pair in enumerate(pairs)}
        sub = parsed.subview(vertices=[v for v in range(n) if rng.random() < 0.8])
        sub = sub.subview(edge_ids=[e for e in sub.edge_ids if rng.random() < 0.8])
        for g in (host, parsed, sub, scattered_subview(rng)):
            bare = Graph(g.host_n, g.edge_table, g.vertices, g.edge_ids)
            min_len = rng.randint(3, 5)
            _, residual = peel_long_cycles(bare, min_len)
            assert bare._adj is None
            assert zipped_arrays(residual) == reference_adjacency(residual)
            cached = zipped_arrays(g)
            assert cached == reference_adjacency(g)
            _, residual = peel_long_cycles(g, min_len)
            assert zipped_arrays(g) == cached
            assert zipped_arrays(residual) == reference_adjacency(residual)
    assert unordered >= 150


def test_components_carry_the_arrays_of_the_subview_on_their_vertices():
    """``Graph.component`` of each of ``components()`` is the subview on its
    vertices, carrying that subview's arrays and no finder answer, on plain
    graphs and on peel residuals; a component that spans the graph is the
    graph itself."""
    rng = random.Random(1021)
    split = 0
    for _ in range(200):
        g = scattered_subview(rng)
        _, residual = peel_long_cycles(g, rng.randint(3, 5))
        for h in (g, residual):
            comps = h.components()
            assert comps == reference_components(h)
            for comp in comps:
                part = h.component(comp)
                ref = h.subview(vertices=comp)
                assert (part.vertices, part.edge_ids) == (ref.vertices, ref.edge_ids)
                assert zipped_arrays(part) == reference_adjacency(ref)
                assert part is h or part.found is None
            split += len(comps) > 1
    assert split >= 300
    for g in (complete_graph(5), cycle_graph(7), Graph.from_edges(1, [])):
        assert g.component(g.vertex_list()) is g


def test_arrays_copy_caches_nothing_and_leaves_the_arrays_as_they_were():
    rng = random.Random(1022)
    for _ in range(200):
        g = scattered_subview(rng)
        bare = Graph(g.host_n, g.edge_table, g.vertices, g.edge_ids)
        nbrs, eids = bare.arrays_copy()
        assert bare._adj is None
        assert {v: list(zip(nb, eids[v])) for v, nb in nbrs.items()} == reference_adjacency(g)
        cached = zipped_arrays(g)
        nbrs, eids = g.arrays_copy()
        for v in nbrs:
            del nbrs[v][:1], eids[v][1:]
        assert zipped_arrays(g) == cached == reference_adjacency(g)


def test_fingerprint_distinguishes_views():
    g = complete_graph(4)
    assert g.fingerprint() != g.subview(edge_ids=list(g.edge_ids)[:3]).fingerprint()
    assert g.fingerprint() == Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]).fingerprint()


# -- neighborhood ------------------------------------------------------------


def test_neighborhood_star_center():
    g = star_graph(3)
    assert neighborhood(g, {0}) == {1, 2, 3}


def test_neighborhood_star_leaves():
    g = star_graph(3)
    assert neighborhood(g, {1, 2, 3}) == {0}


def test_neighborhood_with_removed_edge():
    g = cycle_graph(4)
    assert neighborhood(g, {0}, {g.edge_id(0, 1)}) == {3}


def test_neighborhood_disjoint_from_u():
    g = complete_graph(5)
    assert neighborhood(g, {0, 1}) == {2, 3, 4}


# -- robust_neighborhood -----------------------------------------------------


def test_robust_neighborhood_star():
    g = star_graph(3)
    assert robust_neighborhood(g, {1, 2, 3}, set(), 3) == {0}
    assert robust_neighborhood(g, {1, 2, 3}, set(), 4) == set()


def test_robust_neighborhood_cycle():
    g = cycle_graph(4)
    assert robust_neighborhood(g, {0, 2}, set(), 2) == {1, 3}


def test_robust_neighborhood_requires_positive_d():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        robust_neighborhood(g, {0}, set(), 0)


# -- path / cycle objects ------------------------------------------------------


def test_path_invariants():
    with pytest.raises(ValueError):
        Path((0, 1, 0), (0, 1))
    with pytest.raises(ValueError):
        Path((0, 1), ())
    p = Path((0,), ())
    assert p.length == 0


def test_cycle_invariants():
    with pytest.raises(ValueError):
        Cycle((0, 1), (0, 1))
    with pytest.raises(ValueError):
        Cycle((0, 1, 1), (0, 1, 2))
    g = cycle_graph(3)
    c = Cycle((0, 1, 2), (g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(0, 2)))
    c.check(g)
    bad = Cycle((0, 2, 1), (g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(0, 2)))
    with pytest.raises(ValueError):
        bad.check(g)


def test_path_and_cycle_check_messages():
    g = cycle_graph(4)
    e01, e12, e23, e03 = (g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(2, 3), g.edge_id(0, 3))
    dead = g.without_edges([e12])
    cases = [
        (Path((0, 1, 2), (e01, e12)), dead, f"path edge {e12} not live"),
        (Path((0, 1, 2), (e01, e23)), g, f"path edge {e23} does not join 1,2"),
        (Cycle((0, 1, 2, 3), (e01, e12, e23, e03)), dead, f"cycle edge {e12} not live"),
        (Cycle((0, 1, 2, 3), (e01, e12, e03, e23)), g, f"cycle edge {e03} does not join 2,3"),
    ]
    for obj, host, message in cases:
        with pytest.raises(ValueError) as exc:
            obj.check(host)
        assert str(exc.value) == message


# -- validate_decomposition ----------------------------------------------------


def triangle_cycle(g: Graph) -> Cycle:
    return Cycle((0, 1, 2), (g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(0, 2)))


def test_validate_triangle_as_one_cycle():
    g = cycle_graph(3)
    d = Decomposition.from_parts(g, [triangle_cycle(g)], [])
    rep = validate_decomposition(g, d)
    assert rep.ok and d.pieces == 1


def test_validate_triangle_as_three_singles():
    g = cycle_graph(3)
    d = Decomposition.from_parts(g, [], list(g.edge_ids))
    rep = validate_decomposition(g, d)
    assert rep.ok and d.pieces == 3


def test_validate_rejects_double_cover():
    g = cycle_graph(3)
    d = Decomposition.from_parts(g, [triangle_cycle(g)], [0])
    rep = validate_decomposition(g, d)
    assert not rep.ok
    assert any("already covered" in p for p in rep.problems)


def test_validate_rejects_uncovered_and_fingerprint_mismatch():
    g = cycle_graph(3)
    d = Decomposition.from_parts(g, [], [0])
    rep = validate_decomposition(g, d)
    assert not rep.ok and any("uncovered" in p for p in rep.problems)
    other = cycle_graph(4)
    d2 = Decomposition.from_parts(other, [], list(other.edge_ids))
    rep2 = validate_decomposition(g, d2)
    assert not rep2.ok


def test_empty_graph_decomposition():
    g = Graph.from_edges(4, [])
    d = Decomposition.from_parts(g, [], [])
    assert validate_decomposition(g, d).ok
    assert d.pieces == 0


# -- edge-list format ----------------------------------------------------------


def test_edge_list_round_trip():
    rng = random.Random(7)
    g = random_gnp(rng, 9, 0.4)
    text = format_edge_list(g)
    g2 = parse_edge_list(text)
    assert g2.host_n == g.host_n
    assert {g2.edge_table[e] for e in g2.edge_ids} == {g.edge_table[e] for e in g.edge_ids}


def test_edge_list_ignores_blanks_and_comments():
    g = parse_edge_list("# a comment\n\n3 2\n0 1\n# mid\n1 2\n")
    assert g.host_n == 3 and g.m == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("3 1\n1 0\n", 2),          # u >= v
        ("3 1\n0 3\n", 2),          # v out of range
        ("3 2\n0 1\n0 1\n", 3),     # duplicate
        ("3 1\nx y\n", 2),          # not integers
        ("3 1\n0 1\n1 2\n", 3),     # too many edges
        ("", 1),                    # no header
        ("3 2\n0 1\n", 1),          # too few edges
    ],
)
def test_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line_no == line


def test_vertex_count_over_the_limit_rejected_before_allocation():
    with pytest.raises(ParseError) as exc:
        parse_edge_list(f"# header\n{MAX_VERTICES + 1} 0\n")
    assert exc.value.line_no == 2
    with pytest.raises(ValueError):
        Graph.from_edges(MAX_VERTICES + 1, [])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    st.lists(
        st.one_of(
            st.tuples(st.integers(-2, 9), st.integers(-2, 9)).map(lambda t: f"{t[0]} {t[1]}"),
            st.sampled_from(["", "#", "# c", "1", "1 2 3", "a b", "1_0 2", "1.5 2", "\t3\t0"]),
            st.text(max_size=6),
        ),
        max_size=10,
    ).map("\n".join),
))
def test_parse_edge_list_returns_graph_or_parse_error(text):
    try:
        g = parse_edge_list(text)
    except ParseError:
        return
    assert isinstance(g, Graph)


def parse_outcome(parse, text: str):
    """The graph's fields, or the ParseError's text and line number."""
    try:
        g = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line_no
    return g.host_n, g.edge_table, g.vertices, g.edge_ids


_DIGITS = {"0": "\u0660", "3": "\u0663", "7": "\u096d"}  # Arabic-Indic, Devanagari
_PAD = st.sampled_from(["", "", " ", "\t", "\x1f"])
_GAP = st.sampled_from([" ", " ", "\t", "  ", " \t", "\x1f", "\xa0"])
_SKIPPED = st.sampled_from(["", " ", "\t", "#", "# c", "  # 1 2", "\t#x", "\x1f#"])
_MALFORMED = st.one_of(
    st.sampled_from(["1", "1 2 3", "0 1 # c", "2.0 3", "0x1 2", "x y", "1 -"]),
    st.text(max_size=5),
)


def _spell(k: int, style: int) -> str:
    """An integer as the parser may meet it: signed, with an underscore or
    in another script's digits."""
    if style == 1 and k >= 0:
        return f"+{k}"
    if style == 2 and k >= 10:
        return f"{k // 10}_{k % 10}"
    if style == 3:
        return "".join(_DIGITS.get(c, c) for c in str(k))
    return str(k)


@st.composite
def edge_list_texts(draw):
    """Edge-list text near the valid format: a header, edge lines with small
    ids (so duplicates and out-of-range ids are common), an edge count off by
    one now and then, comments, blank and malformed lines, and one of the
    line breaks ``str.splitlines`` knows."""
    n = draw(st.sampled_from(list(range(2, 13)) * 2 + [-1, 0, 1]))
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.integers(0, max(n - 2, 0)))
        b = a + 1 + draw(st.integers(0, max(n - a - 2, 0)))
        # now and then a negative, swapped, too large or loop pair
        flaw = draw(st.sampled_from([None] * 12 + [0, 1, 2, 3]))
        pairs.append((a, b) if flaw is None else [(-1, b), (b, a), (a, n), (a, a)][flaw])
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = []
    for a, b in [(n, m)] + pairs:
        pad, gap, end = draw(_PAD), draw(_GAP), draw(_PAD)
        sa, sb = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        lines.append(f"{pad}{_spell(a, sa)}{gap}{_spell(b, sb)}{end}")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_SKIPPED))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_MALFORMED))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]))
    return newline.join(lines) + draw(st.sampled_from(["", "\n", newline]))


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
@example("3 2\r\n0 1\r\n1 2\r\n")
@example("\t# c\n11 1\n+0 1_0")
@example("  #\x0b4 2\x0b\u0660 \u0663\x0b0\t3\n")
@example("4 2\x1c0 1\x1c0 1")
@example("4 1\n0 4\n")
@example("4 1\n0 1\n1 2\n")
@example("4 3\n0 1\n")
def test_parser_matches_reference(text):
    """The parser builds the same graph as the parser that checked every pair
    twice, or raises the same ParseError; a parsed graph answers edge_id and
    has_edge as a from_edges graph does, and its views drop dropped edges."""
    got = parse_outcome(parse_edge_list, text)
    assert got == parse_outcome(reference_parse_edge_list, text), text
    if got[0] == "error":
        return
    g = parse_edge_list(text)
    pairs = [g.edge_table[e] for e in sorted(g.edge_ids)]
    for other in (Graph.from_edges(g.host_n, pairs), reference_from_edges(g.host_n, pairs)):
        for u in range(-1, g.host_n + 1):
            for v in range(-1, g.host_n + 1):
                assert g.has_edge(u, v) is other.has_edge(u, v)
                if g.has_edge(u, v):
                    assert g.edge_id(u, v) == other.edge_id(u, v)
    if pairs:
        u, v = pairs[0]
        assert g.edge_id(u, v) == 0
        for view in (g.without_edges([0]), g.subview(edge_ids=range(1, g.m)),
                     g.subview(vertices=set(g.vertices) - {u})):
            with pytest.raises(KeyError):
                view.edge_id(u, v)
            assert not view.has_edge(v, u)


# -- decomposition JSON ----------------------------------------------------------


def test_decomposition_json_round_trip():
    g = cycle_graph(5)
    cyc = Cycle(tuple(range(5)), tuple(g.edge_id(i, (i + 1) % 5) for i in range(5)))
    d = Decomposition.from_parts(g, [cyc], [])
    doc = json.loads(decomposition_to_json(d, g))
    assert doc["n"] == 5 and doc["m"] == 5
    assert validate_decomposition_json(doc).ok
    assert validate_decomposition_json(doc, g).ok
    d2 = decomposition_from_json_dict(doc, g)
    assert validate_decomposition(g, d2).ok


@pytest.mark.parametrize("field,item", [("cycles", [0, 1, 5]), ("edges", [0, 5])])
def test_rebinding_a_non_edge_raises_value_error(field, item):
    doc = {"n": 3, "m": 3, "cycles": [], "edges": []}
    doc[field] = [item]
    with pytest.raises(ValueError, match=r"\(\d, 5\) is not an edge"):
        decomposition_from_json_dict(doc, cycle_graph(3))


def test_json_validator_standalone_catches_problems():
    bad = {"n": 3, "m": 3, "cycles": [[0, 1, 2]], "edges": [[0, 1]], "stats": {}}
    rep = validate_decomposition_json(bad)
    assert not rep.ok  # edge 0-1 covered twice
    short = {"n": 3, "m": 2, "cycles": [[0, 1]], "edges": [], "stats": {}}
    assert not validate_decomposition_json(short).ok
    wrong_m = {"n": 3, "m": 5, "cycles": [[0, 1, 2]], "edges": [], "stats": {}}
    assert not validate_decomposition_json(wrong_m).ok


def test_json_validator_accepts_paths_field():
    doc = {"n": 4, "m": 3, "cycles": [], "paths": [[0, 1, 2, 3]], "edges": [], "stats": {}}
    assert validate_decomposition_json(doc).ok
    doc_bad = {"n": 4, "m": 3, "cycles": [], "paths": [[0, 1, 0]], "edges": [], "stats": {}}
    assert not validate_decomposition_json(doc_bad).ok


# -- DOT export -------------------------------------------------------------------


def test_dot_export_colors_cycles():
    g = cycle_graph(3)
    d = Decomposition.from_parts(g, [triangle_cycle(g)], [])
    dot = to_dot(g, d)
    assert dot.startswith("graph G {")
    assert dot.count("--") == 3
    assert "#e41a1c" in dot
    plain = to_dot(g)
    assert "color" not in plain
