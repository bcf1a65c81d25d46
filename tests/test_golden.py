"""Golden output: the sha256 of the decomposition JSON on fixed instances.

Any change to these digests is a change to the program's output and must be
made on purpose, with the new pieces/n per family stated alongside it.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

from cycledecomp.bench import gen_eulerian, gen_gallai_bipartite, gen_gnp
from cycledecomp.graph import (
    Cycle,
    Graph,
    decomposition_from_json_dict,
    decomposition_to_json,
    format_edge_list,
    parse_edge_list,
    validate_decomposition,
    validate_decomposition_json,
)
from cycledecomp.pipeline import PipelineConfig, decompose_logstar

from helpers import (
    reference_decomposition_from_json_dict,
    reference_validate_decomposition,
    reference_validate_decomposition_json,
)

INSTANCES = {
    "gnp128_8n": lambda: gen_gnp(128, 8 / 128, 0),
    "gnp96_half": lambda: gen_gnp(96, 0.5, 0),
    "gallai2_128": lambda: gen_gallai_bipartite(2, 128),
    "eulerian128_8n": lambda: gen_eulerian(128, 8 / 128, 0),
    # a dense part residue handed back whole
    "k64": lambda: Graph.from_edges(64, list(itertools.combinations(range(64), 2))),
    "k128": lambda: Graph.from_edges(128, list(itertools.combinations(range(128), 2))),
    "k144": lambda: Graph.from_edges(144, list(itertools.combinations(range(144), 2))),
    # the dense workload's shape: several back-edge sweeps per peel round
    "gnp384_half": lambda: gen_gnp(384, 0.5, 1000),
}

GOLDEN = {
    ("gnp128_8n", "engineering"): "c996d6f19761e254ace3b4d1b153088ad2c773d664417b48d358dbc5dedada4b",
    ("gnp128_8n", "paper"): "3917148789611d65c733defb3f375f1bfabe08405d7da5ca79f3352cc3b4e4c9",
    ("gnp96_half", "engineering"): "ddab82a425f8cd9bc3c0e113dae9288fca8bad2de8b1f5019f21643ef30d468f",
    ("gnp96_half", "paper"): "b52656625941f31f8bbfea17e96b13f7c2796ec93e72147cd62ef0ba59580584",
    ("gallai2_128", "engineering"): "6ff7138ccec2834d5c0557674fac31451df742271fd8bc50073a5450d2e543f2",
    ("gallai2_128", "paper"): "ce7b3d119f60251a159b54d434b31ca1f68a4d41e04b968ceba22303b023132e",
    ("eulerian128_8n", "engineering"): "280d073789959db643b0e89ee547d04f56745a5ba23eef037686a232ff904d38",
    ("eulerian128_8n", "paper"): "fb6beb36d3c597cca5f58259092c812f84bf4a3af3a831bc8d83a1b72fb1219c",
    ("k64", "engineering"): "7c2f6ee2baa40df05df3aa51d5cbe42eff3c54cf0cb4b2a75f641369077d6620",
    ("k64", "paper"): "78c1b3ee9dfaffee990aa57b1315859f6febd41aa3a76f7582022c47b8f00cc5",
    ("k128", "engineering"): "e0d7e0e893b89ea9ea0a4013cbe84296a737cf79d0d4da2ed5558d4aa410f106",
    ("k144", "engineering"): "892b23c2d8152bdb507b32d193cf8f02f56db3b5c4b7750182244f07f420eb7c",
    ("gnp384_half", "engineering"): "b2af3d49da55a2bb20f2a321c20633351315399bfc755053fe4b238aa1b1c328",
}


def decompose(name: str, preset: str):
    g = INSTANCES[name]()
    if preset == "paper":
        cfg = PipelineConfig.paper(g.n, seed=0)
    else:
        cfg = PipelineConfig.engineering(seed=0)
    dec, _ = decompose_logstar(g, cfg)
    return g, dec


def digest(g: Graph, dec) -> str:
    return hashlib.sha256(decomposition_to_json(dec, g).encode()).hexdigest()


@pytest.mark.parametrize("name,preset", sorted(GOLDEN))
def test_decomposition_json_is_byte_identical(name, preset):
    g, dec = decompose(name, preset)
    assert digest(g, dec) == GOLDEN[(name, preset)]


@pytest.mark.parametrize("name", sorted(name for name, preset in GOLDEN if preset == "engineering"))
def test_parsed_input_gives_the_same_bytes(name):
    """The CLI's path: the instance goes through its edge-list text, and the
    pipeline runs on the graph (and edge index) the parser built."""
    g = parse_edge_list(format_edge_list(INSTANCES[name]()))
    dec, _ = decompose_logstar(g, PipelineConfig.engineering(seed=0))
    assert digest(g, dec) == GOLDEN[(name, "engineering")]


@pytest.mark.parametrize("name", sorted(name for name, preset in GOLDEN if preset == "paper"))
def test_engineering_gives_no_more_pieces_than_paper(name):
    _, eng = decompose(name, "engineering")
    _, paper = decompose(name, "paper")
    assert eng.pieces <= paper.pieces


def mutations(doc: dict):
    """Named copies of a decomposition document, each broken in one way."""
    cycles, singles = doc["cycles"], doc["edges"]
    if singles:
        yield "dropped edge", {**doc, "edges": singles[1:]}
    else:
        yield "dropped edge", {**doc, "cycles": cycles[1:]}
    if cycles:
        a, b = cycles[0][:2]
        yield "duplicated edge", {**doc, "edges": singles + [[a, b]]}
    else:
        yield "duplicated edge", {**doc, "edges": singles + singles[:1]}
    long = [i for i, c in enumerate(cycles) if len(c) >= 5]
    if long:
        # swapping two neighbours of a cycle of length >= 5 changes three edges
        c = list(cycles[long[0]])
        c[1], c[2] = c[2], c[1]
        yield "swapped cycle vertices", {**doc, "cycles": cycles[:long[0]] + [c] + cycles[long[0] + 1:]}
    yield "wrong m", {**doc, "m": doc["m"] + 1}


def object_report_ok(doc: dict, g: Graph) -> bool:
    try:
        dec = decomposition_from_json_dict(doc, g)
    except ValueError:  # names a pair that is not an edge of g
        return False
    return validate_decomposition(g, dec).ok


@pytest.mark.parametrize("name,preset", sorted(GOLDEN))
def test_validators_agree_on_output_and_mutations(name, preset):
    g, dec = decompose(name, preset)
    doc = json.loads(decomposition_to_json(dec, g))
    assert validate_decomposition(g, dec).ok
    assert validate_decomposition_json(doc, g).ok and object_report_ok(doc, g)
    seen = []
    for what, bad in mutations(doc):
        assert validate_decomposition_json(bad, g).ok is object_report_ok(bad, g) is False, what
        seen.append(what)
    assert len(seen) >= 3


def outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def object_outcome(from_json, validate, doc: dict, g: Graph):
    dec = outcome(from_json, doc, g)
    return dec if isinstance(dec, tuple) else validate(g, dec)


def non_edge(g: Graph):
    return next(([u, v] for u, v in itertools.combinations(range(g.host_n), 2)
                 if not g.has_edge(u, v)), None)


def document_mutations(doc: dict, g: Graph):
    """Named copies of a document, each broken in one way, for the
    differential test: range, repeats, non-integer ids, double cover within
    and across cycles, paths, counts and edge sets that differ from g."""
    cycles, singles, n = doc["cycles"], doc["edges"], doc["n"]

    def with_cycle(i: int, c: list) -> dict:
        return {**doc, "cycles": cycles[:i] + [c] + cycles[i + 1:]}

    for i in sorted({0, len(cycles) - 1}) if cycles else ():
        c = cycles[i]
        yield f"cycle {i} vertex out of range", with_cycle(i, [n] + c[1:])
        yield f"cycle {i} vertex negative", with_cycle(i, c[:1] + [-1] + c[2:])
        yield f"cycle {i} vertex repeated", with_cycle(i, c[:2] + c[:1] + c[3:])
        yield f"cycle {i} float vertex", with_cycle(i, c[:1] + [c[1] + 0.5] + c[2:])
        yield f"cycle {i} bool vertex", with_cycle(i, c[:1] + [True] + c[2:])
        yield f"cycle {i} reversed", with_cycle(i, c[::-1])
        yield f"cycle {i} covered twice", {**doc, "cycles": cycles + [c]}
        yield f"cycle {i} covered twice, reversed", {**doc, "cycles": cycles + [c[::-1]]}
        yield f"cycle {i} edge also single", {**doc, "edges": singles + [c[:2]]}
        yield f"cycle {i} dropped", {**doc, "cycles": cycles[:i] + cycles[i + 1:]}
        yield f"path along cycle {i}", {**doc, "paths": [c[:3]]}
        yield f"path from cycle {i} out of range", {**doc, "paths": [c[:2] + [n]]}
        yield f"path into cycle {i} negative", {**doc, "paths": [[-1] + c[:2]]}
    if singles:
        yield "single dropped", {**doc, "edges": singles[1:]}
        yield "single twice", {**doc, "edges": singles + singles[:1]}
        yield "single out of range", {**doc, "edges": [[singles[0][0], n]] + singles[1:]}
    extra = non_edge(g)
    if extra is not None:
        yield "non-edge single", {**doc, "edges": singles + [extra]}
    yield "wrong m", {**doc, "m": doc["m"] + 1}
    yield "wrong n", {**doc, "n": n + 1}
    yield "no n", {k: v for k, v in doc.items() if k != "n"}


def decomposition_mutations(dec, g: Graph):
    """Named copies of a decomposition object, each broken in one way."""
    cycles, singles = dec.cycles, dec.single_edges
    if cycles:
        c = cycles[0]
        es = c.edge_ids
        dead = next(e for e in range(len(g.edge_table) + 1) if e not in g.edge_ids)
        yield "edge ids rotated", dataclasses.replace(
            dec, cycles=(Cycle(c.vertices, es[1:] + es[:1]),) + cycles[1:])
        yield "closing edge id wrong", dataclasses.replace(
            dec, cycles=(Cycle(c.vertices, es[:-1] + es[:1]),) + cycles[1:])
        yield "dead edge id", dataclasses.replace(
            dec, cycles=(Cycle(c.vertices, (dead,) + es[1:]),) + cycles[1:])
        yield "cycle twice", dataclasses.replace(dec, cycles=cycles + (c,))
        yield "cycle edge also single", dataclasses.replace(dec, single_edges=singles + es[:1])
        yield "cycle dropped", dataclasses.replace(dec, cycles=cycles[1:])
    if singles:
        yield "single twice", dataclasses.replace(dec, single_edges=singles + singles[:1])
    yield "wrong source", dataclasses.replace(dec, source="0" * 16)
    yield "wrong m", dataclasses.replace(dec, m=dec.m + 1)


@pytest.mark.parametrize("name,preset", sorted(GOLDEN))
def test_validators_match_reference(name, preset):
    """Both validators give the report, or raise the error, that they gave
    before they read the graph's edge index and added edges in bulk."""
    g, dec = decompose(name, preset)
    doc = json.loads(decomposition_to_json(dec, g))
    cases = [("output", doc)] + list(document_mutations(doc, g))
    for what, bad in cases:
        for graph in (g, None):
            assert (outcome(validate_decomposition_json, bad, graph)
                    == outcome(reference_validate_decomposition_json, bad, graph)), what
        assert (object_outcome(decomposition_from_json_dict, validate_decomposition, bad, g)
                == object_outcome(reference_decomposition_from_json_dict,
                                  reference_validate_decomposition, bad, g)), what
    for what, bad in [("output", dec)] + list(decomposition_mutations(dec, g)):
        assert validate_decomposition(g, bad) == reference_validate_decomposition(g, bad), what
    assert len(cases) >= 16
