"""Golden output: the sha256 of the decomposition JSON on fixed instances.

Any change to these digests is a change to the program's output and must be
made on purpose, with the new pieces/n per family stated alongside it.
"""

import hashlib
import itertools
import json

import pytest

from cycledecomp.bench import gen_eulerian, gen_gallai_bipartite, gen_gnp
from cycledecomp.graph import (
    Graph,
    decomposition_from_json_dict,
    decomposition_to_json,
    validate_decomposition,
    validate_decomposition_json,
)
from cycledecomp.pipeline import PipelineConfig, decompose_logstar

INSTANCES = {
    "gnp128_8n": lambda: gen_gnp(128, 8 / 128, 0),
    "gnp96_half": lambda: gen_gnp(96, 0.5, 0),
    "gallai2_128": lambda: gen_gallai_bipartite(2, 128),
    "eulerian128_8n": lambda: gen_eulerian(128, 8 / 128, 0),
    # engages the skeleton closures
    "k64": lambda: Graph.from_edges(64, list(itertools.combinations(range(64), 2))),
    # most closures and skeleton routing of the fixed instances
    "k128": lambda: Graph.from_edges(128, list(itertools.combinations(range(128), 2))),
    # skeleton builds that shed stuck template edges after their congestion passes
    "k144": lambda: Graph.from_edges(144, list(itertools.combinations(range(144), 2))),
    # the dense workload's shape: several back-edge sweeps per peel round
    "gnp384_half": lambda: gen_gnp(384, 0.5, 1000),
}

GOLDEN = {
    ("gnp128_8n", "engineering"): "c996d6f19761e254ace3b4d1b153088ad2c773d664417b48d358dbc5dedada4b",
    ("gnp128_8n", "paper"): "3917148789611d65c733defb3f375f1bfabe08405d7da5ca79f3352cc3b4e4c9",
    ("gnp96_half", "engineering"): "89c0e986876f4bbd38e9c6c132b31b0a4388a8adc729d90203891c436d65c88f",
    ("gnp96_half", "paper"): "b52656625941f31f8bbfea17e96b13f7c2796ec93e72147cd62ef0ba59580584",
    ("gallai2_128", "engineering"): "6ff7138ccec2834d5c0557674fac31451df742271fd8bc50073a5450d2e543f2",
    ("gallai2_128", "paper"): "ce7b3d119f60251a159b54d434b31ca1f68a4d41e04b968ceba22303b023132e",
    ("eulerian128_8n", "engineering"): "280d073789959db643b0e89ee547d04f56745a5ba23eef037686a232ff904d38",
    ("eulerian128_8n", "paper"): "fb6beb36d3c597cca5f58259092c812f84bf4a3af3a831bc8d83a1b72fb1219c",
    ("k64", "engineering"): "7c0f3182409ad053c8b8e60861729e08ec3bb0f6ba567e5282ebe30129d5796c",
    ("k64", "paper"): "78c1b3ee9dfaffee990aa57b1315859f6febd41aa3a76f7582022c47b8f00cc5",
    ("k128", "engineering"): "ab6020889d568c9c24f387a93b3ea9b3fe7d8a299bf1c1c3accdb24232f08654",
    ("k144", "engineering"): "e180903d62720af99ba33341f39f17c5265d492a9dafd10c857e7252e39624b2",
    ("gnp384_half", "engineering"): "5f4ce156c513305bc29d473dd3cfae0d582813d209f425fcb8ad8817d0c0f969",
}


def decompose(name: str, preset: str):
    g = INSTANCES[name]()
    if preset == "paper":
        cfg = PipelineConfig.paper(g.n, seed=0)
    else:
        cfg = PipelineConfig.engineering(seed=0)
    dec, _ = decompose_logstar(g, cfg)
    return g, dec


@pytest.mark.parametrize("name,preset", sorted(GOLDEN))
def test_decomposition_json_is_byte_identical(name, preset):
    g, dec = decompose(name, preset)
    digest = hashlib.sha256(decomposition_to_json(dec, g).encode()).hexdigest()
    assert digest == GOLDEN[(name, preset)]


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
