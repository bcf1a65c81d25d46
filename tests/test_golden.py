"""Golden output: the sha256 of the decomposition JSON, and of the standard
output of the single-shot CLI stages, on fixed instances.

Any change to these digests is a change to the program's output and must be
made on purpose, with the new pieces/n per family stated alongside it.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
import sys

import pytest

from cycledecomp.bench import gen_eulerian, gen_gallai_bipartite, gen_gnp
from cycledecomp.cli import main
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
    dec, _ = decompose_logstar(g, PipelineConfig(preset, 0))
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


# sha256 of the ``decompose --report`` document, with each round's
# ``seconds`` taken out: the rounds' degrees, edge ledgers, parts and counters
REPORT_GOLDEN = {
    ("eulerian128_8n", "engineering"): "8a7bb23ba0d0b05e4938905b59588d0f0914fd9ab3678a83a890018f53dec3a6",
    ("eulerian128_8n", "paper"): "6b5c79165a182f7484900507de6a80ebe47783d468b61d8783b17c9f6591abab",
    ("gallai2_128", "engineering"): "85bf0b2bae06aa35b621254715563808d24dc0dabb3d92e7f8b1bc56c4646e2a",
    ("gallai2_128", "paper"): "c8c497bb7eec4a27ca76bfa30710803026783001d94038262f1749d9eb2e6f63",
    ("gnp128_8n", "engineering"): "aeea10bff3b67da8fc615248f8a96c591ed2ceef3494377156af45d36271537c",
    ("gnp128_8n", "paper"): "722d7056c4ac782bbd9c08da21955d803127c056e45caef2e4a34292c972e73a",
    ("gnp384_half", "engineering"): "3c50a022e93f561c8179813a5ac75568898f82df61d3ba7967ebaff419d7323a",
    ("gnp96_half", "engineering"): "1e7b95cf130c432e5c9114c20c6436e41ed40bc380f78785b31d398b3890f44b",
    ("gnp96_half", "paper"): "79f6136d52abfa187fe13ef3cd1feaec7c5e1f91c668bab2bbfbd7635b0848a6",
    ("k128", "engineering"): "d7d25856d26be9d278b03c567519899502f316ae2b71a84f2621bce488a38cdf",
    ("k144", "engineering"): "f2eee40cd33ffd27b38219c034dee12791dfdb671d55e1608ec66f221dc7280a",
    ("k64", "engineering"): "cac73a3ab686a7af126fce2d87569c7624a045894730e7eaa4a35ca71af57ea7",
    ("k64", "paper"): "e578806fb9c8ddda89553ea9d1898a77deb987edd0876e86e32aca50b6c73898",
}


def report_digest(name: str, preset: str, path) -> str:
    argv = ["decompose", "--quiet", "--preset", preset, "--seed", "0", "--report", str(path)]
    code, _ = cli_outcome(argv, format_edge_list(INSTANCES[name]()))
    assert code == 0
    doc = json.loads(path.read_text())
    for it in doc["iterations"]:
        del it["seconds"]
    return hashlib.sha256((json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name,preset", sorted(GOLDEN))
def test_run_report_is_byte_identical(name, preset, tmp_path):
    assert report_digest(name, preset, tmp_path / "report.json") == REPORT_GOLDEN[(name, preset)]


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


# -- CLI outputs of the single-shot stages ------------------------------------


def shuffled_lines(text: str, seed: int) -> str:
    """The same edge list with its edge lines in a seeded random order, so
    edge ids no longer follow pair order."""
    header, *lines = text.splitlines()
    random.Random(seed).shuffle(lines)
    return "\n".join([header] + lines) + "\n"


def complete_text(k: int) -> str:
    return format_edge_list(Graph.from_edges(k, list(itertools.combinations(range(k), 2))))


CLI_INPUTS = {
    # all degrees odd: every virtual pairing edge runs beside a real one
    "k10": lambda: complete_text(10),
    "k10_shuffled": lambda: shuffled_lines(complete_text(10), 3),
    "k11": lambda: complete_text(11),
    "gnp40": lambda: format_edge_list(gen_gnp(40, 0.2, 3)),
    # sparse: the long-cycle search falls back to the longest back-edge cycle
    "gnp60_sparse": lambda: format_edge_list(gen_gnp(60, 0.02, 7)),
    "gnp30_shuffled": lambda: shuffled_lines(format_edge_list(gen_gnp(30, 0.3, 5)), 7),
    "eulerian60": lambda: format_edge_list(gen_eulerian(60, 0.15, 2)),
    "eulerian48_shuffled": lambda: shuffled_lines(format_edge_list(gen_eulerian(48, 0.2, 4)), 1),
}

# (argv, input name or None) -> (exit code, sha256 of standard output)
CLI_GOLDEN = {
    ("paths --mode euler", "k10"): (0, "29f97ad35e03425de4642e4d850cb9aadce96a042adb77a23e510495f2dbe0b1"),
    ("paths --mode euler", "k10_shuffled"): (0, "29f97ad35e03425de4642e4d850cb9aadce96a042adb77a23e510495f2dbe0b1"),
    ("paths --mode euler", "gnp40"): (0, "eca0aaea8c1f216a4f29a1c52bdd65005b95921aa7050c587f8430db0196560c"),
    ("paths --mode euler", "gnp60_sparse"): (0, "cfa72e5febbbba550bcb04d0055184e404f5c3b328c321804ff8862f1951dca3"),
    ("paths --mode euler", "gnp30_shuffled"): (0, "1cc51e1c70855ec2268c6e4c24621de22d1fdb82169053fe38781bcec84fb1e7"),
    ("paths --mode paths_only", "k10"): (0, "29f97ad35e03425de4642e4d850cb9aadce96a042adb77a23e510495f2dbe0b1"),
    ("paths --mode paths_only", "k10_shuffled"): (0, "29f97ad35e03425de4642e4d850cb9aadce96a042adb77a23e510495f2dbe0b1"),
    ("paths --mode paths_only", "gnp40"): (0, "24403ef1c2c19ba8336cf37e0bc9ac431646c108ed93a46033c61590218ef532"),
    ("paths --mode paths_only", "gnp60_sparse"): (0, "b368afc8ddde7154c076b299d2d39e5874bafa0d4bb9fd6fecae8be371a6443f"),
    ("paths --mode paths_only", "gnp30_shuffled"): (0, "84b3e229da461324d50e1bc29c95e408e10030ad838d35cf83cfb2d358252bc0"),
    ("euler", "k11"): (0, "6b72a228de371f5377e3528922dc73cb651ac565e754ec2f1de1891d4bac609e"),
    ("euler", "eulerian60"): (0, "bb91193bf9ff3817d033956fd4fb4cce9e06860cc132c9f3b7d825b7c9fe6f6a"),
    ("euler", "eulerian48_shuffled"): (0, "e146f01d5308caf15d3912bb5accc839d5611b42cf4bfef689bebe184c0d5e40"),
    ("longcycle", "k10"): (0, "33b4b8a7c468dbdd22c5f18f3e2374af479aed74d141c878726c81eeb37f4767"),
    ("longcycle", "gnp40"): (0, "7842b377804ad738931a80556dbb75d15c9890d18c75583efe15f7e787abb56d"),
    ("longcycle", "gnp60_sparse"): (0, "9112bb2a76aeba798b62a11439df55116f035be70c4d48dbc91f5903b9fa07a2"),
    ("longcycle", "gnp30_shuffled"): (0, "8a30e985a6d148ad96688d6af2d1bd6fc7b8c349577d3a33f6d2d8ce0e67d249"),
    ("longcycle", "eulerian60"): (0, "7b3302b6384294c522afdd9893c46d56ada6e3a796c38fe4fdb1cea500627507"),
    ("gen eulerian 64 0.1 --seed 0", None): (0, "a59c2ecc5303b28175e1302117375fc525c55527b246e1d3b91a82ffaf32cf81"),
    ("gen eulerian 128 0.0625 --seed 3", None): (0, "574dbe366f710c4bb17dca729b123cd95ec267d26811cf2f442ff24fe9922254"),
    ("gen eulerian 40 0.5 --seed 1", None): (0, "672728e78dd463ff062e57dcf91cb6c6d651579b3336fe2f561320b2b72b2606"),
    ("gen eulerian 200 0.01 --seed 2", None): (0, "7130b2a94e875fb5e60505edf97e2d03a1840cb23caf907dbbf5aad490ea4304"),
}


def cli_outcome(argv: list[str], stdin: str) -> tuple[int, str]:
    out = io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = sys.__stdin__
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv,name", sorted(CLI_GOLDEN))
def test_cli_output_is_byte_identical(argv, name):
    stdin = "" if name is None else CLI_INPUTS[name]()
    assert cli_outcome(argv.split(), stdin) == CLI_GOLDEN[(argv, name)]
