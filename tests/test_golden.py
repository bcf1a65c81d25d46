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
from cycledecomp.pipeline import PRESETS, PipelineConfig, decompose_logstar

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
    # isolated input vertices: the residue of a round is one part plus them
    "k64_on96": lambda: Graph.from_edges(96, list(itertools.combinations(range(64), 2))),
    "gnp64_half_on128": lambda: Graph.from_edges(128, gen_gnp(64, 0.5, 0).edge_table),
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
    ("k64_on96", "engineering"): "20553439bdbd976a98de98e6f68944f5d6f067ee1129eda327cff3090145f038",
    ("k64_on96", "paper"): "228792892d0891d994f602a0135e49bc9e25ef23985564c0a91085074dc58f54",
    ("gnp64_half_on128", "engineering"): "d76eb465e4000edf0f0e115cc7dcb4bc5d563b941eda9ad4affde7355da6fb7e",
    ("gnp64_half_on128", "paper"): "af493397882a40b65e78a8c09bbd0dfcbb440cbf6aab0a6147ecd949c8b4734d",
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
    ("eulerian128_8n", "engineering"): "7a8180ce2a57afa9af65a05a27bf6e08eb8035e42fc8cd2f95fefa9b32018780",
    ("eulerian128_8n", "paper"): "6fdc9eec0b41335dc3b7c836697f69e7e2ee1b4b72965792ac5c3e5312f8dd79",
    ("gallai2_128", "engineering"): "bff916c0f331a58f8d9a070b64d814b471deca1e4b6af96f0bc96bd92e8dbe08",
    ("gallai2_128", "paper"): "bbca2fff1619ab91ab0f2ea158b5785a0137ee5f1ebb98f4618c830d3a03b085",
    ("gnp128_8n", "engineering"): "cd89e2dd7311eaf4281efd1373865603d8d6e0d2f1f8514c9ed0f779483e4650",
    ("gnp128_8n", "paper"): "e5a26d8330b775f287e7bc63e8dcf6821abfe047bf98d816f88cbcbc36ee1f64",
    ("gnp384_half", "engineering"): "d6a20dfaa49f63f22ba80f5ccb3e726cf22431de2c7af6198258a5ed351813c1",
    ("gnp96_half", "engineering"): "b8f202d1bf2ab0660fdf02f365823b24ccab63760130c73ad27c3e5656a7f206",
    ("gnp96_half", "paper"): "311ebc25366cdb3d1e73bdd570ccb2a74ef52f9de446b836de77de91ac69e5b6",
    ("k128", "engineering"): "cf3e6f4074a5103972608f4bb0b7ca5407bfe200f2ea1e5b0715129fb3ada8d7",
    ("k144", "engineering"): "7c665f9867b4f9afe0d08594e226feb229bc4f3d843b5925f4406544f586b621",
    ("k64", "engineering"): "8e5c48e60ad483c2b269e2e0479eda3e1fafd937953ed2889e04ea9dfa4b8e39",
    ("k64", "paper"): "61167cfcc998af57c0974358f1fb2b53e005e402e719fdcbe41621f07cb7fd68",
    ("k64_on96", "engineering"): "097b54f056c2b2ac902bd60439a6a492b151f683af70661ab622fddd04b2e859",
    ("k64_on96", "paper"): "7467b4ac92094a22f3131f5bdcb0278c7d3417e527e85d2019a1f68aed39ad4e",
    ("gnp64_half_on128", "engineering"): "8cfdd9cc8c5b538270cf28b35dcb4b7daabfa885d62f9c94898c287784e13092",
    ("gnp64_half_on128", "paper"): "b3ccb9c000b975c1051f2a492f9e4a160f7708722d980b31e21947b51619e146",
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
    """The same edge list with its edge lines in a seeded random order."""
    header, *lines = text.splitlines()
    random.Random(seed).shuffle(lines)
    return "\n".join([header] + lines) + "\n"


def sorted_lines(text: str) -> str:
    """The same edge list with its edge lines in pair order."""
    header, *lines = text.splitlines()
    lines.sort(key=lambda line: tuple(map(int, line.split())))
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
    # the expander split: one component at s = 0 on the first, 27 on the second
    "gnp24": lambda: format_edge_list(gen_gnp(24, 0.12, 1)),
    "gnp400_sparse": lambda: format_edge_list(gen_gnp(400, 0.006, 3)),
    # demo 08's certify inputs: a clique that passes, a 4-cycle that fails
    "k8": lambda: format_edge_list(gen_gnp(8, 1.0, 0)),
    "c4": lambda: "4 4\n0 1\n0 3\n1 2\n2 3\n",
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
    ("euler", "eulerian48_shuffled"): (0, "5930e16390f89c986aef7d1e5abcf8ab1794a061f719e0f0f121de35ebca53c1"),
    ("longcycle", "k10"): (0, "33b4b8a7c468dbdd22c5f18f3e2374af479aed74d141c878726c81eeb37f4767"),
    ("longcycle", "gnp40"): (0, "7842b377804ad738931a80556dbb75d15c9890d18c75583efe15f7e787abb56d"),
    ("longcycle", "gnp60_sparse"): (0, "9112bb2a76aeba798b62a11439df55116f035be70c4d48dbc91f5903b9fa07a2"),
    ("longcycle", "gnp30_shuffled"): (0, "8a30e985a6d148ad96688d6af2d1bd6fc7b8c349577d3a33f6d2d8ce0e67d249"),
    ("longcycle", "eulerian60"): (0, "7b3302b6384294c522afdd9893c46d56ada6e3a796c38fe4fdb1cea500627507"),
    ("gen eulerian 64 0.1 --seed 0", None): (0, "a59c2ecc5303b28175e1302117375fc525c55527b246e1d3b91a82ffaf32cf81"),
    ("gen eulerian 128 0.0625 --seed 3", None): (0, "574dbe366f710c4bb17dca729b123cd95ec267d26811cf2f442ff24fe9922254"),
    ("gen eulerian 40 0.5 --seed 1", None): (0, "672728e78dd463ff062e57dcf91cb6c6d651579b3336fe2f561320b2b72b2606"),
    ("gen eulerian 200 0.01 --seed 2", None): (0, "7130b2a94e875fb5e60505edf97e2d03a1840cb23caf907dbbf5aad490ea4304"),
    ("expanders --epsilon 0.03125 --s 0", "gnp24"): (0, "d551eb4f4d98e5d2bc87379d49a8f1e224eac4d7c21d27b3e610d4fb8ffe9f01"),
    ("expanders --epsilon 0.03125 --s 0", "gnp400_sparse"): (0, "3bb2995bdbdf1707db3fa769048310837352f1bcbba062fcdd60b7e649b51724"),
    ("expanders --epsilon 0.03125 --s 0.5", "gnp24"): (0, "bdc40acd1910e5308df4962c759a9de319e1e93320d45f4623e43efc6edfa39b"),
    ("expanders --epsilon 0.03125 --s 0.5", "gnp400_sparse"): (0, "64dd00dd1d0beddf09f1e5b838d28f572b1984036bd27f0e927618cabb7e76eb"),
    ("expanders --epsilon 0.03125 --s 1e300", "gnp24"): (0, "fc2ea00162d1869e3cb985e10546e3b61db0ea76690a5f877158ac9c981df624"),
    ("expanders --epsilon 0.03125 --s 1e300", "gnp400_sparse"): (0, "b9a034ffa777c66b1d7c3dee889a4c2983ba0ecc9a029b1cd5c3c73c39dc7b50"),
    ("certify --epsilon 1.0 --s 1.0", "k8"): (0, "7b6cdd3c0b7e48cc4c0eb56776b540c3cdd9524e6a7dac02d0e772874733240d"),
    ("certify --epsilon 1.0 --s 1.0", "c4"): (0, "50051afd766690d51b53275f2780459796d2b418acd784736de1c636ad31340c"),
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
    if name is not None and name.endswith("_shuffled"):
        # edge ids follow pair order, so the order of the lines changes nothing
        assert cli_outcome(argv.split(), sorted_lines(stdin)) == CLI_GOLDEN[(argv, name)]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_shuffled_lines_give_the_graph_and_bytes_of_the_sorted_lines(name):
    """Edge ids follow pair order, not line order: a shuffled edge list gives
    the sorted list's edge table, edge index and decomposition bytes under
    both presets."""
    text = format_edge_list(INSTANCES[name]())
    shuffled = shuffled_lines(text, 11)
    assert shuffled != text
    g, h = parse_edge_list(text), parse_edge_list(shuffled)
    assert h.edge_table == g.edge_table
    assert h._edge_index() == g._edge_index()
    for preset in PRESETS:
        cfg = PipelineConfig(preset, 0)
        assert (decomposition_to_json(decompose_logstar(h, cfg)[0], h)
                == decomposition_to_json(decompose_logstar(g, cfg)[0], g))


# sha256 of each subcommand's ``--help`` text at a fixed width of 100 columns,
# as Python 3.11's argparse lays it out
HELP_GOLDEN = {
    "bench": "5becb7a964d16a76aa33c40e8f24dd0d9377e2d1df3cb6290687df84ac17ebf4",
    "certify": "6d02d050307855163fdd49cde10e64e56c16eade7921bf27978f5a6bb645558e",
    "decompose": "aa7298c18991476f6439e7e75f43ab0fec65674227e5870c62da932b5df435f7",
    "euler": "0111949703b80a11642f2c3bb0cce7b11932e9434ca376039694f3479451ea12",
    "expanders": "f4c20d3ba787ec4736986f79aebd8efc216706a68b0000f6c466857d6f1eb3b0",
    "gen": "119bc870f68e8f93919e5fe7b1e174fc7301b16dbef354441b60ddb6ec55f21b",
    "longcycle": "fa3b263e12c284ddd4ac1a865a481c6e91219a5bc997c960532aa7d9c9dd1276",
    "paths": "94ee70773a5ec5888ae3210ca77b0be273a78a206c64bb01214694f73ef7b2fc",
    "route": "5d60bf357a551a10e849b17a753e59ad75f8e2a600e497bf6913eef700e7230d",
    "validate": "2b9de9741cc85b7cdeb1c128b42eef140fdc6fb68ea03ed3f2094ab6891ad90e",
}


@pytest.mark.parametrize("sub", sorted(HELP_GOLDEN))
def test_help_is_byte_identical(sub, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == HELP_GOLDEN[sub]
