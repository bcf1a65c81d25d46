#!/bin/sh
# End-to-end tour of the command line: generate, decompose, validate,
# certify, route.  Subcommands read edge lists on stdin or from a file and
# write JSON, so everything composes with pipes.
set -e
cd "$(dirname "$0")/.."
CLI="python3 -m cycledecomp.cli"
# scratch files live in a fresh directory, removed however the tour ends
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

echo "# generate a sparse random graph, decompose it, validate the result"
$CLI gen gnp 96 0.08 --seed 4 > "$tmp/demo_g.edges"
head -3 "$tmp/demo_g.edges"
$CLI decompose "$tmp/demo_g.edges" --seed 4 --out "$tmp/demo_dec.json"
$CLI validate "$tmp/demo_dec.json" --graph "$tmp/demo_g.edges"

echo
echo "# the same trip as one pipe, with a run report on the side"
$CLI gen eulerian 64 0.15 --seed 2 | $CLI decompose --report "$tmp/demo_report.json" | $CLI validate
python3 -c "import json, sys; r = json.load(open(sys.argv[1])); print('report:', r['pieces'], 'pieces in', len(r['iterations']), 'iteration(s)')" "$tmp/demo_report.json"

echo
echo "# certify expansion: a cycle fails with a witness, a clique passes"
$CLI gen gnp 8 1.0 --seed 0 | $CLI certify --epsilon 1.0 --s 1.0
printf '4 4\n0 1\n0 3\n1 2\n2 3\n' | $CLI certify --epsilon 1.0 --s 1.0 || true

echo
echo "# split a graph into certified expander parts"
$CLI gen gnp 24 0.12 --seed 1 | $CLI expanders --epsilon 0.03125 --s 0.5 | python3 -c "import json,sys; d = json.load(sys.stdin); print('parts:', [p['n'] for p in d['parts']], 'removed:', d['removed_count'])"

echo
echo "# route pairs through a vertex set, edge-disjointly"
$CLI gen gnp 16 0.6 --seed 3 > "$tmp/demo_host.edges"
printf '12 14\n13 15\n' > "$tmp/demo_pairs.txt"
printf '%s\n' 0 1 2 3 4 5 6 7 > "$tmp/demo_through.txt"
$CLI route "$tmp/demo_host.edges" --pairs "$tmp/demo_pairs.txt" --through "$tmp/demo_through.txt" --ell 4

echo
echo "# a tiny benchmark grid straight to CSV"
$CLI bench --families eulerian,gnp8n --sizes 64 --seeds 0,1 | sed -n '1,5p'
