#!/usr/bin/env bash
# Command-line smoke run of the presets' flows and of the benchmark's network
# flow: every command must exit 0 and write nothing to stderr (a numpy
# warning from analyze, say). bash's `time` prints the wall time of each
# reproduce run, of the network simulate run and of one analyze run on the
# shell's stderr, into the job log and not into the checked file.
#
# usage: .github/cli-smoke.sh CLI...   (e.g. `waveconsensus` or
#        `python -m waveconsensus.cli`), from the repository root
set -euo pipefail
cli=("$@")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# the source size, in lines, of each module and in all
wc -l src/waveconsensus/*.py
"${cli[@]}" check-gains --config configs/test1.json 2> "$out/stderr"
# the only unperturbed run: analyze fits its decay rate; the steady-state
# solves and the leader's equilibrium on the numpy at hand
TIMEFORMAT="reproduce --test 1: %R s wall"
time "${cli[@]}" reproduce --test 1 --out "$out" 2>> "$out/stderr"
"${cli[@]}" analyze "$out/test1/test1.csv" 2>> "$out/stderr"
TIMEFORMAT="reproduce --test 2: %R s wall"
time "${cli[@]}" reproduce --test 2 --out "$out" 2>> "$out/stderr"
# the verbatim ISS variant as the contractual one (conservative_iss=False)
"${cli[@]}" reproduce --test 2 --verbatim-iss --out "$out/verbatim" 2>> "$out/stderr"
TIMEFORMAT="reproduce --test 3: %R s wall"
time "${cli[@]}" reproduce --test 3 --out "$out" 2>> "$out/stderr"
# numpy's CSV reader on the disturbed preset's output
TIMEFORMAT="analyze test2.csv: %R s wall"
time "${cli[@]}" analyze "$out/test2/test2.csv" 2>> "$out/stderr"
# both CSVs together: the steady-state ratio of the two disturbance
# amplitudes (acceptance criterion 6)
"${cli[@]}" analyze "$out/test2/test2.csv" "$out/test3/test3.csv" 2>> "$out/stderr"
# the general-purpose run, and analyze on the CSV it writes
"${cli[@]}" simulate --config configs/test2.json --out "$out" 2>> "$out/stderr"
"${cli[@]}" analyze "$out/test2.csv" 2>> "$out/stderr"
# the benchmark's network flow: network-n24's seed-0 config (24 followers on
# a seeded random graph, nx = 101, 120 s) from perfbench's own generator,
# which is only read (-B: no bytecode written there), then simulate and
# analyze on it
python -B -c 'import json, sys; sys.path.insert(0, "perfbench")
from workloads import network_config
with open(sys.argv[1], "w") as fh: json.dump(network_config(0, 24, 101, 120.0), fh)' \
    "$out/network.json" 2>> "$out/stderr"
TIMEFORMAT="simulate network-n24: %R s wall"
time "${cli[@]}" simulate --config "$out/network.json" --out "$out/network" 2>> "$out/stderr"
"${cli[@]}" analyze "$out/network/network.csv" 2>> "$out/stderr"
if [ -s "$out/stderr" ]; then cat "$out/stderr"; exit 1; fi
