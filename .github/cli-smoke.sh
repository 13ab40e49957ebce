#!/usr/bin/env bash
# Command-line smoke run of both presets' flows: every command must exit 0
# and write nothing to stderr (a numpy warning from analyze, say). bash's
# `time` prints each reproduce run's and one analyze run's wall time on the
# shell's stderr, into the job log and not into the checked file.
#
# usage: .github/cli-smoke.sh CLI...   (e.g. `waveconsensus` or
#        `python -m waveconsensus.cli`), from the repository root
set -euo pipefail
cli=("$@")
out=$(mktemp -d)
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
if [ -s "$out/stderr" ]; then cat "$out/stderr"; exit 1; fi
