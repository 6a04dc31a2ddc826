#!/usr/bin/env bash
# Runs the installed `strobewalk` console script once per command kind and checks
# what no tier-1 test covers through it: each JSON report must parse, chosen
# fields must hold, and each bad input must give its exit code.
# Usage: bash ci/console_checks.sh (with `strobewalk` on PATH). The state files
# it writes go to a temporary directory.
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Exit code of a command that must fail, without stopping the script.
code_of() { local code=0; "$@" > /dev/null 2>&1 || code=$?; echo "$code"; }

strobewalk --version
strobewalk analyze --graph tree:3 --detect 0 --init all --format json | python -m json.tool > /dev/null
strobewalk quotient --graph ring:8 --detect 0
strobewalk quotient --graph lattice:8x8 --detect 0 --format json | python -m json.tool > /dev/null
# The ring:64 listing (1297 entries) is long enough for the bulk table writer.
strobewalk resonances --graph ring:64 --tau scan:0:20 --format json | python -m json.tool > /dev/null
# The ring:64 simulate report (70784 floats) takes the float kernel. The series runs its
# windows in blocks; it must stop where the window-by-window rule does.
strobewalk simulate --graph ring:64 --detect 0 --init 32 --tau 1.0 --format json | python -m json.tool > /dev/null
strobewalk simulate --graph ring:64 --detect 0 --init 32 --tau 1.0 --format json | python -c "import json, sys; s = json.load(sys.stdin)['series']; assert s['n_used'] == 35392 and s['converged'], s"
strobewalk spectrum --graph hypercube:3 --format json | python -m json.tool > /dev/null
# The CSV and text writers' sector and analyze-row columns.
strobewalk spectrum --graph ring:6 --tau 2.0943951023931953 --format csv
strobewalk spectrum --graph ring:6 --tau 2.0943951023931953 --format text
strobewalk analyze --graph tree:3 --detect 0 --init all --format csv
# A phased detector on ring:8: the stabilizer's projector is the null space of the
# stacked S - pI, built by one scatter.
echo '{"amplitudes": [0.7071067811865476, 0, 0, 0, -0.7071067811865476, 0, 0, 0]}' > "$work/phased-state.json"
strobewalk analyze --graph ring:8 --detect "$work/phased-state.json" --init all --format json | python -c "import json, sys; r = json.load(sys.stdin); assert (r['group_order'], r['stabilizer_order']) == (16, 4), r"
# A malformed --tol value, an --out path that cannot be written, a state file
# with a [null, 0] entry, the retired resonance key and a quotient --tau exit 2.
test "$(code_of strobewalk analyze --graph ring:6 --detect 0 --init all --tol dark=nan)" -eq 2
test "$(code_of strobewalk spectrum --graph ring:6 --out /nonexistent/dir/r.json)" -eq 2
echo '{"amplitudes": [[null, 0], 0, 0, 0, 0, 0]}' > "$work/null-state.json"
test "$(code_of strobewalk analyze --graph ring:6 --detect 0 --init "$work/null-state.json")" -eq 2
test "$(code_of strobewalk spectrum --graph ring:6 --tol resonance=1e-9)" -eq 2
test "$(code_of strobewalk quotient --graph ring:6 --detect 0 --tau 1.0)" -eq 2
# A command takes only the tolerance keys it reads, and a scan has no steps field.
test "$(code_of strobewalk spectrum --graph ring:6 --tol dark=1e-3)" -eq 2
test "$(code_of strobewalk quotient --graph ring:6 --detect 0 --tol phase=1e-8)" -eq 2
test "$(code_of strobewalk resonances --graph ring:6 --tau scan:1:5:10)" -eq 2
# |E| = 2 times 1e308 overflows: there is no phase, and the command exits 3.
test "$(code_of strobewalk spectrum --graph ring:6 --tau 1e308)" -eq 3
echo '{"amplitudes": [0.6, 0.8, 0, 0, 0, 0]}' > "$work/plane-state.json"
strobewalk analyze --graph ring:6 --detect 0 --init "$work/plane-state.json" --tol rank=1 --format json | python -c "import json, sys; r = json.load(sys.stdin); assert r['results'][0]['orbit_rank'] == 1, r"
# 2 pi / 3 + 2e-9 folds two levels into one sector at --tol phase: the report says resonant.
strobewalk analyze --graph ring:6 --detect 0 --init all --tau 2.094395104393195 --format json | python -c "import json, sys; r = json.load(sys.stdin); assert r['tau_resonant'] is True, r"
# 2 pi / 3 + 1e-7: the series stops on the fold's 4 bright sectors, whose slow part
# outlasts the cap; the report must say that it did not converge.
strobewalk simulate --graph ring:6 --detect 0 --init 2 --tau 2.0943952023931953 --tol series-cap=2000 --format json | python -c "import json, sys; r = json.load(sys.stdin); assert r['series']['converged'] is False and not any('bright directions' in x for x in r['warnings']), r['series']"
# At tau 1e9 the fold keeps each energy level whole: bright 4, no pdet above its bound,
# and no warning of the gaps inside a level.
strobewalk analyze --graph hypercube:3 --detect 0 --init all --tau 1e9 --format json | python -c "import json, sys; r = json.load(sys.stdin); rows = r['results']; assert all(x['bright_dim'] == 4 and x['pdet'] <= x['upper_bound'] for x in rows) and not r['warnings'], r"
# --tol dark=0 keeps sectors of roundoff weight as bright: the report must warn of them.
strobewalk analyze --graph tree:3 --detect 0 --init 1 --tau 1.0 --tol dark=0 --format json | python -c "import json, sys; r = json.load(sys.stdin); assert any('kept as bright' in x for x in r['warnings']), r"
# A graph file that declares 10^9 nodes exits 3 before any per-node list is built.
echo '{"nodes": 1000000000}' > "$work/billion.json"
test "$(code_of strobewalk spectrum --graph "$work/billion.json")" -eq 3
