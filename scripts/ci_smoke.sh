#!/usr/bin/env bash
# CI smoke: the static invariant linter (repro.check over the full
# tree, < 10s, zero findings), then tier-1 (the test suite, run once:
# every marked subset -- faults, rt, engine, serve -- is in it), then
# each CLI surface end to end: one quick-scale parallel sweep and its
# warm-cache re-run, the E13 fault table and the fault axis of the
# sweep CLI, the live runtime (a virtual-time demo of a faulted mobile
# cell, an in-process wall-clock cell, a UDP cell, a multiplexed router
# cell with live churn, the E14 sim-vs-live table, one scenario argv
# through repro-live and repro-viz), the scale
# experiment E15, the mobility experiment E16 and the mobility axis of
# the sweep CLI, the observability layer (repro.viz: a headless
# dashboard + mobility animation, the sweep report artifact, a live
# router run streaming rolling tail panels), the sweep service
# (repro.serve: start the daemon on the sweep step's cache directory,
# find its grid already there, submit a 3-cell grid, fetch the tables,
# shut down cleanly, no orphan process, all within a 30s budget), and
# the docs step (module doctests + markdown link check).
# Performance is not measured here: python3 benchmarks/e2e/run.py is
# the one ledger (benchmarks/e2e/README.md).
#
# Usage: bash scripts/ci_smoke.sh
# Documented in README.md ("Tests and benchmarks").

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== static invariant linter (repro.check) =="
# The full-tree walk is pure stdlib-ast parsing and must stay fast:
# budget 10s, and the committed baseline is empty so any finding fails.
timeout 10 python -m repro.check src --baseline check_baseline.json \
    || { echo "error: repro-check found new invariant violations" >&2; exit 1; }

echo
echo "== tier-1: full test suite =="
python -m pytest -x -q

echo
echo "== quick-scale parallel sweep (end-to-end) =="
ARTIFACTS="$(mktemp -d)"
export ARTIFACTS  # the serve lifecycle step runs in a `timeout` subshell
trap 'rm -rf "$ARTIFACTS"' EXIT
python -m repro.experiments sweep --quick --seeds 1 --duration 10 \
    --workers 2 --cache-dir "$ARTIFACTS/cache" --json-out "$ARTIFACTS/sweep.json"
# Re-run against the warm cache: must be all hits.
python -m repro.experiments sweep --quick --seeds 1 --duration 10 \
    --workers 2 --cache-dir "$ARTIFACTS/cache" | grep -q "0 miss(es)" \
    || { echo "error: warm sweep re-ran jobs instead of hitting the cache" >&2; exit 1; }

echo
echo "== fault & churn robustness (E13) =="
python -m repro.experiments E13 --scale quick --workers 2 > "$ARTIFACTS/e13.txt"
grep -q "x baseline" "$ARTIFACTS/e13.txt" \
    || { echo "error: E13 produced no degradation table" >&2; exit 1; }
# The fault axis end-to-end through the sweep CLI.
python -m repro.experiments sweep --topologies line:5 --algorithms max-based \
    --rates drifted --faults none,loss:0.3,crash-recover:0.3,4 \
    --seeds 1 --duration 8 --workers 2 > "$ARTIFACTS/fault_sweep.txt"
grep -q "3 fault families" "$ARTIFACTS/fault_sweep.txt" \
    || { echo "error: sweep CLI did not expand the fault axis" >&2; exit 1; }

echo
echo "== live runtime (repro.rt) =="
# A virtual-time live demo: 10 sim units, milliseconds of wall clock —
# of a faulted, mobile cell: every transport runs churn, not only router.
python -m repro.experiments live --alg gradient --topology line --nodes 8 \
    --transport virtual --duration 10 \
    --faults crash-recover:0.3,2 --mobility blink:0.3,4 \
    > "$ARTIFACTS/live_virtual.txt"
grep -q "live-virtual" "$ARTIFACTS/live_virtual.txt" \
    || { echo "error: virtual live demo produced no summary" >&2; exit 1; }
grep -q "fault events" "$ARTIFACTS/live_virtual.txt" \
    || { echo "error: virtual live demo reported no fault events" >&2; exit 1; }
grep -q "rewirings" "$ARTIFACTS/live_virtual.txt" \
    || { echo "error: virtual live demo reported no rewirings" >&2; exit 1; }
# The same loop on the in-process wall clock: ~0.5 s of real sleeping.
python -m repro.experiments live --alg gradient --topology line --nodes 8 \
    --transport asyncio --duration 10 --time-scale 0.05 \
    > "$ARTIFACTS/live_asyncio.txt"
grep -q "live-asyncio" "$ARTIFACTS/live_asyncio.txt" \
    || { echo "error: asyncio live cell produced no summary" >&2; exit 1; }
# One E14 quick cell on the UDP backend: one OS process per node,
# bounded skew, well under the 30s budget.
timeout 30 python -m repro.experiments live --alg gradient --topology line \
    --nodes 4 --transport udp --duration 6 --time-scale 0.2 \
    > "$ARTIFACTS/live_udp.txt"
grep -q "live-udp" "$ARTIFACTS/live_udp.txt" \
    || { echo "error: udp live cell produced no summary" >&2; exit 1; }
# A router cell with live churn: 32 nodes multiplexed onto worker
# processes, a crash-recover fault plan applied to real frames.
timeout 30 python -m repro.experiments live --alg gradient --topology line \
    --nodes 32 --transport router --duration 6 --time-scale 0.1 \
    --faults crash-recover:0.3,2 > "$ARTIFACTS/live_router.txt"
grep -q "live-router" "$ARTIFACTS/live_router.txt" \
    || { echo "error: router live cell produced no summary" >&2; exit 1; }
grep -q "fault events" "$ARTIFACTS/live_router.txt" \
    || { echo "error: router live cell reported no fault events" >&2; exit 1; }
# The sim-vs-live comparison table end to end.
python -m repro.experiments E14 --scale quick > "$ARTIFACTS/e14.txt"
grep -q "d final vs sim" "$ARTIFACTS/e14.txt" \
    || { echo "error: E14 produced no comparison table" >&2; exit 1; }
if grep -q " NO " "$ARTIFACTS/e14.txt"; then
    echo "error: an E14 cell blew the skew bound" >&2; exit 1
fi

# One scenario argv, two front-ends: the live verb and the dashboard take
# their ten scenario flags from one builder (sweep/cli.py), so the same
# flags must be accepted by both and name the same cell.
SCENARIO_ARGV=(--topology ring --nodes 6 --alg averaging --rates wandering
    --delays uniform:0.25,0.75 --duration 6 --rho 0.1 --seed 3)
python -m repro.experiments live "${SCENARIO_ARGV[@]}" --transport virtual \
    > "$ARTIFACTS/scenario_live.txt" \
    || { echo "error: repro-live rejected the shared scenario argv" >&2; exit 1; }
python -m repro.experiments viz dashboard "${SCENARIO_ARGV[@]}" \
    --out "$ARTIFACTS/scenario_viz" > "$ARTIFACTS/scenario_viz.txt" \
    || { echo "error: viz dashboard rejected the shared scenario argv" >&2; exit 1; }
grep -q "averaging on ring:6" "$ARTIFACTS/scenario_live.txt" \
    || { echo "error: repro-live ran a different cell than named" >&2; exit 1; }

echo
echo "== gradient profiles at scale (E15, vectorized analysis core) =="
# Quick scale reaches D = 128 and must fit the 60s CI budget.
timeout 60 python -m repro.experiments E15 --scale quick > "$ARTIFACTS/e15.txt"
grep -q "field s" "$ARTIFACTS/e15.txt" \
    || { echo "error: E15 produced no timing table" >&2; exit 1; }
# E15's largest full-scale network (n = 3064) must build and answer its
# adjacent pairs with array queries; an O(n^2) Python pair scan takes
# seconds here.
timeout 3 python -c "from repro.sweep import topology_from_spec as t; t('grid:4,766').adjacent_pairs()" \
    || { echo "error: building grid:4,766 and its adjacent pairs took over 3s" >&2; exit 1; }

echo
echo "== mobility & dynamic topologies (E16) =="
# Quick scale: speed ladder + re-convergence table, well under 60s.
timeout 60 python -m repro.experiments E16 --scale quick --workers 2 \
    > "$ARTIFACTS/e16.txt"
grep -q "re-convergence after rewiring" "$ARTIFACTS/e16.txt" \
    || { echo "error: E16 produced no re-convergence table" >&2; exit 1; }
grep -q "rewirings" "$ARTIFACTS/e16.txt" \
    || { echo "error: E16 produced no mobility ladder" >&2; exit 1; }
# The mobility axis end-to-end through the sweep CLI.
python -m repro.experiments sweep --topologies line:5 \
    --algorithms bounded-catch-up:0.5,0.5,0.5 \
    --rates drifted --mobility static,waypoint:0.5,4,interleave:0.5 \
    --seeds 1 --duration 8 --workers 2 > "$ARTIFACTS/mobility_sweep.txt"
grep -q "3 mobility families" "$ARTIFACTS/mobility_sweep.txt" \
    || { echo "error: sweep CLI did not expand the mobility axis" >&2; exit 1; }

echo
echo "== observability (repro.viz) =="
# A dashboard + mobility animation from a faulted mobile run, rendered
# headlessly (no display, stdlib-only SVG).
python -m repro.experiments viz dashboard --topology line:16 --alg gradient \
    --faults crash-recover:0.25,3 --mobility waypoint:0.5 --duration 8 \
    --seed 2 --out "$ARTIFACTS/viz" > "$ARTIFACTS/viz.txt"
test -s "$ARTIFACTS/viz/dashboard.svg" \
    || { echo "error: viz dashboard wrote no dashboard.svg" >&2; exit 1; }
test -s "$ARTIFACTS/viz/mobility.svg" \
    || { echo "error: viz dashboard wrote no mobility.svg" >&2; exit 1; }
# The dashboard is well-formed and small: its heatmaps are embedded
# pixel grids, and a return of one mark per cell must fail here, by name
# (for this cell that was 2 504 rects in 202 KB; it is 55 in 30 KB).
python - "$ARTIFACTS/viz/dashboard.svg" <<'PY' \
    || { echo "error: dashboard.svg is malformed, over 1 MB or draws a rect per heatmap cell" >&2; exit 1; }
import sys, xml.etree.ElementTree as ET
from pathlib import Path

path = Path(sys.argv[1])
rects = sum(e.tag.endswith("}rect") for e in ET.parse(path).iter())
size = path.stat().st_size
print(f"dashboard.svg: well-formed, {size} bytes, {rects} rects")
sys.exit(size > 1_000_000 or rects > 1_000)
PY
# The sweep artifact from the first step, rendered as a report.
python -m repro.experiments viz report "$ARTIFACTS/sweep.json" \
    --out "$ARTIFACTS/viz" >> "$ARTIFACTS/viz.txt"
test -s "$ARTIFACTS/viz/report.svg" \
    || { echo "error: viz report wrote no report.svg" >&2; exit 1; }
# A live router run with the streaming tail attached: rolling panels
# are written into the directory *while* the run is still going.
timeout 30 python -m repro.experiments live --alg gradient --topology ring \
    --nodes 8 --transport router --duration 4 --time-scale 0.05 \
    --tail "$ARTIFACTS/tail" > "$ARTIFACTS/live_tail.txt"
grep -q "tail frames streamed" "$ARTIFACTS/live_tail.txt" \
    || { echo "error: live --tail reported no streamed frames" >&2; exit 1; }
ls "$ARTIFACTS/tail"/tail_*.svg > /dev/null 2>&1 \
    || { echo "error: live --tail wrote no rolling panels" >&2; exit 1; }

echo
echo "== sweep as a service (repro.serve) =="
# Full daemon lifecycle inside one 30s budget: start on the directory
# the sweep step above used as --cache-dir (one store layout: the quick
# grid it swept must be all hits, nothing queued), submit a 3-cell grid
# through the experiments verb, block until it settles, fetch the
# rendered tables, query status, stop cleanly.
timeout 30 bash -c '
    set -euo pipefail
    STORE="$ARTIFACTS/cache"
    python -m repro.experiments serve start --store "$STORE" --workers 2 \
        > "$ARTIFACTS/serve_daemon.txt" &
    SERVE_PID=$!
    python -m repro.experiments serve submit --store "$STORE" --quick \
        --seeds 1 --duration 10 | grep -q " 0 queued)"
    python -m repro.experiments serve submit --store "$STORE" \
        --topologies line:5 --algorithms max-based --rates drifted \
        --seeds 3 --duration 8 --name ci --wait > "$ARTIFACTS/serve_submit.txt"
    SWEEP="$(sed -n "s/^sweep \([0-9a-f]*\):.*/\1/p" "$ARTIFACTS/serve_submit.txt" | head -1)"
    test -n "$SWEEP"
    python -m repro.experiments serve fetch --store "$STORE" "$SWEEP" \
        > "$ARTIFACTS/serve_fetch.txt"
    grep -q "max_skew" "$ARTIFACTS/serve_fetch.txt"
    python -m repro.experiments serve status --store "$STORE" "$SWEEP" \
        | grep -q "3/3 done"
    python -m repro.experiments serve stop --store "$STORE"
    wait "$SERVE_PID"
' || { echo "error: serve daemon lifecycle failed or blew the 30s budget" >&2; exit 1; }
grep -q "repro-serve stopped" "$ARTIFACTS/serve_daemon.txt" \
    || { echo "error: serve daemon did not shut down cleanly" >&2; exit 1; }
# Neither the daemon nor any of its pool workers may outlive the step.
if pgrep -f '[r]epro\.(experiments )?serve start' > /dev/null; then
    echo "error: a repro.serve process outlived its daemon" >&2; exit 1
fi

echo
echo "== docs: module doctests + markdown link check =="
# Every module docstring example is runnable documentation; the paths
# below are the modules the docs contract names (repro.topology.* and
# repro.sweep.spec).
python -m doctest src/repro/topology/base.py src/repro/topology/generators.py \
    src/repro/topology/dynamic.py src/repro/sweep/spec.py
# Relative markdown links in README.md and docs/ARCHITECTURE.md must
# point at files that exist.
python - <<'PY'
import re, sys
from pathlib import Path

bad = []
for doc in (Path("README.md"), Path("docs/ARCHITECTURE.md")):
    for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", doc.read_text()):
        if "://" in target:
            continue
        if not (doc.parent / target).exists():
            bad.append(f"{doc}: {target}")
if bad:
    print("broken markdown links:\n  " + "\n  ".join(bad), file=sys.stderr)
    sys.exit(1)
print("markdown links ok")
PY

echo
echo "ci_smoke: all green"
