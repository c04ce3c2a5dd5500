#!/usr/bin/env sh
# Regenerate the committed bench artifacts:
#
#   BENCH_precompute.json — wall-clock and simplex pivot counts for the
#   parallel precompute path, over the four-cell grid
#   {--jobs 1, --jobs max} x {cold, warm-started}.
#   BENCH_sample.json — ns/op for the served sampling hot path: the
#   unfused per-level alias walk vs the fused flattened-tree walk, single
#   and batched, against the unfused_alias baseline.
#   BENCH_serve.json — throughput and latency percentiles for the
#   networked wire (serve --listen + loadgen over loopback), one steady
#   phase and one deliberate-overload phase; both must reconcile exactly.
#
# The headline `speedup` compares the old sequential cold implementation
# (jobs=1, cold) against the full new path (jobs=max, warm) — the upgrade a
# user actually experiences. On a single-core box the thread fan-out
# contributes nothing, so the speedup there is the warm-start pivot saving
# alone; the JSON records `cores` so readers can tell which regime produced
# it. `pivot_reduction` isolates the warm-start effect at jobs=1.
#
# Knobs (env): BENCH_G (granularity, default 5), BENCH_H (height, 2),
# BENCH_EPS (0.5), BENCH_JOBS (all cores). The defaults keep a full run in
# the order of a couple of minutes on one core: height 2 gives 1 + g^2
# internal nodes (the g^2-node level solves one donor cold and warm-starts
# each sibling from the solved node whose prior is nearest its own),
# while height 3 multiplies the node count by g^2 again and larger grids
# scale the per-node LP as ~g^6 per pivot — raise either only on real
# hardware.
set -eu

cd "$(dirname "$0")/.."

G="${BENCH_G:-5}"
H="${BENCH_H:-2}"
EPS="${BENCH_EPS:-0.5}"
JOBS="${BENCH_JOBS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)}"

echo "== build bench harness (release, offline)"
cargo build -p geoind-bench --release --offline

echo "== precompute grid: g=$G height=$H eps=$EPS jobs-max=$JOBS"
target/release/bench_precompute precompute \
    --g "$G" --height "$H" --eps "$EPS" --jobs-max "$JOBS" \
    > BENCH_precompute.json
cat BENCH_precompute.json

echo "== smoke-check the artifact"
sh scripts/check_bench.sh BENCH_precompute.json

# precompute-cutgen: single-node OPT wall time across constraint
# strategies — the full materialized set vs delayed constraint
# generation at a tractable grid, then cut generation at the headline
# grid (the node that DNF'd before cut generation existed) under both
# the exact Full target and the Spanner (δ·ε) target. The rows merge
# into BENCH_precompute.json next to the jobs grid so one committed
# artifact carries the whole precompute story.
CG="${BENCH_CUTGEN_G:-8}"
CGS="${BENCH_CUTGEN_G_SMALL:-6}"
CGEPS="${BENCH_CUTGEN_EPS:-0.7}"
CGD="${BENCH_CUTGEN_DILATION:-1.2}"

echo "== precompute-cutgen: headline g=$CG, on/off comparison g=$CGS, spanner dilation=$CGD"
target/release/bench_precompute cutgen \
    --g "$CG" --g-small "$CGS" --eps "$CGEPS" --dilation "$CGD" \
    > /tmp/geoind-bench-cutgen.json

python3 - BENCH_precompute.json /tmp/geoind-bench-cutgen.json <<'EOF' > /tmp/geoind-bench-merged.json
import json, sys
pre = json.load(open(sys.argv[1]))
cut = json.load(open(sys.argv[2]))
pre["cells"].extend(cut["cells"])
pre["cutgen_g"] = cut["g"]
pre["cutgen_eps"] = cut["eps"]
pre["cutgen_speedup"] = cut["cutgen_speedup"]
pre["spanner_speedup"] = cut["spanner_speedup"]
json.dump(pre, sys.stdout, indent=1)
print()
EOF
mv /tmp/geoind-bench-merged.json BENCH_precompute.json
rm -f /tmp/geoind-bench-cutgen.json
cat BENCH_precompute.json

echo "== smoke-check the merged artifact"
sh scripts/check_bench.sh BENCH_precompute.json

SG="${BENCH_SAMPLE_G:-4}"
SH="${BENCH_SAMPLE_H:-3}"
SEPS="${BENCH_SAMPLE_EPS:-0.5}"
SREQ="${BENCH_SAMPLE_REQUESTS:-400000}"
SBATCH="${BENCH_SAMPLE_BATCH:-256}"

echo "== sampling hot path: g=$SG height=$SH eps=$SEPS requests=$SREQ batch=$SBATCH"
target/release/bench_sample \
    --g "$SG" --height "$SH" --eps "$SEPS" \
    --requests "$SREQ" --batch "$SBATCH" \
    > BENCH_sample.json
cat BENCH_sample.json

echo "== smoke-check the artifact"
sh scripts/check_bench.sh BENCH_sample.json

# BENCH_serve.json — the networked wire under a steady closed loop and
# under deliberate overload (tiny admission queue, more connections than
# workers). Each phase is a full serve --listen + loadgen exchange whose
# tallies must reconcile exactly, so the artifact is only ever produced
# from a balanced run. Failpoints stay compiled out here: this measures
# the deployment configuration.
WREQ="${BENCH_SERVE_REQUESTS:-2000}"

echo "== build CLI (release, offline, production configuration)"
cargo build --release --offline

run_serve_phase() {
    # $1 label  $2 queue  $3 workers  $4 batch  $5 connections  $6 out.json
    _log="$(mktemp /tmp/geoind-bench-serve.XXXXXX)"
    _dir="$(mktemp -d /tmp/geoind-bench-ledger.XXXXXX)"
    rm -rf "$_dir"
    target/release/geoind serve --listen 127.0.0.1:0 \
        --shards 4 --cap 1000000 --eps 0.4 --g 2 --synthetic-size 3000 \
        --queue "$2" --workers "$3" --batch "$4" --seed 7 \
        --ledger-dir "$_dir" > "$_log" &
    _pid=$!
    _addr=""
    _i=0
    while [ "$_i" -lt 200 ]; do
        _addr="$(sed -n 's/^# listening on //p' "$_log")"
        [ -n "$_addr" ] && break
        sleep 0.1
        _i=$((_i + 1))
    done
    [ -n "$_addr" ] || { echo "serve --listen never announced its port"; cat "$_log"; exit 1; }
    target/release/geoind loadgen --connect "$_addr" \
        --requests "$WREQ" --connections "$5" --users 64 --seed 9 \
        --max-attempts 40 --backoff-ms 2 --shutdown on \
        --json-out "$6" --label "$1"
    wait "$_pid"
    rm -f "$_log"
    rm -rf "$_dir"
}

echo "== serve wire: steady phase ($WREQ requests, roomy queue)"
run_serve_phase steady 64 4 8 4 /tmp/geoind-bench-steady.json

echo "== serve wire: overload phase ($WREQ requests, queue=2, 8 connections)"
run_serve_phase overload 2 1 1 8 /tmp/geoind-bench-overload.json

python3 - /tmp/geoind-bench-steady.json /tmp/geoind-bench-overload.json <<'EOF' > BENCH_serve.json
import json, sys
cells = [json.load(open(p)) for p in sys.argv[1:3]]
overload = next(c for c in cells if c["label"] == "overload")
# Shed responses per terminal request under overload; a request can be
# shed more than once before landing, so this is a rate, not a fraction.
shed_rate = overload["shed_seen"] / overload["requests"]
json.dump({"bench": "serve", "overload_shed_rate": shed_rate, "cells": cells},
          sys.stdout, indent=1)
print()
EOF
rm -f /tmp/geoind-bench-steady.json /tmp/geoind-bench-overload.json
cat BENCH_serve.json

echo "== smoke-check the artifact"
sh scripts/check_bench.sh BENCH_serve.json
