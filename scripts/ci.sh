#!/usr/bin/env sh
# Tier-1 verification: everything a clean checkout must pass, fully offline.
#
# The workspace is hermetic by policy (see DESIGN.md §6): every dependency is
# a path crate inside this repository, so `--offline` must always succeed.
# If a build here reaches for the network, a forbidden external dependency
# slipped into a Cargo.toml.
set -eu

cd "$(dirname "$0")/.."

# Temporary files and directories the gates below create; each is added
# to this list as it is made, and the list is removed on exit.
CLEANUP=""
trap 'rm -rf $CLEANUP' EXIT

# wait_for LOG PATTERN WHAT: poll LOG every 0.1 s, for up to 10 s, until
# a line matches PATTERN; if none does, print WHAT and the log and fail.
wait_for() {
    i=0
    until grep -q "$2" "$1"; do
        i=$((i + 1))
        [ "$i" -le 100 ] || { echo "$3"; cat "$1"; exit 1; }
        sleep 0.1
    done
}

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (library code panic-free: unwrap_used denied in lp/core)"
# The lints are declared in the crates themselves
# (`#![cfg_attr(not(test), warn(clippy::unwrap_used))]`); -D warnings
# promotes them (and everything else) to errors here.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo clippy (production configuration: failpoints compiled out)"
# Without --all-targets no dev-dependency activates the testkit's
# `failpoints` feature, so this lints the exact code a deployment ships:
# failpoint::hit() is a constant false and GEOIND_FAILPOINTS is inert.
cargo clippy --workspace --offline -- -D warnings

echo "== cargo doc (rustdoc warnings are errors: every intra-doc link resolves)"
# A doc link to a private, renamed or deleted item is a warning rustdoc
# prints and a reader trips over; -D warnings makes it fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo check benchmark/ (the repository benchmark builds against this API)"
# benchmark/ is a workspace of its own, so nothing above compiles it; a
# public-API change that breaks it would otherwise surface only as a
# failed benchmark run. Its build output stays under target/.
cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "== cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "== cargo test --workspace -q --offline"
cargo test --workspace -q --offline

echo "== full benchmark tree pinned (release: kept pivots, bundle length and FNV-1a)"
# Precomputes all 273 nodes of the repository benchmark's hierarchy in
# both solve modes and compares them with recorded values. A debug build
# takes minutes over it, so the test is ignored there and runs here.
cargo test --release -q --offline --test determinism -- \
    benchmark_full_tree_keeps_recorded_pivots_and_bytes

echo "== fault injection sweep (degradation ladder stays total per armed site)"
# Arm each failpoint site in rotation (see geoind_testkit::failpoint) and
# drive the env-facing resilience binary. Global arming is process-wide,
# hence the dedicated single-test binary and --test-threads=1. GEOIND_JOBS=2
# routes the binary's precompute section through the parallel fan-out, so
# each fault is also exercised against the worker pool and the sharded
# single-flight cache.
for fp in lp.refactor.singular lp.iterations.exhausted cache.import.corrupt \
          cache.lock.poisoned alloc.budget.infeasible data.loader.truncated \
          certify.channel.violation certify.repair.fail; do
    echo "   -- GEOIND_FAILPOINTS=$fp=* GEOIND_JOBS=2"
    GEOIND_FAILPOINTS="$fp=*" GEOIND_JOBS=2 cargo test -q -p geoind-core --offline \
        --test resilience_env -- --test-threads=1
done

echo "== journal crash sweep (ledger recovers >= served spend per armed site)"
# Same rotation for the serving layer's write-ahead journal: fault each
# journal step mid-workload (skip 3 hits, then fire once), crash without a
# checkpoint, and recover — the fail-closed budget invariant must hold.
for fp in serve.journal.append serve.journal.torn serve.journal.flush \
          serve.journal.enospc serve.journal.eio \
          serve.snapshot.write serve.snapshot.commit serve.snapshot.enospc \
          serve.wal.reset; do
    echo "   -- GEOIND_FAILPOINTS=$fp=3:1"
    GEOIND_FAILPOINTS="$fp=3:1" cargo test -q -p geoind-serve --offline \
        --test journal_env -- --test-threads=1
done

echo "== doctor run (precompute a bundle, then re-certify every channel)"
# The certification invariant end to end on the release binary: precompute
# a fresh channel bundle, import it through the certify-on-load gate, and
# re-certify every cached channel at the strict tolerance. Any quarantine
# or out-of-bounds LP residual exits nonzero.
DOCTOR_CACHE="$(mktemp /tmp/geoind-ci-cache.XXXXXX)"
JOBS4_CACHE="$(mktemp /tmp/geoind-ci-cache4.XXXXXX)"
CUTGEN_CACHE="$(mktemp /tmp/geoind-ci-cutgen.XXXXXX)"
TALL1_CACHE="$(mktemp /tmp/geoind-ci-tall1.XXXXXX)"
TALL4_CACHE="$(mktemp /tmp/geoind-ci-tall4.XXXXXX)"
EAGER1_CACHE="$(mktemp /tmp/geoind-ci-eager1.XXXXXX)"
EAGER4_CACHE="$(mktemp /tmp/geoind-ci-eager4.XXXXXX)"
CLEANUP="$CLEANUP $DOCTOR_CACHE $JOBS4_CACHE $CUTGEN_CACHE $TALL1_CACHE $TALL4_CACHE"
CLEANUP="$CLEANUP $EAGER1_CACHE $EAGER4_CACHE"
target/release/geoind precompute --out "$DOCTOR_CACHE" \
    --eps 0.4 --g 2 --synthetic-size 5000 --jobs 1
target/release/geoind doctor --cache "$DOCTOR_CACHE" \
    --eps 0.4 --g 2 --synthetic-size 5000 --requests 64 --seed 7

echo "== parallel precompute determinism (--jobs 4 bundle is byte-identical)"
# Each level's siblings warm-start in batches of 1, 2, 4, 8, … from the
# solved node whose prior is nearest their own, a schedule that is the
# same at every worker count, so the exported bundle must not depend on
# --jobs. The first pair's tree (5 channels) has one level of 3 siblings,
# so it reaches only two batches; the second's (eps 1.0: 21 channels) has
# a 16-node level whose siblings span batches of 1, 2, 4 and 8. The third
# pair solves that tree with cut generation off: every sibling then
# restarts on the whole eager dual.
target/release/geoind precompute --out "$JOBS4_CACHE" \
    --eps 0.4 --g 2 --synthetic-size 5000 --jobs 4
cmp "$DOCTOR_CACHE" "$JOBS4_CACHE"
target/release/geoind precompute --out "$TALL1_CACHE" \
    --eps 1.0 --g 2 --synthetic-size 5000 --jobs 1
target/release/geoind precompute --out "$TALL4_CACHE" \
    --eps 1.0 --g 2 --synthetic-size 5000 --jobs 4
cmp "$TALL1_CACHE" "$TALL4_CACHE"
target/release/geoind precompute --out "$EAGER1_CACHE" \
    --eps 1.0 --g 2 --synthetic-size 5000 --cutgen off --jobs 1
target/release/geoind precompute --out "$EAGER4_CACHE" \
    --eps 1.0 --g 2 --synthetic-size 5000 --cutgen off --jobs 4
cmp "$EAGER1_CACHE" "$EAGER4_CACHE"

echo "== cutgen doctor run (g=6 spanner cut-generation precompute, wall-budgeted)"
# The cut-generation tentpole end to end on the release binary at a real
# node size (g=6: each node is a 36-location OPT over a 1296-row dual):
# precompute with delayed constraint generation against a spanner target,
# then re-certify the bundle through the certify-on-load gate, once under
# the same spanner spec and once under the default full-set spec. Both
# must pass: admission re-certifies every channel over the full pair set
# at the strict tolerance whatever the constraint set, and the import
# gate and doctor's re-check hold it to that same tolerance. `timeout`
# enforces the wall budget: before cut generation this grid cost minutes
# per node, so blowing the budget is a perf regression, not flake.
timeout 300 target/release/geoind precompute --out "$CUTGEN_CACHE" \
    --eps 0.4 --g 6 --synthetic-size 5000 --jobs 1 \
    --constraints spanner:1.2 --cutgen on
timeout 120 target/release/geoind doctor --cache "$CUTGEN_CACHE" \
    --eps 0.4 --g 6 --synthetic-size 5000 --requests 64 --seed 7 \
    --constraints spanner:1.2 --cutgen on
timeout 120 target/release/geoind doctor --cache "$CUTGEN_CACHE" \
    --eps 0.4 --g 6 --synthetic-size 5000 --requests 64 --seed 7

echo "== statistical equivalence suite (seeded chi-square, cannot flake)"
# The flattened-sampling equivalence claims (DESIGN.md §12): exact alias
# row marginals, chi-square fits for the alias/CDF/fused/Laplace paths.
# Every draw is seeded, so the statistics are constants — a failure is a
# real distribution change, never sampling noise.
cargo test -q --offline --test sampling_equiv -- --test-threads=1

echo "== socket smoke (serve --listen + loadgen over loopback, wire faults armed)"
# The networked wire end to end on the release binary: a server with live
# failpoint sites serves a retrying loadgen client while each socket fault
# fires in rotation (skip 2 hits, then fire twice). GEOIND_FAILPOINTS is
# set on the server process only; the client retries through every fault
# and still must reconcile exactly with the server's gate counters.
# NOTE: this rebuild clobbers target/release/geoind with a failpoints
# build, so it must stay after every plain-release gate above.
cargo build --release --offline --features failpoints
WIRE_LOG="$(mktemp /tmp/geoind-ci-wire.XXXXXX)"
WIRE_DIR="/tmp/geoind-ci-wire-ledger.$$"
CLEANUP="$CLEANUP $WIRE_LOG $WIRE_DIR"
for fp in serve.net.accept serve.net.read_torn serve.net.write_short serve.net.stall; do
    echo "   -- GEOIND_FAILPOINTS=$fp=2:2 (server side only)"
    rm -rf "$WIRE_DIR"
    : > "$WIRE_LOG"
    GEOIND_FAILPOINTS="$fp=2:2" target/release/geoind serve \
        --listen 127.0.0.1:0 --shards 4 --cap 100.0 \
        --eps 0.4 --g 2 --synthetic-size 3000 \
        --workers 2 --queue 16 --read-timeout-ms 300 --seed 7 \
        --ledger-dir "$WIRE_DIR" > "$WIRE_LOG" &
    WIRE_PID=$!
    wait_for "$WIRE_LOG" "^# listening on " "server never announced its port"
    ADDR="$(sed -n 's/^# listening on //p' "$WIRE_LOG")"
    target/release/geoind loadgen --connect "$ADDR" \
        --requests 60 --connections 3 --users 6 --seed 9 \
        --max-attempts 20 --backoff-ms 5 --shutdown on
    wait "$WIRE_PID"
    grep -q "shed_net=" "$WIRE_LOG" || {
        echo "server report missing wire counters"; cat "$WIRE_LOG"; exit 1;
    }
done

echo "== replication smoke (primary+follower pair, serve.repl.* faults armed in rotation)"
# Warm-standby replication end to end on the release binary: every spend the
# primary serves must first be acked durable by the follower, so the
# retrying client reconciles exactly no matter which replication step
# faults. Each serve.repl.* site fires mid-run (skip 2 hits, then fire
# twice): ship_torn and ack_lost on the primary's shipper, stale_gen in the
# follower's applier. The last pass repeats ack_lost at --max-replica-lag 1,
# so every spend meets a full bound and ships from under its shard's slot
# lock while acks are lost.
REPL_P_LOG="$(mktemp /tmp/geoind-ci-repl-p.XXXXXX)"
REPL_F_LOG="$(mktemp /tmp/geoind-ci-repl-f.XXXXXX)"
REPL_P_DIR="/tmp/geoind-ci-repl-primary.$$"
REPL_F_DIR="/tmp/geoind-ci-repl-follower.$$"
CLEANUP="$CLEANUP $REPL_P_LOG $REPL_F_LOG $REPL_P_DIR $REPL_F_DIR"
for pass in serve.repl.ship_torn:8 serve.repl.ack_lost:8 serve.repl.stale_gen:8 \
            serve.repl.ack_lost:1; do
    fp="${pass%:*}"
    LAG="${pass##*:}"
    if [ "$fp" = "serve.repl.stale_gen" ]; then
        P_FP=""; F_FP="$fp=2:2"
    else
        P_FP="$fp=2:2"; F_FP=""
    fi
    echo "   -- primary GEOIND_FAILPOINTS='$P_FP' --max-replica-lag $LAG follower GEOIND_FAILPOINTS='$F_FP'"
    rm -rf "$REPL_P_DIR" "$REPL_F_DIR"
    : > "$REPL_P_LOG"
    : > "$REPL_F_LOG"
    GEOIND_FAILPOINTS="$P_FP" target/release/geoind serve \
        --listen 127.0.0.1:0 --shards 4 --cap 100.0 --max-replica-lag "$LAG" \
        --eps 0.4 --g 2 --synthetic-size 3000 \
        --workers 2 --queue 16 --read-timeout-ms 300 --seed 7 \
        --ledger-dir "$REPL_P_DIR" > "$REPL_P_LOG" &
    REPL_P_PID=$!
    wait_for "$REPL_P_LOG" "^# listening on " "replication primary never announced its port"
    P_ADDR="$(sed -n 's/^# listening on //p' "$REPL_P_LOG")"
    GEOIND_FAILPOINTS="$F_FP" target/release/geoind serve \
        --listen 127.0.0.1:0 --shards 4 --cap 100.0 --follow "$P_ADDR" \
        --eps 0.4 --g 2 --synthetic-size 3000 \
        --workers 2 --queue 16 --read-timeout-ms 300 --seed 7 \
        --ledger-dir "$REPL_F_DIR" > "$REPL_F_LOG" &
    REPL_F_PID=$!
    wait_for "$REPL_F_LOG" "registered: true" "follower never registered"
    target/release/geoind loadgen --connect "$P_ADDR" \
        --requests 60 --connections 3 --users 6 --seed 9 \
        --max-attempts 20 --backoff-ms 5 --shutdown on
    wait "$REPL_P_PID"
    kill -TERM "$REPL_F_PID" 2>/dev/null || true
    wait "$REPL_F_PID" || true
    grep -q "replica_lag=" "$REPL_P_LOG" || {
        echo "primary report missing replication counters"; cat "$REPL_P_LOG"; exit 1;
    }
    # The primary serves a spend only after the follower acks it, so the
    # follower's final line must count applied records.
    grep "^serve " "$REPL_F_LOG" | grep -Eq "replica_applied=[1-9]" || {
        echo "follower applied no replicated records"; cat "$REPL_F_LOG"; exit 1;
    }
done

echo "== failover drill (kill -9 the primary mid-load; fenced revival proven)"
# The warm-standby tentpole end to end: a replicating primary is killed -9
# under live load; the client detects the loss, promotes the follower and
# re-points (SIGUSR1 doubles as the operator fallback for the race where
# the load finishes first), and the run must still reconcile — exact
# against live endpoints, provable bounds for the counters the dead
# primary took with it. Then the stale primary is revived on its old
# ledger: its first spend must be refused fenced, proven by fenced= in its
# own final report line. The load is sized (64000 requests, 8000 per
# user at ε 0.4 against a cap of 6400) to outlast the 1 s before the
# kill several times over at the ~10k replicated requests per second
# measured on a shared 2-core VM, and the drill fails unless the
# loadgen line reads failed_over=true: a load that finished before the
# kill would pass through the SIGUSR1 fallback without failing over.
DRILL_P_LOG="$(mktemp /tmp/geoind-ci-drill-p.XXXXXX)"
DRILL_F_LOG="$(mktemp /tmp/geoind-ci-drill-f.XXXXXX)"
DRILL_L_LOG="$(mktemp /tmp/geoind-ci-drill-load.XXXXXX)"
DRILL_P_DIR="/tmp/geoind-ci-drill-primary.$$"
DRILL_F_DIR="/tmp/geoind-ci-drill-follower.$$"
CLEANUP="$CLEANUP $DRILL_P_LOG $DRILL_F_LOG $DRILL_L_LOG $DRILL_P_DIR $DRILL_F_DIR"
target/release/geoind serve \
    --listen 127.0.0.1:0 --shards 4 --cap 6400.0 --max-replica-lag 16 \
    --eps 0.4 --g 2 --synthetic-size 3000 \
    --workers 2 --queue 16 --read-timeout-ms 300 --seed 7 \
    --ledger-dir "$DRILL_P_DIR" > "$DRILL_P_LOG" &
DRILL_P_PID=$!
wait_for "$DRILL_P_LOG" "^# listening on " "drill primary never announced its port"
DRILL_P_ADDR="$(sed -n 's/^# listening on //p' "$DRILL_P_LOG")"
target/release/geoind serve \
    --listen 127.0.0.1:0 --shards 4 --cap 6400.0 --follow "$DRILL_P_ADDR" \
    --eps 0.4 --g 2 --synthetic-size 3000 \
    --workers 2 --queue 16 --read-timeout-ms 300 --seed 7 \
    --ledger-dir "$DRILL_F_DIR" > "$DRILL_F_LOG" &
DRILL_F_PID=$!
# The follower announces its port before it registers.
wait_for "$DRILL_F_LOG" "registered: true" "drill follower never registered"
DRILL_F_ADDR="$(sed -n 's/^# listening on //p' "$DRILL_F_LOG")"
target/release/geoind loadgen --connect "$DRILL_P_ADDR" --failover "$DRILL_F_ADDR" \
    --requests 64000 --connections 4 --users 8 --seed 11 \
    --max-attempts 40 --backoff-ms 5 --retry-budget 8000 > "$DRILL_L_LOG" 2>&1 &
DRILL_LOAD_PID=$!
sleep 1
kill -9 "$DRILL_P_PID" 2>/dev/null || true
kill -USR1 "$DRILL_F_PID" 2>/dev/null || true
wait "$DRILL_LOAD_PID" || {
    echo "failover load did not reconcile"; cat "$DRILL_L_LOG" "$DRILL_F_LOG"; exit 1;
}
cat "$DRILL_L_LOG"
grep "^loadgen " "$DRILL_L_LOG" | grep -q "failed_over=true" || {
    echo "the load never failed over: it finished before the kill"; exit 1;
}
wait "$DRILL_P_PID" 2>/dev/null || true
# Revive the stale primary on its crashed ledger: it recovers, resumes
# shipping to its persisted peer, and the promoted follower's newer fence
# generation must refuse it before a single stale record lands.
: > "$DRILL_P_LOG"
target/release/geoind serve \
    --listen 127.0.0.1:0 --shards 4 --cap 6400.0 --max-replica-lag 16 \
    --eps 0.4 --g 2 --synthetic-size 3000 \
    --workers 2 --queue 16 --read-timeout-ms 300 --seed 7 \
    --ledger-dir "$DRILL_P_DIR" > "$DRILL_P_LOG" &
DRILL_P_PID=$!
wait_for "$DRILL_P_LOG" "^# listening on " "revived primary never announced its port"
STALE_ADDR="$(sed -n 's/^# listening on //p' "$DRILL_P_LOG")"
if target/release/geoind loadgen --connect "$STALE_ADDR" \
    --requests 6 --connections 1 --users 2 --seed 3 \
    --max-attempts 3 --backoff-ms 5; then
    echo "revived stale primary served a spend"; cat "$DRILL_P_LOG"; exit 1
fi
kill -TERM "$DRILL_P_PID" 2>/dev/null || true
wait "$DRILL_P_PID" || true
grep -Eq "fenced=[1-9]" "$DRILL_P_LOG" || {
    echo "stale primary was never fenced"; cat "$DRILL_P_LOG"; exit 1;
}
kill -TERM "$DRILL_F_PID" 2>/dev/null || true
wait "$DRILL_F_PID" || true
grep -q "served=" "$DRILL_F_LOG" || {
    echo "promoted follower report missing"; cat "$DRILL_F_LOG"; exit 1;
}

echo "== chaos soak (~60s of rotating disk faults; books balance, shards self-heal)"
# Rotating randomized disk-fault specs against the auto-repair server: each
# round arms a fresh combination of ENOSPC / transient-EIO sites, drives a
# retrying load, and requires *exact* reconciliation (loadgen exits nonzero
# on any mismatch). Across the soak at least one shard must prove the full
# quarantine -> scavenge -> verified re-admission round trip, observable as
# repaired_shards >= 1 in a server's final report. SOAK_SEED reproduces a
# run exactly.
SOAK_SEED="${SOAK_SEED:-$(date +%s)}"
echo "   -- SOAK_SEED=$SOAK_SEED (export SOAK_SEED to reproduce)"
SOAK_LOG="$(mktemp /tmp/geoind-ci-soak.XXXXXX)"
SOAK_DIR="/tmp/geoind-ci-soak-ledger.$$"
CLEANUP="$CLEANUP $SOAK_LOG $SOAK_DIR"
SOAK_END=$(( $(date +%s) + 60 ))
SOAK_STATE=$SOAK_SEED
SOAK_ROUNDS=0
SOAK_REPAIRED=0
while [ "$(date +%s)" -lt "$SOAK_END" ]; do
    SOAK_ROUNDS=$((SOAK_ROUNDS + 1))
    SOAK_STATE=$(( (SOAK_STATE * 1103515245 + 12345) % 2147483648 ))
    case $((SOAK_STATE % 3)) in
        # A burst of consecutive ENOSPC appends: strikes out (quarantines)
        # every shard it lands on three times in a row; auto-repair must
        # scavenge it back while the load keeps retrying.
        0) SOAK_FP="serve.journal.enospc=$((SOAK_STATE % 7 + 4)):40" ;;
        # Transient EIO: absorbed by the bounded in-place retry, at most a
        # bounded tail of typed refusals the client retries through.
        1) SOAK_FP="serve.journal.eio=$((SOAK_STATE % 11)):6" ;;
        # Transient EIO layered on an ENOSPC burst: the bounded in-place
        # retry and the quarantine/repair path fire in the same run.
        2) SOAK_FP="serve.journal.eio=$((SOAK_STATE % 5)):4,serve.journal.enospc=$((SOAK_STATE % 9 + 8)):40" ;;
    esac
    echo "   -- round $SOAK_ROUNDS: GEOIND_FAILPOINTS=$SOAK_FP"
    rm -rf "$SOAK_DIR"
    : > "$SOAK_LOG"
    GEOIND_FAILPOINTS="$SOAK_FP" target/release/geoind serve \
        --listen 127.0.0.1:0 --shards 4 --cap 100.0 --repair auto \
        --eps 0.4 --g 2 --synthetic-size 3000 \
        --workers 2 --queue 16 --read-timeout-ms 300 --seed 7 \
        --ledger-dir "$SOAK_DIR" > "$SOAK_LOG" &
    SOAK_PID=$!
    wait_for "$SOAK_LOG" "^# listening on " "soak server never announced its port"
    ADDR="$(sed -n 's/^# listening on //p' "$SOAK_LOG")"
    target/release/geoind loadgen --connect "$ADDR" \
        --requests 80 --connections 4 --users 8 --seed "$((SOAK_STATE % 1000))" \
        --max-attempts 40 --backoff-ms 5 --shutdown on
    wait "$SOAK_PID"
    grep -Eq "repaired_shards=[1-9]" "$SOAK_LOG" && SOAK_REPAIRED=1
done
echo "   -- soak rounds: $SOAK_ROUNDS"
[ "$SOAK_REPAIRED" -eq 1 ] || {
    echo "chaos soak never round-tripped a shard repair"; cat "$SOAK_LOG"; exit 1;
}

echo "== bench smoke (bench.sh artifacts parse and report speedup >= 1.0)"
# The full benchmarks are generated by scripts/bench.sh; here we only
# check the committed artifacts still parse and their headlines never
# regress below break-even, so this gate cannot flake on machine load.
sh scripts/check_bench.sh BENCH_precompute.json
sh scripts/check_bench.sh BENCH_sample.json
sh scripts/check_bench.sh BENCH_serve.json

echo "== ci: all checks passed"
