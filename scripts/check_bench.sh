#!/usr/bin/env sh
# CI smoke for committed bench artifacts (BENCH_precompute.json,
# BENCH_sample.json): the file must parse as JSON and its headline speedup
# must not regress below break-even. Deliberately nothing else —
# wall-clock numbers depend on machine load, so any threshold tighter
# than ">= 1.0 vs the pre-optimization path" would flake.
set -eu

FILE="${1:-BENCH_precompute.json}"

python3 - "$FILE" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    data = json.load(f)

cells = data["cells"]
assert isinstance(cells, list) and cells, "bench artifact has no cells"

if data.get("bench") == "sample":
    # bench_sample: ns/op cells over the serving hot path.
    paths = [cell["path"] for cell in cells]
    for cell in cells:
        assert cell["wall_s"] > 0, f"non-positive wall clock: {cell}"
        assert cell["ns_per_op"] > 0, f"non-positive ns/op: {cell}"
        assert cell["requests"] > 0, f"no requests timed: {cell}"
    for required in ("unfused_alias", "fused", "fused_batched"):
        assert required in paths, f"missing bench cell: {required}"
    baseline = data["baseline"]
    assert baseline in paths, f"baseline {baseline!r} has no cell"
    speedup = float(data["speedup"])
    batched = float(data["batched_speedup"])
    assert speedup >= 1.0, f"fused speedup regressed below break-even: {speedup}"
    assert batched >= 1.0, f"batched speedup regressed below break-even: {batched}"
    by_path = {cell["path"]: cell for cell in cells}
    print(
        f"bench ok ({path}): fused {by_path['fused']['ns_per_op']:.0f} ns/op, "
        f"{speedup:.2f}x over {baseline}, batched {batched:.2f}x, "
        f"{int(data['cores'])} core(s)"
    )
elif data.get("bench") == "serve":
    # bench.sh serve phases: loadgen artifacts over the networked wire.
    # Only invariants that cannot flake on machine load: a reconciled
    # loadgen run accounts for every request exactly once, latency
    # percentiles are ordered, and the steady phase actually serves.
    by_label = {cell["label"]: cell for cell in cells}
    for required in ("steady", "overload"):
        assert required in by_label, f"missing serve phase: {required}"
    for cell in cells:
        assert cell["wall_s"] > 0, f"non-positive wall clock: {cell}"
        assert cell["requests"] > 0, f"no requests driven: {cell}"
        assert cell["req_per_s"] > 0, f"non-positive throughput: {cell}"
        assert 0 <= cell["p50_ms"] <= cell["p99_ms"], f"latency percentiles out of order: {cell}"
        terminal = (
            cell["served"] + cell["refused"] + cell["expired"] + cell["journal_faults"]
        )
        assert terminal == cell["requests"], (
            f"reconciled run must account for every request exactly once: {cell}"
        )
        for key in ("retries", "shed_seen", "torn_seen", "server_retried"):
            assert cell[key] >= 0, f"negative counter {key}: {cell}"
    assert by_label["steady"]["served"] > 0, "steady phase served nothing"
    shed_rate = float(data["overload_shed_rate"])
    assert shed_rate >= 0, f"negative shed rate: {shed_rate}"
    print(
        f"bench ok ({path}): steady {by_label['steady']['req_per_s']:.0f} req/s "
        f"p99 {by_label['steady']['p99_ms']:.1f} ms, overload "
        f"{by_label['overload']['req_per_s']:.0f} req/s shedding "
        f"{shed_rate:.2f} refusals/request, all retried to terminal"
    )
else:
    # bench=precompute (and legacy artifacts without a "bench" tag): the
    # jobs×warm grid plus, since the cut-generation work, single-node
    # OPT rows keyed by constraint strategy. Only load-independent
    # invariants — structural row accounting, certified losses, and the
    # two headline speedups at break-even (the same bar the jobs grid
    # has always used; the measured ratios sit far above it).
    jobs_cells = [cell for cell in cells if "jobs" in cell]
    cut_cells = [cell for cell in cells if "constraints" in cell]
    assert jobs_cells, "precompute artifact lost its jobs grid"
    for cell in cells:
        assert cell["wall_s"] > 0, f"non-positive wall clock: {cell}"
        assert cell["pivots"] >= 0, f"negative pivot count: {cell}"
        # LU factorizations of a basis: every cell counts them, and a solve
        # that pivoted refactorized at least once (its exit basis).
        refactorizations = cell.get("refactorizations")
        assert isinstance(refactorizations, int), f"missing integer refactorizations: {cell}"
        assert refactorizations >= 0, f"negative refactorizations: {cell}"
        if cell["pivots"] > 0:
            assert refactorizations >= 1, f"pivots without a refactorization: {cell}"
        # What those factorizations factored: the blocks' orders and their
        # L and U nonzeros, each summed.
        for key in ("block_order", "factor_nonzeros"):
            assert isinstance(cell.get(key), int), f"missing integer {key}: {cell}"
            assert cell[key] >= 0, f"negative {key}: {cell}"
    # Abandoned sibling warm starts: every jobs-grid cell counts them and
    # the pivots they threw away (never part of "pivots"); a cold cell
    # tries no warm start, so it must report both as 0.
    for cell in jobs_cells:
        for key in ("warm_fallbacks", "discarded_pivots"):
            assert isinstance(cell.get(key), int), f"missing integer {key}: {cell}"
            assert cell[key] >= 0, f"negative {key}: {cell}"
        if not cell["warm"]:
            assert cell["warm_fallbacks"] == 0 and cell["discarded_pivots"] == 0, (
                f"cold cell reports abandoned warm starts: {cell}"
            )
    for cell in cut_cells:
        strategy = cell["constraints"].split(":")[0]
        assert strategy in ("full", "spanner"), f"unknown strategy: {cell}"
        assert isinstance(cell["cutgen"], bool), f"cutgen must be a bool: {cell}"
        assert cell["g"] >= 2, f"degenerate grid: {cell}"
        assert 0 < cell["rows_active"] <= cell["rows_total"], (
            f"working set must be a nonempty subset of the target rows: {cell}"
        )
        if cell["cutgen"]:
            assert cell["cut_rounds"] >= 1, f"cutgen solve took no rounds: {cell}"
        else:
            assert cell["cut_rounds"] == 0, f"eager solve reported rounds: {cell}"
        assert cell["loss"] > 0, f"non-positive expected loss: {cell}"
    speedup = float(data["speedup"])
    assert speedup >= 1.0, f"speedup regressed below break-even: {speedup}"
    line = (
        f"bench ok ({path}): speedup {speedup:.2f}x over sequential cold, "
        f"pivot reduction {float(data['pivot_reduction']) * 100:.1f}% "
        f"warm vs cold, {int(data['cores'])} core(s)"
    )
    if cut_cells:
        strategies = {(cell["constraints"].split(":")[0], cell["cutgen"]) for cell in cut_cells}
        assert ("full", True) in strategies, "missing full-target cutgen row"
        assert any(s == "spanner" for s, _ in strategies), "missing spanner row"
        # cutgen_speedup is eager/cutgen wall at the headline grid — a
        # *finding*, not a gate: the engine-level work made the eager
        # build competitive again, so the honest ratio can sit below 1
        # (see DESIGN.md §16). Only the spanner ratio is structural
        # (strictly smaller program, same solve path) and must not
        # regress below break-even.
        cutgen_speedup = float(data["cutgen_speedup"])
        spanner_speedup = float(data["spanner_speedup"])
        assert cutgen_speedup > 0, f"non-positive cutgen ratio: {cutgen_speedup}"
        assert spanner_speedup >= 1.0, (
            f"spanner sparsification regressed below break-even: {spanner_speedup}"
        )
        headline = max(
            (c for c in cut_cells if c["constraints"] == "full" and c["cutgen"]),
            key=lambda c: c["g"],
        )
        line += (
            f"; g={headline['g']} exact optimum via cutgen in "
            f"{headline['wall_s']:.0f}s "
            f"({headline['rows_active']}/{headline['rows_total']} rows, "
            f"eager/cutgen {cutgen_speedup:.2f}x), "
            f"spanner {spanner_speedup:.2f}x on top"
        )
    print(line)
EOF
