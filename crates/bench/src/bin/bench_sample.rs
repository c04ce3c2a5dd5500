//! Benchmark for the served sampling hot path — the admission-built
//! flattened alias tables behind `MsmMechanism::flatten`.
//!
//! ```text
//! bench_sample --g 4 --height 3 --eps 0.5 --requests 200000 --batch 256
//! ```
//!
//! Three cells, each over a fully warm mechanism (every channel admitted
//! and cached before timing starts, so no LP solve is ever on the clock):
//!
//! * `unfused_alias` — the baseline: per-level channel-cache fetch, each
//!   row sampled through its admission-built alias table;
//! * `fused` — single requests through the fused flattened-tree walk
//!   (one contiguous table, no cache fetch, no allocation);
//! * `fused_batched` — `report_many` batches through the same tree, the
//!   shape the serve worker loop uses.
//!
//! The three paths are bit-identical per seed (pinned by the determinism
//! suite, and re-asserted on the sums below); this binary measures only
//! the cost. Output is one JSON object on stdout —
//! `scripts/bench.sh` redirects it into `BENCH_sample.json` and
//! `scripts/check_bench.sh` gates it in CI.

use geoind_core::alloc::AllocationStrategy;
use geoind_core::msm::MsmMechanism;
use geoind_core::Mechanism;
use geoind_data::prior::GridPrior;
use geoind_rng::SeededRng;
use geoind_spatial::geom::{BBox, Point};
use geoind_spatial::grid::Grid;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let g: u32 = flag("--g").and_then(|v| v.parse().ok()).unwrap_or(4);
    let height: u32 = flag("--height").and_then(|v| v.parse().ok()).unwrap_or(3);
    let eps: f64 = flag("--eps").and_then(|v| v.parse().ok()).unwrap_or(0.5);
    let requests: usize = flag("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let batch: usize = flag("--batch")
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
        .max(1);
    let points: usize = flag("--points")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
        .max(1);
    bench_sample(g, height, eps, requests, batch, points);
}

/// Deterministic, mildly non-uniform, strictly positive prior (same
/// construction as `bench_precompute`): siblings get distinct LPs and no
/// node degenerates.
fn skewed_prior(domain: BBox, g: u32) -> GridPrior {
    let cells = (g as usize) * (g as usize);
    let weights: Vec<f64> = (0..cells)
        .map(|i| 1.0 + ((i * 37) % 101) as f64 / 25.0)
        .collect();
    GridPrior::from_weights(Grid::new(domain, g), weights)
}

fn build(g: u32, height: u32, eps: f64) -> MsmMechanism {
    let domain = BBox::square(16.0);
    MsmMechanism::builder(domain, skewed_prior(domain, g.pow(height)))
        .epsilon(eps)
        .granularity(g)
        .strategy(AllocationStrategy::FixedHeight(height))
        .build()
        .expect("benchmark configuration must build")
}

struct Cell {
    json: String,
    ns_per_op: f64,
}

/// Laps per timed cell; the fastest is reported (the classic defense
/// against scheduler noise on a shared box — the mechanism's cost is the
/// floor, interference only ever adds).
const LAPS: usize = 3;

/// Time `requests` single reports through `msm`, returning the emitted
/// cell and the bitwise sum of all reported coordinates. One untimed
/// warm lap over the inputs first, so no cell pays first-touch costs for
/// the structures its path uses.
fn time_single(msm: &MsmMechanism, path: &str, xs: &[Point], requests: usize) -> (Cell, f64) {
    let mut warm = SeededRng::from_seed(1);
    for &x in xs {
        let _ = msm.report(x, &mut warm);
    }
    let mut wall = f64::INFINITY;
    let mut sum = 0.0f64;
    for _ in 0..LAPS {
        let mut rng = SeededRng::from_seed(0xBE_AC);
        sum = 0.0;
        let start = Instant::now();
        for i in 0..requests {
            let z = msm.report(xs[i % xs.len()], &mut rng);
            sum += z.x + z.y;
        }
        wall = wall.min(start.elapsed().as_secs_f64());
    }
    let ns = wall * 1e9 / requests as f64;
    eprintln!("# {path}: {ns:.1} ns/op");
    let json = format!(
        "    {{\"path\": \"{path}\", \"requests\": {requests}, \
         \"wall_s\": {wall:.6}, \"ns_per_op\": {ns:.2}}}"
    );
    (
        Cell {
            json,
            ns_per_op: ns,
        },
        sum,
    )
}

fn bench_sample(g: u32, height: u32, eps: f64, requests: usize, batch: usize, points: usize) {
    let domain = BBox::square(16.0);
    let side = domain.side();
    let xs: Vec<Point> = (0..points)
        .map(|i| {
            let a = (i % 61) as f64 / 61.0;
            let b = (i % 53) as f64 / 53.0;
            Point::new(domain.min.x + a * side, domain.min.y + b * side)
        })
        .collect();

    let msm = build(g, height, eps);
    eprintln!("# warming: solving and admitting every channel");
    let start = Instant::now();
    let nodes = msm.precompute(usize::MAX).expect("precompute");
    eprintln!(
        "# {nodes} nodes admitted in {:.2}s",
        start.elapsed().as_secs_f64()
    );
    // Cell 1: the per-level walk with admission-built alias tables.
    assert!(!msm.is_flattened());
    let (alias_cell, alias_sum) = time_single(&msm, "unfused_alias", &xs, requests);

    // Cell 2: single requests through the fused flattened tree.
    msm.flatten().expect("flatten");
    let (fused_cell, fused_sum) = time_single(&msm, "fused", &xs, requests);

    // Cell 3: report_many batches through the same tree (the serve
    // worker-loop shape: one tree resolution per batch).
    let rounds = requests / batch;
    let batched_requests = rounds * batch;
    let mut wall_batched = f64::INFINITY;
    let mut batched_sum = 0.0f64;
    let mut scratch = Vec::with_capacity(batch);
    for _ in 0..LAPS {
        let mut rng = SeededRng::from_seed(0xBE_AC);
        batched_sum = 0.0;
        let start = Instant::now();
        for round in 0..rounds {
            scratch.clear();
            scratch.extend((0..batch).map(|i| xs[(round * batch + i) % xs.len()]));
            let zs = msm.report_many(&scratch, &mut rng).expect("batch");
            for z in zs {
                batched_sum += z.x + z.y;
            }
        }
        wall_batched = wall_batched.min(start.elapsed().as_secs_f64());
    }
    let ns_batched = wall_batched * 1e9 / batched_requests as f64;
    eprintln!("# fused_batched (batch {batch}): {ns_batched:.1} ns/op");

    // The three paths drew identical streams from the same
    // seed, so their sums must agree to the last bit (the per-request
    // cells over `requests` inputs, the batched cell over its rounds).
    assert_eq!(
        alias_sum.to_bits(),
        fused_sum.to_bits(),
        "alias and fused walks diverged"
    );
    let mut check = SeededRng::from_seed(0xBE_AC);
    let mut sequential_sum = 0.0f64;
    for i in 0..batched_requests {
        let z = msm.report(xs[i % xs.len()], &mut check);
        sequential_sum += z.x + z.y;
    }
    assert_eq!(
        batched_sum.to_bits(),
        sequential_sum.to_bits(),
        "batched serving diverged from sequential"
    );

    let baseline = alias_cell.ns_per_op;
    let speedup = baseline / fused_cell.ns_per_op.max(1e-12);
    let batched_speedup = baseline / ns_batched.max(1e-12);
    let cells = [
        alias_cell.json,
        fused_cell.json,
        format!(
            "    {{\"path\": \"fused_batched\", \"batch\": {batch}, \
             \"requests\": {batched_requests}, \"wall_s\": {wall_batched:.6}, \
             \"ns_per_op\": {ns_batched:.2}}}"
        ),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\n  \"bench\": \"sample\",\n  \"g\": {g},\n  \"height\": {height},\n  \
         \"eps\": {eps},\n  \"cores\": {cores},\n  \"nodes\": {nodes},\n  \
         \"baseline\": \"unfused_alias\",\n  \"cells\": [\n{}\n  ],\n  \
         \"speedup\": {speedup:.4},\n  \"batched_speedup\": {batched_speedup:.4}\n}}",
        cells.join(",\n")
    );
}
