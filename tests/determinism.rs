//! Seeded-determinism regression guard for the RNG swap: a fixed seed must
//! yield **bit-identical** outputs across two independent runs of every
//! sampling path (planar Laplace, the multi-step mechanism, alias tables).
//! This is the contract that makes every experiment in `EXPERIMENTS.md`
//! reproducible from a single recorded `u64`.

use geoind::math::sampling::AliasTable;
use geoind::prelude::*;
use geoind_rng::SeededRng;

fn city() -> Dataset {
    SyntheticCity::vegas_like().generate_with_size(5_000, 500)
}

/// Two fresh RNGs with the same seed drive `PlanarLaplace::report` to
/// bit-identical reported locations.
#[test]
fn planar_laplace_report_is_bit_deterministic() {
    let pl = PlanarLaplace::new(0.7);
    let xs: Vec<Point> = (0..100)
        .map(|i| Point::new((i % 17) as f64 + 0.5, (i % 13) as f64 + 0.25))
        .collect();
    let run = || {
        let mut rng = SeededRng::from_seed(0xDE7E_12F1);
        xs.iter()
            .map(|&x| pl.report(x, &mut rng))
            .collect::<Vec<Point>>()
    };
    let (a, b) = (run(), run());
    for (p, q) in a.iter().zip(&b) {
        assert!(
            p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits(),
            "PL reports diverged: {p:?} vs {q:?}"
        );
    }
}

/// Two fresh RNGs with the same seed drive `Msm::report` to bit-identical
/// outputs — covering the whole hierarchical descent (per-level channel
/// sampling) and the channel cache, whose state must not leak into the
/// sampled stream.
#[test]
fn msm_report_is_bit_deterministic() {
    let dataset = city();
    let prior = GridPrior::from_dataset(&dataset, 8);
    let msm = MsmMechanism::builder(dataset.domain(), prior)
        .epsilon(0.8)
        .granularity(2)
        .build()
        .expect("valid configuration");
    let xs: Vec<Point> = dataset
        .checkins()
        .iter()
        .take(60)
        .map(|c| c.location)
        .collect();
    let run = || {
        let mut rng = SeededRng::from_seed(0x5EED_CAFE);
        xs.iter()
            .map(|&x| msm.report(x, &mut rng))
            .collect::<Vec<Point>>()
    };
    // Second run reuses the warm cache; outputs must not change.
    let (a, b) = (run(), run());
    for (i, (p, q)) in a.iter().zip(&b).enumerate() {
        assert!(
            p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits(),
            "MSM reports diverged at query {i}: {p:?} vs {q:?}"
        );
    }
}

/// Alias-table sampling is a pure function of (weights, seed).
#[test]
fn alias_sampling_is_bit_deterministic() {
    let weights: Vec<f64> = (1..=64).map(|i| (i as f64).sqrt()).collect();
    let table = AliasTable::new(&weights);
    let run = || {
        let mut rng = SeededRng::from_seed(0xA_11A5);
        (0..10_000)
            .map(|_| table.sample(&mut rng))
            .collect::<Vec<usize>>()
    };
    assert_eq!(
        run(),
        run(),
        "alias sampling diverged across identical seeds"
    );
}

/// Fault-injected runs are as reproducible as healthy ones: a fixed seed
/// plus a fixed *count-based* fault schedule yields bit-identical outputs
/// through the degradation ladder — including which tier served each
/// query. This is what makes a fault reported from the field replayable.
#[test]
fn degraded_ladder_is_bit_deterministic_under_armed_faults() {
    use geoind_testkit::failpoint::{FailSpec, Session};

    let dataset = city();
    let xs: Vec<Point> = dataset
        .checkins()
        .iter()
        .take(30)
        .map(|c| c.location)
        .collect();
    let run = || {
        // A fresh mechanism (cold channel cache) and a freshly armed spec
        // each run: the schedule is part of the replayed configuration.
        let prior = GridPrior::from_dataset(&dataset, 8);
        let ladder = ResilientMechanism::from_builder(
            MsmMechanism::builder(dataset.domain(), prior)
                .epsilon(0.8)
                .granularity(2),
        )
        .expect("valid configuration");
        let mut fp = Session::new();
        fp.arm("lp.refactor.singular", FailSpec::times(4));
        let mut rng = SeededRng::from_seed(0xFA17_5EED);
        xs.iter()
            .map(|&x| ladder.report_with_tier(x, &mut rng))
            .collect::<Vec<(Point, Tier)>>()
    };
    let (a, b) = (run(), run());
    assert!(
        a.iter().any(|&(_, t)| t != Tier::Optimal),
        "fault schedule never degraded — the test is vacuous"
    );
    assert!(
        a.iter().any(|&(_, t)| t == Tier::Optimal),
        "every query degraded — recovery path untested"
    );
    for (i, ((p, tp), (q, tq))) in a.iter().zip(&b).enumerate() {
        assert_eq!(tp, tq, "serving tier diverged at query {i}");
        assert!(
            p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits(),
            "fault-injected reports diverged at query {i}: {p:?} vs {q:?}"
        );
    }
}

/// The parallel precompute fan-out must be invisible in the exported
/// bundle: `--jobs 1` and `--jobs 4` walk the same warm-start schedule
/// (the donor of each level is the lowest cell index, and each sibling's
/// the solved node whose prior is nearest its own, never "whichever
/// worker finished first"), so the exported cache bytes are
/// identical at any worker count. This is the contract that lets CI cmp
/// two bundles and lets operators precompute on any machine.
#[test]
fn precompute_bundle_bytes_are_independent_of_jobs() {
    let dataset = city();
    let export = |jobs: usize| {
        let prior = GridPrior::from_dataset(&dataset, 8);
        let msm = MsmMechanism::builder(dataset.domain(), prior)
            .epsilon(0.8)
            .granularity(2)
            .build()
            .expect("valid configuration");
        let nodes = msm.precompute_jobs(100_000, jobs).expect("precompute");
        assert!(nodes >= 1, "precompute solved nothing at jobs={jobs}");
        let mut blob = Vec::new();
        msm.export_cache(&mut blob).expect("export");
        blob
    };
    let sequential = export(1);
    let parallel = export(4);
    assert_eq!(
        sequential, parallel,
        "exported cache bytes depend on the worker count"
    );
}

/// The jobs-invariance contract holds for every solve strategy, not just
/// the default: a cut-generation precompute over a spanner-sparsified
/// constraint set walks the same warm-start schedule, shares one
/// per-level spanner built from the donor geometry, and lands every
/// sibling solve on the same fixed point — so `--jobs 1` and `--jobs 4`
/// still export byte-identical bundles.
#[test]
fn cutgen_spanner_bundle_bytes_are_independent_of_jobs() {
    let dataset = city();
    let export = |jobs: usize| {
        let prior = GridPrior::from_dataset(&dataset, 8);
        let opts = OptOptions {
            constraints: ConstraintSet::Spanner { dilation: 1.2 },
            ..OptOptions::default()
        };
        assert!(opts.cutgen, "cut generation is the default");
        let msm = MsmMechanism::builder(dataset.domain(), prior)
            .epsilon(0.8)
            .granularity(2)
            .opt_options(opts)
            .build()
            .expect("valid configuration");
        let nodes = msm.precompute_jobs(100_000, jobs).expect("precompute");
        assert!(nodes >= 1, "precompute solved nothing at jobs={jobs}");
        let stats = msm.level_solve_stats();
        assert!(
            stats.iter().any(|(_, s)| s.rows_total > 0),
            "per-level solve stats were never recorded"
        );
        let mut blob = Vec::new();
        msm.export_cache(&mut blob).expect("export");
        blob
    };
    let sequential = export(1);
    let parallel = export(4);
    assert_eq!(
        sequential, parallel,
        "cutgen+spanner cache bytes depend on the worker count"
    );
}

/// FNV-1a-64, the checksum the bundle format itself uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The simplex engine's and the precompute schedule's decisions, pinned
/// across builds. The two jobs tests above compare bundles within one
/// build, so a change that moved a single pivot would still pass them;
/// this test compares the kept pivots and the bundle bytes against
/// recorded values. It precomputes the first 60 nodes of the repository
/// benchmark's hierarchy (synthetic Austin city, 80,000 check-ins, prior
/// granularity 64, ε 0.5, g 4, `FixedHeight(3)`): the root, all 16
/// level-2 nodes and 43 level-3 nodes, whose 256-row duals run on the
/// per-pivot BTRAN path. The level-3 siblings warm-start in batches of 1,
/// 2, 4, 8, 16 and (cut short) 11 nodes, each from the solved node whose
/// prior is nearest its own, so the prefix pins the donor choice too. The
/// 43rd level-3 node's warm restart is the full run's first fallback to a
/// cold solve (60 is the shortest prefix that has one), so the prefix
/// also pins how many pivots the abandoned restart throws away. It runs
/// at 1 and 4 workers: which worker solves a sibling must not matter.
#[test]
fn benchmark_precompute_prefix_keeps_recorded_pivots_and_bytes() {
    let city = SyntheticCity::austin_like().generate_with_size(80_000, 8_000);
    for jobs in [1, 4] {
        let msm = MsmMechanism::builder(city.domain(), GridPrior::from_dataset(&city, 64))
            .epsilon(0.5)
            .granularity(4)
            .strategy(AllocationStrategy::FixedHeight(3))
            .build()
            .expect("benchmark configuration");
        assert_eq!(msm.precompute_jobs(60, jobs).expect("precompute"), 60);
        assert_eq!(
            msm.lp_pivot_count(),
            9_918,
            "kept pivots moved, jobs {jobs}"
        );
        let mut blob = Vec::new();
        msm.export_cache(&mut blob).expect("export");
        assert_eq!(blob.len(), 157_948, "bundle length moved, jobs {jobs}");
        assert_eq!(
            fnv1a64(&blob),
            0x6635_d32e_a254_03ad,
            "bundle bytes moved, jobs {jobs}"
        );
        let levels = msm.level_solve_stats();
        let effort = levels.iter().map(|&(_, s)| s).sum::<SolveStats>().effort;
        assert_eq!(
            effort.pivots,
            msm.lp_pivot_count(),
            "the levels' kept pivots do not sum to the total, jobs {jobs}"
        );
        assert!(
            effort.warm_fallbacks >= 1,
            "the prefix lost its warm-restart fallback, jobs {jobs}"
        );
        assert_eq!(
            effort.discarded_pivots, 106,
            "the abandoned restart's pivot count moved, jobs {jobs}"
        );
    }
}

/// The same cross-build pin for the eager path (`cutgen: false`), which
/// materializes every GeoInd row up front and so never enters the cut
/// loop. Its first 5 nodes of the benchmark hierarchy are the root (cold)
/// and 4 level-2 nodes: the level donor (cold), a first sibling
/// warm-started from the donor's exit basis, and two more warm-started
/// from whichever of those two has the nearer prior. Both of those
/// restarts fall back to a cold solve, so the kept pivots and the bytes
/// do not depend on which donor they drew; the pivots the abandoned
/// restarts throw away do.
#[test]
fn eager_precompute_prefix_keeps_recorded_pivots_and_bytes() {
    let city = SyntheticCity::austin_like().generate_with_size(80_000, 8_000);
    for jobs in [1, 4] {
        let msm = MsmMechanism::builder(city.domain(), GridPrior::from_dataset(&city, 64))
            .epsilon(0.5)
            .granularity(4)
            .strategy(AllocationStrategy::FixedHeight(3))
            .opt_options(OptOptions {
                cutgen: false,
                ..OptOptions::default()
            })
            .build()
            .expect("benchmark configuration");
        assert_eq!(msm.precompute_jobs(5, jobs).expect("precompute"), 5);
        assert_eq!(
            msm.lp_pivot_count(),
            2_755,
            "kept pivots moved, jobs {jobs}"
        );
        let mut blob = Vec::new();
        msm.export_cache(&mut blob).expect("export");
        assert_eq!(blob.len(), 13_188, "bundle length moved, jobs {jobs}");
        assert_eq!(
            fnv1a64(&blob),
            0xdc13_68d2_9875_387c,
            "bundle bytes moved, jobs {jobs}"
        );
        let stats = msm.level_solve_stats();
        assert!(
            stats.iter().all(|(_, s)| s.cut_rounds == 0),
            "the eager path entered the cut loop, jobs {jobs}"
        );
        let effort = stats.iter().map(|&(_, s)| s).sum::<SolveStats>().effort;
        assert_eq!(
            effort.pivots,
            msm.lp_pivot_count(),
            "the levels' kept pivots do not sum to the total, jobs {jobs}"
        );
        assert_eq!(
            effort.warm_fallbacks, 2,
            "the warm-restart fallbacks moved, jobs {jobs}"
        );
        assert_eq!(
            effort.discarded_pivots, 1_704,
            "the abandoned restarts' pivot count moved, jobs {jobs}"
        );
    }
}

/// The two prefix pins above, extended to the whole benchmark hierarchy:
/// all 273 nodes, in both solve modes, at 2 workers. The bundle the
/// repository benchmark loads is this one, so its bytes (and the kept
/// pivots behind them) are pinned here rather than only by the prefixes.
/// A debug build takes minutes over it, so it is ignored there;
/// `scripts/ci.sh` runs it in release, where both modes take ~3 s.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: scripts/ci.sh runs it")]
fn benchmark_full_tree_keeps_recorded_pivots_and_bytes() {
    let city = SyntheticCity::austin_like().generate_with_size(80_000, 8_000);
    for (cutgen, pivots, fnv) in [
        (true, 21_705, 0xbf59_67e6_e2b2_4853),
        (false, 34_470, 0xbbf2_6b31_50fd_aea9),
    ] {
        let msm = MsmMechanism::builder(city.domain(), GridPrior::from_dataset(&city, 64))
            .epsilon(0.5)
            .granularity(4)
            .strategy(AllocationStrategy::FixedHeight(3))
            .opt_options(OptOptions {
                cutgen,
                ..OptOptions::default()
            })
            .build()
            .expect("benchmark configuration");
        assert_eq!(msm.precompute_jobs(1_000, 2).expect("precompute"), 273);
        assert_eq!(
            msm.lp_pivot_count(),
            pivots,
            "kept pivots moved, cutgen {cutgen}"
        );
        let mut blob = Vec::new();
        msm.export_cache(&mut blob).expect("export");
        assert_eq!(blob.len(), 718_564, "bundle length moved, cutgen {cutgen}");
        assert_eq!(fnv1a64(&blob), fnv, "bundle bytes moved, cutgen {cutgen}");
    }
}

/// Cross-mechanism: interleaving two mechanisms on one RNG stream is still
/// reproducible (the stream position, not the mechanism, owns determinism).
#[test]
fn interleaved_mechanisms_share_a_deterministic_stream() {
    let pl = PlanarLaplace::new(0.5);
    let dataset = city();
    let prior = GridPrior::from_dataset(&dataset, 4);
    let grid = Grid::new(dataset.domain(), 4);
    let opt =
        OptimalMechanism::on_grid(0.6, &grid, &prior, QualityMetric::Euclidean).expect("feasible");
    let run = || {
        let mut rng = SeededRng::from_seed(31337);
        let mut out = Vec::new();
        for i in 0..40 {
            let x = Point::new((i % 19) as f64 + 0.1, (i % 11) as f64 + 0.9);
            out.push(pl.report(x, &mut rng));
            out.push(opt.report(x, &mut rng));
        }
        out
    };
    let (a, b) = (run(), run());
    for (p, q) in a.iter().zip(&b) {
        assert!(p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits());
    }
}

/// Golden outputs recorded from the seed (pre-flattening) sampling path,
/// before admission-built alias tables and the fused descent existed.
/// Bit patterns of `Point { x, y }` per query; the flattening must
/// reproduce them exactly, fused or not.
mod goldens {
    /// uniform8 prior, g=2, FixedHeight(2), eps 0.8, seed 0xD00D,
    /// inputs ((i%8)+0.3, (i%7)+0.6).
    pub const A: [(u64, u64); 8] = [
        (0x4008000000000000, 0x3FF0000000000000),
        (0x401C000000000000, 0x3FF0000000000000),
        (0x401C000000000000, 0x3FF0000000000000),
        (0x3FF0000000000000, 0x3FF0000000000000),
        (0x401C000000000000, 0x4014000000000000),
        (0x4014000000000000, 0x4014000000000000),
        (0x4014000000000000, 0x4014000000000000),
        (0x4014000000000000, 0x3FF0000000000000),
    ];
    /// uniform8 prior, g=2, FixedHeight(3), eps 0.9, seed 0xBEEF,
    /// inputs ((i%5)+1.2, (i%3)+2.4).
    pub const B: [(u64, u64); 8] = [
        (0x401A000000000000, 0x3FF8000000000000),
        (0x4012000000000000, 0x3FE0000000000000),
        (0x401A000000000000, 0x4004000000000000),
        (0x401E000000000000, 0x4004000000000000),
        (0x4012000000000000, 0x3FF8000000000000),
        (0x4004000000000000, 0x4012000000000000),
        (0x4004000000000000, 0x400C000000000000),
        (0x4004000000000000, 0x401E000000000000),
    ];
    /// vegas_like(5000, 500) ladder, eps 0.8 g 2, lp.refactor.singular
    /// armed times(4), seed 0xFA17_5EED, first 8 checkins. The third
    /// element is the serving tier index (mid-descent resumption: the
    /// first four queries degrade to tier 1, then tier 0 recovers).
    pub const C: [(u64, u64, usize); 8] = [
        (0x4029000000000000, 0x401E000000000000, 1),
        (0x4029000000000000, 0x4029000000000000, 1),
        (0x401E000000000000, 0x4029000000000000, 1),
        (0x4029000000000000, 0x401E000000000000, 1),
        (0x4029000000000000, 0x401E000000000000, 0),
        (0x401E000000000000, 0x401E000000000000, 0),
        (0x4029000000000000, 0x401E000000000000, 0),
        (0x4029000000000000, 0x401E000000000000, 0),
    ];
}

/// The flattened alias path reproduces the pre-flattening golden stream
/// bit for bit — through the per-level cache path (tables per channel)
/// AND the fused single-walk tree, at heights 2 and 3.
#[test]
fn flattened_sampling_matches_pre_flattening_goldens() {
    let build = |eps: f64, h: u32| {
        let domain = BBox::square(8.0);
        let prior = GridPrior::uniform(domain, 8);
        MsmMechanism::builder(domain, prior)
            .epsilon(eps)
            .granularity(2)
            .strategy(AllocationStrategy::FixedHeight(h))
            .build()
            .expect("valid configuration")
    };
    for fused in [false, true] {
        let msm_a = build(0.8, 2);
        let msm_b = build(0.9, 3);
        if fused {
            msm_a.flatten().expect("flatten A");
            msm_b.flatten().expect("flatten B");
        }
        let mut rng = SeededRng::from_seed(0xD00D);
        for (i, &(gx, gy)) in goldens::A.iter().enumerate() {
            let x = Point::new((i % 8) as f64 + 0.3, (i % 7) as f64 + 0.6);
            let z = msm_a.report(x, &mut rng);
            assert_eq!(z.x.to_bits(), gx, "A[{i}].x fused={fused}");
            assert_eq!(z.y.to_bits(), gy, "A[{i}].y fused={fused}");
        }
        let mut rng = SeededRng::from_seed(0xBEEF);
        for (i, &(gx, gy)) in goldens::B.iter().enumerate() {
            let x = Point::new((i % 5) as f64 + 1.2, (i % 3) as f64 + 2.4);
            let z = msm_b.report(x, &mut rng);
            assert_eq!(z.x.to_bits(), gx, "B[{i}].x fused={fused}");
            assert_eq!(z.y.to_bits(), gy, "B[{i}].y fused={fused}");
        }
    }
}

/// Mid-descent resumption under an armed count-based failpoint still
/// reproduces the pre-flattening goldens: the degraded ladder resumes
/// from the reached cell and serves the exact recorded points and tiers.
#[test]
fn degraded_ladder_matches_pre_flattening_goldens() {
    use geoind_testkit::failpoint::{FailSpec, Session};
    let dataset = city();
    let prior = GridPrior::from_dataset(&dataset, 8);
    let ladder = ResilientMechanism::from_builder(
        MsmMechanism::builder(dataset.domain(), prior)
            .epsilon(0.8)
            .granularity(2),
    )
    .expect("valid configuration");
    let mut fp = Session::new();
    fp.arm("lp.refactor.singular", FailSpec::times(4));
    let mut rng = SeededRng::from_seed(0xFA17_5EED);
    let xs: Vec<Point> = dataset
        .checkins()
        .iter()
        .take(8)
        .map(|c| c.location)
        .collect();
    for (i, (&x, &(gx, gy, gt))) in xs.iter().zip(goldens::C.iter()).enumerate() {
        let (z, tier) = ladder.report_with_tier(x, &mut rng);
        assert_eq!(tier.index(), gt, "C[{i}] tier");
        assert_eq!(z.x.to_bits(), gx, "C[{i}].x");
        assert_eq!(z.y.to_bits(), gy, "C[{i}].y");
    }
}

/// `report_many` is sequential serving with the fused tree resolved once:
/// a batch of one is bit-identical to a single `report_with_tier` call,
/// and a longer batch is bit-identical to the same calls in a loop.
#[test]
fn report_many_batch_of_one_matches_single_call() {
    let dataset = city();
    let prior = GridPrior::from_dataset(&dataset, 8);
    let ladder = ResilientMechanism::from_builder(
        MsmMechanism::builder(dataset.domain(), prior)
            .epsilon(0.8)
            .granularity(2),
    )
    .expect("valid configuration");
    ladder.flatten().expect("flatten");
    let xs: Vec<Point> = dataset
        .checkins()
        .iter()
        .take(40)
        .map(|c| c.location)
        .collect();
    // Batch of one per call vs single calls.
    let mut rng_batch = SeededRng::from_seed(0xB1_0F_01);
    let mut rng_single = SeededRng::from_seed(0xB1_0F_01);
    for (i, &x) in xs.iter().enumerate() {
        let batch = ladder.report_many(std::slice::from_ref(&x), &mut rng_batch);
        let (z, tier) = ladder.report_with_tier(x, &mut rng_single);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].1, tier, "query {i}");
        assert_eq!(batch[0].0.x.to_bits(), z.x.to_bits(), "query {i}");
        assert_eq!(batch[0].0.y.to_bits(), z.y.to_bits(), "query {i}");
    }
    // One big batch vs the same stream sequentially.
    let mut rng_batch = SeededRng::from_seed(0xB1_0F_40);
    let mut rng_single = SeededRng::from_seed(0xB1_0F_40);
    let batch = ladder.report_many(&xs, &mut rng_batch);
    for (i, &x) in xs.iter().enumerate() {
        let (z, tier) = ladder.report_with_tier(x, &mut rng_single);
        assert_eq!(batch[i].1, tier, "query {i}");
        assert_eq!(batch[i].0.x.to_bits(), z.x.to_bits(), "query {i}");
        assert_eq!(batch[i].0.y.to_bits(), z.y.to_bits(), "query {i}");
    }
}
