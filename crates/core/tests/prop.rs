//! Property tests for the mechanism layer (on the deterministic
//! `geoind-testkit` harness; failures print a per-case seed).

use geoind_core::alloc::{AllocationStrategy, BudgetAllocator};
use geoind_core::certify::{self, CertifySpec, Verdict};
use geoind_core::channel::Channel;
use geoind_core::flat::FlatChannel;
use geoind_core::metrics::QualityMetric;
use geoind_core::opt::{ConstraintSet, OptimalMechanism};
use geoind_rng::{Rng, SeededRng};
use geoind_spatial::geom::Point;
use geoind_testkit::gens::{f64_range, u32_range, Gen};
use geoind_testkit::{check, ensure, ensure_eq, Config};

/// Random row-stochastic channel over `n` collinear points.
struct RandomChannel(usize);

impl Gen for RandomChannel {
    type Value = Channel;
    fn generate(&self, rng: &mut SeededRng) -> Channel {
        let n = self.0;
        let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        let mut probs = Vec::with_capacity(n * n);
        for _ in 0..n {
            let row: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
            let s: f64 = row.iter().sum();
            probs.extend(row.into_iter().map(|v| v / s));
        }
        Channel::new(pts.clone(), pts, probs)
    }
}

/// Budget allocation conserves the total and keeps all levels alive,
/// for every strategy and random parameters.
#[test]
fn allocation_conserves_budget() {
    check(
        "allocation_conserves_budget",
        Config::cases(64),
        &(
            f64_range(0.05, 3.0),
            u32_range(2, 7),
            f64_range(0.3, 0.95),
            u32_range(1, 4),
        ),
        |&(eps, g, rho, h)| {
            let alloc = BudgetAllocator::new(20.0, g, rho);
            for strategy in [
                AllocationStrategy::Auto { max_height: 5 },
                AllocationStrategy::FixedHeight(h),
                AllocationStrategy::Uniform(h),
            ] {
                let Ok(lb) = alloc.allocate(eps, strategy) else {
                    return Err(format!("{strategy:?} rejected valid parameters"));
                };
                ensure!(
                    (lb.total() - eps).abs() < 1e-9,
                    "{strategy:?} leaked budget"
                );
                ensure!(
                    lb.budgets().iter().all(|&b| b > 0.0),
                    "{strategy:?} starved a level"
                );
                if let AllocationStrategy::FixedHeight(hh) | AllocationStrategy::Uniform(hh) =
                    strategy
                {
                    ensure_eq!(lb.height(), hh);
                }
            }
            Ok(())
        },
    );
}

/// geoind_repair output always satisfies the constraints it repairs,
/// and is (numerically) idempotent.
#[test]
fn repair_establishes_geoind_and_is_idempotent() {
    check(
        "repair_establishes_geoind_and_is_idempotent",
        Config::cases(64),
        &(RandomChannel(4), f64_range(0.2, 2.0)),
        |(channel, eps)| {
            let eps = *eps;
            let fixed = channel.geoind_repair(eps);
            ensure!(
                fixed.geoind_violation(eps) <= 1e-9,
                "violation {}",
                fixed.geoind_violation(eps)
            );
            let twice = fixed.geoind_repair(eps);
            for x in 0..fixed.num_inputs() {
                for z in 0..fixed.num_outputs() {
                    ensure!((fixed.prob(x, z) - twice.prob(x, z)).abs() < 1e-9);
                }
            }
            // Rows stay stochastic.
            for x in 0..fixed.num_inputs() {
                ensure!((fixed.row(x).iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

/// The admission gate's contract, on arbitrary random channels:
/// admission always yields a passing certificate (post-repair violation 0
/// within the strict tolerance), the reported per-row L1 delta bounds the
/// pointwise change the repair made, and re-admitting an already-admitted
/// channel is a fixed point with verdict `Certified`.
#[test]
fn admission_gate_repairs_within_reported_loss_bound() {
    check(
        "admission_gate_repairs_within_reported_loss_bound",
        Config::cases(64),
        &(RandomChannel(4), f64_range(0.2, 2.0)),
        |(channel, eps)| {
            let eps = *eps;
            let spec = CertifySpec {
                eps,
                constraints: ConstraintSet::Full,
            };
            let admitted =
                certify::admit(channel.clone(), &spec, "prop.admit").map_err(|e| e.to_string())?;
            let cert = admitted
                .certificate()
                .expect("admitted channel lost its certificate");
            ensure!(cert.passes(), "certificate does not pass: {cert:?}");
            let (violation, pairs, row_err) = certify::measure(&admitted, eps);
            ensure!(
                violation <= certify::strict_tolerance(4, 4),
                "post-repair violation {violation}"
            );
            ensure_eq!(pairs, 4 * 3);
            ensure!(row_err <= certify::row_tolerance(4), "row error {row_err}");
            // The certificate's loss report bounds what the repair changed.
            for x in 0..4 {
                let mut row_delta = 0.0;
                for z in 0..4 {
                    row_delta += (admitted.prob(x, z) - channel.prob(x, z)).abs();
                }
                ensure!(
                    row_delta <= cert.repair_l1_delta + 1e-12,
                    "row {x} moved {row_delta} > reported bound {}",
                    cert.repair_l1_delta
                );
            }
            // Idempotence: an admitted channel re-admits as a fixed point.
            let again =
                certify::admit(admitted.clone(), &spec, "prop.admit").map_err(|e| e.to_string())?;
            for x in 0..4 {
                for z in 0..4 {
                    ensure!((again.prob(x, z) - admitted.prob(x, z)).abs() < 1e-9);
                }
            }
            let cert2 = again
                .certificate()
                .expect("re-admitted channel lost its certificate");
            ensure_eq!(cert2.verdict, Verdict::Certified);
            ensure!(cert2.repair_l1_delta < 1e-9, "second repair moved mass");
            Ok(())
        },
    );
}

/// Channel composition is associative and row-stochastic.
#[test]
fn composition_is_associative() {
    check(
        "composition_is_associative",
        Config::cases(64),
        &(RandomChannel(3), RandomChannel(3), RandomChannel(3)),
        |(a, b, c)| {
            let left = a.then(b).then(c);
            let right = a.then(&b.then(c));
            for x in 0..3 {
                for z in 0..3 {
                    ensure!((left.prob(x, z) - right.prob(x, z)).abs() < 1e-12);
                }
                ensure!((left.row(x).iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

/// Post-processing preserves GeoInd for arbitrary second stages
/// (data-processing inequality, randomized check).
#[test]
fn post_processing_preserves_geoind() {
    check(
        "post_processing_preserves_geoind",
        Config::cases(64),
        &(RandomChannel(3), f64_range(0.3, 1.5)),
        |(post, eps)| {
            let eps = *eps;
            let pts: Vec<Point> = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
            let opt =
                OptimalMechanism::solve(eps, &pts, &[0.2, 0.5, 0.3], QualityMetric::Euclidean)
                    .unwrap();
            let composed = opt.channel().then(post);
            ensure!(
                composed.geoind_violation(eps) <= 1e-7,
                "DPI violated: {}",
                composed.geoind_violation(eps)
            );
            Ok(())
        },
    );
}

/// OPT two-point closed form holds for arbitrary budgets and spacings:
/// with a uniform prior the optimal flip probability is 1/(1 + e^{εd}).
#[test]
fn opt_two_point_closed_form() {
    check(
        "opt_two_point_closed_form",
        Config::cases(64),
        &(f64_range(0.2, 2.0), f64_range(0.5, 8.0)),
        |&(eps, d)| {
            let pts = vec![Point::new(0.0, 0.0), Point::new(d, 0.0)];
            let opt =
                OptimalMechanism::solve(eps, &pts, &[0.5, 0.5], QualityMetric::Euclidean).unwrap();
            let expect = 1.0 / (1.0 + (eps * d).exp());
            ensure!(
                (opt.channel().prob(0, 1) - expect).abs() < 1e-6,
                "flip {} vs closed form {expect}",
                opt.channel().prob(0, 1)
            );
            ensure!((opt.channel().prob(1, 0) - expect).abs() < 1e-6);
            Ok(())
        },
    );
}

/// Vose alias construction reconstructs every random row: the implied
/// marginal (slot mass + alias complement) matches the input within
/// `m` ulps — pure floating-point bookkeeping, no statistical slack.
#[test]
fn alias_tables_reconstruct_random_rows_within_ulps() {
    check(
        "alias_tables_reconstruct_random_rows_within_ulps",
        Config::cases(64),
        &(RandomChannel(6), RandomChannel(2)),
        |(big, small)| {
            for channel in [big, small] {
                let (n, m) = (channel.num_inputs(), channel.num_outputs());
                let mut probs = Vec::with_capacity(n * m);
                for x in 0..n {
                    probs.extend_from_slice(channel.row(x));
                }
                let flat =
                    FlatChannel::build(&probs, n, m).ok_or("valid stochastic matrix refused")?;
                let tol = m as f64 * f64::EPSILON;
                for r in 0..n {
                    for (z, (&got, &want)) in
                        flat.row_marginal(r).iter().zip(channel.row(r)).enumerate()
                    {
                        ensure!(
                            (got - want).abs() <= tol,
                            "row {r} cat {z}: |{got} - {want}| > {tol}"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// Degenerate rows must build without panicking and still reconstruct:
/// a single point mass, an exactly uniform row, and rows mixing
/// denormal-adjacent mass with near-unit mass.
#[test]
fn alias_tables_handle_degenerate_rows() {
    let m = 4;
    let tiny = 1e-308; // denormal-adjacent; still positive and finite
    let rows: Vec<Vec<f64>> = vec![
        vec![0.0, 0.0, 1.0, 0.0],                 // point mass
        vec![0.25; 4],                            // exactly uniform
        vec![tiny, 1.0 - 3.0 * tiny, tiny, tiny], // denormal-adjacent
        vec![tiny, tiny, tiny, tiny],             // all tiny (renormalizes)
        vec![1.0, f64::MIN_POSITIVE, 0.0, 0.0],   // mixed extremes
    ];
    let probs: Vec<f64> = rows.iter().flatten().copied().collect();
    let flat = FlatChannel::build(&probs, rows.len(), m).expect("degenerate rows must build");
    for (r, row) in rows.iter().enumerate() {
        let total: f64 = row.iter().sum();
        let marginal = flat.row_marginal(r);
        let sum: f64 = marginal.iter().sum();
        assert!(
            (sum - 1.0).abs() <= 16.0 * f64::EPSILON,
            "row {r} sum {sum}"
        );
        for (z, (&got, &want)) in marginal.iter().zip(row).enumerate() {
            // The table samples the *normalized* row.
            assert!(
                (got - want / total).abs() <= 1e-12,
                "row {r} cat {z}: {got} vs {}",
                want / total
            );
        }
    }
    // Point-mass rows must sample their single category, always.
    let mut rng = SeededRng::from_seed(9);
    for _ in 0..2_000 {
        assert_eq!(flat.sample_row(0, &mut rng), 2);
    }
}

/// Alias construction is a pure function of the row bits: concurrent
/// builds of the same matrix (as parallel precompute workers would do)
/// yield bit-identical tables — pinned by comparing marginal bit patterns
/// and seeded draw streams across threads.
#[test]
fn alias_construction_is_deterministic_across_threads() {
    let mut rng = SeededRng::from_seed(0xDE_7E_55);
    let (n, m) = (8, 8);
    let mut probs = Vec::with_capacity(n * m);
    for _ in 0..n {
        let row: Vec<f64> = (0..m).map(|_| rng.gen_range(0.001..1.0)).collect();
        let s: f64 = row.iter().sum();
        probs.extend(row.into_iter().map(|v| v / s));
    }
    let reference = FlatChannel::build(&probs, n, m).expect("valid matrix");
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let probs = probs.clone();
            std::thread::spawn(move || FlatChannel::build(&probs, n, m).expect("valid matrix"))
        })
        .collect();
    for handle in handles {
        let built = handle.join().expect("builder thread panicked");
        for r in 0..n {
            let (a, b) = (reference.row_marginal(r), built.row_marginal(r));
            for z in 0..m {
                assert_eq!(a[z].to_bits(), b[z].to_bits(), "row {r} cat {z}");
            }
        }
        let mut rng_a = SeededRng::from_seed(0x51DE);
        let mut rng_b = SeededRng::from_seed(0x51DE);
        for i in 0..2_000 {
            assert_eq!(
                reference.sample_row(i % n, &mut rng_a),
                built.sample_row(i % n, &mut rng_b)
            );
        }
    }
}
