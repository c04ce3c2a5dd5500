//! Fault-injection property suite for the degradation ladder.
//!
//! For every named failpoint site ([`failpoint::SITES`]) armed one at a
//! time, the ladder must stay **total** (every `report()` returns a point,
//! no panic), the right tier counter must move, the counters must account
//! for 100% of the reports, and the tier that actually serves must pass an
//! empirical GeoInd audit at that tier's budget.
//!
//! All arming here is thread-scoped ([`failpoint::Session`]) so the tests
//! in this binary can run concurrently. Global/environment arming is
//! exercised in `resilience_env.rs` (a separate binary).

use geoind_core::alloc::AllocationStrategy;
use geoind_core::audit::{audit_geoind, AuditConfig};
use geoind_core::msm::MsmMechanism;
use geoind_core::{MechanismError, ResilientMechanism, Tier};
use geoind_data::loader::{load_gowalla, LoadError, AUSTIN};
use geoind_data::prior::GridPrior;
use geoind_rng::SeededRng;
use geoind_spatial::geom::{BBox, Point};
use geoind_spatial::grid::Grid;
use geoind_spatial::hier::HierGrid;
use geoind_testkit::failpoint::{self, FailSpec, Session};

const EPS: f64 = 0.8;

fn resilient() -> ResilientMechanism {
    let domain = BBox::square(8.0);
    let prior = GridPrior::uniform(domain, 8);
    ResilientMechanism::from_builder(
        MsmMechanism::builder(domain, prior)
            .epsilon(EPS)
            .granularity(2)
            .strategy(AllocationStrategy::FixedHeight(2)),
    )
    .unwrap()
}

/// The sites that fault the *report* path of the wrapped MSM (LP solves,
/// the channel-cache lock, and post-repair re-certification) and therefore
/// trigger tier-1 service.
const REPORT_PATH_SITES: &[&str] = &[
    "lp.refactor.singular",
    "lp.iterations.exhausted",
    "cache.lock.poisoned",
    "certify.repair.fail",
];

#[test]
fn every_site_keeps_report_total_and_counters_exact() {
    // One-at-a-time sweep over the full canonical site list: whatever is
    // armed, report() must return an in-domain point without panicking and
    // the counters must account for every report.
    for &site in failpoint::SITES {
        let mut fp = Session::new();
        fp.arm(site, FailSpec::always());
        match site {
            "alloc.budget.infeasible" => {
                // Fires at build time: construction reports a typed error
                // instead of panicking (the ladder needs the budgets, so
                // construction itself is not degradable).
                let domain = BBox::square(8.0);
                let err = ResilientMechanism::from_builder(
                    MsmMechanism::builder(domain, GridPrior::uniform(domain, 8))
                        .epsilon(EPS)
                        .granularity(2)
                        .strategy(AllocationStrategy::FixedHeight(2)),
                )
                .unwrap_err();
                assert!(
                    matches!(err, MechanismError::AllocationFailed(_)),
                    "{site}: expected AllocationFailed, got {err:?}"
                );
                assert!(fp.fired(site) >= 1);
            }
            "cache.import.corrupt" => {
                // Fires on cache import only: the import is rejected with a
                // typed error and tier-0 service is untouched.
                let r = resilient();
                let err = r.msm().import_cache(&mut (&[] as &[u8])).unwrap_err();
                assert!(
                    matches!(err, MechanismError::CacheCorrupt { .. }),
                    "{site}: expected CacheCorrupt, got {err:?}"
                );
                let mut rng = SeededRng::from_seed(11);
                let (z, tier) = r.report_with_tier(Point::new(3.0, 3.0), &mut rng);
                assert!(r.msm().leaf_grid().domain().contains_closed(z));
                assert_eq!(tier, Tier::Optimal, "{site} must not affect reports");
                assert_eq!(r.degradation_report().total(), 1);
            }
            "data.loader.truncated" => {
                // Fires in the dataset loaders: a typed LoadError, never a
                // panic or a silently short dataset.
                let path = std::env::temp_dir()
                    .join(format!("geoind-resilience-{}.txt", std::process::id()));
                std::fs::write(&path, "0\t2010-01-01\t30.23\t-97.79\t1\n").unwrap();
                let err = load_gowalla(&path, AUSTIN).unwrap_err();
                std::fs::remove_file(&path).ok();
                assert!(
                    matches!(err, LoadError::Truncated(_)),
                    "{site}: expected Truncated, got {err:?}"
                );
            }
            "certify.channel.violation" => {
                // A forced raw-certification failure is NOT a serve
                // refusal: the admission gate repairs the channel, the
                // repaired copy re-certifies, and tier 0 serves normally —
                // only the certificate verdict (and the repaired counter)
                // records that the gate had to intervene.
                let r = resilient();
                let centers = r.msm().leaf_grid().centers();
                let mut rng = SeededRng::from_seed(17);
                let n = 12u64;
                for i in 0..n {
                    let x = Point::new((i % 8) as f64, (i % 5) as f64 + 0.4);
                    let (z, tier) = r.report_with_tier(x, &mut rng);
                    assert_eq!(tier, Tier::Optimal, "site {site}");
                    assert!(
                        centers.iter().any(|c| c.dist(z) < 1e-12),
                        "{site}: {z:?} is not a leaf center"
                    );
                }
                let report = r.degradation_report();
                assert_eq!(report.served_by_tier, [n, 0], "site {site}");
                assert_eq!(
                    report.served_repaired, n,
                    "every serve used repaired channels"
                );
                assert_eq!(
                    report.quarantined, 0,
                    "repair succeeded; nothing quarantined"
                );
                assert!(fp.fired(site) >= 1, "site {site} never fired");
            }
            _ if site.starts_with("serve.") => {
                // Serving-layer journal sites (geoind-serve's WAL). They
                // are not wired into the core ladder: arming one must
                // leave tier-0 service completely untouched. Their own
                // crash-replay suite lives in crates/serve.
                let r = resilient();
                let mut rng = SeededRng::from_seed(13);
                let (z, tier) = r.report_with_tier(Point::new(3.0, 3.0), &mut rng);
                assert!(r.msm().leaf_grid().domain().contains_closed(z));
                assert_eq!(tier, Tier::Optimal, "{site} must not affect core reports");
            }
            _ => {
                // Report-path faults: every report degrades to tier 1 and
                // still lands on a leaf center inside the domain.
                assert!(
                    REPORT_PATH_SITES.contains(&site),
                    "unclassified failpoint site {site}; extend this sweep"
                );
                let r = resilient();
                let centers = r.msm().leaf_grid().centers();
                let mut rng = SeededRng::from_seed(7);
                let n = 12u64;
                for i in 0..n {
                    let x = Point::new((i % 8) as f64, (i % 5) as f64 + 0.4);
                    let (z, tier) = r.report_with_tier(x, &mut rng);
                    assert_eq!(tier, Tier::PerLevelLaplace, "site {site}");
                    assert!(
                        centers.iter().any(|c| c.dist(z) < 1e-12),
                        "{site}: {z:?} is not a leaf center"
                    );
                }
                let report = r.degradation_report();
                assert_eq!(report.served_by_tier, [0, n], "site {site}");
                assert_eq!(report.total(), n, "site {site}");
                assert_eq!(report.degraded(), n, "site {site}");
                // Only a failed re-certification is a quarantine; LP and
                // lock faults are infrastructure hiccups.
                let want_quarantined = if site == "certify.repair.fail" { n } else { 0 };
                assert_eq!(report.quarantined, want_quarantined, "site {site}");
                assert_eq!(report.served_repaired, 0, "site {site}");
                assert!(fp.fired(site) >= n, "site {site} under-fired");
                let fault = report.last_fault.expect("degradation recorded no fault");
                assert!(
                    fault.contains("per-level-laplace"),
                    "unhelpful fault: {fault}"
                );
            }
        }
    }
}

#[test]
fn flatten_succeeds_with_no_site_armed() {
    // Admission builds alias tables for every channel it lets in, so with
    // nothing armed the fused tree always installs and serves tier 0.
    let r = resilient();
    assert_eq!(r.flatten().expect("flatten"), 5, "1 root + 4 level-1 nodes");
    assert!(r.msm().is_flattened());
    let mut rng = SeededRng::from_seed(19);
    let n = 6u64;
    for i in 0..n {
        let x = Point::new((i % 8) as f64, (i % 5) as f64 + 0.4);
        let (_, tier) = r.report_with_tier(x, &mut rng);
        assert_eq!(tier, Tier::Optimal);
    }
    let report = r.degradation_report();
    assert_eq!(report.served_by_tier, [n, 0]);
    assert_eq!(report.sampled_flat, n, "every report took the fused walk");
}

#[test]
fn quarantined_channel_forces_descent_and_is_counted() {
    // The fail-closed invariant end to end: when a channel fails even
    // post-repair re-certification (both certify failpoints armed), no
    // request is ever served from it — every report descends to the
    // GeoInd-safe tier-1 floor, the quarantine counter accounts for each,
    // and the fault chain names the quarantine.
    let mut fp = Session::new();
    fp.arm("certify.channel.violation", FailSpec::always());
    fp.arm("certify.repair.fail", FailSpec::always());
    let r = resilient();
    let centers = r.msm().leaf_grid().centers();
    let mut rng = SeededRng::from_seed(23);
    let n = 12u64;
    for i in 0..n {
        let x = Point::new((i % 8) as f64, (i % 5) as f64 + 0.4);
        let (z, tier) = r.report_with_tier(x, &mut rng);
        assert_eq!(tier, Tier::PerLevelLaplace);
        assert!(centers.iter().any(|c| c.dist(z) < 1e-12));
    }
    let report = r.degradation_report();
    assert_eq!(report.served_by_tier, [0, n]);
    assert_eq!(report.quarantined, n, "each refusal must be counted");
    assert_eq!(report.served_repaired, 0, "nothing was served from tier 0");
    assert_eq!(
        report.log_line(),
        format!("degradation optimal=0 per_level={n} total={n} degraded={n} repaired=0 quarantined={n} dedup=0 sampled_flat=0")
    );
    let fault = report.last_fault.expect("no fault recorded");
    assert!(fault.contains("quarantined"), "fault must name it: {fault}");
    // No channel with a failing certificate is left behind for later
    // requests: a quarantined solve is never cached.
    assert_eq!(r.msm().cached_channels(), 0);
}

#[test]
fn concurrent_hammering_keeps_counters_exact() {
    // N threads hammer report_with_tier concurrently — half of them with
    // a thread-scoped always-on fault, half healthy. The atomic tier
    // counters must account for every single report with no loss or
    // double-count, and per-thread tallies must agree with the shared
    // counters (Session arming is thread-scoped, so the faulty threads
    // degrade every report while the healthy threads never do).
    use std::sync::Arc;
    let r = Arc::new(resilient());
    let threads = 8u64;
    let per_thread = 150u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let faulty = t % 2 == 0;
                // cache.lock.poisoned faults every cache *read*, so a
                // faulty thread degrades even after healthy threads have
                // warmed the shared channel cache (an LP-solve site would
                // stop firing once the channels are cached).
                let _fp = faulty.then(|| {
                    let mut fp = Session::new();
                    fp.arm("cache.lock.poisoned", FailSpec::always());
                    fp
                });
                let mut rng = SeededRng::from_seed(500 + t);
                let mut tally = [0u64; 2];
                for i in 0..per_thread {
                    let x = Point::new(((t + i) % 8) as f64, (i % 5) as f64 + 0.4);
                    let (_, tier) = r.report_with_tier(x, &mut rng);
                    tally[tier.index()] += 1;
                }
                (faulty, tally)
            })
        })
        .collect();
    let mut expected = [0u64; 2];
    for h in handles {
        let (faulty, tally) = h.join().expect("worker panicked");
        let want_tier = if faulty { 1 } else { 0 };
        assert_eq!(
            tally[want_tier], per_thread,
            "a thread's reports leaked across tiers: {tally:?}"
        );
        for (acc, n) in expected.iter_mut().zip(tally) {
            *acc += n;
        }
    }
    let served = r.served_by_tier();
    assert_eq!(served, expected);
    assert_eq!(served.iter().sum::<u64>(), threads * per_thread);
    let report = r.degradation_report();
    assert_eq!(report.total(), threads * per_thread);
    assert_eq!(report.degraded(), (threads / 2) * per_thread);
}

#[test]
fn partial_fault_degrades_exactly_k_reports() {
    // A count-based spec injects exactly k faults; the ladder degrades
    // exactly k reports and then returns to the optimal tier.
    let k = 3u64;
    let mut fp = Session::new();
    fp.arm("lp.refactor.singular", FailSpec::times(k));
    let r = resilient();
    let mut rng = SeededRng::from_seed(21);
    let n = 20u64;
    let x = Point::new(4.2, 4.2); // fixed input: one descent path
    let mut tiers = Vec::new();
    for _ in 0..n {
        tiers.push(r.report_with_tier(x, &mut rng).1);
    }
    // Each degraded report consumes one fire (the failed solve aborts the
    // descent before any other LP work), so the first k degrade.
    assert!(tiers[..k as usize]
        .iter()
        .all(|&t| t == Tier::PerLevelLaplace));
    assert!(tiers[k as usize..].iter().all(|&t| t == Tier::Optimal));
    assert_eq!(fp.fired("lp.refactor.singular"), k);
    let report = r.degradation_report();
    assert_eq!(report.served_by_tier, [n - k, k]);
    assert_eq!(report.total(), n);
}

#[test]
fn mid_descent_fault_resumes_from_the_reached_cell() {
    // The privacy-critical property behind the ladder's budget
    // accounting: when the optimal walk fails AFTER completing level 1,
    // the fallback must continue inside the level-1 cell that walk chose
    // (spending only the remaining level budgets) — never restart from
    // the root, which would re-spend the full ε on an input whose prefix
    // already consumed ε₁.
    let healthy = resilient();
    let faulty = resilient();
    // Warm both channel caches so a descent costs exactly one
    // cache.lock.poisoned hit per level (the lock_read of the fetch).
    healthy.msm().precompute(usize::MAX).unwrap();
    faulty.msm().precompute(usize::MAX).unwrap();
    let domain = healthy.msm().leaf_grid().domain();
    let hier = HierGrid::new(domain, 2, 2);
    let centers = healthy.msm().leaf_grid().centers();
    // A corner input: if a buggy fallback restarted at the root with the
    // full budget, its level-1 planar Laplace would frequently land
    // outside this corner's quadrant, so 25 rounds would catch it.
    let x = Point::new(0.6, 0.6);
    for round in 0..25u64 {
        // Identical fresh rng streams: the two walks sample the same
        // level-1 cell from the same cached channel before the armed
        // fault diverges them at level 2.
        let mut rng_h = SeededRng::from_seed(1_000 + round);
        let mut rng_f = SeededRng::from_seed(1_000 + round);
        let (zh, th) = healthy.report_with_tier(x, &mut rng_h);
        assert_eq!(th, Tier::Optimal);
        let mut fp = Session::new();
        fp.arm("cache.lock.poisoned", FailSpec::after(1, 1));
        let (zf, tf) = faulty.report_with_tier(x, &mut rng_f);
        assert_eq!(tf, Tier::PerLevelLaplace, "round {round}");
        assert_eq!(fp.fired("cache.lock.poisoned"), 1, "round {round}");
        drop(fp);
        assert!(
            centers.iter().any(|c| c.dist(zf) < 1e-12),
            "round {round}: degraded report {zf:?} is not a leaf center"
        );
        assert_eq!(
            hier.enclosing_cell(zh, 1),
            hier.enclosing_cell(zf, 1),
            "round {round}: fallback left the cell the optimal prefix \
             selected — it restarted instead of resuming"
        );
    }
    assert_eq!(faulty.served_by_tier(), [0, 25]);
}

#[test]
fn degraded_tier_passes_geoind_audit_at_full_budget() {
    // With the optimal path permanently broken, every report is served by
    // tier 1 — whose guarantee is the full composed ε. The empirical
    // channel must clear an ε-GeoInd audit.
    let mut fp = Session::new();
    fp.arm("lp.iterations.exhausted", FailSpec::always());
    let r = resilient();
    let domain = r.msm().leaf_grid().domain();
    let grid = Grid::new(domain, 4);
    let mut rng = SeededRng::from_seed(31);
    let report = audit_geoind(
        &r,
        EPS,
        &[(Point::new(2.0, 2.0), Point::new(6.0, 6.0))],
        &grid,
        AuditConfig {
            samples: 15_000,
            min_cell_count: 40,
        },
        &mut rng,
    );
    assert!(
        report.passes(0.5),
        "tier-1 channel flagged: excess {}",
        report.worst_excess()
    );
    let served = r.served_by_tier();
    assert_eq!(served[0], 0, "optimal tier served despite armed fault");
    assert_eq!(served[1], 2 * 15_000);
    assert!(fp.fired("lp.iterations.exhausted") >= served[1]);
}

#[test]
fn healthy_ladder_passes_audit_at_composition_bound() {
    // With nothing armed the ladder is exactly MSM; audit it against its
    // actual guarantee (the composition bound for the probe pair).
    let r = resilient();
    let a = Point::new(2.0, 2.0);
    let b = Point::new(6.0, 6.0);
    let effective_eps = r.msm().composition_bound(a, b) / a.dist(b);
    let domain = r.msm().leaf_grid().domain();
    let grid = Grid::new(domain, 4);
    let mut rng = SeededRng::from_seed(51);
    let report = audit_geoind(
        &r,
        effective_eps,
        &[(a, b)],
        &grid,
        AuditConfig {
            samples: 15_000,
            min_cell_count: 40,
        },
        &mut rng,
    );
    assert!(
        report.passes(0.5),
        "healthy ladder flagged: excess {}",
        report.worst_excess()
    );
    assert_eq!(r.served_by_tier(), [2 * 15_000, 0]);
}
