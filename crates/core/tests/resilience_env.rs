//! Environment-driven global failpoint arming, as used by the CI fault
//! sweep (`GEOIND_FAILPOINTS=<site>=<spec> …`).
//!
//! This binary is the sweep's target: whichever site the environment
//! arms, the ladder must stay total — construction either succeeds or
//! returns a typed error, every report lands in the domain, and the tier
//! counters account for every report. Global arming is process-wide, so
//! this lives in its own binary with a single test; the thread-scoped
//! per-site properties are in `resilience.rs`.

use geoind_core::alloc::AllocationStrategy;
use geoind_core::msm::MsmMechanism;
use geoind_core::{MechanismError, ResilientMechanism, Tier};
use geoind_data::prior::GridPrior;
use geoind_rng::SeededRng;
use geoind_spatial::geom::{BBox, Point};
use geoind_testkit::failpoint;

fn try_resilient() -> Result<ResilientMechanism, MechanismError> {
    let domain = BBox::square(8.0);
    let prior = GridPrior::uniform(domain, 8);
    ResilientMechanism::from_builder(
        MsmMechanism::builder(domain, prior)
            .epsilon(0.8)
            .granularity(2)
            .strategy(AllocationStrategy::FixedHeight(2)),
    )
}

#[test]
fn env_armed_faults_never_break_totality() {
    // Fold in whatever the sweep armed; when run without the variable,
    // arm a count-based fault ourselves so the degraded path still runs.
    let from_env = failpoint::arm_from_env().expect("GEOIND_FAILPOINTS must parse");
    if from_env == 0 {
        failpoint::arm_global("lp.refactor.singular", failpoint::FailSpec::times(2));
    }

    match try_resilient() {
        // A build-time site (alloc.budget.infeasible) is armed: the only
        // acceptable outcome is a typed error, never a panic.
        Err(e) => assert!(
            matches!(e, MechanismError::AllocationFailed(_)),
            "unexpected construction failure: {e:?}"
        ),
        Ok(r) => {
            let mut rng = SeededRng::from_seed(61);
            let x = Point::new(4.2, 4.2);
            let domain = r.msm().leaf_grid().domain();
            let n = 10u64;
            for _ in 0..n {
                let (z, _) = r.report_with_tier(x, &mut rng);
                assert!(domain.contains_closed(z), "report left the domain");
            }
            let report = r.degradation_report();
            assert_eq!(report.total(), n, "a report went unaccounted: {report}");
            if from_env == 0 {
                // Our own times(2) spec: exactly two reports degrade.
                assert_eq!(
                    report.served_by_tier[Tier::PerLevelLaplace.index()],
                    2,
                    "count-based spec mis-fired: {report}"
                );
            }
        }
    }

    // Parallel precompute under the same fault, at the worker count the
    // sweep requests (GEOIND_JOBS, default 1). The fan-out must stay as
    // total as the serving path: construction and precompute either
    // succeed or return a typed error — never a panic, never a poisoned
    // cache. Re-arm so the earlier section's consumed counts don't make
    // this a no-op for count-based specs.
    let jobs = std::env::var("GEOIND_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    let re_armed = failpoint::arm_from_env().expect("GEOIND_FAILPOINTS must parse");
    if re_armed == 0 {
        failpoint::arm_global("lp.refactor.singular", failpoint::FailSpec::times(1));
    }
    match try_resilient() {
        Err(e) => assert!(
            matches!(e, MechanismError::AllocationFailed(_)),
            "unexpected construction failure: {e:?}"
        ),
        Ok(r) => match r.msm().precompute_jobs(16, jobs) {
            Ok(n) => assert_eq!(
                n,
                r.msm().cached_channels(),
                "precompute must cache every node it reports"
            ),
            // Any typed error is acceptable under an armed fault; the
            // successes that landed before it must still be cached (the
            // cache never holds a failed solve).
            Err(_) => assert!(r.msm().cached_channels() <= 16),
        },
    }

    // Flattening under the same armed fault: either a fused tree installs
    // (and serving stays total through it) or a typed error is returned
    // and serving stays total through the unfused path — never a panic,
    // never a partially installed tree. With nothing armed it must
    // install.
    let re_armed = failpoint::arm_from_env().expect("GEOIND_FAILPOINTS must parse");
    if re_armed == 0 {
        failpoint::reset_global();
    }
    match try_resilient() {
        Err(e) => assert!(
            matches!(e, MechanismError::AllocationFailed(_)),
            "unexpected construction failure: {e:?}"
        ),
        Ok(r) => {
            let flattened = match r.flatten() {
                Ok(nodes) => {
                    assert!(nodes >= 1, "flatten reported an empty tree");
                    true
                }
                // Any typed error is acceptable under an armed fault; no
                // tree may be left.
                Err(e) => {
                    assert!(re_armed > 0, "flatten failed with no site armed: {e}");
                    assert!(!r.msm().is_flattened(), "failed flatten left a tree");
                    false
                }
            };
            let mut rng = SeededRng::from_seed(63);
            let domain = r.msm().leaf_grid().domain();
            for _ in 0..5 {
                let (z, _) = r.report_with_tier(Point::new(4.2, 4.2), &mut rng);
                assert!(domain.contains_closed(z), "report left the domain");
            }
            let report = r.degradation_report();
            assert_eq!(report.total(), 5, "a report went unaccounted: {report}");
            if !flattened {
                assert_eq!(report.sampled_flat, 0, "unfused serving counted as fused");
            }
        }
    }

    // Disarming restores exclusive tier-0 service.
    failpoint::reset_global();
    let healthy = try_resilient().expect("construction must succeed once disarmed");
    let mut rng = SeededRng::from_seed(62);
    for _ in 0..5 {
        let (_, tier) = healthy.report_with_tier(Point::new(4.2, 4.2), &mut rng);
        assert_eq!(tier, Tier::Optimal);
    }
    assert_eq!(healthy.served_by_tier(), [5, 0]);
}
