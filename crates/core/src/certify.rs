//! Channel certification: the fail-closed integrity gate every channel
//! passes before anything may sample from it.
//!
//! The privacy guarantee of OPT/MSM rests entirely on the LP channel
//! satisfying the ε·d constraint set — but the workspace simplex returns
//! *near*-feasible floating-point solutions, and the offline cache
//! checksums only detect bit corruption. A subtly ε-violating payload
//! with valid checksums would otherwise be served without complaint.
//! This module turns [`Channel::geoind_repair`] from an advisory helper
//! into an enforced invariant:
//!
//! > **every sampled channel carries a passing [`Certificate`], or the
//! > request was served by a closed-form tier / refused.**
//!
//! ## The gate
//!
//! [`admit`] is called at every channel admission point (the OPT solve,
//! which also covers every MSM/PMSM per-node fill) and runs three steps:
//!
//! 1. **Certify** the raw solver output against the solve-time
//!    constraint set ([`certify`], exhaustive, compensated summation).
//! 2. **Repair** — [`Channel::geoind_repair`]'s upper-envelope lift is
//!    applied unconditionally as numerical finishing (it is the identity
//!    on compliant channels up to float noise), which also converts a
//!    spanner-relaxed solution into a full-pair ε-GeoInd channel.
//! 3. **Re-certify** the repaired channel against the *strict* tolerance
//!    and the full pair set. A channel that still fails is refused with
//!    [`MechanismError::ChannelQuarantined`] — it is never sampled.
//!
//! The offline cache import gate
//! ([`crate::msm::MsmMechanism::import_cache`]) uses [`certify`]
//! *without* the repair step: a cached entry was already
//! repaired at provisioning time, so a violation there is evidence of
//! tampering or corruption, and repairing it would launder a forged
//! channel into service. The entry is quarantined instead (the node is
//! re-solved on demand).
//!
//! ## Tolerance derivation
//!
//! Violations are measured in *scaled* space,
//! `v = e^{−ε·d(x,x′)}·K(x)(z) − K(x′)(z)`, the same quantity the LP rows
//! and the repair loop bound. Scaled violations live in `[−1, 1]`, so a
//! single tolerance is meaningful for near and far pairs alike (the
//! unscaled form `K(x)(z) − e^{ε·d}·K(x′)(z)` inflates solver noise by
//! `e^{ε·d}`).
//!
//! * **Admission tolerance** (raw solver output): a basic feasible
//!   solution satisfies the scaled rows to roughly the solver's
//!   optimality tolerance, but near-zero variables are additionally
//!   truncated by up to the solver's value-clipping threshold
//!   ([`geoind_lp::simplex::VALUE_CLIP`]). Admission therefore allows
//!   `4·(VALUE_CLIP + OPT_TOL)` ([`geoind_lp::simplex::OPT_TOL`], the
//!   solver's optimality tolerance) plus a problem-size term
//!   `64·(n+m)·ε_machine` for accumulated rounding in the `m`-term row
//!   normalizations.
//! * **Spanner alignment**: a spanner solve enforces constraints only on
//!   the `δ`-spanner edges at budget `ε/δ`. Chaining the per-edge bounds
//!   along a spanner path of at most `n−1` edges (total length
//!   `≤ δ·d(x,x′)`, which is what makes the full-pair check at ε valid
//!   at all) accumulates at most one per-edge residual per hop, so the
//!   admission tolerance is widened by `δ·(n−1)`. Without this factor,
//!   correct spanner channels would be false-quarantined.
//! * **Strict tolerance** (post-repair): the repair loop iterates until
//!   its scaled residual is ≤ 1e-13; re-certification allows 1e-10 plus
//!   the same size term — three orders of magnitude of slack above
//!   convergence, five below any privacy-relevant violation.
//!
//! Row-stochasticity is checked with Neumaier (compensated) summation,
//! so the row check's own rounding error is one ulp rather than `m` ulps
//! and [`row_tolerance`] can be tight.

use crate::channel::Channel;
use crate::opt::ConstraintSet;
use crate::MechanismError;
use geoind_lp::simplex::{OPT_TOL, VALUE_CLIP};
use geoind_testkit::failpoint;

/// Outcome of certifying one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The channel passed certification as presented.
    Certified,
    /// The channel failed initial certification but the repaired channel
    /// re-certified; it serves with a bounded utility-loss delta
    /// ([`Certificate::repair_l1_delta`]).
    Repaired,
    /// Certification failed and repair could not (or was not allowed to)
    /// save the channel; it must never be sampled.
    Quarantined,
}

/// The proof object attached to every admitted channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// Largest scaled constraint violation
    /// `e^{−ε·d(x,x′)}·K(x)(z) − K(x′)(z)` found over every checked
    /// triple (negative when all constraints hold with slack).
    pub max_violation: f64,
    /// Number of ordered `(x, x′)` pairs exhaustively checked (each pair
    /// covers all `m` outputs).
    pub checked_pairs: usize,
    /// Largest compensated row-sum deviation `|Σ_z K(x)(z) − 1|`.
    pub max_row_error: f64,
    /// The certification outcome.
    pub verdict: Verdict,
    /// Largest per-row L1 change the repair step applied,
    /// `max_x Σ_z |K′(x)(z) − K(x)(z)|`. For any prior, repair moves the
    /// expected loss by at most `repair_l1_delta · max_z d_Q(x, z)` (see
    /// DESIGN.md §10); zero when no repair ran.
    pub repair_l1_delta: f64,
}

impl Certificate {
    /// True when the channel may be sampled from.
    pub fn passes(&self) -> bool {
        !matches!(self.verdict, Verdict::Quarantined)
    }
}

/// How a channel is certified: the budget it must satisfy and the
/// constraint set it was solved under (which widens the admission
/// tolerance for spanner solves — see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct CertifySpec {
    /// The ε the channel must satisfy on all pairs.
    pub eps: f64,
    /// The solve-time constraint generation strategy.
    pub constraints: ConstraintSet,
}

/// Compensated (Neumaier) summation: the returned sum's error is one ulp
/// of the result instead of growing with the term count.
fn neumaier_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for &v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            comp += (sum - t) + v;
        } else {
            comp += (v - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

/// Largest scaled violation `e^{−ε·d(x,x′)}·K(x)(z) − K(x′)(z)` over all
/// outputs `z`, for one ordered input pair. This is the per-pair check
/// [`measure`] runs exhaustively — and, run against a candidate LP
/// solution instead of a finished channel, it is the *separation oracle*
/// of the delayed-constraint-generation solve in
/// [`crate::opt::OptimalMechanism`]: a positive return beyond the
/// separation tolerance means the pair's GeoInd rows are violated and
/// must be appended to the working LP.
pub(crate) fn pair_violation(channel: &Channel, eps: f64, x: usize, xp: usize) -> f64 {
    let inputs = channel.inputs();
    let m = channel.num_outputs();
    let factor = (-eps * inputs[x].dist(inputs[xp])).exp();
    let mut worst = f64::NEG_INFINITY;
    for z in 0..m {
        let v = factor * channel.prob(x, z) - channel.prob(xp, z);
        if v > worst {
            worst = v;
        }
    }
    worst
}

/// Largest compensated row-sum deviation `|Σ_z K(x)(z) − 1|` over all
/// rows — the Neumaier-summed stochasticity check shared by [`measure`]
/// and the cut-generation loop's candidate scan.
pub(crate) fn max_row_error(channel: &Channel) -> f64 {
    let mut worst = 0.0f64;
    for x in 0..channel.num_inputs() {
        let e = (neumaier_sum(channel.row(x)) - 1.0).abs();
        if e > worst {
            worst = e;
        }
    }
    worst
}

/// Exhaustively measure a channel: the largest scaled ε·d violation over
/// all ordered input pairs and outputs, the number of pairs checked, and
/// the largest compensated row-sum deviation.
pub fn measure(channel: &Channel, eps: f64) -> (f64, usize, f64) {
    let n = channel.num_inputs();
    let mut max_violation = f64::NEG_INFINITY;
    let mut checked_pairs = 0usize;
    for x in 0..n {
        for xp in 0..n {
            if x == xp {
                continue;
            }
            checked_pairs += 1;
            let v = pair_violation(channel, eps, x, xp);
            if v > max_violation {
                max_violation = v;
            }
        }
    }
    (max_violation, checked_pairs, max_row_error(channel))
}

/// Row-stochasticity tolerance for an `m`-output channel: rows are
/// renormalized by an `m`-term division, so allow `32·m` ulps.
pub fn row_tolerance(m: usize) -> f64 {
    32.0 * m as f64 * f64::EPSILON
}

/// Problem-size rounding term shared by both tolerances.
fn size_term(n: usize, m: usize) -> f64 {
    64.0 * (n + m) as f64 * f64::EPSILON
}

/// Scaled-violation tolerance for admitting a *raw* solver output (see
/// the module docs for the derivation, including the `δ·(n−1)` spanner
/// chaining factor).
pub fn admission_tolerance(n: usize, m: usize, spec: &CertifySpec) -> f64 {
    let base = 4.0 * (VALUE_CLIP + OPT_TOL) + size_term(n, m);
    match spec.constraints {
        ConstraintSet::Full => base,
        ConstraintSet::Spanner { dilation } => {
            base * dilation.max(1.0) * (n.saturating_sub(1)).max(1) as f64
        }
    }
}

/// Scaled-violation tolerance for a *repaired* channel (full pair set):
/// the repair loop converges to a 1e-13 residual; allow 1e-10 plus the
/// size term.
pub fn strict_tolerance(n: usize, m: usize) -> f64 {
    1e-10 + size_term(n, m)
}

/// Tolerance for *re-certifying* an already-admitted channel (doctor
/// re-checks, offline-cache import): the strict tolerance, widened by the
/// same `δ·(n−1)` chaining factor the admission gate applies when the
/// channel was provisioned under a spanner constraint set. Re-checking a
/// spanner-admitted bundle against the bare full-set strict tolerance
/// would hold it to a tighter spec than the one it was admitted under and
/// risk false quarantine.
pub fn recheck_tolerance(n: usize, m: usize, constraints: ConstraintSet) -> f64 {
    let base = strict_tolerance(n, m);
    match constraints {
        ConstraintSet::Full => base,
        ConstraintSet::Spanner { dilation } => {
            base * dilation.max(1.0) * (n.saturating_sub(1)).max(1) as f64
        }
    }
}

/// Certify a channel against `eps` at tolerance `tol` — no repair. Used
/// standalone by the offline-cache import gate (where a failure means
/// tampering, not float noise) and by `geoind doctor`; [`admit`] uses it
/// as its first step.
///
/// The `certify.channel.violation` failpoint forces a failing verdict
/// here, which is how the fault sweeps exercise every admission point.
pub fn certify(channel: &Channel, eps: f64, tol: f64) -> Certificate {
    let (max_violation, checked_pairs, max_row_error) = measure(channel, eps);
    let forced = failpoint::hit("certify.channel.violation");
    let ok =
        !forced && max_violation <= tol && max_row_error <= row_tolerance(channel.num_outputs());
    Certificate {
        max_violation,
        checked_pairs,
        max_row_error,
        verdict: if ok {
            Verdict::Certified
        } else {
            Verdict::Quarantined
        },
        repair_l1_delta: 0.0,
    }
}

/// Largest per-row L1 distance between two equal-shape channels.
fn l1_delta(a: &Channel, b: &Channel) -> f64 {
    let m = a.num_outputs();
    let mut worst = 0.0f64;
    for x in 0..a.num_inputs() {
        let mut acc = 0.0;
        for z in 0..m {
            acc += (a.prob(x, z) - b.prob(x, z)).abs();
        }
        if acc > worst {
            worst = acc;
        }
    }
    worst
}

/// The mandatory admission gate: certify → repair → re-certify →
/// quarantine. Returns the (possibly repaired) channel carrying its
/// [`Certificate`] and alias tables, or
/// [`MechanismError::ChannelQuarantined`] when even the repaired channel
/// fails strict re-certification or cannot back an alias table.
///
/// The repair lift runs unconditionally — it is the numerical finishing
/// step that turns the solver's row-scaled tolerance into an honest
/// unscaled GeoInd guarantee (and a spanner-relaxed solution into a
/// full-pair one) — but the [`Verdict`] distinguishes channels that were
/// compliant on arrival (`Certified`) from channels the repair actually
/// saved (`Repaired`), so the serving layer can count repaired service.
///
/// The `certify.repair.fail` failpoint forces the re-certification to
/// fail, driving the quarantine path end to end.
pub fn admit(
    channel: Channel,
    spec: &CertifySpec,
    gate: &'static str,
) -> Result<Channel, MechanismError> {
    let n = channel.num_inputs();
    let m = channel.num_outputs();
    let first = certify(&channel, spec.eps, admission_tolerance(n, m, spec));
    let polished = channel.geoind_repair(spec.eps);
    let (post_violation, checked_pairs, post_row_error) = measure(&polished, spec.eps);
    let repair_failed = failpoint::hit("certify.repair.fail")
        || post_violation > strict_tolerance(n, m)
        || post_row_error > row_tolerance(m);
    if repair_failed {
        return Err(MechanismError::ChannelQuarantined {
            gate,
            max_violation: post_violation,
        });
    }
    let verdict = if first.verdict == Verdict::Certified {
        Verdict::Certified
    } else {
        Verdict::Repaired
    };
    let cert = Certificate {
        max_violation: post_violation,
        checked_pairs,
        max_row_error: post_row_error,
        verdict,
        repair_l1_delta: l1_delta(&channel, &polished),
    };
    polished.with_certificate(cert, gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_spatial::geom::Point;
    use geoind_testkit::failpoint::{FailSpec, Session};

    fn spec(eps: f64) -> CertifySpec {
        CertifySpec {
            eps,
            constraints: ConstraintSet::Full,
        }
    }

    fn compliant(eps: f64) -> Channel {
        let edge = eps.exp() / (1.0 + eps.exp());
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        Channel::new(
            pts.clone(),
            pts,
            vec![
                edge - 1e-3,
                1.0 - edge + 1e-3,
                1.0 - edge + 1e-3,
                edge - 1e-3,
            ],
        )
    }

    fn violating(eps: f64) -> Channel {
        // A hard support mismatch: K(0)(1) = 0 where GeoInd demands mass.
        let pts = vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)];
        let _ = eps;
        Channel::new(pts.clone(), pts, vec![1.0, 0.0, 0.1, 0.9])
    }

    #[test]
    fn neumaier_beats_naive_summation() {
        // Classic cancellation case: naive summation loses the small term.
        let vals = [1.0, 1e100, 1.0, -1e100];
        assert_eq!(neumaier_sum(&vals), 2.0);
        assert_eq!(vals.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn compliant_channel_certifies_outright() {
        let eps = 1.0;
        let c = compliant(eps);
        let cert = certify(&c, eps, admission_tolerance(2, 2, &spec(eps)));
        assert_eq!(cert.verdict, Verdict::Certified);
        assert_eq!(cert.checked_pairs, 2);
        assert!(
            cert.max_violation <= 0.0,
            "violation {}",
            cert.max_violation
        );
        assert!(cert.max_row_error <= row_tolerance(2));
    }

    #[test]
    fn admit_repairs_a_violating_channel_and_reports_the_delta() {
        let eps = 1.0;
        let admitted = admit(violating(eps), &spec(eps), "test").unwrap();
        let cert = admitted
            .certificate()
            .expect("admitted channel has a certificate");
        assert_eq!(cert.verdict, Verdict::Repaired);
        assert!(admitted.satisfies_geoind(eps, 1e-9));
        // The documented utility-loss bound: for any prior the expected
        // loss moves by at most repair_l1_delta * max output distance.
        assert!(cert.repair_l1_delta > 0.0);
        let max_dist = 4.0;
        let before = violating(eps).expected_loss(&[0.5, 0.5], crate::QualityMetric::Euclidean);
        let after = admitted.expected_loss(&[0.5, 0.5], crate::QualityMetric::Euclidean);
        assert!(
            (after - before).abs() <= cert.repair_l1_delta * max_dist + 1e-12,
            "loss delta {} exceeds bound {}",
            (after - before).abs(),
            cert.repair_l1_delta * max_dist
        );
    }

    #[test]
    fn admit_passes_compliant_channels_with_certified_verdict() {
        let eps = 1.0;
        let admitted = admit(compliant(eps), &spec(eps), "test").unwrap();
        let cert = admitted.certificate().unwrap();
        assert_eq!(cert.verdict, Verdict::Certified);
        assert!(cert.passes());
    }

    #[test]
    fn forced_violation_downgrades_to_repaired() {
        let eps = 1.0;
        let mut fp = Session::new();
        fp.arm("certify.channel.violation", FailSpec::always());
        let admitted = admit(compliant(eps), &spec(eps), "test").unwrap();
        assert_eq!(admitted.certificate().unwrap().verdict, Verdict::Repaired);
        assert!(fp.fired("certify.channel.violation") >= 1);
    }

    #[test]
    fn forced_repair_failure_quarantines() {
        let eps = 1.0;
        let mut fp = Session::new();
        fp.arm("certify.repair.fail", FailSpec::always());
        let err = admit(compliant(eps), &spec(eps), "test gate").unwrap_err();
        match err {
            MechanismError::ChannelQuarantined { gate, .. } => assert_eq!(gate, "test gate"),
            other => panic!("expected ChannelQuarantined, got {other:?}"),
        }
        assert!(fp.fired("certify.repair.fail") >= 1);
    }

    #[test]
    fn spanner_tolerance_is_wider_than_full() {
        let full = spec(1.0);
        let spanner = CertifySpec {
            constraints: ConstraintSet::Spanner { dilation: 1.5 },
            ..full
        };
        assert!(
            admission_tolerance(9, 9, &spanner) > admission_tolerance(9, 9, &full),
            "spanner chaining must widen admission"
        );
    }
}
