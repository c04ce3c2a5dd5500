//! Row-stochastic channels `K(x)(z)` over discrete location sets.
//!
//! A [`Channel`] is the object the GeoInd definition (Eq. 1/4) constrains:
//! `K(x)(z) ≤ e^{ε·d(x,x′)}·K(x′)(z)` for all inputs `x, x′` and outputs
//! `z`. It is produced by the optimal mechanism and consumed by the
//! multi-step mechanism (one channel per visited index node, sampled once
//! per query).

use crate::certify::Certificate;
use crate::flat::FlatChannel;
use crate::metrics::QualityMetric;
use crate::MechanismError;
use geoind_rng::Rng;
use geoind_spatial::geom::Point;

/// A probabilistic mapping from `n` input locations to `m` output locations,
/// stored as a dense row-stochastic matrix.
#[derive(Debug, Clone)]
pub struct Channel {
    inputs: Vec<Point>,
    outputs: Vec<Point>,
    /// Row-major `n × m`: `probs[x * m + z] = K(x)(z)`.
    probs: Vec<f64>,
    /// Set by an admission gate ([`crate::certify::admit`] or the offline
    /// import); `None` for channels built directly, which sample through
    /// the inverse-CDF scan.
    admission: Option<Admission>,
}

/// What an admission gate attaches to a channel: the proof of ε·d
/// compliance and the alias tables built from exactly the rows it
/// vouches for. One field, so an admitted channel always has both.
#[derive(Debug, Clone)]
struct Admission {
    certificate: Certificate,
    /// Contiguous row-major alias tables for O(1) sampling.
    flat: FlatChannel,
}

impl Channel {
    /// Build from a row-major probability matrix.
    ///
    /// # Examples
    /// ```
    /// use geoind_core::channel::Channel;
    /// use geoind_spatial::geom::Point;
    ///
    /// let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    /// let k = Channel::new(pts.clone(), pts, vec![0.7, 0.3, 0.3, 0.7]);
    /// assert_eq!(k.prob(0, 0), 0.7);
    /// // 0.7/0.3 < e^{1.0 * 1 km}: the channel is 1.0-GeoInd.
    /// assert!(k.satisfies_geoind(1.0, 1e-9));
    /// assert!(!k.satisfies_geoind(0.5, 1e-9));
    /// ```
    ///
    /// # Panics
    /// Panics if dimensions mismatch, any probability is negative beyond
    /// `1e-9` (tiny LP noise is clipped), or a row's sum deviates from 1 by
    /// more than `1e-6` (rows are then renormalized exactly).
    pub fn new(inputs: Vec<Point>, outputs: Vec<Point>, mut probs: Vec<f64>) -> Self {
        let n = inputs.len();
        let m = outputs.len();
        assert!(n > 0 && m > 0, "channel needs inputs and outputs");
        assert_eq!(probs.len(), n * m, "probability matrix shape mismatch");
        for row in 0..n {
            let r = &mut probs[row * m..(row + 1) * m];
            let mut sum = 0.0;
            for v in r.iter_mut() {
                assert!(*v > -1e-9, "negative probability {v}");
                if *v < 0.0 {
                    *v = 0.0;
                }
                sum += *v;
            }
            assert!((sum - 1.0).abs() < 1e-6, "row {row} sums to {sum}, not 1");
            for v in r.iter_mut() {
                *v /= sum;
            }
        }
        Self {
            inputs,
            outputs,
            probs,
            admission: None,
        }
    }

    /// The certification proof attached at admission, if any. Channels
    /// built directly (or transformed by [`Channel::then`] /
    /// [`Channel::geoind_repair`]) carry none until re-admitted.
    pub fn certificate(&self) -> Option<Certificate> {
        self.admission.as_ref().map(|a| a.certificate)
    }

    /// Attach a certification proof (admission gates only) and flatten
    /// the now-certified rows into the contiguous alias layout the serving
    /// path samples from. Flattening sits *behind* the gate on purpose: a
    /// table can only ever be built from rows a certificate vouches for.
    ///
    /// # Errors
    /// [`MechanismError::ChannelQuarantined`] (at `gate`, with an infinite
    /// violation) when a row cannot back an alias table: no channel is
    /// ever admitted without one.
    pub(crate) fn with_certificate(
        mut self,
        certificate: Certificate,
        gate: &'static str,
    ) -> Result<Self, MechanismError> {
        let (n, m) = (self.inputs.len(), self.outputs.len());
        let flat =
            FlatChannel::build(&self.probs, n, m).ok_or(MechanismError::ChannelQuarantined {
                gate,
                max_violation: f64::INFINITY,
            })?;
        self.admission = Some(Admission { certificate, flat });
        Ok(self)
    }

    /// The admission-built flattened alias tables: `Some` exactly when the
    /// channel was admitted.
    pub fn flat(&self) -> Option<&FlatChannel> {
        self.admission.as_ref().map(|a| &a.flat)
    }

    /// Worst absolute deviation, over every `(row, output)` entry, between
    /// the distribution the flattened alias tables actually sample from
    /// (reconstructed exactly via [`FlatChannel::row_marginal`]) and the
    /// certified matrix entries. `None` for a channel that was never
    /// admitted. A corrupted or stale table shows up here even though the
    /// certificate — which vouches for `probs`, not the derived slots —
    /// still validates.
    pub fn flat_marginal_error(&self) -> Option<f64> {
        let flat = self.flat()?;
        let m = self.outputs.len();
        let mut worst = 0.0f64;
        for r in 0..self.inputs.len() {
            for (z, reconstructed) in flat.row_marginal(r).iter().enumerate() {
                worst = worst.max((reconstructed - self.probs[r * m + z]).abs());
            }
        }
        Some(worst)
    }

    /// Test-only: override an admitted channel's flat table to simulate
    /// corruption between admission and serving (the audit in
    /// `MsmMechanism` must catch it).
    #[cfg(test)]
    pub(crate) fn with_flat_override(mut self, flat: FlatChannel) -> Self {
        self.admission.as_mut().expect("admitted channel").flat = flat;
        self
    }

    /// Input locations (logical locations `X`).
    pub fn inputs(&self) -> &[Point] {
        &self.inputs
    }

    /// Output locations (`Z`).
    pub fn outputs(&self) -> &[Point] {
        &self.outputs
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// `K(x)(z)` by index.
    #[inline]
    pub fn prob(&self, x: usize, z: usize) -> f64 {
        self.probs[x * self.outputs.len() + z]
    }

    /// One row of the matrix.
    pub fn row(&self, x: usize) -> &[f64] {
        let m = self.outputs.len();
        &self.probs[x * m..(x + 1) * m]
    }

    /// Sample an output index for input index `x`: the admission-built
    /// alias tables of an admitted channel (two draws: slot + coin),
    /// otherwise the inverse-CDF scan (one draw).
    pub fn sample<R: Rng + ?Sized>(&self, x: usize, rng: &mut R) -> usize {
        match self.flat() {
            Some(flat) => flat.sample_row(x, rng),
            None => self.sample_cdf(x, rng),
        }
    }

    /// Reference sampling path: one uniform inverted through the row's
    /// CDF by linear scan. This is the pre-flattening distribution the
    /// equivalence suite compares the alias tables against, and the path
    /// of channels that were never admitted.
    pub fn sample_cdf<R: Rng + ?Sized>(&self, x: usize, rng: &mut R) -> usize {
        let m = self.outputs.len();
        let row = &self.probs[x * m..(x + 1) * m];
        let u = rng.gen_f64();
        let mut acc = 0.0;
        for (z, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return z;
            }
        }
        m - 1
    }

    /// Sample an output *location* for input index `x`.
    pub fn sample_location<R: Rng + ?Sized>(&self, x: usize, rng: &mut R) -> Point {
        self.outputs[self.sample(x, rng)]
    }

    /// Expected quality loss `Σ_x Π(x) Σ_z K(x)(z) d_Q(x, z)` under a prior
    /// over the inputs (Eq. 3's objective).
    ///
    /// # Panics
    /// Panics if `prior` length mismatches the inputs.
    pub fn expected_loss(&self, prior: &[f64], metric: QualityMetric) -> f64 {
        assert_eq!(prior.len(), self.inputs.len(), "prior length mismatch");
        let m = self.outputs.len();
        let mut total = 0.0;
        for (x, &px) in prior.iter().enumerate() {
            if px == 0.0 {
                continue;
            }
            let mut row_loss = 0.0;
            for z in 0..m {
                let p = self.probs[x * m + z];
                if p > 0.0 {
                    row_loss += p * metric.loss(self.inputs[x], self.outputs[z]);
                }
            }
            total += px * row_loss;
        }
        total
    }

    /// Sequential composition: feed this channel's output into `next`
    /// (matrix product `K₁·K₂`).
    ///
    /// By the data-processing inequality, post-processing through any fixed
    /// channel preserves this channel's GeoInd guarantee — composition can
    /// only *improve* privacy, never degrade it (tested).
    ///
    /// # Panics
    /// Panics unless `next.num_inputs() == self.num_outputs()` (outputs of
    /// the first stage are, positionally, the inputs of the second).
    pub fn then(&self, next: &Channel) -> Channel {
        assert_eq!(
            next.num_inputs(),
            self.num_outputs(),
            "stage mismatch: {} outputs into {} inputs",
            self.num_outputs(),
            next.num_inputs()
        );
        let n = self.num_inputs();
        let k = self.num_outputs();
        let m = next.num_outputs();
        let mut probs = vec![0.0f64; n * m];
        for x in 0..n {
            for z in 0..k {
                let p = self.prob(x, z);
                if p > 0.0 {
                    for (w, out) in probs[x * m..(x + 1) * m].iter_mut().enumerate() {
                        *out += p * next.prob(z, w);
                    }
                }
            }
        }
        Channel::new(self.inputs.clone(), next.outputs.clone(), probs)
    }

    /// Repair tiny ε-GeoInd violations left behind by finite-precision LP
    /// solves.
    ///
    /// The OPT linear program is solved on *row-scaled* constraints
    /// (`e^{−εd}·K(x)(z) − K(x′)(z) ≤ 0`), so a solver tolerance of 1e-9
    /// can translate into an unscaled violation of `1e-9·e^{εd}` — huge for
    /// far pairs, typically manifesting as entries truncated to exactly 0
    /// where the true optimum carries mass `≈ e^{−εd}` (a support mismatch,
    /// which is an *infinite* distinguishability leak).
    ///
    /// The repair takes the upper envelope
    /// `L(x)(z) = max_{x′} e^{−ε·d(x,x′)}·K(x′)(z)` — GeoInd-consistent by
    /// the triangle inequality — and renormalizes rows. Lift sizes are on
    /// the order of the (tiny) true far-pair probabilities, so the expected
    /// loss moves by a vanishing amount; the returned channel passes
    /// [`Channel::geoind_violation`] at honest tolerances.
    ///
    /// Only meaningful when inputs and outputs coincide in interpretation
    /// (they do for OPT, where `X = Z`).
    pub fn geoind_repair(&self, eps: f64) -> Channel {
        let n = self.inputs.len();
        let m = self.outputs.len();
        // Precompute the pairwise decay factors once.
        let mut factors = vec![1.0f64; n * n];
        for x in 0..n {
            for xp in 0..n {
                if x != xp {
                    factors[x * n + xp] = (-eps * self.inputs[x].dist(self.inputs[xp])).exp();
                }
            }
        }
        let mut probs = self.probs.clone();
        // Lift + renormalize until the residual violation reaches float
        // noise. Normalization re-shrinks lifted rows by their lift mass,
        // so each pass contracts the violation; channels straight out of
        // the LP need 1–2 passes (tiny lifts), while badly broken inputs
        // (the repair is also exposed for testing arbitrary channels) may
        // need tens.
        for _ in 0..256 {
            let mut lifted = vec![0.0f64; n * m];
            for x in 0..n {
                for xp in 0..n {
                    let f = factors[x * n + xp];
                    for z in 0..m {
                        let v = f * probs[xp * m + z];
                        if v > lifted[x * m + z] {
                            lifted[x * m + z] = v;
                        }
                    }
                }
                let row = &mut lifted[x * m..(x + 1) * m];
                let s: f64 = row.iter().sum();
                for v in row.iter_mut() {
                    *v /= s;
                }
            }
            probs = lifted;
            // Residual check on the working matrix.
            let mut worst = 0.0f64;
            for x in 0..n {
                for xp in 0..n {
                    if x == xp {
                        continue;
                    }
                    let inv = factors[x * n + xp]; // e^{-eps d}
                    for z in 0..m {
                        let v = inv * probs[x * m + z] - probs[xp * m + z];
                        if v > worst {
                            worst = v;
                        }
                    }
                }
            }
            if worst <= 1e-13 {
                break;
            }
        }
        Channel::new(self.inputs.clone(), self.outputs.clone(), probs)
    }

    /// Largest violation of the ε-GeoInd constraints (Eq. 4), measured as
    /// `K(x)(z) − e^{ε·d(x,x′)}·K(x′)(z)` maximized over all triples.
    /// Non-positive (up to solver tolerance) iff the channel satisfies
    /// ε-GeoInd.
    pub fn geoind_violation(&self, eps: f64) -> f64 {
        let n = self.inputs.len();
        let m = self.outputs.len();
        let mut worst = f64::NEG_INFINITY;
        for x in 0..n {
            for xp in 0..n {
                if x == xp {
                    continue;
                }
                let bound = (eps * self.inputs[x].dist(self.inputs[xp])).exp();
                for z in 0..m {
                    let v = self.probs[x * m + z] - bound * self.probs[xp * m + z];
                    if v > worst {
                        worst = v;
                    }
                }
            }
        }
        worst
    }

    /// Convenience: true when [`Channel::geoind_violation`] is within `tol`.
    pub fn satisfies_geoind(&self, eps: f64, tol: f64) -> bool {
        self.geoind_violation(eps) <= tol
    }

    /// Mean self-map probability `avg_x K(x)(x)` — defined only when inputs
    /// and outputs coincide positionally (the grid case); used to validate
    /// the paper's Φ estimate (Fig. 5).
    ///
    /// # Panics
    /// Panics if input/output counts differ.
    pub fn mean_self_probability(&self) -> f64 {
        assert_eq!(
            self.inputs.len(),
            self.outputs.len(),
            "self-prob needs square channel"
        );
        let n = self.inputs.len();
        (0..n).map(|x| self.prob(x, x)).sum::<f64>() / n as f64
    }

    /// Self-map probability `K(x)(x)` of the input closest to the centroid
    /// of the location set — the best finite proxy for the paper's
    /// infinite-lattice `Φ` model, which assumes an interior cell
    /// surrounded by neighbours on all sides.
    ///
    /// # Panics
    /// Panics if input/output counts differ.
    pub fn central_self_probability(&self) -> f64 {
        assert_eq!(
            self.inputs.len(),
            self.outputs.len(),
            "self-prob needs square channel"
        );
        let n = self.inputs.len() as f64;
        let cx = self.inputs.iter().map(|p| p.x).sum::<f64>() / n;
        let cy = self.inputs.iter().map(|p| p.y).sum::<f64>() / n;
        let centroid = Point::new(cx, cy);
        let (idx, _) = self
            .inputs
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.dist(centroid)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"))
            .expect("non-empty inputs");
        self.prob(idx, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_rng::SeededRng;

    fn two_point_channel(stay: f64) -> Channel {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        Channel::new(pts.clone(), pts, vec![stay, 1.0 - stay, 1.0 - stay, stay])
    }

    #[test]
    fn row_normalization() {
        let c = two_point_channel(0.7);
        assert!((c.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(c.prob(0, 0), 0.7);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let c = two_point_channel(0.8);
        let mut rng = SeededRng::from_seed(3);
        let n = 100_000;
        let stays = (0..n).filter(|_| c.sample(0, &mut rng) == 0).count();
        let f = stays as f64 / n as f64;
        assert!((f - 0.8).abs() < 0.01, "frequency {f}");
    }

    #[test]
    fn expected_loss_closed_form() {
        let c = two_point_channel(0.75);
        // Uniform prior: loss = 0.25 * 1km on both rows.
        let l = c.expected_loss(&[0.5, 0.5], QualityMetric::Euclidean);
        assert!((l - 0.25).abs() < 1e-12);
        let l2 = c.expected_loss(&[0.5, 0.5], QualityMetric::SqEuclidean);
        assert!((l2 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn geoind_violation_detects_threshold() {
        // stay/(1-stay) == e^{eps*1} at the limit; check both sides.
        let eps = 1.0f64;
        let edge = eps.exp() / (1.0 + eps.exp()); // stay at the boundary
        let ok = two_point_channel(edge - 1e-6);
        let bad = two_point_channel(edge + 1e-3);
        assert!(ok.satisfies_geoind(eps, 1e-9));
        assert!(!bad.satisfies_geoind(eps, 1e-9));
    }

    #[test]
    fn self_probability() {
        let c = two_point_channel(0.9);
        assert!((c.mean_self_probability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn central_self_probability_picks_interior_cell() {
        // 3 collinear points; middle one has a distinct self-probability.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let probs = vec![
            0.8, 0.1, 0.1, //
            0.25, 0.5, 0.25, //
            0.1, 0.1, 0.8,
        ];
        let c = Channel::new(pts.clone(), pts, probs);
        assert!((c.central_self_probability() - 0.5).abs() < 1e-12);
        assert!((c.mean_self_probability() - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn non_stochastic_rows_panic() {
        let pts = vec![Point::new(0.0, 0.0)];
        Channel::new(pts.clone(), pts, vec![0.5]);
    }

    #[test]
    fn composition_is_matrix_product_and_preserves_geoind() {
        // Data-processing inequality: K1 (eps-GeoInd) followed by ANY
        // channel stays eps-GeoInd w.r.t. the original inputs.
        let eps = 1.0f64;
        let edge = eps.exp() / (1.0 + eps.exp());
        let k1 = two_point_channel(edge - 1e-6);
        // An arbitrary, non-private post-processing channel.
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let k2 = Channel::new(pts.clone(), pts, vec![0.99, 0.01, 0.3, 0.7]);
        let composed = k1.then(&k2);
        assert!(k1.satisfies_geoind(eps, 1e-9));
        assert!(!k2.satisfies_geoind(eps, 1e-9));
        assert!(
            composed.satisfies_geoind(eps, 1e-9),
            "post-processing must not degrade GeoInd (violation {})",
            composed.geoind_violation(eps)
        );
        // Entry check: (K1 K2)(0)(0).
        let expect = k1.prob(0, 0) * k2.prob(0, 0) + k1.prob(0, 1) * k2.prob(1, 0);
        assert!((composed.prob(0, 0) - expect).abs() < 1e-12);
        // Rows remain stochastic.
        for x in 0..2 {
            assert!((composed.row(x).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "stage mismatch")]
    fn composition_requires_matching_stages() {
        let a = two_point_channel(0.6);
        let pts = vec![Point::new(0.0, 0.0)];
        let one = Channel::new(pts.clone(), pts, vec![1.0]);
        let _ = a.then(&one);
    }

    #[test]
    fn repair_fixes_support_mismatch() {
        // A channel that is "optimal up to scaled tolerance" but has an
        // exact zero where GeoInd demands mass: K(0)(1) = 0.
        let pts = vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)];
        let eps = 1.0;
        let broken = Channel::new(pts.clone(), pts, vec![1.0, 0.0, 0.1, 0.9]);
        assert!(!broken.satisfies_geoind(eps, 1e-6));
        let fixed = broken.geoind_repair(eps);
        assert!(
            fixed.satisfies_geoind(eps, 1e-9),
            "violation {}",
            fixed.geoind_violation(eps)
        );
        // The lift is bounded by e^{-eps d} * donor mass.
        assert!(fixed.prob(0, 1) > 0.0);
        assert!(fixed.prob(0, 1) <= (-eps * 4.0f64).exp() * 0.9 + 1e-12);
        // Large entries barely move.
        assert!((fixed.prob(1, 1) - 0.9).abs() < 0.02);
    }

    #[test]
    fn repair_is_identity_on_compliant_channels() {
        let eps = 1.0f64;
        let edge = eps.exp() / (1.0 + eps.exp());
        let ok = two_point_channel(edge - 1e-3);
        let fixed = ok.geoind_repair(eps);
        for x in 0..2 {
            for z in 0..2 {
                assert!((ok.prob(x, z) - fixed.prob(x, z)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tiny_negative_probs_clipped() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let c = Channel::new(pts.clone(), pts, vec![1.0 + 1e-10, -1e-10, 0.0, 1.0]);
        assert!(c.prob(0, 1) >= 0.0);
    }

    #[test]
    fn flat_marginal_error_is_tiny_when_honest_and_catches_a_swapped_table() {
        use crate::certify::{certify, Certificate};
        let c = two_point_channel(0.7);
        // No flat table yet: nothing to audit.
        assert!(c.flat_marginal_error().is_none());
        let cert: Certificate = certify(&c, 1.0, 1e-6);
        let admitted = c.with_certificate(cert, "test").expect("valid rows");
        let honest = admitted.flat_marginal_error().expect("table built");
        assert!(
            honest <= 8.0 * f64::EPSILON,
            "honest table drifted {honest}"
        );
        // A flat table built from *different* rows behind the same
        // certificate must be flagged with an error of the row gap.
        let wrong = FlatChannel::build(&[0.9, 0.1, 0.1, 0.9], 2, 2).expect("build");
        let tampered = admitted.with_flat_override(wrong);
        let err = tampered.flat_marginal_error().expect("table present");
        assert!(
            (err - 0.2).abs() < 1e-9,
            "tampered table not detected: {err}"
        );
    }
}
