//! Sampling primitives: Walker alias tables and the planar-Laplace radius.
//!
//! * [`AliasTable`] gives O(1) draws from an arbitrary categorical
//!   distribution after O(n) setup — this is how MSM samples a reported cell
//!   from a row `K(x̂)(·)` of the optimal-mechanism channel on every query.
//! * [`planar_laplace_radius`] inverts the radial CDF of the bi-variate
//!   Laplacian `D_ε(x, z) = ε²/(2π)·e^{−ε·d(x,z)}` (Eq. 2) using the lower
//!   Lambert-W branch.

use crate::lambertw::{lambert_wm1, lambert_wm1_with_guess, INV_E};
use geoind_rng::Rng;

/// Walker alias table over `n` categories.
///
/// Construction is O(n); each [`sample`](AliasTable::sample) is O(1) (one
/// uniform index + one biased coin).
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability of each slot.
    prob: Vec<f64>,
    /// Alias category of each slot.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from unnormalized non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "invalid weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weights sum to zero");
        let n = weights.len();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        // Scaled weights: mean 1.
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &l in &large {
            prob[l as usize] = 1.0;
        }
        for &s in &small {
            // Numerical leftovers: accept with probability 1.
            prob[s as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Per-slot acceptance probabilities (Vose's `prob` array). Exposed so
    /// flattened multi-row layouts can copy the table verbatim and stay
    /// bit-identical to per-row sampling.
    pub fn slot_probs(&self) -> &[f64] {
        &self.prob
    }

    /// Per-slot alias categories (Vose's `alias` array).
    pub fn aliases(&self) -> &[u32] {
        &self.alias
    }
}

/// Number of starting-guess buckets a [`RadialSampler`] precomputes over
/// `p ∈ (0, 1)`.
const RADIAL_GUESS_BUCKETS: usize = 512;

/// Planar-Laplace radius sampler with a precomputed table of Lambert-W
/// starting guesses.
///
/// [`planar_laplace_inverse_cdf`] re-derives an analytic `W₋₁` starting
/// guess (two `ln` calls or a branch-point series) on every draw.
/// `RadialSampler` hoists that work to construction time: it tabulates
/// `W₋₁((p − 1)/e)` at `RADIAL_GUESS_BUCKETS` bucket midpoints once, and
/// each draw re-enters Halley's method from the bucket's stored guess —
/// already within `O(1/buckets)` of the root, so refinement converges in
/// one or two iterations. Draw order and count are identical to the
/// derive-per-request path (one `gen_f64`), and the result agrees to
/// solver tolerance (tested); only the starting point of the iteration
/// changes.
///
/// The two edge buckets fall back to the analytic guess: near `p = 0` the
/// root sits against the branch point and near `p = 1` it runs to `−∞`,
/// so a midpoint seed is no longer close.
#[derive(Debug, Clone)]
pub struct RadialSampler {
    eps: f64,
    /// `W₋₁((p − 1)/e)` at the midpoint of each `p` bucket.
    guesses: Vec<f64>,
}

impl RadialSampler {
    /// Precompute the guess table for budget `eps`.
    ///
    /// # Panics
    /// Panics if `eps <= 0`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        let guesses = (0..RADIAL_GUESS_BUCKETS)
            .map(|b| {
                let p = (b as f64 + 0.5) / RADIAL_GUESS_BUCKETS as f64;
                lambert_wm1((p - 1.0) * INV_E)
            })
            .collect();
        Self { eps, guesses }
    }

    /// The privacy budget the radii are scaled by.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Inverse radial CDF at `p ∈ [0, 1)`, warm-started from the guess
    /// table. Semantics match [`planar_laplace_inverse_cdf`].
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn inverse_cdf(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "p must be in [0,1), got {p}");
        if p == 0.0 {
            return 0.0;
        }
        let b = ((p * RADIAL_GUESS_BUCKETS as f64) as usize).min(RADIAL_GUESS_BUCKETS - 1);
        if b == 0 || b == RADIAL_GUESS_BUCKETS - 1 {
            return planar_laplace_inverse_cdf(self.eps, p);
        }
        let w = lambert_wm1_with_guess((p - 1.0) * INV_E, self.guesses[b]);
        -(w + 1.0) / self.eps
    }

    /// Draw one radius (one uniform, exactly like
    /// [`planar_laplace_radius`]).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inverse_cdf(rng.gen_f64())
    }
}

/// Inverse radial CDF of the planar Laplacian: given `p ∈ [0, 1)` and budget
/// `eps`, the radius `r` with `C_ε(r) = 1 − (1 + εr)e^{−εr} = p`.
///
/// With `p` uniform this yields a draw of the distance between true and
/// reported location under the planar-Laplace mechanism.
pub fn planar_laplace_inverse_cdf(eps: f64, p: f64) -> f64 {
    assert!(eps > 0.0, "eps must be positive");
    assert!((0.0..1.0).contains(&p), "p must be in [0,1), got {p}");
    if p == 0.0 {
        return 0.0;
    }
    let w = lambert_wm1((p - 1.0) * INV_E);
    -(w + 1.0) / eps
}

/// Sample a planar-Laplace radius with budget `eps`.
pub fn planar_laplace_radius<R: Rng + ?Sized>(eps: f64, rng: &mut R) -> f64 {
    planar_laplace_inverse_cdf(eps, rng.gen_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_rng::SeededRng;

    #[test]
    fn alias_single_category() {
        let t = AliasTable::new(&[3.0]);
        let mut rng = SeededRng::from_seed(1);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn alias_zero_weight_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0, 0.0]);
        let mut rng = SeededRng::from_seed(2);
        for _ in 0..10_000 {
            let s = t.sample(&mut rng);
            assert!(s == 0 || s == 2, "sampled zero-weight category {s}");
        }
    }

    #[test]
    fn alias_matches_distribution() {
        let weights = [0.1, 0.4, 0.15, 0.05, 0.3];
        let t = AliasTable::new(&weights);
        let mut rng = SeededRng::from_seed(42);
        let n = 400_000usize;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - w).abs() < 0.005,
                "category {i}: freq {freq} vs weight {w}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn alias_all_zero_panics() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn alias_negative_panics() {
        AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    fn radius_inverts_cdf() {
        for eps in [0.1, 0.5, 2.0] {
            for p in [0.05, 0.3, 0.5, 0.9, 0.999] {
                let r = planar_laplace_inverse_cdf(eps, p);
                let cdf = 1.0 - (1.0 + eps * r) * (-eps * r).exp();
                assert!((cdf - p).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn radius_mean_is_two_over_eps() {
        // E[r] for the planar Laplacian is 2/eps.
        let eps = 0.5;
        let mut rng = SeededRng::from_seed(7);
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| planar_laplace_radius(eps, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 2.0 / eps).abs() < 0.05,
            "mean {mean} vs {}",
            2.0 / eps
        );
    }

    #[test]
    fn radius_zero_at_p_zero() {
        assert_eq!(planar_laplace_inverse_cdf(1.0, 0.0), 0.0);
    }

    #[test]
    fn alias_accessors_expose_construction() {
        let t = AliasTable::new(&[1.0, 3.0]);
        assert_eq!(t.slot_probs().len(), 2);
        assert_eq!(t.aliases().len(), 2);
        // Slot marginals reconstruct the normalized weights.
        let mut marg = [0.0f64; 2];
        for i in 0..2 {
            marg[i] += t.slot_probs()[i] / 2.0;
            marg[t.aliases()[i] as usize] += (1.0 - t.slot_probs()[i]) / 2.0;
        }
        assert!((marg[0] - 0.25).abs() < 1e-15);
        assert!((marg[1] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn radial_sampler_matches_derive_per_request_path() {
        // The tabulated warm start must agree with the analytic-guess path
        // to solver tolerance everywhere, including both edge buckets.
        for eps in [0.1, 0.5, 2.0] {
            let sampler = RadialSampler::new(eps);
            let mut p = 1e-9;
            while p < 1.0 {
                let fast = sampler.inverse_cdf(p);
                let slow = planar_laplace_inverse_cdf(eps, p);
                assert!(
                    (fast - slow).abs() <= 1e-11 * (1.0 + slow.abs()),
                    "eps={eps} p={p}: warm {fast} vs analytic {slow}"
                );
                p = p * 1.7 + 1e-4;
            }
            assert_eq!(sampler.inverse_cdf(0.0), 0.0);
        }
    }

    #[test]
    fn radial_sampler_draw_is_bit_stable_per_seed() {
        // One gen_f64 per draw, same as planar_laplace_radius: the two
        // paths consume identical randomness.
        let sampler = RadialSampler::new(0.7);
        let mut a = SeededRng::from_seed(99);
        let mut b = SeededRng::from_seed(99);
        for _ in 0..1_000 {
            let fast = sampler.sample(&mut a);
            let slow = planar_laplace_radius(0.7, &mut b);
            assert!((fast - slow).abs() <= 1e-11 * (1.0 + slow.abs()));
        }
        // Streams stay aligned after the draws.
        assert_eq!(a.gen_f64().to_bits(), b.gen_f64().to_bits());
    }
}
