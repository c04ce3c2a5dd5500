//! The optimal GeoInd mechanism (Bordenabe et al., Eq. 3–6) over a discrete
//! location set, solved with the workspace LP engine.
//!
//! Given budget `ε`, prior `Π`, quality metric `d_Q` and locations
//! `X = Z`, OPT finds the row-stochastic channel `K` minimizing
//! `Σ Π(x)·K(x)(z)·d_Q(x,z)` subject to the ε-GeoInd constraints — the
//! best utility any GeoInd mechanism can achieve against that prior.
//!
//! The LP has `n²` variables and `n + n²(n−1)` constraints; it is solved
//! through its dual (see `geoind_lp::dual`), whose basis has only `n²` rows
//! and whose slack basis is immediately feasible.

use crate::channel::Channel;
use crate::metrics::QualityMetric;
use crate::spanner::Spanner;
use crate::{Mechanism, MechanismError};
use geoind_data::prior::GridPrior;
use geoind_lp::dual::remap_dual_basis_after_le_append;
use geoind_lp::model::{Model, Op, Sense, SolveVia};
use geoind_lp::simplex::{Basis, Warm, VALUE_CLIP};
use geoind_lp::LpError;
use geoind_rng::Rng;
use geoind_spatial::geom::Point;
use geoind_spatial::grid::Grid;
use geoind_spatial::kdtree::KdTree;
use std::sync::Arc;

/// Which GeoInd constraint set to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstraintSet {
    /// All `n²(n−1)` pairwise constraints (exact OPT).
    Full,
    /// Constraints only on the edges of a greedy δ-spanner, tightened to
    /// `ε/δ` — an over-constrained but much smaller program whose solution
    /// still satisfies ε-GeoInd (utility is ≥ the exact optimum).
    Spanner {
        /// Spanner dilation δ ≥ 1.
        dilation: f64,
    },
}

/// Dilation of the greedy spanner whose edges seed the cut loop's working
/// set when the target set is [`ConstraintSet::Full`]: the spanner edges
/// are exactly the near-pair constraints that tend to be active at the
/// optimum.
pub(crate) const SEED_DILATION: f64 = 1.2;

/// Scaled-violation threshold above which the cut loop appends a pair's
/// rows. It sits at the solver's value-clipping noise
/// ([`geoind_lp::simplex::VALUE_CLIP`]), so the loop never chases pairs
/// whose rows the LP already satisfies up to truncation; the admission
/// gate allows `4·(VALUE_CLIP + OPT_TOL) + …`, which certifies the fixed
/// point with a 4× margin.
const SEPARATION_TOL: f64 = VALUE_CLIP;

/// Safety cap on cut-loop rounds. Each round strictly grows the working
/// set, so termination is guaranteed regardless; this bounds pathological
/// float behavior.
const MAX_CUT_ROUNDS: usize = 200;

/// The whole configuration of an OPT solve ([`OptimalMechanism::solve_with`]
/// and every per-node solve of an MSM). The LP always runs through its
/// dual ([`SolveVia::Dual`]); the simplex and cut-loop tolerances are
/// constants.
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Constraint generation strategy.
    pub constraints: ConstraintSet,
    /// Delayed constraint generation (cutting planes; the default):
    /// materialize only a seed subset of the GeoInd rows, solve, scan the
    /// optimum for violated pairs with the same per-pair check `certify`
    /// runs, append just those rows, continue the simplex from the previous
    /// exit basis, and iterate to a fixed point. The fixed point satisfies
    /// *every* target constraint within the separation tolerance, so this
    /// is an exact method, not an approximation — the admission gate
    /// certifies it against the full target spec regardless. When `false`,
    /// every target row is materialized up front (eager).
    pub cutgen: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        Self {
            constraints: ConstraintSet::Full,
            cutgen: true,
        }
    }
}

/// Size/effort statistics from the LP solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Variables in the primal formulation.
    pub cols: usize,
    /// Simplex pivots performed, summed over all cut rounds. Pivots of an
    /// abandoned warm start are not included (see
    /// [`SolveStats::discarded_pivots`]).
    pub iterations: usize,
    /// Rounds whose warm start was abandoned for a cold solve, summed over
    /// all cut rounds.
    pub warm_fallbacks: usize,
    /// Pivots those abandoned warm starts executed before they were thrown
    /// away, summed over all cut rounds.
    pub discarded_pivots: usize,
    /// Cut-generation rounds (LP solves) performed; 0 when cut generation
    /// was disabled and the target rows were materialized up front.
    pub cut_rounds: usize,
    /// Rows actually materialized in the final working LP — the seed rows
    /// plus every violated row the separation oracle appended.
    pub rows_active: usize,
    /// Constraint rows in the primal formulation of the full target
    /// program (`n` stochasticity rows plus `n` GeoInd rows per target
    /// pair).
    pub rows_total: usize,
    /// `‖Ax − b‖∞` of the solution after one iterative-refinement pass on
    /// the final basis (primal feasibility).
    pub primal_residual: f64,
    /// Worst reduced-cost violation at the exit basis (dual feasibility).
    pub dual_residual: f64,
}

/// Reuse a level-shared spanner when it matches this solve's geometry and
/// dilation, otherwise build a fresh one. Siblings on a tree level share
/// congruent child grids, so the precompute schedule can build the greedy
/// spanner (O(n³)) once per level and hand it to every node solve.
fn reuse_or_build(
    shared: Option<&Arc<Spanner>>,
    locations: &[Point],
    dilation: f64,
) -> Arc<Spanner> {
    match shared {
        Some(s) if s.num_vertices() == locations.len() && s.dilation() == dilation => Arc::clone(s),
        _ => Arc::new(Spanner::greedy(locations, dilation)),
    }
}

/// The optimal mechanism: a precomputed channel plus a nearest-location
/// snapper for continuous inputs.
#[derive(Debug, Clone)]
pub struct OptimalMechanism {
    eps: f64,
    metric: QualityMetric,
    channel: Channel,
    snapper: KdTree,
    stats: SolveStats,
    basis: Basis,
}

impl OptimalMechanism {
    /// Solve OPT with default options.
    ///
    /// # Examples
    /// ```
    /// use geoind_core::metrics::QualityMetric;
    /// use geoind_core::opt::OptimalMechanism;
    /// use geoind_spatial::geom::Point;
    ///
    /// // Two locations 1 km apart, uniform prior: the optimal flip
    /// // probability has the closed form 1 / (1 + e^eps).
    /// let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    /// let opt = OptimalMechanism::solve(1.0, &pts, &[0.5, 0.5], QualityMetric::Euclidean)
    ///     .unwrap();
    /// let flip = 1.0 / (1.0 + 1.0f64.exp());
    /// assert!((opt.channel().prob(0, 1) - flip).abs() < 1e-8);
    /// ```
    pub fn solve(
        eps: f64,
        locations: &[Point],
        prior: &[f64],
        metric: QualityMetric,
    ) -> Result<Self, MechanismError> {
        Self::solve_with(eps, locations, prior, metric, OptOptions::default())
    }

    /// Solve OPT on the cells of a grid with a matching prior (aggregating
    /// the prior to the grid's granularity when needed).
    pub fn on_grid(
        eps: f64,
        grid: &Grid,
        prior: &GridPrior,
        metric: QualityMetric,
    ) -> Result<Self, MechanismError> {
        let prior = if prior.grid().granularity() == grid.granularity() {
            prior.clone()
        } else {
            prior.aggregate_to(grid.granularity())
        };
        Self::solve(eps, &grid.centers(), prior.probs(), metric)
    }

    /// Solve OPT with explicit options.
    ///
    /// # Errors
    /// [`MechanismError::BadParameter`] for invalid inputs;
    /// [`MechanismError::Lp`] if the LP fails (it is feasible by
    /// construction, so this indicates an iteration limit).
    pub fn solve_with(
        eps: f64,
        locations: &[Point],
        prior: &[f64],
        metric: QualityMetric,
        opts: OptOptions,
    ) -> Result<Self, MechanismError> {
        Self::solve_node(eps, locations, prior, metric, opts, None, None)
    }

    /// [`Self::solve_with`] for one node of a precompute schedule. `donor`
    /// is the seed-round exit basis of a sibling node ([`Self::basis`]):
    /// siblings share the constraint matrix and costs, so it warm-starts
    /// the first LP round as a [`Warm::Restart`]. `spanner` is the greedy
    /// spanner built once per tree level; it replaces this solve's own
    /// build when its vertex count and dilation match what the solve needs.
    /// Neither changes the admitted channel, only the work to reach it.
    pub(crate) fn solve_node(
        eps: f64,
        locations: &[Point],
        prior: &[f64],
        metric: QualityMetric,
        opts: OptOptions,
        donor: Option<&Basis>,
        spanner: Option<&Arc<Spanner>>,
    ) -> Result<Self, MechanismError> {
        if eps <= 0.0 {
            return Err(MechanismError::BadParameter(format!(
                "eps must be positive, got {eps}"
            )));
        }
        if locations.len() < 2 {
            return Err(MechanismError::BadParameter(
                "need at least 2 locations".into(),
            ));
        }
        if prior.len() != locations.len() {
            return Err(MechanismError::BadParameter(format!(
                "prior length {} != location count {}",
                prior.len(),
                locations.len()
            )));
        }
        let psum: f64 = prior.iter().sum();
        if prior.iter().any(|&p| p < 0.0 || !p.is_finite()) || psum <= 0.0 {
            return Err(MechanismError::BadParameter(
                "prior must be non-negative, nonzero".into(),
            ));
        }
        let n = locations.len();

        // The ordered constraint pairs of the *target* program and their
        // per-row budget. Pair order is canonical and deterministic: scan
        // order for the full set, greedy edge order (both directions) for
        // a spanner set.
        let (eps_row, target_pairs): (f64, Vec<(usize, usize)>) = match opts.constraints {
            ConstraintSet::Full => {
                let mut pairs = Vec::with_capacity(n * (n - 1));
                for x in 0..n {
                    for xp in 0..n {
                        if x != xp {
                            pairs.push((x, xp));
                        }
                    }
                }
                (eps, pairs)
            }
            ConstraintSet::Spanner { dilation } => {
                if dilation < 1.0 {
                    return Err(MechanismError::BadParameter(format!(
                        "spanner dilation must be >= 1, got {dilation}"
                    )));
                }
                let spanner = reuse_or_build(spanner, locations, dilation);
                let mut pairs = Vec::with_capacity(2 * spanner.edges().len());
                for &(i, j) in spanner.edges() {
                    pairs.push((i, j));
                    pairs.push((j, i));
                }
                (eps / dilation, pairs)
            }
        };
        let rows_total = n + n * target_pairs.len();

        // Seed pairs materialized before the first solve. With cut
        // generation off, that is the whole target set (the historical
        // behavior); with it on, a sparse subset likely to contain the
        // active set: the δ-spanner edges for a full target (near pairs
        // bind at the optimum), the shortest edges for a spanner target.
        let seed_pairs: Vec<(usize, usize)> = if !opts.cutgen {
            target_pairs.clone()
        } else {
            match opts.constraints {
                ConstraintSet::Full => {
                    let spanner = reuse_or_build(spanner, locations, SEED_DILATION);
                    let mut pairs = Vec::with_capacity(2 * spanner.edges().len());
                    for &(i, j) in spanner.edges() {
                        pairs.push((i, j));
                        pairs.push((j, i));
                    }
                    pairs
                }
                // The greedy spanner adds edges ascending by length, so a
                // prefix of the target list is its shortest (most binding)
                // edges.
                ConstraintSet::Spanner { .. } => {
                    let take = (8 * n).min(target_pairs.len());
                    target_pairs[..take].to_vec()
                }
            }
        };

        let mut model = Model::new(Sense::Minimize);
        // Variables k[x*n + z] with objective Π(x)·d_Q(x,z).
        for x in 0..n {
            let px = prior[x] / psum;
            for z in 0..n {
                model.add_var(px * metric.loss(locations[x], locations[z]));
            }
        }
        // Row-stochasticity: Σ_z k(x,z) = 1.
        for x in 0..n {
            let entries: Vec<(usize, f64)> = (0..n).map(|z| (x * n + z, 1.0)).collect();
            model.add_row(&entries, Op::Eq, 1.0);
        }
        // GeoInd constraints. Rows are scaled by e^{−ε·d} so every
        // coefficient stays in [−1, 1] (the rhs is 0, so scaling is free).
        let add_pair = |m: &mut Model, x: usize, xp: usize| {
            let scale = (-eps_row * locations[x].dist(locations[xp])).exp();
            for z in 0..n {
                m.add_row(&[(x * n + z, scale), (xp * n + z, -1.0)], Op::Le, 0.0);
            }
        };
        let mut included = vec![false; n * n];
        let mut active_pairs = 0usize;
        for &(x, xp) in &seed_pairs {
            if !included[x * n + xp] {
                included[x * n + xp] = true;
                active_pairs += 1;
                add_pair(&mut model, x, xp);
            }
        }

        let stats_cols = model.num_vars();
        let mut total_iterations = 0usize;
        let mut warm_fallbacks = 0usize;
        let mut discarded_pivots = 0usize;
        let mut rounds = 0usize;
        let mut seed_basis: Option<Basis> = None;
        let mut warm = donor.cloned().map(Warm::Restart);
        let sol = loop {
            if rounds >= MAX_CUT_ROUNDS {
                return Err(MechanismError::Lp(LpError::IterationLimit));
            }
            rounds += 1;
            let sol = model.solve_with(SolveVia::Dual, warm.take())?;
            total_iterations += sol.iterations;
            warm_fallbacks += usize::from(sol.warm_fallback);
            discarded_pivots += sol.discarded_pivots;
            if seed_basis.is_none() {
                // The seed-round exit basis lives in the seed LP's column
                // space, which sibling solves share; later rounds' bases
                // live in this solve's private cut-extended space.
                seed_basis = Some(sol.basis.clone());
            }
            if !opts.cutgen {
                break sol;
            }
            // Separation oracle: scan the candidate optimum for violated
            // target pairs with certify's per-pair check, in canonical
            // target order.
            let cand = Channel::new(locations.to_vec(), locations.to_vec(), sol.values.clone());
            let fresh: Vec<(usize, usize)> = target_pairs
                .iter()
                .copied()
                .filter(|&(x, xp)| {
                    !included[x * n + xp]
                        && crate::certify::pair_violation(&cand, eps_row, x, xp) > SEPARATION_TOL
                })
                .collect();
            if fresh.is_empty() {
                break sol; // fixed point: every target pair satisfied
            }
            // Warm restart: the appended primal rows become new dual
            // columns, so the exit basis stays primal-feasible once its
            // column references are shifted past the insertion block —
            // resume primal phase 2 instead of re-solving from scratch.
            // (Computed against the model *before* the rows go in.)
            warm = Some(Warm::Continue(remap_dual_basis_after_le_append(
                &model,
                &sol.basis,
                n * fresh.len(),
            )));
            for (x, xp) in fresh {
                included[x * n + xp] = true;
                active_pairs += 1;
                add_pair(&mut model, x, xp);
            }
        };
        let rows_active = n + n * active_pairs;

        // Mandatory admission gate: certify the raw simplex optimum against
        // the solve-time constraint set, lift it back onto the exact GeoInd
        // surface (the LP enforces row-scaled constraints, so the solver
        // tolerance must be un-scaled into an honest guarantee — see
        // Channel::geoind_repair), and re-certify strictly. A channel that
        // still violates is quarantined, never sampled. The cut-generation
        // fixed point satisfies the *entire* target set, so the spec is
        // identical whether or not rows were delayed.
        let spec = crate::certify::CertifySpec {
            eps,
            constraints: opts.constraints,
        };
        let channel = crate::certify::admit(
            Channel::new(locations.to_vec(), locations.to_vec(), sol.values),
            &spec,
            "opt.solve",
        )?;
        let snapper = KdTree::build(locations.iter().copied().enumerate().map(|(i, p)| (p, i)));
        Ok(Self {
            eps,
            metric,
            channel,
            snapper,
            stats: SolveStats {
                cols: stats_cols,
                iterations: total_iterations,
                warm_fallbacks,
                discarded_pivots,
                cut_rounds: if opts.cutgen { rounds } else { 0 },
                rows_active,
                rows_total,
                primal_residual: sol.residual,
                dual_residual: sol.dual_residual,
            },
            basis: seed_basis.unwrap_or_default(),
        })
    }

    /// The optimal channel.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// The quality metric the channel was optimized for.
    pub fn metric(&self) -> QualityMetric {
        self.metric
    }

    /// LP size/effort statistics.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The optimal basis the first LP round exited with, in the
    /// standard-form column space of the dual formulation the solve runs
    /// on (later cut rounds pivot in a cut-extended space no other solve
    /// shares). The precompute schedule passes a level donor's basis to
    /// every sibling node's solve as a [`Warm::Restart`]: siblings share
    /// the constraint matrix and only the prior-dependent right-hand side
    /// differs.
    pub fn basis(&self) -> &Basis {
        &self.basis
    }

    /// Expected loss under a prior (defaults to the training objective when
    /// called with the same prior used at solve time).
    pub fn expected_loss(&self, prior: &[f64]) -> f64 {
        self.channel.expected_loss(prior, self.metric)
    }

    /// Index of the logical location nearest to a continuous point.
    pub fn snap_index(&self, x: Point) -> usize {
        self.snapper.nearest(x).expect("non-empty location set").1
    }
}

impl Mechanism for OptimalMechanism {
    fn report<R: Rng + ?Sized>(&self, x: Point, rng: &mut R) -> Point {
        let idx = self.snap_index(x);
        self.channel.sample_location(idx, rng)
    }

    fn name(&self) -> String {
        format!("OPT(eps={}, n={})", self.eps, self.channel.num_inputs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_rng::SeededRng;
    use geoind_spatial::geom::BBox;

    fn line_points(n: usize, spacing: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn two_point_closed_form() {
        // Uniform prior, unit distance: optimum flips with prob 1/(1+e^eps).
        let eps = 1.0;
        let opt = OptimalMechanism::solve(
            eps,
            &line_points(2, 1.0),
            &[0.5, 0.5],
            QualityMetric::Euclidean,
        )
        .unwrap();
        let flip = 1.0 / (1.0 + eps.exp());
        assert!((opt.channel().prob(0, 1) - flip).abs() < 1e-8);
        assert!((opt.channel().prob(1, 0) - flip).abs() < 1e-8);
        assert!((opt.expected_loss(&[0.5, 0.5]) - flip).abs() < 1e-8);
    }

    #[test]
    fn channel_satisfies_geoind() {
        let grid = Grid::new(BBox::square(20.0), 3);
        let prior = GridPrior::uniform(BBox::square(20.0), 3);
        let opt = OptimalMechanism::on_grid(0.5, &grid, &prior, QualityMetric::Euclidean).unwrap();
        assert!(
            opt.channel().satisfies_geoind(0.5, 1e-6),
            "violation {}",
            opt.channel().geoind_violation(0.5)
        );
    }

    #[test]
    fn geoind_holds_for_any_prior_it_was_not_tuned_for() {
        // The remarkable OPT property (Section 2.3): tuned for one prior,
        // private for all. GeoInd is a property of the channel alone, so a
        // skewed-prior channel passes the same constraint check.
        let pts = line_points(4, 2.0);
        let skewed = [0.7, 0.1, 0.1, 0.1];
        let opt = OptimalMechanism::solve(0.4, &pts, &skewed, QualityMetric::Euclidean).unwrap();
        assert!(opt.channel().satisfies_geoind(0.4, 1e-6));
    }

    #[test]
    fn beats_or_matches_planar_laplace_utility() {
        // OPT is *optimal*: no GeoInd channel over the same locations can
        // do better; in particular a discretized PL cannot.
        let domain = BBox::square(20.0);
        let grid = Grid::new(domain, 4);
        let mut weights = vec![0.0; 16];
        weights[5] = 10.0;
        weights[6] = 5.0;
        weights[9] = 3.0;
        weights[0] = 1.0;
        let prior = GridPrior::from_weights(grid.clone(), weights);
        let eps = 0.3;
        let opt = OptimalMechanism::on_grid(eps, &grid, &prior, QualityMetric::Euclidean).unwrap();
        let opt_loss = opt.expected_loss(prior.probs());

        // Monte-Carlo the PL+remap loss under the same prior.
        let pl = crate::planar_laplace::PlanarLaplace::new(eps).with_grid_remap(grid.clone());
        let mut rng = SeededRng::from_seed(5);
        let mut pl_loss = 0.0;
        let trials = 3_000;
        for (cell, &p) in prior.probs().iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let x = grid.center_of(cell);
            let mut acc = 0.0;
            for _ in 0..trials {
                acc += pl.report(x, &mut rng).dist(x);
            }
            pl_loss += p * acc / trials as f64;
        }
        assert!(
            opt_loss <= pl_loss * 1.02,
            "OPT loss {opt_loss} should not exceed PL loss {pl_loss}"
        );
    }

    #[test]
    fn skewed_prior_beats_uniform_prior_utility() {
        // Tuning to a concentrated prior must give (weakly) better expected
        // loss under that prior than the channel tuned for uniform.
        let pts = Grid::new(BBox::square(10.0), 3).centers();
        let mut skewed = vec![0.01; 9];
        skewed[4] = 0.92;
        let tuned = OptimalMechanism::solve(0.3, &pts, &skewed, QualityMetric::Euclidean).unwrap();
        let generic =
            OptimalMechanism::solve(0.3, &pts, &[1.0 / 9.0; 9], QualityMetric::Euclidean).unwrap();
        let lt = tuned
            .channel()
            .expected_loss(&skewed, QualityMetric::Euclidean);
        let lg = generic
            .channel()
            .expected_loss(&skewed, QualityMetric::Euclidean);
        assert!(lt <= lg + 1e-8, "tuned {lt} vs generic {lg}");
    }

    #[test]
    fn spanner_variant_is_private_and_close() {
        let grid = Grid::new(BBox::square(20.0), 3);
        let prior = GridPrior::uniform(BBox::square(20.0), 3);
        let eps = 0.5;
        let exact =
            OptimalMechanism::on_grid(eps, &grid, &prior, QualityMetric::Euclidean).unwrap();
        let solve_spanner = |dilation: f64| {
            OptimalMechanism::solve_with(
                eps,
                &grid.centers(),
                prior.probs(),
                QualityMetric::Euclidean,
                OptOptions {
                    constraints: ConstraintSet::Spanner { dilation },
                    ..OptOptions::default()
                },
            )
            .unwrap()
        };
        let tight = solve_spanner(1.05);
        let loose = solve_spanner(1.5);
        // Still ε-GeoInd (the whole point of the spanner argument)...
        assert!(tight.channel().satisfies_geoind(eps, 1e-6));
        assert!(loose.channel().satisfies_geoind(eps, 1e-6));
        // ...with fewer constraints...
        assert!(loose.stats().rows_total < exact.stats().rows_total);
        // ...at a utility premium that shrinks as δ → 1 (the ε/δ budget
        // tightening is the price of the smaller program).
        let le = exact.expected_loss(prior.probs());
        let lt = tight.expected_loss(prior.probs());
        let ll = loose.expected_loss(prior.probs());
        assert!(
            lt >= le - 1e-8 && ll >= le - 1e-8,
            "spanner cannot beat the true optimum"
        );
        assert!(
            lt <= ll + 1e-8,
            "tighter dilation should not lose more ({lt} vs {ll})"
        );
        assert!(
            lt <= le * 1.35,
            "near-exact spanner loss {lt} too far above exact {le}"
        );
    }

    #[test]
    fn higher_eps_means_lower_loss() {
        let grid = Grid::new(BBox::square(20.0), 3);
        let prior = GridPrior::uniform(BBox::square(20.0), 3);
        let mut prev = f64::INFINITY;
        for eps in [0.1, 0.3, 0.6, 1.0] {
            let opt =
                OptimalMechanism::on_grid(eps, &grid, &prior, QualityMetric::Euclidean).unwrap();
            let loss = opt.expected_loss(prior.probs());
            assert!(loss <= prev + 1e-9, "loss not decreasing at eps={eps}");
            prev = loss;
        }
    }

    #[test]
    fn report_snaps_and_samples() {
        let grid = Grid::new(BBox::square(10.0), 2);
        let prior = GridPrior::uniform(BBox::square(10.0), 2);
        let opt = OptimalMechanism::on_grid(1.0, &grid, &prior, QualityMetric::Euclidean).unwrap();
        let mut rng = SeededRng::from_seed(9);
        let centers = grid.centers();
        for _ in 0..100 {
            let z = opt.report(Point::new(1.1, 2.3), &mut rng);
            assert!(centers.iter().any(|c| c.dist(z) < 1e-12));
        }
    }

    fn solve_cutgen(
        eps: f64,
        pts: &[Point],
        prior: &[f64],
        constraints: ConstraintSet,
        cutgen: bool,
    ) -> OptimalMechanism {
        OptimalMechanism::solve_with(
            eps,
            pts,
            prior,
            QualityMetric::Euclidean,
            OptOptions {
                constraints,
                cutgen,
            },
        )
        .unwrap()
    }

    #[test]
    fn cutgen_fixed_point_certifies_full_set_with_zero_violated_rows() {
        // The cut-generation invariant: the fixed point is exact, so every
        // one of the n²(n−1) scalar GeoInd constraints of the *full* target
        // program holds at full admission tolerance — the separation oracle
        // must find zero violated rows in the admitted channel.
        for (g, eps) in [(2u32, 1.0), (3, 0.5), (3, 0.2), (4, 0.7)] {
            let grid = Grid::new(BBox::square(12.0), g);
            let pts = grid.centers();
            let n = pts.len();
            let mut prior = vec![1.0; n];
            for (i, w) in prior.iter_mut().enumerate() {
                *w += ((i * 37) % 11) as f64 / 3.0; // deterministic skew
            }
            let s: f64 = prior.iter().sum();
            for w in &mut prior {
                *w /= s;
            }
            let opt = solve_cutgen(eps, &pts, &prior, ConstraintSet::Full, true);
            assert!(opt.stats().cut_rounds >= 1);
            assert!(opt.stats().rows_active <= opt.stats().rows_total);
            let tol = crate::certify::strict_tolerance(n, n);
            let mut violated = 0usize;
            for x in 0..n {
                for xp in 0..n {
                    if x != xp && crate::certify::pair_violation(opt.channel(), eps, x, xp) > tol {
                        violated += 1;
                    }
                }
            }
            assert_eq!(violated, 0, "g={g} eps={eps}: violated pairs remain");
        }
    }

    #[test]
    fn cutgen_is_bit_identical_to_full_materialization() {
        // Cut generation is an exact method. The refactorize-at-exit rule
        // plus double-double dual refinement make the emitted channel a
        // pure function of the optimum the solve converged to, so on
        // instances whose optimal basis is unique the delayed-row solve
        // reproduces the eager solve bit for bit — including g=3 here,
        // where the lazy path genuinely skips ~20% of the GeoInd rows.
        for (g, eps) in [(2u32, 0.4), (2, 0.9), (2, 1.3), (3, 1.1)] {
            let grid = Grid::new(BBox::square(10.0), g);
            let pts = grid.centers();
            let n = pts.len();
            let mut prior = vec![0.0; n];
            for (i, w) in prior.iter_mut().enumerate() {
                *w = 1.0 + ((i * 29) % 13) as f64 / 4.0; // unique optimum
            }
            let s: f64 = prior.iter().sum();
            for w in &mut prior {
                *w /= s;
            }
            let eager = solve_cutgen(eps, &pts, &prior, ConstraintSet::Full, false);
            let lazy = solve_cutgen(eps, &pts, &prior, ConstraintSet::Full, true);
            assert_eq!(eager.stats().cut_rounds, 0);
            assert!(lazy.stats().cut_rounds >= 1);
            assert_eq!(eager.stats().rows_total, lazy.stats().rows_total);
            for x in 0..n {
                for z in 0..n {
                    assert_eq!(
                        eager.channel().prob(x, z).to_bits(),
                        lazy.channel().prob(x, z).to_bits(),
                        "g={g} eps={eps}: probs differ at ({x},{z})"
                    );
                }
            }
        }
        // Near-degenerate instances break exact ties only through float
        // rounding of the LP coefficients, so two different optimal bases
        // carry exact duals ~1 ulp apart and bitwise equality is not
        // attainable from different pivot paths; the channels still agree
        // to machine precision.
        let grid = Grid::new(BBox::square(10.0), 3);
        let pts = grid.centers();
        let n = pts.len();
        let mut prior = vec![0.0; n];
        for (i, w) in prior.iter_mut().enumerate() {
            *w = 1.0 + ((i * 29) % 13) as f64 / 4.0;
        }
        let s: f64 = prior.iter().sum();
        for w in &mut prior {
            *w /= s;
        }
        let eager = solve_cutgen(0.4, &pts, &prior, ConstraintSet::Full, false);
        let lazy = solve_cutgen(0.4, &pts, &prior, ConstraintSet::Full, true);
        for x in 0..n {
            for z in 0..n {
                let d = (eager.channel().prob(x, z) - lazy.channel().prob(x, z)).abs();
                assert!(
                    d <= 4e-16,
                    "probs differ beyond ulp noise at ({x},{z}): {d:e}"
                );
            }
        }
    }

    #[test]
    fn cutgen_composes_with_spanner_target() {
        // Spanner target + delayed rows: the fixed point satisfies every
        // spanner edge at ε/δ, hence full ε-GeoInd by path chaining.
        let grid = Grid::new(BBox::square(20.0), 3);
        let prior = GridPrior::uniform(BBox::square(20.0), 3);
        let eps = 0.5;
        let lazy = solve_cutgen(
            eps,
            &grid.centers(),
            prior.probs(),
            ConstraintSet::Spanner { dilation: 1.2 },
            true,
        );
        let eager = solve_cutgen(
            eps,
            &grid.centers(),
            prior.probs(),
            ConstraintSet::Spanner { dilation: 1.2 },
            false,
        );
        assert!(lazy.channel().satisfies_geoind(eps, 1e-6));
        assert!(lazy.stats().rows_active <= lazy.stats().rows_total);
        assert!(
            (lazy.expected_loss(prior.probs()) - eager.expected_loss(prior.probs())).abs() <= 1e-9
        );
    }

    #[test]
    fn shared_spanner_matches_fresh_build() {
        // A level-shared spanner must leave the solve unchanged when it
        // matches the node geometry (and be ignored when it does not).
        let grid = Grid::new(BBox::square(20.0), 3);
        let prior = GridPrior::uniform(BBox::square(20.0), 3);
        let eps = 0.5;
        let pts = grid.centers();
        let shared = Arc::new(Spanner::greedy(&pts, 1.2));
        let with_shared = OptimalMechanism::solve_node(
            eps,
            &pts,
            prior.probs(),
            QualityMetric::Euclidean,
            OptOptions {
                constraints: ConstraintSet::Spanner { dilation: 1.2 },
                ..OptOptions::default()
            },
            None,
            Some(&shared),
        )
        .unwrap();
        let fresh = solve_cutgen(
            eps,
            &pts,
            prior.probs(),
            ConstraintSet::Spanner { dilation: 1.2 },
            true,
        );
        for x in 0..pts.len() {
            for z in 0..pts.len() {
                assert_eq!(
                    with_shared.channel().prob(x, z).to_bits(),
                    fresh.channel().prob(x, z).to_bits()
                );
            }
        }
        // Mismatched dilation: falls back to a fresh build, still private.
        let mismatched = OptimalMechanism::solve_node(
            eps,
            &pts,
            prior.probs(),
            QualityMetric::Euclidean,
            OptOptions {
                constraints: ConstraintSet::Spanner { dilation: 1.5 },
                ..OptOptions::default()
            },
            None,
            Some(&shared),
        )
        .unwrap();
        assert!(mismatched.channel().satisfies_geoind(eps, 1e-6));
    }

    #[test]
    fn bad_parameters_rejected() {
        let pts = line_points(3, 1.0);
        assert!(matches!(
            OptimalMechanism::solve(0.0, &pts, &[0.3, 0.3, 0.4], QualityMetric::Euclidean),
            Err(MechanismError::BadParameter(_))
        ));
        assert!(matches!(
            OptimalMechanism::solve(0.5, &pts, &[0.5, 0.5], QualityMetric::Euclidean),
            Err(MechanismError::BadParameter(_))
        ));
        assert!(matches!(
            OptimalMechanism::solve(0.5, &pts[..1], &[1.0], QualityMetric::Euclidean),
            Err(MechanismError::BadParameter(_))
        ));
    }
}
