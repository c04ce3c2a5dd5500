//! The Multi-Step Mechanism (paper Section 4, Algorithm 1).
//!
//! MSM walks a GeoInd-preserving hierarchical index (GIHI) from the virtual
//! root to a leaf. At each level it restricts the prior to the `g²` children
//! of the previously selected cell, solves (or fetches from cache) the
//! optimal mechanism over those `g²` logical locations with that level's
//! budget `ε_i`, and samples the next cell. The leaf-level sample is
//! reported. By sequential composition the whole walk satisfies GeoInd with
//! budget `Σ ε_i = ε`, while every LP is only `g²` locations large — this is
//! the paper's utility/scalability compromise.
//!
//! If the true location falls outside the selected cell at some level
//! (a privacy-mandated event), its logical location for that step is drawn
//! uniformly from the sub-grid (Algorithm 1, lines 9–10).
//!
//! The per-node channels depend only on `(node, ε_i, prior, d_Q)` — never on
//! the query — so they are memoized: a client answering thousands of queries
//! pays each LP once.

use crate::alloc::{AllocationStrategy, BudgetAllocator, LevelBudgets};
use crate::cache::ShardedCache;
use crate::certify::{Certificate, Verdict};
use crate::channel::Channel;
use crate::metrics::QualityMetric;
use crate::opt::{ConstraintSet, OptOptions, OptimalMechanism, SolveStats};
use crate::spanner::Spanner;
use crate::{Mechanism, MechanismError};
use geoind_data::prior::GridPrior;
use geoind_lp::simplex::Basis;
use geoind_rng::Rng;
use geoind_spatial::geom::{BBox, Point};
use geoind_spatial::grid::Grid;
use geoind_spatial::hier::{HierGrid, LevelCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::{Mutex, PoisonError, RwLock};

/// Builder for [`MsmMechanism`].
#[derive(Debug, Clone)]
pub struct MsmBuilder {
    domain: BBox,
    prior: GridPrior,
    eps: Option<f64>,
    g: u32,
    rho: f64,
    metric: QualityMetric,
    strategy: AllocationStrategy,
    opt_options: OptOptions,
    caching: bool,
}

impl MsmBuilder {
    /// Total privacy budget `ε` (required).
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.eps = Some(eps);
        self
    }

    /// Per-level grid granularity `g` (fan-out `g²`). Default 4.
    pub fn granularity(mut self, g: u32) -> Self {
        self.g = g;
        self
    }

    /// Target self-map probability `ρ` for the budget allocator.
    /// Default 0.8 (the paper's default).
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Quality metric `d_Q`. Default Euclidean.
    pub fn metric(mut self, metric: QualityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Budget-allocation strategy. Default `Auto { max_height: 5 }`.
    pub fn strategy(mut self, strategy: AllocationStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Options forwarded to every per-node OPT solve.
    pub fn opt_options(mut self, opts: OptOptions) -> Self {
        self.opt_options = opts;
        self
    }

    /// Enable/disable the per-node channel cache (on by default; the off
    /// switch exists for the `abl-cache` ablation).
    pub fn caching(mut self, on: bool) -> Self {
        self.caching = on;
        self
    }

    /// Finalize.
    ///
    /// # Errors
    /// [`MechanismError::BadParameter`] when ε is missing/non-positive, the
    /// granularity is < 2, ρ is outside (0, 1), or the prior's domain
    /// disagrees with `domain`.
    pub fn build(self) -> Result<MsmMechanism, MechanismError> {
        let eps = self
            .eps
            .ok_or_else(|| MechanismError::BadParameter("epsilon not set".into()))?;
        if eps <= 0.0 {
            return Err(MechanismError::BadParameter(format!(
                "eps must be positive, got {eps}"
            )));
        }
        if self.g < 2 {
            return Err(MechanismError::BadParameter(format!(
                "granularity must be >= 2, got {}",
                self.g
            )));
        }
        if !(self.rho > 0.0 && self.rho < 1.0) {
            return Err(MechanismError::BadParameter(format!(
                "rho must be in (0, 1), got {}",
                self.rho
            )));
        }
        let pd = self.prior.grid().domain();
        if (pd.min.dist(self.domain.min) > 1e-9) || (pd.max.dist(self.domain.max) > 1e-9) {
            return Err(MechanismError::BadParameter(
                "prior domain differs from mechanism domain".into(),
            ));
        }
        let allocator = BudgetAllocator::new(self.domain.side(), self.g, self.rho);
        let budgets = allocator.allocate(eps, self.strategy)?;
        let hier = HierGrid::new(self.domain, self.g, budgets.height());
        Ok(MsmMechanism {
            hier,
            budgets,
            prior: self.prior,
            metric: self.metric,
            eps,
            rho: self.rho,
            opt_options: self.opt_options,
            caching: self.caching,
            cache: ShardedCache::new("msm channel cache"),
            level_stats: Mutex::new(BTreeMap::new()),
            flat_tree: RwLock::new(None),
        })
    }
}

/// A completed MSM descent: the reported point plus whether any channel
/// sampled along the way was admitted via the certify→repair path rather
/// than certifying outright (the serving layer counts repaired service).
#[derive(Debug, Clone, Copy)]
pub struct DescentOutcome {
    /// The reported (sanitized) location.
    pub point: Point,
    /// True when at least one sampled channel carries a `Repaired` verdict.
    pub repaired: bool,
}

/// The whole hierarchy's admission-built alias tables fused into one
/// contiguous structure, so a healthy descent is `h` array walks with no
/// cache fetch, no per-level channel `Arc`, and no child-`Vec` allocation.
///
/// Built by [`MsmMechanism::flatten`] strictly from channels that passed
/// the admission gate (each per-node table is the one
/// [`crate::channel::Channel::with_certificate`] attached post-certify);
/// any cache mutation drops the tree, so it can never serve stale rows.
/// `descend` replicates [`MsmMechanism::try_report_resumable`]'s healthy
/// path draw-for-draw: the same grid geometry decides the input row, the
/// same slot-then-coin alias draws pick the child, so a fixed seed yields
/// bit-identical outputs on both paths (pinned by the determinism suite).
#[derive(Debug)]
pub(crate) struct FlatTree {
    /// Per-level granularity `g`.
    g: usize,
    /// Fan-out `g²` — rows and columns of every per-node table.
    gg: usize,
    height: u32,
    domain: BBox,
    /// `node_base[l]` = number of internal nodes on levels `< l`.
    node_base: Vec<usize>,
    /// Acceptance probability of node `n`, row `r`, slot `i` at
    /// `(n·g² + r)·g² + i`. Split from `alias` (rather than interleaved
    /// as one slot struct) because the coin *accepts* most draws: the
    /// alias category is only read on rejection, so keeping it out of
    /// line halves the walk's hot footprint.
    prob: Vec<f64>,
    /// Alias category at the same index — read only when the acceptance
    /// coin at that slot fails.
    alias: Vec<u32>,
    /// Per-node flag: the admitted channel carries a `Repaired` verdict.
    repaired: Vec<bool>,
    /// Rejection zone of `Rng::gen_u64_below(g²)` — the largest multiple
    /// of `g²`, precomputed so each slot draw skips the modulo that
    /// derives it.
    zone: u64,
    /// `g² - 1` when `g²` is a power of two (reduce by mask, same result
    /// as `% g²`), else `u64::MAX` as the "divide" sentinel.
    gg_mask: u64,
    /// `z / g` and `z % g` for `z ∈ 0..g²` — the child-id arithmetic
    /// without per-level hardware division.
    zdiv: Vec<u32>,
    zmod: Vec<u32>,
    /// `r % g` for every global row/col index up to the leaf granularity.
    mod_g: Vec<u32>,
    /// `grids[l].cell_side()`, hoisted out of the walk.
    cell_side: Vec<f64>,
    /// `grids[l].granularity()`, hoisted out of the walk.
    gran: Vec<usize>,
}

/// Stack bound on hoisted per-level scratch in [`FlatTree::descend`].
/// Unreachable in practice: a height-17 hierarchy would need a leaf grid
/// of g³⁴ cells.
const MAX_FLAT_HEIGHT: usize = 16;

/// Every cached channel came through an admission gate, and admission
/// refuses a channel whose rows cannot back alias tables.
const ADMITTED_HAS_TABLES: &str = "cached channels are admitted, so they carry alias tables";

impl FlatTree {
    /// One fused root-to-leaf walk. Infallible: every internal node's
    /// table was copied in at [`MsmMechanism::flatten`] time.
    ///
    /// Draw-for-draw and bit-for-bit identical to the unfused loop in
    /// [`MsmMechanism::descend_with`]: the geometry below inlines exactly
    /// the float operations of `Grid::extent_of` + `BBox::contains` and
    /// `Grid::cell_of`, and [`Self::draw_index`] replicates
    /// `rng.gen_range(0..g²)` — the walk only *removes* redundant integer
    /// div/mod round-trips (row/col are tracked incrementally instead of
    /// recovered from the cell id each level).
    pub(crate) fn descend<R: Rng + ?Sized>(&self, x: Point, rng: &mut R) -> DescentOutcome {
        let x = clamp_into(self.domain, x);
        let g = self.g;
        let min = self.domain.min;
        let height = self.height as usize;
        // Hoisted per-level geometry: the input row x selects at each
        // level depends only on (x, level), never on the walk state, so
        // the float divisions of `Grid::cell_of` run up front instead of
        // on the serial draw→load→draw chain of the walk itself.
        let mut in_row = [0usize; MAX_FLAT_HEIGHT];
        for (level, slot) in in_row.iter_mut().enumerate().take(height) {
            // `grids[level + 1].cell_of(x)`, keeping row/col instead of
            // packing them into an id and dividing them back out.
            let csn = self.cell_side[level + 1];
            let gn = self.gran[level + 1] as i64;
            let cn = (((x.x - min.x) / csn).floor() as i64).clamp(0, gn - 1) as usize;
            let rn = (((x.y - min.y) / csn).floor() as i64).clamp(0, gn - 1) as usize;
            *slot = self.mod_g[rn] as usize * g + self.mod_g[cn] as usize;
        }
        // Walk state: the current cell id in grids[level] plus its
        // (row, col), maintained incrementally.
        let (mut id, mut row, mut col) = (0usize, 0usize, 0usize);
        let mut repaired = false;
        for level in 0..height {
            let node = self.node_base[level] + id;
            repaired |= self.repaired[node];
            // Same float ops as `grids[level].extent_of(id).contains(x)`.
            let cs = self.cell_side[level];
            let min_x = min.x + col as f64 * cs;
            let min_y = min.y + row as f64 * cs;
            let inside = x.x >= min_x && x.x < min_x + cs && x.y >= min_y && x.y < min_y + cs;
            // Input row: the enclosing child when x is inside this cell,
            // else a uniform row (Algorithm 1, lines 9-10) — the same
            // draw the unfused walk makes.
            let input_idx = if inside {
                in_row[level]
            } else {
                self.draw_index(rng)
            };
            // Fused alias draw: slot uniform, then the acceptance coin.
            let base = (node * self.gg + input_idx) * self.gg;
            let slot = self.draw_index(rng);
            let z = if rng.gen_f64() < self.prob[base + slot] {
                slot
            } else {
                self.alias[base + slot] as usize
            };
            // Child id, exactly as `HierGrid::children(cell)[z]` lays
            // them out (local row-major order):
            // id = (row·g + z/g)·gⁿ + col·g + z%g for the next level's
            // granularity gⁿ — the same integers, via the lookup tables.
            row = row * g + self.zdiv[z] as usize;
            col = col * g + self.zmod[z] as usize;
            id = row * self.gran[level + 1] + col;
        }
        // Same float ops as `grids[height].center_of(id)`.
        let cs = self.cell_side[height];
        DescentOutcome {
            point: Point::new(
                min.x + (col as f64 + 0.5) * cs,
                min.y + (row as f64 + 0.5) * cs,
            ),
            repaired,
        }
    }

    /// `rng.gen_range(0..g²)` with the rejection zone precomputed: the
    /// same accept/reject sequence, the same result, one less division.
    #[inline]
    fn draw_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        loop {
            let v = rng.next_u64();
            if v < self.zone {
                return if self.gg_mask != u64::MAX {
                    (v & self.gg_mask) as usize
                } else {
                    (v % self.gg as u64) as usize
                };
            }
        }
    }
}

/// A failed MSM descent: the typed fault plus the cell the completed
/// levels had already selected.
///
/// `resume.level` levels of the per-level budget (`ε_1..ε_k`) were spent
/// on input-dependent sampling before the fault; a privacy-sound fallback
/// must continue from `resume` using only the remaining level budgets.
/// Faults at the root (`resume == LevelCell::ROOT`) happened before any
/// sampling, so the full budget is still available.
#[derive(Debug)]
pub struct DescentInterrupted {
    /// The cell selected by the levels that completed (`ROOT` when none
    /// did).
    pub resume: LevelCell,
    /// The fault that stopped the descent.
    pub error: MechanismError,
}

/// Result of [`MsmMechanism::audit_flat_tables`]: the alias-table
/// marginals of every cached channel, checked against the certified
/// matrix entries.
#[derive(Debug, Clone)]
pub struct FlatAudit {
    /// Cached channels inspected.
    pub channels: usize,
    /// How many of them carry an admission-built flat table — all of
    /// them, since admission refuses a channel without one.
    pub flattened: usize,
    /// Worst `|reconstructed - certified|` entry across all tables.
    pub worst_error: f64,
    /// Channels whose table exceeds the strict certification tolerance —
    /// a corrupted table serving behind a valid certificate.
    pub failures: Vec<(LevelCell, f64)>,
}

/// The multi-step mechanism over a hierarchical grid index.
#[derive(Debug)]
pub struct MsmMechanism {
    hier: HierGrid,
    budgets: LevelBudgets,
    prior: GridPrior,
    metric: QualityMetric,
    eps: f64,
    rho: f64,
    opt_options: OptOptions,
    caching: bool,
    /// Per-node channel memo: sharded by FNV over the cell key, with
    /// single-flight fills so concurrent misses of the same node run one
    /// LP solve (and one admission gate) between them.
    cache: ShardedCache<LevelCell, Channel>,
    /// The sum of every per-node solve's record, keyed by the level of
    /// the channel it built (`parent.level + 1`): the one store behind
    /// [`Self::level_solve_stats`], [`Self::lp_pivot_count`] and
    /// [`Self::solve_total`].
    level_stats: Mutex<BTreeMap<u32, SolveStats>>,
    /// The fused serving structure, when [`Self::flatten`] has run and no
    /// cache mutation has dropped it since.
    flat_tree: RwLock<Option<Arc<FlatTree>>>,
}

impl MsmMechanism {
    /// Start a builder over `domain` with a (fine-grained) global prior.
    pub fn builder(domain: BBox, prior: GridPrior) -> MsmBuilder {
        MsmBuilder {
            domain,
            prior,
            eps: None,
            g: 4,
            rho: 0.8,
            metric: QualityMetric::Euclidean,
            strategy: AllocationStrategy::default(),
            opt_options: OptOptions::default(),
            caching: true,
        }
    }

    /// Total privacy budget.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Target self-map probability `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Per-level grid granularity `g`.
    pub fn granularity(&self) -> u32 {
        self.hier.granularity()
    }

    /// Index height `h`.
    pub fn height(&self) -> u32 {
        self.hier.height()
    }

    /// Effective leaf granularity `g^h`.
    pub fn effective_granularity(&self) -> u32 {
        self.hier.effective_granularity(self.hier.height())
    }

    /// The per-level budgets chosen by the allocator.
    pub fn budgets(&self) -> &LevelBudgets {
        &self.budgets
    }

    /// The quality metric.
    pub fn metric(&self) -> QualityMetric {
        self.metric
    }

    /// The leaf-level grid (all possible reported locations are its cell
    /// centers).
    pub fn leaf_grid(&self) -> Grid {
        self.hier.level_grid(self.hier.height())
    }

    /// Number of per-node channels currently memoized.
    pub fn cached_channels(&self) -> usize {
        self.cache.len()
    }

    /// Drop all memoized channels (and the fused tree assembled from
    /// them — it must never outlive the rows it was copied from).
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.drop_flat_tree();
    }

    /// Duplicate channel fills suppressed by the cache's single-flight
    /// discipline: each count is a concurrent fetch that would have paid a
    /// redundant LP solve under a plain read/solve/insert cache and was
    /// instead handed the winner's admitted channel.
    pub fn dedup_suppressed(&self) -> u64 {
        self.cache.dedup_suppressed()
    }

    /// The greedy spanner shared by every node solve on one tree level,
    /// built from `donor`'s child geometry. All nodes at a level have
    /// congruent (translated) child grids, so their pairwise distances —
    /// and hence the greedy spanner, an O(n³) construction — agree; the
    /// precompute schedule builds it once per level instead of once per
    /// node. Returns `None` when the configured solve never consults a
    /// spanner (full-set target with cut generation off) or when the
    /// dilation is invalid (the solve itself surfaces the typed error).
    pub(crate) fn level_shared_spanner(&self, donor: LevelCell) -> Option<Arc<Spanner>> {
        let dilation = match self.opt_options.constraints {
            ConstraintSet::Spanner { dilation } => dilation,
            ConstraintSet::Full if self.opt_options.cutgen => crate::opt::SEED_DILATION,
            ConstraintSet::Full => return None,
        };
        if !(dilation.is_finite() && dilation >= 1.0) {
            return None;
        }
        let centers: Vec<Point> = self
            .hier
            .children(donor)
            .iter()
            .map(|c| self.hier.center(*c))
            .collect();
        if centers.len() < 2 {
            return None;
        }
        Some(Arc::new(Spanner::greedy(&centers, dilation)))
    }

    /// The global prior's mass in each child cell of `parent`, in child
    /// order; all ones when the node holds no mass.
    pub(crate) fn child_masses(&self, parent: LevelCell) -> Vec<f64> {
        let extents: Vec<BBox> = self
            .hier
            .children(parent)
            .iter()
            .map(|c| self.hier.extent(*c))
            .collect();
        let masses = self.prior.masses(&extents);
        if masses.iter().sum::<f64>() <= 0.0 {
            vec![1.0; masses.len()]
        } else {
            masses
        }
    }

    pub(crate) fn children_of(&self, parent: LevelCell) -> Vec<LevelCell> {
        self.hier.children(parent)
    }

    pub(crate) fn center_of(&self, cell: LevelCell) -> geoind_spatial::geom::Point {
        self.hier.center(cell)
    }

    pub(crate) fn cache_snapshot(&self) -> Vec<(LevelCell, Arc<Channel>)> {
        let mut v = self.cache.entries();
        v.sort_by_key(|(c, _)| (c.level, c.id));
        v
    }

    pub(crate) fn cache_insert(&self, cell: LevelCell, channel: Arc<Channel>) {
        self.cache.insert(cell, channel);
        // The fused tree is a copy of the cached tables; any replacement
        // (e.g. an offline-bundle import) invalidates it.
        self.drop_flat_tree();
    }

    pub(crate) fn cache_get(&self, cell: LevelCell) -> Option<Arc<Channel>> {
        self.cache.get(&cell)
    }

    /// The optimal channel over the children of `parent` (level
    /// `parent.level + 1`), memoized when caching is enabled. Panicking
    /// convenience wrapper around [`Self::try_channel_for`].
    fn channel_for(&self, parent: LevelCell) -> Arc<Channel> {
        self.try_channel_for(parent).expect(
            "per-node channel construction failed; use try_report / \
                     ResilientMechanism for graceful degradation",
        )
    }

    /// The optimal channel over the children of `parent`, memoized when
    /// caching is enabled.
    ///
    /// # Errors
    /// [`MechanismError::LockPoisoned`] when the channel cache's lock was
    /// poisoned by a panic on another thread (the memoized channels can no
    /// longer be trusted); any [`MechanismError`] from the per-node OPT
    /// solve.
    pub fn try_channel_for(&self, parent: LevelCell) -> Result<Arc<Channel>, MechanismError> {
        self.fill(parent, None, None).map(|(channel, _)| channel)
    }

    /// The one per-node fetch: the channel over the children of `parent`
    /// from the single-flight cache, or from a fresh gated solve of the
    /// per-node OPT — `g²` child-cell centers, the global prior restricted
    /// to the node and renormalized (uniform when the node has zero mass),
    /// and the level budget. The solve warm-starts from `warm`, a
    /// sibling's exit basis, and uses `shared` as its greedy spanner when
    /// it fits. Warm starting changes pivot counts, never the admitted
    /// channel: the engine falls back to a cold start on any mismatch and
    /// both paths exit at the same (deterministic) optimum, behind the
    /// same admission gate. Returns the solve's exit basis, for the
    /// precompute to seed later siblings, when this call ran the solve
    /// (a cache hit or a racing filler leaves it `None`).
    ///
    /// With caching on, the `cache.lock.poisoned` failpoint is checked
    /// exactly once per call; with it off (the ablation path) every call
    /// solves afresh and touches no shared cache state.
    pub(crate) fn fill(
        &self,
        parent: LevelCell,
        warm: Option<&Basis>,
        shared: Option<&Arc<Spanner>>,
    ) -> Result<(Arc<Channel>, Option<Basis>), MechanismError> {
        let mut basis = None;
        let mut solve = || -> Result<Channel, MechanismError> {
            let children = self.hier.children(parent);
            let centers: Vec<Point> = children.iter().map(|c| self.hier.center(*c)).collect();
            let level = parent.level + 1;
            let opt = OptimalMechanism::solve_node(
                self.budgets.level(level),
                &centers,
                &self.child_masses(parent),
                self.metric,
                self.opt_options,
                warm,
                shared,
            )?;
            *self
                .level_stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(level)
                .or_default() += opt.stats();
            let (channel, exit) = opt.into_channel_and_basis();
            basis = Some(exit);
            Ok(channel)
        };
        let channel = if self.caching {
            self.cache.get_or_fill(parent, solve)?
        } else {
            Arc::new(solve()?)
        };
        Ok((channel, basis))
    }

    /// The sum of every per-node solve's record so far: its `solves`
    /// count, and the worst LP residuals over those solves (both 0, with
    /// `solves` 0, before any solve ran).
    pub fn solve_total(&self) -> SolveStats {
        self.level_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .copied()
            .sum()
    }

    /// Total simplex pivots performed across all per-node LP solves so
    /// far. The benchmark harness compares this between cold and
    /// warm-started precompute runs; warm starts change this number,
    /// never the admitted channels. Only kept pivots count: an abandoned
    /// warm start's pivots are its `effort.discarded_pivots`.
    pub fn lp_pivot_count(&self) -> u64 {
        self.solve_total().effort.pivots
    }

    /// Per-level solve records, sorted by level: each the `+=` sum of the
    /// records of the solves that built a channel of that level
    /// (`parent.level + 1`). Cache hits never count.
    pub fn level_solve_stats(&self) -> Vec<(u32, SolveStats)> {
        self.level_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&l, &s)| (l, s))
            .collect()
    }

    /// The per-solve options this mechanism forwards to every per-node
    /// OPT solve (constraint set and cut-generation switch).
    pub fn opt_options(&self) -> &OptOptions {
        &self.opt_options
    }

    /// Re-certify every memoized channel against its level budget at the
    /// strict (post-repair) tolerance — the tolerance `certify::admit`
    /// held it to, over the full pair set, whatever the constraint set it
    /// was solved under. No repairs happen here.
    /// Returns one `(parent cell, certificate)` per cached channel; a
    /// `Quarantined` verdict means the cached channel must not be served —
    /// `geoind doctor` exits nonzero on any such entry.
    pub fn recertify_cache(&self) -> Vec<(LevelCell, Certificate)> {
        self.cache_snapshot()
            .into_iter()
            .map(|(cell, ch)| {
                let eps_i = self.budgets.level(cell.level + 1);
                let tol = crate::certify::strict_tolerance(ch.num_inputs(), ch.num_outputs());
                (cell, crate::certify::certify(&ch, eps_i, tol))
            })
            .collect()
    }

    /// Re-derive every cached channel's alias-table row marginals (the
    /// distribution the serving path actually samples from) and compare
    /// them against the certified matrix at the strict tolerance.
    ///
    /// Certification vouches for the matrix `probs`; the flattened tables
    /// are a *derived* artifact built at admission. If the two ever
    /// disagree — a corrupted table, a stale rebuild — the channel would
    /// serve a distribution its certificate never checked. This audit
    /// closes that gap: `geoind doctor` runs it and exits nonzero on any
    /// entry in [`FlatAudit::failures`].
    pub fn audit_flat_tables(&self) -> FlatAudit {
        let mut audit = FlatAudit {
            channels: 0,
            flattened: 0,
            worst_error: 0.0,
            failures: Vec::new(),
        };
        for (cell, ch) in self.cache_snapshot() {
            audit.channels += 1;
            let err = ch.flat_marginal_error().expect(ADMITTED_HAS_TABLES);
            audit.flattened += 1;
            audit.worst_error = audit.worst_error.max(err);
            let tol = crate::certify::strict_tolerance(ch.num_inputs(), ch.num_outputs());
            if err > tol {
                audit.failures.push((cell, err));
            }
        }
        audit
    }

    /// Fallible form of [`Mechanism::report`]: the full hierarchical
    /// descent, surfacing any per-node construction or cache failure as a
    /// typed error instead of panicking.
    ///
    /// # Errors
    /// Any [`MechanismError`] raised while fetching or building a
    /// per-level channel.
    pub fn try_report<R: Rng + ?Sized>(
        &self,
        x: Point,
        rng: &mut R,
    ) -> Result<Point, MechanismError> {
        self.try_report_resumable(x, rng)
            .map(|o| o.point)
            .map_err(|i| i.error)
    }

    /// Like [`Self::try_report`], but a failure also carries *where the
    /// walk stopped*, so a fallback can resume the descent from the cell
    /// already selected instead of restarting — restarting would spend
    /// fresh budget on an input whose completed levels already consumed
    /// `ε_1..ε_k`. [`crate::ResilientMechanism`] builds its degradation
    /// ladder on this.
    ///
    /// A level's channel is fetched *before* any of that level's
    /// randomness is drawn, so on failure the levels up to
    /// `resume.level` are exactly the levels whose budget was spent.
    ///
    /// # Errors
    /// [`DescentInterrupted`] wrapping any [`MechanismError`] raised
    /// while fetching or building a per-level channel.
    pub fn try_report_resumable<R: Rng + ?Sized>(
        &self,
        x: Point,
        rng: &mut R,
    ) -> Result<DescentOutcome, DescentInterrupted> {
        {
            // Fused fast path: descend while *holding* the read guard —
            // the walk touches no lock and no cache, so this only makes a
            // concurrent `flatten`/`clear_cache` wait out one descent,
            // and it spares every request an `Arc` clone + drop.
            let guard = self
                .flat_tree
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(tree) = guard.as_deref() {
                return Ok(tree.descend(x, rng));
            }
        }
        // Unfused path solves/caches channels, whose admission drops the
        // tree (write lock) — the guard above must already be released.
        self.descend_with(None, x, rng)
    }

    /// [`Self::try_report_resumable`] with the fused-tree lookup hoisted
    /// out, so batch serving resolves the tree once per batch instead of
    /// once per request.
    pub(crate) fn descend_with<R: Rng + ?Sized>(
        &self,
        tree: Option<&FlatTree>,
        x: Point,
        rng: &mut R,
    ) -> Result<DescentOutcome, DescentInterrupted> {
        if let Some(tree) = tree {
            // Fused fast path: bit-identical to the loop below on a
            // healthy descent, and a flattened hierarchy has every
            // channel already admitted, so no fault can interrupt it.
            return Ok(tree.descend(x, rng));
        }
        let x = clamp_into(self.hier.domain(), x);
        let mut current = LevelCell::ROOT;
        let mut repaired = false;
        for _level in 1..=self.hier.height() {
            let children = self.hier.children(current);
            let channel = match self.try_channel_for(current) {
                Ok(c) => c,
                Err(error) => {
                    return Err(DescentInterrupted {
                        resume: current,
                        error,
                    })
                }
            };
            repaired |= channel
                .certificate()
                .is_some_and(|c| c.verdict == Verdict::Repaired);
            let ext = self.hier.extent(current);
            let input_idx = if ext.contains(x) {
                self.hier
                    .local_index(self.hier.enclosing_cell(x, current.level + 1))
            } else {
                rng.gen_range(0..children.len())
            };
            let z = channel.sample(input_idx, rng);
            current = children[z];
        }
        Ok(DescentOutcome {
            point: self.hier.center(current),
            repaired,
        })
    }

    /// Flatten every internal node's admission-built alias table into one
    /// fused `FlatTree` and switch serving onto it. Solves (through the
    /// regular gated, cached path) any node not yet memoized, so this
    /// doubles as a full precompute; tables are only ever copied from
    /// channels carrying a certificate. Returns the number of internal
    /// nodes fused.
    ///
    /// # Errors
    /// Any [`MechanismError`] from a per-node solve, or
    /// [`MechanismError::BadParameter`] for a hierarchy taller than the
    /// fused walk supports (16 levels) — serving then simply stays on the
    /// unfused per-level path.
    pub fn flatten(&self) -> Result<usize, MechanismError> {
        let g = self.hier.granularity() as usize;
        let gg = g * g;
        let height = self.hier.height();
        let grids: Vec<Grid> = (0..=height).map(|l| self.hier.level_grid(l)).collect();
        let mut node_base = Vec::with_capacity(height as usize);
        let mut total = 0usize;
        for level in 0..height {
            node_base.push(total);
            total += grids[level as usize].num_cells();
        }
        if height as usize > MAX_FLAT_HEIGHT {
            return Err(MechanismError::BadParameter(format!(
                "cannot flatten a height-{height} hierarchy (max {MAX_FLAT_HEIGHT})"
            )));
        }
        let mut prob = Vec::with_capacity(total * gg * gg);
        let mut alias = Vec::with_capacity(total * gg * gg);
        let mut repaired = Vec::with_capacity(total);
        for level in 0..height {
            for id in 0..grids[level as usize].num_cells() {
                let cell = LevelCell { level, id };
                let channel = self.try_channel_for(cell)?;
                let flat = channel.flat().expect(ADMITTED_HAS_TABLES);
                if flat.rows() != gg || flat.outputs() != gg {
                    return Err(MechanismError::BadParameter(format!(
                        "channel for level-{level} node {id} is {}x{}, expected {gg}x{gg}",
                        flat.rows(),
                        flat.outputs()
                    )));
                }
                repaired.push(
                    channel
                        .certificate()
                        .is_some_and(|c| c.verdict == Verdict::Repaired),
                );
                for row in 0..gg {
                    let (p, a) = flat.row_slots(row);
                    prob.extend_from_slice(p);
                    alias.extend_from_slice(a);
                }
            }
        }
        let gg64 = gg as u64;
        let leaf_gran = grids[height as usize].granularity() as usize;
        let tree = FlatTree {
            g,
            gg,
            height,
            domain: self.hier.domain(),
            node_base,
            prob,
            alias,
            repaired,
            zone: u64::MAX - (u64::MAX % gg64),
            gg_mask: if gg64.is_power_of_two() {
                gg64 - 1
            } else {
                u64::MAX
            },
            zdiv: (0..gg as u32).map(|z| z / g as u32).collect(),
            zmod: (0..gg as u32).map(|z| z % g as u32).collect(),
            mod_g: (0..leaf_gran as u32).map(|r| r % g as u32).collect(),
            cell_side: grids.iter().map(Grid::cell_side).collect(),
            gran: grids.iter().map(|gr| gr.granularity() as usize).collect(),
        };
        *self
            .flat_tree
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(tree));
        Ok(total)
    }

    /// True when a fused tree is installed and serving the fast path.
    pub fn is_flattened(&self) -> bool {
        self.flat_tree
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// The installed fused tree, if any (an `Arc` so a batch can hold it
    /// across draws while a concurrent cache mutation swaps it out).
    pub(crate) fn flat_tree(&self) -> Option<Arc<FlatTree>> {
        self.flat_tree
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn drop_flat_tree(&self) {
        *self
            .flat_tree
            .write()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Batched [`Self::try_report`]: sanitize every point in `xs` in
    /// order, drawing from `rng` exactly as the equivalent sequence of
    /// single calls would — a batch of size 1 is bit-identical to one
    /// `try_report` (pinned by the determinism suite). The fused tree (or
    /// its absence) is resolved once for the whole batch, which is where
    /// the per-request lock and bounds overhead goes.
    ///
    /// # Errors
    /// The first per-node fault, if any; points before it were sampled
    /// but are not returned. Degradation-aware callers should use
    /// [`crate::ResilientMechanism::report_many`] instead.
    pub fn report_many<R: Rng + ?Sized>(
        &self,
        xs: &[Point],
        rng: &mut R,
    ) -> Result<Vec<Point>, MechanismError> {
        let tree = self.flat_tree();
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            out.push(
                self.descend_with(tree.as_deref(), x, rng)
                    .map(|o| o.point)
                    .map_err(|i| i.error)?,
            );
        }
        Ok(out)
    }

    /// The exact distribution over leaf cells produced for input `x`
    /// (including the uniform-resample rule for out-of-cell inputs).
    /// Exponential in the height — intended for tests and small analyses.
    pub fn exact_output_distribution(&self, x: Point) -> Vec<f64> {
        let x = clamp_into(self.hier.domain(), x);
        let leaf = self.leaf_grid();
        let mut out = vec![0.0; leaf.num_cells()];
        self.exact_rec(LevelCell::ROOT, x, 1.0, &mut out);
        out
    }

    fn exact_rec(&self, cell: LevelCell, x: Point, p: f64, out: &mut [f64]) {
        if p == 0.0 {
            return;
        }
        if cell.level == self.hier.height() {
            out[cell.id] += p;
            return;
        }
        let children = self.hier.children(cell);
        let channel = self.channel_for(cell);
        let gg = children.len();
        // Input row: the enclosing child when x is inside this cell,
        // otherwise the uniform mixture of all rows (lines 9-10).
        let ext = self.hier.extent(cell);
        let row: Vec<f64> = if ext.contains(x) || cell.level == 0 {
            let child = self.hier.enclosing_cell(x, cell.level + 1);
            channel.row(self.hier.local_index(child)).to_vec()
        } else {
            let mut mix = vec![0.0; gg];
            for u in 0..gg {
                for (z, m) in mix.iter_mut().enumerate() {
                    *m += channel.prob(u, z) / gg as f64;
                }
            }
            mix
        };
        for (zi, &pz) in row.iter().enumerate() {
            self.exact_rec(children[zi], x, p * pz, out);
        }
    }

    /// A *provable* upper bound on `ln(P(z|x)/P(z|x′))` for any output `z`,
    /// by per-level composition: level 1 uses the exact snapped distance
    /// (the root encloses everything); deeper levels use the diameter of a
    /// sub-grid's center set, which covers both in-cell and uniform-resample
    /// cases.
    pub fn composition_bound(&self, x: Point, xp: Point) -> f64 {
        let x = clamp_into(self.hier.domain(), x);
        let xp = clamp_into(self.hier.domain(), xp);
        let g = self.hier.granularity() as f64;
        let side = self.hier.domain().side();
        let l1 = self.hier.level_grid(1);
        let mut bound = self.budgets.level(1) * l1.snap(x).dist(l1.snap(xp));
        for level in 2..=self.hier.height() {
            // Sub-grid center diameter: (g-1)/g * parent side * sqrt(2).
            let parent_side = side / g.powi(level as i32 - 1);
            let diam = (g - 1.0) / g * parent_side * std::f64::consts::SQRT_2;
            bound += self.budgets.level(level) * diam;
        }
        bound
    }
}

/// Clamp into the half-open box so the enclosing-cell lookup of every
/// level is total.
pub(crate) fn clamp_into(domain: BBox, p: Point) -> Point {
    let q = domain.clamp(p);
    Point::new(q.x.min(domain.max.x - 1e-12), q.y.min(domain.max.y - 1e-12))
}

impl Mechanism for MsmMechanism {
    fn report<R: Rng + ?Sized>(&self, x: Point, rng: &mut R) -> Point {
        self.try_report(x, rng).expect(
            "MSM report failed; use try_report / ResilientMechanism \
                     for graceful degradation",
        )
    }

    fn name(&self) -> String {
        format!(
            "MSM(eps={}, g={}, h={}, rho={})",
            self.eps,
            self.granularity(),
            self.height(),
            self.rho
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_data::synth::SyntheticCity;
    use geoind_rng::SeededRng;

    fn tiny_msm(eps: f64) -> MsmMechanism {
        let domain = BBox::square(8.0);
        let prior = GridPrior::uniform(domain, 8);
        MsmMechanism::builder(domain, prior)
            .epsilon(eps)
            .granularity(2)
            .rho(0.7)
            .strategy(AllocationStrategy::FixedHeight(2))
            .build()
            .unwrap()
    }

    #[test]
    fn flat_table_audit_catches_a_corrupted_table_behind_a_valid_certificate() {
        use crate::flat::FlatChannel;
        let msm = tiny_msm(0.8);
        msm.try_channel_for(LevelCell::ROOT).expect("warm cache");
        let healthy = msm.audit_flat_tables();
        assert!(healthy.channels >= 1 && healthy.flattened >= 1);
        assert!(
            healthy.failures.is_empty() && healthy.worst_error <= 1e-9,
            "honest tables flagged: {healthy:?}"
        );
        // Swap in a flat table built from the wrong distribution (all mass
        // on output 0) behind the untouched matrix + certificate.
        let (cell, ch) = msm
            .cache_snapshot()
            .into_iter()
            .next()
            .expect("cached channel");
        let (n, m) = (ch.num_inputs(), ch.num_outputs());
        let mut wrong = vec![0.0; n * m];
        for r in 0..n {
            wrong[r * m] = 1.0;
        }
        let tampered = (*ch)
            .clone()
            .with_flat_override(FlatChannel::build(&wrong, n, m).expect("valid rows"));
        msm.cache_insert(cell, Arc::new(tampered));
        // Re-certification still passes — the certificate vouches for the
        // matrix, which is untouched. Only the marginal audit can see it.
        assert!(msm.recertify_cache().iter().all(|(_, c)| c.passes()));
        let audit = msm.audit_flat_tables();
        assert!(
            audit.failures.len() == 1 && audit.failures[0].0 == cell,
            "corrupted table not flagged: {audit:?}"
        );
        assert!(audit.worst_error > 0.05, "error too small: {audit:?}");
    }

    #[test]
    fn every_admitted_channel_carries_alias_tables() {
        // Both admission paths — the solver gate and the bundle import —
        // leave no channel without tables.
        let solved = tiny_msm(0.8);
        let nodes = solved.precompute(usize::MAX).expect("precompute");
        let audit = solved.audit_flat_tables();
        assert_eq!(audit.channels, nodes);
        assert_eq!(audit.flattened, audit.channels);
        let mut bundle = Vec::new();
        solved.export_cache(&mut bundle).expect("export");
        let imported = tiny_msm(0.8);
        let report = imported
            .import_cache(&mut bundle.as_slice())
            .expect("import");
        assert_eq!((report.loaded, report.quarantined.len()), (nodes, 0));
        let audit = imported.audit_flat_tables();
        assert_eq!(audit.channels, nodes);
        assert_eq!(audit.flattened, audit.channels);
    }

    #[test]
    fn flatten_installs_fused_tree_with_identical_bits() {
        // The fused flattened walk must consume the same randomness and
        // return the same leaf as the per-level cache path, draw for draw.
        let unfused = tiny_msm(0.8);
        let fused = tiny_msm(0.8);
        let nodes = fused.flatten().expect("flatten");
        assert_eq!(nodes, 5, "1 root + 4 level-1 nodes");
        assert!(fused.is_flattened());
        assert!(!unfused.is_flattened());
        let mut rng_u = SeededRng::from_seed(0xF05E);
        let mut rng_f = SeededRng::from_seed(0xF05E);
        for i in 0..500 {
            let x = Point::new((i % 11) as f64 * 0.73, (i % 7) as f64 + 0.6);
            let a = unfused.report(x, &mut rng_u);
            let b = fused.report(x, &mut rng_f);
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "request {i}");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "request {i}");
        }
    }

    #[test]
    fn report_many_matches_sequential_reports() {
        let msm = tiny_msm(0.9);
        msm.flatten().expect("flatten");
        let xs: Vec<Point> = (0..64)
            .map(|i| Point::new((i % 8) as f64 + 0.2, (i % 5) as f64 + 0.7))
            .collect();
        let mut rng_batch = SeededRng::from_seed(0xBA7C);
        let batch = msm.report_many(&xs, &mut rng_batch).expect("batch");
        let mut rng_seq = SeededRng::from_seed(0xBA7C);
        for (i, &x) in xs.iter().enumerate() {
            let z = msm.report(x, &mut rng_seq);
            assert_eq!(z.x.to_bits(), batch[i].x.to_bits(), "request {i}");
            assert_eq!(z.y.to_bits(), batch[i].y.to_bits(), "request {i}");
        }
    }

    #[test]
    fn cache_invalidation_drops_fused_tree() {
        // The fused tree is a projection of the admitted channels: any
        // cache mutation (clear, or an offline import replacing entries)
        // must drop it so it can never serve stale tables.
        let msm = tiny_msm(0.8);
        msm.flatten().expect("flatten");
        assert!(msm.is_flattened());
        let mut blob = Vec::new();
        msm.export_cache(&mut blob).expect("export");
        msm.clear_cache();
        assert!(!msm.is_flattened(), "clear_cache must drop the tree");
        msm.flatten().expect("re-flatten");
        assert!(msm.is_flattened());
        msm.import_cache(&mut blob.as_slice()).expect("import");
        assert!(!msm.is_flattened(), "import must drop the tree");
        // Still serves (unfused), and flattening works again.
        let mut rng = SeededRng::from_seed(3);
        let z = msm.report(Point::new(4.2, 4.2), &mut rng);
        assert!(msm.leaf_grid().domain().contains_closed(z));
        msm.flatten().expect("flatten after import");
        assert!(msm.is_flattened());
    }

    #[test]
    fn reports_land_on_leaf_centers() {
        let msm = tiny_msm(0.8);
        let leaf = msm.leaf_grid();
        let centers = leaf.centers();
        let mut rng = SeededRng::from_seed(1);
        for i in 0..200 {
            let x = Point::new((i % 8) as f64 + 0.1, (i % 7) as f64 + 0.3);
            let z = msm.report(x, &mut rng);
            assert!(
                centers.iter().any(|c| c.dist(z) < 1e-12),
                "{z:?} not a leaf center"
            );
        }
    }

    #[test]
    fn budget_sums_to_epsilon() {
        let msm = tiny_msm(0.6);
        assert!((msm.budgets().total() - 0.6).abs() < 1e-9);
        assert_eq!(msm.height(), 2);
        assert_eq!(msm.effective_granularity(), 4);
    }

    #[test]
    fn cache_fills_and_clears() {
        let msm = tiny_msm(0.8);
        assert_eq!(msm.cached_channels(), 0);
        let mut rng = SeededRng::from_seed(2);
        for _ in 0..50 {
            msm.report(Point::new(4.0, 4.0), &mut rng);
        }
        // Root channel plus at least one level-1 node.
        assert!(msm.cached_channels() >= 2);
        // Bounded by the number of internal nodes (1 + g²).
        assert!(msm.cached_channels() <= 5);
        msm.clear_cache();
        assert_eq!(msm.cached_channels(), 0);
    }

    #[test]
    fn exact_distribution_matches_sampling() {
        let msm = tiny_msm(1.0);
        let x = Point::new(1.3, 6.2);
        let exact = msm.exact_output_distribution(x);
        assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let leaf = msm.leaf_grid();
        let mut counts = vec![0usize; leaf.num_cells()];
        let mut rng = SeededRng::from_seed(3);
        let n = 200_000;
        for _ in 0..n {
            counts[leaf.cell_of(msm.report(x, &mut rng))] += 1;
        }
        for (cell, &p) in exact.iter().enumerate() {
            let f = counts[cell] as f64 / n as f64;
            assert!(
                (f - p).abs() < 0.01,
                "cell {cell}: empirical {f} vs exact {p}"
            );
        }
    }

    #[test]
    fn composition_bound_holds_on_exact_distributions() {
        // The end-to-end channel must satisfy the per-level composition
        // bound for every (x, x', z) triple — this is the mechanism's
        // privacy guarantee made checkable.
        let msm = tiny_msm(0.9);
        let leaf = msm.leaf_grid();
        let points: Vec<Point> = leaf.centers();
        let dists: Vec<Vec<f64>> = points
            .iter()
            .map(|x| msm.exact_output_distribution(*x))
            .collect();
        for (i, x) in points.iter().enumerate() {
            for (j, xp) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                let bound = msm.composition_bound(*x, *xp).exp();
                for z in 0..leaf.num_cells() {
                    let (a, b) = (dists[i][z], dists[j][z]);
                    if b > 1e-12 {
                        assert!(
                            a / b <= bound * (1.0 + 1e-6),
                            "triple ({i},{j},{z}): ratio {} > bound {bound}",
                            a / b
                        );
                    } else {
                        assert!(a < 1e-12, "support mismatch breaks GeoInd");
                    }
                }
            }
        }
    }

    #[test]
    fn more_budget_less_loss() {
        let domain = BBox::square(20.0);
        let data = SyntheticCity::austin_like().generate_with_size(20_000, 2_000);
        let prior = GridPrior::from_dataset(&data, 16);
        let mut rng = SeededRng::from_seed(11);
        let mut prev = f64::INFINITY;
        for eps in [0.1, 0.5, 1.5] {
            let msm = MsmMechanism::builder(domain, prior.clone())
                .epsilon(eps)
                .granularity(4)
                .build()
                .unwrap();
            let mut loss = 0.0;
            let n = 400;
            for k in 0..n {
                let x = data.checkins()[k * 7 % data.len()].location;
                loss += msm.report(x, &mut rng).dist(x);
            }
            loss /= n as f64;
            assert!(
                loss < prev * 1.15,
                "loss {loss} not (roughly) decreasing at eps={eps}"
            );
            prev = loss;
        }
    }

    #[test]
    fn missing_epsilon_rejected() {
        let domain = BBox::square(8.0);
        let prior = GridPrior::uniform(domain, 4);
        assert!(matches!(
            MsmMechanism::builder(domain, prior).build(),
            Err(MechanismError::BadParameter(_))
        ));
    }

    #[test]
    fn mismatched_domain_rejected() {
        let prior = GridPrior::uniform(BBox::square(10.0), 4);
        assert!(matches!(
            MsmMechanism::builder(BBox::square(8.0), prior)
                .epsilon(0.5)
                .build(),
            Err(MechanismError::BadParameter(_))
        ));
    }

    #[test]
    fn warm_started_channel_matches_cold_within_strict_tolerance() {
        // The precompute schedule seeds each sibling solve with the exit
        // basis of the solved sibling whose prior is nearest its own.
        // Warm starting may change the pivot path, but the admitted
        // channel must agree with a cold solve of the same node within
        // certify's strict tolerance, and must carry a passing
        // certificate — warm starts save work, never guarantees.
        let domain = BBox::square(8.0);
        let pts = (0..40).map(|i| {
            Point::new(
                0.3 + 7.4 * ((i * 13 % 40) as f64 / 40.0),
                0.3 + 7.4 * ((i * 29 % 40) as f64 / 40.0),
            )
        });
        let prior = GridPrior::from_points(domain, 8, pts);
        // Caching off: every fetch below runs its own solve.
        let msm = MsmMechanism::builder(domain, prior)
            .epsilon(0.8)
            .granularity(2)
            .strategy(AllocationStrategy::FixedHeight(3))
            .caching(false)
            .build()
            .unwrap();
        // Siblings live one level down from the root; every one restarts
        // here from the level donor, the lowest cell index, which the
        // precompute schedule offers every sibling as a candidate.
        let level1 = msm.children_of(LevelCell::ROOT);
        assert!(level1.len() >= 2, "need siblings at level 1");
        let donor = level1[0];
        let (_, donor_basis) = msm.fill(donor, None, None).unwrap();
        let donor_basis = donor_basis.expect("an uncached fetch solves");
        for &sibling in &level1[1..] {
            let (cold, _) = msm.fill(sibling, None, None).unwrap();
            let (warm, _) = msm.fill(sibling, Some(&donor_basis), None).unwrap();
            let cert = warm.certificate().expect("admitted channels are certified");
            assert!(
                cert.passes(),
                "warm-started channel failed admission: {cert:?}"
            );
            let tol = crate::certify::strict_tolerance(cold.num_inputs(), cold.num_outputs());
            for x in 0..cold.num_inputs() {
                for z in 0..cold.num_outputs() {
                    let (c, w) = (cold.prob(x, z), warm.prob(x, z));
                    assert!(
                        (c - w).abs() <= tol,
                        "warm vs cold diverged at ({x},{z}): {c} vs {w} (tol {tol:.3e})"
                    );
                }
            }
        }
    }

    #[test]
    fn caching_off_recomputes_but_same_distribution() {
        let domain = BBox::square(8.0);
        let prior = GridPrior::uniform(domain, 8);
        let build = |caching: bool| {
            MsmMechanism::builder(domain, prior.clone())
                .epsilon(0.8)
                .granularity(2)
                .strategy(AllocationStrategy::FixedHeight(2))
                .caching(caching)
                .build()
                .unwrap()
        };
        let with = build(true);
        let without = build(false);
        let x = Point::new(5.5, 2.5);
        let a = with.exact_output_distribution(x);
        let b = without.exact_output_distribution(x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
        assert_eq!(without.cached_channels(), 0);
    }
}
