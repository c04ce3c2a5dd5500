//! MSM over arbitrary hierarchical space partitions — the paper's
//! Section-8 future work, generalized.
//!
//! [`PartitionMsm`] walks any [`SpacePartition`] (weighted-median k-d
//! partition, adaptive quadtree, …) exactly like Algorithm 1 walks the
//! uniform grid: per-node OPT over the children's box centers, children
//! weighted by their stored prior mass, one budget slice per level. The
//! composability argument carries over verbatim because children tile their
//! parent without overlap; paths that end at a shallow leaf simply consume
//! *less* than the total budget.
//!
//! Budgets are supplied explicitly (one per level up to the partition's
//! maximum depth): the Section-5 cost model assumes square cells of equal
//! size and does not transfer to irregular boxes, so callers typically
//! reuse a grid allocation with `g = √fanout` or a uniform split.

use crate::cache::ShardedCache;
use crate::channel::Channel;
use crate::metrics::QualityMetric;
use crate::opt::OptimalMechanism;
use crate::{Mechanism, MechanismError};
use geoind_rng::Rng;
use geoind_spatial::geom::Point;
use geoind_spatial::kdpart::KdPartition;
use geoind_spatial::partition::SpacePartition;
use geoind_spatial::quadtree::AdaptiveQuadtree;
use std::sync::Arc;

/// Multi-step mechanism over any [`SpacePartition`].
#[derive(Debug)]
pub struct PartitionMsm<P: SpacePartition> {
    partition: P,
    budgets: Vec<f64>,
    metric: QualityMetric,
    /// Per-node channel memo, sharded with single-flight fills (shared
    /// discipline with [`crate::msm::MsmMechanism`]'s cache).
    cache: ShardedCache<usize, Channel>,
}

/// MSM over the weighted-median k-d partition.
pub type KdMsmMechanism = PartitionMsm<KdPartition>;

/// MSM over the adaptive quadtree.
pub type QuadMsmMechanism = PartitionMsm<AdaptiveQuadtree>;

impl<P: SpacePartition> PartitionMsm<P> {
    /// Create the mechanism.
    ///
    /// `budgets[i]` funds the walk from a level-`i` node to one of its
    /// children; its length must equal the partition's maximum depth.
    ///
    /// # Errors
    /// [`MechanismError::BadParameter`] when the budget count mismatches the
    /// depth or any budget is non-positive.
    pub fn new(
        partition: P,
        budgets: Vec<f64>,
        metric: QualityMetric,
    ) -> Result<Self, MechanismError> {
        if budgets.len() != partition.max_depth() as usize {
            return Err(MechanismError::BadParameter(format!(
                "need {} level budgets, got {}",
                partition.max_depth(),
                budgets.len()
            )));
        }
        if budgets.iter().any(|&b| b <= 0.0 || !b.is_finite()) {
            return Err(MechanismError::BadParameter(
                "budgets must be positive".into(),
            ));
        }
        Ok(Self {
            partition,
            budgets,
            metric,
            cache: ShardedCache::new("partition channel cache"),
        })
    }

    /// Total privacy budget `Σ ε_i` (an upper bound on what any single walk
    /// consumes; shallow-leaf paths consume less).
    pub fn epsilon(&self) -> f64 {
        self.budgets.iter().sum()
    }

    /// Per-level budgets.
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// The underlying partition.
    pub fn partition(&self) -> &P {
        &self.partition
    }

    /// Number of per-node channels currently memoized.
    pub fn cached_channels(&self) -> usize {
        self.cache.len()
    }

    /// Duplicate channel fills suppressed by the cache's single-flight
    /// discipline (see [`crate::msm::MsmMechanism::dedup_suppressed`]).
    pub fn dedup_suppressed(&self) -> u64 {
        self.cache.dedup_suppressed()
    }

    /// Memoized per-node channel over the children of `node`: one OPT
    /// solve over the children's box centers per cache miss.
    ///
    /// # Errors
    /// [`MechanismError::LockPoisoned`] on a poisoned cache lock; any
    /// [`MechanismError`] from the per-node OPT solve.
    fn try_channel_for(&self, node: usize) -> Result<Arc<Channel>, MechanismError> {
        self.cache.get_or_fill(node, || {
            let part = &self.partition;
            let children = part.children(node);
            let centers: Vec<Point> = children.iter().map(|&c| part.bbox(c).center()).collect();
            let mut masses: Vec<f64> = children.iter().map(|&c| part.mass(c)).collect();
            if masses.iter().sum::<f64>() <= 0.0 {
                masses = vec![1.0; masses.len()];
            }
            let eps_i = self.budgets[part.level(node) as usize];
            let opt = OptimalMechanism::solve(eps_i, &centers, &masses, self.metric)?;
            Ok(opt.channel().clone())
        })
    }

    /// Fallible form of [`Mechanism::report`]: surfaces per-node
    /// construction and cache failures as typed errors.
    ///
    /// # Errors
    /// Any [`MechanismError`] raised while fetching or building a
    /// per-level channel.
    pub fn try_report<R: Rng + ?Sized>(
        &self,
        x: Point,
        rng: &mut R,
    ) -> Result<Point, MechanismError> {
        let part = &self.partition;
        let mut node = part.root();
        while !part.is_leaf(node) {
            let children = part.children(node);
            let channel = self.try_channel_for(node)?;
            // Input index: the child enclosing x, or uniform when x fell
            // outside the node selected at the previous level.
            let input = children
                .iter()
                .position(|&c| part.bbox(c).contains(x))
                .unwrap_or_else(|| rng.gen_range(0..children.len()));
            let z = channel.sample(input, rng);
            node = children[z];
        }
        Ok(part.bbox(node).center())
    }
}

impl<P: SpacePartition> Mechanism for PartitionMsm<P> {
    fn report<R: Rng + ?Sized>(&self, x: Point, rng: &mut R) -> Point {
        self.try_report(x, rng)
            .expect("partition MSM report failed; use try_report for typed errors")
    }

    fn name(&self) -> String {
        format!(
            "PartitionMSM(eps<={:.3}, depth={})",
            self.epsilon(),
            self.partition.max_depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_rng::SeededRng;
    use geoind_spatial::geom::BBox;

    fn skewed_points(n: usize) -> Vec<Point> {
        let mut rng = SeededRng::from_seed(99);
        (0..n)
            .map(|_| {
                use geoind_rng::Rng;
                Point::new(
                    (3.0 + rng.gen_range(-2.0..2.0f64)).clamp(0.0, 19.99),
                    (3.0 + rng.gen_range(-2.0..2.0f64)).clamp(0.0, 19.99),
                )
            })
            .collect()
    }

    #[test]
    fn kd_reports_land_on_leaf_centers() {
        let pts = skewed_points(2_000);
        let part = KdPartition::build(BBox::square(20.0), &pts, 4, 2);
        let leaf_centers: Vec<Point> = part
            .leaves()
            .iter()
            .map(|&l| part.node(l).bbox.center())
            .collect();
        let msm = KdMsmMechanism::new(part, vec![0.3, 0.4], QualityMetric::Euclidean).unwrap();
        let mut rng = SeededRng::from_seed(4);
        for _ in 0..100 {
            let z = msm.report(Point::new(3.0, 3.0), &mut rng);
            assert!(leaf_centers.iter().any(|c| c.dist(z) < 1e-9));
        }
    }

    #[test]
    fn quadtree_reports_land_on_leaf_centers() {
        let pts = skewed_points(2_000);
        let qt = AdaptiveQuadtree::build(BBox::square(20.0), &pts, 200, 3);
        let leaf_centers: Vec<Point> = qt.leaves().iter().map(|&l| qt.bbox(l).center()).collect();
        let msm = QuadMsmMechanism::new(qt, vec![0.2, 0.3, 0.4], QualityMetric::Euclidean).unwrap();
        let mut rng = SeededRng::from_seed(5);
        for i in 0..200 {
            let x = Point::new((i % 19) as f64 + 0.5, (i % 17) as f64 + 0.5);
            let z = msm.report(x, &mut rng);
            assert!(leaf_centers.iter().any(|c| c.dist(z) < 1e-9), "{z:?}");
        }
    }

    #[test]
    fn quadtree_shallow_paths_spend_less_budget() {
        // A big downtown cluster (deep leaves) plus a small suburb cluster
        // that stays below the split cap: the suburb quadrant remains a
        // depth-1 leaf. A suburb query under a strong budget mostly stops
        // there — a path that consumes only the level-0 budget.
        let mut pts = skewed_points(2_000);
        let mut rng = SeededRng::from_seed(7);
        for _ in 0..80 {
            use geoind_rng::Rng;
            pts.push(Point::new(
                17.0 + rng.gen_range(-1.0..1.0f64),
                17.0 + rng.gen_range(-1.0..1.0),
            ));
        }
        let qt = AdaptiveQuadtree::build(BBox::square(20.0), &pts, 100, 4);
        let suburb_leaf = qt.leaf_containing(Point::new(17.0, 17.0)).unwrap();
        assert_eq!(
            qt.level(suburb_leaf),
            1,
            "suburb quadrant should stay one level deep"
        );
        let suburb_center = qt.bbox(suburb_leaf).center();
        let msm =
            QuadMsmMechanism::new(qt, vec![2.0, 2.0, 2.0, 2.0], QualityMetric::Euclidean).unwrap();
        let hits = (0..50)
            .filter(|_| {
                msm.report(Point::new(17.0, 17.0), &mut rng)
                    .dist(suburb_center)
                    < 1e-9
            })
            .count();
        assert!(
            hits > 25,
            "only {hits}/50 stopped at the shallow suburb leaf"
        );
    }

    #[test]
    fn budget_count_must_match_depth() {
        let part = KdPartition::build(BBox::square(20.0), &skewed_points(100), 4, 2);
        assert!(matches!(
            KdMsmMechanism::new(part, vec![0.5], QualityMetric::Euclidean),
            Err(MechanismError::BadParameter(_))
        ));
    }

    #[test]
    fn utility_improves_with_budget() {
        // Compare budgets inside the regime where the multi-step mechanism
        // tracks its input. Below ~0.4 per level the per-node OPT channels
        // collapse toward the prior's mode, which scores deceptively well
        // on this skewed cluster and makes utility non-monotone in eps.
        let pts = skewed_points(3_000);
        let mut rng = SeededRng::from_seed(6);
        let mut prev = f64::INFINITY;
        for eps in [0.8, 3.2] {
            let part = KdPartition::build(BBox::square(20.0), &pts, 4, 2);
            let msm =
                KdMsmMechanism::new(part, vec![eps * 0.6, eps * 0.4], QualityMetric::Euclidean)
                    .unwrap();
            let mut loss = 0.0;
            for i in 0..300 {
                let x = pts[i * 7 % pts.len()];
                loss += msm.report(x, &mut rng).dist(x);
            }
            loss /= 300.0;
            assert!(loss < prev, "loss {loss} not below {prev} at eps={eps}");
            prev = loss;
        }
    }

    #[test]
    fn cache_is_populated() {
        let part = KdPartition::build(BBox::square(20.0), &skewed_points(500), 4, 2);
        let msm = KdMsmMechanism::new(part, vec![0.3, 0.3], QualityMetric::Euclidean).unwrap();
        let mut rng = SeededRng::from_seed(8);
        for _ in 0..50 {
            msm.report(Point::new(3.0, 3.0), &mut rng);
        }
        assert!(msm.cached_channels() >= 2);
    }
}
