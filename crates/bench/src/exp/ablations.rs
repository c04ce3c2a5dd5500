//! Ablations for the design choices called out in DESIGN.md.
//!
//! * `abl-alloc` — Algorithm 2's cost-model allocation vs uniform and
//!   fixed-height splits.
//! * `abl-spanner` — δ-spanner constraint reduction vs the exact OPT
//!   formulation (utility premium vs LP size/time).
//! * `abl-index` — uniform-grid GIHI vs the prior-adaptive k-d partition
//!   and the adaptive quadtree on the skewed Yelp-like prior (the paper's
//!   Section-8 future work).
//! * `abl-remap` — Bayes-optimal post-processing of the PL baseline vs OPT
//!   (reference \[5\]'s utility-improvement claim).
//! * `abl-cache` — MSM's per-node channel memoization on vs off.

use crate::config::Config;
use crate::report::{fnum, ftime, Table};
use crate::workloads::{cities, msm_prior, City};
use geoind_core::alloc::AllocationStrategy;
use geoind_core::eval::Evaluator;
use geoind_core::metrics::QualityMetric;
use geoind_core::msm::MsmMechanism;
use geoind_core::opt::{ConstraintSet, OptOptions, OptimalMechanism};
use geoind_core::pmsm::{KdMsmMechanism, QuadMsmMechanism};
use geoind_data::prior::GridPrior;
use geoind_spatial::geom::Point;
use geoind_spatial::grid::Grid;
use geoind_spatial::kdpart::KdPartition;
use geoind_spatial::quadtree::AdaptiveQuadtree;
use std::time::Instant;

fn gowalla(cfg: &Config) -> City {
    cities(cfg).into_iter().next().expect("gowalla")
}

fn yelp(cfg: &Config) -> City {
    cities(cfg).into_iter().nth(1).expect("yelp")
}

/// Budget-allocation strategies head-to-head (g=3, ε=0.9 so that several
/// heights are affordable).
pub fn alloc(cfg: &Config) -> Vec<Table> {
    let city = gowalla(cfg);
    let eps = 0.9;
    let g = 3;
    let mut table = Table::new(
        "Ablation: budget allocation strategies (Gowalla, g=3, eps=0.9)",
        &["strategy", "height", "budgets", "loss_km"],
    );
    let strategies: [(&str, AllocationStrategy); 5] = [
        ("Auto (Alg. 2)", AllocationStrategy::Auto { max_height: 5 }),
        ("FixedHeight(2)", AllocationStrategy::FixedHeight(2)),
        ("FixedHeight(3)", AllocationStrategy::FixedHeight(3)),
        ("Uniform(2)", AllocationStrategy::Uniform(2)),
        ("Uniform(3)", AllocationStrategy::Uniform(3)),
    ];
    for (name, strategy) in strategies {
        let msm = MsmMechanism::builder(city.dataset.domain(), msm_prior(&city.dataset, g))
            .epsilon(eps)
            .granularity(g)
            .rho(0.8)
            .strategy(strategy)
            .build()
            .expect("valid MSM config");
        let r = city
            .evaluator
            .measure(&msm, QualityMetric::Euclidean, cfg.seed + 131);
        table.push(vec![
            name.into(),
            msm.height().to_string(),
            format!(
                "[{}]",
                msm.budgets()
                    .budgets()
                    .iter()
                    .map(|b| fnum(*b))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            fnum(r.mean_loss),
        ]);
    }
    vec![table]
}

/// Exact OPT vs δ-spanner constraint reduction.
pub fn spanner(cfg: &Config) -> Vec<Table> {
    let city = gowalla(cfg);
    let g = if cfg.quick { 3 } else { 5 };
    let eps = 0.5;
    let grid = Grid::new(city.dataset.domain(), g);
    let prior = GridPrior::from_dataset(&city.dataset, g);
    let mut table = Table::new(
        format!("Ablation: spanner constraint reduction (Gowalla, g={g}, eps=0.5)"),
        &["constraints", "lp_rows", "solve_time", "loss_km"],
    );
    let mut run_one = |label: String, constraints: ConstraintSet| {
        let t = Instant::now();
        let opt = OptimalMechanism::solve_with(
            eps,
            &grid.centers(),
            prior.probs(),
            QualityMetric::Euclidean,
            OptOptions {
                constraints,
                ..OptOptions::default()
            },
        )
        .expect("OPT feasible");
        let solve = t.elapsed().as_secs_f64();
        let r = city
            .evaluator
            .measure(&opt, QualityMetric::Euclidean, cfg.seed + 137);
        table.push(vec![
            label,
            opt.stats().rows_total.to_string(),
            ftime(solve),
            fnum(r.mean_loss),
        ]);
    };
    run_one("exact (full)".into(), ConstraintSet::Full);
    for delta in [1.1, 1.5, 2.0] {
        run_one(
            format!("spanner d={delta}"),
            ConstraintSet::Spanner { dilation: delta },
        );
    }
    vec![table]
}

/// Uniform-grid GIHI vs prior-adaptive k-d partition on the skewed prior.
pub fn index(cfg: &Config) -> Vec<Table> {
    let city = yelp(cfg);
    let eps = 0.5;
    let mut table = Table::new(
        "Ablation: grid vs k-d vs quadtree index (Yelp, eps=0.5, fanout 4)",
        &["index", "height", "loss_km", "ms_per_query"],
    );
    let pts: Vec<Point> = city.dataset.locations().collect();
    for h in [2u32, 3] {
        // Grid MSM: g=2 gives the same fan-out 4 per node.
        let msm = MsmMechanism::builder(city.dataset.domain(), msm_prior(&city.dataset, 2))
            .epsilon(eps)
            .granularity(2)
            .rho(0.8)
            .strategy(AllocationStrategy::FixedHeight(h))
            .build()
            .expect("valid MSM config");
        let budgets = msm.budgets().budgets().to_vec();
        let r = city
            .evaluator
            .measure(&msm, QualityMetric::Euclidean, cfg.seed + 139);
        table.push(vec![
            "uniform grid (g=2)".into(),
            h.to_string(),
            fnum(r.mean_loss),
            fnum(r.mean_time_s * 1e3),
        ]);
        // Kd MSM over the same fan-out/height with identical budgets.
        let part = KdPartition::build(city.dataset.domain(), &pts, 4, h);
        let kd = KdMsmMechanism::new(part, budgets.clone(), QualityMetric::Euclidean)
            .expect("valid KdMSM config");
        let r = city
            .evaluator
            .measure(&kd, QualityMetric::Euclidean, cfg.seed + 140);
        table.push(vec![
            "k-d partition".into(),
            h.to_string(),
            fnum(r.mean_loss),
            fnum(r.mean_time_s * 1e3),
        ]);
        // Adaptive quadtree with the same depth cap and budgets; the leaf
        // cap keeps roughly the same number of leaves as the uniform grid.
        let cap = (city.dataset.len() / 4usize.pow(h)).max(1);
        let qt = AdaptiveQuadtree::build(city.dataset.domain(), &pts, cap, h);
        let quad = QuadMsmMechanism::new(qt, budgets, QualityMetric::Euclidean)
            .expect("valid QuadMSM config");
        let r = city
            .evaluator
            .measure(&quad, QualityMetric::Euclidean, cfg.seed + 141);
        table.push(vec![
            "adaptive quadtree".into(),
            h.to_string(),
            fnum(r.mean_loss),
            fnum(r.mean_time_s * 1e3),
        ]);
    }
    vec![table]
}

/// Bayes-optimal remapping of the PL baseline (Chatzikokolakis et al.,
/// reference \[5\] of the paper): how much utility does post-processing
/// recover, and how close does it get to OPT?
pub fn remap(cfg: &Config) -> Vec<Table> {
    use geoind_core::remap::{empirical_channel, RemappedMechanism};
    use geoind_rng::SeededRng;
    let city = gowalla(cfg);
    let g = if cfg.quick { 3 } else { 5 };
    let eps = 0.3;
    let grid = Grid::new(city.dataset.domain(), g);
    let prior = GridPrior::from_dataset(&city.dataset, g);
    let metric = QualityMetric::SqEuclidean;
    let mut table = Table::new(
        format!("Ablation: Bayes-optimal remapping (Gowalla, g={g}, eps={eps}, d^2)"),
        &["mechanism", "loss_km2"],
    );
    let pl = || geoind_core::planar_laplace::PlanarLaplace::new(eps).with_grid_remap(grid.clone());
    let r = city.evaluator.measure(&pl(), metric, cfg.seed + 151);
    table.push(vec!["PL + grid snap".into(), fnum(r.mean_loss)]);

    let mut rng = SeededRng::from_seed(cfg.seed + 152);
    let centers = grid.centers();
    let samples = if cfg.quick { 1_000 } else { 5_000 };
    let channel = empirical_channel(&pl(), &centers, &centers, samples, &mut rng);
    let remapped = RemappedMechanism::new(pl(), &channel, prior.probs().to_vec(), metric)
        .expect("valid remap");
    let r = city.evaluator.measure(&remapped, metric, cfg.seed + 153);
    table.push(vec!["PL + Bayes remap".into(), fnum(r.mean_loss)]);

    let opt = OptimalMechanism::on_grid(eps, &grid, &prior, metric).expect("OPT feasible");
    let r = city.evaluator.measure(&opt, metric, cfg.seed + 154);
    table.push(vec!["OPT (reference)".into(), fnum(r.mean_loss)]);
    vec![table]
}

/// Channel memoization on vs off.
pub fn cache(cfg: &Config) -> Vec<Table> {
    let city = gowalla(cfg);
    let g = if cfg.quick { 3 } else { 5 };
    let queries =
        Evaluator::new(city.evaluator.queries()[..cfg.effective_queries().min(50)].to_vec());
    let mut table = Table::new(
        format!("Ablation: MSM channel cache (Gowalla, g={g}, eps=0.5, 50 queries)"),
        &["caching", "total_time", "ms_per_query", "loss_km"],
    );
    for caching in [true, false] {
        let msm = MsmMechanism::builder(city.dataset.domain(), msm_prior(&city.dataset, g))
            .epsilon(0.5)
            .granularity(g)
            .rho(0.8)
            .caching(caching)
            .build()
            .expect("valid MSM config");
        let r = queries.measure(&msm, QualityMetric::Euclidean, cfg.seed + 149);
        table.push(vec![
            if caching { "on" } else { "off" }.into(),
            ftime(r.total_time_s),
            fnum(r.mean_time_s * 1e3),
            fnum(r.mean_loss),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_ablation_produces_all_strategies() {
        let mut cfg = Config::quick();
        cfg.queries = 40;
        let t = alloc(&cfg);
        assert_eq!(t[0].len(), 5);
    }

    #[test]
    fn index_ablation_compares_all_indexes_at_both_heights() {
        let mut cfg = Config::quick();
        cfg.queries = 40;
        let t = index(&cfg);
        assert_eq!(t[0].len(), 6);
    }
}
