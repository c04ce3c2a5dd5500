//! Figure 3 — effect of grid granularity on OPT's utility and running time.
//!
//! The paper sweeps the plain optimal mechanism over a `g×g` grid of the
//! Gowalla region for `g = 2..11` at `ε = 0.5`, showing utility improving
//! while solve time explodes (hours past `g = 11`; `g = 12` never finished).
//! We sweep `g = 2..6` by default and to `g = 7` under `--full`: the cubic
//! constraint growth — and therefore the blow-up *shape* — is identical;
//! only the constant differs from the paper's Gurobi-on-Xeon setup.

use crate::config::Config;
use crate::report::{fnum, ftime, Table};
use crate::workloads::cities;
use geoind_core::metrics::QualityMetric;
use geoind_core::opt::OptimalMechanism;
use geoind_data::prior::GridPrior;
use geoind_spatial::grid::Grid;
use std::time::Instant;

/// Privacy budget used throughout Figure 3 (the paper's default).
pub const EPS: f64 = 0.5;

/// Run the sweep at the configured scale.
pub fn run(cfg: &Config) -> Vec<Table> {
    let max_g = if cfg.full {
        7
    } else if cfg.quick {
        4
    } else {
        6
    };
    run_to(cfg, max_g)
}

/// Run the sweep up to an explicit maximum granularity.
pub fn run_to(cfg: &Config, max_g: u32) -> Vec<Table> {
    let city = cities(cfg).into_iter().next().expect("gowalla city");
    let mut table = Table::new(
        "Fig 3: OPT utility loss and time vs granularity (Gowalla, eps=0.5)",
        &[
            "g",
            "cells",
            "lp_rows",
            "utility_km",
            "solve_time",
            "pivots",
            "ms_per_query",
        ],
    );
    for g in 2..=max_g {
        let grid = Grid::new(city.dataset.domain(), g);
        let prior = GridPrior::from_dataset(&city.dataset, g);
        let t = Instant::now();
        let opt = OptimalMechanism::on_grid(EPS, &grid, &prior, QualityMetric::Euclidean)
            .expect("OPT is feasible");
        let solve = t.elapsed().as_secs_f64();
        let report = city
            .evaluator
            .measure(&opt, QualityMetric::Euclidean, cfg.seed + g as u64);
        table.push(vec![
            g.to_string(),
            (g * g).to_string(),
            opt.stats().rows_total.to_string(),
            fnum(report.mean_loss),
            ftime(solve),
            opt.stats().effort.pivots.to_string(),
            fnum(report.mean_time_s * 1e3),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_rows_with_growing_cost() {
        let mut cfg = Config::quick();
        cfg.queries = 50;
        let tables = run_to(&cfg, 3);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 2); // g = 2, 3
    }
}
