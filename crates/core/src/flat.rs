//! Flattened alias-table sampling for admitted channels.
//!
//! A [`crate::channel::Channel`] fresh out of the LP answers `sample` with
//! a per-row Walker alias draw, but the rows live in per-row allocations
//! and the table is rebuilt eagerly even for channels that are never
//! served. [`FlatChannel`] is the serving-path layout: one contiguous
//! row-major `(prob, alias)` pair for the whole channel, built **once at
//! the admission gate** — after certification, so the table can only ever
//! encode rows a [`crate::certify::Certificate`] vouches for. The MSM
//! descent fuses the per-level tables of a whole hierarchy into a single
//! walk over these arrays (see `crate::msm`), which is what makes a served
//! request cost nanoseconds instead of a cache fetch per level.
//!
//! Construction replicates [`AliasTable::new`] bit-for-bit per row (it
//! literally runs it and copies the slots out), so sampling from a
//! `FlatChannel` consumes the same randomness and returns the same
//! categories as the per-row tables it replaces — the determinism suite
//! pins this against goldens recorded before the flattening existed.
//!
//! A row that cannot back a table is not a panic: `build` returns `None`
//! and the admission gate refuses the channel as quarantined, so every
//! admitted channel carries its tables.

use geoind_math::sampling::AliasTable;
use geoind_rng::Rng;

/// Contiguous row-major alias tables for an `rows × m` stochastic matrix.
#[derive(Debug, Clone)]
pub struct FlatChannel {
    rows: usize,
    m: usize,
    /// Acceptance probability of slot `i` of row `r` at `r * m + i`.
    prob: Vec<f64>,
    /// Alias category of slot `i` of row `r` at `r * m + i`.
    alias: Vec<u32>,
}

impl FlatChannel {
    /// Build the flattened tables for a row-major `rows × m` matrix of
    /// (already normalized) row distributions.
    ///
    /// Returns `None` instead of panicking when the shape is wrong or a
    /// row cannot back an alias table (non-finite or negative mass, or a
    /// row summing to zero).
    pub fn build(probs: &[f64], rows: usize, m: usize) -> Option<FlatChannel> {
        if rows == 0 || m == 0 || probs.len() != rows * m {
            return None;
        }
        let mut prob = Vec::with_capacity(rows * m);
        let mut alias = Vec::with_capacity(rows * m);
        for r in 0..rows {
            let row = &probs[r * m..(r + 1) * m];
            let mut total = 0.0;
            for &w in row {
                if !(w >= 0.0 && w.is_finite()) {
                    return None;
                }
                total += w;
            }
            if total <= 0.0 {
                return None;
            }
            // Reuse the canonical Vose construction so the flattened slots
            // are bit-identical to a per-row AliasTable over the same row.
            let table = AliasTable::new(row);
            prob.extend_from_slice(table.slot_probs());
            alias.extend_from_slice(table.aliases());
        }
        Some(FlatChannel {
            rows,
            m,
            prob,
            alias,
        })
    }

    /// Number of rows (channel inputs).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of categories per row (channel outputs).
    pub fn outputs(&self) -> usize {
        self.m
    }

    /// Draw one category from row `row`: one uniform slot, one biased
    /// coin — the exact draw order of [`AliasTable::sample`].
    ///
    /// # Panics
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn sample_row<R: Rng + ?Sized>(&self, row: usize, rng: &mut R) -> usize {
        assert!(row < self.rows, "row {row} out of range");
        let base = row * self.m;
        let i = rng.gen_range(0..self.m);
        if rng.gen_f64() < self.prob[base + i] {
            i
        } else {
            self.alias[base + i] as usize
        }
    }

    /// The exact distribution row `row` samples from: slot `i` lands on
    /// category `i` with probability `prob[i]/m` and on its alias with the
    /// complement. Used by the equivalence suite to compare the table
    /// against the certified channel row without drawing a single sample.
    ///
    /// # Panics
    /// Panics if `row >= self.rows()`.
    pub fn row_marginal(&self, row: usize) -> Vec<f64> {
        assert!(row < self.rows, "row {row} out of range");
        let base = row * self.m;
        let mut out = vec![0.0f64; self.m];
        let inv_m = 1.0 / self.m as f64;
        for i in 0..self.m {
            let p = self.prob[base + i];
            out[i] += p * inv_m;
            out[self.alias[base + i] as usize] += (1.0 - p) * inv_m;
        }
        out
    }

    /// One row's acceptance slots (for fused-tree assembly).
    pub(crate) fn row_slots(&self, row: usize) -> (&[f64], &[u32]) {
        let base = row * self.m;
        (
            &self.prob[base..base + self.m],
            &self.alias[base..base + self.m],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_rng::SeededRng;

    #[test]
    fn flat_rows_match_per_row_alias_tables_bitwise() {
        let probs = [
            0.1, 0.4, 0.15, 0.05, 0.3, //
            0.2, 0.2, 0.2, 0.2, 0.2, //
            1.0, 0.0, 0.0, 0.0, 0.0,
        ];
        let flat = FlatChannel::build(&probs, 3, 5).expect("valid rows");
        for r in 0..3 {
            let reference = AliasTable::new(&probs[r * 5..(r + 1) * 5]);
            let (p, a) = flat.row_slots(r);
            for i in 0..5 {
                assert_eq!(p[i].to_bits(), reference.slot_probs()[i].to_bits());
                assert_eq!(a[i], reference.aliases()[i]);
            }
        }
    }

    #[test]
    fn sample_row_consumes_the_alias_draw_order() {
        let probs = [0.7, 0.3, 0.25, 0.75];
        let flat = FlatChannel::build(&probs, 2, 2).expect("valid rows");
        let reference = AliasTable::new(&probs[2..4]);
        let mut a = SeededRng::from_seed(0xF1A7);
        let mut b = SeededRng::from_seed(0xF1A7);
        for _ in 0..5_000 {
            assert_eq!(flat.sample_row(1, &mut a), reference.sample(&mut b));
        }
    }

    #[test]
    fn row_marginal_reconstructs_input() {
        let probs = [0.05, 0.55, 0.4, 0.9, 0.1, 0.0];
        let flat = FlatChannel::build(&probs, 2, 3).expect("valid rows");
        for r in 0..2 {
            for (z, m) in flat.row_marginal(r).iter().enumerate() {
                assert!((m - probs[r * 3 + z]).abs() <= 8.0 * f64::EPSILON);
            }
        }
    }

    #[test]
    fn invalid_rows_refuse_instead_of_panicking() {
        assert!(FlatChannel::build(&[0.5, f64::NAN], 1, 2).is_none());
        assert!(FlatChannel::build(&[-0.1, 1.1], 1, 2).is_none());
        assert!(FlatChannel::build(&[0.0, 0.0], 1, 2).is_none());
        assert!(FlatChannel::build(&[0.5, 0.5], 2, 2).is_none()); // shape
        assert!(FlatChannel::build(&[], 0, 0).is_none());
    }
}
