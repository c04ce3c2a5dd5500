//! Sparse LU factorization with partial pivoting, and the columns of the
//! inverse solved from it.
//!
//! The simplex engine re-derives its basis inverse from scratch every few
//! hundred pivots to shed accumulated floating-point drift. It factors only
//! the basis's general block `M` (see `Engine::refactorize`), and on the
//! duals this crate solves that block is almost empty: at g=4 its order k
//! averages 237, yet it holds ~663 nonzeros (OPT's two-entry pair columns
//! and the stochasticity border), its L and U factors ~2.0k and its inverse
//! ~9.0k of k² ≈ 56k entries. [`SparseLu`] does its arithmetic over those
//! nonzeros only: a left-looking LU that builds one column of L and U at a
//! time, then [`SparseLu::inverse_column`] solves `M⁻¹` one column at a
//! time. Each column finds the steps it needs by scanning the k steps in
//! order and skipping those whose value is zero: at these orders that
//! `O(k)` scan of a flat array measured faster than a depth-first reach
//! through the factors' columns plus the sort of the steps it reaches.
//! Its storage is `O(nnz + k)` and is reused from one factorization to
//! the next.
//!
//! The factors and the inverse are bit-identical to those of the textbook
//! right-looking dense LU with partial pivoting (kept as the oracle of
//! `crates/lp/tests/proptest_lp.rs`), which is what keeps every pivot of
//! the engine, and so every exported bit, independent of which of the two
//! factors a basis:
//! - **Pivot choice.** Step k pivots on the first candidate row, in the
//!   dense code's row order, with strictly the largest |value|. That order
//!   starts as the identity and each step swaps two positions (the dense
//!   `perm.swap(k, piv)`; a swap, not a rotation). A column whose largest
//!   candidate is below `1e-13` is singular at that column.
//! - **Update order.** Each entry takes its `x −= l·u` updates in ascending
//!   step order, and a multiplier is `x / pivot`. The forward substitution
//!   applies its steps in ascending order, the back substitution in
//!   descending order, each dividing by the pivot as the dense loops do.
//! - **Skipped operations.** Only operations that subtract ±0 are skipped
//!   (a zero multiplier, U entry or solution entry), and they cannot change
//!   an entry that is not −0. No entry they would touch is −0: the input's
//!   zeros are dropped, and `a − b` is −0 only when `a` is. So the factors
//!   equal the dense ones, and `M⁻¹` equals the dense inverse on every
//!   entry but the sign of an exact zero, which [`SparseLu::inverse_column`]
//!   does not return.

/// Largest candidate magnitude at which a column counts as singular.
const SINGULAR_TOL: f64 = 1e-13;

/// `step_of_row` of a row no step has pivoted on yet.
const UNPIVOTED: u32 = u32::MAX;

/// Error returned when the matrix is numerically singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Column at which no acceptable pivot was found.
    pub column: usize,
}

/// Sparse LU factors `P·M = L·U` of a square matrix `M`, in `M`'s own row
/// indices, with the work vectors that build and solve them.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// L below its unit diagonal, by step: `(row, multiplier)` for rows
    /// still unpivoted at that step, zeros dropped.
    l_start: Vec<usize>,
    l_row: Vec<u32>,
    l_val: Vec<f64>,
    /// U above its diagonal, by column: `(step, value)` in ascending step
    /// order, zeros dropped.
    u_start: Vec<usize>,
    u_step: Vec<u32>,
    u_val: Vec<f64>,
    /// U's diagonal: the pivot of each step.
    pivot: Vec<f64>,
    /// The row each step pivoted on.
    pivot_row: Vec<u32>,
    /// The step that pivoted on each row, `UNPIVOTED` before it.
    step_of_row: Vec<u32>,
    /// The dense code's row order: the position of each row, and the row
    /// at each position.
    pos_of_row: Vec<u32>,
    row_at_pos: Vec<u32>,
    /// Work vectors, all zero (or false, or empty) between calls: values
    /// by row and by step, and the rows the current column touches.
    x: Vec<f64>,
    w: Vec<f64>,
    seen_row: Vec<bool>,
    rows: Vec<u32>,
}

impl SparseLu {
    /// Factor the `n×n` matrix whose columns `cols` yields in order, each
    /// as `(row, value)` entries with distinct rows below `n`; zero values
    /// are dropped. The previous factorization's storage is reused.
    ///
    /// # Errors
    /// [`SingularMatrix`] naming the first column whose largest pivot
    /// candidate is below `1e-13`. The factors are then incomplete, and
    /// [`Self::inverse_column`] must not be called.
    ///
    /// # Panics
    /// Panics if `cols` yields fewer than `n` columns or a row is out of
    /// range.
    pub fn factor<C, E>(&mut self, n: usize, cols: C) -> Result<(), SingularMatrix>
    where
        C: IntoIterator<Item = E>,
        E: IntoIterator<Item = (usize, f64)>,
    {
        self.reset(n);
        let mut cols = cols.into_iter();
        for j in 0..n {
            let col = cols.next().expect("one column per step");
            for (r, v) in col {
                if v != 0.0 {
                    debug_assert!(!self.seen_row[r], "row {r} repeats in column {j}");
                    self.x[r] = v;
                    self.touch_row(r);
                }
            }
            // Every earlier step, ascending: those whose pivot row holds a
            // nonzero once the column has taken the steps before them give
            // U an entry and the column their L updates.
            for k in 0..j {
                let u = self.x[self.pivot_row[k] as usize];
                if u == 0.0 {
                    continue;
                }
                self.u_step.push(k as u32);
                self.u_val.push(u);
                for e in self.l_start[k]..self.l_start[k + 1] {
                    let i = self.l_row[e] as usize;
                    self.touch_row(i);
                    self.x[i] -= self.l_val[e] * u;
                }
            }
            self.u_start.push(self.u_step.len());

            // The first unpivoted row, in the dense row order, with the
            // largest |value|: the one at position j unless another beats
            // it strictly, or ties it from an earlier position.
            let mut best = self.row_at_pos[j] as usize;
            let mut best_abs = self.x[best].abs();
            for &r in &self.rows {
                let r = r as usize;
                if self.step_of_row[r] == UNPIVOTED {
                    let v = self.x[r].abs();
                    if v > best_abs || (v == best_abs && self.pos_of_row[r] < self.pos_of_row[best])
                    {
                        best = r;
                        best_abs = v;
                    }
                }
            }
            if best_abs < SINGULAR_TOL {
                self.clear_rows();
                return Err(SingularMatrix { column: j });
            }
            let (pos, displaced) = (self.pos_of_row[best], self.row_at_pos[j]);
            self.row_at_pos.swap(j, pos as usize);
            self.pos_of_row[displaced as usize] = pos;
            self.pos_of_row[best] = j as u32;
            let pivot = self.x[best];
            self.pivot.push(pivot);
            self.pivot_row.push(best as u32);
            self.step_of_row[best] = j as u32;
            for &r in &self.rows {
                let r = r as usize;
                if self.step_of_row[r] == UNPIVOTED {
                    let l = self.x[r] / pivot;
                    if l != 0.0 {
                        self.l_row.push(r as u32);
                        self.l_val.push(l);
                    }
                }
            }
            self.l_start.push(self.l_row.len());
            self.clear_rows();
        }
        Ok(())
    }

    /// Entries stored in L and U, U's diagonal included.
    pub fn nonzeros(&self) -> usize {
        self.l_row.len() + self.u_step.len() + self.pivot.len()
    }

    /// Column `t` of `M⁻¹` into `out` (cleared first): its nonzero entries
    /// as `(row, value)`, rows ascending, where row `s` of `M⁻¹` belongs to
    /// column `s` of `M`. Valid after a successful [`Self::factor`].
    pub fn inverse_column(&mut self, t: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        debug_assert_eq!(self.pivot.len(), self.n, "no complete factorization");
        // Forward: L·z = P·e_t. z is zero before t's own step, and L only
        // updates rows that later steps pivot on.
        self.x[t] = 1.0;
        for k in self.step_of_row[t] as usize..self.n {
            let z = std::mem::take(&mut self.x[self.pivot_row[k] as usize]);
            if z != 0.0 {
                self.w[k] = z;
                for e in self.l_start[k]..self.l_start[k + 1] {
                    self.x[self.l_row[e] as usize] -= self.l_val[e] * z;
                }
            }
        }
        // Back: U·v = z, descending.
        for k in (0..self.n).rev() {
            let z = std::mem::take(&mut self.w[k]);
            if z == 0.0 {
                continue;
            }
            let v = z / self.pivot[k];
            if v != 0.0 {
                out.push((k, v));
                for e in self.u_start[k]..self.u_start[k + 1] {
                    self.w[self.u_step[e] as usize] -= self.u_val[e] * v;
                }
            }
        }
        out.reverse();
    }

    /// Empty factors for an `n×n` matrix, and zeroed work vectors.
    fn reset(&mut self, n: usize) {
        self.n = n;
        for v in [&mut self.l_start, &mut self.u_start] {
            v.clear();
            v.push(0);
        }
        for v in [&mut self.l_row, &mut self.u_step, &mut self.pivot_row] {
            v.clear();
        }
        self.l_val.clear();
        self.u_val.clear();
        self.pivot.clear();
        self.step_of_row.clear();
        self.step_of_row.resize(n, UNPIVOTED);
        self.pos_of_row.clear();
        self.pos_of_row.extend(0..n as u32);
        self.row_at_pos.clone_from(&self.pos_of_row);
        for v in [&mut self.x, &mut self.w] {
            v.clear();
            v.resize(n, 0.0);
        }
        self.seen_row.clear();
        self.seen_row.resize(n, false);
    }

    /// Add row `r` to the rows the current column touches.
    #[inline]
    fn touch_row(&mut self, r: usize) {
        if !self.seen_row[r] {
            self.seen_row[r] = true;
            self.rows.push(r as u32);
        }
    }

    /// Zero the touched rows' values and marks.
    fn clear_rows(&mut self) {
        for &r in &self.rows {
            self.x[r as usize] = 0.0;
            self.seen_row[r as usize] = false;
        }
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use geoind_rng::{Rng, SeededRng};

    fn random_matrix(n: usize, seed: u64) -> DenseMatrix {
        let mut rng = SeededRng::from_seed(seed);
        let mut m = DenseMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                m.set(i, j, rng.gen_range(-2.0..2.0));
            }
            // Diagonal boost keeps the random matrices comfortably regular.
            m.set(j, j, m.get(j, j) + 4.0);
        }
        m
    }

    fn factor(lu: &mut SparseLu, a: &DenseMatrix) -> Result<(), SingularMatrix> {
        let n = a.nrows();
        lu.factor(n, (0..n).map(|j| a.col(j).iter().copied().enumerate()))
    }

    /// `M⁻¹` as a dense matrix, from its columns.
    fn inverse(lu: &mut SparseLu, n: usize) -> DenseMatrix {
        let mut inv = DenseMatrix::zeros(n, n);
        let mut col = Vec::new();
        for t in 0..n {
            lu.inverse_column(t, &mut col);
            for &(s, v) in &col {
                inv.set(s, t, v);
            }
        }
        inv
    }

    /// `A·A⁻¹ = I` within 1e-12, column by column.
    fn assert_inverse(a: &DenseMatrix, inv: &DenseMatrix) {
        let n = a.nrows();
        for j in 0..n {
            let e = a.mul_vec(inv.col(j));
            for (i, v) in e.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "n={n} ({i},{j}): {v}");
            }
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        // Orders 1..34, then 100.
        for seed in 0..11u64 {
            let n = if seed == 10 {
                100
            } else {
                1 + (seed as usize % 12) * 3
            };
            let a = random_matrix(n, seed);
            let mut lu = SparseLu::default();
            factor(&mut lu, &a).unwrap();
            assert_eq!(lu.nonzeros(), n * n, "a dense matrix has dense factors");
            assert_inverse(&a, &inverse(&mut lu, n));
        }
    }

    #[test]
    fn reused_storage_leaves_no_trace() {
        // Refactor storage that last held a larger matrix, or a singular
        // one abandoned midway: the bits match a fresh factorization.
        let mut lu = SparseLu::default();
        factor(&mut lu, &random_matrix(12, 2)).unwrap();
        for seed in 3..6u64 {
            let n = 3 + seed as usize;
            let a = random_matrix(n, seed);
            let mut singular = a.clone();
            for i in 0..n {
                singular.set(i, 1, 2.0 * a.get(i, 0));
            }
            assert!(factor(&mut lu, &singular).is_err());
            factor(&mut lu, &a).unwrap();
            let mut fresh = SparseLu::default();
            factor(&mut fresh, &a).unwrap();
            assert_eq!(inverse(&mut lu, n), inverse(&mut fresh, n), "n={n}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] needs a row swap.
        let mut a = DenseMatrix::zeros(2, 2);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        let mut lu = SparseLu::default();
        factor(&mut lu, &a).unwrap();
        assert_eq!(inverse(&mut lu, 2), a, "a swap is its own inverse");
    }

    #[test]
    fn singular_detected() {
        let mut a = DenseMatrix::zeros(3, 3);
        for j in 0..3 {
            a.set(0, j, 1.0);
            a.set(1, j, 2.0); // row 1 = 2 * row 0
            a.set(2, j, j as f64);
        }
        let mut lu = SparseLu::default();
        assert_eq!(factor(&mut lu, &a), Err(SingularMatrix { column: 2 }));
    }

    #[test]
    fn empty_matrix_factors() {
        let mut lu = SparseLu::default();
        lu.factor(0, std::iter::empty::<Vec<(usize, f64)>>())
            .unwrap();
        assert_eq!(lu.nonzeros(), 0);
    }
}
