//! Dense column-major matrices and LU factorization with partial pivoting.
//!
//! The simplex engine re-derives its basis inverse from scratch every few
//! hundred pivots to shed accumulated floating-point drift; that
//! refactorization is a dense LU + `m` triangular solves.

/// A dense column-major `n×n` or `m×n` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    /// Column-major storage: entry `(i, j)` at `data[j * nrows + i]`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.nrows + i]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.nrows + i] = v;
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            if xj != 0.0 {
                let col = self.col(j);
                for i in 0..self.nrows {
                    y[i] += col[i] * xj;
                }
            }
        }
        y
    }

    /// `y = Aᵀ x` (dot of every column with `x`).
    pub fn mul_vec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows);
        (0..self.ncols).map(|j| dot(self.col(j), x)).collect()
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// LU factorization `P·A = L·U` of a square matrix, with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Packed L (unit diagonal, below) and U (diagonal and above),
    /// column-major.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row in position `i`.
    perm: Vec<usize>,
}

/// Error returned when the matrix is numerically singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Column at which no acceptable pivot was found.
    pub column: usize,
}

/// Panel width for the blocked LU factorization and the blocked multi-RHS
/// solves: updates are applied a panel at a time so each target column is
/// streamed through cache once per panel instead of once per eliminated
/// column. The value keeps a panel (width × column height) comfortably
/// inside L2 at the matrix sizes the simplex engine refactorizes.
const PANEL: usize = 48;

impl LuFactors {
    /// Factorize a square [`DenseMatrix`].
    ///
    /// Right-looking LU with partial pivoting, blocked by `PANEL`: the
    /// panel is factorized unblocked, then the trailing columns absorb the
    /// whole panel in one pass each. The arithmetic (and therefore the
    /// bit-exact result) is identical to the textbook unblocked loop — the
    /// per-column updates are applied in the same `k` order, only grouped —
    /// while the trailing block streams from memory once per panel instead
    /// of once per column.
    pub fn factor(a: &DenseMatrix) -> Result<Self, SingularMatrix> {
        assert_eq!(a.nrows, a.ncols, "LU requires a square matrix");
        let n = a.nrows;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut kb = 0;
        while kb < n {
            let kend = (kb + PANEL).min(n);
            // Unblocked factorization of the panel columns kb..kend. Row
            // swaps apply to the whole matrix immediately (right-looking
            // columns have not been updated yet, left columns are final L).
            for k in kb..kend {
                // Pivot search in column k, rows k..n.
                let col = &lu[k * n..(k + 1) * n];
                let mut piv = k;
                let mut piv_abs = col[k].abs();
                for i in (k + 1)..n {
                    let v = col[i].abs();
                    if v > piv_abs {
                        piv = i;
                        piv_abs = v;
                    }
                }
                if piv_abs < 1e-13 {
                    return Err(SingularMatrix { column: k });
                }
                if piv != k {
                    perm.swap(k, piv);
                    // Swap rows k and piv across all columns.
                    for j in 0..n {
                        lu.swap(j * n + k, j * n + piv);
                    }
                }
                let pivot = lu[k * n + k];
                // Compute multipliers.
                for i in (k + 1)..n {
                    lu[k * n + i] /= pivot;
                }
                // Rank-1 update of the remaining *panel* columns only.
                for j in (k + 1)..kend {
                    let ukj = lu[j * n + k];
                    if ukj != 0.0 {
                        // Split the column to appease the borrow checker:
                        // the multipliers live in column k, the target in
                        // column j.
                        let (lcols, rcols) = lu.split_at_mut(j * n);
                        let lk = &lcols[k * n..(k + 1) * n];
                        let cj = &mut rcols[..n];
                        for i in (k + 1)..n {
                            cj[i] -= lk[i] * ukj;
                        }
                    }
                }
            }
            // Trailing update: each column right of the panel absorbs all
            // panel eliminations in one cache-resident pass.
            for j in kend..n {
                for k in kb..kend {
                    let ukj = lu[j * n + k];
                    if ukj != 0.0 {
                        let (lcols, rcols) = lu.split_at_mut(j * n);
                        let lk = &lcols[k * n..(k + 1) * n];
                        let cj = &mut rcols[..n];
                        for i in (k + 1)..n {
                            cj[i] -= lk[i] * ukj;
                        }
                    }
                }
            }
            kb = kend;
        }
        Ok(Self { n, lu, perm })
    }

    /// The explicit inverse `A⁻¹`, equivalent to solving `A x = e_j` for
    /// every unit vector but with the right-hand sides processed in panels:
    /// the packed LU streams through cache once per panel of columns
    /// instead of once per column, which is the difference between seconds
    /// and minutes at the sizes the simplex engine refactorizes. Each
    /// column's arithmetic is identical to [`LuFactors::solve`] on its unit
    /// vector, so the result is bit-identical to the column-by-column loop.
    pub fn inverse(&self) -> DenseMatrix {
        let n = self.n;
        let mut out = DenseMatrix::zeros(n, n);
        // Column j of the permuted identity has its 1 where perm[i] == j.
        let mut inv_perm = vec![0usize; n];
        for (i, &p) in self.perm.iter().enumerate() {
            inv_perm[p] = i;
        }
        let mut jb = 0;
        while jb < n {
            let jend = (jb + PANEL).min(n);
            for j in jb..jend {
                out.col_mut(j)[inv_perm[j]] = 1.0;
            }
            // Forward substitution with unit-diagonal L, k-outer so the L
            // column is fetched once for the whole panel.
            for k in 0..n {
                let lcol = &self.lu[k * n..(k + 1) * n];
                for j in jb..jend {
                    let x = out.col_mut(j);
                    let xk = x[k];
                    if xk != 0.0 {
                        for i in (k + 1)..n {
                            x[i] -= lcol[i] * xk;
                        }
                    }
                }
            }
            // Back substitution with U.
            for k in (0..n).rev() {
                let ucol = &self.lu[k * n..(k + 1) * n];
                for j in jb..jend {
                    let x = out.col_mut(j);
                    x[k] /= ucol[k];
                    let xk = x[k];
                    if xk != 0.0 {
                        for i in 0..k {
                            x[i] -= ucol[i] * xk;
                        }
                    }
                }
            }
            jb = jend;
        }
        out
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for k in 0..n {
            let xk = x[k];
            if xk != 0.0 {
                let col = &self.lu[k * n..(k + 1) * n];
                for i in (k + 1)..n {
                    x[i] -= col[i] * xk;
                }
            }
        }
        // Back substitution with U.
        for k in (0..n).rev() {
            let col = &self.lu[k * n..(k + 1) * n];
            x[k] /= col[k];
            let xk = x[k];
            if xk != 0.0 {
                for (i, xi) in x.iter_mut().enumerate().take(k) {
                    *xi -= self.lu[k * n + i] * xk;
                }
            }
        }
        x
    }

    /// Solve `Aᵀ x = b`.
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let mut x = b.to_vec();
        // Uᵀ is lower-triangular: forward substitution.
        for k in 0..n {
            let col = &self.lu[k * n..(k + 1) * n];
            let mut acc = x[k];
            for (i, xi) in x.iter().enumerate().take(k) {
                acc -= col[i] * xi;
            }
            x[k] = acc / col[k];
        }
        // Lᵀ is unit upper-triangular: back substitution.
        for k in (0..n).rev() {
            let mut acc = x[k];
            let col_range = |j: usize| &self.lu[j * n..(j + 1) * n];
            for j in (k + 1)..n {
                acc -= col_range(k)[j] * x[j];
            }
            x[k] = acc;
        }
        // Undo permutation: we solved (PA)ᵀ y = ... carefully: A = Pᵀ L U,
        // Aᵀ x = b  ⇔  Uᵀ Lᵀ P x = b; after the two substitutions x holds
        // P·x_true, so scatter back.
        let mut out = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = x[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn identity_solves_trivially() {
        let id = DenseMatrix::identity(4);
        let lu = LuFactors::factor(&id).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(lu.solve(&b), b);
        assert_eq!(lu.solve_transpose(&b), b);
    }

    #[test]
    fn solve_matches_matvec() {
        for seed in 0..10u64 {
            let n = 1 + (seed as usize % 12) * 3;
            let a = random_matrix(n, seed);
            let lu = LuFactors::factor(&a).unwrap();
            let mut rng = SeededRng::from_seed(seed + 100);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let b = a.mul_vec(&x_true);
            let x = lu.solve(&b);
            for i in 0..n {
                assert!((x[i] - x_true[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn transpose_solve_matches() {
        for seed in 20..30u64 {
            let n = 2 + (seed as usize % 7) * 5;
            let a = random_matrix(n, seed);
            let lu = LuFactors::factor(&a).unwrap();
            let mut rng = SeededRng::from_seed(seed + 200);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let b = a.mul_vec_transpose(&x_true);
            let x = lu.solve_transpose(&b);
            for i in 0..n {
                assert!((x[i] - x_true[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] needs a row swap.
        let mut a = DenseMatrix::zeros(2, 2);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let mut a = DenseMatrix::zeros(3, 3);
        for j in 0..3 {
            a.set(0, j, 1.0);
            a.set(1, j, 2.0); // row 1 = 2 * row 0
            a.set(2, j, j as f64);
        }
        assert!(LuFactors::factor(&a).is_err());
    }

    #[test]
    fn matvec_transpose_consistency() {
        let a = random_matrix(8, 5);
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..8).map(|i| (8 - i) as f64).collect();
        // y' (A x) == (A' y)' x
        let lhs: f64 = a.mul_vec(&x).iter().zip(&y).map(|(u, v)| u * v).sum();
        let rhs: f64 = a
            .mul_vec_transpose(&y)
            .iter()
            .zip(&x)
            .map(|(u, v)| u * v)
            .sum();
        assert!((lhs - rhs).abs() < 1e-9);
    }
}
