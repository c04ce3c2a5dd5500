//! Dense column-major matrices: the storage of the simplex engine's
//! explicit basis inverse, which it refills in place (`DenseMatrix::reset`)
//! at every refactorization instead of allocating a fresh one. The
//! factorization that refills it is sparse ([`crate::lu`]).

/// A dense column-major `n×n` or `m×n` matrix.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Reshape to an all-zero `nrows×ncols` matrix, reusing the storage.
    pub(crate) fn reset(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.clear();
        self.data.resize(nrows * ncols, 0.0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_rng::{Rng, SeededRng};

    #[test]
    fn matvec_transpose_consistency() {
        let mut rng = SeededRng::from_seed(5);
        let mut a = DenseMatrix::zeros(8, 8);
        for j in 0..8 {
            for i in 0..8 {
                a.set(i, j, rng.gen_range(-2.0..2.0));
            }
        }
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
