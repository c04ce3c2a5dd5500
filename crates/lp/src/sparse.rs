//! Compressed-sparse-column matrices.
//!
//! The simplex engine only ever needs *column* access (entering-column
//! FTRAN, reduced-cost pricing), so CSC is the single storage format.

/// An immutable sparse matrix in compressed-sparse-column layout.
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    nrows: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes the entries of column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Incremental column-by-column builder for [`CscMatrix`].
#[derive(Debug, Clone)]
pub struct CscBuilder {
    nrows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscBuilder {
    /// Start a builder for a matrix with `nrows` rows.
    pub fn new(nrows: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize,
            "row count exceeds u32 index space"
        );
        Self {
            nrows,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append one column given `(row, value)` entries. Zero values are
    /// dropped; duplicate rows within a column are summed.
    ///
    /// # Panics
    /// Panics if a row index is out of range.
    pub fn push_col(&mut self, entries: &[(usize, f64)]) {
        let start = self.row_idx.len();
        for &(r, v) in entries {
            assert!(r < self.nrows, "row {r} out of range ({} rows)", self.nrows);
            if v != 0.0 {
                self.row_idx.push(r as u32);
                self.values.push(v);
            }
        }
        // Sort the freshly appended slice by row and merge duplicates.
        let slice_len = self.row_idx.len() - start;
        if slice_len > 1 {
            let mut pairs: Vec<(u32, f64)> = (start..self.row_idx.len())
                .map(|i| (self.row_idx[i], self.values[i]))
                .collect();
            pairs.sort_by_key(|p| p.0);
            self.row_idx.truncate(start);
            self.values.truncate(start);
            for (r, v) in pairs {
                if self.row_idx.len() > start && self.row_idx.last() == Some(&r) {
                    if let Some(last_v) = self.values.last_mut() {
                        *last_v += v;
                    }
                    continue;
                }
                self.row_idx.push(r);
                self.values.push(v);
            }
        }
        self.col_ptr.push(self.row_idx.len());
    }

    /// Finish building.
    pub fn finish(self) -> CscMatrix {
        CscMatrix {
            nrows: self.nrows,
            col_ptr: self.col_ptr,
            row_idx: self.row_idx,
            values: self.values,
        }
    }
}

impl CscMatrix {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// The `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        range.map(move |i| (self.row_idx[i] as usize, self.values[i]))
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        debug_assert_eq!(v.len(), self.nrows);
        let mut acc = 0.0;
        for i in self.col_ptr[j]..self.col_ptr[j + 1] {
            acc += self.values[i] * v[self.row_idx[i] as usize];
        }
        acc
    }

    /// Scatter `scale * column j` into a dense vector: `out += scale·A_j`.
    #[inline]
    pub fn col_axpy(&self, j: usize, scale: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.nrows);
        for i in self.col_ptr[j]..self.col_ptr[j + 1] {
            out[self.row_idx[i] as usize] += scale * self.values[i];
        }
    }

    /// Dense mat-vec `y = A x` (for tests and diagnostics).
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols());
        let mut y = vec![0.0; self.nrows];
        for j in 0..self.ncols() {
            if x[j] != 0.0 {
                self.col_axpy(j, x[j], &mut y);
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut b = CscBuilder::new(3);
        b.push_col(&[(0, 1.0), (2, 4.0)]);
        b.push_col(&[(1, 3.0)]);
        b.push_col(&[(2, 5.0), (0, 2.0)]);
        b.finish()
    }

    #[test]
    fn shape() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn columns_sorted_by_row() {
        let m = sample();
        let col2: Vec<(usize, f64)> = m.col(2).collect();
        assert_eq!(col2, vec![(0, 2.0), (2, 5.0)]);
    }

    #[test]
    fn duplicate_entries_summed() {
        let mut b = CscBuilder::new(2);
        b.push_col(&[(0, 1.0), (0, 2.5), (1, -1.0)]);
        let m = b.finish();
        let col: Vec<(usize, f64)> = m.col(0).collect();
        assert_eq!(col, vec![(0, 3.5), (1, -1.0)]);
    }

    #[test]
    fn zeros_dropped() {
        let mut b = CscBuilder::new(2);
        b.push_col(&[(0, 0.0), (1, 1.0)]);
        b.push_col(&[]);
        let m = b.finish();
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert_eq!(m.col(1).count(), 0);
    }

    #[test]
    fn matvec() {
        let m = sample();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn col_dot_and_axpy() {
        let m = sample();
        assert_eq!(m.col_dot(0, &[1.0, 10.0, 100.0]), 401.0);
        let mut out = vec![0.0; 3];
        m.col_axpy(0, 2.0, &mut out);
        assert_eq!(out, vec![2.0, 0.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_row_panics() {
        let mut b = CscBuilder::new(2);
        b.push_col(&[(2, 1.0)]);
    }
}
