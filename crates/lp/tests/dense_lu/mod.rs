//! Dense right-looking LU with partial pivoting and its explicit inverse —
//! the oracle of the sparse LU's property test.
//!
//! This is the factorization the simplex engine refactorized with before
//! its LU went sparse, kept verbatim in its arithmetic: the sparse LU must
//! reproduce its singular verdicts and its inverse bit for bit (±0 aside).
//! Updates are applied a `PANEL` of columns at a time, in the same per-entry
//! order as the unblocked loop.

// Index loops over packed columns read as the textbook elimination.
#![allow(clippy::needless_range_loop)]

use geoind_lp::lu::SingularMatrix;

/// Panel width of the blocked factorization and of the blocked solves.
const PANEL: usize = 48;

/// LU factors `P·A = L·U` of a square column-major matrix.
pub struct DenseLu {
    n: usize,
    /// Packed L (unit diagonal, below) and U (diagonal and above),
    /// column-major.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row in position `i`.
    perm: Vec<usize>,
}

impl DenseLu {
    /// Factor the `n×n` column-major matrix `a` (entry `(i, j)` at
    /// `a[j * n + i]`).
    pub fn factor(n: usize, a: Vec<f64>) -> Result<Self, SingularMatrix> {
        assert_eq!(a.len(), n * n, "LU requires a square matrix");
        let mut lu = a;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut kb = 0;
        while kb < n {
            let kend = (kb + PANEL).min(n);
            for k in kb..kend {
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
                    for j in 0..n {
                        lu.swap(j * n + k, j * n + piv);
                    }
                }
                let pivot = lu[k * n + k];
                for i in (k + 1)..n {
                    lu[k * n + i] /= pivot;
                }
                for j in (k + 1)..kend {
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

    /// The explicit inverse `A⁻¹`, column-major: a forward and a back
    /// substitution on each unit vector, the right-hand sides a panel at a
    /// time.
    pub fn inverse(&self) -> Vec<f64> {
        let n = self.n;
        let mut out = vec![0.0; n * n];
        let mut inv_perm = vec![0usize; n];
        for (i, &p) in self.perm.iter().enumerate() {
            inv_perm[p] = i;
        }
        let mut jb = 0;
        while jb < n {
            let jend = (jb + PANEL).min(n);
            for j in jb..jend {
                out[j * n + inv_perm[j]] = 1.0;
            }
            for k in 0..n {
                let lcol = &self.lu[k * n..(k + 1) * n];
                for j in jb..jend {
                    let x = &mut out[j * n..(j + 1) * n];
                    let xk = x[k];
                    if xk != 0.0 {
                        for i in (k + 1)..n {
                            x[i] -= lcol[i] * xk;
                        }
                    }
                }
            }
            for k in (0..n).rev() {
                let ucol = &self.lu[k * n..(k + 1) * n];
                for j in jb..jend {
                    let x = &mut out[j * n..(j + 1) * n];
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
}
