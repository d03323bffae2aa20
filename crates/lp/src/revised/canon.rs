//! Canonical form for the revised engine: `A·x + s = b` with **native box
//! bounds** on every column.
//!
//! Unlike the dense tableau's standard form, no variable is shifted,
//! mirrored, or split, and finite upper bounds do *not* become extra rows:
//! each user variable maps one-to-one onto a structural column carrying its
//! own `[lb, ub]`, and each user row gains one *logical* column `s_i` whose
//! bounds encode the row sense:
//!
//! * `≤` → `s_i ∈ [0, +∞)`,
//! * `≥` → `s_i ∈ (−∞, 0]`,
//! * `=` → `s_i ∈ [0, 0]`.
//!
//! Columns `0..n` are structural, columns `n..n+m` are logicals (`n + i` for
//! row `i`). This layout is append-only: adding a constraint appends one row
//! and one logical column without renumbering anything, which is what makes
//! a stored [`Basis`](super::Basis) reusable after Benders cuts are added.
//!
//! The structural block is held as a CSC [`SparseMatrix`]
//! ([`Problem::structural_matrix`]); logical columns are implicit unit
//! vectors and never materialized. Everything that depends on the matrix
//! alone is a [`Structure`], built once per structural edit and cached in the
//! [`Problem`]; a [`Canon`] borrows it and adds the per-solve bound, cost and
//! RHS copies.

use crate::model::{Cmp, Problem};
use crate::sparse::SparseMatrix;

/// The part of the canonical form that depends on the constraint matrix
/// alone: immutable once built, shared behind an `Arc` by a [`Problem`] and
/// its clones until the next structural edit.
#[derive(Debug)]
pub struct Structure {
    /// Structural columns in compressed-sparse-column form (`m × n`),
    /// duplicates summed and zeros dropped.
    pub a: SparseMatrix,
    /// Structure-only CSR pattern of `a`: `row_cols[row_ptr[i]..row_ptr[i+1]]`
    /// are the structural columns with a nonzero in row `i`, ascending. The
    /// dual ratio test scans only these (plus the row's logical) for rows
    /// where the BTRAN pivot row is nonzero — every other column's pivot-row
    /// entry is structurally zero.
    pub row_ptr: Vec<u32>,
    /// Column ids backing `row_ptr` (see there).
    pub row_cols: Vec<u32>,
    /// [`SparseMatrix::fingerprint`] of `a`.
    pub fingerprint: u64,
}

impl Structure {
    /// Assembles the structure from scratch; cost is linear in the nonzeros.
    pub fn build(p: &Problem) -> Structure {
        let n = p.vars.len();
        let m = p.cons.len();
        let a = p.structural_matrix();
        // Transpose the CSC pattern into a CSR pattern (values dropped).
        // Visiting columns in ascending order keeps each row's column list
        // ascending, which the dual candidate scan relies on.
        let mut row_ptr = vec![0u32; m + 1];
        for j in 0..n {
            for (i, _) in a.col_iter(j) {
                row_ptr[i as usize + 1] += 1;
            }
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut fill: Vec<u32> = row_ptr[..m].to_vec();
        let mut row_cols = vec![0u32; row_ptr[m] as usize];
        for j in 0..n {
            for (i, _) in a.col_iter(j) {
                let slot = &mut fill[i as usize];
                row_cols[*slot as usize] = j as u32;
                *slot += 1;
            }
        }
        let fingerprint = a.fingerprint();
        Structure {
            a,
            row_ptr,
            row_cols,
            fingerprint,
        }
    }
}

/// The canonicalised problem seen by the revised engine.
#[derive(Debug)]
pub struct Canon<'a> {
    /// Number of structural columns (== user variables).
    pub n: usize,
    /// Number of rows (== user constraints).
    pub m: usize,
    /// The matrix side, borrowed from the problem's cache.
    pub s: &'a Structure,
    /// Lower bound per column (`n + m` entries, logicals included).
    pub lb: Vec<f64>,
    /// Upper bound per column.
    pub ub: Vec<f64>,
    /// Objective per column (0 for logicals).
    pub cost: Vec<f64>,
    /// Right-hand side per row.
    pub b: Vec<f64>,
    /// User objective constant.
    pub obj_constant: f64,
}

impl<'a> Canon<'a> {
    /// Builds the canonical form over the problem's cached structure: the
    /// `O(n + m)` bound, cost and RHS copies, plus the structure itself when
    /// a structural edit has dropped it since the last solve.
    pub fn build(p: &'a Problem) -> Canon<'a> {
        let n = p.vars.len();
        let m = p.cons.len();
        let total = n + m;

        let mut lb = Vec::with_capacity(total);
        let mut ub = Vec::with_capacity(total);
        let mut cost = Vec::with_capacity(total);

        for v in &p.vars {
            lb.push(v.lb);
            ub.push(v.ub);
            cost.push(v.obj);
        }

        let mut b = Vec::with_capacity(m);
        for c in &p.cons {
            b.push(c.rhs);
            let (l, u) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(l);
            ub.push(u);
            cost.push(0.0);
        }

        Canon {
            n,
            m,
            s: p.structure(),
            lb,
            ub,
            cost,
            b,
            obj_constant: p.obj_constant,
        }
    }

    /// Dot product of a dense row-space vector with column `j` (structural
    /// or logical).
    #[inline]
    pub fn col_dot(&self, y: &[f64], j: usize) -> f64 {
        if j < self.n {
            self.s.a.col_dot(y, j)
        } else {
            y[j - self.n]
        }
    }

    /// Scatters column `j` into the dense buffer `out` (assumed zeroed).
    #[inline]
    pub fn scatter_col(&self, j: usize, out: &mut [f64]) {
        if j < self.n {
            self.s.a.scatter_col(j, out);
        } else {
            out[j - self.n] += 1.0;
        }
    }

    /// Appends basis column `j`'s sparse entries to `out` (sorted by row).
    #[inline]
    pub fn push_col(&self, j: usize, out: &mut Vec<(u32, f64)>) {
        if j < self.n {
            out.extend(self.s.a.col_iter(j));
        } else {
            out.push(((j - self.n) as u32, 1.0));
        }
    }
}
