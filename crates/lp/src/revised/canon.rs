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
//! [`Problem`] stores its values in exactly this layout — `lb`, `ub` and
//! `cost` over all `n + m` columns, `rhs` over the rows, each edit written
//! where the engine will read it — so the canonical form is not built: a
//! [`Canon`] is a borrow of those four arrays beside the [`Structure`].
//!
//! The structural block is held as a CSC [`SparseMatrix`]
//! ([`Problem::structural_matrix`]); logical columns are implicit unit
//! vectors and never materialized. Everything that depends on the matrix
//! alone is a [`Structure`], built once per structural edit and cached in the
//! [`Problem`].

use crate::model::Problem;
use crate::sparse::SparseMatrix;

/// The part of the canonical form that depends on the constraint matrix
/// alone: immutable once built, shared behind an `Arc` by a [`Problem`] and
/// its clones until the next structural edit.
#[derive(Debug)]
pub(crate) struct Structure {
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
    /// The coefficient of each `row_cols` entry, so a pivot row
    /// `ρᵀA` can be accumulated row by row over the nonzeros of `ρ`.
    pub row_vals: Vec<f64>,
    /// [`SparseMatrix::fingerprint`] of `a`.
    pub fingerprint: u64,
}

impl Structure {
    /// Assembles the structure from scratch; cost is linear in the nonzeros.
    pub(crate) fn build(p: &Problem) -> Structure {
        let (n, m) = (p.num_vars(), p.num_cons());
        let a = p.structural_matrix();
        // Transpose the CSC matrix into CSR. Visiting columns in ascending
        // order keeps each row's column list ascending, which the dual
        // candidate scan relies on.
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
        let mut row_vals = vec![0.0f64; row_ptr[m] as usize];
        for j in 0..n {
            for (i, v) in a.col_iter(j) {
                let slot = &mut fill[i as usize];
                row_cols[*slot as usize] = j as u32;
                row_vals[*slot as usize] = v;
                *slot += 1;
            }
        }
        let fingerprint = a.fingerprint();
        Structure {
            a,
            row_ptr,
            row_cols,
            row_vals,
            fingerprint,
        }
    }
}

/// The problem as the revised engine sees it: a view, nothing copied.
#[derive(Debug)]
pub(crate) struct Canon<'a> {
    /// Number of structural columns (== user variables).
    pub n: usize,
    /// Number of rows (== user constraints).
    pub m: usize,
    /// The matrix side, borrowed from the problem's cache.
    pub s: &'a Structure,
    /// Lower bound per column (`n + m` entries, logicals included).
    pub lb: &'a [f64],
    /// Upper bound per column.
    pub ub: &'a [f64],
    /// Objective per column (0 for logicals).
    pub cost: &'a [f64],
    /// Right-hand side per row.
    pub b: &'a [f64],
    /// User objective constant.
    pub obj_constant: f64,
}

impl<'a> Canon<'a> {
    /// Borrows `p`'s value arrays and its cached structure (built here when
    /// a structural edit has dropped it since the last solve).
    pub(crate) fn new(p: &'a Problem) -> Canon<'a> {
        Canon {
            n: p.num_vars(),
            m: p.num_cons(),
            s: p.structure(),
            lb: &p.lb,
            ub: &p.ub,
            cost: &p.cost,
            b: &p.rhs,
            obj_constant: p.obj_constant,
        }
    }

    /// Marks in `bits` (one bit per column, logicals included) every column
    /// that can have a nonzero entry in the pivot row `ρᵀ[A I]` — a
    /// structural column with a coefficient in some row where `ρ ≠ 0`, and
    /// that row's own logical — and adds each structural one's entry
    /// `Σ_i ρ_i·a_ij` into `acc[j]` (zero on entry). Rows are visited in
    /// ascending order, so a column's nonzero terms arrive in the order
    /// [`Canon::col_dot`] adds them and the terms left out are exact zeros:
    /// where the sum is nonzero it has `col_dot(ρ, j)`'s bits.
    pub(crate) fn mark_pivot_row(&self, rho: &[f64], bits: &mut [u64], acc: &mut [f64]) {
        for (i, &ri) in rho.iter().enumerate() {
            if ri == 0.0 {
                continue;
            }
            let (lo, hi) = (self.s.row_ptr[i] as usize, self.s.row_ptr[i + 1] as usize);
            for (&j, &a) in self.s.row_cols[lo..hi].iter().zip(&self.s.row_vals[lo..hi]) {
                bits[j as usize >> 6] |= 1u64 << (j & 63);
                acc[j as usize] += ri * a;
            }
            // A logical column is the unit vector of its own row.
            let l = self.n + i;
            bits[l >> 6] |= 1u64 << (l & 63);
        }
    }

    /// Dot product of a dense row-space vector with column `j` (structural
    /// or logical).
    #[inline]
    pub(crate) fn col_dot(&self, y: &[f64], j: usize) -> f64 {
        if j < self.n {
            self.s.a.col_dot(y, j)
        } else {
            y[j - self.n]
        }
    }

    /// Scatters column `j` into the dense buffer `out` (assumed zeroed).
    #[inline]
    pub(crate) fn scatter_col(&self, j: usize, out: &mut [f64]) {
        if j < self.n {
            self.s.a.scatter_col(j, out);
        } else {
            out[j - self.n] += 1.0;
        }
    }

    /// Appends basis column `j`'s sparse entries to `out` (sorted by row).
    #[inline]
    pub(crate) fn push_col(&self, j: usize, out: &mut Vec<(u32, f64)>) {
        if j < self.n {
            out.extend(self.s.a.col_iter(j));
        } else {
            out.push(((j - self.n) as u32, 1.0));
        }
    }
}

/// Calls `visit` with the index of every set bit of `bits`, ascending,
/// leaving `bits` all zero; returns how many there were.
pub(crate) fn drain_ascending(bits: &mut [u64], mut visit: impl FnMut(usize)) -> usize {
    let mut count = 0;
    for (w, word) in bits.iter_mut().enumerate() {
        let mut rest = std::mem::take(word);
        count += rest.count_ones() as usize;
        while rest != 0 {
            visit((w << 6) + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
    count
}
