//! Compressed-sparse-column (CSC) matrix storage.
//!
//! The constraint matrices this crate sees are ≫90% zeros at production
//! scale (each reservation leg touches one CU row, a handful of link rows,
//! one radio row and its own two window rows), so the revised engine stores
//! the structural matrix in CSC form and the basis factorization
//! ([`crate::revised`]'s sparse LU) works directly on sparse columns.
//!
//! CSC keeps, per column, a contiguous slice of `(row, value)` pairs sorted
//! by row. That orientation matches every access pattern in the simplex:
//! pricing dots a dense row-space vector against one column (`col_dot`),
//! FTRAN scatters one column into a dense work vector (`scatter_col`), and
//! refactorization walks the basic columns in order.

/// An immutable sparse matrix in compressed-sparse-column form.
///
/// Entries within a column are sorted by row index and contain no duplicates
/// and no explicit zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` indexes column `j` in `row_idx`/`values`.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSC matrix from per-column `(row, value)` lists.
    ///
    /// Each column's entries must be sorted by row; duplicate rows within a
    /// column are summed and exact-zero results are dropped (user models may
    /// legitimately contain zero coefficients or cancelling duplicates).
    #[cfg(test)]
    pub(crate) fn from_columns(nrows: usize, columns: &[Vec<(u32, f64)>]) -> SparseMatrix {
        let nnz_bound: usize = columns.iter().map(Vec::len).sum();
        Self::assemble(
            nrows,
            columns.len(),
            nnz_bound,
            columns.iter().map(Vec::as_slice),
        )
    }

    /// `SparseMatrix::from_columns` over one flat entry array: column `j`
    /// is `entries[col_start[j]..col_start[j + 1]]`. Same contract, same
    /// result — the form a counting sort of row lists produces without one
    /// heap vector per column.
    pub(crate) fn from_flat_columns(
        nrows: usize,
        col_start: &[usize],
        entries: &[(u32, f64)],
    ) -> SparseMatrix {
        Self::assemble(
            nrows,
            col_start.len() - 1,
            entries.len(),
            col_start.windows(2).map(|w| &entries[w[0]..w[1]]),
        )
    }

    /// The one assembly loop behind both constructors.
    fn assemble<'a>(
        nrows: usize,
        ncols: usize,
        nnz_bound: usize,
        columns: impl Iterator<Item = &'a [(u32, f64)]>,
    ) -> SparseMatrix {
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::with_capacity(nnz_bound);
        let mut values = Vec::with_capacity(nnz_bound);
        col_ptr.push(0);
        for col in columns {
            let start = row_idx.len();
            for &(i, v) in col {
                debug_assert!((i as usize) < nrows, "row index out of range");
                match (row_idx.last(), values.last_mut()) {
                    (Some(&last), Some(slot)) if row_idx.len() > start && last == i => {
                        *slot += v;
                        if *slot == 0.0 {
                            row_idx.pop();
                            values.pop();
                        }
                    }
                    _ => {
                        if v != 0.0 {
                            row_idx.push(i);
                            values.push(v);
                        }
                    }
                }
            }
            debug_assert!(
                row_idx[start..].windows(2).all(|w| w[0] < w[1]),
                "column rows must be sorted"
            );
            col_ptr.push(row_idx.len());
        }
        SparseMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// The `(rows, values)` slices of column `j`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates column `j` as `(row, value)` pairs.
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (rows, vals) = self.col(j);
        rows.iter().copied().zip(vals.iter().copied())
    }

    /// Dot product of a dense row-space vector with column `j`.
    #[inline]
    pub(crate) fn col_dot(&self, y: &[f64], j: usize) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter()
            .zip(vals)
            .map(|(&i, &v)| y[i as usize] * v)
            .sum()
    }

    /// Adds column `j` into the dense buffer `out`.
    #[inline]
    pub(crate) fn scatter_col(&self, j: usize, out: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&i, &v) in rows.iter().zip(vals) {
            out[i as usize] += v;
        }
    }

    /// Order-sensitive 64-bit FNV fingerprint of the matrix contents
    /// (shape, structure, and value bit patterns).
    ///
    /// Used to decide whether a persisted basis factorization still matches
    /// a problem's constraint matrix: edits that keep the matrix intact
    /// (RHS, bounds, objective) keep the fingerprint, anything that touches
    /// coefficients changes it.
    pub fn fingerprint(&self) -> u64 {
        fn fnv(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x100_0000_01b3)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = fnv(h, self.nrows as u64);
        h = fnv(h, self.ncols as u64);
        for &p in &self.col_ptr {
            h = fnv(h, p as u64);
        }
        for (&i, &v) in self.row_idx.iter().zip(&self.values) {
            h = fnv(h, i as u64);
            h = fnv(h, v.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_columns_sums_duplicates_and_drops_zeros() {
        let cols = vec![
            vec![(0, 1.0), (2, 3.0)],
            vec![(1, 2.0), (1, -2.0), (3, 0.5)], // duplicate cancels
            vec![],
            vec![(0, 0.0), (3, 4.0)], // explicit zero dropped
        ];
        let m = SparseMatrix::from_columns(4, &cols);
        assert_eq!((m.nrows, m.ncols, m.values.len()), (4, 4, 4));
        assert_eq!(m.col(0), (&[0u32, 2][..], &[1.0, 3.0][..]));
        assert_eq!(m.col(1), (&[3u32][..], &[0.5][..]));
        assert_eq!(m.col(2), (&[][..], &[][..]));
        assert_eq!(m.col(3), (&[3u32][..], &[4.0][..]));
    }

    #[test]
    fn col_dot_and_scatter_match_dense() {
        let cols = vec![vec![(0, 2.0), (2, -1.0)], vec![(1, 4.0)]];
        let m = SparseMatrix::from_columns(3, &cols);
        let y = [1.0, 2.0, 3.0];
        assert!((m.col_dot(&y, 0) - (2.0 - 3.0)).abs() < 1e-15);
        assert!((m.col_dot(&y, 1) - 8.0).abs() < 1e-15);
        let mut out = [0.0; 3];
        m.scatter_col(0, &mut out);
        assert_eq!(out, [2.0, 0.0, -1.0]);
    }
}
