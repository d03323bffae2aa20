//! The slow twins of the sparse LU, kept as **oracles**: the classic dense
//! [`Lu`], the pre-bucketing [`SparseLu::factor_rescan`], and the dense
//! triangular replays [`SparseLu::solve`] / [`SparseLu::solve_t`].
//!
//! Compiled only under `cfg(test)` — the property
//! suites assert the production paths match these bitwise and count the
//! rescan's scan work as the baseline the bucketed search is pinned
//! against. Nothing in the shipping library calls into this module.

use super::{SparseLu, MARKOWITZ_TAU, SINGULAR_TOL};

/// Dense LU factorization `P·B = L·U` with partial pivoting.
///
/// Storage is the classic packed form: `f` holds `U` on and above the
/// diagonal and the unit-lower-triangular `L` (without its diagonal) below.
/// Retained as the reference oracle; production solves use [`SparseLu`].
#[derive(Debug, Clone)]
pub(crate) struct Lu {
    m: usize,
    f: Vec<f64>,
    /// Row swapped with `k` at elimination step `k`.
    piv: Vec<usize>,
}

impl Lu {
    /// Factorizes a dense `m × m` matrix given in row-major order.
    ///
    /// Returns `None` when the matrix is numerically singular *relative to
    /// its own scale*; callers are expected to repair or rebuild the basis.
    pub(crate) fn factor(mut a: Vec<f64>, m: usize) -> Option<Lu> {
        debug_assert_eq!(a.len(), m * m);
        let max_abs = a.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        if m > 0 && max_abs == 0.0 {
            return None;
        }
        let tol = SINGULAR_TOL * max_abs;
        let mut piv = vec![0usize; m];
        for k in 0..m {
            // Partial pivoting: largest magnitude in column k at/below row k.
            let mut best = k;
            let mut best_val = a[k * m + k].abs();
            for i in (k + 1)..m {
                let v = a[i * m + k].abs();
                if v > best_val {
                    best_val = v;
                    best = i;
                }
            }
            if best_val <= tol {
                return None;
            }
            piv[k] = best;
            if best != k {
                for j in 0..m {
                    a.swap(k * m + j, best * m + j);
                }
            }
            let inv = 1.0 / a[k * m + k];
            for i in (k + 1)..m {
                let l = a[i * m + k] * inv;
                a[i * m + k] = l;
                if l != 0.0 {
                    for j in (k + 1)..m {
                        a[i * m + j] -= l * a[k * m + j];
                    }
                }
            }
        }
        Some(Lu { m, f: a, piv })
    }

    /// Solves `B·x = v` in place (`v` becomes `x`).
    pub(crate) fn solve(&self, v: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        // Apply P.
        for k in 0..m {
            if self.piv[k] != k {
                v.swap(k, self.piv[k]);
            }
        }
        // Forward: L·z = P·v (unit diagonal).
        for i in 1..m {
            let mut s = v[i];
            for j in 0..i {
                s -= self.f[i * m + j] * v[j];
            }
            v[i] = s;
        }
        // Backward: U·x = z.
        for i in (0..m).rev() {
            let mut s = v[i];
            for j in (i + 1)..m {
                s -= self.f[i * m + j] * v[j];
            }
            v[i] = s / self.f[i * m + i];
        }
    }

    /// Solves `Bᵀ·y = w` in place (`w` becomes `y`).
    pub(crate) fn solve_t(&self, w: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(w.len(), m);
        // Bᵀ = Uᵀ·Lᵀ·P⁻ᵀ: solve Uᵀ·t = w (forward), Lᵀ·s = t (backward),
        // then y = Pᵀ·s (undo swaps in reverse).
        for i in 0..m {
            let mut s = w[i];
            for j in 0..i {
                s -= self.f[j * m + i] * w[j];
            }
            w[i] = s / self.f[i * m + i];
        }
        for i in (0..m).rev() {
            let mut s = w[i];
            for j in (i + 1)..m {
                s -= self.f[j * m + i] * w[j];
            }
            w[i] = s;
        }
        for k in (0..m).rev() {
            if self.piv[k] != k {
                w.swap(k, self.piv[k]);
            }
        }
    }
}

impl SparseLu {
    /// The pre-bucketing factorization: identical elimination and pivot
    /// rule, but pivot selection rescans every active column (Θ(m) per
    /// stage) and gathers the pivot column by probing every active row.
    ///
    /// Retained as the scan-work baseline and as the equivalence oracle
    /// for the bucketed path's property tests; its selection effort
    /// is likewise reported through [`SparseLu::pivot_scan_work`].
    pub(crate) fn factor_rescan<F>(m: usize, mut col: F) -> Option<SparseLu>
    where
        F: FnMut(usize, &mut Vec<(u32, f64)>),
    {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut col_count = vec![0usize; m];
        let mut buf: Vec<(u32, f64)> = Vec::new();
        let mut max_abs = 0.0f64;
        let mut nnz_input = 0usize;
        for pos in 0..m {
            buf.clear();
            col(pos, &mut buf);
            for &(i, v) in &buf {
                debug_assert!((i as usize) < m);
                if v != 0.0 {
                    rows[i as usize].push((pos as u32, v));
                    col_count[pos] += 1;
                    max_abs = max_abs.max(v.abs());
                    nnz_input += 1;
                }
            }
        }
        if m > 0 && max_abs == 0.0 {
            return None;
        }
        let (mut l_stage, mut u_stage) = (Vec::new(), Vec::new());
        let mut lu = SparseLu::begin(m, nnz_input, max_abs, &mut l_stage, &mut u_stage);
        let (sing_tol, drop_tol) = (lu.sing_tol, lu.drop_tol);
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        let mut pivcol: Vec<(usize, f64)> = Vec::new();
        let mut merged: Vec<(u32, f64)> = Vec::new();
        let mut tried = vec![false; m];
        let mut work = 0u64;

        for _stage in 0..m {
            // ---- pivot column: fewest active nonzeros, numerically alive.
            let (c, colmax) = loop {
                let mut best: Option<(usize, usize)> = None; // (count, col)
                for j in 0..m {
                    if !col_active[j] || tried[j] {
                        continue;
                    }
                    work += 1;
                    if best.is_none_or(|(cnt, _)| col_count[j] < cnt) {
                        best = Some((col_count[j], j));
                    }
                }
                let Some((count, j)) = best else {
                    return None; // every remaining column is numerically dead
                };
                if count == 0 {
                    return None; // structurally singular
                }
                // Gather column j's active entries.
                pivcol.clear();
                let mut colmax = 0.0f64;
                for (i, row) in rows.iter().enumerate() {
                    if !row_active[i] {
                        continue;
                    }
                    work += 1;
                    if let Ok(k) = row.binary_search_by_key(&(j as u32), |&(c, _)| c) {
                        let v = row[k].1;
                        pivcol.push((i, v));
                        colmax = colmax.max(v.abs());
                    }
                }
                if colmax > sing_tol {
                    break (j, colmax);
                }
                tried[j] = true; // numerically dead at this stage; try another
            };
            for t in tried.iter_mut() {
                *t = false;
            }

            // ---- pivot row: shortest eligible row (Markowitz), tie on |a|.
            let threshold = MARKOWITZ_TAU * colmax;
            let mut best: Option<(usize, f64)> = None; // (row, value)
            let mut best_len = usize::MAX;
            for &(i, v) in &pivcol {
                if v.abs() < threshold || v.abs() <= sing_tol {
                    continue;
                }
                let len = rows[i].len();
                let better = match best {
                    None => true,
                    Some((_, bv)) => len < best_len || (len == best_len && v.abs() > bv.abs()),
                };
                if better {
                    best = Some((i, v));
                    best_len = len;
                }
            }
            let (r, p) = best.expect("colmax passed the threshold, so a row exists");

            // ---- retire the pivot row and column.
            row_active[r] = false;
            col_active[c] = false;
            let mut prow = std::mem::take(&mut rows[r]);
            for &(j, _) in &prow {
                col_count[j as usize] -= 1;
            }
            let pk = prow
                .iter()
                .position(|&(j, _)| j as usize == c)
                .expect("pivot entry is in the pivot row");
            prow.remove(pk);

            // ---- eliminate: row_i ← row_i − (a_ic / p)·prow.
            let mut lcol: Vec<(u32, f64)> = Vec::new();
            for &(i, a_ic) in &pivcol {
                if i == r {
                    continue;
                }
                let l = a_ic / p;
                lcol.push((i as u32, l));
                let row = std::mem::take(&mut rows[i]);
                merged.clear();
                merged.reserve(row.len() + prow.len());
                let mut a = row.iter().peekable();
                let mut b = prow.iter().peekable();
                loop {
                    match (a.peek(), b.peek()) {
                        (Some(&&(ja, va)), Some(&&(jb, vb))) => {
                            if ja < jb {
                                if ja as usize != c {
                                    merged.push((ja, va));
                                }
                                a.next();
                            } else if jb < ja {
                                let nv = -l * vb;
                                if nv.abs() > drop_tol {
                                    merged.push((jb, nv));
                                    col_count[jb as usize] += 1;
                                }
                                b.next();
                            } else {
                                if ja as usize != c {
                                    let nv = va - l * vb;
                                    if nv.abs() > drop_tol {
                                        merged.push((ja, nv));
                                    } else {
                                        col_count[ja as usize] -= 1;
                                    }
                                }
                                a.next();
                                b.next();
                            }
                        }
                        (Some(&&(ja, va)), None) => {
                            if ja as usize != c {
                                merged.push((ja, va));
                            }
                            a.next();
                        }
                        (None, Some(&&(jb, vb))) => {
                            let nv = -l * vb;
                            if nv.abs() > drop_tol {
                                merged.push((jb, nv));
                                col_count[jb as usize] += 1;
                            }
                            b.next();
                        }
                        (None, None) => break,
                    }
                }
                rows[i] = std::mem::take(&mut merged);
                merged = row;
            }

            lu.push_stage(r, c, p, &lcol, &prow);
        }
        lu.pivot_scan_work = work;
        lu.seal(&mut l_stage, &mut u_stage)
    }

    /// Solves `B·x = v` in place (`v` becomes `x`), skipping elimination
    /// stages whose pivot-row value is exactly zero — the dense replay used
    /// directly by tests and as the `U`-side oracle.
    ///
    /// The factors are immutable: all intermediate state goes into
    /// `scratch` (resized as needed, every read position written first), so
    /// concurrent solves of one factorization only need distinct scratches.
    pub(crate) fn solve(&self, v: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        if scratch.len() < m {
            scratch.resize(m, 0.0);
        }
        // Forward replay of the elimination on the RHS (row-indexed).
        for k in 0..m {
            let vk = v[self.perm_row[k] as usize];
            if vk != 0.0 {
                for &(i, l) in self.lcol(k) {
                    v[i as usize] -= l * vk;
                }
            }
        }
        // Back substitution into a column-indexed result. Every position of
        // the scratch is written exactly once (the pivot columns form a
        // permutation) and entries are only read after their own stage, so
        // no zeroing is needed. Zero numerators short-circuit the division
        // so the result is bitwise comparable with the worklist path.
        let x = &mut scratch[..m];
        for k in (0..m).rev() {
            let mut s = v[self.perm_row[k] as usize];
            for &(j, u) in self.urow(k) {
                let xj = x[j as usize];
                if xj != 0.0 {
                    s -= u * xj;
                }
            }
            x[self.perm_col[k] as usize] = if s == 0.0 { 0.0 } else { s / self.pivots[k] };
        }
        v.copy_from_slice(x);
    }

    /// Solves `Bᵀ·y = w` in place (`w` becomes `y`); `w` is indexed by basis
    /// position on entry and by row on exit.
    ///
    /// Same contract as [`SparseLu::solve`]: immutable factors, all state in
    /// the caller's scratch.
    pub(crate) fn solve_t(&self, w: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        debug_assert_eq!(w.len(), m);
        if scratch.len() < m {
            scratch.resize(m, 0.0);
        }
        // Forward pass over stages: Uᵀ·t = w, scattering each resolved t
        // into the still-pending positions. The scratch needs no zeroing:
        // every pivot row is written before any backward-pass read.
        let t = &mut scratch[..m];
        for k in 0..m {
            let wk = w[self.perm_col[k] as usize];
            if wk == 0.0 {
                t[self.perm_row[k] as usize] = 0.0;
            } else {
                let tk = wk / self.pivots[k];
                t[self.perm_row[k] as usize] = tk;
                for &(j, u) in self.urow(k) {
                    w[j as usize] -= u * tk;
                }
            }
        }
        // Backward pass: apply the transposed eliminations in reverse,
        // skipping exact-zero contributions (worklist-path parity).
        for k in (0..m).rev() {
            let mut s = t[self.perm_row[k] as usize];
            for &(i, l) in self.lcol(k) {
                let ti = t[i as usize];
                if ti != 0.0 {
                    s -= l * ti;
                }
            }
            t[self.perm_row[k] as usize] = s;
        }
        w.copy_from_slice(t);
    }
}
