//! The factor layout before flat storage — `L`, `U` and every adjacency a
//! `Vec` per stage, row or slot, one heap block per row eta — kept as the
//! **specification** the flat [`SparseLu`](super::SparseLu) /
//! [`Factorization`](super::Factorization) refine: the code as it stood
//! before them, renamed. `flat_factors_refine_the_jagged_factors` asserts
//! that every factor array, solve, spike and update verdict of the flat
//! layout equals this one's bit for bit. Test builds only.

use super::{
    heap_pop, heap_push, use_hypersparse, wl_key, CountBuckets, SolveScratch, DROP_TOL,
    FT_PIVOT_REL, MARKOWITZ_TAU, SINGULAR_TOL, WL_SLOT_MASK,
};
use std::sync::Arc;

/// Sparse LU factorization with Markowitz pivoting and drop-tolerance
/// handling (see the module docs).
///
/// The elimination is recorded stage by stage in terms of the *original*
/// row indices and column positions, so the triangular solves are simple
/// replays: no explicit permutation matrices are materialized. The
/// row-indexed adjacency (`stage_of_row`, `lrow_stages`) backs the
/// hyper-sparse `L` passes.
#[derive(Debug, Clone)]
pub(super) struct JaggedLu {
    m: usize,
    /// Stage `k` pivoted original row `perm_row[k]`…
    pub(super) perm_row: Vec<u32>,
    /// …against basis position (column) `perm_col[k]`.
    pub(super) perm_col: Vec<u32>,
    /// Pivot values per stage.
    pub(super) pivots: Vec<f64>,
    /// Column of `L` per stage: `(original row, multiplier)` for every row
    /// eliminated at that stage.
    pub(super) lcols: Vec<Vec<(u32, f64)>>,
    /// Row of `U` per stage: the pivot row *excluding* the pivot entry, as
    /// `(basis position, value)` — all positions pivot at later stages.
    pub(super) urows: Vec<Vec<(u32, f64)>>,
    /// Nonzeros of the input matrix (for the fill-in statistic).
    nnz_input: usize,
    /// Stage that pivoted each original row (inverse of `perm_row`).
    pub(super) stage_of_row: Vec<u32>,
    /// Stages whose `L` column references each original row.
    pub(super) lrow_stages: Vec<Vec<u32>>,
    /// Scale-relative singularity floor captured at factor time, reused by
    /// the Forrest–Tomlin update's pivot acceptance test.
    sing_tol: f64,
    /// Scale-relative drop tolerance captured at factor time (spike entries
    /// below it are not folded into the update).
    drop_tol: f64,
    /// Pivot-selection effort: candidate entries examined while choosing
    /// pivots (bucket pops + adjacency gathers here; full rescans in the
    /// `factor_rescan` oracle).
    pivot_scan_work: u64,
}

impl JaggedLu {
    /// Factorizes the `m × m` matrix whose column at position `pos` is
    /// produced by `col(pos, &mut buf)` as sorted `(row, value)` pairs,
    /// selecting pivots through the bucketed-Markowitz structures.
    ///
    /// Returns `None` when the matrix is singular relative to its scale.
    /// Chooses the *identical* pivot sequence to the `factor_rescan` oracle
    /// (lowest-index column of minimum count; shortest eligible row), so the
    /// two produce bitwise-equal factors — only the selection cost differs.
    pub(super) fn factor<F>(m: usize, mut col: F) -> Option<JaggedLu>
    where
        F: FnMut(usize, &mut Vec<(u32, f64)>),
    {
        // Assemble the working matrix as sparse rows (sorted by column:
        // columns are visited in increasing order, so pushes stay sorted),
        // mirrored by the column→candidate-rows adjacency.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); m];
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
                    col_rows[pos].push(i);
                    col_count[pos] += 1;
                    max_abs = max_abs.max(v.abs());
                    nnz_input += 1;
                }
            }
        }
        if m > 0 && max_abs == 0.0 {
            return None;
        }
        let sing_tol = SINGULAR_TOL * max_abs;
        let drop_tol = DROP_TOL * max_abs;

        let mut lu = JaggedLu {
            m,
            perm_row: Vec::with_capacity(m),
            perm_col: Vec::with_capacity(m),
            pivots: Vec::with_capacity(m),
            lcols: Vec::with_capacity(m),
            urows: Vec::with_capacity(m),
            nnz_input,
            stage_of_row: Vec::new(),
            lrow_stages: Vec::new(),
            sing_tol,
            drop_tol,
            pivot_scan_work: 0,
        };
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        let mut buckets = CountBuckets::default();
        buckets.reset(m);
        for (j, &cnt) in col_count.iter().enumerate() {
            buckets.push(cnt, j);
        }
        // Entries of the current pivot column: (row, value) among active rows.
        let mut pivcol: Vec<(usize, f64)> = Vec::new();
        // Scratch for merged row updates.
        let mut merged: Vec<(u32, f64)> = Vec::new();
        // Columns found numerically deficient *this stage* (entries may grow
        // back through later updates, so the exclusion is per-stage only:
        // they re-enter the buckets once the stage's pivot is fixed).
        let mut deferred: Vec<u32> = Vec::new();
        // Gather dedup (the adjacency may hold duplicate candidates for a
        // row that dropped and re-grew an entry).
        let mut row_seen = vec![0u32; m];
        let mut seen_gen = 0u32;
        let mut work = 0u64;

        for _stage in 0..m {
            // ---- pivot column: fewest active nonzeros, numerically alive.
            let (c, colmax) = loop {
                let Some(j) = buckets.pop_live(&col_active, &col_count, &mut work) else {
                    return None; // every remaining column is numerically dead
                };
                if col_count[j] == 0 {
                    return None; // structurally singular
                }
                // Gather column j's live entries through the adjacency,
                // deduplicating and compacting it in passing.
                seen_gen += 1;
                pivcol.clear();
                let mut colmax = 0.0f64;
                let mut cand = std::mem::take(&mut col_rows[j]);
                work += cand.len() as u64;
                cand.retain(|&i| {
                    let iu = i as usize;
                    if row_seen[iu] == seen_gen || !row_active[iu] {
                        return false;
                    }
                    row_seen[iu] = seen_gen;
                    match rows[iu].binary_search_by_key(&(j as u32), |&(c, _)| c) {
                        Ok(k) => {
                            let v = rows[iu][k].1;
                            pivcol.push((iu, v));
                            colmax = colmax.max(v.abs());
                            true
                        }
                        Err(_) => false,
                    }
                });
                col_rows[j] = cand;
                if colmax > sing_tol {
                    // Old-code parity: candidates in ascending row order.
                    pivcol.sort_unstable_by_key(|&(i, _)| i);
                    break (j, colmax);
                }
                deferred.push(j as u32); // numerically dead at this stage
            };
            for j in deferred.drain(..) {
                if col_active[j as usize] {
                    buckets.push(col_count[j as usize], j as usize);
                }
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
                let ju = j as usize;
                col_count[ju] -= 1;
                if col_active[ju] {
                    buckets.push(col_count[ju], ju);
                }
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
                                // Fill-in candidate.
                                let nv = -l * vb;
                                if nv.abs() > drop_tol {
                                    merged.push((jb, nv));
                                    let jbu = jb as usize;
                                    col_count[jbu] += 1;
                                    col_rows[jb as usize].push(i as u32);
                                    buckets.push(col_count[jbu], jbu);
                                }
                                b.next();
                            } else {
                                if ja as usize != c {
                                    let nv = va - l * vb;
                                    if nv.abs() > drop_tol {
                                        merged.push((ja, nv));
                                    } else {
                                        let jau = ja as usize;
                                        col_count[jau] -= 1;
                                        buckets.push(col_count[jau], jau);
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
                                let jbu = jb as usize;
                                col_count[jbu] += 1;
                                col_rows[jbu].push(i as u32);
                                buckets.push(col_count[jbu], jbu);
                            }
                            b.next();
                        }
                        (None, None) => break,
                    }
                }
                // Install the merged row and recycle the old allocation as
                // the next merge scratch.
                rows[i] = std::mem::take(&mut merged);
                merged = row;
            }

            lu.perm_row.push(r as u32);
            lu.perm_col.push(c as u32);
            lu.pivots.push(p);
            lu.lcols.push(lcol);
            lu.urows.push(prow);
        }
        lu.pivot_scan_work = work;
        lu.build_adjacency();
        Some(lu)
    }

    /// Builds the row-indexed adjacency that backs the hyper-sparse `L`
    /// passes: `stage_of_row` (inverse pivot-row permutation) and
    /// `lrow_stages` (which stages' `L` columns reference each row).
    fn build_adjacency(&mut self) {
        let m = self.m;
        self.stage_of_row = vec![0; m];
        for (k, &r) in self.perm_row.iter().enumerate() {
            self.stage_of_row[r as usize] = k as u32;
        }
        self.lrow_stages = vec![Vec::new(); m];
        for (k, lcol) in self.lcols.iter().enumerate() {
            for &(i, _) in lcol {
                self.lrow_stages[i as usize].push(k as u32);
            }
        }
    }

    fn dim(&self) -> usize {
        self.m
    }

    /// Fill-in: factor nonzeros beyond the input matrix's nonzeros.
    pub(super) fn fill_in(&self) -> usize {
        let l: usize = self.lcols.iter().map(Vec::len).sum();
        let u: usize = self.urows.iter().map(Vec::len).sum();
        (l + u + self.m).saturating_sub(self.nnz_input)
    }

    /// Pivot-selection effort spent factorizing (see the module docs): the
    /// number of candidate entries examined while choosing pivot columns.
    pub(super) fn pivot_scan_work(&self) -> u64 {
        self.pivot_scan_work
    }

    /// Forward `L` replay on a row-indexed RHS (the first half of FTRAN),
    /// dense sweep.
    fn l_forward_dense(&self, v: &mut [f64]) {
        for k in 0..self.m {
            let vk = v[self.perm_row[k] as usize];
            if vk != 0.0 {
                for &(i, l) in &self.lcols[k] {
                    v[i as usize] -= l * vk;
                }
            }
        }
    }

    /// Worklist forward `L` replay: visits only stages reachable from the
    /// seed rows. Every row whose value may have changed (seeds plus
    /// scattered rows) is appended to `nzrows` exactly once. Bitwise
    /// identical to [`JaggedLu::l_forward_dense`].
    ///
    /// `row_mark`/`mark_gen` deduplicate rows, `heap` orders pending stages
    /// ascending.
    fn l_forward_sparse(
        &self,
        v: &mut [f64],
        seeds: &[u32],
        nzrows: &mut Vec<u32>,
        row_mark: &mut [u32],
        mark_gen: u32,
        heap: &mut Vec<u64>,
    ) {
        debug_assert!(heap.is_empty());
        for &r in seeds {
            let ru = r as usize;
            if row_mark[ru] != mark_gen {
                row_mark[ru] = mark_gen;
                nzrows.push(r);
                heap_push(heap, self.stage_of_row[ru] as u64);
            }
        }
        while let Some(k) = heap_pop(heap) {
            let k = k as usize;
            let vk = v[self.perm_row[k] as usize];
            if vk == 0.0 {
                continue;
            }
            for &(i, l) in &self.lcols[k] {
                let iu = i as usize;
                v[iu] -= l * vk;
                if row_mark[iu] != mark_gen {
                    row_mark[iu] = mark_gen;
                    nzrows.push(i);
                    heap_push(heap, self.stage_of_row[iu] as u64);
                }
            }
        }
    }

    /// Backward transposed-`L` replay on a row-indexed vector (the second
    /// half of BTRAN), dense sweep. Skips exact-zero contributions for
    /// worklist-path parity.
    fn lt_backward_dense(&self, t: &mut [f64]) {
        for k in (0..self.m).rev() {
            let mut s = t[self.perm_row[k] as usize];
            for &(i, l) in &self.lcols[k] {
                let ti = t[i as usize];
                if ti != 0.0 {
                    s -= l * ti;
                }
            }
            t[self.perm_row[k] as usize] = s;
        }
    }

    /// Worklist backward transposed-`L` replay: a stage must run when its
    /// pivot row or any row its `L` column references is nonzero, so
    /// activating a row schedules its own stage plus every referencing
    /// stage (`lrow_stages`). Descending stage order via complemented keys.
    /// Bitwise identical to [`JaggedLu::lt_backward_dense`].
    fn lt_backward_sparse(
        &self,
        t: &mut [f64],
        seeds: &[u32],
        row_mark: &mut [u32],
        mark_gen: u32,
        heap: &mut Vec<u64>,
    ) {
        debug_assert!(heap.is_empty());
        // Activation: schedule the row's stage and its referencing stages.
        macro_rules! activate {
            ($row:expr) => {{
                let ru = $row as usize;
                if row_mark[ru] != mark_gen {
                    row_mark[ru] = mark_gen;
                    heap_push(heap, !(self.stage_of_row[ru] as u64));
                    for &k in &self.lrow_stages[ru] {
                        heap_push(heap, !(k as u64));
                    }
                }
            }};
        }
        for &r in seeds {
            if t[r as usize] != 0.0 {
                activate!(r);
            }
        }
        let mut last = u64::MAX;
        while let Some(key) = heap_pop(heap) {
            let k = (!key) as usize;
            if key == last {
                continue; // duplicate stage (activated via several rows)
            }
            last = key;
            let pr = self.perm_row[k] as usize;
            let mut s = t[pr];
            for &(i, l) in &self.lcols[k] {
                let ti = t[i as usize];
                if ti != 0.0 {
                    s -= l * ti;
                }
            }
            t[pr] = s;
            if s != 0.0 {
                activate!(pr as u32);
            }
        }
    }
}

/// One Forrest–Tomlin row eta: eliminating the displaced `U` row wrote
/// `v[target] -= Σ μᵢ·v[sourceᵢ]` into the update sequence. FTRAN applies
/// the etas in recording order after the `L` pass; BTRAN applies the
/// transposes in reverse (`v[sourceᵢ] -= μᵢ·v[target]`).
#[derive(Debug, Clone)]
struct RowEta {
    /// Original row index of the displaced pivot row.
    target: u32,
    /// `(source original row, multiplier)` pairs, in elimination order.
    terms: Vec<(u32, f64)>,
}

/// The dynamic (updatable) `U` factor: a working copy of the triangular
/// stages that Forrest–Tomlin updates rewrite in place, owned by exactly
/// one [`JaggedFactorization`] (never behind the shared [`Arc`] — that is the
/// copy-on-compress contract).
///
/// Stages live in *slots*; `order` lists the live slots in elimination
/// order (ascending `seq`, which is also heap-key order for the worklist
/// solves). An update kills the displaced slot and appends a fresh one, so
/// stale slot ids in the lazy `ucols` adjacency are detected by `alive`.
#[derive(Debug, Clone)]
struct JaggedFt {
    /// Original pivot row per slot.
    prow: Vec<u32>,
    /// Basis position per slot.
    pos: Vec<u32>,
    /// Pivot value per slot.
    pivot: Vec<f64>,
    /// Logical elimination order key per slot (monotone across updates).
    seq: Vec<u64>,
    /// Off-diagonal `U` row per slot: `(position, value)`, all positions
    /// pivoting at later slots.
    urow: Vec<Vec<(u32, f64)>>,
    /// Slot liveness (updates kill and append slots).
    alive: Vec<bool>,
    /// Live slots in elimination order.
    order: Vec<u32>,
    /// Position → live slot pivoting it.
    slot_of_pos: Vec<u32>,
    /// Original row → live slot pivoting it.
    slot_of_row: Vec<u32>,
    /// Position → slots whose `urow` *may* contain it (complete but lazily
    /// stale: dead or pruned slots are skipped on use).
    ucols: Vec<Vec<u32>>,
    /// Row etas accumulated since the last refactorization.
    row_etas: Vec<RowEta>,
    /// Updates applied since the last refactorization.
    updates: usize,
    next_seq: u64,
}

impl JaggedFt {
    /// Copies the immutable factor's `U` into slot form (slot `k` = stage
    /// `k`). This is the per-refactorization cost of updatability: O(nnz U).
    fn materialize(lu: &JaggedLu) -> JaggedFt {
        let m = lu.m;
        let mut ucols: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (k, urow) in lu.urows.iter().enumerate() {
            for &(p, _) in urow {
                ucols[p as usize].push(k as u32);
            }
        }
        let mut slot_of_pos = vec![0u32; m];
        let mut slot_of_row = vec![0u32; m];
        for k in 0..m {
            slot_of_pos[lu.perm_col[k] as usize] = k as u32;
            slot_of_row[lu.perm_row[k] as usize] = k as u32;
        }
        JaggedFt {
            prow: lu.perm_row.clone(),
            pos: lu.perm_col.clone(),
            pivot: lu.pivots.clone(),
            seq: (0..m as u64).collect(),
            urow: lu.urows.clone(),
            alive: vec![true; m],
            order: (0..m as u32).collect(),
            slot_of_pos,
            slot_of_row,
            ucols,
            row_etas: Vec::new(),
            updates: 0,
            next_seq: m as u64,
        }
    }

    /// Applies the row etas to a row-indexed vector (forward direction,
    /// recording order). Newly touched rows are marked and appended to
    /// `nzrows` when tracking is on (`track_rows`).
    fn apply_row_etas(
        &self,
        v: &mut [f64],
        nzrows: &mut Vec<u32>,
        row_mark: &mut [u32],
        mark_gen: u32,
        track_rows: bool,
    ) {
        for eta in &self.row_etas {
            let tu = eta.target as usize;
            let mut s = v[tu];
            for &(src, mu) in &eta.terms {
                let vs = v[src as usize];
                if vs != 0.0 {
                    s -= mu * vs;
                }
            }
            v[tu] = s;
            if track_rows && s != 0.0 && row_mark[tu] != mark_gen {
                row_mark[tu] = mark_gen;
                nzrows.push(eta.target);
            }
        }
    }

    /// Applies the transposed row etas to a row-indexed vector (reverse
    /// order). Newly touched rows are tracked as in
    /// [`JaggedFt::apply_row_etas`].
    fn apply_row_etas_t(
        &self,
        v: &mut [f64],
        nzrows: &mut Vec<u32>,
        row_mark: &mut [u32],
        mark_gen: u32,
        track_rows: bool,
    ) {
        for eta in self.row_etas.iter().rev() {
            let tv = v[eta.target as usize];
            if tv == 0.0 {
                continue;
            }
            for &(src, mu) in &eta.terms {
                let su = src as usize;
                v[su] -= mu * tv;
                if track_rows && row_mark[su] != mark_gen {
                    row_mark[su] = mark_gen;
                    nzrows.push(src);
                }
            }
        }
    }

    /// Dense `U` back substitution (the second half of FTRAN): row-indexed
    /// input in `v`, position-indexed result written back into `v`.
    fn u_backsub_dense(&self, v: &mut [f64], scratch: &mut SolveScratch) {
        let m = v.len();
        let x = &mut scratch.dense;
        for &slot in self.order.iter().rev() {
            let su = slot as usize;
            let mut s = v[self.prow[su] as usize];
            for &(p, u) in &self.urow[su] {
                let xp = x[p as usize];
                if xp != 0.0 {
                    s -= u * xp;
                }
            }
            x[self.pos[su] as usize] = if s == 0.0 { 0.0 } else { s / self.pivot[su] };
        }
        v.copy_from_slice(&x[..m]);
        x[..m].fill(0.0); // restore the all-zero invariant
    }

    /// Worklist `U` back substitution: seeds from the nonzero rows left by
    /// the forward half, schedules through `ucols` reachability, descending
    /// elimination order. Bitwise identical to [`JaggedFt::u_backsub_dense`].
    fn u_backsub_sparse(&self, v: &mut [f64], scratch: &mut SolveScratch, mark_gen: u32) {
        debug_assert!(scratch.heap.is_empty());
        scratch.touched.clear();
        for &r in &scratch.nzrows {
            if v[r as usize] == 0.0 {
                continue;
            }
            let slot = self.slot_of_row[r as usize];
            if scratch.slot_mark[slot as usize] != mark_gen {
                scratch.slot_mark[slot as usize] = mark_gen;
                heap_push(&mut scratch.heap, !wl_key(self.seq[slot as usize], slot));
            }
        }
        while let Some(key) = heap_pop(&mut scratch.heap) {
            let slot = ((!key) & WL_SLOT_MASK) as usize;
            let mut s = v[self.prow[slot] as usize];
            for &(p, u) in &self.urow[slot] {
                let xp = scratch.dense[p as usize];
                if xp != 0.0 {
                    s -= u * xp;
                }
            }
            let xv = if s == 0.0 { 0.0 } else { s / self.pivot[slot] };
            let pos = self.pos[slot] as usize;
            scratch.dense[pos] = xv;
            scratch.touched.push(slot as u32);
            if xv != 0.0 {
                for &s2 in &self.ucols[pos] {
                    let s2u = s2 as usize;
                    if self.alive[s2u] && scratch.slot_mark[s2u] != mark_gen {
                        scratch.slot_mark[s2u] = mark_gen;
                        heap_push(&mut scratch.heap, !wl_key(self.seq[s2u], s2));
                    }
                }
            }
        }
        // Scatter the position-indexed result and restore the zero invariant.
        v.fill(0.0);
        for &slot in &scratch.touched {
            let pos = self.pos[slot as usize] as usize;
            v[pos] = scratch.dense[pos];
            scratch.dense[pos] = 0.0;
        }
    }

    /// Dense transposed-`U` forward pass (the first half of BTRAN):
    /// position-indexed input in `w`, row-indexed result written back.
    fn ut_forward_dense(&self, w: &mut [f64], scratch: &mut SolveScratch) {
        let m = w.len();
        let t = &mut scratch.dense;
        for &slot in self.order.iter() {
            let su = slot as usize;
            let wk = w[self.pos[su] as usize];
            if wk == 0.0 {
                t[self.prow[su] as usize] = 0.0;
            } else {
                let tk = wk / self.pivot[su];
                t[self.prow[su] as usize] = tk;
                for &(p, u) in &self.urow[su] {
                    w[p as usize] -= u * tk;
                }
            }
        }
        w.copy_from_slice(&t[..m]);
        t[..m].fill(0.0);
    }

    /// Worklist transposed-`U` forward pass: seeds from the declared
    /// nonzero positions, scatters schedule the receiving position's slot,
    /// ascending elimination order. Rows written are marked into `nzrows`
    /// for the following `Lᵀ` pass. Bitwise identical to
    /// [`JaggedFt::ut_forward_dense`].
    fn ut_forward_sparse(&self, w: &mut [f64], scratch: &mut SolveScratch, mark_gen: u32) {
        debug_assert!(scratch.heap.is_empty());
        scratch.nzrows.clear();
        for i in 0..scratch.rhs_nz.len() {
            let p = scratch.rhs_nz[i] as usize;
            if w[p] == 0.0 {
                continue;
            }
            let slot = self.slot_of_pos[p];
            if scratch.slot_mark[slot as usize] != mark_gen {
                scratch.slot_mark[slot as usize] = mark_gen;
                heap_push(&mut scratch.heap, wl_key(self.seq[slot as usize], slot));
            }
        }
        while let Some(key) = heap_pop(&mut scratch.heap) {
            let slot = (key & WL_SLOT_MASK) as usize;
            let wk = w[self.pos[slot] as usize];
            if wk == 0.0 {
                continue;
            }
            let tk = wk / self.pivot[slot];
            let pr = self.prow[slot] as usize;
            scratch.dense[pr] = tk;
            if scratch.row_mark[pr] != mark_gen {
                scratch.row_mark[pr] = mark_gen;
                scratch.nzrows.push(pr as u32);
            }
            for &(p, u) in &self.urow[slot] {
                let pu = p as usize;
                w[pu] -= u * tk;
                let s2 = self.slot_of_pos[pu];
                if scratch.slot_mark[s2 as usize] != mark_gen {
                    scratch.slot_mark[s2 as usize] = mark_gen;
                    heap_push(&mut scratch.heap, wl_key(self.seq[s2 as usize], s2));
                }
            }
        }
        // Scatter the row-indexed result and restore the zero invariant.
        w.fill(0.0);
        for &r in &scratch.nzrows {
            w[r as usize] = scratch.dense[r as usize];
            scratch.dense[r as usize] = 0.0;
        }
    }
}

/// A factorized basis: immutable `L` (and the pristine `U`) behind an
/// [`Arc`], plus the owned Forrest–Tomlin state ([`JaggedFt`]) that updates
/// rewrite.
///
/// Cloning shares the `Arc` and deep-copies the dynamic state, so a basis
/// handed to several branch-and-bound workers can be updated independently
/// in each without any cross-talk (**copy-on-compress**: an update mutates
/// only the owner's private `U` working copy and row etas, never the shared
/// factors). The solves take `&self`; mutation is confined to
/// [`JaggedFactorization::push_update`].
#[derive(Debug, Clone)]
pub(super) struct JaggedFactorization {
    lu: Arc<JaggedLu>,
    ft: JaggedFt,
}

impl JaggedFactorization {
    /// Wraps a fresh LU factorization, materializing the updatable `U`.
    pub(super) fn new(lu: JaggedLu) -> Self {
        let ft = JaggedFt::materialize(&lu);
        JaggedFactorization {
            lu: Arc::new(lu),
            ft,
        }
    }

    /// Forrest–Tomlin updates folded in since the last refactorization.
    pub(super) fn update_count(&self) -> usize {
        self.ft.updates
    }

    /// FTRAN: solves `B·x = v` in place. Set `scratch.rhs_nz` to the
    /// nonzero rows of `v` to enable the hyper-sparse path (consumed
    /// either way); results are bitwise identical across paths.
    pub(super) fn ftran(&self, v: &mut [f64], scratch: &mut SolveScratch) {
        self.ftran_impl(v, scratch, false);
    }

    /// FTRAN of an *entering column*: identical solve, but additionally
    /// captures the spike — the column after `L⁻¹` and the row etas, i.e.
    /// the partially transformed column a following
    /// [`JaggedFactorization::push_update`] folds into `U`.
    pub(super) fn ftran_entering(&self, v: &mut [f64], scratch: &mut SolveScratch) {
        self.ftran_impl(v, scratch, true);
    }

    fn ftran_impl(&self, v: &mut [f64], scratch: &mut SolveScratch, capture: bool) {
        let _span = ovnes_obs::span!("lp_ftran");
        let m = self.lu.dim();
        debug_assert_eq!(v.len(), m);
        scratch.ensure(m, self.ft.prow.len());
        if use_hypersparse(m, scratch.rhs_nz.len()) {
            scratch.hs_ftrans += 1;
            let gen = scratch.next_gen();
            scratch.nzrows.clear();
            let seeds = std::mem::take(&mut scratch.rhs_nz);
            self.lu.l_forward_sparse(
                v,
                &seeds,
                &mut scratch.nzrows,
                &mut scratch.row_mark,
                gen,
                &mut scratch.heap,
            );
            scratch.rhs_nz = seeds;
            self.ft
                .apply_row_etas(v, &mut scratch.nzrows, &mut scratch.row_mark, gen, true);
            if capture {
                scratch.spike.clear();
                for &r in &scratch.nzrows {
                    let val = v[r as usize];
                    if val != 0.0 {
                        scratch.spike.push((r, val));
                    }
                }
                // Ascending row order: path-independent capture.
                scratch.spike.sort_unstable_by_key(|e| e.0);
            }
            self.ft.u_backsub_sparse(v, scratch, gen);
        } else {
            self.lu.l_forward_dense(v);
            self.ft
                .apply_row_etas(v, &mut scratch.nzrows, &mut scratch.row_mark, 0, false);
            if capture {
                scratch.spike.clear();
                for (i, &val) in v.iter().enumerate() {
                    if val != 0.0 {
                        scratch.spike.push((i as u32, val));
                    }
                }
            }
            self.ft.u_backsub_dense(v, scratch);
        }
        scratch.rhs_nz.clear();
    }

    /// BTRAN: solves `Bᵀ·y = w` in place (`w` indexed by basis position on
    /// entry, by row on exit). Set `scratch.rhs_nz` to the nonzero
    /// positions of `w` to enable the hyper-sparse path (consumed either
    /// way); results are bitwise identical across paths.
    pub(super) fn btran(&self, w: &mut [f64], scratch: &mut SolveScratch) {
        let _span = ovnes_obs::span!("lp_btran");
        let m = self.lu.dim();
        debug_assert_eq!(w.len(), m);
        scratch.ensure(m, self.ft.prow.len());
        if use_hypersparse(m, scratch.rhs_nz.len()) {
            scratch.hs_btrans += 1;
            let gen = scratch.next_gen();
            self.ft.ut_forward_sparse(w, scratch, gen);
            self.ft
                .apply_row_etas_t(w, &mut scratch.nzrows, &mut scratch.row_mark, gen, true);
            // The Lᵀ pass re-marks from a fresh generation: forward-pass
            // marks mean "row touched", activation means "stages scheduled".
            let gen2 = scratch.next_gen();
            let seeds = std::mem::take(&mut scratch.nzrows);
            self.lu
                .lt_backward_sparse(w, &seeds, &mut scratch.row_mark, gen2, &mut scratch.heap);
            scratch.nzrows = seeds;
        } else {
            self.ft.ut_forward_dense(w, scratch);
            self.ft
                .apply_row_etas_t(w, &mut scratch.nzrows, &mut scratch.row_mark, 0, false);
            self.lu.lt_backward_dense(w);
        }
        scratch.rhs_nz.clear();
    }

    /// Folds a pivot into the factors: basis position `r` now holds the
    /// column whose spike was captured by the immediately preceding
    /// [`JaggedFactorization::ftran_entering`] (held in `scratch.spike`,
    /// consumed here).
    ///
    /// Returns `false` — leaving the factorization *unchanged* — when the
    /// updated diagonal fails the stability test; the caller must then
    /// refactorize from the updated basis instead. Cost is proportional to
    /// the spike nnz plus the displaced row's fill, not to the basis
    /// dimension.
    pub(super) fn push_update(&mut self, r: usize, scratch: &mut SolveScratch) -> bool {
        let m = self.lu.dim();
        debug_assert!(r < m);
        let nslots = self.ft.prow.len();
        scratch.ensure(m, nslots + 1);
        let drop_tol = self.lu.drop_tol;
        let sing_tol = self.lu.sing_tol;
        let ft = &mut self.ft;
        let t_slot = ft.slot_of_pos[r] as usize;
        let t_seq = ft.seq[t_slot];

        // ---- scatter the spike by slot (diagonal value split off).
        let spk_gen = scratch.next_gen();
        scratch.touched.clear();
        let mut v_t = 0.0f64;
        let mut spike_max = 0.0f64;
        for &(row, val) in &scratch.spike {
            if val.abs() <= drop_tol {
                continue;
            }
            spike_max = spike_max.max(val.abs());
            let s = ft.slot_of_row[row as usize] as usize;
            if s == t_slot {
                v_t = val;
            } else {
                scratch.spk[s] = val;
                scratch.spk_mark[s] = spk_gen;
                scratch.touched.push(s as u32);
            }
        }

        // ---- eliminate the displaced row: its entries (the old U row at
        // later stages) are cancelled in ascending elimination order,
        // each cancellation scattering fill from that stage's row.
        let acc_gen = scratch.next_gen();
        debug_assert!(scratch.heap.is_empty());
        for &(p, u) in &ft.urow[t_slot] {
            let s = ft.slot_of_pos[p as usize] as usize;
            debug_assert!(ft.seq[s] > t_seq);
            scratch.acc[s] = u;
            scratch.acc_mark[s] = acc_gen;
            heap_push(&mut scratch.heap, wl_key(ft.seq[s], s as u32));
        }
        let mut new_pivot = v_t;
        let mut terms: Vec<(u32, f64)> = Vec::new();
        while let Some(key) = heap_pop(&mut scratch.heap) {
            let s = (key & WL_SLOT_MASK) as usize;
            let val = scratch.acc[s];
            if val == 0.0 || val.abs() <= drop_tol {
                continue; // cancelled or below the factor's drop policy
            }
            let mu = val / ft.pivot[s];
            terms.push((ft.prow[s], mu));
            if scratch.spk_mark[s] == spk_gen && scratch.spk[s] != 0.0 {
                new_pivot -= mu * scratch.spk[s];
            }
            for &(p2, u2) in &ft.urow[s] {
                let s2 = ft.slot_of_pos[p2 as usize] as usize;
                if scratch.acc_mark[s2] != acc_gen {
                    scratch.acc_mark[s2] = acc_gen;
                    scratch.acc[s2] = 0.0;
                    heap_push(&mut scratch.heap, wl_key(ft.seq[s2], s2 as u32));
                }
                scratch.acc[s2] -= mu * u2;
            }
        }

        // ---- stability acceptance (see FT_PIVOT_REL).
        if !new_pivot.is_finite() || new_pivot.abs() <= sing_tol.max(FT_PIVOT_REL * spike_max) {
            scratch.spike.clear();
            return false;
        }

        // ---- commit. 1) prune the replaced column from surviving rows.
        let mut col_slots = std::mem::take(&mut ft.ucols[r]);
        for &s2 in &col_slots {
            let s2u = s2 as usize;
            if ft.alive[s2u] {
                ft.urow[s2u].retain(|&(p, _)| p as usize != r);
            }
        }
        col_slots.clear();
        ft.ucols[r] = col_slots;
        // 2) kill the displaced slot and drop it from the order.
        ft.alive[t_slot] = false;
        let idx = ft
            .order
            .iter()
            .position(|&s| s as usize == t_slot)
            .expect("live slot is listed in order");
        ft.order.remove(idx);
        let target_row = ft.prow[t_slot];
        // 3) append the replacement slot: same pivot row, now pivoting
        // position r, last in elimination order.
        let nt = ft.prow.len() as u32;
        assert!((nt as u64) < (1 << 21), "Forrest–Tomlin slot id overflow");
        ft.prow.push(target_row);
        ft.pos.push(r as u32);
        ft.pivot.push(new_pivot);
        ft.seq.push(ft.next_seq);
        ft.next_seq += 1;
        ft.urow.push(Vec::new());
        ft.alive.push(true);
        ft.order.push(nt);
        ft.slot_of_pos[r] = nt;
        ft.slot_of_row[target_row as usize] = nt;
        // 4) fold the spike entries into the surviving rows at column r
        // (the replacement slot has the latest order key, so every entry
        // still references a later stage).
        for &s in &scratch.touched {
            let su = s as usize;
            let val = scratch.spk[su];
            if val != 0.0 {
                ft.urow[su].push((r as u32, val));
                ft.ucols[r].push(s);
            }
        }
        // 5) record the elimination as a row eta.
        if !terms.is_empty() {
            ft.row_etas.push(RowEta {
                target: target_row,
                terms,
            });
        }
        ft.updates += 1;
        scratch.spike.clear();
        true
    }
}
