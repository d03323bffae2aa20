//! Basis factorization: sparse LU with bucketed Markowitz pivoting,
//! Forrest–Tomlin update compression, and hyper-sparse triangular solves.
//!
//! The revised simplex needs two linear solves per iteration:
//!
//! * **FTRAN** — `B·x = a` (transform an entering column),
//! * **BTRAN** — `Bᵀ·y = c` (price rows / extract duals).
//!
//! `B` changes by one column per pivot. Refactorizing every pivot would be
//! wasteful, so we factorize periodically and fold each pivot *into the
//! factors* with a Forrest–Tomlin update (see [`Factorization`]): the spike
//! column replaces a row/column of `U` and a short *row eta* records the
//! elimination of the displaced row. Update cost is proportional to the
//! spike's nonzeros, and — unlike the product-form eta file this replaces —
//! the representation does not grow a factor-sized tail per pivot, which is
//! what lets the refactorization interval be tuned well past the old
//! hard-coded 64 (see `SimplexOptions::refactor_interval`).
//!
//! ## Sparse LU ([`SparseLu`])
//!
//! The production factorization is a right-looking sparse Gaussian
//! elimination with **Markowitz pivoting**: at each stage it pivots in the
//! active column with the fewest remaining nonzeros, and within that column
//! on the shortest eligible row, where *eligible* means the entry passes the
//! threshold-partial-pivoting test `|a| ≥ τ·max|column|` (stability) and the
//! relative singularity floor. This (r−1)(c−1)-style cost function keeps
//! **fill-in** — new nonzeros created by elimination — near the structural
//! minimum. Update terms whose magnitude falls below a **drop tolerance**
//! (relative to the matrix's largest entry) are discarded instead of stored.
//!
//! **Pivot selection is bucketed**: a column→candidate-rows adjacency is
//! maintained incrementally (appended on fill-in, validated lazily against
//! the live rows), and column counts live in per-count min-heaps of column
//! indices. Each count change pushes a fresh entry; stale entries are
//! discarded when popped (an entry is live iff the column is active and its
//! count still equals the bucket index). Popping therefore yields the
//! lowest-index column of minimum count — the *same* pivot the old
//! full-rescan selection chose, in O(log m) amortized instead of Θ(m) per
//! stage. The rescan implementation is retained as
//! `SparseLu::factor_rescan` (scan-work baseline and test oracle, in the
//! test-only `oracle` submodule); both report their selection effort through
//! [`SparseLu::pivot_scan_work`].
//!
//! Singularity is declared *relative to the matrix scale*: a pivot candidate
//! must exceed `SINGULAR_TOL·max|B|`, so a badly scaled but perfectly
//! nonsingular basis (all entries tiny) factorizes fine, while a genuinely
//! rank-deficient one is rejected at any scale.
//!
//! ## Hyper-sparse solves
//!
//! When the caller declares the RHS nonzeros (`SolveScratch::rhs_nz`) and
//! they are few relative to `m`, the triangular solves are driven by an
//! index worklist instead of a dense stage sweep: starting from the stages
//! of the nonzero entries, each processed stage schedules exactly the
//! stages its writes can reach (graph reachability over the factor
//! structure). Four adjacency maps make every pass O(reached): row→stage
//! and row→referencing-stages on the `L` side ([`SparseLu`]), and
//! position→slot plus position→referencing-slots on the `U` side
//! ([`Factorization`]'s dynamic state). Both paths skip exact-zero
//! contributions and guard every division on a zero numerator, so the
//! worklist path is **bitwise identical** to the dense fallback — the dense
//! sweep remains both the fallback above the density cutoff and the oracle
//! the property tests compare against.
//!
//! ## Storage
//!
//! No factor holds a vector per row, stage or slot; everything lives in a
//! fixed set of flat arrays.
//!
//! * [`SparseLu`] keeps `L` (by stage), `U` (by stage) and the
//!   row→referencing-stages adjacency as CSR: a `u32` pointer array and one
//!   entry array each.
//! * The Forrest–Tomlin state keeps one record per slot, its `U` rows as
//!   *segments* of one entry arena and its position→slot lists as segments
//!   of a second. A segment that must grow moves to its arena's end with
//!   doubled room (in place when it already ends the arena); pruning
//!   compacts a segment in place. The space a moved segment leaves behind is
//!   dead until the next refactorization rebuilds the state, so at most
//!   `refactor_interval` updates' worth of it accumulates.
//! * The row etas are CSR too (target and end per eta, one term array); an
//!   update writes its terms straight into that array, and a refused update
//!   truncates what it wrote.
//! * Offsets are `u32` and slot ids must fit the 21 slot bits of a worklist
//!   key. An update that could overflow either is *refused*, exactly like an
//!   unstable one, and the caller refactorizes.
//!
//! A refactorization's working set — the active rows, the column adjacency,
//! the count buckets, the marks — is not part of the result: it lives in
//! the caller's [`SolveScratch`] and is reset, not reallocated, per
//! factorization, so a refactorization allocates only the arrays it
//! returns, the same number at every `m`.
//!
//! ## Sharing contract
//!
//! A [`SparseLu`] is **immutable once factorized**: the triangular solves
//! take `&self` and write only into caller-supplied scratch, so a single
//! factorization can be replayed by any number of holders.
//! [`Factorization`] holds its `SparseLu` behind an [`Arc`] and keeps the
//! *mutable* Forrest–Tomlin state by value: cloning a factorization — which
//! every branch-and-bound node's solve does through its parent `Basis` —
//! shares the immutable factors and copies only the update state, so an
//! update applied in one node's solve can never leak into a sibling's
//! (copy-on-compress).
//! That copy is nine `memcpy`s whatever the dimension and however many
//! updates the source holds, and it reserves room for the updates its own
//! solve will fold in (`UPDATE_ROOM_SLOTS` slots, `UPDATE_ROOM_ENTRIES`
//! entries per arena), so those do not reallocate either; `clone_from`
//! makes the same copy in the arrays a factorization already holds. All
//! solve intermediates live in the caller's [`SolveScratch`].
//!
//! The classic dense LU (`Lu`) is retained as the slow-path oracle for
//! tests and cross-checks, next to the rescan factor in the `oracle`
//! submodule — none of it is compiled into the shipping library.

// `SparseLu`, `Factorization` and `SolveScratch` are public for the
// cross-check suites, which reach them through `revised` only under
// `cfg(test)` or the `testgen` feature; the shipping build keeps them
// crate-internal.
#![cfg_attr(not(any(test, feature = "testgen")), allow(unreachable_pub))]

use std::ops::Range;
use std::sync::Arc;

#[cfg(test)]
mod jagged;
#[cfg(test)]
mod oracle;
#[cfg(test)]
pub(super) use oracle::Lu;

/// Relative pivot threshold below which a basis matrix is declared singular:
/// a pivot must exceed `SINGULAR_TOL × max|B|`. (An *absolute* threshold
/// here misclassifies badly scaled bases — see the regression tests.)
const SINGULAR_TOL: f64 = 1e-12;

/// Threshold-partial-pivoting factor: an entry is an acceptable pivot when
/// its magnitude is at least `MARKOWITZ_TAU` times the largest magnitude in
/// its column. Larger values favour stability, smaller values favour
/// sparsity.
const MARKOWITZ_TAU: f64 = 0.1;

/// Relative drop tolerance: elimination updates smaller than
/// `DROP_TOL × max|B|` in magnitude are discarded rather than stored as
/// fill-in. Chosen well below the engine's pivot tolerance so dropping never
/// changes a simplex decision.
const DROP_TOL: f64 = 1e-14;

/// Hyper-sparse cutoff: the worklist solve path is taken when the declared
/// RHS nonzeros satisfy `nnz × HYPERSPARSE_RATIO ≤ m` (and `m` is at least
/// [`HYPERSPARSE_DIM_MIN`]). Below that dimension the dense sweep's linear
/// scan is already cheaper than heap traffic.
const HYPERSPARSE_RATIO: usize = 16;

/// Minimum dimension for the hyper-sparse path (see [`HYPERSPARSE_RATIO`]).
const HYPERSPARSE_DIM_MIN: usize = 64;

/// Binary min-heap push on a raw `Vec` (the bucket heaps' column indices,
/// and worklist keys, where descending passes push the bitwise complement
/// of the key).
fn heap_push<T: Ord + Copy>(h: &mut Vec<T>, v: T) {
    h.push(v);
    let mut i = h.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if h[p] <= h[i] {
            break;
        }
        h.swap(p, i);
        i = p;
    }
}

/// Binary min-heap pop on a raw `Vec`.
fn heap_pop<T: Ord + Copy>(h: &mut Vec<T>) -> Option<T> {
    let n = h.len();
    if n == 0 {
        return None;
    }
    h.swap(0, n - 1);
    let top = h.pop();
    let n = h.len();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut s = i;
        if l < n && h[l] < h[s] {
            s = l;
        }
        if r < n && h[r] < h[s] {
            s = r;
        }
        if s == i {
            break;
        }
        h.swap(i, s);
        i = s;
    }
    top
}

/// Lazy min-count buckets over column indices: one min-heap of column
/// indices per count value. Every count change pushes a fresh entry; pops
/// validate against the live count and discard stale entries, so the first
/// live pop is the lowest-index column of minimum count.
#[derive(Debug, Clone, Default)]
struct CountBuckets {
    /// One heap per count; only the first `n` are in use (reused scratch
    /// may hold more, left over from a larger factorization).
    heaps: Vec<Vec<u32>>,
    n: usize,
    /// Lower bound on the smallest non-empty bucket with a live entry.
    min: usize,
}

impl CountBuckets {
    /// Empties the buckets for counts `0..=m`, keeping their buffers.
    fn reset(&mut self, m: usize) {
        self.n = m + 1;
        if self.heaps.len() < self.n {
            self.heaps.resize_with(self.n, Vec::new);
        }
        for h in &mut self.heaps[..self.n] {
            h.clear();
        }
        self.min = 0;
    }

    fn push(&mut self, count: usize, col: usize) {
        heap_push(&mut self.heaps[count], col as u32);
        if count < self.min {
            self.min = count;
        }
    }

    /// Pops the lowest-index live column of minimum count, advancing past
    /// stale entries. `work` tallies entries examined. `None` = no active
    /// column remains.
    fn pop_live(
        &mut self,
        col_active: &[bool],
        col_count: &[usize],
        work: &mut u64,
    ) -> Option<usize> {
        loop {
            while self.min < self.n && self.heaps[self.min].is_empty() {
                self.min += 1;
            }
            if self.min >= self.n {
                return None;
            }
            let j = heap_pop(&mut self.heaps[self.min])? as usize;
            *work += 1;
            if col_active[j] && col_count[j] == self.min {
                return Some(j);
            }
            // Stale: the column moved buckets or was retired since the push.
        }
    }
}

/// The working set of one [`SparseLu::factor`] call, kept in the caller's
/// [`SolveScratch`] so that a refactorization reuses the buffers of the
/// previous one. Reset (lengths, never capacities) at the start of every
/// factorization; nothing in it survives into the result. Every per-row and
/// per-column buffer stays at its own index, so a factorization no larger
/// than an earlier one allocates nothing here.
#[derive(Debug, Clone, Default)]
struct FactorScratch {
    /// Active submatrix as sparse rows, sorted by column.
    rows: Vec<Vec<(u32, f64)>>,
    /// Column → candidate rows (appended on fill-in, validated lazily).
    col_rows: Vec<Vec<u32>>,
    /// Active nonzeros per column.
    col_count: Vec<usize>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    buckets: CountBuckets,
    /// Gather dedup stamps (the adjacency may hold duplicate candidates for
    /// a row that dropped and re-grew an entry).
    row_seen: Vec<u32>,
    /// One input column, as the caller's closure produces it.
    buf: Vec<(u32, f64)>,
    /// Entries of the current pivot column: (row, value) among active rows.
    pivcol: Vec<(usize, f64)>,
    /// The current stage's `L` column and `U` row (pivot entry excluded).
    lcol: Vec<(u32, f64)>,
    prow: Vec<(u32, f64)>,
    /// Merged row of one elimination, copied back into its row.
    merged: Vec<(u32, f64)>,
    /// Columns found numerically deficient at the current stage.
    deferred: Vec<u32>,
    /// Build buffers of the `L` / `U` entry arrays (see [`SparseLu::begin`]).
    l_stage: Vec<(u32, f64)>,
    u_stage: Vec<(u32, f64)>,
}

impl FactorScratch {
    /// Sizes the working set for an `m × m` factorization, all empty.
    fn reset(&mut self, m: usize) {
        if self.rows.len() < m {
            self.rows.resize_with(m, Vec::new);
            self.col_rows.resize_with(m, Vec::new);
        }
        self.rows[..m].iter_mut().for_each(Vec::clear);
        self.col_rows[..m].iter_mut().for_each(Vec::clear);
        self.col_count.clear();
        self.col_count.resize(m, 0);
        self.row_active.clear();
        self.row_active.resize(m, true);
        self.col_active.clear();
        self.col_active.resize(m, true);
        self.row_seen.clear();
        self.row_seen.resize(m, 0);
        self.buckets.reset(m);
        // Left over when the previous factorization stopped singular.
        self.deferred.clear();
    }
}

/// The entries of CSR row `k`: `ent[ptr[k]..ptr[k + 1]]`.
#[inline]
fn csr<'a, T>(ptr: &[u32], ent: &'a [T], k: usize) -> &'a [T] {
    &ent[ptr[k] as usize..ptr[k + 1] as usize]
}

/// Sparse LU factorization with Markowitz pivoting and drop-tolerance
/// handling (see the module docs).
///
/// The elimination is recorded stage by stage in terms of the *original*
/// row indices and column positions, so the triangular solves are simple
/// replays: no explicit permutation matrices are materialized. Every
/// per-stage and per-row list is CSR (see *Storage* in the module docs).
/// The row-indexed adjacency (`stage_of_row`, `lrow_*`) backs the
/// hyper-sparse `L` passes.
#[derive(Debug, Clone)]
pub struct SparseLu {
    m: usize,
    /// Stage `k` pivoted original row `perm_row[k]`…
    perm_row: Vec<u32>,
    /// …against basis position (column) `perm_col[k]`.
    perm_col: Vec<u32>,
    /// Pivot values per stage.
    pivots: Vec<f64>,
    /// Column of `L` of stage `k`: `l_ent[l_ptr[k]..l_ptr[k + 1]]`, as
    /// `(original row, multiplier)` for every row eliminated at that stage.
    l_ptr: Vec<u32>,
    l_ent: Vec<(u32, f64)>,
    /// Row of `U` of stage `k`: `u_ent[u_ptr[k]..u_ptr[k + 1]]`, the pivot
    /// row *excluding* the pivot entry, as `(basis position, value)` — all
    /// positions pivot at later stages.
    u_ptr: Vec<u32>,
    u_ent: Vec<(u32, f64)>,
    /// Nonzeros of the input matrix (for the fill-in statistic).
    nnz_input: usize,
    /// Stage that pivoted each original row (inverse of `perm_row`).
    stage_of_row: Vec<u32>,
    /// Stages whose `L` column references original row `i`, ascending:
    /// `lrow_stage[lrow_ptr[i]..lrow_ptr[i + 1]]`.
    lrow_ptr: Vec<u32>,
    lrow_stage: Vec<u32>,
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

impl SparseLu {
    /// Factorizes the `m × m` matrix whose column at position `pos` is
    /// produced by `col(pos, &mut buf)` as sorted `(row, value)` pairs,
    /// selecting pivots through the bucketed-Markowitz structures. The
    /// working set lives in `scratch` (reset here), so only the returned
    /// factor's own arrays are allocated.
    ///
    /// Returns `None` when the matrix is singular relative to its scale.
    /// Chooses the *identical* pivot sequence to the `factor_rescan` oracle
    /// (lowest-index column of minimum count; shortest eligible row), so the
    /// two produce bitwise-equal factors — only the selection cost differs.
    pub fn factor<F>(m: usize, scratch: &mut SolveScratch, mut col: F) -> Option<SparseLu>
    where
        F: FnMut(usize, &mut Vec<(u32, f64)>),
    {
        scratch.factor.reset(m);
        let FactorScratch {
            rows,
            col_rows,
            col_count,
            row_active,
            col_active,
            buckets,
            row_seen,
            buf,
            pivcol,
            lcol,
            prow,
            merged,
            deferred,
            l_stage,
            u_stage,
        } = &mut scratch.factor;

        // Assemble the working matrix as sparse rows (sorted by column:
        // columns are visited in increasing order, so pushes stay sorted),
        // mirrored by the column→candidate-rows adjacency.
        let mut max_abs = 0.0f64;
        let mut nnz_input = 0usize;
        for pos in 0..m {
            buf.clear();
            col(pos, buf);
            for &(i, v) in buf.iter() {
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
        let mut lu = SparseLu::begin(m, nnz_input, max_abs, l_stage, u_stage);
        let (sing_tol, drop_tol) = (lu.sing_tol, lu.drop_tol);
        for (j, &cnt) in col_count.iter().enumerate() {
            buckets.push(cnt, j);
        }
        let mut seen_gen = 0u32;
        let mut work = 0u64;

        for _stage in 0..m {
            // ---- pivot column: fewest active nonzeros, numerically alive.
            let (c, colmax) = loop {
                let Some(j) = buckets.pop_live(col_active, col_count, &mut work) else {
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
                let cand = &mut col_rows[j];
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
                if colmax > sing_tol {
                    // Old-code parity: candidates in ascending row order.
                    pivcol.sort_unstable_by_key(|&(i, _)| i);
                    break (j, colmax);
                }
                // Numerically dead at this stage (entries may grow back
                // through later updates, so the exclusion is per-stage
                // only: it re-enters the buckets once the pivot is fixed).
                deferred.push(j as u32);
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
            for &(i, v) in pivcol.iter() {
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
            // colmax passed the threshold, so a row exists.
            let (r, p) = best?;

            // ---- retire the pivot row and column; the row minus its
            // pivot entry is this stage's row of U. (Row r is inactive
            // from here on, so its buffer is left as it stands.)
            row_active[r] = false;
            col_active[c] = false;
            prow.clear();
            for &(j, v) in &rows[r] {
                let ju = j as usize;
                col_count[ju] -= 1;
                if col_active[ju] {
                    buckets.push(col_count[ju], ju);
                }
                if ju != c {
                    prow.push((j, v));
                }
            }
            debug_assert_eq!(
                prow.len() + 1,
                rows[r].len(),
                "pivot entry is in the pivot row"
            );

            // ---- eliminate: row_i ← row_i − (a_ic / p)·prow.
            lcol.clear();
            for &(i, a_ic) in pivcol.iter() {
                if i == r {
                    continue;
                }
                let l = a_ic / p;
                lcol.push((i as u32, l));
                let row = &rows[i];
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
                                    col_rows[jbu].push(i as u32);
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
                // Copied back rather than swapped, so each row keeps its
                // own buffer from one factorization to the next.
                rows[i].clear();
                rows[i].extend_from_slice(merged);
            }

            lu.push_stage(r, c, p, lcol, prow);
        }
        lu.pivot_scan_work = work;
        lu.seal(l_stage, u_stage)
    }

    /// An empty factor of dimension `m`, to be filled stage by stage
    /// ([`SparseLu::push_stage`]) and closed by [`SparseLu::seal`]. The entry
    /// arrays are built in `l_stage` / `u_stage` (taken here, cleared) so
    /// that their growth reuses the caller's buffers; `seal` hands them back.
    fn begin(
        m: usize,
        nnz_input: usize,
        max_abs: f64,
        l_stage: &mut Vec<(u32, f64)>,
        u_stage: &mut Vec<(u32, f64)>,
    ) -> SparseLu {
        let (mut l_ent, mut u_ent) = (std::mem::take(l_stage), std::mem::take(u_stage));
        l_ent.clear();
        u_ent.clear();
        let mut l_ptr = Vec::with_capacity(m + 1);
        l_ptr.push(0);
        let mut u_ptr = Vec::with_capacity(m + 1);
        u_ptr.push(0);
        SparseLu {
            m,
            perm_row: Vec::with_capacity(m),
            perm_col: Vec::with_capacity(m),
            pivots: Vec::with_capacity(m),
            l_ptr,
            l_ent,
            u_ptr,
            u_ent,
            nnz_input,
            stage_of_row: Vec::new(),
            lrow_ptr: Vec::new(),
            lrow_stage: Vec::new(),
            sing_tol: SINGULAR_TOL * max_abs,
            drop_tol: DROP_TOL * max_abs,
            pivot_scan_work: 0,
        }
    }

    /// Appends elimination stage `k = perm_row.len()`: row `r` pivoted
    /// against position `c` with value `p`, its `L` column and its `U` row
    /// (pivot entry excluded). The one way both factorizations record a
    /// stage.
    fn push_stage(&mut self, r: usize, c: usize, p: f64, lcol: &[(u32, f64)], urow: &[(u32, f64)]) {
        self.perm_row.push(r as u32);
        self.perm_col.push(c as u32);
        self.pivots.push(p);
        self.l_ent.extend_from_slice(lcol);
        self.l_ptr.push(self.l_ent.len() as u32);
        self.u_ent.extend_from_slice(urow);
        self.u_ptr.push(self.u_ent.len() as u32);
    }

    /// Closes a stage sequence opened by [`SparseLu::begin`]: copies the
    /// entry arrays out at their exact size, hands the build buffers back,
    /// and builds the row adjacency. `None` when an entry offset would not
    /// fit a `u32`. (A factorization found singular never gets here; its
    /// build buffers go with it.)
    fn seal(
        mut self,
        l_stage: &mut Vec<(u32, f64)>,
        u_stage: &mut Vec<(u32, f64)>,
    ) -> Option<SparseLu> {
        *l_stage = std::mem::take(&mut self.l_ent);
        *u_stage = std::mem::take(&mut self.u_ent);
        if l_stage.len().max(u_stage.len()) > u32::MAX as usize {
            return None;
        }
        self.l_ent = l_stage.to_vec();
        self.u_ent = u_stage.to_vec();
        self.build_adjacency();
        Some(self)
    }

    /// Builds the row-indexed adjacency that backs the hyper-sparse `L`
    /// passes: `stage_of_row` (inverse pivot-row permutation) and the CSR
    /// `lrow_*` (which stages' `L` columns reference each row, ascending —
    /// filled back to front over descending stages, so no cursor array).
    fn build_adjacency(&mut self) {
        let m = self.m;
        self.stage_of_row = vec![0; m];
        for (k, &r) in self.perm_row.iter().enumerate() {
            self.stage_of_row[r as usize] = k as u32;
        }
        // Per-row counts, then running sums: lrow_ptr[i] = end of row i.
        let mut ptr = vec![0u32; m + 1];
        for &(i, _) in &self.l_ent {
            ptr[i as usize] += 1;
        }
        let mut end = 0;
        for p in ptr.iter_mut() {
            end += *p;
            *p = end;
        }
        let mut stage = vec![0u32; self.l_ent.len()];
        for k in (0..m).rev() {
            for &(i, _) in csr(&self.l_ptr, &self.l_ent, k) {
                let e = &mut ptr[i as usize];
                *e -= 1;
                stage[*e as usize] = k as u32;
            }
        }
        self.lrow_ptr = ptr;
        self.lrow_stage = stage;
    }

    /// Factorizes from explicit per-position sparse columns (test helper).
    #[cfg(any(test, feature = "testgen"))]
    pub fn factor_cols(m: usize, cols: &[Vec<(u32, f64)>]) -> Option<SparseLu> {
        debug_assert_eq!(cols.len(), m);
        SparseLu::factor(m, &mut SolveScratch::new(), |pos, buf| {
            buf.extend_from_slice(&cols[pos])
        })
    }

    /// Matrix dimension.
    pub(crate) fn dim(&self) -> usize {
        self.m
    }

    /// Nonzeros stored in the `L` and `U` factors (pivots included).
    pub(crate) fn nnz_factors(&self) -> usize {
        self.l_ent.len() + self.u_ent.len() + self.m
    }

    /// Fill-in: factor nonzeros beyond the input matrix's nonzeros.
    pub(crate) fn fill_in(&self) -> usize {
        self.nnz_factors().saturating_sub(self.nnz_input)
    }

    /// Pivot-selection effort spent factorizing (see the module docs): the
    /// number of candidate entries examined while choosing pivot columns.
    pub(crate) fn pivot_scan_work(&self) -> u64 {
        self.pivot_scan_work
    }

    /// Column of `L` of stage `k`.
    #[inline]
    fn lcol(&self, k: usize) -> &[(u32, f64)] {
        csr(&self.l_ptr, &self.l_ent, k)
    }

    /// Row of `U` of stage `k` (pivot excluded).
    #[inline]
    fn urow(&self, k: usize) -> &[(u32, f64)] {
        csr(&self.u_ptr, &self.u_ent, k)
    }

    /// Forward `L` replay on a row-indexed RHS (the first half of FTRAN),
    /// dense sweep.
    fn l_forward_dense(&self, v: &mut [f64]) {
        for k in 0..self.m {
            let vk = v[self.perm_row[k] as usize];
            if vk != 0.0 {
                for &(i, l) in self.lcol(k) {
                    v[i as usize] -= l * vk;
                }
            }
        }
    }

    /// Worklist forward `L` replay: visits only stages reachable from the
    /// seed rows. Every row whose value may have changed (seeds plus
    /// scattered rows) is appended to `nzrows` exactly once. Bitwise
    /// identical to [`SparseLu::l_forward_dense`].
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
            for &(i, l) in self.lcol(k) {
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
            for &(i, l) in self.lcol(k) {
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
    /// stage (`lrow_*`). Descending stage order via complemented keys.
    /// Bitwise identical to [`SparseLu::lt_backward_dense`].
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
                    for &k in csr(&self.lrow_ptr, &self.lrow_stage, ru) {
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
            for &(i, l) in self.lcol(k) {
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

/// Should a solve with `nnz` declared RHS nonzeros take the worklist path?
#[inline]
fn use_hypersparse(m: usize, nnz: usize) -> bool {
    nnz > 0 && m >= HYPERSPARSE_DIM_MIN && nnz * HYPERSPARSE_RATIO <= m
}

/// Packs a worklist key: logical order (`seq`) in the high bits, slot id in
/// the low 21, so heap order is elimination order and the slot rides along.
#[inline]
fn wl_key(seq: u64, slot: u32) -> u64 {
    debug_assert!((slot as u64) < SLOT_LIMIT && seq < (1 << 43));
    (seq << 21) | slot as u64
}

/// Slot id bits of a worklist key (see [`wl_key`]).
const WL_SLOT_MASK: u64 = (1 << 21) - 1;

/// Slot ids must fit the worklist key's slot bits: an update that would
/// create slot `SLOT_LIMIT` is refused (the caller refactorizes).
const SLOT_LIMIT: u64 = 1 << 21;

/// Caller-owned scratch for [`Factorization`] solves and updates and for
/// [`SparseLu::factor`]: worklist heaps, stamp arrays, the zero-maintained
/// dense accumulators, the captured spike, and a factorization's working
/// set. One per warm chain (it lives in the engine's `Workspace`, which the
/// chain owns); the factors themselves are never written during a solve.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// Nonzero indices of the *next* solve's RHS, set by the caller (rows
    /// for FTRAN, positions for BTRAN). Empty ⇒ the RHS is treated as
    /// dense. Consumed (cleared) by every solve.
    pub rhs_nz: Vec<u32>,
    /// Hyper-sparse FTRANs taken (drained into `LpStats`).
    pub hs_ftrans: u64,
    /// Hyper-sparse BTRANs taken (drained into `LpStats`).
    pub hs_btrans: u64,
    /// Zero-maintained dense accumulator (positions in FTRAN, rows in
    /// BTRAN). Invariant: all-zero between calls.
    dense: Vec<f64>,
    /// Worklist keys (see [`wl_key`]); complemented for descending passes.
    heap: Vec<u64>,
    /// Row dedup stamps (`mark_gen` generations).
    row_mark: Vec<u32>,
    /// Slot dedup stamps.
    slot_mark: Vec<u32>,
    mark_gen: u32,
    /// Rows touched by the forward half of a solve (seeds + scatters).
    nzrows: Vec<u32>,
    /// Slots processed by a worklist `U` pass (for result scatter/re-zero).
    touched: Vec<u32>,
    /// Spike captured by [`Factorization::ftran_entering`]: the entering
    /// column after `L⁻¹` and the row etas, sorted by row.
    spike: Vec<(u32, f64)>,
    /// Forrest–Tomlin elimination accumulator, by slot.
    acc: Vec<f64>,
    acc_mark: Vec<u32>,
    /// Spike values scattered by slot during an update.
    spk: Vec<f64>,
    spk_mark: Vec<u32>,
    /// The working set of [`SparseLu::factor`].
    factor: FactorScratch,
}

impl SolveScratch {
    /// Fresh scratch (buffers grow on demand).
    #[cfg(any(test, feature = "testgen"))]
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// Grows the row/position-indexed buffers to dimension `m` and the
    /// slot-indexed buffers to `slots`.
    fn ensure(&mut self, m: usize, slots: usize) {
        if self.dense.len() < m {
            self.dense.resize(m, 0.0);
        }
        if self.row_mark.len() < m {
            self.row_mark.resize(m, 0);
        }
        if self.slot_mark.len() < slots {
            self.slot_mark.resize(slots, 0);
        }
        if self.acc.len() < slots {
            self.acc.resize(slots, 0.0);
            self.acc_mark.resize(slots, 0);
            self.spk.resize(slots, 0.0);
            self.spk_mark.resize(slots, 0);
        }
    }

    /// Next stamp generation (wraps safely by resetting every mark array).
    fn next_gen(&mut self) -> u32 {
        if self.mark_gen == u32::MAX {
            self.row_mark.fill(0);
            self.slot_mark.fill(0);
            self.acc_mark.fill(0);
            self.spk_mark.fill(0);
            self.mark_gen = 0;
        }
        self.mark_gen += 1;
        self.mark_gen
    }

    /// Drains the hyper-sparse counters (for `LpStats` folding).
    pub(crate) fn take_hypersparse_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hs_ftrans),
            std::mem::take(&mut self.hs_btrans),
        )
    }
}

/// Slots a copy (or a fresh materialization) of the update state reserves
/// beyond what it holds: one per update its solve folds in before the
/// arrays would have to grow. A B&B node takes about three.
const UPDATE_ROOM_SLOTS: usize = 16;

/// Entries each arena of a copy reserves beyond what it holds (segment
/// relocations, row-eta terms).
const UPDATE_ROOM_ENTRIES: usize = 128;

/// Smallest room a growing segment moves out with.
const SEG_MIN_CAP: u32 = 4;

/// A segment of an arena: `len` live entries at `beg`, room for `cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    beg: u32,
    len: u32,
    cap: u32,
}

impl Seg {
    /// The live entries' index range in the arena.
    #[inline]
    fn range(self) -> Range<usize> {
        self.beg as usize..(self.beg + self.len) as usize
    }
}

/// Appends `x` to segment `seg` of `arena`. A full segment grows in place
/// when it ends the arena and otherwise moves to the end with doubled room;
/// the space it leaves is dead until the arena is rebuilt.
fn seg_push<T: Copy + Default>(arena: &mut Vec<T>, seg: &mut Seg, x: T) {
    if seg.len == seg.cap {
        let cap = (2 * seg.cap).max(SEG_MIN_CAP);
        if (seg.beg + seg.cap) as usize != arena.len() {
            let beg = arena.len();
            arena.extend_from_within(seg.range());
            seg.beg = beg as u32;
        }
        arena.resize((seg.beg + cap) as usize, T::default());
        seg.cap = cap;
    }
    arena[(seg.beg + seg.len) as usize] = x;
    seg.len += 1;
}

/// `v` copied into a vector with room for `room` more elements.
fn with_room<T: Copy>(v: &[T], room: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(v.len() + room);
    out.extend_from_slice(v);
    out
}

/// One stage of the dynamic `U` factor.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Original pivot row.
    prow: u32,
    /// Basis position it pivots.
    pos: u32,
    /// Pivot value.
    pivot: f64,
    /// Logical elimination order key (monotone across updates).
    seq: u64,
    /// Off-diagonal `U` row, a segment of `FtState::u_ent`:
    /// `(position, value)`, all positions pivoting at later slots.
    urow: Seg,
    /// Updates kill a slot and append its replacement.
    alive: bool,
}

/// One Forrest–Tomlin row eta: eliminating the displaced `U` row wrote
/// `v[target] -= Σ μᵢ·v[sourceᵢ]` into the update sequence. FTRAN applies
/// the etas in recording order after the `L` pass; BTRAN applies the
/// transposes in reverse (`v[sourceᵢ] -= μᵢ·v[target]`). The terms of eta
/// `e` are `eta_terms[etas[e - 1].end..etas[e].end]` (from 0 for the first).
#[derive(Debug, Clone, Copy)]
struct Eta {
    /// Original row index of the displaced pivot row.
    target: u32,
    /// End of its `(source original row, multiplier)` terms, in elimination
    /// order.
    end: u32,
}

/// The dynamic (updatable) `U` factor: a working copy of the triangular
/// stages that Forrest–Tomlin updates rewrite in place, owned by exactly
/// one [`Factorization`] (never behind the shared [`Arc`] — that is the
/// copy-on-compress contract). Nine flat arrays (see *Storage* in the
/// module docs).
///
/// Stages live in *slots*; `order` lists the live slots in elimination
/// order (ascending `seq`, which is also heap-key order for the worklist
/// solves). An update kills the displaced slot and appends a fresh one, so
/// stale slot ids in the lazy `ucols` adjacency are detected by `alive`.
#[derive(Debug)]
struct FtState {
    /// One record per slot, live or dead.
    slots: Vec<Slot>,
    /// Arena of the slots' `U` rows.
    u_ent: Vec<(u32, f64)>,
    /// Live slots in elimination order.
    order: Vec<u32>,
    /// Position → live slot pivoting it.
    slot_of_pos: Vec<u32>,
    /// Original row → live slot pivoting it.
    slot_of_row: Vec<u32>,
    /// Position → slots whose `U` row *may* contain it, a segment of
    /// `c_ent` (complete but lazily stale: dead or pruned slots are skipped
    /// on use).
    ucols: Vec<Seg>,
    c_ent: Vec<u32>,
    /// Row etas accumulated since the last refactorization, CSR over
    /// `eta_terms`.
    etas: Vec<Eta>,
    eta_terms: Vec<(u32, f64)>,
    /// Updates applied since the last refactorization.
    updates: usize,
    next_seq: u64,
}

impl Clone for FtState {
    /// One `memcpy` per array, each with room for the updates the copy's own
    /// solve will fold in.
    fn clone(&self) -> FtState {
        FtState {
            slots: with_room(&self.slots, UPDATE_ROOM_SLOTS),
            u_ent: with_room(&self.u_ent, UPDATE_ROOM_ENTRIES),
            order: self.order.clone(),
            slot_of_pos: self.slot_of_pos.clone(),
            slot_of_row: self.slot_of_row.clone(),
            ucols: self.ucols.clone(),
            c_ent: with_room(&self.c_ent, UPDATE_ROOM_ENTRIES),
            etas: with_room(&self.etas, UPDATE_ROOM_SLOTS),
            eta_terms: with_room(&self.eta_terms, UPDATE_ROOM_ENTRIES),
            updates: self.updates,
            next_seq: self.next_seq,
        }
    }

    /// The copy [`FtState::clone`] makes, with the same room, in the arrays
    /// `self` already holds: one `clear` + `extend_from_slice` per array,
    /// which allocates only where an array is too short for it.
    fn clone_from(&mut self, source: &FtState) {
        refill(&mut self.slots, &source.slots, UPDATE_ROOM_SLOTS);
        refill(&mut self.u_ent, &source.u_ent, UPDATE_ROOM_ENTRIES);
        refill(&mut self.order, &source.order, 0);
        refill(&mut self.slot_of_pos, &source.slot_of_pos, 0);
        refill(&mut self.slot_of_row, &source.slot_of_row, 0);
        refill(&mut self.ucols, &source.ucols, 0);
        refill(&mut self.c_ent, &source.c_ent, UPDATE_ROOM_ENTRIES);
        refill(&mut self.etas, &source.etas, UPDATE_ROOM_SLOTS);
        refill(&mut self.eta_terms, &source.eta_terms, UPDATE_ROOM_ENTRIES);
        self.updates = source.updates;
        self.next_seq = source.next_seq;
    }
}

/// `out` becomes a copy of `v` with capacity for `room` more, in its own
/// buffer.
fn refill<T: Copy>(out: &mut Vec<T>, v: &[T], room: usize) {
    out.clear();
    out.reserve(v.len() + room);
    out.extend_from_slice(v);
}

impl FtState {
    /// Copies the immutable factor's `U` into slot form (slot `k` = stage
    /// `k`, its segment the stage's CSR row). This is the
    /// per-refactorization cost of updatability: O(nnz U), in one copy of
    /// `U` plus a counting sort for `ucols`.
    fn materialize(lu: &SparseLu) -> FtState {
        let m = lu.m;
        let mut slots = Vec::with_capacity(m + UPDATE_ROOM_SLOTS);
        let mut slot_of_pos = vec![0u32; m];
        let mut slot_of_row = vec![0u32; m];
        for k in 0..m {
            let (beg, end) = (lu.u_ptr[k], lu.u_ptr[k + 1]);
            slots.push(Slot {
                prow: lu.perm_row[k],
                pos: lu.perm_col[k],
                pivot: lu.pivots[k],
                seq: k as u64,
                urow: Seg {
                    beg,
                    len: end - beg,
                    cap: end - beg,
                },
                alive: true,
            });
            slot_of_pos[lu.perm_col[k] as usize] = k as u32;
            slot_of_row[lu.perm_row[k] as usize] = k as u32;
        }
        // ucols by counting sort: sizes, offsets, then a fill in ascending
        // stage order with `len` as the cursor.
        let mut ucols = vec![Seg::default(); m];
        for &(p, _) in &lu.u_ent {
            ucols[p as usize].cap += 1;
        }
        let mut beg = 0;
        for s in &mut ucols {
            s.beg = beg;
            beg += s.cap;
        }
        let mut c_ent = Vec::with_capacity(beg as usize + UPDATE_ROOM_ENTRIES);
        c_ent.resize(beg as usize, 0);
        for k in 0..m {
            for &(p, _) in lu.urow(k) {
                let s = &mut ucols[p as usize];
                c_ent[(s.beg + s.len) as usize] = k as u32;
                s.len += 1;
            }
        }
        FtState {
            slots,
            u_ent: with_room(&lu.u_ent, UPDATE_ROOM_ENTRIES),
            order: (0..m as u32).collect(),
            slot_of_pos,
            slot_of_row,
            ucols,
            c_ent,
            etas: Vec::with_capacity(UPDATE_ROOM_SLOTS),
            eta_terms: Vec::with_capacity(UPDATE_ROOM_ENTRIES),
            updates: 0,
            next_seq: m as u64,
        }
    }

    /// Off-diagonal `U` row of slot `s`.
    #[inline]
    fn urow(&self, s: usize) -> &[(u32, f64)] {
        &self.u_ent[self.slots[s].urow.range()]
    }

    /// Slots whose `U` row may contain position `p`.
    #[inline]
    fn ucol(&self, p: usize) -> &[u32] {
        &self.c_ent[self.ucols[p].range()]
    }

    /// Whether one more update fits the id and offset types at dimension
    /// `m`: the new slot's id must fit the worklist key, and every arena
    /// must stay `u32`-addressable however the update grows it. (A `U` row
    /// or a `ucols` list holds at most `m` distinct entries, so a segment's
    /// room never exceeds `max(2m, 4)`: one update appends at most that
    /// much per touched row to `u_ent`, twice that to `c_ent`, and `m`
    /// terms.)
    fn fits_another_update(&self, m: usize) -> bool {
        let m = m as u64;
        let seg = (2 * m).max(SEG_MIN_CAP as u64);
        let fits = |len: usize, growth: u64| len as u64 + growth <= u32::MAX as u64;
        (self.slots.len() as u64) < SLOT_LIMIT
            && fits(self.u_ent.len(), m * seg)
            && fits(self.c_ent.len(), 2 * seg)
            && fits(self.eta_terms.len(), m)
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
        let mut beg = 0;
        for eta in &self.etas {
            let tu = eta.target as usize;
            let mut s = v[tu];
            for &(src, mu) in &self.eta_terms[beg..eta.end as usize] {
                let vs = v[src as usize];
                if vs != 0.0 {
                    s -= mu * vs;
                }
            }
            beg = eta.end as usize;
            v[tu] = s;
            if track_rows && s != 0.0 && row_mark[tu] != mark_gen {
                row_mark[tu] = mark_gen;
                nzrows.push(eta.target);
            }
        }
    }

    /// Applies the transposed row etas to a row-indexed vector (reverse
    /// order). Newly touched rows are tracked as in
    /// [`FtState::apply_row_etas`].
    fn apply_row_etas_t(
        &self,
        v: &mut [f64],
        nzrows: &mut Vec<u32>,
        row_mark: &mut [u32],
        mark_gen: u32,
        track_rows: bool,
    ) {
        for e in (0..self.etas.len()).rev() {
            let eta = self.etas[e];
            let tv = v[eta.target as usize];
            if tv == 0.0 {
                continue;
            }
            let beg = if e == 0 {
                0
            } else {
                self.etas[e - 1].end as usize
            };
            for &(src, mu) in &self.eta_terms[beg..eta.end as usize] {
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
            let sl = &self.slots[slot as usize];
            let mut s = v[sl.prow as usize];
            for &(p, u) in &self.u_ent[sl.urow.range()] {
                let xp = x[p as usize];
                if xp != 0.0 {
                    s -= u * xp;
                }
            }
            x[sl.pos as usize] = if s == 0.0 { 0.0 } else { s / sl.pivot };
        }
        v.copy_from_slice(&x[..m]);
        x[..m].fill(0.0); // restore the all-zero invariant
    }

    /// Worklist `U` back substitution: seeds from the nonzero rows left by
    /// the forward half, schedules through `ucols` reachability, descending
    /// elimination order. Bitwise identical to [`FtState::u_backsub_dense`].
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
                heap_push(
                    &mut scratch.heap,
                    !wl_key(self.slots[slot as usize].seq, slot),
                );
            }
        }
        while let Some(key) = heap_pop(&mut scratch.heap) {
            let slot = ((!key) & WL_SLOT_MASK) as usize;
            let sl = &self.slots[slot];
            let mut s = v[sl.prow as usize];
            for &(p, u) in &self.u_ent[sl.urow.range()] {
                let xp = scratch.dense[p as usize];
                if xp != 0.0 {
                    s -= u * xp;
                }
            }
            let xv = if s == 0.0 { 0.0 } else { s / sl.pivot };
            let pos = sl.pos as usize;
            scratch.dense[pos] = xv;
            scratch.touched.push(slot as u32);
            if xv != 0.0 {
                for &s2 in self.ucol(pos) {
                    let s2u = s2 as usize;
                    if self.slots[s2u].alive && scratch.slot_mark[s2u] != mark_gen {
                        scratch.slot_mark[s2u] = mark_gen;
                        heap_push(&mut scratch.heap, !wl_key(self.slots[s2u].seq, s2));
                    }
                }
            }
        }
        // Scatter the position-indexed result and restore the zero invariant.
        v.fill(0.0);
        for &slot in &scratch.touched {
            let pos = self.slots[slot as usize].pos as usize;
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
            let sl = &self.slots[slot as usize];
            let wk = w[sl.pos as usize];
            if wk == 0.0 {
                t[sl.prow as usize] = 0.0;
            } else {
                let tk = wk / sl.pivot;
                t[sl.prow as usize] = tk;
                for &(p, u) in &self.u_ent[sl.urow.range()] {
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
    /// [`FtState::ut_forward_dense`].
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
                heap_push(
                    &mut scratch.heap,
                    wl_key(self.slots[slot as usize].seq, slot),
                );
            }
        }
        while let Some(key) = heap_pop(&mut scratch.heap) {
            let slot = (key & WL_SLOT_MASK) as usize;
            let sl = &self.slots[slot];
            let wk = w[sl.pos as usize];
            if wk == 0.0 {
                continue;
            }
            let tk = wk / sl.pivot;
            let pr = sl.prow as usize;
            scratch.dense[pr] = tk;
            if scratch.row_mark[pr] != mark_gen {
                scratch.row_mark[pr] = mark_gen;
                scratch.nzrows.push(pr as u32);
            }
            for &(p, u) in &self.u_ent[sl.urow.range()] {
                let pu = p as usize;
                w[pu] -= u * tk;
                let s2 = self.slot_of_pos[pu];
                if scratch.slot_mark[s2 as usize] != mark_gen {
                    scratch.slot_mark[s2 as usize] = mark_gen;
                    heap_push(&mut scratch.heap, wl_key(self.slots[s2 as usize].seq, s2));
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

/// Forrest–Tomlin pivot acceptance: the updated diagonal must exceed both
/// the factor's scale-relative singularity floor and this fraction of the
/// spike's largest magnitude, else the update is refused and the caller
/// refactorizes. Conservative: a refused update costs one refactorization,
/// an accepted bad one poisons every later solve.
const FT_PIVOT_REL: f64 = 1e-10;

/// A factorized basis: immutable `L` (and the pristine `U`) behind an
/// [`Arc`], plus the owned Forrest–Tomlin state that updates rewrite.
///
/// Cloning shares the `Arc` and copies the dynamic state — a fixed set of
/// flat arrays — so a basis handed to both branch-and-bound children can
/// be updated independently in each without any cross-talk
/// (**copy-on-compress**: an update mutates only the owner's private `U`
/// working copy and row etas, never the shared factors). The solves take
/// `&self`; mutation is confined to [`Factorization::push_update`].
#[derive(Debug)]
pub struct Factorization {
    lu: Arc<SparseLu>,
    ft: FtState,
}

impl Clone for Factorization {
    fn clone(&self) -> Factorization {
        Factorization {
            lu: Arc::clone(&self.lu),
            ft: self.ft.clone(),
        }
    }

    /// Shares `source`'s factors and copies its update state into the
    /// arrays `self` already holds.
    fn clone_from(&mut self, source: &Factorization) {
        self.lu = Arc::clone(&source.lu);
        self.ft.clone_from(&source.ft);
    }
}

impl Factorization {
    /// Wraps a fresh LU factorization, materializing the updatable `U`.
    pub fn new(lu: SparseLu) -> Self {
        let ft = FtState::materialize(&lu);
        Factorization {
            lu: Arc::new(lu),
            ft,
        }
    }

    /// Basis dimension this factorization covers.
    pub(crate) fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// Forrest–Tomlin updates folded in since the last refactorization.
    pub fn update_count(&self) -> usize {
        self.ft.updates
    }

    /// FTRAN: solves `B·x = v` in place. Set `scratch.rhs_nz` to the
    /// nonzero rows of `v` to enable the hyper-sparse path (consumed
    /// either way); results are bitwise identical across paths.
    pub fn ftran(&self, v: &mut [f64], scratch: &mut SolveScratch) {
        self.ftran_impl(v, scratch, false);
    }

    /// FTRAN of an *entering column*: identical solve, but additionally
    /// captures the spike — the column after `L⁻¹` and the row etas, i.e.
    /// the partially transformed column a following
    /// [`Factorization::push_update`] folds into `U`.
    pub fn ftran_entering(&self, v: &mut [f64], scratch: &mut SolveScratch) {
        self.ftran_impl(v, scratch, true);
    }

    fn ftran_impl(&self, v: &mut [f64], scratch: &mut SolveScratch, capture: bool) {
        let _span = ovnes_obs::span!("lp_ftran");
        let m = self.lu.dim();
        debug_assert_eq!(v.len(), m);
        scratch.ensure(m, self.ft.slots.len());
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
    pub fn btran(&self, w: &mut [f64], scratch: &mut SolveScratch) {
        let _span = ovnes_obs::span!("lp_btran");
        let m = self.lu.dim();
        debug_assert_eq!(w.len(), m);
        scratch.ensure(m, self.ft.slots.len());
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
    /// [`Factorization::ftran_entering`] (held in `scratch.spike`,
    /// consumed here).
    ///
    /// Returns `false` — leaving the factorization *unchanged* — when the
    /// updated diagonal fails the stability test, or when the update would
    /// overflow a slot id or an arena offset; the caller must then
    /// refactorize from the updated basis instead. Cost is proportional to
    /// the spike nnz plus the displaced row's fill, not to the basis
    /// dimension.
    pub fn push_update(&mut self, r: usize, scratch: &mut SolveScratch) -> bool {
        let m = self.lu.dim();
        debug_assert!(r < m);
        if !self.ft.fits_another_update(m) {
            scratch.spike.clear();
            return false;
        }
        let nslots = self.ft.slots.len();
        scratch.ensure(m, nslots + 1);
        let drop_tol = self.lu.drop_tol;
        let sing_tol = self.lu.sing_tol;
        let ft = &mut self.ft;
        let t_slot = ft.slot_of_pos[r] as usize;
        let t_seq = ft.slots[t_slot].seq;

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
        // each cancellation scattering fill from that stage's row. The
        // multipliers go straight into the eta term array.
        let acc_gen = scratch.next_gen();
        debug_assert!(scratch.heap.is_empty());
        for &(p, u) in ft.urow(t_slot) {
            let s = ft.slot_of_pos[p as usize] as usize;
            debug_assert!(ft.slots[s].seq > t_seq);
            scratch.acc[s] = u;
            scratch.acc_mark[s] = acc_gen;
            heap_push(&mut scratch.heap, wl_key(ft.slots[s].seq, s as u32));
        }
        let terms_beg = ft.eta_terms.len();
        let mut new_pivot = v_t;
        while let Some(key) = heap_pop(&mut scratch.heap) {
            let s = (key & WL_SLOT_MASK) as usize;
            let val = scratch.acc[s];
            if val == 0.0 || val.abs() <= drop_tol {
                continue; // cancelled or below the factor's drop policy
            }
            let sl = ft.slots[s];
            let mu = val / sl.pivot;
            ft.eta_terms.push((sl.prow, mu));
            if scratch.spk_mark[s] == spk_gen && scratch.spk[s] != 0.0 {
                new_pivot -= mu * scratch.spk[s];
            }
            for &(p2, u2) in &ft.u_ent[sl.urow.range()] {
                let s2 = ft.slot_of_pos[p2 as usize] as usize;
                if scratch.acc_mark[s2] != acc_gen {
                    scratch.acc_mark[s2] = acc_gen;
                    scratch.acc[s2] = 0.0;
                    heap_push(&mut scratch.heap, wl_key(ft.slots[s2].seq, s2 as u32));
                }
                scratch.acc[s2] -= mu * u2;
            }
        }

        // ---- stability acceptance (see FT_PIVOT_REL), then the displaced
        // slot's place in the elimination order: it is live, so listed.
        let stable =
            new_pivot.is_finite() && new_pivot.abs() > sing_tol.max(FT_PIVOT_REL * spike_max);
        let place = stable
            .then(|| ft.order.iter().position(|&s| s as usize == t_slot))
            .flatten();
        let Some(idx) = place else {
            ft.eta_terms.truncate(terms_beg);
            scratch.spike.clear();
            return false;
        };

        // ---- commit. 1) prune the replaced column from surviving rows,
        // compacting each row in place, and empty its slot list.
        for i in ft.ucols[r].range() {
            let s2 = ft.c_ent[i] as usize;
            let sl = &mut ft.slots[s2];
            if sl.alive {
                let row = &mut ft.u_ent[sl.urow.range()];
                let mut kept = 0;
                for k in 0..row.len() {
                    if row[k].0 as usize != r {
                        row[kept] = row[k];
                        kept += 1;
                    }
                }
                sl.urow.len = kept as u32;
            }
        }
        ft.ucols[r].len = 0;
        // 2) kill the displaced slot and drop it from the order.
        ft.slots[t_slot].alive = false;
        ft.order.remove(idx);
        let target_row = ft.slots[t_slot].prow;
        // 3) append the replacement slot: same pivot row, now pivoting
        // position r, last in elimination order (so its U row is empty).
        let nt = nslots as u32;
        ft.slots.push(Slot {
            prow: target_row,
            pos: r as u32,
            pivot: new_pivot,
            seq: ft.next_seq,
            urow: Seg::default(),
            alive: true,
        });
        ft.next_seq += 1;
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
                seg_push(&mut ft.u_ent, &mut ft.slots[su].urow, (r as u32, val));
                seg_push(&mut ft.c_ent, &mut ft.ucols[r], s);
            }
        }
        // 5) close the row eta whose terms step "eliminate" wrote.
        if ft.eta_terms.len() > terms_beg {
            ft.etas.push(Eta {
                target: target_row,
                end: ft.eta_terms.len() as u32,
            });
        }
        ft.updates += 1;
        scratch.spike.clear();
        true
    }
}

#[cfg(test)]
impl Factorization {
    /// A fresh factorization whose update state already holds dead slots up
    /// to `free` ids short of the slot limit — the state a long chain of
    /// updates without a refactorization would reach.
    fn with_free_slot_ids(lu: SparseLu, free: usize) -> Factorization {
        let mut f = Factorization::new(lu);
        let dead = Slot {
            prow: 0,
            pos: 0,
            pivot: 0.0,
            seq: 0,
            urow: Seg::default(),
            alive: false,
        };
        f.ft.slots.resize(SLOT_LIMIT as usize - free, dead);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::jagged::{JaggedFactorization, JaggedLu};
    use super::*;

    /// Bit patterns, so that `-0.0 ≠ 0.0` and NaN compares equal to itself.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn entry_bits(v: &[(u32, f64)]) -> Vec<(u32, u64)> {
        v.iter().map(|&(i, x)| (i, x.to_bits())).collect()
    }

    fn mat_vec(a: &[f64], m: usize, x: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|i| (0..m).map(|j| a[i * m + j] * x[j]).sum())
            .collect()
    }

    fn mat_t_vec(a: &[f64], m: usize, x: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|j| (0..m).map(|i| a[i * m + j] * x[i]).sum())
            .collect()
    }

    /// Dense row-major → per-column sparse form.
    fn dense_to_cols(a: &[f64], m: usize) -> Vec<Vec<(u32, f64)>> {
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i * m + j] != 0.0)
                    .map(|i| (i as u32, a[i * m + j]))
                    .collect()
            })
            .collect()
    }

    /// Seeded xorshift for fixture matrices (self-contained; the shared
    /// `gen` module builds Problems, not matrices).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Random sparse diagonally-weighted matrix: nonsingular with high
    /// probability, sparse enough to exercise the worklist paths.
    fn random_sparse(rng: &mut Rng, m: usize, extra_per_row: usize) -> Vec<f64> {
        let mut a = vec![0.0; m * m];
        for i in 0..m {
            a[i * m + i] = 3.0 + 4.0 * rng.next();
            for _ in 0..extra_per_row {
                let j = (rng.next() * m as f64) as usize % m;
                if j != i {
                    a[i * m + j] = 2.0 * rng.next() - 1.0;
                }
            }
        }
        a
    }

    #[test]
    fn lu_roundtrip_small() {
        let m = 3;
        let a = vec![2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0];
        let lu = Lu::factor(a.clone(), m).expect("nonsingular");
        let x_true = vec![1.0, -2.0, 3.0];
        let mut v = mat_vec(&a, m, &x_true);
        lu.solve(&mut v);
        for (got, want) in v.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
        let mut w = mat_t_vec(&a, m, &x_true);
        lu.solve_t(&mut w);
        for (got, want) in w.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn sparse_lu_roundtrip_small() {
        let m = 3;
        let a = vec![2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0];
        let lu = SparseLu::factor_cols(m, &dense_to_cols(&a, m)).expect("nonsingular");
        let mut scratch = Vec::new();
        let x_true = vec![1.0, -2.0, 3.0];
        let mut v = mat_vec(&a, m, &x_true);
        lu.solve(&mut v, &mut scratch);
        for (got, want) in v.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
        let mut w = mat_t_vec(&a, m, &x_true);
        lu.solve_t(&mut w, &mut scratch);
        for (got, want) in w.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn singular_detected() {
        let m = 2;
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(Lu::factor(a.clone(), m).is_none());
        assert!(SparseLu::factor_cols(m, &dense_to_cols(&a, m)).is_none());
        // Structurally singular: an empty column.
        assert!(SparseLu::factor_cols(2, &[vec![(0, 1.0), (1, 1.0)], vec![]]).is_none());
        // The rescan baseline must agree.
        let cols = dense_to_cols(&a, m);
        assert!(SparseLu::factor_rescan(m, |pos, buf| buf.extend_from_slice(&cols[pos])).is_none());
    }

    #[test]
    fn badly_scaled_nonsingular_basis_factorizes() {
        // Regression for the absolute SINGULAR_TOL: every entry is far below
        // the old 1e-11 absolute threshold, yet the matrix is perfectly
        // conditioned relative to its own scale.
        let m = 3;
        let s = 1e-13;
        let a: Vec<f64> = [4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]
            .iter()
            .map(|v| v * s)
            .collect();
        let lu = Lu::factor(a.clone(), m).expect("relative tolerance must accept");
        let slu = SparseLu::factor_cols(m, &dense_to_cols(&a, m))
            .expect("relative tolerance must accept (sparse)");
        let mut scratch = Vec::new();
        let x_true = vec![1.0, -2.0, 3.0];
        let mut v = mat_vec(&a, m, &x_true);
        lu.solve(&mut v);
        let mut vs = mat_vec(&a, m, &x_true);
        slu.solve(&mut vs, &mut scratch);
        for (got, want) in v.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6, "dense: {got} vs {want}");
        }
        for (got, want) in vs.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6, "sparse: {got} vs {want}");
        }
        // …while a genuinely singular matrix at the same scale is rejected.
        let sing: Vec<f64> = [1.0, 2.0, 0.0, 2.0, 4.0, 0.0, 0.0, 0.0, 1.0]
            .iter()
            .map(|v| v * s)
            .collect();
        assert!(Lu::factor(sing.clone(), m).is_none());
        assert!(SparseLu::factor_cols(m, &dense_to_cols(&sing, m)).is_none());
    }

    #[test]
    fn sparse_lu_tracks_fill_in() {
        // An arrow matrix: dense last row/column forces fill unless the
        // Markowitz order eliminates the dense row/col last.
        let m = 6;
        let mut a = vec![0.0; m * m];
        for i in 0..m {
            a[i * m + i] = 2.0 + i as f64;
            a[(m - 1) * m + i] = 1.0;
            a[i * m + (m - 1)] = 1.0;
        }
        let lu = SparseLu::factor_cols(m, &dense_to_cols(&a, m)).expect("nonsingular");
        // Markowitz keeps the arrow fill-free: only the pre-existing
        // nonzeros appear in the factors.
        assert_eq!(lu.fill_in(), 0, "arrow matrix should factor without fill");
        let x_true: Vec<f64> = (0..m).map(|i| (i as f64) - 2.5).collect();
        let mut v = mat_vec(&a, m, &x_true);
        let mut scratch = Vec::new();
        lu.solve(&mut v, &mut scratch);
        for (got, want) in v.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn bucketed_factor_matches_rescan_exactly() {
        // The bucketed selection is engineered to choose the identical
        // pivot sequence (lowest-index column of minimum count, same row
        // rule), so the factors must be *bitwise* equal — while the
        // selection effort must not exceed the rescan's.
        let mut rng = Rng(0x0005_eed1_u64);
        for m in [1usize, 2, 5, 17, 48, 96] {
            for extra in [0usize, 2, 6] {
                let a = random_sparse(&mut rng, m, extra);
                let cols = dense_to_cols(&a, m);
                let fast = SparseLu::factor_cols(m, &cols);
                let slow = SparseLu::factor_rescan(m, |pos, buf| buf.extend_from_slice(&cols[pos]));
                assert_eq!(
                    fast.is_some(),
                    slow.is_some(),
                    "singularity verdicts diverge at m={m}"
                );
                let (Some(fast), Some(slow)) = (fast, slow) else {
                    continue;
                };
                assert_eq!(fast.perm_row, slow.perm_row, "pivot rows diverge at m={m}");
                assert_eq!(fast.perm_col, slow.perm_col, "pivot cols diverge at m={m}");
                assert_eq!(
                    bits(&fast.pivots),
                    bits(&slow.pivots),
                    "pivots diverge at m={m}"
                );
                assert_eq!(fast.l_ptr, slow.l_ptr, "L pointers diverge at m={m}");
                assert_eq!(
                    entry_bits(&fast.l_ent),
                    entry_bits(&slow.l_ent),
                    "L diverges at m={m}"
                );
                assert_eq!(fast.u_ptr, slow.u_ptr, "U pointers diverge at m={m}");
                assert_eq!(
                    entry_bits(&fast.u_ent),
                    entry_bits(&slow.u_ent),
                    "U diverges at m={m}"
                );
                assert_eq!(
                    fast.stage_of_row, slow.stage_of_row,
                    "row stages diverge at m={m}"
                );
                assert_eq!(
                    fast.lrow_ptr, slow.lrow_ptr,
                    "L row pointers diverge at m={m}"
                );
                assert_eq!(
                    fast.lrow_stage, slow.lrow_stage,
                    "L row lists diverge at m={m}"
                );
                if m >= 48 {
                    assert!(
                        fast.pivot_scan_work() < slow.pivot_scan_work(),
                        "bucketed selection should examine fewer candidates \
                         (m={m}: {} vs {})",
                        fast.pivot_scan_work(),
                        slow.pivot_scan_work()
                    );
                }
            }
        }
    }

    #[test]
    fn ft_updates_match_refactorization() {
        // Start from B = I, replace columns one at a time, and check FTRAN /
        // BTRAN against a direct factorization of the updated matrix.
        let m = 4;
        let mut b: Vec<f64> = vec![0.0; m * m];
        for i in 0..m {
            b[i * m + i] = 1.0;
        }
        let mut fact = Factorization::new(SparseLu::factor_cols(m, &dense_to_cols(&b, m)).unwrap());
        let mut scratch = SolveScratch::new();

        let replacements: Vec<(usize, Vec<f64>)> = vec![
            (2, vec![1.0, 0.5, 2.0, -1.0]),
            (0, vec![3.0, 0.0, 1.0, 0.0]),
            (3, vec![0.0, -2.0, 0.5, 4.0]),
        ];
        for (r, col) in replacements {
            let mut alpha = col.clone();
            fact.ftran_entering(&mut alpha, &mut scratch);
            assert!(fact.push_update(r, &mut scratch), "update must be stable");
            for i in 0..m {
                b[i * m + r] = col[i];
            }
            let direct = Lu::factor(b.clone(), m).unwrap();

            let v0 = vec![1.0, 2.0, -1.0, 0.5];
            let mut via_ft = v0.clone();
            fact.ftran(&mut via_ft, &mut scratch);
            let mut via_direct = v0.clone();
            direct.solve(&mut via_direct);
            for (a, c) in via_ft.iter().zip(&via_direct) {
                assert!((a - c).abs() < 1e-9, "ftran {a} vs {c}");
            }

            let mut wt_ft = v0.clone();
            fact.btran(&mut wt_ft, &mut scratch);
            let mut wt_direct = v0;
            direct.solve_t(&mut wt_direct);
            for (a, c) in wt_ft.iter().zip(&wt_direct) {
                assert!((a - c).abs() < 1e-9, "btran {a} vs {c}");
            }
        }
    }

    #[test]
    fn ft_long_update_chain_stays_accurate() {
        // ≥64 consecutive folded pivots on a sparse basis, checked against
        // a from-scratch factorization after every update — the compression
        // must not let error accumulate past solve tolerance, and the
        // update count must be visible for the engine's interval logic.
        let m = 24;
        let mut rng = Rng(0xfeed_beefu64);
        let mut b = random_sparse(&mut rng, m, 3);
        let mut fact = Factorization::new(SparseLu::factor_cols(m, &dense_to_cols(&b, m)).unwrap());
        let mut scratch = SolveScratch::new();
        let mut applied = 0usize;
        let mut step = 0usize;
        while applied < 70 {
            let r = step % m;
            step += 1;
            // Diagonally dominated replacement keeps the chain stable.
            let mut col = vec![0.0; m];
            col[r] = 4.0 + rng.next();
            for _ in 0..3 {
                let i = (rng.next() * m as f64) as usize % m;
                if i != r {
                    col[i] = rng.next() - 0.5;
                }
            }
            let mut alpha = col.clone();
            fact.ftran_entering(&mut alpha, &mut scratch);
            if !fact.push_update(r, &mut scratch) {
                // Legitimate refusal: refactorize from the updated matrix,
                // exactly as the engine would.
                for i in 0..m {
                    b[i * m + r] = col[i];
                }
                fact = Factorization::new(
                    SparseLu::factor_cols(m, &dense_to_cols(&b, m)).expect("nonsingular"),
                );
                continue;
            }
            applied += 1;
            for i in 0..m {
                b[i * m + r] = col[i];
            }
            let direct = Lu::factor(b.clone(), m).expect("nonsingular");
            let v0: Vec<f64> = (0..m).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let mut via_ft = v0.clone();
            fact.ftran(&mut via_ft, &mut scratch);
            let mut via_direct = v0.clone();
            direct.solve(&mut via_direct);
            for (a, c) in via_ft.iter().zip(&via_direct) {
                assert!(
                    (a - c).abs() < 1e-7,
                    "ftran after {applied} updates: {a} vs {c}"
                );
            }
            let mut wt_ft = v0.clone();
            fact.btran(&mut wt_ft, &mut scratch);
            let mut wt_direct = v0;
            direct.solve_t(&mut wt_direct);
            for (a, c) in wt_ft.iter().zip(&wt_direct) {
                assert!(
                    (a - c).abs() < 1e-7,
                    "btran after {applied} updates: {a} vs {c}"
                );
            }
        }
        assert!(fact.update_count() >= 1);
    }

    #[test]
    fn hypersparse_solves_bitwise_match_dense() {
        // Same factorization, same RHS: one solve through the dense sweep
        // (no declared nonzeros), one through the worklist path. Results
        // must agree to the bit, on unit vectors, sparse RHS, and (as a
        // cutoff check) a dense RHS that must fall back.
        let m = 96; // past HYPERSPARSE_DIM_MIN
        let mut rng = Rng(0xabcdu64);
        let b = random_sparse(&mut rng, m, 2);
        let mut fact = Factorization::new(SparseLu::factor_cols(m, &dense_to_cols(&b, m)).unwrap());
        let mut scratch = SolveScratch::new();
        // Fold a few updates in so the FT row etas are exercised too.
        for r in [5usize, 40, 77] {
            let mut col = vec![0.0; m];
            col[r] = 5.0;
            col[(r + 9) % m] = 0.25;
            let mut alpha = col.clone();
            fact.ftran_entering(&mut alpha, &mut scratch);
            assert!(fact.push_update(r, &mut scratch));
        }

        let cases: Vec<Vec<u32>> = vec![
            vec![17],
            vec![3, 50, 90],
            vec![0, 1, 2, 3],
            (0..m as u32).collect(), // dense: cutoff must refuse the worklist
        ];
        for nz in cases {
            let mut v = vec![0.0; m];
            for &i in &nz {
                v[i as usize] = 1.0 + (i as f64) / 7.0;
            }
            // FTRAN both ways.
            let mut dense_v = v.clone();
            fact.ftran(&mut dense_v, &mut scratch);
            let mut sparse_v = v.clone();
            scratch.rhs_nz = nz.clone();
            fact.ftran(&mut sparse_v, &mut scratch);
            for (i, (a, c)) in sparse_v.iter().zip(&dense_v).enumerate() {
                assert!(
                    a.to_bits() == c.to_bits(),
                    "ftran nnz={} row {i}: {a:e} vs {c:e}",
                    nz.len()
                );
            }
            // BTRAN both ways.
            let mut dense_w = v.clone();
            fact.btran(&mut dense_w, &mut scratch);
            let mut sparse_w = v.clone();
            scratch.rhs_nz = nz.clone();
            fact.btran(&mut sparse_w, &mut scratch);
            for (i, (a, c)) in sparse_w.iter().zip(&dense_w).enumerate() {
                assert!(
                    a.to_bits() == c.to_bits(),
                    "btran nnz={} row {i}: {a:e} vs {c:e}",
                    nz.len()
                );
            }
        }
        // The sparse cases took the worklist path; the dense case did not.
        let (hf, hb) = scratch.take_hypersparse_counts();
        assert_eq!(hf, 3, "three FTRANs should have gone hyper-sparse");
        assert_eq!(hb, 3, "three BTRANs should have gone hyper-sparse");
    }

    #[test]
    fn cloned_factorization_updates_do_not_leak() {
        // Copy-on-compress: folding an update into one clone must leave a
        // sibling clone solving with the original basis.
        let m = 4;
        let mut b = vec![0.0; m * m];
        for i in 0..m {
            b[i * m + i] = 2.0;
        }
        let base = Factorization::new(SparseLu::factor_cols(m, &dense_to_cols(&b, m)).unwrap());
        let mut worker_a = base.clone();
        let worker_b = base.clone();
        let mut scratch = SolveScratch::new();
        let col = vec![1.0, 1.0, 3.0, 0.0];
        let mut alpha = col.clone();
        worker_a.ftran_entering(&mut alpha, &mut scratch);
        assert!(worker_a.push_update(2, &mut scratch));
        assert_eq!(worker_a.update_count(), 1);
        assert_eq!(worker_b.update_count(), 0, "sibling saw the update");
        // Sibling still solves the *original* diagonal system.
        let mut v = vec![2.0, 4.0, 6.0, 8.0];
        worker_b.btran(&mut v, &mut scratch);
        for (i, got) in v.iter().enumerate() {
            let want = (2.0 * (i as f64 + 1.0)) / 2.0;
            assert!((got - want).abs() < 1e-12, "row {i}: {got} vs {want}");
        }
    }

    /// The flat factor and the jagged oracle hold the same numbers in the
    /// same order: stage by stage, row by row, bit for bit.
    fn assert_same_factors(flat: &SparseLu, jag: &JaggedLu, label: &str) {
        assert_eq!(flat.perm_row, jag.perm_row, "{label}: pivot rows");
        assert_eq!(flat.perm_col, jag.perm_col, "{label}: pivot cols");
        assert_eq!(bits(&flat.pivots), bits(&jag.pivots), "{label}: pivots");
        for k in 0..flat.dim() {
            assert_eq!(
                entry_bits(flat.lcol(k)),
                entry_bits(&jag.lcols[k]),
                "{label}: L {k}"
            );
            assert_eq!(
                entry_bits(flat.urow(k)),
                entry_bits(&jag.urows[k]),
                "{label}: U {k}"
            );
        }
        assert_eq!(flat.stage_of_row, jag.stage_of_row, "{label}: row stages");
        for (i, stages) in jag.lrow_stages.iter().enumerate() {
            let got = csr(&flat.lrow_ptr, &flat.lrow_stage, i);
            assert_eq!(got, &stages[..], "{label}: L row {i}");
        }
        assert_eq!(flat.fill_in(), jag.fill_in(), "{label}: fill-in");
        assert_eq!(
            flat.pivot_scan_work(),
            jag.pivot_scan_work(),
            "{label}: scan work"
        );
    }

    /// Factorizes `cols` both ways (the flat side through its long-lived,
    /// reused scratch) and checks the factors agree; `None` when both call
    /// the matrix singular.
    fn factor_both(
        cols: &[Vec<(u32, f64)>],
        scratch: &mut SolveScratch,
        label: &str,
    ) -> Option<(Factorization, JaggedFactorization)> {
        let m = cols.len();
        let fill = |pos: usize, buf: &mut Vec<(u32, f64)>| buf.extend_from_slice(&cols[pos]);
        let flat = SparseLu::factor(m, scratch, fill);
        let jag = JaggedLu::factor(m, fill);
        assert_eq!(
            flat.is_some(),
            jag.is_some(),
            "{label}: singularity verdicts"
        );
        let (flat, jag) = (flat?, jag?);
        assert_same_factors(&flat, &jag, label);
        Some((Factorization::new(flat), JaggedFactorization::new(jag)))
    }

    /// Nonzero pattern of `v`, the engine's hint for the worklist path.
    fn pattern(v: &[f64]) -> Vec<u32> {
        (0..v.len() as u32)
            .filter(|&i| v[i as usize] != 0.0)
            .collect()
    }

    /// FTRANs and BTRANs of `rhs` through both factorizations, on the dense
    /// sweep and (hinted) on the worklist path: every result bit for bit.
    /// Returns the flat results, for later comparison.
    fn solve_both(
        flat: &Factorization,
        jag: &JaggedFactorization,
        rhs: &[Vec<f64>],
        fs: &mut SolveScratch,
        js: &mut SolveScratch,
        label: &str,
    ) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for v in rhs {
            for hinted in [false, true] {
                let (mut a, mut b) = (v.clone(), v.clone());
                if hinted {
                    fs.rhs_nz = pattern(v);
                    js.rhs_nz = pattern(v);
                }
                flat.ftran(&mut a, fs);
                jag.ftran(&mut b, js);
                assert_eq!(bits(&a), bits(&b), "{label}: ftran (hinted {hinted})");
                out.push(bits(&a));
                let (mut a, mut b) = (v.clone(), v.clone());
                if hinted {
                    fs.rhs_nz = pattern(v);
                    js.rhs_nz = pattern(v);
                }
                flat.btran(&mut a, fs);
                jag.btran(&mut b, js);
                assert_eq!(bits(&a), bits(&b), "{label}: btran (hinted {hinted})");
                out.push(bits(&a));
            }
        }
        out
    }

    /// A random right-hand side with `nnz` nonzeros (dense when `nnz ≥ m`).
    fn random_rhs(rng: &mut Rng, m: usize, nnz: usize) -> Vec<f64> {
        let mut v = vec![0.0; m];
        for _ in 0..nnz.min(m) {
            v[(rng.next() * m as f64) as usize % m] = 4.0 * rng.next() - 2.0;
        }
        v
    }

    /// The refinement check of the flat layout (the specification is the
    /// jagged layout it replaced, `jagged.rs`): over random sparse bases and
    /// random pivot sequences — strong pivots, pivots the Forrest–Tomlin
    /// acceptance refuses, scheduled refactorizations — every factor array,
    /// entering FTRAN, spike, update verdict, FTRAN and BTRAN, dense and
    /// hyper-sparse, is the oracle's bit for bit. The flat side runs every
    /// factorization through one reused scratch (dimensions rise and fall),
    /// and a clone taken mid-sequence must solve exactly as it did when
    /// taken while its sibling folds in further updates (copy-on-compress).
    #[test]
    fn flat_factors_refine_the_jagged_factors() {
        const INTERVAL: usize = 8;
        let mut rng = Rng(0x0f1a_7e5e_u64);
        let mut fs = SolveScratch::new();
        let mut js = SolveScratch::new();
        let (mut refused, mut refactors, mut clones) = (0, 0, 0);
        for (m, extra) in [
            (1usize, 0usize),
            (5, 1),
            (17, 2),
            (96, 2),
            (40, 3),
            (70, 1),
            (128, 2),
        ] {
            let label = format!("m={m}");
            let mut cols = dense_to_cols(&random_sparse(&mut rng, m, extra), m);
            let (mut flat, mut jag) = factor_both(&cols, &mut fs, &label).expect("nonsingular");
            let mut sibling: Option<(Factorization, JaggedFactorization, Vec<Vec<f64>>)> = None;
            let mut snapshot = Vec::new();
            for step in 0..60 {
                let label = format!("m={m} step {step}");
                // Entering column and leaving position. Every eleventh step
                // enters a copy of the column at position k, nudged by 1e-13
                // in one row, against a position r ≠ k: the updated
                // diagonal is at most roundoff and the update is refused.
                let weak = m > 1 && step % 11 == 10;
                let (col, r) = if weak {
                    let k = (rng.next() * m as f64) as usize % m;
                    let mut col = vec![0.0; m];
                    for &(i, v) in &cols[k] {
                        col[i as usize] = v;
                    }
                    col[(rng.next() * m as f64) as usize % m] += 1e-13;
                    (col, (k + 1) % m)
                } else {
                    let r = (rng.next() * m as f64) as usize % m;
                    let mut col = vec![0.0; m];
                    col[r] = 3.0 + rng.next();
                    for _ in 0..2 {
                        col[(rng.next() * m as f64) as usize % m] += rng.next() - 0.5;
                    }
                    (col, r)
                };
                let hinted = step % 2 == 1;
                let (mut a, mut b) = (col.clone(), col.clone());
                if hinted {
                    fs.rhs_nz = pattern(&col);
                    js.rhs_nz = pattern(&col);
                }
                flat.ftran_entering(&mut a, &mut fs);
                jag.ftran_entering(&mut b, &mut js);
                assert_eq!(bits(&a), bits(&b), "{label}: entering ftran");
                assert_eq!(
                    entry_bits(&fs.spike),
                    entry_bits(&js.spike),
                    "{label}: spike"
                );
                let verdict = flat.push_update(r, &mut fs);
                assert_eq!(
                    verdict,
                    jag.push_update(r, &mut js),
                    "{label}: update verdict"
                );
                assert_eq!(flat.update_count(), jag.update_count(), "{label}: updates");
                let entries = pattern(&col).into_iter().map(|i| (i, col[i as usize]));
                let old = std::mem::replace(&mut cols[r], entries.collect());
                if !verdict || flat.update_count() >= INTERVAL {
                    refused += usize::from(!verdict);
                    refactors += 1;
                    match factor_both(&cols, &mut fs, &label) {
                        Some(pair) => (flat, jag) = pair,
                        None => {
                            // The refused column left the basis singular:
                            // put the old one back and refactorize that.
                            cols[r] = old;
                            (flat, jag) =
                                factor_both(&cols, &mut fs, &label).expect("was nonsingular");
                        }
                    }
                }
                let rhs = [
                    random_rhs(&mut rng, m, 1),
                    random_rhs(&mut rng, m, 3),
                    random_rhs(&mut rng, m, m),
                ];
                solve_both(&flat, &jag, &rhs, &mut fs, &mut js, &label);
                if step == 20 {
                    // Copy-on-compress: keep one clone aside, continue on the other.
                    let probe = vec![random_rhs(&mut rng, m, 2), random_rhs(&mut rng, m, m)];
                    snapshot = solve_both(&flat, &jag, &probe, &mut fs, &mut js, &label);
                    sibling = Some((flat.clone(), jag.clone(), probe));
                    flat = flat.clone();
                    clones += 1;
                }
            }
            let (sib, sib_jag, probe) = sibling.expect("taken at step 20");
            let again = solve_both(&sib, &sib_jag, &probe, &mut fs, &mut js, &label);
            assert_eq!(
                again, snapshot,
                "{label}: a sibling's updates leaked into a clone"
            );
        }
        assert!(
            refused >= 20,
            "too few refused updates to cover the seam: {refused}"
        );
        assert!(refactors > refused, "no scheduled refactorization ran");
        assert_eq!(clones, 7);
        let (hf, hb) = fs.take_hypersparse_counts();
        assert!(
            hf > 0 && hb > 0,
            "the worklist paths never ran ({hf}, {hb})"
        );
    }

    /// A slot id has 21 bits in a worklist key. An update that would need
    /// one more is refused like an unstable one — the factorization is left
    /// as it was — and the refactorization the engine then runs starts the
    /// ids over.
    #[test]
    fn an_update_past_the_slot_limit_is_refused() {
        let m = 4;
        let mut b = vec![0.0; m * m];
        for i in 0..m {
            b[i * m + i] = 2.0 + i as f64;
            b[i * m + (i + 1) % m] = 0.5;
        }
        let lu = SparseLu::factor_cols(m, &dense_to_cols(&b, m)).expect("nonsingular");
        let mut fact = Factorization::with_free_slot_ids(lu, 1);
        let mut scratch = SolveScratch::new();
        let mut replace = |fact: &mut Factorization, b: &mut Vec<f64>, r: usize, col: &[f64]| {
            let mut alpha = col.to_vec();
            fact.ftran_entering(&mut alpha, &mut scratch);
            let accepted = fact.push_update(r, &mut scratch);
            for i in 0..m {
                b[i * m + r] = col[i];
            }
            accepted
        };
        // The last free id is taken…
        assert!(replace(&mut fact, &mut b, 1, &[0.5, 3.0, 0.0, 1.0]));
        assert_eq!(fact.update_count(), 1);
        let probe = [1.0, -2.0, 0.5, 4.0];
        let solved = |fact: &Factorization, scratch: &mut SolveScratch| {
            let (mut x, mut y) = (probe.to_vec(), probe.to_vec());
            fact.ftran(&mut x, scratch);
            fact.btran(&mut y, scratch);
            (bits(&x), bits(&y))
        };
        let before = solved(&fact, &mut SolveScratch::new());
        // …so a perfectly stable update has no id left: refused, unchanged.
        assert!(!replace(&mut fact, &mut b, 2, &[0.0, 1.0, 5.0, 0.0]));
        assert_eq!(fact.update_count(), 1);
        assert_eq!(solved(&fact, &mut SolveScratch::new()), before);
        // The engine's answer to a refusal: refactorize the updated basis.
        let fresh = SparseLu::factor_cols(m, &dense_to_cols(&b, m)).expect("nonsingular");
        let mut fact = Factorization::new(fresh);
        let direct = Lu::factor(b.clone(), m).expect("nonsingular");
        let (mut x, mut want) = (probe.to_vec(), probe.to_vec());
        fact.ftran(&mut x, &mut SolveScratch::new());
        direct.solve(&mut want);
        for (got, want) in x.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert!(
            replace(&mut fact, &mut b, 0, &[4.0, 0.0, 1.0, 0.0]),
            "ids start over"
        );
    }
}
