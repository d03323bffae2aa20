//! The bounded-variable revised simplex engine: primal phase 1 / phase 2 and
//! a dual simplex for warm restarts.
//!
//! All three phases share one state: a factorized basis (`lu.rs`, sparse LU
//! with Forrest–Tomlin updates), a status per column (`Basic` / `AtLower` /
//! `AtUpper` / `Free`), and the dense vector of basic values `x_B`. Nonbasic
//! columns sit exactly on a bound (or at 0 when free), so the full primal
//! point is implied.
//!
//! * **Phase 1** minimises the total bound violation of the basic variables
//!   (the classic composite infeasibility objective, re-priced every
//!   iteration). A positive optimum proves infeasibility and its pricing
//!   vector is the Farkas certificate.
//! * **Phase 2** is the textbook bounded-variable primal simplex with bound
//!   flips in the ratio test.
//! * **Dual simplex** starts from any dual-feasible basis and restores
//!   primal feasibility bound-violation by bound-violation — the workhorse
//!   of warm starts, where a branch-and-bound bound change or a new Benders
//!   cut leaves the stored basis dual feasible but primal infeasible.
//!
//! Primal pricing is **devex** (Forrest–Goldfarb reference weights): the
//! entering column maximises `d_j² / w_j`, where `w_j` approximates the
//! steepest-edge norm of column `j` and is updated from the pivot row after
//! every basis change. Unlike Dantzig's most-negative rule, devex accounts
//! for how *long* the improving edge is, which breaks the stalling pattern
//! on degenerate slave LPs. Bland's least-index rule still takes over after
//! `SimplexOptions::bland_after` iterations in a phase as the cycling
//! backstop.
//!
//! On large problems pricing runs over a **candidate list** (partial
//! pricing): a rotating bucket of attractive nonbasic columns is scanned
//! each iteration instead of the whole column set, and the bucket is
//! refreshed by a cyclic full scan only when it goes stale. Per-iteration
//! pricing cost therefore stops scaling with total column count;
//! [`LpStats::pricing_scans`] and [`LpStats::candidate_refreshes`] make the
//! difference observable. Optimality is still only declared after a full
//! refresh scan finds no eligible column, and Bland mode always scans
//! everything, so the cycling guarantee is untouched.
//!
//! The dual simplex uses the **long-step (bound-flipping) ratio test**: when
//! the cheapest dual breakpoint belongs to a boxed column, the column is
//! flipped to its opposite bound (one aggregated FTRAN updates `x_B`) and
//! the scan continues to a later breakpoint, turning a chain of
//! degenerate-length dual pivots into a single long step. Flips are counted
//! in [`LpStats::bound_flips`].
//!
//! The dual simplex's **leaving-row choice runs dual devex**: per-row
//! reference weights `w_i` approximating `‖B⁻¹eᵢ‖²` are kept in the
//! workspace, the leaving row maximises `violation² / w_i` instead of the
//! raw violation, and the weights are updated from the entering column's
//! FTRAN image after every dual pivot (the dual-side Forrest–Goldfarb
//! recurrence). Like primal devex this accounts for how *long* the dual
//! edge is, which matters on the degenerate bound-heavy re-solves the warm
//! path lives on. Bland mode ignores the weights (the anti-cycling argument
//! needs the plain least-index rule).
//!
//! An engine can be seeded with the [`Factorization`] a previous solve of
//! the same basis ended with (see [`super::Basis`] and
//! [`super::WarmChain`]): a pure RHS or bound edit leaves the basis matrix
//! untouched, so the solve starts with **zero refactorizations** —
//! FTRAN/BTRAN replay the stored factors directly.
//!
//! ## Scratch and restart state
//!
//! The engine owns **no hidden scratch**: every temporary buffer — the
//! triangular-solve scratch, FTRAN/BTRAN images, pricing vectors, devex
//! weights (primal and dual), the candidate list, the dual candidate bitset
//! and pivot-row accumulator, the dual ratio-test breakpoints, the
//! aggregated flip column — lives in a [`Workspace`], which the
//! [`WarmChain`](super::WarmChain) running the solve owns and lends for its
//! duration. The inputs ([`Canon`], a borrow of the problem's own arrays,
//! and [`SimplexOptions`]) are read-only. A workspace is pure scratch: it
//! is reset at engine construction, carries no information between solves,
//! and therefore never affects results — only allocation traffic. Within
//! one solve the engine does reuse one thing it left there: the duals
//! `B⁻ᵀc_B` in the pricing buffer, until a refactorization, an absorbed
//! pivot or phase-1 pricing invalidates them (a BTRAN is a function of the
//! factorization and its right-hand side, so a reuse is the BTRAN it skips,
//! bit for bit). That reuse starts and ends inside the solve.
//!
//! The *restart state* — statuses, basic set, the `x_B` buffer and the
//! factorization — is not scratch and not borrowed: the engine moves it out
//! of the chain's [`Restart`] and puts it back through [`Engine::finish`].
//! Which factorization it starts from, if any — the chain's own, or a copy
//! of a loaded [`Basis`](super::Basis)'s — is settled before the engine
//! sees it.

use super::canon::{drain_ascending, Canon};
use super::lu::{Factorization, SolveScratch, SparseLu};
use super::{LpStats, VarStatus};
use crate::simplex::SolveError;
use crate::SimplexOptions;

/// Minimum pivot magnitude accepted in a basis change.
const PIVOT_TOL: f64 = 1e-9;
/// Primal feasibility tolerance on bound violations.
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost (dual feasibility) tolerance.
const DUAL_TOL: f64 = 1e-7;
/// Tie window of the primal and dual ratio tests: candidates whose ratio
/// lies within this of the best are tied, and the tie is broken by pivot
/// magnitude (or least index under Bland's rule).
const RATIO_TIE_TOL: f64 = 1e-10;
/// Long-step dual ratio test threshold: a breakpoint column is flipped
/// through — instead of entering — only when its flip capacity
/// `|α_j|·(ub_j − lb_j)` exceeds this, so bound ranges that are numerically
/// zero never churn.
const FLIP_TOL: f64 = 1e-9;
/// Devex weights above this trigger a reference-framework reset.
const DEVEX_RESET: f64 = 1e8;

/// Problems with fewer total columns than this are priced by a full scan:
/// the candidate-list machinery only pays for itself once the column set is
/// large enough that a full scan dominates the iteration cost.
const PARTIAL_PRICING_MIN_COLS: usize = 256;

/// Scratch for the revised engine: every buffer a solve needs beyond the
/// immutable problem data and the restart state (basis, factorization)
/// itself. A [`WarmChain`](crate::WarmChain) owns one and lends it to each
/// of its solves, so the buffers are allocated once per chain. Contents are
/// overwritten at engine construction, so a workspace carries **no state
/// between solves**: what does persist from one solve to the next is the
/// chain's [`Restart`], kept apart.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Scratch of the factorization: worklist heaps, stamp arrays, the
    /// Forrest–Tomlin spike, and the working set every refactorization
    /// resets and reuses. Before a solve, the engine loads `lu.rhs_nz` with
    /// the RHS nonzero pattern so the solve can pick the worklist path; the
    /// pattern is consumed per call.
    lu: SolveScratch,
    /// Scratch column buffer (entering column / FTRAN image).
    alpha: Vec<f64>,
    /// Scratch row buffer (BTRAN rows in the dual simplex / devex updates).
    rowbuf: Vec<f64>,
    /// Scratch row buffer (pricing vectors / duals). Within one solve it
    /// keeps the current duals until the basis or factorization changes.
    ybuf: Vec<f64>,
    /// Devex reference weights per column (primal pricing).
    devex: Vec<f64>,
    /// Devex reference weights per row (dual leaving-row pricing).
    dual_devex: Vec<f64>,
    /// Candidate list for partial primal pricing (empty ⇒ stale).
    plist: Vec<usize>,
    /// Scratch buffer of eligible dual-ratio-test breakpoints.
    dual_cand: Vec<DualCand>,
    /// Dual-side candidate set, one bit per column: the columns with a
    /// structurally-nonzero pivot-row entry, set per dual iteration from the
    /// canonical form's row pattern and cleared word by word as the
    /// ascending walk consumes them.
    cand_bits: Vec<u64>,
    /// Pivot-row entries `α_rj` of the structural candidate columns,
    /// accumulated row by row beside `cand_bits`; an entry is zeroed again
    /// when its column is consumed.
    row_acc: Vec<f64>,
    /// Columns `repair_dual_feasibility` decided to flip.
    flip_cols: Vec<usize>,
    /// Scratch column accumulating the aggregated bound-flip delta.
    flipbuf: Vec<f64>,
}

impl Workspace {
    /// Sizes and resets every buffer for a solve over `m` rows and
    /// `n_total` columns. Called by the engine on construction — after this
    /// no trace of any previous solve remains.
    fn prepare(&mut self, m: usize, n_total: usize) {
        self.lu.rhs_nz.clear();
        // Discard hyper-sparse counts a failed previous solve never drained.
        let _ = self.lu.take_hypersparse_counts();
        self.alpha.clear();
        self.alpha.resize(m, 0.0);
        self.rowbuf.clear();
        self.rowbuf.resize(m, 0.0);
        self.ybuf.clear();
        self.ybuf.resize(m, 0.0);
        self.devex.clear();
        self.devex.resize(n_total, 1.0);
        self.dual_devex.clear();
        self.dual_devex.resize(m, 1.0);
        self.plist.clear();
        self.dual_cand.clear();
        self.cand_bits.clear();
        self.cand_bits.resize(n_total.div_ceil(64), 0);
        self.row_acc.clear();
        self.row_acc.resize(n_total - m, 0.0);
        self.flip_cols.clear();
        self.flipbuf.clear();
        self.flipbuf.resize(m, 0.0);
    }
}

/// Loads `scratch.rhs_nz` with the nonzero pattern of `v` so the next
/// solve can take the hyper-sparse worklist path when the pattern is
/// sparse enough (an O(m) scan, negligible next to the solve it enables;
/// the solve consumes the pattern either way and falls back to the dense
/// sweep on dense patterns).
fn hint_nonzeros(scratch: &mut SolveScratch, v: &[f64]) {
    scratch.rhs_nz.clear();
    for (i, &x) in v.iter().enumerate() {
        if x != 0.0 {
            scratch.rhs_nz.push(i as u32);
        }
    }
}

/// One eligible dual-ratio-test breakpoint.
#[derive(Debug, Clone, Copy)]
struct DualCand {
    /// Candidate entering column.
    j: usize,
    /// Pivot-row entry `α_rj = e_rᵀB⁻¹A_j`.
    arow: f64,
    /// Dual step length `|d_j / α_rj|` at which `d_j` reaches zero (set
    /// once the walk has found a candidate and the duals are priced).
    ratio: f64,
}

/// Where a phase ended.
pub(super) enum PrimalEnd {
    /// No improving column (phase 2) or no remaining violation (phase 1).
    Optimal,
    /// Phase 2 found an unbounded improving ray.
    Unbounded,
    /// Phase 1 stalled with positive infeasibility; the pricing vector is a
    /// Farkas certificate (already in user row orientation).
    Infeasible { y: Vec<f64> },
}

/// Where the dual simplex ended.
pub(super) enum DualEnd {
    /// All basic variables are within bounds.
    PrimalFeasible,
    /// A violated row admits no entering column: primal infeasible, and the
    /// (sign-corrected) BTRAN row is a Farkas certificate.
    Infeasible { y: Vec<f64> },
}

pub(super) struct Engine<'a> {
    pub c: &'a Canon<'a>,
    opts: &'a SimplexOptions,
    /// Status per column (`n + m` entries).
    pub status: Vec<VarStatus>,
    /// Basic column per row position.
    pub basic: Vec<usize>,
    fact: Factorization,
    /// Basic variable values, one per row position.
    pub xb: Vec<f64>,
    iterations_left: usize,
    pub stats: LpStats,
    /// The chain's scratch: every temporary buffer of the solve (see the
    /// module docs).
    ws: &'a mut Workspace,
    /// Whether `ws.ybuf` holds `B⁻ᵀc_B` for the current basis and
    /// factorization (see [`Engine::price_duals`]). A refactorization, an
    /// absorbed pivot and phase-1 pricing clear it.
    y_fresh: bool,
    /// Rotating start position for candidate-list refresh scans (reset per
    /// solve — results never depend on previous solves).
    plist_cursor: usize,
}

/// The restart state of a solve — what one solve of a warm chain hands the
/// next. The engine takes the vectors and the factorization out of it
/// ([`Engine::new`]) and puts them back ([`Engine::finish`]): one solve's end
/// is the next one's start, moved rather than copied. The three words beside
/// them are the chain's (see the parent module): the engine never reads them.
#[derive(Debug, Default)]
pub(super) struct Restart {
    /// Status per column (`n + m` entries).
    pub status: Vec<VarStatus>,
    /// Basic column per row position.
    pub basic: Vec<usize>,
    /// Buffer of the basic values. Contents do not carry over: the first
    /// [`Engine::compute_xb`] of a solve refills it.
    pub xb: Vec<f64>,
    /// Factorization of the basis matrix of `basic`, when one is held that
    /// still matches it: same basic set, same constraint columns (those of
    /// the matrix `matrix_fp` names) as when it was built.
    pub fact: Option<Factorization>,
    /// Whether a basis is held to resume from: the final one of the
    /// previous solve, or a loaded [`Basis`](super::Basis). Cleared on entry
    /// to a solve and set again only when it completes, so a solve that
    /// returns an error leaves a cold chain, not a half-updated one.
    pub warm: bool,
    /// Number of structural columns the held basis was built for.
    pub n_vars: usize,
    /// [`Structure::fingerprint`](super::Structure) of the held basis's matrix.
    pub matrix_fp: u64,
}

/// Factorizes the basis matrix of `basic` from scratch, booking the work in
/// `stats`; the factorization's working set is `scratch`'s, reused. `None`
/// when the matrix is singular.
fn factor_basis(
    canon: &Canon<'_>,
    basic: &[usize],
    stats: &mut LpStats,
    scratch: &mut SolveScratch,
) -> Option<Factorization> {
    let _span = ovnes_obs::span!("lp_factor");
    let lu = SparseLu::factor(canon.m, scratch, |pos, out| canon.push_col(basic[pos], out))?;
    stats.fill_in += lu.fill_in();
    stats.pivot_scan_work += lu.pivot_scan_work();
    stats.refactorizations += 1;
    Some(Factorization::new(lu))
}

impl<'a> Engine<'a> {
    /// Builds an engine over `restart` (statuses and basic set already
    /// sized for `canon`), with all scratch in the caller's `ws` (reset
    /// here). The restart state is moved out of `restart` and handed back by
    /// [`Engine::finish`], so a warm chain lends it without copying.
    ///
    /// When `restart.fact` carries a factorization, the engine starts from
    /// it and skips the initial refactorization entirely.
    ///
    /// A supplied basis whose matrix turns out singular (heavy problem
    /// edits) is discarded in favour of a cold all-logical restart — the
    /// identity always factorizes — with the statistics reset to a single
    /// cold start, exactly as if no basis had been supplied. Should even
    /// the identity fail to factorize, the solve ends in
    /// [`SolveError::Numerical`].
    ///
    /// `x_B` is **not** computed here: the phase driver computes it once it
    /// has settled the nonbasic point (see `run` in the parent module).
    pub(crate) fn new(
        canon: &'a Canon<'a>,
        opts: &'a SimplexOptions,
        restart: &mut Restart,
        mut stats: LpStats,
        ws: &'a mut Workspace,
    ) -> Result<Engine<'a>, SolveError> {
        let mut status = std::mem::take(&mut restart.status);
        let mut basic = std::mem::take(&mut restart.basic);
        let xb = std::mem::take(&mut restart.xb);
        let fact = restart.fact.take();
        let m = canon.m;
        debug_assert_eq!(status.len(), canon.n + m);
        debug_assert_eq!(basic.len(), m);
        ws.prepare(m, canon.n + m);
        let fact = match fact.filter(|f| f.dim() == m) {
            Some(f) => {
                stats.factorization_reuses += 1;
                f
            }
            None => match factor_basis(canon, &basic, &mut stats, &mut ws.lu) {
                Some(f) => f,
                None => {
                    // Stored basis went singular: cold restart. The
                    // all-logical basis is the identity and always
                    // factorizes.
                    super::cold_state(canon, &mut status, &mut basic);
                    stats = LpStats::default();
                    stats.cold_starts += 1;
                    factor_basis(canon, &basic, &mut stats, &mut ws.lu)
                        .ok_or(SolveError::Numerical)?
                }
            },
        };
        Ok(Engine {
            c: canon,
            opts,
            status,
            basic,
            fact,
            xb,
            iterations_left: opts.max_iterations,
            stats,
            ws,
            y_fresh: false,
            plist_cursor: 0,
        })
    }

    /// The value a nonbasic column currently sits at.
    #[inline]
    fn nb_val(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.c.lb[j],
            VarStatus::AtUpper => self.c.ub[j],
            VarStatus::Free => 0.0,
            VarStatus::Basic => unreachable!("nb_val on basic column"),
        }
    }

    /// Rebuilds the (sparse) LU factorization from the current basic set.
    /// Returns false when the basis matrix is singular.
    fn refactorize(&mut self) -> bool {
        self.y_fresh = false;
        match factor_basis(self.c, &self.basic, &mut self.stats, &mut self.ws.lu) {
            Some(fact) => {
                self.fact = fact;
                true
            }
            None => false,
        }
    }

    /// Recomputes `x_B = B⁻¹(b − N·x_N)` from scratch, into the buffer
    /// `x_B` already occupies.
    pub(crate) fn compute_xb(&mut self) {
        let m = self.c.m;
        let mut rhs = std::mem::take(&mut self.xb);
        rhs.clear();
        rhs.extend_from_slice(self.c.b);
        for j in 0..self.c.n + m {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let v = self.nb_val(j);
            if v != 0.0 {
                if j < self.c.n {
                    for (i, a) in self.c.s.a.col_iter(j) {
                        rhs[i as usize] -= a * v;
                    }
                } else {
                    rhs[j - self.c.n] -= v;
                }
            }
        }
        hint_nonzeros(&mut self.ws.lu, &rhs);
        self.fact.ftran(&mut rhs, &mut self.ws.lu);
        self.xb = rhs;
    }

    /// Sum of bound violations over basic variables.
    pub(crate) fn infeasibility(&self) -> f64 {
        let mut s = 0.0;
        for (pos, &j) in self.basic.iter().enumerate() {
            let x = self.xb[pos];
            if x < self.c.lb[j] {
                s += self.c.lb[j] - x;
            } else if x > self.c.ub[j] {
                s += x - self.c.ub[j];
            }
        }
        s
    }

    /// BTRAN of the phase-2 basic costs: the dual vector `y`.
    pub(crate) fn duals(&mut self) -> Vec<f64> {
        self.price_duals();
        self.ws.ybuf.clone()
    }

    /// Makes `ws.ybuf` hold `B⁻ᵀc_B`, the duals of the current basis: one
    /// BTRAN, or none when the buffer already holds them for this basis and
    /// factorization. Reusing them is bit-identical, since a BTRAN is a
    /// function of the factorization and its right-hand side alone.
    fn price_duals(&mut self) {
        if self.y_fresh {
            #[cfg(test)]
            self.assert_kept_duals_fresh();
            return;
        }
        let ws = &mut *self.ws;
        let y = &mut ws.ybuf;
        y.clear();
        y.resize(self.c.m, 0.0);
        for (pos, &j) in self.basic.iter().enumerate() {
            y[pos] = self.c.cost[j];
        }
        hint_nonzeros(&mut ws.lu, y);
        self.fact.btran(y, &mut ws.lu);
        self.y_fresh = true;
    }

    /// The invariant behind every reuse in [`Engine::price_duals`]: the
    /// kept duals are, bit for bit, the BTRAN a fresh pricing would return.
    #[cfg(test)]
    fn assert_kept_duals_fresh(&self) {
        let mut y: Vec<f64> = self.basic.iter().map(|&j| self.c.cost[j]).collect();
        self.fact.btran(&mut y, &mut SolveScratch::new());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&self.ws.ybuf), bits(&y), "kept duals went stale");
    }

    /// Charges one pivot against the global iteration budget.
    fn charge_iteration(&mut self) -> Result<(), SolveError> {
        if self.iterations_left == 0 {
            return Err(SolveError::IterationLimit);
        }
        self.iterations_left -= 1;
        Ok(())
    }

    /// Refactorizes when enough Forrest–Tomlin updates have accumulated
    /// (the interval is a numerical-drift bound, not an eta-file cost bound:
    /// compressed updates keep solve cost flat, see
    /// [`SimplexOptions::refactor_interval`]).
    fn maybe_refactorize(&mut self) -> Result<(), SolveError> {
        if self.fact.update_count() >= self.opts.refactor_interval.max(1) {
            if !self.refactorize() {
                return Err(SolveError::Numerical);
            }
            self.compute_xb();
        }
        Ok(())
    }

    /// Executes a primal pivot: entering `q` (FTRAN image already in
    /// `self.alpha`, spike captured in the solve scratch) moves by
    /// `sigma * t`, the basic variable at position `r` leaves to
    /// `leave_status`.
    fn primal_pivot(
        &mut self,
        q: usize,
        sigma: f64,
        t: f64,
        r: usize,
        leave_status: VarStatus,
    ) -> Result<(), SolveError> {
        let entering_val = self.nb_val(q) + sigma * t;
        let step = sigma * t;
        if step != 0.0 {
            for (i, x) in self.xb.iter_mut().enumerate() {
                *x -= step * self.ws.alpha[i];
            }
        }
        let leaving = self.basic[r];
        self.status[leaving] = leave_status;
        self.status[q] = VarStatus::Basic;
        self.basic[r] = q;
        self.xb[r] = entering_val;
        self.absorb_pivot(r)
    }

    /// Folds the just-committed basis change at position `r` into the
    /// factorization: a Forrest–Tomlin compression when the updated
    /// diagonal is stable, otherwise a refactorization of the (already
    /// updated) basic set. `x_B` was updated incrementally by the caller
    /// either way; only the refactorization path recomputes it (fresh
    /// factors, cleaner numbers).
    fn absorb_pivot(&mut self, r: usize) -> Result<(), SolveError> {
        self.y_fresh = false;
        if self.fact.push_update(r, &mut self.ws.lu) {
            self.stats.eta_compressions += 1;
            return Ok(());
        }
        if !self.refactorize() {
            return Err(SolveError::Numerical);
        }
        self.compute_xb();
        Ok(())
    }

    /// FTRANs entering column `q` into `self.ws.alpha`, capturing the
    /// Forrest–Tomlin spike in the solve scratch for the
    /// [`Engine::absorb_pivot`] that may follow. No other solve runs
    /// between capture and push overwrites the spike (plain `ftran` /
    /// `btran` never touch it).
    fn ftran_entering_col(&mut self, q: usize) {
        self.ws.alpha.iter_mut().for_each(|v| *v = 0.0);
        self.c.scatter_col(q, &mut self.ws.alpha);
        let ws = &mut *self.ws;
        hint_nonzeros(&mut ws.lu, &ws.alpha);
        self.fact
            .ftran_entering(&mut self.ws.alpha, &mut self.ws.lu);
    }

    /// Devex weight update after deciding to pivot entering `q` against row
    /// `r` (FTRAN image of `q` already in `self.alpha`, factorization not
    /// yet updated).
    ///
    /// The Forrest–Goldfarb recurrence needs the pivot row
    /// `α_r· = e_rᵀ B⁻¹ N`: one BTRAN plus one sparse dot per nonbasic
    /// column — the same cost shape as a pricing pass.
    ///
    /// Under partial pricing only the candidate-list columns are updated —
    /// off-list weights go stale and are only consulted again at the next
    /// refresh, which is the usual devex/partial-pricing compromise (the
    /// weights are a selection heuristic, not a correctness input).
    fn update_devex(&mut self, q: usize, r: usize) {
        let m = self.c.m;
        let n_total = self.c.n + m;
        let alpha_rq = self.ws.alpha[r];
        if alpha_rq == 0.0 {
            return;
        }
        let mut rho = std::mem::take(&mut self.ws.rowbuf);
        rho.clear();
        rho.resize(m, 0.0);
        rho[r] = 1.0;
        self.ws.lu.rhs_nz.clear();
        self.ws.lu.rhs_nz.push(r as u32);
        self.fact.btran(&mut rho, &mut self.ws.lu);

        let wq = self.ws.devex[q].max(1.0);
        let inv2 = 1.0 / (alpha_rq * alpha_rq);
        let mut wmax = 0.0f64;
        let partial = Self::pricing_list_cap(n_total) > 0;
        let plist = std::mem::take(&mut self.ws.plist);
        let mut touch = |eng: &mut Engine<'a>, j: usize| {
            if j == q || eng.status[j] == VarStatus::Basic {
                return;
            }
            let arj = eng.c.col_dot(&rho, j);
            if arj != 0.0 {
                let cand = arj * arj * inv2 * wq;
                if cand > eng.ws.devex[j] {
                    eng.ws.devex[j] = cand;
                }
            }
            wmax = wmax.max(eng.ws.devex[j]);
        };
        if partial {
            for &j in &plist {
                touch(self, j);
            }
        } else {
            for j in 0..n_total {
                touch(self, j);
            }
        }
        self.ws.plist = plist;
        // The leaving variable joins the nonbasic set with the reference
        // weight of the edge it just traversed.
        let leaving = self.basic[r];
        self.ws.devex[leaving] = (wq * inv2).max(1.0);
        self.ws.rowbuf = rho;
        if wmax.max(self.ws.devex[leaving]) > DEVEX_RESET {
            // Reference framework drifted too far: restart from unit weights.
            self.ws.devex.iter_mut().for_each(|w| *w = 1.0);
        }
    }

    // -------------------------------------------------------------- pricing

    /// Candidate-list size for partial primal pricing; 0 disables it (small
    /// problems price faster with a plain full scan).
    fn pricing_list_cap(n_total: usize) -> usize {
        if n_total < PARTIAL_PRICING_MIN_COLS {
            0
        } else {
            ((n_total as f64).sqrt() as usize * 4).max(64)
        }
    }

    /// Prices one column against the (phase-specific) pricing vector `y`:
    /// returns its reduced cost when the column is eligible to enter.
    #[inline]
    fn price_one(&self, y: &[f64], phase1: bool, j: usize) -> Option<f64> {
        let st = self.status[j];
        if st == VarStatus::Basic {
            return None;
        }
        if self.c.lb[j] == self.c.ub[j] && st != VarStatus::Free {
            return None; // fixed columns cannot move
        }
        let cost_j = if phase1 { 0.0 } else { self.c.cost[j] };
        let d = cost_j - self.c.col_dot(y, j);
        let eligible = match st {
            VarStatus::AtLower => d < -DUAL_TOL,
            VarStatus::AtUpper => d > DUAL_TOL,
            VarStatus::Free => d.abs() > DUAL_TOL,
            VarStatus::Basic => unreachable!(),
        };
        eligible.then_some(d)
    }

    /// Best devex-scored eligible column in the candidate list, as
    /// `(col, d, score)`.
    fn scan_candidates(&self, y: &[f64], phase1: bool) -> Option<(usize, f64, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for &j in &self.ws.plist {
            let Some(d) = self.price_one(y, phase1, j) else {
                continue;
            };
            let score = d * d / self.ws.devex[j];
            match best {
                Some((_, _, b)) if score <= b => {}
                _ => best = Some((j, d, score)),
            }
        }
        best
    }

    /// Rebuilds the candidate list with a cyclic scan starting at the
    /// rotating cursor, keeping the `list_cap` best-scored eligible columns.
    /// Returns the number of columns scanned and the best entry as
    /// `(col, d, score)` — the refresh already priced every kept column, so
    /// the caller never re-prices the fresh list. Scans the full cycle
    /// unless it collects plenty of candidates early; a full-cycle scan that
    /// finds nothing (`None`) is the optimality proof the caller relies on.
    fn refresh_candidates(
        &mut self,
        y: &[f64],
        phase1: bool,
        list_cap: usize,
    ) -> (usize, Option<(usize, f64, f64)>) {
        let _span = ovnes_obs::span!("lp_pricing");
        let n_total = self.c.n + self.c.m;
        let collect_cap = 8 * list_cap;
        let start = self.plist_cursor % n_total.max(1);
        let mut found: Vec<(usize, f64, f64)> = Vec::with_capacity(list_cap);
        let mut scanned = 0usize;
        for k in 0..n_total {
            let j = (start + k) % n_total;
            scanned += 1;
            if let Some(d) = self.price_one(y, phase1, j) {
                found.push((j, d, d * d / self.ws.devex[j]));
                if found.len() >= collect_cap {
                    break;
                }
            }
        }
        self.plist_cursor = (start + scanned) % n_total.max(1);
        found.sort_unstable_by(|a, b| b.2.total_cmp(&a.2));
        found.truncate(list_cap);
        self.ws.plist.clear();
        self.ws.plist.extend(found.iter().map(|&(j, _, _)| j));
        (scanned, found.first().copied())
    }

    /// Makes the current basis dual feasible by bound flips where possible:
    /// a nonbasic column whose reduced cost points past its current bound is
    /// moved to its opposite bound. Returns false when a dual infeasibility
    /// cannot be repaired this way (opposite bound infinite, or a free
    /// column with nonzero reduced cost) — callers then take the primal
    /// phase-1/phase-2 route instead of the dual simplex.
    ///
    /// Two passes on purpose: the decision to repair must be made before any
    /// status mutates, otherwise an unrepairable column found mid-scan would
    /// leave earlier flips applied. Either way `x_B` is computed here, once,
    /// for the nonbasic point the scan settled on — this is the warm path's
    /// one from-scratch `x_B` (the cold path's is the phase driver's).
    pub(crate) fn repair_dual_feasibility(&mut self) -> bool {
        // The duals priced here stay in the workspace for the dual's first
        // iteration (flips move no basic column).
        self.price_duals();
        let y = &self.ws.ybuf;
        let mut flips = std::mem::take(&mut self.ws.flip_cols);
        flips.clear();
        let mut repairable = true;
        for j in 0..self.c.n + self.c.m {
            let st = self.status[j];
            if st == VarStatus::Basic || self.c.lb[j] == self.c.ub[j] {
                continue; // fixed columns are dual feasible at either bound
            }
            let d = self.c.cost[j] - self.c.col_dot(y, j);
            // A dual-infeasible column is repaired by moving it to its
            // opposite bound, which must be finite (a free column has none).
            let can_flip = match st {
                VarStatus::AtLower if d < -DUAL_TOL => self.c.ub[j].is_finite(),
                VarStatus::AtUpper if d > DUAL_TOL => self.c.lb[j].is_finite(),
                VarStatus::Free if d.abs() > DUAL_TOL => false,
                _ => continue,
            };
            if !can_flip {
                repairable = false;
                break;
            }
            flips.push(j);
        }
        if repairable {
            self.stats.bound_flips += flips.len();
            for &j in &flips {
                self.status[j] = match self.status[j] {
                    VarStatus::AtLower => VarStatus::AtUpper,
                    _ => VarStatus::AtLower,
                };
            }
        }
        self.ws.flip_cols = flips;
        self.compute_xb();
        repairable
    }

    // --------------------------------------------------------------- primal

    /// Runs the primal simplex. `phase1 = true` minimises total infeasibility
    /// (with re-priced composite costs); `phase1 = false` minimises the true
    /// objective and requires a primal-feasible start.
    pub(crate) fn primal(&mut self, phase1: bool) -> Result<PrimalEnd, SolveError> {
        let _span = ovnes_obs::span!("lp_primal", phase1 = phase1 as i64);
        let n_total = self.c.n + self.c.m;
        let m = self.c.m;
        let mut local_iters = 0usize;
        // Fresh reference framework per phase: the phase objective changed,
        // so both the devex weights and the candidate list are stale.
        self.ws.devex.iter_mut().for_each(|w| *w = 1.0);
        self.ws.plist.clear();
        let list_cap = Self::pricing_list_cap(n_total);

        loop {
            self.maybe_refactorize()?;
            let use_bland = local_iters >= self.opts.bland_after;

            // Phase costs on the basic set, priced into the reusable buffer
            // (taken out of the workspace so later `&mut self` calls stay
            // legal; every path below hands it back or consumes it). Phase
            // 2's are the duals, kept from the last pricing while neither
            // basis nor factorization changed (a bound-flip iteration).
            let y = if phase1 {
                self.y_fresh = false;
                let mut y = std::mem::take(&mut self.ws.ybuf);
                y.clear();
                y.resize(m, 0.0);
                let mut inf = 0.0;
                for (pos, &j) in self.basic.iter().enumerate() {
                    let x = self.xb[pos];
                    if x < self.c.lb[j] - FEAS_TOL {
                        y[pos] = -1.0;
                        inf += self.c.lb[j] - x;
                    } else if x > self.c.ub[j] + FEAS_TOL {
                        y[pos] = 1.0;
                        inf += x - self.c.ub[j];
                    }
                }
                if inf <= FEAS_TOL {
                    self.ws.ybuf = y;
                    return Ok(PrimalEnd::Optimal);
                }
                hint_nonzeros(&mut self.ws.lu, &y);
                self.fact.btran(&mut y, &mut self.ws.lu);
                y
            } else {
                self.price_duals();
                std::mem::take(&mut self.ws.ybuf)
            };

            // Entering column: best devex-weighted improvement `d²/w` over
            // the candidate list (refreshed when stale), a full scan on
            // small problems, or least index under Bland's rule (always a
            // full scan — the cycling guarantee needs it).
            let mut enter: Option<(usize, f64, f64)> = None; // (col, d, score)
            if use_bland {
                for j in 0..n_total {
                    self.stats.pricing_scans += 1;
                    if let Some(d) = self.price_one(&y, phase1, j) {
                        enter = Some((j, d, 0.0));
                        break;
                    }
                }
            } else if list_cap == 0 {
                self.stats.pricing_scans += n_total;
                for j in 0..n_total {
                    let Some(d) = self.price_one(&y, phase1, j) else {
                        continue;
                    };
                    let score = d * d / self.ws.devex[j];
                    match enter {
                        Some((_, _, best)) if score <= best => {}
                        _ => enter = Some((j, d, score)),
                    }
                }
            } else {
                self.stats.pricing_scans += self.ws.plist.len();
                enter = self.scan_candidates(&y, phase1);
                if enter.is_none() {
                    // List went stale: refresh it with a rotating wider scan,
                    // which also hands back the best fresh entry. Finding
                    // nothing on the (then full-cycle) refresh is the
                    // optimality proof.
                    let (scanned, best) = self.refresh_candidates(&y, phase1, list_cap);
                    self.stats.candidate_refreshes += 1;
                    self.stats.pricing_scans += scanned;
                    enter = best;
                }
            }
            let Some((q, d_q, _)) = enter else {
                return if phase1 && self.infeasibility() > FEAS_TOL {
                    // Phase-1 optimum positive: infeasible. `y` (the phase-1
                    // pricing vector) is the certificate; it is consumed, and
                    // the next pricing pass re-sizes the (now empty) buffer.
                    Ok(PrimalEnd::Infeasible { y })
                } else {
                    self.ws.ybuf = y;
                    Ok(PrimalEnd::Optimal)
                };
            };
            // Pricing complete: hand the buffer back before mutating state.
            self.ws.ybuf = y;

            // Direction: AtLower/free-with-negative-d move up, otherwise down.
            let sigma = match self.status[q] {
                VarStatus::AtUpper => -1.0,
                VarStatus::Free if d_q > 0.0 => -1.0,
                _ => 1.0,
            };

            // FTRAN the entering column (capturing the Forrest–Tomlin
            // spike for the pivot that may follow).
            self.ftran_entering_col(q);

            // Ratio test. Basic value rates: dx_B/dt = −σ·α.
            let mut t_best = if self.status[q] == VarStatus::Free {
                f64::INFINITY
            } else {
                self.c.ub[q] - self.c.lb[q] // bound-flip distance (may be ∞)
            };
            let mut leave: Option<(usize, VarStatus)> = None;
            let mut leave_piv = 0.0f64;
            for i in 0..m {
                let delta = -sigma * self.ws.alpha[i];
                if delta.abs() <= PIVOT_TOL {
                    continue;
                }
                let k = self.basic[i];
                let (lk, uk) = (self.c.lb[k], self.c.ub[k]);
                let x = self.xb[i];
                // (limit, status the leaving variable adopts)
                let cand: Option<(f64, VarStatus)> = if phase1 && x < lk - FEAS_TOL {
                    // Infeasible below: only a breakpoint when moving up.
                    (delta > 0.0).then(|| ((lk - x) / delta, VarStatus::AtLower))
                } else if phase1 && x > uk + FEAS_TOL {
                    (delta < 0.0).then(|| ((x - uk) / -delta, VarStatus::AtUpper))
                } else if delta < 0.0 {
                    lk.is_finite()
                        .then(|| ((x - lk) / -delta, VarStatus::AtLower))
                } else {
                    uk.is_finite()
                        .then(|| ((uk - x) / delta, VarStatus::AtUpper))
                };
                let Some((mut t_i, st)) = cand else { continue };
                if t_i < 0.0 {
                    t_i = 0.0; // degenerate: beyond the bound by roundoff
                }
                let better = t_i < t_best - RATIO_TIE_TOL
                    || (t_i < t_best + RATIO_TIE_TOL
                        && leave.as_ref().is_some_and(|&(l, _)| {
                            if use_bland {
                                self.basic[i] < self.basic[l]
                            } else {
                                self.ws.alpha[i].abs() > leave_piv.abs()
                            }
                        }));
                if better {
                    t_best = t_i;
                    leave = Some((i, st));
                    leave_piv = self.ws.alpha[i];
                }
            }

            if t_best.is_infinite() {
                return if phase1 {
                    // Mathematically impossible (infeasibility is bounded
                    // below by 0); reaching this means the pricing and ratio
                    // tolerances disagree badly.
                    Err(SolveError::Numerical)
                } else {
                    Ok(PrimalEnd::Unbounded)
                };
            }

            self.charge_iteration()?;
            local_iters += 1;
            if phase1 {
                self.stats.phase1_pivots += 1;
            } else {
                self.stats.phase2_pivots += 1;
            }

            match leave {
                None => {
                    // Bound flip: the entering column walks to its other
                    // bound; the basis is unchanged.
                    self.stats.bound_flips += 1;
                    let step = sigma * t_best;
                    for (i, x) in self.xb.iter_mut().enumerate() {
                        *x -= step * self.ws.alpha[i];
                    }
                    self.status[q] = match self.status[q] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        other => other,
                    };
                }
                Some((r, st)) => {
                    if leave_piv.abs() <= PIVOT_TOL {
                        // Numerically unreliable pivot: refactorize and retry
                        // (the recomputed x_B usually clears phantom ties).
                        if !self.refactorize() {
                            return Err(SolveError::Numerical);
                        }
                        self.compute_xb();
                        continue;
                    }
                    if !use_bland {
                        self.update_devex(q, r);
                    }
                    self.primal_pivot(q, sigma, t_best, r, st)?;
                }
            }
        }
    }

    // ----------------------------------------------------------------- dual

    /// Runs the dual simplex from a dual-feasible basis until primal
    /// feasibility (or a proof of primal infeasibility).
    ///
    /// The entering choice is the **long-step (bound-flipping) ratio test**:
    /// all eligible breakpoints are collected and sorted by dual step
    /// length; as long as the cheapest breakpoint belongs to a boxed column
    /// whose flip capacity `|α_rj|·(ub_j − lb_j)` leaves the leaving row
    /// still violated, the column is *flipped* to its opposite bound instead
    /// of entering — the dual objective's slope stays positive past its
    /// breakpoint, so the step legitimately continues — and a later
    /// breakpoint's column performs the actual basis change. All flips are
    /// applied with one FTRAN of the aggregated flip column. Under Bland's
    /// rule the classic shortest-step test is used unchanged (the
    /// anti-cycling argument needs it).
    pub(crate) fn dual(&mut self) -> Result<DualEnd, SolveError> {
        let _span = ovnes_obs::span!("lp_dual");
        let m = self.c.m;
        let mut local_iters = 0usize;
        // Fresh dual reference framework per dual pass.
        self.ws.dual_devex.iter_mut().for_each(|w| *w = 1.0);

        loop {
            self.maybe_refactorize()?;
            let use_bland = local_iters >= self.opts.bland_after;

            // Leaving row: best devex-weighted violation `viol²/w_i`
            // (steepest-edge-flavoured — a violation reachable along a short
            // dual edge beats a nominally larger one along a long edge), or
            // least basic column index under Bland's rule.
            let mut leave: Option<(usize, bool, f64)> = None; // (row, below, viol)
            let mut leave_score = 0.0f64;
            for i in 0..m {
                let k = self.basic[i];
                let x = self.xb[i];
                let viol_below = self.c.lb[k] - x;
                let viol_above = x - self.c.ub[k];
                let (below, viol) = if viol_below > viol_above {
                    (true, viol_below)
                } else {
                    (false, viol_above)
                };
                if viol <= FEAS_TOL {
                    continue;
                }
                let score = viol * viol / self.ws.dual_devex[i];
                let better = match &leave {
                    None => true,
                    Some((l, _, _)) => {
                        if use_bland {
                            self.basic[i] < self.basic[*l]
                        } else {
                            score > leave_score
                        }
                    }
                };
                if better {
                    leave = Some((i, below, viol));
                    leave_score = score;
                }
            }
            let Some((r, below, viol)) = leave else {
                return Ok(DualEnd::PrimalFeasible);
            };

            // BTRAN row r into the reusable buffer (taken out of the
            // workspace so later `&mut self` calls stay legal; every path
            // below hands it back).
            let mut rho = std::mem::take(&mut self.ws.rowbuf);
            rho.clear();
            rho.resize(m, 0.0);
            rho[r] = 1.0;
            self.ws.lu.rhs_nz.clear();
            self.ws.lu.rhs_nz.push(r as u32);
            self.fact.btran(&mut rho, &mut self.ws.lu);

            // Collect every eligible dual-ratio-test breakpoint. The leaving
            // variable exits at its violated bound; entering candidates must
            // push the basic value toward it while keeping every reduced
            // cost feasible.
            let mut cand = std::mem::take(&mut self.ws.dual_cand);
            cand.clear();
            // Dual-side candidate set (the mirror of primal partial
            // pricing): only a column with a structural nonzero in some row
            // where ρ ≠ 0 — or that row's own logical — can have α_rj ≠ 0;
            // every other column would fail the pivot-tolerance test below
            // without ever being a breakpoint. `mark_pivot_row` marks exactly
            // those columns in the bitset and accumulates each structural
            // one's α_rj beside it, with `col_dot`'s bits wherever it is
            // nonzero (a zero fails the pivot-tolerance test whatever its
            // sign). Walking the bits in ascending order then gives the same
            // candidates in the same order as scanning all `n_total`
            // columns, and every downstream pivot is bit-identical.
            let mut bits = std::mem::take(&mut self.ws.cand_bits);
            let mut acc = std::mem::take(&mut self.ws.row_acc);
            self.c.mark_pivot_row(&rho, &mut bits, &mut acc);
            let n = self.c.n;
            let scanned = drain_ascending(&mut bits, |j| {
                let arow = if j < n {
                    std::mem::take(&mut acc[j])
                } else {
                    rho[j - n]
                };
                let st = self.status[j];
                if st == VarStatus::Basic || self.c.lb[j] == self.c.ub[j] {
                    return;
                }
                if arow.abs() <= PIVOT_TOL {
                    return;
                }
                // x_Br rate per unit of entering movement Δ is −arow·sign(Δ).
                // `below` needs x_Br to increase.
                let eligible = match st {
                    VarStatus::AtLower => {
                        if below {
                            arow < 0.0
                        } else {
                            arow > 0.0
                        }
                    }
                    VarStatus::AtUpper => {
                        if below {
                            arow > 0.0
                        } else {
                            arow < 0.0
                        }
                    }
                    VarStatus::Free => true,
                    VarStatus::Basic => unreachable!(),
                };
                if !eligible {
                    return;
                }
                // The ratio needs the duals, priced below once a candidate
                // exists.
                cand.push(DualCand {
                    j,
                    arow,
                    ratio: f64::NAN,
                });
            });
            self.stats.pricing_scans += scanned;
            self.ws.cand_bits = bits;
            self.ws.row_acc = acc;

            if cand.is_empty() {
                // No column can absorb the violation: primal infeasible.
                // Orient the certificate so its value is positive.
                let sign = if below { -1.0 } else { 1.0 };
                let y_cert: Vec<f64> = rho.iter().map(|&v| sign * v).collect();
                self.ws.rowbuf = rho;
                self.ws.dual_cand = cand;
                return Ok(DualEnd::Infeasible { y: y_cert });
            }
            self.ws.rowbuf = rho;
            self.price_duals();
            for c in cand.iter_mut() {
                let d = self.c.cost[c.j] - self.c.col_dot(&self.ws.ybuf, c.j);
                c.ratio = (d / c.arow).abs();
            }

            // `flip_upto`: candidates `cand[..flip_upto]` are flipped through
            // (long step). Selection only — no state mutates until the
            // entering pivot below is validated, so the refactorize-and-retry
            // path leaves the dual-feasibility invariant intact.
            let (q, flip_upto) = if use_bland {
                // Classic shortest step, least index on ties, no flips (the
                // anti-cycling argument needs the plain rule).
                let mut best = 0usize;
                for (i, c) in cand.iter().enumerate().skip(1) {
                    let b = &cand[best];
                    if c.ratio < b.ratio - RATIO_TIE_TOL
                        || (c.ratio < b.ratio + RATIO_TIE_TOL && c.j < b.j)
                    {
                        best = i;
                    }
                }
                (cand[best].j, 0)
            } else {
                // Long step: walk the breakpoints in dual-step order,
                // flipping boxed columns through as long as the slope (the
                // remaining primal violation) stays positive.
                // Ratios and pivot magnitudes are non-negative and never
                // NaN, where `total_cmp` is the numeric order. Ties stay
                // unordered: which of two exchangeable columns the unstable
                // sort puts first is part of the pivoting rule.
                cand.sort_unstable_by(|a, b| {
                    a.ratio
                        .total_cmp(&b.ratio)
                        .then(b.arow.abs().total_cmp(&a.arow.abs()))
                });
                let mut remaining = viol;
                let mut chosen = cand.len() - 1;
                for (i, c) in cand.iter().enumerate() {
                    let range = self.c.ub[c.j] - self.c.lb[c.j];
                    let capacity = range * c.arow.abs();
                    let flippable = i + 1 < cand.len()
                        && capacity.is_finite()
                        && capacity > FLIP_TOL
                        && remaining - capacity > FEAS_TOL;
                    if flippable {
                        remaining -= capacity;
                    } else {
                        chosen = i;
                        break;
                    }
                }
                // Within the tie window past the chosen breakpoint, prefer
                // the largest pivot (same stabilisation as the primal test).
                let limit = cand[chosen].ratio + RATIO_TIE_TOL;
                let mut best = chosen;
                for (i, c) in cand.iter().enumerate().skip(chosen + 1) {
                    if c.ratio > limit {
                        break;
                    }
                    if c.arow.abs() > cand[best].arow.abs() {
                        best = i;
                    }
                }
                (cand[best].j, chosen)
            };

            // FTRAN the entering column (capturing the Forrest–Tomlin
            // spike) and validate the pivot before any state changes.
            self.ftran_entering_col(q);
            let alpha_r = self.ws.alpha[r];
            if alpha_r.abs() <= PIVOT_TOL {
                // The FTRAN image disagrees with the BTRAN row estimate:
                // refactorize and retry once with cleaner numbers. Nothing
                // was flipped yet, so the basis state is untouched.
                self.ws.dual_cand = cand;
                if !self.refactorize() {
                    return Err(SolveError::Numerical);
                }
                self.compute_xb();
                continue;
            }

            // Apply the pass-through flips (everything before the chosen
            // breakpoint): statuses move to the opposite bound and x_B
            // absorbs the aggregated flip column through a single FTRAN.
            if flip_upto > 0 {
                let mut w = std::mem::take(&mut self.ws.flipbuf);
                w.clear();
                w.resize(m, 0.0);
                for c in &cand[..flip_upto] {
                    let range = self.c.ub[c.j] - self.c.lb[c.j];
                    let (dv, st) = match self.status[c.j] {
                        VarStatus::AtLower => (range, VarStatus::AtUpper),
                        VarStatus::AtUpper => (-range, VarStatus::AtLower),
                        _ => unreachable!("only boxed bound columns flip"),
                    };
                    if c.j < self.c.n {
                        for (i, a) in self.c.s.a.col_iter(c.j) {
                            w[i as usize] += a * dv;
                        }
                    } else {
                        w[c.j - self.c.n] += dv;
                    }
                    self.status[c.j] = st;
                }
                hint_nonzeros(&mut self.ws.lu, &w);
                self.fact.ftran(&mut w, &mut self.ws.lu);
                for (i, x) in self.xb.iter_mut().enumerate() {
                    *x -= w[i];
                }
                self.stats.bound_flips += flip_upto;
                self.ws.flipbuf = w;
            }
            self.ws.dual_cand = cand;
            let k = self.basic[r];
            let (target, leave_status) = if below {
                (self.c.lb[k], VarStatus::AtLower)
            } else {
                (self.c.ub[k], VarStatus::AtUpper)
            };
            let delta = (self.xb[r] - target) / alpha_r;

            self.charge_iteration()?;
            local_iters += 1;
            self.stats.dual_pivots += 1;

            if !use_bland {
                self.update_dual_devex(r);
            }
            let entering_val = self.nb_val(q) + delta;
            for (i, x) in self.xb.iter_mut().enumerate() {
                *x -= delta * self.ws.alpha[i];
            }
            self.status[k] = leave_status;
            self.status[q] = VarStatus::Basic;
            self.basic[r] = q;
            self.xb[r] = entering_val;
            self.absorb_pivot(r)?;
        }
    }

    /// Dual devex weight update after committing to a dual pivot on row `r`
    /// (the entering column's FTRAN image is already in the workspace's
    /// `alpha`, the factorization not yet updated).
    ///
    /// The dual Forrest–Goldfarb recurrence needs exactly that image: with
    /// pivot `α_r`, every row moves by `w_i ← max(w_i, (α_i/α_r)²·w_r)` and
    /// the pivot row restarts at `max(w_r/α_r², 1)`. Costs one pass over a
    /// vector already in cache — no extra BTRAN.
    fn update_dual_devex(&mut self, r: usize) {
        let ws = &mut *self.ws;
        let alpha_r = ws.alpha[r];
        if alpha_r == 0.0 {
            return;
        }
        let wr = ws.dual_devex[r].max(1.0);
        let inv2 = 1.0 / (alpha_r * alpha_r);
        let mut wmax = 0.0f64;
        for (i, w) in ws.dual_devex.iter_mut().enumerate() {
            if i == r {
                continue;
            }
            let ai = ws.alpha[i];
            if ai != 0.0 {
                let cand = ai * ai * inv2 * wr;
                if cand > *w {
                    *w = cand;
                }
            }
            wmax = wmax.max(*w);
        }
        ws.dual_devex[r] = (wr * inv2).max(1.0);
        if wmax.max(ws.dual_devex[r]) > DEVEX_RESET {
            // Reference framework drifted too far: restart from unit weights.
            ws.dual_devex.iter_mut().for_each(|w| *w = 1.0);
        }
    }

    // ----------------------------------------------------- solution pieces

    /// Primal values per structural column.
    pub(crate) fn primal_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.c.n];
        for j in 0..self.c.n {
            if self.status[j] != VarStatus::Basic {
                x[j] = self.nb_val(j);
            }
        }
        for (pos, &j) in self.basic.iter().enumerate() {
            if j < self.c.n {
                x[j] = self.xb[pos];
            }
        }
        x
    }

    /// Objective value of the current point.
    pub(crate) fn objective(&self, x: &[f64]) -> f64 {
        let mut obj = self.c.obj_constant;
        for j in 0..self.c.n {
            obj += self.c.cost[j] * x[j];
        }
        obj
    }

    /// Consumes the engine, putting the restart state back into `restart` as
    /// the solve left it; returns the accumulated statistics, with the
    /// end-of-solve update count and the scratch's hyper-sparse counters
    /// folded in.
    pub(crate) fn finish(mut self, restart: &mut Restart) -> LpStats {
        self.stats.eta_len_end += self.fact.update_count();
        let (hf, hb) = self.ws.lu.take_hypersparse_counts();
        self.stats.hypersparse_ftrans += hf as usize;
        self.stats.hypersparse_btrans += hb as usize;
        restart.status = self.status;
        restart.basic = self.basic;
        restart.xb = self.xb;
        restart.fact = Some(self.fact);
        self.stats
    }
}
