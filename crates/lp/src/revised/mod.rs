//! Bounded-variable **revised simplex** with explicit, reusable bases and
//! persistent factorizations.
//!
//! This is the crate's one production engine — the warm-start solver behind
//! the Benders / branch-and-bound hot path. Where the dense tableau oracle
//! (`crate::dense`, test builds only) canonicalises bounds away (mirroring,
//! splitting, internal `≤ ub` rows) and recomputes everything from scratch
//! per solve, this engine:
//!
//! * keeps every variable's box bounds **native** — no extra rows or column
//!   blowup, so a problem with `n` variables and `m` constraints is solved
//!   on an `m × m` basis no matter how many bounds are finite;
//! * maintains a **sparse factorized basis** (CSC constraint matrix, sparse
//!   LU with Markowitz pivoting, Forrest–Tomlin updates, periodic
//!   refactorization, all in flat arrays — see `lu.rs`) and prices via
//!   BTRAN/FTRAN instead of updating a full tableau, with **devex
//!   pricing** in the primal phases
//!   (over a rotating **candidate list** once the column count is large —
//!   see the engine docs) and a **long-step bound-flipping ratio test** in
//!   the dual simplex;
//! * exposes the basis as a value ([`Basis`]) so the *next* solve of a
//!   perturbed problem can resume from it: after a variable-bound change
//!   (branch-and-bound) or an RHS change / appended constraint (Benders),
//!   the stored basis stays **dual feasible** and [`Problem::solve_warm`]
//!   restores primal feasibility with a handful of **dual simplex** pivots
//!   instead of two cold phases;
//! * **persists the factorization inside the [`Basis`]** (and keeps it,
//!   owned, inside a [`WarmChain`]): a re-solve after
//!   edits that leave the basis *matrix* untouched (RHS changes, bound
//!   changes, objective changes) starts from the stored factors and performs
//!   **zero refactorizations**. Only row appends (the basis matrix grows) or
//!   a changed basic set force a fresh factorization, and
//!   [`LpStats::factorization_reuses`] / [`LpStats::refactorizations`] make
//!   the difference observable;
//! * **reads the canonical form out of the [`Problem`] itself**: the CSC
//!   matrix, its CSR pattern and its fingerprint are assembled once per
//!   structural edit and shared (`Arc`) with every clone, and the bounds,
//!   costs and right-hand sides are stored by the model in the arrays the
//!   engine indexes (`canon.rs`), so the same RHS / bound / objective
//!   re-solve borrows both and sets up in `O(1)`.
//!
//! ## When is a warm start valid?
//!
//! A [`Basis`] obtained from `p.solve_warm(…)` may be passed back for a
//! problem `p'` derived from `p` by any combination of:
//!
//! * changing variable bounds (`Problem::set_bounds`),
//! * changing the RHS of constraints (`Problem::set_rhs`),
//! * appending new constraints (`Problem::add_cons`) — the new rows' logical
//!   columns join the basis,
//! * changing objective coefficients (`Problem::set_objective`) — handled by
//!   falling back to primal iterations when the old basis is no longer dual
//!   feasible.
//!
//! * appending new variables (`Problem::add_column`) — the new structural
//!   columns enter nonbasic on a bound; the constraint matrix changes, so
//!   the persisted factorization is rebuilt once, but the basic set itself
//!   survives and the dual warm restart proceeds as usual.
//!
//! The cached structure follows the same line: `set_bounds`, `set_rhs`,
//! `set_objective`, `add_objective_constant` and `clone()` keep it;
//! `add_var`, `add_cons` and `add_column` drop it, and the next solve
//! rebuilds it from the rows. It is derived data only — a solve on the
//! cached structure and a solve on a problem rebuilt from scratch agree bit
//! for bit (outcome, basis, counters, `matrix_fp`), which
//! `cached_structure_refines_the_rebuild` checks over random edit sequences.
//!
//! *Removing* variables or constraints invalidates a basis; `solve_warm`
//! detects the shape mismatch and silently performs a cold solve (counted
//! in [`LpStats::cold_starts`]). A caller that carries a [`WarmChain`] over
//! to a rebuilt problem can ask [`WarmChain::fits`] first: same shape and
//! same matrix, so the held factorization replays.
//!
//! The solver's outcomes, dual values, and Farkas certificates follow the
//! conventions of the crate-level docs (which the dense oracle shares).
//!
//! ## Who holds the restart state
//!
//! The hot-path state splits three ways:
//!
//! * **Problem data** — [`Problem`] (with the `Arc`-shared structure it
//!   caches: the CSC `SparseMatrix`, CSR pattern and fingerprint, initialised
//!   at most once behind a `OnceLock`) and [`SimplexOptions`]. A solve only
//!   reads them.
//! * **Restart state in a [`WarmChain`]** — statuses, basic set, the owned
//!   factorization with its updatable `U`, and the engine's scratch (a
//!   crate-internal `Workspace`). A chain is one caller's: [`Problem::resolve`]
//!   is the only way into the engine, and it continues from what the chain
//!   holds, in place, and leaves its own final state there. One chain per
//!   caller: the KAC / Benders slave keeps one across its re-pricings, a
//!   branch-and-bound search one across its nodes.
//! * **Restart state as a [`Basis`] value** — the same state, moved out of a
//!   chain ([`WarmChain::take_basis`]) and loaded into one
//!   ([`WarmChain::load`]). Values are what siblings share: branch and bound
//!   hands one parent basis to both children. A basis keeps its
//!   factorization behind an `Arc`; a chain that loads it shares the factors
//!   and copies their update state only when its next solve replays them
//!   (copy-on-compress), so what that solve folds in never reaches the
//!   basis's other holders. The copy goes into the arrays of the
//!   factorization the load displaced, when the chain held one.
//!
//! [`Problem::solve`] and [`Problem::solve_warm`] are conveniences over a
//! fresh chain. A `load` / `resolve` / `take_basis` round trip
//! ([`WarmChain::solve_from`]) and a kept chain run the same solve, bit for
//! bit (`chain_refines_the_basis_handoff`).
//! No solve shares anything with another thread while it runs. Whoever
//! holds a chain or a basis may still hand it to another thread (an
//! `Orchestrator` keeps its carried chain, and `run_sweep` runs whole
//! scenarios on worker threads), so compile-time assertions below keep the
//! problem data and [`Basis`] `Send + Sync` and a chain `Send`.

mod canon;
mod engine;
#[cfg(any(test, feature = "testgen"))]
pub mod gen;
pub(crate) mod lu;

/// The sparse LU kernel, exposed for the cross-check suites (the
/// bucketed factor, the Forrest–Tomlin update wrapper, and the
/// caller-owned solve scratch).
#[cfg(any(test, feature = "testgen"))]
pub use lu::{Factorization, SolveScratch, SparseLu};

use crate::model::Problem;
use crate::simplex::{Farkas, Outcome, SimplexOptions, Solution, SolveError};
use canon::Canon;
pub(crate) use canon::Structure;
use engine::{DualEnd, Engine, PrimalEnd, Restart, Workspace};
#[cfg(not(any(test, feature = "testgen")))]
use lu::Factorization;
use std::sync::Arc;

// Everything a solve reads or returns may be handed to another thread by
// whoever holds it: the problem data and a `Basis`, with its Arc-shared
// factorization, are `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Problem>();
    assert_send_sync::<crate::sparse::SparseMatrix>();
    assert_send_sync::<SimplexOptions>();
    assert_send_sync::<Basis>();
    assert_send_sync::<Factorization>();
    assert_send_sync::<Arc<Factorization>>();
    assert_send_sync::<WarmSolve>();
    // A chain, with its workspace, is one caller's: `Send`, never shared.
    const fn assert_send<T: Send>() {}
    assert_send::<Workspace>();
    assert_send::<WarmChain>();
};

/// Where a column currently sits relative to the basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    /// In the basis; its value lives in the basic solution vector.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free column pinned at 0.
    Free,
}

/// A reusable simplex basis: the complete restart state of a solve, as a
/// value.
///
/// Opaque by design — take one out of a [`WarmChain`] (or from
/// [`Problem::solve_warm`]) and load it back into a chain for a later solve
/// of the same (or a compatibly-perturbed, see the module docs) problem.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Number of structural columns the basis was built for.
    n_vars: usize,
    /// Status per column (`n_vars + rows` entries).
    status: Vec<VarStatus>,
    /// Basic column per row position.
    basic: Vec<usize>,
    /// The factorization of the basis matrix at the end of the solve that
    /// produced this value, shared across clones (branch and bound hands
    /// both children a copy). A later solve whose basis matrix is unchanged
    /// resumes from it without refactorizing, on a copy of its update state
    /// — nine flat arrays, whatever the dimension — so that what it folds in
    /// stays its own.
    fact: Option<Arc<Factorization>>,
    /// Fingerprint of the structural constraint matrix the factorization
    /// was built against. Reuse requires an exact match, so a basis handed
    /// to a *different* problem of identical shape (outside the documented
    /// contract, but silently accepted by the shape checks) refactorizes
    /// from the real matrix instead of replaying stale factors.
    matrix_fp: u64,
}

/// Pivot-level solver statistics, accumulated across warm-started solves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LpStats {
    /// Primal phase-1 (infeasibility-reduction) pivots.
    pub phase1_pivots: usize,
    /// Primal phase-2 (objective) pivots.
    pub phase2_pivots: usize,
    /// Dual simplex pivots (warm restarts).
    pub dual_pivots: usize,
    /// Basis refactorizations. A solve that resumes from a persisted
    /// [`Basis`] factorization can be **zero** here; a cold solve pays at
    /// least one.
    pub refactorizations: usize,
    /// Solves that skipped the initial refactorization because the
    /// caller-supplied basis carried a still-valid factorization.
    pub factorization_reuses: usize,
    /// Total sparse-LU fill-in (factor nonzeros beyond the basis matrix's
    /// nonzeros), summed over all refactorizations.
    pub fill_in: usize,
    /// Eta-file length at solve end, summed across solves (how much
    /// product-form state each solve handed to the next).
    pub eta_len_end: usize,
    /// Solves that resumed from a caller-supplied basis.
    pub warm_starts: usize,
    /// Solves performed from the all-logical cold basis.
    pub cold_starts: usize,
    /// Nonbasic columns flipped between their finite bounds without a basis
    /// change: primal ratio-test flips plus the long-step (bound-flipping)
    /// dual ratio test's pass-through breakpoints. Each flip replaces what
    /// would otherwise be a full pivot.
    pub bound_flips: usize,
    /// Columns examined by the entering-candidate scans (primal pricing and
    /// the dual ratio test). With candidate-list partial pricing this grows
    /// sublinearly in total column count per iteration.
    pub pricing_scans: usize,
    /// Candidate-list rebuilds: the rotating pricing bucket went stale (no
    /// attractive column left in it) and was refreshed from a wider scan.
    pub candidate_refreshes: usize,
    /// Pivots folded into the factors as Forrest–Tomlin compressions (the
    /// replacement for product-form eta pushes). A pivot that is *not*
    /// counted here forced a refactorization instead (stability refusal).
    pub eta_compressions: usize,
    /// FTRANs that took the hyper-sparse (index-worklist) path instead of
    /// the dense triangular sweep.
    pub hypersparse_ftrans: usize,
    /// BTRANs that took the hyper-sparse (index-worklist) path.
    pub hypersparse_btrans: usize,
    /// Column-candidate inspections performed by Markowitz pivot selection
    /// across all refactorizations — the bucketed factor's analogue of the
    /// old per-stage rescan cost (which was Θ(m²) per factor).
    pub pivot_scan_work: u64,
}

impl LpStats {
    /// Total pivots across all phases.
    pub fn total_pivots(&self) -> usize {
        self.phase1_pivots + self.phase2_pivots + self.dual_pivots
    }

    /// Folds another stats record into this one.
    pub fn absorb(&mut self, other: &LpStats) {
        self.phase1_pivots += other.phase1_pivots;
        self.phase2_pivots += other.phase2_pivots;
        self.dual_pivots += other.dual_pivots;
        self.refactorizations += other.refactorizations;
        self.factorization_reuses += other.factorization_reuses;
        self.fill_in += other.fill_in;
        self.eta_len_end += other.eta_len_end;
        self.warm_starts += other.warm_starts;
        self.cold_starts += other.cold_starts;
        self.bound_flips += other.bound_flips;
        self.pricing_scans += other.pricing_scans;
        self.candidate_refreshes += other.candidate_refreshes;
        self.eta_compressions += other.eta_compressions;
        self.hypersparse_ftrans += other.hypersparse_ftrans;
        self.hypersparse_btrans += other.hypersparse_btrans;
        self.pivot_scan_work += other.pivot_scan_work;
    }

    /// The canonical ordered `(name, value)` view of these counters —
    /// the single source of truth for counter names. Every renderer
    /// (`SolveStats::lp_summary`, the `ablation`/`table1` binaries, obs
    /// registries) formats this list instead of naming fields itself.
    pub fn named_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pivots", self.total_pivots() as u64),
            ("phase1", self.phase1_pivots as u64),
            ("phase2", self.phase2_pivots as u64),
            ("dual", self.dual_pivots as u64),
            ("flips", self.bound_flips as u64),
            ("warm", self.warm_starts as u64),
            ("cold", self.cold_starts as u64),
            ("refactor", self.refactorizations as u64),
            ("reused", self.factorization_reuses as u64),
            ("fill", self.fill_in as u64),
            ("scan_work", self.pivot_scan_work),
            ("compressions", self.eta_compressions as u64),
            ("etas_end", self.eta_len_end as u64),
            ("hs_ftran", self.hypersparse_ftrans as u64),
            ("hs_btran", self.hypersparse_btrans as u64),
            ("scans", self.pricing_scans as u64),
            ("refreshes", self.candidate_refreshes as u64),
        ]
    }
}

/// Result of a warm-capable solve: the outcome, the final basis (reusable
/// for the next perturbed solve), and pivot statistics.
#[derive(Debug, Clone)]
pub struct WarmSolve {
    /// The solve outcome (optimal / infeasible / unbounded).
    pub outcome: Outcome,
    /// Restart state capturing the final basis.
    pub basis: Basis,
    /// Pivot counters for this solve only.
    pub stats: LpStats,
}

/// Where a nonbasic column with these bounds starts: on a finite bound
/// (preferring the lower), free columns at 0.
fn nonbasic_start(lb: f64, ub: f64) -> VarStatus {
    if lb.is_finite() {
        VarStatus::AtLower
    } else if ub.is_finite() {
        VarStatus::AtUpper
    } else {
        VarStatus::Free
    }
}

/// Cold initial state, written over `status` / `basic`: every logical basic
/// (B = I), every structural column at its [`nonbasic_start`].
fn cold_state(c: &Canon<'_>, status: &mut Vec<VarStatus>, basic: &mut Vec<usize>) {
    status.clear();
    status.extend((0..c.n).map(|j| nonbasic_start(c.lb[j], c.ub[j])));
    status.resize(c.n + c.m, VarStatus::Basic);
    basic.clear();
    basic.extend((0..c.m).map(|i| c.n + i));
}

impl Restart {
    /// Adapts the held basis, in place, to `c`'s shape and bounds: new
    /// rows' logicals join the basis, new structural columns enter nonbasic
    /// on a bound (exactly where a cold start would place them), and a
    /// status naming a bound that is no longer finite moves to one that is.
    /// Returns `false` when the shapes are incompatible (a *shrunk* problem)
    /// and a cold start is required.
    fn adapt(&mut self, c: &Canon<'_>) -> bool {
        let Restart {
            status,
            basic,
            n_vars,
            ..
        } = self;
        let (n, m, lb, ub) = (c.n, c.m, c.lb, c.ub);
        let (n_old, m_old) = (*n_vars, basic.len());
        if n_old > n || m_old > m {
            return false;
        }
        // New structural columns (appended since the basis was stored) go
        // between the old structural statuses and the old logicals';
        // structural indices are stable under column growth, logical
        // indices shift by the number of appended columns.
        let grow = n - n_old;
        if grow > 0 {
            status.splice(
                n_old..n_old,
                (n_old..n).map(|j| nonbasic_start(lb[j], ub[j])),
            );
            for j in basic.iter_mut() {
                if *j >= n_old {
                    *j += grow;
                }
            }
        }
        // Old logicals keep their status; new rows' logicals enter the basis.
        status.resize(n + m, VarStatus::Basic);
        basic.extend((m_old..m).map(|i| n + i));
        // Repair statuses referencing bounds that are no longer finite.
        for (j, st) in status.iter_mut().enumerate() {
            match st {
                VarStatus::AtLower if !lb[j].is_finite() => {
                    *st = if ub[j].is_finite() {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::Free
                    };
                }
                VarStatus::AtUpper if !ub[j].is_finite() => {
                    *st = if lb[j].is_finite() {
                        VarStatus::AtLower
                    } else {
                        VarStatus::Free
                    };
                }
                // A free column pinned at 0 whose bounds have since become
                // finite must move onto a bound, or the implied nonbasic value
                // would sit outside its box.
                VarStatus::Free if lb[j].is_finite() || ub[j].is_finite() => {
                    *st = if lb[j].is_finite() {
                        VarStatus::AtLower
                    } else {
                        VarStatus::AtUpper
                    };
                }
                _ => {}
            }
        }
        true
    }
}

/// The restart state of a **warm chain**: one caller solving one
/// [`Problem`] over and over between small edits — the KAC / Benders slave
/// re-pricing one admission after another, or a branch-and-bound search
/// moving from node to node.
///
/// [`Problem::resolve`] continues from what the chain holds — the final
/// basis and factorization of its previous solve, or a [loaded](Self::load)
/// [`Basis`] — and leaves its own for the next, so a re-solve pays for its
/// pivots, not for cloning a [`Basis`], deep-copying the updatable `U`, or
/// re-allocating the engine's vectors; the values it reads are the
/// problem's own arrays. Keeping the chain and moving its basis out and
/// back in between solves ([`Self::take_basis`], [`Self::load`]) run the
/// same solves, bit for bit, fault injection and problem growth
/// (`add_cons` / `add_column`) included; the warm-start contract of the
/// module docs applies unchanged.
///
/// A chain owns the engine's scratch too, so it is one caller's: `Send`,
/// never shared.
#[derive(Debug, Default)]
pub struct WarmChain {
    state: Restart,
    ws: Workspace,
    /// The factorization of a [loaded](Self::load) [`Basis`], still shared
    /// behind the basis's `Arc` (`state.fact` is then `None`). The next
    /// solve copies it into `state.fact` only if it replays it: the copy is
    /// what keeps the solve's updates from the basis's other holders
    /// (copy-on-compress), and a basis whose factors cannot be reused costs
    /// none.
    loaded: Option<Arc<Factorization>>,
    /// The factorization a [load](Self::load) displaced, kept until the next
    /// solve for its arrays: a solve that replays a loaded factorization
    /// still shared by the basis copies it into them, not into fresh ones.
    spare: Option<Factorization>,
}

impl WarmChain {
    /// An empty chain: its first solve is cold.
    pub fn new() -> WarmChain {
        WarmChain::default()
    }

    /// Forgets the basis: the next solve is cold (buffers are kept).
    pub fn clear(&mut self) {
        self.state.warm = false;
        self.state.fact = None;
        self.loaded = None;
    }

    /// Whether the next solve resumes from a basis.
    pub fn is_warm(&self) -> bool {
        self.state.warm
    }

    /// Whether the next solve of `p` would resume from the held basis *and*
    /// may replay its held factorization: the chain is warm, and `p` has the
    /// shape and the structural matrix (fingerprint) the basis was built
    /// against. RHS, bound and objective edits keep a chain fitting; any
    /// structural edit, or another problem of the same shape, does not.
    pub fn fits(&self, p: &Problem) -> bool {
        let st = &self.state;
        st.warm
            && st.n_vars == p.num_vars()
            && st.basic.len() == p.num_cons()
            && st.matrix_fp == p.structure().fingerprint
    }

    /// Makes `basis` what the next solve resumes from, in place of what the
    /// chain held. The chain shares the factors behind its `Arc`; the next
    /// solve copies their update state if it replays them (into the arrays
    /// of the factorization the chain held, when it held one), so `basis`
    /// itself never sees what this chain folds in.
    pub fn load(&mut self, basis: &Basis) {
        let st = &mut self.state;
        st.warm = true;
        st.n_vars = basis.n_vars;
        st.status.clone_from(&basis.status);
        st.basic.clone_from(&basis.basic);
        self.spare = st.fact.take().or(self.spare.take());
        st.matrix_fp = basis.matrix_fp;
        self.loaded = basis.fact.clone();
    }

    /// Moves the basis the next solve would resume from out of the chain,
    /// as a value, and leaves the chain cold: `None` on a cold chain.
    pub fn take_basis(&mut self) -> Option<Basis> {
        self.state.warm.then(|| self.move_basis())
    }

    /// Solves `p` under `options` from `basis` (cold on `None`) and moves
    /// the final basis out with the result: the `Basis` hand-off, as
    /// [`Self::load`] (or [`Self::clear`]), [`Problem::resolve`] and
    /// [`Self::take_basis`]. The chain lends its buffers and is left cold;
    /// an `Err` is the resolve's.
    pub fn solve_from(
        &mut self,
        p: &Problem,
        basis: Option<&Basis>,
        options: &SimplexOptions,
    ) -> Result<WarmSolve, SolveError> {
        match basis {
            Some(b) => self.load(b),
            None => self.clear(),
        }
        let (outcome, stats) = p.resolve(self, options)?;
        // A completed resolve always leaves its basis in the chain.
        debug_assert!(self.state.warm);
        Ok(WarmSolve {
            outcome,
            basis: self.move_basis(),
            stats,
        })
    }

    /// Moves the held basis out as a value and leaves the chain cold (the
    /// caller has checked that it was warm).
    fn move_basis(&mut self) -> Basis {
        let st = &mut self.state;
        st.warm = false;
        Basis {
            n_vars: st.n_vars,
            status: std::mem::take(&mut st.status),
            basic: std::mem::take(&mut st.basic),
            fact: st.fact.take().map(Arc::new).or(self.loaded.take()),
            matrix_fp: st.matrix_fp,
        }
    }
}

/// Under [`SimplexOptions::fault`]: probability a supplied warm basis is
/// silently dropped (the solve runs cold).
const FAULT_DROP_BASIS: f64 = 0.20;
/// Probability a kept warm basis loses its persisted factorization (it must
/// refactorize from scratch).
const FAULT_DROP_FACTORIZATION: f64 = 0.30;
/// Probability a kept warm basis gets a duplicated column — a singular
/// matrix, driving the engine through its cold-restart fallback.
const FAULT_CORRUPT_BASIS: f64 = 0.15;

/// FNV-1a fold of a basic set — the per-basis component of the
/// fault-injection roll, so distinct warm bases of the same problem draw
/// distinct (but fully deterministic) faults.
fn basis_summary(basic: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &j in basic {
        h ^= j as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The one solve function, behind [`Problem::resolve`]: runs the engine on
/// `p` from whatever basis `chain` holds (cold when it holds none, or an
/// incompatible one), in the chain's workspace, and leaves the final basis,
/// factorization and buffers in the chain. Nothing of `p` is copied on the
/// way in: the engine indexes `p`'s own arrays.
///
/// See the module docs for which problem edits keep a basis reusable. An
/// incompatible basis is not an error — the solve silently falls back to a
/// cold start (visible in [`LpStats::cold_starts`]).
pub(crate) fn solve_state(
    p: &Problem,
    chain: &mut WarmChain,
    options: &SimplexOptions,
) -> Result<(Outcome, LpStats), SolveError> {
    let WarmChain {
        state: st,
        ws,
        loaded,
        spare,
    } = chain;
    let canon = Canon::new(p);
    let matrix_fp = canon.s.fingerprint;
    // Until this solve completes, the chain holds no basis.
    let mut warm = std::mem::replace(&mut st.warm, false);

    // Seeded fault injection (chaos harness): each decision is a pure
    // function of (seed, matrix fingerprint, basis summary, salt) — no
    // shared RNG, no thread identity — so faults land identically on a kept
    // chain as on one that loaded the same `Basis`. Faults only
    // discard or corrupt *warm* state; every recovery path re-derives the
    // same optimum, so results are unchanged while the cold-start /
    // refactorization / singular-fallback paths get exercised.
    let mut drop_fact = false;
    let mut corrupt = false;
    if let (Some(f), true) = (options.fault, warm) {
        let summary = basis_summary(&st.basic);
        if f.roll(matrix_fp, summary, 0) < FAULT_DROP_BASIS {
            warm = false;
        } else {
            drop_fact = f.roll(matrix_fp, summary, 1) < FAULT_DROP_FACTORIZATION;
            corrupt = f.roll(matrix_fp, summary, 2) < FAULT_CORRUPT_BASIS;
        }
    }

    let warm_used = warm && st.adapt(&canon);

    // The held factorization survives exactly when the basis *matrix* is
    // unchanged: same row count (no appended constraints, so `adapt` did
    // not extend the basic set), the same basic columns, and the same
    // structural coefficients (fingerprint match — guards against a basis
    // from a different problem that happens to share the shape). RHS /
    // bound / objective edits all qualify. A loaded basis's factorization
    // is copied only once it passes (the Benders master root after appended
    // cuts copies none), and into the spare's arrays when there is one.
    let reusable = warm_used && !drop_fact && !corrupt && st.matrix_fp == matrix_fp;
    let keep = |f: &Factorization| reusable && f.dim() == canon.m;
    let spare = spare.take();
    st.fact = match loaded.take() {
        Some(shared) => keep(&shared).then(|| match (Arc::try_unwrap(shared), spare) {
            (Ok(own), _) => own,
            (Err(shared), Some(mut copy)) => {
                copy.clone_from(&shared);
                copy
            }
            (Err(shared), None) => Factorization::clone(&shared),
        }),
        None => st.fact.take().filter(keep),
    };

    let mut stats = LpStats::default();
    if warm_used {
        stats.warm_starts += 1;
    } else {
        stats.cold_starts += 1;
    }

    if !warm_used {
        cold_state(&canon, &mut st.status, &mut st.basic);
    }
    let basic = &mut st.basic;
    if corrupt && basic.len() >= 2 && basic[0] != basic[basic.len() - 1] {
        // Duplicate a basic column: the basis matrix becomes singular, and
        // `Engine::new`'s refactorization detects it and falls back to the
        // all-logical cold restart (statistics reset to one cold start).
        let last = basic.len() - 1;
        basic[last] = basic[0];
    }
    // A singular stored basis falls back to a cold restart inside
    // `Engine::new` (statistics reset to a single cold start).
    let mut eng = Engine::new(&canon, options, st, stats, ws)?;

    let outcome = run(&mut eng, warm_used)?;
    let stats = eng.finish(st);
    st.n_vars = canon.n;
    st.matrix_fp = matrix_fp;
    st.warm = true;
    Ok((outcome, stats))
}

/// Phase driver: dual simplex first on a warm dual-feasible basis, primal
/// phase 1 + 2 otherwise. `x_B` is first computed here — by the dual
/// feasibility repair once it has decided its bound flips on a warm start,
/// directly on a cold one.
fn run(eng: &mut Engine<'_>, warm: bool) -> Result<Outcome, SolveError> {
    let farkas = |y| Ok(Outcome::Infeasible(Farkas { row_multipliers: y }));
    let dual_feasible = if warm {
        eng.repair_dual_feasibility()
    } else {
        eng.compute_xb();
        false
    };
    if dual_feasible {
        match eng.dual()? {
            DualEnd::Infeasible { y } => return farkas(y),
            DualEnd::PrimalFeasible => {}
        }
        // The dual pass ends primal + dual feasible; the primal mop-up below
        // usually exits without a single pivot but guards tolerance drift.
    } else if eng.infeasibility() > 1e-7 {
        match eng.primal(true)? {
            PrimalEnd::Infeasible { y } => return farkas(y),
            PrimalEnd::Unbounded => unreachable!("phase 1 objective is bounded below by 0"),
            PrimalEnd::Optimal => {}
        }
    }

    match eng.primal(false)? {
        PrimalEnd::Unbounded => Ok(Outcome::Unbounded),
        PrimalEnd::Infeasible { .. } => unreachable!("phase 2 never reports infeasibility"),
        PrimalEnd::Optimal => {
            let x = eng.primal_x();
            let objective = eng.objective(&x);
            let duals = eng.duals();
            Ok(Outcome::Optimal(Solution {
                objective,
                x,
                duals,
            }))
        }
    }
}

#[cfg(test)]
mod tests;
