//! # ovnes-lp — a self-contained linear-programming solver
//!
//! This crate implements the linear-programming substrate required by the
//! CoNEXT'18 slice-overbooking reproduction, with
//!
//! * optimal primal solutions,
//! * exact **dual values** per constraint (needed for Benders optimality
//!   cuts and the KAC heuristic weights), and
//! * **Farkas infeasibility certificates** (dual extreme rays, needed for
//!   Benders feasibility cuts and the KAC capacity aggregation).
//!
//! The paper solved these programs with IBM CPLEX; no LP solver exists in
//! the sanctioned offline crate set, so this crate substitutes for it.
//!
//! ## The engine and its test oracle
//!
//! The shipping library has **one** engine, the bounded-variable revised
//! simplex below, and **one** way into it, [`Problem::resolve`] on a
//! [`WarmChain`]; [`Problem::solve`] and [`Problem::solve_warm`] are
//! conveniences over a fresh chain. The original dense
//! two-phase tableau simplex (`dense::solve`) — bounds canonicalised away,
//! every solve cold, no code shared with the revised engine — survives as
//! the specification side of the cross-check suites and is compiled only
//! under `cfg(test)` or the `testgen` feature. The other slow twins (the
//! dense `Lu`, `SparseLu::factor_rescan`) are `cfg(test)` only.
//!
//! **Bounded-variable revised simplex** ([`revised`], the production
//! engine): box bounds are handled natively (no mirror/split/ub-row
//! blowup), and the linear algebra is **sparse end to end**. A [`Problem`]
//! *is* the engine's canonical form — it keeps its bounds, costs and
//! right-hand sides in the arrays the engine indexes (one entry per column,
//! a logical column per row after the variables), so a solve borrows them
//! and copies nothing. The structural constraint matrix is stored in
//! compressed-sparse-column form (`SparseMatrix`, built by
//! [`Problem::structural_matrix`] once per structural edit and cached in
//! the [`Problem`]); the basis is
//! kept factorized by a **sparse LU with bucketed Markowitz pivoting** —
//! fewest-nonzeros pivot selection under a threshold-partial-pivoting
//! stability test, with drop-tolerance handling so roundoff noise never
//! becomes structural fill — plus **Forrest–Tomlin updates** folding each
//! pivot into the factors and periodic refactorization (see *Factorization
//! internals* below). FTRAN exploits right-hand-side sparsity (the
//! entering column touches a handful of rows), pricing runs **devex**
//! reference weights instead of Dantzig's rule (which stalls on degenerate
//! slave LPs) over a **candidate list** on large problems (partial pricing:
//! a rotating bucket of attractive columns, refreshed by a cyclic scan only
//! when stale, so per-iteration pricing stops scaling with total column
//! count), and — the point of the exercise — the final **[`Basis`] is a
//! value you can keep**. A [`WarmChain`] resumes from its last (or a
//! loaded) basis after problem edits, using the **dual simplex** when the edit
//! preserved dual feasibility (bound changes, RHS changes, appended rows —
//! exactly the branch-and-bound and Benders deltas) so a re-solve costs a
//! handful of pivots instead of two cold phases. The dual ratio test is the
//! **long-step (bound-flipping)** variant: breakpoint columns that can
//! simply move to their opposite finite bound are flipped through (one
//! aggregated FTRAN) and the step continues, collapsing chains of
//! degenerate dual pivots into a single basis change — exactly the shape of
//! the bound-heavy slave/node re-solves this engine exists for. The dual
//! simplex also picks its **leaving row by dual devex weights**
//! (`violation²/w_i`, Forrest–Goldfarb row weights updated from each pivot
//! column) rather than the raw worst violation, the dual-side mirror of the
//! primal pricing. [`LpStats::bound_flips`], [`LpStats::pricing_scans`],
//! and [`LpStats::candidate_refreshes`] observe the new machinery.
//!
//! ## The `Basis` contract
//!
//! A [`Basis`] taken from a [`WarmChain`] (or returned by
//! [`Problem::solve_warm`]) stays valid for a problem derived from the
//! solved one by any combination of:
//!
//! * [`Problem::set_bounds`] — branch-and-bound node bounds,
//! * [`Problem::set_rhs`] — Benders slave re-pricing,
//! * [`Problem::add_cons`] — Benders cuts (rows append; nothing renumbers),
//! * `Problem::set_objective` (test builds) — falls back to primal warm
//!   iterations.
//!
//! Adding *variables* changes the column space: the solve detects the
//! mismatch and transparently performs a cold solve. Bases are plain values
//! (`Clone`) — branch-and-bound hands each child its parent's basis.
//!
//! ## Persistent factorizations
//!
//! A [`Basis`] also carries the **factorization** of its basis matrix
//! (shared via `Arc`, so clones are cheap). When the edit between solves
//! leaves the basis matrix untouched — `set_rhs`, `set_bounds`,
//! `set_objective`, i.e. every edit *except* appended rows — the next
//! solve resumes from the stored sparse factors and performs **zero
//! refactorizations**: the re-solve goes straight to pivoting. Appended
//! rows grow the basis matrix and force one fresh factorization; a changed
//! column space falls back to cold as before.
//!
//! Pivot-level counters ([`LpStats`]) accumulate across warm chains so
//! callers can report phase-1/phase-2/dual pivots, warm-start hits,
//! refactorizations, factorization reuses, sparse-LU fill-in,
//! Forrest–Tomlin compressions ([`LpStats::eta_compressions`]),
//! hyper-sparse solves ([`LpStats::hypersparse_ftrans`] /
//! [`LpStats::hypersparse_btrans`]), and Markowitz candidate-scan work
//! ([`LpStats::pivot_scan_work`]).
//!
//! ## Factorization internals
//!
//! Three mechanisms keep the per-pivot linear algebra sublinear in the
//! basis dimension `m`; each has a slow twin retained as its oracle (the
//! factor and LU twins are test-only, see above; the dense FTRAN/BTRAN
//! sweep is also the production fallback above the density cutoff).
//!
//! **Bucketed Markowitz pivot selection.** The factorization maintains,
//! per elimination stage, a column → active-rows adjacency (the transpose
//! view of the active submatrix) and an array of buckets indexed by active
//! column count, so the fewest-nonzeros candidate column pops off the
//! lowest non-empty bucket instead of being found by rescanning every
//! remaining column (the old Θ(m²) inner loop). Counts are patched
//! incrementally as eliminations annihilate entries. The selection rule is
//! *identical* to the retained rescan path — same tie-breaks, same
//! threshold-partial-pivoting stability test — so both produce bitwise-equal
//! factors; the proptest suite asserts exactly that, and
//! [`LpStats::pivot_scan_work`] counts candidate inspections, which is how
//! the asymptotic win is pinned: about 3.2 inspections per column at every
//! dimension from 38 to 8,115, against Θ(m²) for the rescan
//! (`bucketed_scan_work_is_linear_where_the_rescan_is_quadratic`).
//!
//! **Forrest–Tomlin updates.** A basis change replaces one column of the
//! basis matrix. Instead of appending a product-form eta (whose file grows
//! without compression until the next refactorization), the update is
//! folded into the factor replay: the FTRAN image of the entering column —
//! already computed for the ratio test — becomes the spike, and the update
//! is compressed into the stored representation
//! ([`LpStats::eta_compressions`] counts these). An update that fails the
//! stability test is *refused* and the caller refactorizes from the
//! already-updated basis instead — refusal is a performance event, never a
//! correctness event. Scheduled refactorization is governed by
//! [`SimplexOptions::refactor_interval`] (default 128): with compressed
//! updates the interval bounds numerical drift, not eta-file cost, so it
//! can sit far past the old product-form sweet spot. Warm/cold answers are
//! identical at any interval; the warm-chain torture in
//! `tests/solver_cross_check.rs` runs at interval 8 to hammer the refusal
//! seam and asserts that it refactorizes more often than at the default.
//!
//! **Hyper-sparse FTRAN/BTRAN.** When the right-hand side has few nonzeros
//! relative to `m` (branch-bound column updates, unit vectors for row
//! pricing), the triangular solves walk an index worklist of reachable
//! rows instead of scanning all `m` positions. The dense path remains the
//! fallback (and the oracle: results are bitwise identical); the cutoff is
//! density-based, so dense RHS or small bases never pay the worklist
//! overhead. Callers pass the nonzero pattern as a per-call hint through
//! the solve scratch; the hint is consumed by each solve, never persisted.
//!
//! **Copy-on-compress sharing.** Because compression *mutates* the stored
//! representation, the persisted factorization splits into an immutable
//! `Arc`-shared sparse-LU core and a per-owner update state: a
//! branch-and-bound node resuming from its parent's basis shares the
//! factors but copies the update state, so a node folding updates can
//! never leak them into its sibling's (or the parent's) view. Both halves
//! are flat arrays (no vector per row, stage or slot), so that copy is nine
//! `memcpy`s at any dimension and reserves room for the node's own
//! updates, and a refactorization reuses its working set from the
//! chain's workspace: it allocates only the arrays it returns. The
//! cross-check suite drives four divergent update chains off one shared
//! parent to pin this down; `tests/alloc_counts.rs` counts the
//! allocations.
//!
//! ## Who holds the restart state
//!
//! A solve reads the [`Problem`] and [`SimplexOptions`] and continues from
//! restart state that one [`WarmChain`] holds: the final basis, its owned
//! factorization and the engine's scratch buffers. One chain per caller —
//! the KAC / Benders slave keeps one across its re-pricings, the
//! `ovnes-milp` branch and bound one across a search's nodes. What callers
//! share is [`Basis`] values: a chain moves its basis out
//! ([`WarmChain::take_basis`]) and another solve loads it back
//! ([`WarmChain::load`]), the way branch and bound hands one parent basis
//! to both children ([`WarmChain::solve_from`] wraps that hand-off around
//! one resolve); the factors behind a basis's `Arc` are shared, and a
//! chain that replays them copies only their update state. No solve
//! shares anything with another thread while it runs; holders may still
//! hand chains and bases to one, so compile-time assertions keep the
//! problem data and [`Basis`] `Send + Sync` and a chain `Send`. See the
//! [`revised`] module docs.
//!
//! ## Conventions
//!
//! All problems are **minimisations**. Duals `y` follow the convention of the
//! dual pair `min c'x s.t. Ax ≥ b, x ≥ 0` ⟷ `max b'y s.t. A'y ≤ c, y ≥ 0`:
//!
//! * `y_i ≥ 0` for `≥` constraints,
//! * `y_i ≤ 0` for `≤` constraints,
//! * `y_i` free for `=` constraints,
//! * strong duality: `objective = Σ y_i b_i + Σ_j d_j · bound_j` where the
//!   second sum collects reduced-cost contributions of finite bounds
//!   (handled internally; user-visible duals refer to user constraints).
//!
//! A Farkas certificate `y` proves infeasibility: it satisfies the same sign
//! convention, `A'y ≤ 0` componentwise, and `y'b > 0`; any feasible `x ≥ 0`
//! would give the contradiction `0 < y'b ≤ y'(Ax) ≤ 0`.
//!
//! ## Example
//!
//! ```
//! use ovnes_lp::{Problem, Cmp, Outcome};
//!
//! // min -3x - 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
//! let mut p = Problem::new();
//! let x = p.add_var(0.0, f64::INFINITY, -3.0);
//! let y = p.add_var(0.0, f64::INFINITY, -5.0);
//! p.add_cons(&[(x, 1.0)], Cmp::Le, 4.0);
//! p.add_cons(&[(y, 2.0)], Cmp::Le, 12.0);
//! p.add_cons(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
//! match p.solve().unwrap() {
//!     Outcome::Optimal(s) => {
//!         assert!((s.objective - (-36.0)).abs() < 1e-6);
//!         assert!((s.value(x) - 2.0).abs() < 1e-6);
//!         assert!((s.value(y) - 6.0).abs() < 1e-6);
//!     }
//!     _ => unreachable!(),
//! }
//! ```
//!
//! Warm-started re-solve after a bound change (the branch-and-bound step):
//!
//! ```
//! use ovnes_lp::{Cmp, Outcome, Problem, SimplexOptions, WarmChain};
//!
//! let mut p = Problem::new();
//! let x = p.add_var(0.0, 1.0, -1.0);
//! let y = p.add_var(0.0, 1.0, -2.0);
//! p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 1.5);
//! let opts = SimplexOptions::default();
//! let mut chain = WarmChain::new();
//! let parent = chain.solve_from(&p, None, &opts).unwrap().basis;
//! p.set_bounds(y, 0.0, 0.0); // "branch down" on y
//! let child = chain.solve_from(&p, Some(&parent), &opts).unwrap();
//! let Outcome::Optimal(sol) = child.outcome else { unreachable!() };
//! assert!((sol.value(x) - 1.0).abs() < 1e-9);
//! assert_eq!(child.stats.warm_starts, 1);
//! ```

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

#[cfg(any(test, feature = "testgen"))]
pub mod dense;
mod model;
pub mod revised;
mod simplex;
mod sparse;

pub use model::{certify_unique, Cmp, ConsId, Problem, Uniqueness, VarId};
pub use revised::{Basis, LpStats, WarmChain, WarmSolve};
pub use simplex::{FaultConfig, Outcome, SimplexOptions, SolveError};

#[cfg(test)]
mod tests;
