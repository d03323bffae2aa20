//! AC-RR solvers (paper §4).
//!
//! * [`benders`] — Algorithm 1: optimal Benders decomposition (MILP master
//!   over CU-selection binaries + LP slave over reservations, with
//!   optimality and feasibility cuts),
//! * [`kac`] — Algorithms 2–3: the Knapsack Admission Control heuristic
//!   (greedy FFD over dual-ray-aggregated capacity),
//! * [`oneshot`] — the linearised AC-RR MILP (Problem 2) solved directly by
//!   branch and bound; exact but only practical on small instances, used as
//!   the cross-check oracle in tests,
//! * [`baseline`] — the `no-overbooking` policy (constraint (9) flipped to
//!   `z = Λ·x`), solved optimally as a pure admission MILP,
//! * [`slave`] — the shared reservation LP and Benders-cut extraction.
//!
//! ## One admission layout
//!
//! All four solvers decide the same thing: one CU or none per tenant, and
//! a reservation on each leg of the chosen (tenant, CU) pair. That
//! bookkeeping exists once, and each solver calls it with its float
//! operations in the same order:
//!
//! * `Admission` — the binaries `u_{τ,c}` of the three MILP formulations
//!   (the Benders master, the one-shot MILP, the baseline): one column per
//!   allowed pair, in [`AcrrInstance::pairs`] order and ahead of every
//!   other column, rows (5)/(6) (at most one CU per tenant, exactly one
//!   when forced) and the decode `u > 0.5`;
//! * `add_deficit_vars` / `deficit_values` — the §3.4 deficit triple
//!   `(δ_r, δ_b, δ_c)` of the slave, the one-shot and the baseline;
//! * `solve_admission_milp` — the branch-and-bound tail of the one-shot
//!   and the baseline: solve, map the outcome, decode, read out;
//! * [`AcrrInstance::admission_cost`] (`Σ Γ` over an admission, in tenant
//!   order) and `Allocation::from_legs` (per-leg values into
//!   `reservations[tenant][bs]`) — all four.
//!
//! What stays each solver's own is its formulation: the Benders cuts and
//! `θ`, KAC's aggregated knapsack, the one-shot's capacity and
//! linearisation rows (8)-(12) — what it cross-checks Benders with — and
//! the baseline's rows with `z = Λ·u` substituted.

pub mod baseline;
pub mod benders;
pub mod kac;
pub mod oneshot;
pub mod slave;

use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::{Cmp, Problem, VarId, WarmChain};
use ovnes_milp::{Milp, MilpOptions, MilpOutcome, MilpSolution};
use std::time::Duration;

/// Which algorithm the orchestrator runs each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Optimal Benders decomposition (small/medium instances).
    #[default]
    Benders,
    /// KAC heuristic (large instances; suboptimal but fast).
    Kac,
    /// One-shot MILP (tiny instances; reference oracle).
    OneShot,
    /// No-overbooking baseline (requires `instance.overbooking == false`).
    NoOverbooking,
}

/// Errors shared by the solvers.
#[derive(Debug, Clone)]
pub enum AcrrError {
    /// A `must_accept` tenant has no delay-feasible CU at all.
    ForcedInfeasible,
    /// The instance admits no assignment satisfying all constraints (only
    /// possible with the §3.4 deficit relaxation disabled).
    Infeasible,
    /// The underlying LP/MILP engine gave up (iteration limits).
    Engine(ovnes_lp::SolveError),
    /// A solver invariant was violated (a state the algorithms prove
    /// unreachable, surfaced as a recoverable error instead of a panic so
    /// the orchestrator's degradation ladder can absorb it).
    Internal(&'static str),
    /// The orchestrator was configured with a value it cannot run an epoch
    /// under; nothing was solved or mutated.
    Config(&'static str),
}

impl std::fmt::Display for AcrrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcrrError::ForcedInfeasible => {
                write!(f, "an active slice has no delay-feasible compute unit")
            }
            AcrrError::Infeasible => write!(f, "no feasible slice assignment exists"),
            AcrrError::Engine(e) => write!(f, "solver engine error: {e}"),
            AcrrError::Internal(what) => write!(f, "solver invariant violated: {what}"),
            AcrrError::Config(what) => write!(f, "invalid orchestrator configuration: {what}"),
        }
    }
}

impl std::error::Error for AcrrError {}

impl From<ovnes_lp::SolveError> for AcrrError {
    fn from(e: ovnes_lp::SolveError) -> Self {
        AcrrError::Engine(e)
    }
}

/// A compute budget for one admission solve. All limits are optional; the
/// default is unlimited (beyond the engines' own safety caps).
///
/// The counter budgets (`max_pivots`, `max_nodes`, `max_rounds`) are
/// **deterministic**: they count algorithmic steps, so the same instance
/// under the same budget truncates at the same point at any worker count.
/// `wall_limit` is the only non-deterministic knob — it is opt-in,
/// [`SolveBudget::is_deterministic`] reports `false` when set, and the
/// scenario sweeps exclude wall-limited configurations from fingerprint
/// comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Cap on simplex pivots per LP solve (Benders master node LPs, one-shot
    /// and baseline node LPs). Exhaustion inside a MILP surfaces as an
    /// engine error, which the degradation ladder absorbs.
    pub max_pivots: Option<usize>,
    /// Cap on branch-and-bound nodes per MILP solve; the tree returns its
    /// best incumbent flagged `truncated`, or, stopped before its first
    /// incumbent, an engine error the degradation ladder absorbs.
    pub max_nodes: Option<usize>,
    /// Cap on Benders outer iterations; the loop returns its incumbent
    /// flagged `truncated`. Ignored by the other solvers.
    pub max_rounds: Option<usize>,
    /// Wall-clock deadline per MILP solve (**non-deterministic**; opt-in).
    pub wall_limit: Option<Duration>,
}

impl SolveBudget {
    /// True when every configured limit is a deterministic step counter —
    /// i.e. no wall-clock deadline is set.
    pub fn is_deterministic(&self) -> bool {
        self.wall_limit.is_none()
    }

    /// Folds this budget into a set of MILP options (taking the tighter of
    /// the existing limit and the budget's).
    fn apply_milp(&self, options: &mut ovnes_milp::MilpOptions) {
        if let Some(n) = self.max_nodes {
            options.max_nodes = options.max_nodes.min(n.max(1));
        }
        if let Some(p) = self.max_pivots {
            options.simplex.max_iterations = options.simplex.max_iterations.min(p.max(1));
        }
        if self.wall_limit.is_some() {
            options.wall_limit = self.wall_limit;
        }
    }
}

/// Everything the orchestrator threads into one epoch's admission solve:
/// the algorithm, the compute budget, and an optional LP fault-injection
/// plan for chaos testing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveControls {
    /// Primary algorithm (the ladder may fall back to KAC below it).
    pub kind: SolverKind,
    /// Ignored: the branch and bound is one best-first loop on the calling
    /// thread. The field survives only because the frozen `benchmark/`
    /// harness still names it; the next change to `benchmark/` drops that
    /// use, and this field with it.
    pub threads: usize,
    /// Ignored, as [`SolveControls::threads`] is: the search has no rounds
    /// to size.
    pub round_width: usize,
    /// Compute budget; default unlimited.
    pub budget: SolveBudget,
    /// Seeded LP fault injection, threaded into **every** rung of the
    /// ladder: the MILP-backed solves (Benders master, one-shot, baseline)
    /// via their simplex options, and the KAC/Benders slave LPs via
    /// theirs — so a chaos preset's fault plan reaches the greedy fallback
    /// with the same seed as the primary, and the fallback's telemetry
    /// stays fingerprint-stable. `None` (the default) injects nothing.
    /// Injection is a pure function of (seed, matrix fingerprint, basis
    /// summary), so it is thread-count invariant.
    pub lp_fault: Option<ovnes_lp::FaultConfig>,
    /// LP basis refactorization interval — Forrest–Tomlin updates folded
    /// into a factorization before the engine rebuilds it from scratch
    /// (0 ⇒ the engine default, 128). Threaded into every rung of the
    /// ladder, like `lp_fault`. A numerical-drift bound, not a cost bound;
    /// results are identical at any interval.
    pub refactor_interval: usize,
}

impl SolveControls {
    /// KAC's simplex options under this control set: the vetting slave
    /// inherits the fault plan (chaos presets must hit the fallback rung
    /// too) and the refactorization interval but **not** the budget's pivot
    /// cap — `SolveBudget::max_pivots` meters the master node LPs, and the
    /// ladder's greedy rung is deliberately unbudgeted (its job is to
    /// produce *some* decision when the budgeted primary could not).
    fn kac_options(&self) -> ovnes_lp::SimplexOptions {
        let mut simplex = ovnes_lp::SimplexOptions {
            fault: self.lp_fault,
            ..ovnes_lp::SimplexOptions::default()
        };
        if self.refactor_interval > 0 {
            simplex.refactor_interval = self.refactor_interval;
        }
        simplex
    }
}

/// How far down the degradation ladder an epoch's admission decision fell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Degradation {
    /// Primary solver ran to completion (proven/converged result).
    #[default]
    None,
    /// A budget limit truncated the primary solver; the decision is its
    /// best incumbent.
    Incumbent,
    /// The primary solver failed outright; the decision came from the KAC
    /// greedy heuristic.
    Greedy,
    /// Every rung failed: no decision this epoch — the orchestrator keeps
    /// the previous reservations and defers pending arrivals.
    Deferred,
}

impl Degradation {
    /// Stable small code for fingerprinting (0 = none … 3 = deferred).
    pub fn code(self) -> u8 {
        match self {
            Degradation::None => 0,
            Degradation::Incumbent => 1,
            Degradation::Greedy => 2,
            Degradation::Deferred => 3,
        }
    }
}

/// The outcome of [`solve_controlled`] / [`solve_epoch`]: an allocation
/// when any rung of the ladder produced one, how degraded it is, and the
/// primary-solver error when one occurred (recorded even when a fallback
/// succeeded).
#[derive(Debug, Clone)]
pub struct ControlledOutcome {
    /// The admission decision; `None` exactly when `degradation` is
    /// [`Degradation::Deferred`].
    pub allocation: Option<Allocation>,
    /// Ladder rung the decision came from.
    pub degradation: Degradation,
    /// The error that forced a fallback (or the final error on deferral).
    pub error: Option<AcrrError>,
    /// The solve from the carried chain errored, so the chain was dropped
    /// and the epoch re-solved from scratch ([`solve_epoch`]); always
    /// `false` from [`solve_controlled`].
    pub carry_fallback: bool,
}

impl ControlledOutcome {
    /// The ladder over the primary solver's result: its allocation stands,
    /// degraded to [`Degradation::Incumbent`] when a budget limit truncated
    /// the search; a failure falls through to the greedy rung or defers.
    fn ladder(
        instance: &AcrrInstance,
        controls: &SolveControls,
        primary: Result<Allocation, AcrrError>,
    ) -> Self {
        let (allocation, degradation, error) = match primary {
            Ok(allocation) => {
                let degradation = if allocation.stats.truncated {
                    Degradation::Incumbent
                } else {
                    Degradation::None
                };
                (Some(allocation), degradation, None)
            }
            Err(AcrrError::ForcedInfeasible) => (
                None,
                Degradation::Deferred,
                Some(AcrrError::ForcedInfeasible),
            ),
            Err(primary) if controls.kind != SolverKind::Kac => {
                match kac::solve(instance, &controls.kac_options()) {
                    Ok(allocation) => (Some(allocation), Degradation::Greedy, Some(primary)),
                    Err(_) => (None, Degradation::Deferred, Some(primary)),
                }
            }
            Err(primary) => (None, Degradation::Deferred, Some(primary)),
        };
        ControlledOutcome {
            allocation,
            degradation,
            error,
            carry_fallback: false,
        }
    }
}

/// Solves an instance with the algorithm, compute budget and LP fault plan
/// of `controls` — the one way into the four solver modules. No fallback:
/// budget truncation returns `Ok` with `stats.truncated` set, errors
/// propagate ([`solve_controlled`] is the degradation ladder over this).
/// Every MILP-backed solver (Benders master, one-shot, baseline) searches
/// on the calling thread.
pub fn solve(instance: &AcrrInstance, controls: &SolveControls) -> Result<Allocation, AcrrError> {
    dispatch(instance, controls, &mut WarmChain::new())
}

/// The one dispatch on [`SolverKind`]. `carry` is the cross-epoch slave
/// chain of [`solve_epoch`] and is KAC's alone (certified per solve — it
/// changes the solve path, never the decision); every other kind always
/// solves from scratch and leaves it untouched.
fn dispatch(
    instance: &AcrrInstance,
    controls: &SolveControls,
    carry: &mut WarmChain,
) -> Result<Allocation, AcrrError> {
    match controls.kind {
        SolverKind::Kac => kac::solve_carried(instance, &controls.kac_options(), carry),
        SolverKind::Benders => benders::solve(instance, &benders_options_for(controls)),
        SolverKind::OneShot => oneshot::solve(instance, &milp_options_for(controls)),
        SolverKind::NoOverbooking => baseline::solve(instance, &milp_options_for(controls)),
    }
}

/// MILP options implied by a control set: the engine defaults, the budget
/// folded in, and the fault plan on the node-relaxation simplex.
fn milp_options_for(controls: &SolveControls) -> ovnes_milp::MilpOptions {
    let mut milp_options = ovnes_milp::MilpOptions::default();
    controls.budget.apply_milp(&mut milp_options);
    milp_options.simplex.fault = controls.lp_fault;
    if controls.refactor_interval > 0 {
        milp_options.simplex.refactor_interval = controls.refactor_interval;
    }
    milp_options
}

/// Benders options implied by a control set (see [`milp_options_for`]).
fn benders_options_for(controls: &SolveControls) -> benders::BendersOptions {
    let mut options = benders::BendersOptions {
        milp: milp_options_for(controls),
        ..benders::BendersOptions::default()
    };
    if let Some(r) = controls.budget.max_rounds {
        options.max_iterations = options.max_iterations.min(r.max(1));
    }
    options
}

/// Runs the admission solve through the **degradation ladder** from
/// scratch: [`solve_epoch`] over a fresh chain, so nothing is carried in or
/// out. The paper solves AC-RR afresh every epoch (§4), so this is the
/// specification every carried solve refines.
pub fn solve_controlled(instance: &AcrrInstance, controls: &SolveControls) -> ControlledOutcome {
    solve_epoch(instance, controls, &mut WarmChain::new())
}

/// Runs one epoch's admission solve through the **degradation ladder**
/// (the fault-tolerance contract the orchestrator relies on — this
/// function never returns an error):
///
/// 1. the primary solver under the budget — a truncated-but-successful run
///    degrades to [`Degradation::Incumbent`];
/// 2. on primary failure (engine error, invariant violation, strict
///    infeasibility) the KAC greedy heuristic, unbudgeted —
///    [`Degradation::Greedy`];
/// 3. if that also fails (or the failure is structural —
///    [`AcrrError::ForcedInfeasible`] cannot be solved by trying harder) —
///    [`Degradation::Deferred`] with no allocation.
///
/// **The cross-epoch carry.** `carry` is the KAC vetting slave's
/// [`WarmChain`] (final basis, its factorization and the engine's
/// buffers), owned by the caller from one epoch to the next and handed
/// over by swap at the end of every KAC solve.
/// [`kac::solve_carried`] seeds it on **all-forced epochs only**, and only
/// when it [fits](WarmChain::fits) the new slave LP — same shape, same
/// structural matrix — so the first solve replays the held LU with zero
/// refactorizations; a seeded vet stands only under a
/// [`certify_unique`](ovnes_lp::certify_unique) certificate, so the
/// decision is [`solve_controlled`]'s (`crates/scenario/DESIGN.md`,
/// "Cross-epoch warm start", has the measurements and the known limit of
/// the proof). An infrastructure event that changes only row capacities
/// leaves the chain fitting; one that reroutes legs changes the matrix,
/// and the chain is not seeded. Benders, one-shot and the baseline never
/// touch `carry`: for them this *is* [`solve_controlled`].
///
/// **Safety contract:** the carry changes only the solve *path*. If a
/// solve that started from a warm `carry` errors — a corrupt basis, a
/// fault-injection hit — the chain is cleared and the epoch re-runs as a
/// plain [`solve_controlled`], flagged
/// [`ControlledOutcome::carry_fallback`].
pub fn solve_epoch(
    instance: &AcrrInstance,
    controls: &SolveControls,
    carry: &mut WarmChain,
) -> ControlledOutcome {
    let _span = ovnes_obs::span!("epoch_solve");
    let carried = carry.is_warm();
    match dispatch(instance, controls, carry) {
        Err(_) if carried => {
            carry.clear();
            ControlledOutcome {
                carry_fallback: true,
                ..solve_controlled(instance, controls)
            }
        }
        primary => ControlledOutcome::ladder(instance, controls, primary),
    }
}

/// The admission binaries `u_{τ,c}` of a MILP formulation: one column per
/// allowed (tenant, CU) pair, in [`AcrrInstance::pairs`] order, added
/// before any other column of the problem.
struct Admission {
    /// The allowed pairs, ascending.
    pairs: Vec<(usize, usize)>,
    /// The column of each pair.
    vars: Vec<VarId>,
    n_tenants: usize,
}

impl Admission {
    /// Adds one binary per allowed pair to `p`, with objective coefficient
    /// `cost(t, c)`.
    fn new(
        instance: &AcrrInstance,
        p: &mut Problem,
        cost: impl Fn(usize, usize) -> Option<f64>,
    ) -> Result<Admission, AcrrError> {
        let pairs = instance.pairs();
        let mut vars = Vec::with_capacity(pairs.len());
        for &(t, c) in &pairs {
            let cost = cost(t, c).ok_or(AcrrError::Internal("allowed pair has no gamma"))?;
            vars.push(p.add_var(0.0, 1.0, cost));
        }
        Ok(Admission {
            pairs,
            vars,
            n_tenants: instance.tenants.len(),
        })
    }

    /// The binary of pair `(t, c)`; `None` when the pair is not allowed.
    fn var(&self, t: usize, c: usize) -> Option<VarId> {
        self.pairs.binary_search(&(t, c)).ok().map(|k| self.vars[k])
    }

    /// Every pair with its binary, pairs ascending.
    fn iter(&self) -> impl Iterator<Item = ((usize, usize), VarId)> + '_ {
        self.pairs.iter().copied().zip(self.vars.iter().copied())
    }

    /// Rows (5)/(6 reformulated): at most one CU per tenant, exactly one
    /// when the tenant is forced. A tenant with no allowed CU gets no row;
    /// it is implicitly rejected.
    fn add_rows(&self, instance: &AcrrInstance, p: &mut Problem) {
        for (t, tenant) in instance.tenants.iter().enumerate() {
            let lo = self.pairs.partition_point(|&(pt, _)| pt < t);
            let hi = self.pairs.partition_point(|&(pt, _)| pt <= t);
            if lo == hi {
                continue;
            }
            let row: Vec<(VarId, f64)> = self.vars[lo..hi].iter().map(|&v| (v, 1.0)).collect();
            let cmp = if tenant.must_accept { Cmp::Eq } else { Cmp::Le };
            p.add_cons(&row, cmp, 1.0);
        }
    }

    fn mark_integer(&self, milp: &mut Milp) {
        for &v in &self.vars {
            milp.mark_integer(v);
        }
    }

    /// The admission vector of a solution: tenant `t` on CU `c` where
    /// `u_{t,c}` reads above one half.
    fn decode(&self, value: impl Fn(VarId) -> f64) -> Vec<Option<usize>> {
        let mut assigned = vec![None; self.n_tenants];
        for ((t, c), v) in self.iter() {
            if value(v) > 0.5 {
                assigned[t] = Some(c);
            }
        }
        assigned
    }
}

/// The §3.4 deficit columns `(δ_r, δ_b, δ_c)` (radio, transport, compute:
/// one per domain), `None` without the relaxation.
type DeficitVars = Option<(VarId, VarId, VarId)>;

/// Adds the deficit columns at cost `M` each when the relaxation is on.
fn add_deficit_vars(p: &mut Problem, cost: Option<f64>) -> DeficitVars {
    cost.map(|m| {
        (
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
        )
    })
}

/// The deficit a solution draws, zero without the relaxation.
fn deficit_values(vars: DeficitVars, value: impl Fn(VarId) -> f64) -> (f64, f64, f64) {
    vars.map_or((0.0, 0.0, 0.0), |(r, b, c)| (value(r), value(b), value(c)))
}

/// Solves an admission MILP by branch and bound and reads its allocation:
/// the decoded admission, the deficit, and `leg_z(solution, li)` on every
/// admitted leg `li`. A node-limited tree returns its best incumbent with
/// `stats.truncated` set, or [`AcrrError::Engine`] when it had none yet.
fn solve_admission_milp(
    instance: &AcrrInstance,
    problem: Problem,
    admission: &Admission,
    deficit: DeficitVars,
    options: &MilpOptions,
    leg_z: impl Fn(&MilpSolution, usize) -> f64,
) -> Result<Allocation, AcrrError> {
    let mut milp = Milp::new(problem);
    admission.mark_integer(&mut milp);
    milp.set_options(options.clone());
    let sol = match milp.solve()? {
        MilpOutcome::Optimal(s) => s,
        MilpOutcome::Infeasible => return Err(AcrrError::Infeasible),
        MilpOutcome::Unbounded => {
            return Err(AcrrError::Internal("admission MILP columns are bounded"))
        }
    };
    let stats = SolveStats {
        iterations: 1,
        lp_solves: sol.nodes,
        truncated: sol.truncated,
        lp: sol.lp_stats,
        ..SolveStats::default()
    };
    Ok(Allocation::from_legs(
        instance,
        sol.objective,
        admission.decode(|v| sol.value(v)),
        |li| leg_z(&sol, li),
        deficit_values(deficit, |v| sol.value(v)),
        stats,
    ))
}
