//! Benders decomposition (paper Algorithm 1).
//!
//! The master selects admissions/CU pinning (`u_{τ,c} ∈ {0,1}`) plus the
//! surrogate slave cost `θ`; the slave prices the reservations for a fixed
//! admission and returns optimality cuts `θ ≥ g(u)` or feasibility cuts
//! `g(u) ≤ 0`. Iterating closes the gap between the master lower bound and
//! the best evaluated admission (Theorem 2: finitely many dual extreme
//! points/rays ⇒ finite convergence).
//!
//! A solve ends in one of three ways:
//! - the gap closes (within `1e-6`): the incumbent is proven optimal;
//! - the round cap (`max_iterations`, [`SolveBudget::max_rounds`]) is
//!   reached: the incumbent is returned flagged `truncated`;
//! - a master that the node cap ([`SolveBudget::max_nodes`]) truncated
//!   returns an admission the slave has already priced in this solve. Its
//!   cut would copy one the master already holds, and Theorem 2's progress
//!   rests on every round adding a new cut. The incumbent is returned
//!   flagged `truncated`; that last round priced nothing, so `lp_solves`
//!   is one below `iterations` (the round cap leaves them equal).
//!
//! An uncapped master that repeats an admission is bounded by that
//! admission's own cut, so the gap check ends that round the first way.
//!
//! [`SolveBudget::max_rounds`]: super::SolveBudget::max_rounds
//! [`SolveBudget::max_nodes`]: super::SolveBudget::max_nodes

use super::slave::{CutExpr, SlaveContext, SlaveResult};
use super::{AcrrError, Admission};
use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::{Cmp, Problem, SimplexOptions, VarId};
use ovnes_milp::{Milp, MilpOptions, MilpOutcome};

/// Algorithm 1's convergence threshold on `UB − LB` (absolute, on the Ψ
/// scale).
const EPSILON: f64 = 1e-6;

/// Benders loop controls.
#[derive(Debug, Clone)]
pub struct BendersOptions {
    /// Maximum outer iterations before returning the incumbent (a capped
    /// master that repeats an admission ends the loop sooner).
    pub max_iterations: usize,
    /// Node budget and simplex options per master MILP solve. Its
    /// `warm_start` is the whole run's: with it, the slave re-prices warm
    /// from the previous admission's basis and the master resumes its
    /// stored root basis after cuts append, besides the B&B handing each
    /// node its parent's basis. Results are identical either way (the
    /// pivot savings are pinned in `tests/kernel_counts.rs`); disable only
    /// for comparison runs.
    pub milp: MilpOptions,
}

impl Default for BendersOptions {
    fn default() -> Self {
        Self {
            max_iterations: 60,
            milp: MilpOptions::default(),
        }
    }
}

/// Solves the AC-RR instance optimally via Benders decomposition.
pub fn solve(instance: &AcrrInstance, options: &BendersOptions) -> Result<Allocation, AcrrError> {
    solve_priced(instance, options, &mut Vec::new())
}

/// [`solve`], leaving in `priced` every admission the slave priced, in
/// round order.
pub(crate) fn solve_priced(
    instance: &AcrrInstance,
    options: &BendersOptions,
    priced: &mut Vec<Vec<Option<usize>>>,
) -> Result<Allocation, AcrrError> {
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }

    // ---- master skeleton ----
    let mut master = Problem::new();
    let admission = Admission::new(instance, &mut master, |t, c| instance.gamma(t, c))?;
    // θ is bounded below by the most negative achievable slave value
    // (every leg reserved at Λ recovers all its risk; deficits only add).
    let theta_min: f64 = -instance
        .legs
        .iter()
        .map(|l| instance.leg_q(l) * instance.tenants[l.tenant].sla_mbps)
        .sum::<f64>();
    let theta = master.add_var(theta_min, f64::INFINITY, 1.0);
    admission.add_rows(instance, &mut master);

    let mut milp = Milp::new(master);
    admission.mark_integer(&mut milp);
    milp.set_options(options.milp.clone());

    // ---- Benders loop ----
    // One persistent slave LP: each iteration re-prices the RHS for the new
    // admission vector and warm-starts from the previous basis. The master
    // `Milp` is equally persistent — cuts append rows, so its stored root
    // basis stays valid and every re-solve starts with dual-simplex pivots.
    // The loop ends when the gap closes, at the round cap, or when a capped
    // master repeats an admission already priced (see the module docs).
    let mut slave = SlaveContext::new(instance);
    // The slave solves under the caller's simplex options (fault plan,
    // refactorization interval) but *not* the master's pivot budget: solve
    // budgets meter the master's node relaxations, the slave must always be
    // allowed to finish pricing (see `SolveControls` docs).
    slave.set_simplex_options(SimplexOptions {
        max_iterations: SimplexOptions::default().max_iterations,
        ..options.milp.simplex.clone()
    });
    if !options.milp.warm_start {
        slave.set_warm(false);
    }
    // A cut over the admission binaries, after an optional head term.
    let cut_row = |head: Option<(VarId, f64)>, cut: &CutExpr| -> Vec<(VarId, f64)> {
        let terms = admission
            .iter()
            .filter_map(|(pair, v)| Some((v, cut.get(pair)?)));
        head.into_iter().chain(terms).collect()
    };
    // The best admission the slave has priced: its objective is the upper
    // bound.
    let mut best: Option<Allocation> = None;
    let mut lower = f64::NEG_INFINITY;
    let mut stats = SolveStats::default();
    let mut converged = false;

    for iter in 0..options.max_iterations {
        let _span = ovnes_obs::span!("benders_round", round = iter as i64);
        stats.iterations = iter + 1;
        // Mid-loop failures (a master the node budget stopped before its
        // first incumbent, or a pivot-starved or fault-injected one) fall
        // back to the incumbent: a valid admission evaluated by the slave,
        // just not proven optimal — flagged `truncated` so the orchestrator
        // records the degradation.
        let outcome = match milp.solve() {
            Ok(o) => o,
            Err(_) if best.is_some() => {
                stats.lp.absorb(milp.last_lp_stats());
                stats.lp.absorb(&slave.stats);
                stats.truncated = true;
                return break_out(best, lower, stats);
            }
            Err(e) => return Err(e.into()),
        };
        // Absorb via `last_lp_stats` so master pivots are counted even when
        // the outcome carries no solution (Infeasible/Unbounded).
        stats.lp.absorb(milp.last_lp_stats());
        let master_sol = match outcome {
            MilpOutcome::Optimal(s) => s,
            MilpOutcome::Infeasible => {
                // Feasibility cuts exclude every admission (possible only
                // without the deficit relaxation and with forced slices).
                stats.lp.absorb(&slave.stats);
                return break_out(best, lower, stats);
            }
            MilpOutcome::Unbounded => return Err(AcrrError::Internal("θ is bounded below")),
        };
        // A node-budget-truncated master yields a valid (integral) admission
        // but its objective is not a proven lower bound — keep iterating,
        // just remember the run is best-effort.
        if master_sol.truncated {
            stats.truncated = true;
        } else {
            lower = lower.max(master_sol.objective);
        }

        let assigned = admission.decode(|v| master_sol.value(v));
        // A capped master that returns an admission already priced would
        // only get a copy of a cut it holds: end here with the incumbent
        // (`converged` stays false, so the solve is flagged `truncated`).
        if master_sol.truncated && priced.contains(&assigned) {
            break;
        }
        priced.push(assigned.clone());

        stats.lp_solves += 1;
        let slave_result = match slave.solve_for(&assigned) {
            Ok(r) => r,
            Err(_) if best.is_some() => {
                stats.lp.absorb(&slave.stats);
                stats.truncated = true;
                return break_out(best, lower, stats);
            }
            Err(e) => return Err(e.into()),
        };
        match slave_result {
            SlaveResult::Feasible {
                value,
                z,
                deficit,
                duals,
                ..
            } => {
                let fixed = instance
                    .admission_cost(&assigned)
                    .ok_or(AcrrError::Internal("assigned pair has no gamma"))?;
                let total = fixed + value;
                if best.as_ref().is_none_or(|b| total < b.objective) {
                    best = Some(Allocation::from_legs(
                        instance,
                        total,
                        assigned,
                        |li| z[li],
                        deficit,
                        SolveStats::default(),
                    ));
                }
                // Optimality cut: θ ≥ cut(u)  ⇔  Σ coeff·u − θ ≤ −constant.
                let cut = slave.optimality_cut(&duals);
                let row = cut_row(Some((theta, -1.0)), &cut);
                milp.problem_mut().add_cons(&row, Cmp::Le, -cut.constant);
            }
            SlaveResult::Infeasible { cut } => {
                // Feasibility cut: Σ coeff·u ≤ −constant.
                let row = cut_row(None, &cut);
                milp.problem_mut().add_cons(&row, Cmp::Le, -cut.constant);
            }
        }

        if let Some(b) = &best {
            stats.gap = b.objective - lower;
            if stats.gap <= EPSILON {
                converged = true;
                break;
            }
        }
    }

    // Round cap reached, or a capped master repeated an admission, without
    // closing the gap: the incumbent is best-effort, not proven.
    if !converged {
        stats.truncated = true;
    }
    stats.lp.absorb(&slave.stats);
    break_out(best, lower, stats)
}

/// Returns the incumbent with the run's stats and its final gap;
/// [`AcrrError::Infeasible`] when no admission was feasible.
fn break_out(
    best: Option<Allocation>,
    lower: f64,
    mut stats: SolveStats,
) -> Result<Allocation, AcrrError> {
    let mut allocation = best.ok_or(AcrrError::Infeasible)?;
    stats.gap = allocation.objective - lower;
    allocation.stats = stats;
    Ok(allocation)
}
