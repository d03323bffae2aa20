//! Benders decomposition (paper Algorithm 1).
//!
//! The master selects admissions/CU pinning (`u_{τ,c} ∈ {0,1}`) plus the
//! surrogate slave cost `θ`; the slave prices the reservations for a fixed
//! admission and returns optimality cuts `θ ≥ g(u)` or feasibility cuts
//! `g(u) ≤ 0`. Iterating closes the gap between the master lower bound and
//! the best evaluated admission (Theorem 2: finitely many dual extreme
//! points/rays ⇒ finite convergence).

use super::slave::{LpCarry, RecycledCut, SlaveContext, SlaveResult};
use super::AcrrError;
use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::{Cmp, Problem, SimplexOptions, VarId};
use ovnes_milp::{Milp, MilpOptions, MilpOutcome};

/// Recycled cuts kept per tenant/CU footprint; older cuts age out first.
/// Sixty-four covers several epochs of a converged Benders run (a handful of
/// cuts each) without letting the master grow unboundedly.
pub const CUT_POOL_CAP: usize = 64;

/// Incumbent bookkeeping: (objective, admission vector, reservations per
/// leg, deficit triple).
type Incumbent = (f64, Vec<Option<usize>>, Vec<f64>, (f64, f64, f64));

/// Benders loop controls.
#[derive(Debug, Clone)]
pub struct BendersOptions {
    /// Maximum outer iterations before returning the incumbent.
    pub max_iterations: usize,
    /// Convergence threshold on `UB − LB` (absolute, on the Ψ scale).
    pub epsilon: f64,
    /// Node budget, worker-thread count, and simplex options per master
    /// MILP solve (`milp.threads` is the parallel branch-and-bound knob —
    /// admission decisions are deterministic in it).
    pub milp: MilpOptions,
    /// Reuse bases across iterations: the slave re-prices warm from the
    /// previous admission's basis and the master resumes its stored root
    /// basis after cuts append. Results are identical either way (the
    /// pivot savings are pinned in `tests/kernel_counts.rs`); disable only
    /// for comparison runs.
    pub warm_start: bool,
}

impl Default for BendersOptions {
    fn default() -> Self {
        Self {
            max_iterations: 60,
            epsilon: 1e-6,
            milp: MilpOptions::default(),
            warm_start: true,
        }
    }
}

/// Solves the AC-RR instance optimally via Benders decomposition.
pub fn solve(instance: &AcrrInstance, options: &BendersOptions) -> Result<Allocation, AcrrError> {
    solve_carried(instance, options, None, None, None)
}

/// [`solve`] with the cross-epoch incremental hooks (see
/// `solver::epoch::EpochSolver`):
///
/// * `carry` — the slave seeds its first solve from the previous epoch's
///   re-keyed basis and deposits its final basis back on exit;
/// * `cuts` — a pool of raw dual multipliers from previous epochs. Each is
///   re-priced against *this* epoch's data ([`SlaveContext::price_recycled`],
///   which derives a valid-by-construction Lagrangian cut) and injected into
///   the fresh master before the first iteration; every slave solve then
///   appends its own duals to the pool (FIFO, capped at [`CUT_POOL_CAP`]);
/// * `incumbent` — a previous admission (already re-indexed to this
///   instance). If it covers the forced set it is evaluated by the slave and
///   used to seed the branch-and-bound cutoff and the incumbent record, so
///   the master proves optimality instead of rediscovering the solution.
///
/// Every hook only changes the solve *path* (pivots, explored nodes); the
/// returned admission remains an optimum of the same instance. With
/// degenerate alternative optima the master may surface a different
/// optimal vertex than a scratch run — callers that need bit-identical
/// decision trails use the KAC ladder, which has no such freedom.
pub fn solve_carried(
    instance: &AcrrInstance,
    options: &BendersOptions,
    mut carry: Option<&mut LpCarry>,
    mut cuts: Option<&mut Vec<RecycledCut>>,
    incumbent: Option<&[Option<usize>]>,
) -> Result<Allocation, AcrrError> {
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }
    let pairs = instance.pairs();
    let n_t = instance.tenants.len();

    // ---- master skeleton ----
    let mut master = Problem::new();
    let mut u_vars: Vec<((usize, usize), VarId)> = Vec::with_capacity(pairs.len());
    for &(t, c) in &pairs {
        let gamma = instance
            .gamma(t, c)
            .ok_or(AcrrError::Internal("allowed pair has no gamma"))?;
        u_vars.push(((t, c), master.add_var(0.0, 1.0, gamma)));
    }
    // θ is bounded below by the most negative achievable slave value
    // (every leg reserved at Λ recovers all its risk; deficits only add).
    let theta_min: f64 = -instance
        .legs
        .iter()
        .map(|l| instance.leg_q(l) * instance.tenants[l.tenant].sla_mbps)
        .sum::<f64>();
    let theta = master.add_var(theta_min, f64::INFINITY, 1.0);

    for t in 0..n_t {
        let row: Vec<(VarId, f64)> = u_vars
            .iter()
            .filter(|((ti, _), _)| *ti == t)
            .map(|(_, v)| (*v, 1.0))
            .collect();
        if row.is_empty() {
            continue; // tenant with no allowed CU is implicitly rejected
        }
        let cmp = if instance.tenants[t].must_accept {
            Cmp::Eq
        } else {
            Cmp::Le
        };
        master.add_cons(&row, cmp, 1.0);
    }

    let mut milp = Milp::new(master);
    for &(_, v) in &u_vars {
        milp.mark_integer(v);
    }
    let mut milp_options = options.milp.clone();
    // A cold Benders run forces the master cold too, but a warm run still
    // honours a caller's explicit `MilpOptions { warm_start: false, … }`.
    milp_options.warm_start &= options.warm_start;
    milp.set_options(milp_options);

    // ---- Benders loop ----
    // One persistent slave LP: each iteration re-prices the RHS for the new
    // admission vector and warm-starts from the previous basis. The master
    // `Milp` is equally persistent — cuts append rows, so its stored root
    // basis stays valid and every re-solve starts with dual-simplex pivots.
    let mut slave = SlaveContext::new(instance);
    {
        // The slave inherits the caller's fault plan (so chaos presets hit
        // the pricing LPs too) but *not* the master's pivot budget: solve
        // budgets meter the master's node relaxations, the slave must always
        // be allowed to finish pricing (see `SolveControls` docs).
        let mut slave_simplex = SimplexOptions::default();
        if options.milp.simplex.fault.is_some() {
            slave_simplex.fault = options.milp.simplex.fault;
        }
        slave.set_simplex_options(slave_simplex);
    }
    if !options.warm_start {
        slave.set_warm(false);
    }
    if let Some(c) = carry.as_deref() {
        slave.seed_from_carry(c);
    }
    let mut best: Option<Incumbent> = None;
    let mut lower = f64::NEG_INFINITY;
    let mut stats = SolveStats::default();
    let mut converged = false;

    // Re-price and inject recycled cuts from previous epochs. Each is a
    // valid inequality for *this* epoch's instance by construction (the
    // Lagrangian re-pricing in `price_recycled`), so the master starts with
    // most of last epoch's polyhedral knowledge already in place.
    let mut recycled_applied = 0usize;
    if let Some(pool) = cuts.as_deref() {
        for rc in pool.iter() {
            let cut = slave.price_recycled(rc);
            let mut row: Vec<(VarId, f64)> = Vec::new();
            if rc.optimality {
                row.push((theta, -1.0));
            }
            for ((t, c), v) in &u_vars {
                if let Some(&w) = cut.coeffs.get(&(*t, *c)) {
                    row.push((*v, w));
                }
            }
            // A feasibility cut whose coefficients all re-priced to zero is
            // either trivially true or numerically degenerate — skip it
            // rather than risk an unconditional `0 ≤ −constant` row.
            if row.is_empty() {
                continue;
            }
            milp.problem_mut().add_cons(&row, Cmp::Le, -cut.constant);
            recycled_applied += 1;
        }
    }
    stats.recycled_cuts = recycled_applied;

    // Seed the incumbent from the previous epoch's admission: evaluate it
    // with the slave and hand the master its objective as a branch-and-bound
    // cutoff. The margin keeps the true optimum strictly inside the cutoff
    // (acceptance requires `obj < cutoff − abs_gap`), so seeding can only
    // prune, never lose, the optimum.
    if let Some(prev) = incumbent {
        let usable = prev.len() == n_t
            && prev.iter().enumerate().all(|(t, c)| match c {
                Some(c) => *c < instance.n_cu && instance.cu_allowed[t][*c],
                None => !instance.tenants[t].must_accept,
            });
        if usable {
            stats.lp_solves += 1;
            if let Ok(SlaveResult::Feasible {
                value,
                z,
                deficit,
                cut,
            }) = slave.solve_for(prev)
            {
                push_cut(cuts.as_deref_mut(), slave.last_cut_duals());
                let mut fixed = 0.0;
                for ((t, c), _) in &u_vars {
                    if prev[*t] == Some(*c) {
                        fixed += instance
                            .gamma(*t, *c)
                            .ok_or(AcrrError::Internal("incumbent pair has no gamma"))?;
                    }
                }
                let total = fixed + value;
                best = Some((total, prev.to_vec(), z, deficit));
                let mut row: Vec<(VarId, f64)> = vec![(theta, -1.0)];
                for ((t, c), v) in &u_vars {
                    if let Some(&w) = cut.coeffs.get(&(*t, *c)) {
                        row.push((*v, w));
                    }
                }
                milp.problem_mut().add_cons(&row, Cmp::Le, -cut.constant);
                milp.set_incumbent_bound(total + options.milp.abs_gap + options.epsilon);
            }
            // An infeasible or errored evaluation simply forfeits the seed —
            // the loop below proceeds exactly as a scratch solve would.
        }
    }

    for iter in 0..options.max_iterations {
        let _span = ovnes_obs::span!("benders_round", round = iter as i64);
        stats.iterations = iter + 1;
        // Mid-loop failures (budget-starved or fault-injected master) fall
        // back to the incumbent: a valid admission evaluated by the slave,
        // just not proven optimal — flagged `truncated` so the orchestrator
        // records the degradation.
        let outcome = match milp.solve() {
            Ok(o) => o,
            Err(_) if best.is_some() => {
                stats.lp.absorb(milp.last_lp_stats());
                stats.lp.absorb(&slave.stats);
                stats.truncated = true;
                if let Some(c) = carry.as_deref_mut() {
                    slave.save_carry(c);
                }
                return break_out(instance, best, lower, stats);
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
                if let Some(c) = carry.as_deref_mut() {
                    slave.save_carry(c);
                }
                return match best {
                    Some(_) => break_out(instance, best, lower, stats),
                    None => Err(AcrrError::Infeasible),
                };
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

        // Decode the admission vector.
        let mut assigned: Vec<Option<usize>> = vec![None; n_t];
        for ((t, c), v) in &u_vars {
            if master_sol.value(*v) > 0.5 {
                assigned[*t] = Some(*c);
            }
        }

        stats.lp_solves += 1;
        let slave_result = match slave.solve_for(&assigned) {
            Ok(r) => r,
            Err(_) if best.is_some() => {
                // The slave errored mid-solve: its basis is suspect, so the
                // carry is left untouched (a stale carry re-keys fine; a
                // corrupt one would force a cold start next epoch anyway).
                stats.lp.absorb(&slave.stats);
                stats.truncated = true;
                return break_out(instance, best, lower, stats);
            }
            Err(e) => return Err(e.into()),
        };
        push_cut(cuts.as_deref_mut(), slave.last_cut_duals());
        match slave_result {
            SlaveResult::Feasible {
                value,
                z,
                deficit,
                cut,
            } => {
                let mut fixed = 0.0;
                for ((t, c), _) in &u_vars {
                    if assigned[*t] == Some(*c) {
                        fixed += instance
                            .gamma(*t, *c)
                            .ok_or(AcrrError::Internal("assigned pair has no gamma"))?;
                    }
                }
                let total = fixed + value;
                if best.as_ref().is_none_or(|(b, ..)| total < *b) {
                    best = Some((total, assigned.clone(), z, deficit));
                }
                // Optimality cut: θ ≥ cut(u)  ⇔  Σ coeff·u − θ ≤ −constant.
                let mut row: Vec<(VarId, f64)> = vec![(theta, -1.0)];
                for ((t, c), v) in &u_vars {
                    if let Some(&w) = cut.coeffs.get(&(*t, *c)) {
                        row.push((*v, w));
                    }
                }
                milp.problem_mut().add_cons(&row, Cmp::Le, -cut.constant);
            }
            SlaveResult::Infeasible { cut } => {
                // Feasibility cut: Σ coeff·u ≤ −constant.
                let row: Vec<(VarId, f64)> = u_vars
                    .iter()
                    .filter_map(|((t, c), v)| cut.coeffs.get(&(*t, *c)).map(|&w| (*v, w)))
                    .collect();
                milp.problem_mut().add_cons(&row, Cmp::Le, -cut.constant);
            }
        }

        if let Some((ub, ..)) = &best {
            stats.gap = ub - lower;
            if stats.gap <= options.epsilon {
                converged = true;
                break;
            }
        }
    }

    // Outer-round budget exhausted without closing the gap: the incumbent
    // is best-effort, not proven (covers `SolveBudget::max_rounds`).
    if !converged {
        stats.truncated = true;
    }
    stats.lp.absorb(&slave.stats);
    if let Some(c) = carry {
        slave.save_carry(c);
    }
    break_out(instance, best, lower, stats)
}

/// Appends a slave solve's raw duals to the recycled-cut pool, aging out the
/// oldest entry once the pool is full.
fn push_cut(pool: Option<&mut Vec<RecycledCut>>, cut: Option<&RecycledCut>) {
    let (Some(pool), Some(cut)) = (pool, cut) else {
        return;
    };
    if pool.len() >= CUT_POOL_CAP {
        pool.remove(0);
    }
    pool.push(cut.clone());
}

fn break_out(
    instance: &AcrrInstance,
    best: Option<Incumbent>,
    lower: f64,
    mut stats: SolveStats,
) -> Result<Allocation, AcrrError> {
    let Some((objective, assigned, z, deficit)) = best else {
        return Err(AcrrError::Infeasible);
    };
    stats.gap = objective - lower;
    let mut reservations = vec![vec![0.0; instance.n_bs]; instance.tenants.len()];
    for (li, leg) in instance.legs.iter().enumerate() {
        if assigned[leg.tenant] == Some(leg.cu) {
            reservations[leg.tenant][leg.bs] = z[li];
        }
    }
    Ok(Allocation {
        objective,
        assigned_cu: assigned,
        reservations,
        deficit,
        stats,
    })
}
