//! One-shot AC-RR MILP (paper Problem 2) — the exact linearised formulation
//! with admission binaries `u`, reservations `z` and linearisation variables
//! `y = z·x`, solved directly by branch and bound.
//!
//! Exponential in the number of binaries, so this is the *reference oracle*
//! for small instances: tests cross-check Benders and bound KAC against it.
//! It shares the admission bookkeeping every solver uses (the `u` columns
//! and rows (5)/(6), the deficit triple, the decode and the per-leg readout;
//! see the [`solver`](super) docs). Its capacity rows and the linearisation
//! (8)-(12) are its own: they are what it checks Benders' decomposition
//! with. `oneshot_matches_brute_force` checks this formulation in turn with
//! no solver code at all.

use super::{add_deficit_vars, solve_admission_milp, AcrrError, Admission};
use crate::problem::{AcrrInstance, Allocation};
use ovnes_lp::{Cmp, Problem, VarId};
use ovnes_milp::MilpOptions;

/// Solves the AC-RR instance as a single MILP. Node, pivot and wall limits
/// and LP fault injection arrive through `options`; a node- or wall-limited
/// tree returns its best incumbent with `stats.truncated` set.
pub fn solve(instance: &AcrrInstance, options: &MilpOptions) -> Result<Allocation, AcrrError> {
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }
    let mut p = Problem::new();

    // u_{τ,c} with objective Γ_{τ,c} = Σ_b q·Λ − R.
    let admission = Admission::new(instance, &mut p, |t, c| instance.gamma(t, c))?;

    // z and y per leg; objective −q on y (risk recovered by reservations).
    let z_vars: Vec<VarId> = instance
        .legs
        .iter()
        .map(|_| p.add_var(0.0, f64::INFINITY, 0.0))
        .collect();
    let y_vars: Vec<VarId> = instance
        .legs
        .iter()
        .map(|leg| p.add_var(0.0, f64::INFINITY, -instance.leg_q(leg)))
        .collect();
    let deficit_vars = add_deficit_vars(&mut p, instance.deficit_cost);

    admission.add_rows(instance, &mut p);

    // (2/14) CU capacity with baseline cores on u.
    for c in 0..instance.n_cu {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.cu == c {
                let b = instance.tenants[leg.tenant].service.cores_per_mbps;
                if b != 0.0 {
                    row.push((z_vars[li], b));
                }
            }
        }
        for (t, ten) in instance.tenants.iter().enumerate() {
            if ten.service.base_cores != 0.0 {
                if let Some(u) = admission.var(t, c) {
                    row.push((u, ten.service.base_cores));
                }
            }
        }
        if let Some((_, _, dc)) = deficit_vars {
            row.push((dc, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.cu_cores[c]);
    }

    // (3/15) Links.
    for (e, &cap) in instance.link_caps.iter().enumerate() {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.links.contains(&e) {
                row.push((z_vars[li], instance.eta_transport));
            }
        }
        if row.is_empty() {
            continue;
        }
        if let Some((_, db, _)) = deficit_vars {
            row.push((db, -1.0));
        }
        p.add_cons(&row, Cmp::Le, cap);
    }

    // (4/16) Radio.
    for b in 0..instance.n_bs {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.bs == b {
                row.push((z_vars[li], 1.0 / instance.mbps_per_mhz[b]));
            }
        }
        if let Some((dr, _, _)) = deficit_vars {
            row.push((dr, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.bs_radio_mhz[b]);
    }

    // (8)-(12) coupling and linearisation per leg.
    for (li, leg) in instance.legs.iter().enumerate() {
        let t = &instance.tenants[leg.tenant];
        let lam = t.sla_mbps;
        let lam_hat = instance.leg_forecast(leg);
        let u = admission
            .var(leg.tenant, leg.cu)
            .ok_or(AcrrError::Internal(
                "leg does not correspond to an allowed pair",
            ))?;
        let (z, y) = (z_vars[li], y_vars[li]);
        p.add_cons(&[(z, 1.0), (u, -lam)], Cmp::Le, 0.0); // (8)  z ≤ Λu
        p.add_cons(&[(z, 1.0), (u, -lam_hat)], Cmp::Ge, 0.0); // (9)  z ≥ λ̂u
        p.add_cons(&[(y, 1.0), (u, -lam)], Cmp::Le, 0.0); // (10) y ≤ Λu
        p.add_cons(&[(y, 1.0), (z, -1.0)], Cmp::Le, 0.0); // (11) y ≤ z
        p.add_cons(&[(z, 1.0), (u, lam), (y, -1.0)], Cmp::Le, lam); // (12)
    }

    solve_admission_milp(instance, p, &admission, deficit_vars, options, |sol, li| {
        sol.value(z_vars[li])
    })
}
