//! The `no-overbooking` baseline (paper §4.3.2).
//!
//! Constraint (9) is flipped to `xΛ ≤ z`, which together with (8) pins
//! `z = Λ·x`: accepted slices get the full SLA reserved. The risk term
//! vanishes (`P ≡ 0`), so the problem collapses to an optimal admission
//! MILP over `u` alone — reservations are substituted into the capacity
//! rows. The paper solves this with its optimal method, making the baseline
//! an upper bound among non-overbooking policies; so do we.

use super::{add_deficit_vars, solve_admission_milp, AcrrError, Admission};
use crate::problem::{AcrrInstance, Allocation};
use ovnes_lp::{Cmp, Problem, VarId};
use ovnes_milp::MilpOptions;

/// Solves the no-overbooking admission problem optimally. Node, pivot and
/// wall limits and LP fault injection arrive through `options`; a limited
/// tree returns its best incumbent with `stats.truncated` set.
///
/// An instance built with `overbooking = true` is rejected with
/// [`AcrrError::Internal`]: the baseline must price full-SLA reservations.
pub fn solve(instance: &AcrrInstance, options: &MilpOptions) -> Result<Allocation, AcrrError> {
    if instance.overbooking {
        return Err(AcrrError::Internal(
            "baseline requires an instance built with overbooking = false",
        ));
    }
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }
    let mut p = Problem::new();

    // Objective: −Σ R·u (γ reduces to −R since q = 0 without overbooking).
    let admission = Admission::new(instance, &mut p, |t, _| Some(-instance.tenants[t].reward))?;
    let deficit_vars = add_deficit_vars(&mut p, instance.deficit_cost);
    admission.add_rows(instance, &mut p);

    // Capacity rows with z = Λ·u substituted.
    // CU: Σ_τ (a_τ + b_τ·Σ_b Λ_τ)·u_{τ,c} ≤ C_c.
    for c in 0..instance.n_cu {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for ((t, ci), v) in admission.iter() {
            if ci != c {
                continue;
            }
            let ten = &instance.tenants[t];
            let legs = instance.legs_of(t, c).len() as f64;
            let load = ten.service.base_cores + ten.service.cores_per_mbps * ten.sla_mbps * legs;
            if load != 0.0 {
                row.push((v, load));
            }
        }
        if let Some((_, _, dc)) = deficit_vars {
            row.push((dc, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.cu_cores[c]);
    }

    // Links: Σ legs crossing e contribute Λ·u of their pair.
    for (e, &cap) in instance.link_caps.iter().enumerate() {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for ((t, c), v) in admission.iter() {
            let crossings = instance
                .legs_of(t, c)
                .iter()
                .filter(|l| l.links.contains(&e))
                .count() as f64;
            if crossings > 0.0 {
                row.push((
                    v,
                    crossings * instance.eta_transport * instance.tenants[t].sla_mbps,
                ));
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

    // Radio: per BS, Σ_pairs Λ/η_b · u ≤ C_b.
    for b in 0..instance.n_bs {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for ((t, c), v) in admission.iter() {
            if instance.legs_of(t, c).iter().any(|l| l.bs == b) {
                row.push((v, instance.tenants[t].sla_mbps / instance.mbps_per_mhz[b]));
            }
        }
        if let Some((dr, _, _)) = deficit_vars {
            row.push((dr, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.bs_radio_mhz[b]);
    }

    // Accepted slices reserve their full SLA on every leg.
    solve_admission_milp(instance, p, &admission, deficit_vars, options, |_, li| {
        instance.tenants[instance.legs[li].tenant].sla_mbps
    })
}
