//! Pinned digests of what each admission solver returns.
//!
//! Every [`SolverKind`] solves about a dozen seeded instances on generated
//! Romanian (N1) topologies: relaxed (§3.4 deficit) and strict, with and
//! without forced and pinned tenants, squeezed capacities so that slices
//! are rejected, and `overbooking = false` instances, the only ones the
//! no-overbooking baseline accepts. Per solver kind, two FNV-1a hashes
//! cover the bits of every allocation: a *decision* digest over the
//! objective, CU assignment, reservations, deficit and error code, and a
//! *count* digest over the `SolveStats` counters and every `LpStats`
//! counter.
//!
//! The constants are a refinement check for refactors of the solver
//! internals: the same bits before and after. A change that only moves
//! how much work a solver does (fewer vets, other pivots) re-records the
//! count digest and leaves the decision digest alone. Every solve runs at
//! the default simplex options, and the branch-and-bound results are
//! deterministic in the worker count. A constant moves only in a change
//! that means to move a decision or a count.
//!
//! The same instances check the node budget's contract: a relaxed instance
//! is always feasible, so a tree the budget stops before any incumbent is a
//! spent budget, never `AcrrError::Infeasible`.

use ovnes::problem::{AcrrInstance, Allocation, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::{
    baseline, benders, kac, oneshot, solve_controlled, AcrrError, Degradation, SolveBudget,
    SolveControls, SolverKind,
};
use ovnes_lp::{LpStats, SimplexOptions};
use ovnes_milp::MilpOptions;
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

/// One instance: topology seed, tenants, capacity squeeze (radio and
/// compute multiplied by it), overbooking, deficit relaxation, and how
/// many leading tenants are forced (`must_accept`) and of those, how many
/// are also pinned to their first allowed CU.
struct Case {
    topology_seed: u64,
    tenants: usize,
    squeeze: f64,
    overbooking: bool,
    deficit: bool,
    forced: usize,
    pinned: usize,
}

#[rustfmt::skip]
const CASES: [Case; 12] = [
    Case { topology_seed: 1,  tenants: 3, squeeze: 1.0,  overbooking: true,  deficit: false, forced: 0, pinned: 0 },
    Case { topology_seed: 2,  tenants: 4, squeeze: 0.3,  overbooking: true,  deficit: true,  forced: 0, pinned: 0 },
    Case { topology_seed: 3,  tenants: 5, squeeze: 0.15, overbooking: true,  deficit: false, forced: 0, pinned: 0 },
    Case { topology_seed: 4,  tenants: 4, squeeze: 0.1,  overbooking: true,  deficit: true,  forced: 2, pinned: 1 },
    Case { topology_seed: 5,  tenants: 5, squeeze: 0.25, overbooking: true,  deficit: false, forced: 1, pinned: 1 },
    Case { topology_seed: 6,  tenants: 3, squeeze: 0.05, overbooking: true,  deficit: true,  forced: 3, pinned: 2 },
    Case { topology_seed: 7,  tenants: 4, squeeze: 1.0,  overbooking: false, deficit: false, forced: 0, pinned: 0 },
    Case { topology_seed: 8,  tenants: 5, squeeze: 0.2,  overbooking: false, deficit: true,  forced: 0, pinned: 0 },
    Case { topology_seed: 9,  tenants: 4, squeeze: 0.15, overbooking: false, deficit: false, forced: 1, pinned: 0 },
    Case { topology_seed: 10, tenants: 5, squeeze: 0.1,  overbooking: false, deficit: true,  forced: 2, pinned: 2 },
    Case { topology_seed: 11, tenants: 3, squeeze: 0.05, overbooking: false, deficit: true,  forced: 3, pinned: 1 },
    Case { topology_seed: 12, tenants: 6, squeeze: 0.3,  overbooking: true,  deficit: true,  forced: 1, pinned: 0 },
];

/// Per solver kind, the (decision, count) digests over every case it
/// solves. The Benders and OneShot count digests were re-recorded when the
/// branch and bound became strictly best-first (it applies fewer nodes);
/// no decision digest moved.
#[rustfmt::skip]
const PINNED: [(SolverKind, u64, u64); 4] = [
    (SolverKind::Benders, 0xfea4_f835_3762_90d7, 0xe93d_a394_c81f_860d),
    (SolverKind::Kac, 0xa96d_0861_d8b5_c675, 0x2136_9603_407f_f0f9),
    (SolverKind::OneShot, 0xee6c_d50d_69cc_52f1, 0xa34a_c1b9_9c16_f980),
    (SolverKind::NoOverbooking, 0x99bb_7d93_0f5b_a0e3, 0xe8ae_d372_7ba4_e255),
];

fn instance(case: &Case) -> AcrrInstance {
    let mut model = NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.025,
            seed: case.topology_seed,
            k_paths: 3,
        },
    );
    for bs in &mut model.base_stations {
        bs.capacity_mhz *= case.squeeze;
    }
    for cu in &mut model.compute_units {
        cu.cores *= case.squeeze;
    }
    let n_bs = model.base_stations.len();
    let classes = [SliceClass::Embb, SliceClass::Urllc, SliceClass::Mmtc];
    let seed = case.topology_seed as usize;
    let mut tenants: Vec<TenantInput> = (0..case.tenants)
        .map(|i| {
            let t = SliceTemplate::for_class(classes[(i + seed) % 3]);
            let alpha = 0.15 + 0.1 * ((i * 7 + seed) % 6) as f64;
            TenantInput {
                tenant: (100 * seed + i) as u32,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward * (1.0 + (i % 3) as f64),
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: (0..n_bs)
                    .map(|b| alpha * t.sla_mbps * (1.0 + 0.05 * b as f64))
                    .collect(),
                sigma: 0.05 + 0.1 * ((i + seed) % 4) as f64,
                duration_weight: 1.0,
                must_accept: i < case.forced,
                pinned_cu: None,
            }
        })
        .collect();
    let deficit_cost = case.deficit.then_some(1e4);
    if case.pinned > 0 {
        let free = AcrrInstance::build(
            &model,
            tenants.clone(),
            PathPolicy::Spread,
            case.overbooking,
            deficit_cost,
        );
        for (t, tenant) in tenants.iter_mut().enumerate().take(case.pinned) {
            tenant.pinned_cu = free.cu_allowed[t].iter().position(|&a| a);
        }
    }
    AcrrInstance::build(
        &model,
        tenants,
        PathPolicy::Spread,
        case.overbooking,
        deficit_cost,
    )
}

/// Solves `instance` with `kind`; `budgeted` caps the MILP solvers at two
/// branch-and-bound nodes and Benders at two rounds, so their truncated
/// incumbents are digested too (KAC has no budget).
fn solve(
    kind: SolverKind,
    instance: &AcrrInstance,
    budgeted: bool,
) -> Result<Allocation, AcrrError> {
    if budgeted {
        solve_under(kind, instance, 2, 2)
    } else {
        solve_under(kind, instance, MilpOptions::default().max_nodes, 60)
    }
}

/// Solves `instance` with `kind` at `max_nodes` branch-and-bound nodes per
/// MILP solve and `max_rounds` Benders rounds.
fn solve_under(
    kind: SolverKind,
    instance: &AcrrInstance,
    max_nodes: usize,
    max_rounds: usize,
) -> Result<Allocation, AcrrError> {
    let milp = MilpOptions {
        max_nodes,
        ..MilpOptions::default()
    };
    match kind {
        SolverKind::Benders => benders::solve(
            instance,
            &benders::BendersOptions {
                milp,
                max_iterations: max_rounds,
                ..benders::BendersOptions::default()
            },
        ),
        SolverKind::Kac => kac::solve(instance, &SimplexOptions::default()),
        SolverKind::OneShot => oneshot::solve(instance, &milp),
        SolverKind::NoOverbooking => baseline::solve(instance, &milp),
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Folds `result` into the decision digest `h` and, when it is an
/// allocation, its counters into the count digest `counts`.
fn digest_into(h: &mut Fnv, counts: &mut Fnv, result: &Result<Allocation, AcrrError>) {
    let a = match result {
        Ok(a) => a,
        Err(e) => {
            let code = match e {
                AcrrError::ForcedInfeasible => 1,
                AcrrError::Infeasible => 2,
                AcrrError::Engine(_) => 3,
                AcrrError::Internal(_) => 4,
                AcrrError::Config(_) => 5,
            };
            h.word(u64::MAX - code);
            return;
        }
    };
    h.float(a.objective);
    for cu in &a.assigned_cu {
        h.word(cu.map_or(u64::MAX, |c| c as u64));
    }
    for row in &a.reservations {
        for &z in row {
            h.float(z);
        }
    }
    h.float(a.deficit.0);
    h.float(a.deficit.1);
    h.float(a.deficit.2);
    let (h, s) = (counts, &a.stats);
    for w in [
        s.iterations,
        s.lp_solves,
        usize::from(s.truncated),
        s.carry_cold_restarts,
        s.carry_certified,
        s.carry_certified_perturbed,
    ] {
        h.word(w as u64);
    }
    h.float(s.gap);
    let LpStats {
        phase1_pivots,
        phase2_pivots,
        dual_pivots,
        refactorizations,
        factorization_reuses,
        fill_in,
        eta_len_end,
        warm_starts,
        cold_starts,
        bound_flips,
        pricing_scans,
        candidate_refreshes,
        eta_compressions,
        hypersparse_ftrans,
        hypersparse_btrans,
        pivot_scan_work,
    } = s.lp;
    for w in [
        phase1_pivots,
        phase2_pivots,
        dual_pivots,
        refactorizations,
        factorization_reuses,
        fill_in,
        eta_len_end,
        warm_starts,
        cold_starts,
        bound_flips,
        pricing_scans,
        candidate_refreshes,
        eta_compressions,
        hypersparse_ftrans,
        hypersparse_btrans,
    ] {
        h.word(w as u64);
    }
    h.word(pivot_scan_work);
}

#[test]
fn every_solver_kind_reproduces_its_pinned_digest() {
    let instances: Vec<AcrrInstance> = CASES.iter().map(instance).collect();
    let mut got = Vec::new();
    for (kind, _, _) in PINNED {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut counts = Fnv(0xcbf2_9ce4_8422_2325);
        for (case, inst) in CASES.iter().zip(&instances) {
            if kind == SolverKind::NoOverbooking && case.overbooking {
                continue; // the baseline refuses overbooking instances
            }
            for budgeted in [false, true] {
                digest_into(&mut h, &mut counts, &solve(kind, inst, budgeted));
            }
        }
        got.push((kind, h.0, counts.0));
    }
    let printed: Vec<String> = got
        .iter()
        .map(|(kind, d, c)| format!("({kind:?}, {d:#018x}, {c:#018x})"))
        .collect();
    assert_eq!(got, PINNED, "digests moved: {}", printed.join(", "));
}

/// The cases exercise what the module docs say they do: each kind rejects
/// somebody somewhere, the relaxed cases draw on the deficit, and pinned
/// tenants stay on their CU.
#[test]
fn the_cases_cover_rejection_deficit_and_pinning() {
    let (mut rejected, mut deficit, mut pinned_kept) = (0, 0, 0);
    for case in &CASES {
        let inst = instance(case);
        for kind in [SolverKind::Benders, SolverKind::Kac, SolverKind::OneShot] {
            let Ok(a) = solve(kind, &inst, false) else {
                continue;
            };
            rejected += usize::from(a.accepted() < a.assigned_cu.len());
            deficit += usize::from(a.deficit.0 + a.deficit.1 + a.deficit.2 > 0.0);
            for (t, tenant) in inst.tenants.iter().enumerate() {
                if let Some(c) = tenant.pinned_cu {
                    assert_eq!(a.assigned_cu[t], Some(c), "{kind:?}: pinned tenant moved");
                    pinned_kept += 1;
                }
            }
        }
    }
    assert!(rejected > 0 && deficit > 0 && pinned_kept > 0);
}

/// With the deficit relaxation on, rejecting every optional tenant is always
/// feasible, so no node budget may make a solver report the instance
/// infeasible: a tree stopped before its first incumbent is a spent budget.
#[test]
fn a_node_budget_never_makes_a_relaxed_instance_infeasible() {
    let kinds = PINNED.map(|(kind, _, _)| kind);
    let mut spent = 0;
    for case in CASES.iter().filter(|case| case.deficit) {
        let inst = instance(case);
        for kind in kinds {
            if kind == SolverKind::NoOverbooking && case.overbooking {
                continue;
            }
            for max_nodes in 1..=4 {
                let result = solve_under(kind, &inst, max_nodes, 60);
                let what = format!("seed {} {kind:?} at {max_nodes} nodes", case.topology_seed);
                assert!(!matches!(result, Err(AcrrError::Infeasible)), "{what}");
                spent += usize::from(matches!(result, Err(AcrrError::Engine(_))));
            }
        }
    }
    assert!(spent > 0, "no budget struck before an incumbent");
}

/// A Benders master that the node budget stops before any incumbent, after
/// round 1, ends the loop on the incumbent the earlier rounds priced: the
/// epoch degrades to `Incumbent`. Such a round runs no slave, which the
/// loop's counters show as one round more than slave solves.
#[test]
fn a_master_stopped_without_incumbent_degrades_the_epoch() {
    let mut stopped = 0;
    for case in CASES.iter().filter(|case| case.deficit) {
        let inst = instance(case);
        for max_nodes in 1..=4 {
            let controls = SolveControls {
                kind: SolverKind::Benders,
                budget: SolveBudget {
                    max_nodes: Some(max_nodes),
                    ..SolveBudget::default()
                },
                ..SolveControls::default()
            };
            let out = solve_controlled(&inst, &controls);
            let Some(a) = out.allocation.as_ref() else {
                continue;
            };
            if out.degradation == Degradation::Greedy || a.stats.iterations < 2 {
                continue; // round 1 failed, or the loop ended in one round
            }
            if a.stats.lp_solves + 1 == a.stats.iterations {
                stopped += 1;
                let what = format!("seed {} at {max_nodes} nodes", case.topology_seed);
                assert_eq!(out.degradation, Degradation::Incumbent, "{what}");
                assert!(a.stats.truncated, "{what}");
            }
        }
    }
    assert!(stopped > 0, "no master stopped without an incumbent");
}
