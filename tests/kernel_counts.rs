//! Exact counts of the work the warm-started LP kernels do at four city
//! scales: the slave re-pricing chain warm vs cold, the second solve of a
//! warm context, and Benders warm vs cold.
//!
//! Pivots, refactorizations, bound flips and scan work are pure functions
//! of the instance and the default simplex options, identical in debug and
//! release builds. A count that moves means the pivoting rules, the
//! long-step ratio test, the Forrest–Tomlin update or the Markowitz search
//! changed: update the constant in the PR that means to, never as a side
//! effect.

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::slave::SlaveContext;
use ovnes::solver::{benders, kac};
use ovnes_lp::{LpStats, SimplexOptions};
use ovnes_milp::MilpOptions;
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

fn instance_at(scale: f64, n_tenants: usize) -> AcrrInstance {
    let generator = GeneratorConfig {
        scale,
        seed: 18,
        k_paths: 3,
    };
    let model = NetworkModel::generate(Operator::Romanian, &generator);
    let n_bs = model.base_stations.len();
    let classes = [SliceClass::Embb, SliceClass::Mmtc, SliceClass::Urllc];
    let tenants: Vec<TenantInput> = (0..n_tenants)
        .map(|i| {
            let t = SliceTemplate::for_class(classes[i % 3]);
            TenantInput {
                tenant: i as u32,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward,
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: vec![0.3 * t.sla_mbps; n_bs],
                sigma: 0.2,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect();
    AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None)
}

/// Admission vectors like consecutive Benders iterations: mostly stable,
/// one rotating tenant rejected, CUs rotating slowly.
fn rotating_sequence(inst: &AcrrInstance, steps: usize) -> Vec<Vec<Option<usize>>> {
    let (n_t, n_cu) = (inst.tenants.len(), inst.n_cu.max(1));
    let cu_at = |t: usize, s: usize| {
        let cu = (t + s / n_t) % n_cu;
        if inst.cu_allowed[t][cu] {
            Some(cu)
        } else {
            inst.cu_allowed[t].iter().position(|&a| a)
        }
    };
    (0..steps)
        .map(|s| {
            (0..n_t)
                .map(|t| if t == s % n_t { None } else { cu_at(t, s) })
                .collect()
        })
        .collect()
}

/// For the big scales, where the rotating sequence is mostly Farkas
/// proofs: KAC's capacity-vetted admission with one rotating admitted
/// tenant dropped per step, so each step re-opens one tenant's reservation
/// windows and closes another's — bound-heavy dual-simplex re-solves.
fn feasible_sequence(inst: &AcrrInstance, steps: usize) -> Vec<Vec<Option<usize>>> {
    let base = kac::solve(inst, &SimplexOptions::default())
        .expect("KAC")
        .assigned_cu;
    let admitted: Vec<usize> = (0..base.len()).filter(|&t| base[t].is_some()).collect();
    assert!(!admitted.is_empty(), "KAC admitted nothing");
    (0..steps)
        .map(|s| {
            let mut v = base.clone();
            v[admitted[s % admitted.len()]] = None;
            v
        })
        .collect()
}

/// The stats of solving `seq` in order through one persistent context.
fn warm_chain(inst: &AcrrInstance, seq: &[Vec<Option<usize>>]) -> LpStats {
    let mut ctx = SlaveContext::new(inst);
    for assigned in seq {
        ctx.solve_for(assigned).expect("slave solve");
    }
    ctx.stats
}

/// The same solves, each through a fresh context.
fn cold_chain(inst: &AcrrInstance, seq: &[Vec<Option<usize>>]) -> LpStats {
    let mut total = LpStats::default();
    for assigned in seq {
        total.absorb(&warm_chain(inst, std::slice::from_ref(assigned)));
    }
    total
}

/// Per scale: label, topology scale, tenants, chain steps, feasible chain?;
/// then the chain's [warm pivots, cold pivots, warm refactorizations, cold
/// refactorizations, warm factorization reuses, warm bound flips, warm eta
/// compressions, warm hyper-sparse FTRANs, warm scan work]; then what the
/// second solve of a warm context adds to the first, as [pivots,
/// refactorizations, reuses, flips].
type Scale = (
    &'static str,
    f64,
    usize,
    usize,
    bool,
    [usize; 9],
    [usize; 4],
);
#[rustfmt::skip]
const SCALES: [Scale; 4] = [
    ("small", 0.02,  3, 16, false, [ 13, 131, 1, 16, 15,  25,   5,  0,  36], [ 0, 0, 1,  4]),
    ("paper", 0.04,  6, 16, false, [165, 677, 2, 16, 15, 167, 131,  0, 128], [16, 0, 1, 16]),
    ("10x",   0.12, 20,  8, true,  [222, 576, 2,  8,  7,  79, 150, 49, 382], [24, 0, 1,  3]),
    ("100x",  0.4,  60,  4, true,  [ 59, 228, 1,  4,  3, 168,   3, 59, 430], [ 1, 0, 1, 56]),
];

#[test]
fn slave_chain_counts_at_four_scales() {
    for (label, scale, tenants, steps, feasible, chain_counts, second_solve) in SCALES {
        let inst = instance_at(scale, tenants);
        let seq = if feasible {
            feasible_sequence(&inst, steps)
        } else {
            rotating_sequence(&inst, steps)
        };
        let (warm, cold) = (warm_chain(&inst, &seq), cold_chain(&inst, &seq));
        let counted = [
            warm.total_pivots(),
            cold.total_pivots(),
            warm.refactorizations,
            cold.refactorizations,
            warm.factorization_reuses,
            warm.bound_flips,
            warm.eta_compressions,
            warm.hypersparse_ftrans,
            warm.pivot_scan_work as usize,
        ];
        assert_eq!(counted, chain_counts, "{label}: chain");
        // What the constants are instances of. A degenerate-lucky cold
        // start may prove its outcome with zero pivots where the warm
        // re-solve pays one closing pivot, hence the per-solve slack.
        assert!(
            warm.total_pivots() <= cold.total_pivots() + steps,
            "{label}"
        );
        assert!(warm.refactorizations < cold.refactorizations, "{label}");

        // The persisted-factorization and long-step contracts: a re-solve
        // that only edits RHS and bounds keeps the factors it has and flips
        // bounds instead of pivoting through them.
        let (first, both) = (warm_chain(&inst, &seq[..1]), warm_chain(&inst, &seq[..2]));
        let added = [
            both.total_pivots() - first.total_pivots(),
            both.refactorizations - first.refactorizations,
            both.factorization_reuses - first.factorization_reuses,
            both.bound_flips - first.bound_flips,
        ];
        assert_eq!(added, second_solve, "{label}: second solve");
    }
}

#[test]
fn benders_warm_start_pivots() {
    for (label, scale, tenants, pivots) in
        [("small", 0.02, 3, (21, 67)), ("paper", 0.04, 6, (62, 184))]
    {
        let inst = instance_at(scale, tenants);
        let run = |warm_start: bool| {
            let options = benders::BendersOptions {
                milp: MilpOptions {
                    warm_start,
                    ..MilpOptions::default()
                },
                ..benders::BendersOptions::default()
            };
            benders::solve(&inst, &options).expect("benders")
        };
        let (warm, cold) = (run(true), run(false));
        assert!((warm.objective - cold.objective).abs() < 1e-6, "{label}");
        assert_eq!(warm.stats.iterations, 3, "{label}: iterations");
        let counted = (warm.stats.lp.total_pivots(), cold.stats.lp.total_pivots());
        assert_eq!(counted, pivots, "{label}");
    }
}
