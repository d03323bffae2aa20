//! The ISSUE-7 bit-identity contract of cross-epoch incremental
//! re-optimization: a horizon driven through the persistent
//! [`EpochSolver`] must make **exactly** the same admission decisions as
//! the from-scratch driver — at any worker count, and under chaos — while
//! paying measurably less solve work. Decision identity is stated on
//! [`ScenarioReport::decision_fingerprint`], which hashes the full
//! decision trail (admissions, revenue trajectory, violations, degraded /
//! deferred epochs) but not the solver-path telemetry the incremental
//! machinery legitimately changes (pivots, refactorizations, recycled
//! cuts).
//!
//! The Benders incremental path gets an *objective*-equality check at the
//! solver layer instead of decision identity in isolation: recycled cuts
//! and a seeded incumbent can surface a different vertex among ties, and
//! the master's optimum — not the tie-break — is the contract.

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::slave::{LpCarry, RecycledCut};
use ovnes::solver::{benders, SolverKind};
use ovnes_scenario::driver::{run_scenario, ScenarioSpec};
use ovnes_scenario::presets;
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

/// The from-scratch twin of an incremental spec: identical in every field
/// (including the name, which the fingerprint hashes) except the solver
/// persistence.
fn scratch_twin(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut twin = spec.clone();
    twin.incremental = false;
    twin
}

/// Clean-path identity: the incremental-n1 preset (slow-churn KAC) must
/// reproduce the scratch twin's decision trail bit-for-bit while paying
/// strictly fewer simplex pivots over the horizon — the O(churn) claim,
/// observed end-to-end.
#[test]
fn incremental_n1_decisions_match_scratch_twin() {
    let spec = presets::incremental_n1();
    let warm = run_scenario(&spec).expect("incremental run");
    let cold = run_scenario(&scratch_twin(&spec)).expect("scratch run");
    assert!(warm.incremental && !cold.incremental);
    assert_eq!(
        warm.decision_fingerprint(),
        cold.decision_fingerprint(),
        "incremental decisions diverged from the from-scratch driver"
    );
    assert_eq!(
        warm.incremental_cold_epochs, 0,
        "clean run must never fall back cold"
    );
    assert!(warm.accepted > 0, "horizon admitted nothing");
    assert!(
        warm.lp_pivots < cold.lp_pivots,
        "incremental ({}) must pay fewer pivots than scratch ({})",
        warm.lp_pivots,
        cold.lp_pivots
    );
    assert!(
        warm.lp_refactorizations < cold.lp_refactorizations,
        "incremental ({}) must refactorize less than scratch ({})",
        warm.lp_refactorizations,
        cold.lp_refactorizations
    );
}

/// Chaos-path identity: background BS/link/CU faults plus seeded LP fault
/// injection (the `chaos-incremental-n1` preset) poison carried bases and
/// invalidate recycled cuts — epochs must degrade to cold solves, never to
/// errors, and the decision trail must still match the scratch twin.
#[test]
fn chaos_incremental_decisions_match_scratch_twin() {
    let spec = presets::chaos_incremental();
    let warm = run_scenario(&spec).expect("chaos incremental run");
    let cold = run_scenario(&scratch_twin(&spec)).expect("chaos scratch run");
    assert_eq!(
        warm.decision_fingerprint(),
        cold.decision_fingerprint(),
        "chaos incremental decisions diverged from the from-scratch driver"
    );
    assert_eq!(warm.solver_errors, 0, "faults must degrade, not error");
    assert!(warm.infra_events > 0, "chaos preset applied no faults");
}

/// Worker invariance of the incremental path itself: the full fingerprint
/// (decision trail *plus* pivot-level incremental telemetry) of an
/// incremental run is bit-identical at 1, 2, and 4 branch-and-bound
/// workers — including on a budgeted Benders chaos horizon where carried
/// bases, recycled cuts, and the seeded incumbent are all active.
#[test]
fn incremental_runs_bit_identical_across_bnb_threads() {
    let chaos = {
        let mut s = presets::chaos_outage();
        s.incremental = true;
        s
    };
    for base in [
        presets::incremental_n1(),
        presets::incremental_steady(),
        chaos,
    ] {
        let mut spec = base;
        spec.threads = 1;
        let serial = run_scenario(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for threads in [2usize, 4] {
            spec.threads = threads;
            let par = run_scenario(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(
                serial.fingerprint(),
                par.fingerprint(),
                "{}: incremental trajectory diverged at {threads} workers",
                spec.name
            );
        }
    }
}

/// The from-scratch twin must also be unaffected by the spec's
/// `incremental` flag flowing through the sweep plumbing: running the
/// chaos-incremental scratch twin twice gives the same full fingerprint
/// (run-to-run determinism of the new presets).
#[test]
fn chaos_incremental_scratch_twin_is_run_to_run_deterministic() {
    let spec = scratch_twin(&presets::chaos_incremental());
    let a = run_scenario(&spec).expect("first run");
    let b = run_scenario(&spec).expect("second run");
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// The O(churn) claim on the steady-state preset: after the opening flash
/// settles, every epoch re-vets the same forced tenant set, and the
/// carried basis must make those epochs nearly free — ≥3× fewer simplex
/// pivots than the from-scratch driver and **zero** refactorizations over
/// the whole steady window (identity remap ⇒ the persisted factorization
/// is reused). The steady window is isolated by running a settle-length
/// prefix and subtracting; prefix stability of the horizon is asserted
/// first so the subtraction is sound.
#[test]
fn incremental_steady_no_churn_epochs_are_nearly_free() {
    const SETTLE: usize = 16;
    let full = presets::incremental_steady();
    assert!(
        full.horizon_epochs - SETTLE >= 32,
        "the steady window is too short to dominate the horizon"
    );
    let mut settle = full.clone();
    settle.horizon_epochs = SETTLE;
    let warm_full = run_scenario(&full).expect("steady incremental run");
    let warm_settle = run_scenario(&settle).expect("settle incremental run");
    let cold_full = run_scenario(&scratch_twin(&full)).expect("steady scratch run");
    let cold_settle = run_scenario(&scratch_twin(&settle)).expect("settle scratch run");
    assert_eq!(
        warm_full.decision_fingerprint(),
        cold_full.decision_fingerprint(),
        "steady incremental decisions diverged from the from-scratch driver"
    );
    for i in 0..SETTLE {
        assert_eq!(
            warm_full.revenue_trajectory[i].to_bits(),
            warm_settle.revenue_trajectory[i].to_bits(),
            "horizon prefix instability at epoch {i}: the settle subtraction is unsound"
        );
    }
    assert!(warm_full.accepted > 0, "the opening flash admitted nothing");
    assert_eq!(warm_full.incremental_cold_epochs, 0);
    assert_eq!(
        warm_full.carry_cold_restarts, 0,
        "steady epochs must certify unique optima, not restart cold"
    );
    let steady_warm = warm_full.lp_pivots - warm_settle.lp_pivots;
    let steady_cold = cold_full.lp_pivots - cold_settle.lp_pivots;
    assert!(
        steady_cold as f64 >= 3.0 * steady_warm.max(1) as f64,
        "steady-window pivot reduction below 3x: warm {steady_warm} vs cold {steady_cold}"
    );
    // Exact path counter: seeded LP fault injection deliberately drops
    // factorizations mid-chain (changing the path, never the answer — the
    // decision-fingerprint assert above still holds), so only check it on
    // uninjected runs.
    if !ovnes_lp::fault_injection_active() {
        assert_eq!(
            warm_full.lp_refactorizations - warm_settle.lp_refactorizations,
            0,
            "a no-churn steady epoch refactorized: the identity remap lost the factorization"
        );
    }
}

/// The degenerate-optimum fix, observed end-to-end: on the homogeneous
/// `incremental-degenerate-n1` preset the engineered tight-but-slack CU
/// row makes strict complementarity fail on every steady epoch, so before
/// the perturbation certificate the carry cold-restarted **every** one of
/// them. Now the perturbed certificate must let the carried basis stand on
/// the steady window (perturbed-only certifications > 0), churn epochs
/// must attempt the first-shed carry, cold restarts must be the exception
/// rather than the rule — and the decision trail must stay bit-identical
/// to the from-scratch driver at 1, 2, and 4 workers.
#[test]
fn incremental_degenerate_certifies_perturbed_and_matches_scratch() {
    let base = presets::incremental_degenerate();
    let mut warm1 = None;
    for threads in [1usize, 2, 4] {
        let mut spec = base.clone();
        spec.threads = threads;
        let warm = run_scenario(&spec).expect("degenerate incremental run");
        let cold = run_scenario(&scratch_twin(&spec)).expect("degenerate scratch run");
        assert_eq!(
            warm.decision_fingerprint(),
            cold.decision_fingerprint(),
            "degenerate incremental decisions diverged from scratch at {threads} workers"
        );
        if let Some(first) = &warm1 {
            let first: &ovnes_scenario::ScenarioReport = first;
            assert_eq!(
                first.fingerprint(),
                warm.fingerprint(),
                "degenerate incremental trajectory diverged at {threads} workers"
            );
        } else {
            warm1 = Some(warm);
        }
    }
    let warm = warm1.expect("serial run recorded");
    assert!(warm.accepted > 0, "the homogeneous burst admitted nothing");
    assert!(warm.infra_events > 0, "the scripted CU shrink never fired");
    assert_eq!(
        warm.incremental_cold_epochs, 0,
        "a clean run fell back to cold epochs"
    );
    assert!(
        warm.carry_certified_perturbed > 0,
        "no steady epoch certified through the perturbation certificate \
         (the degenerate pathology is back to always-cold)"
    );
    assert!(
        warm.churn_carry_attempts > 0,
        "no churn epoch attempted the first-shed carry"
    );
    // The fix's headline: before the perturbation certificate every seeded
    // steady epoch restarted cold; now certification is the common case
    // and restarts the exception (genuine alternative-optima epochs).
    assert!(
        warm.carry_cold_restarts < warm.carry_certified,
        "cold restarts ({}) not reduced below certifications ({})",
        warm.carry_cold_restarts,
        warm.carry_certified
    );
}

fn tiny_model() -> NetworkModel {
    NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.025,
            seed: 42,
            k_paths: 3,
        },
    )
}

fn tenants_on(model: &NetworkModel, specs: &[(u32, SliceClass, f64, f64)]) -> Vec<TenantInput> {
    let n_bs = model.base_stations.len();
    specs
        .iter()
        .map(|&(id, class, alpha, sigma)| {
            let t = SliceTemplate::for_class(class);
            TenantInput {
                tenant: id,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward,
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: vec![alpha * t.sla_mbps; n_bs],
                sigma,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect()
}

/// Solver-layer contract for the Benders incremental hooks: across an
/// epoch chain with churn (a departure and an arrival between epochs),
/// `solve_carried` with a carried basis, a recycled-cut pool, and the
/// previous admission as incumbent must reach the **same objective** as a
/// plain from-scratch `benders::solve` of each epoch. (Tie-break freedom
/// means the admission sets may legitimately differ; the optimum may not.)
#[test]
fn benders_carried_chain_matches_scratch_objectives() {
    let model = tiny_model();
    let epochs: Vec<Vec<(u32, SliceClass, f64, f64)>> = vec![
        vec![
            (0, SliceClass::Embb, 0.3, 0.2),
            (1, SliceClass::Urllc, 0.4, 0.3),
            (2, SliceClass::Mmtc, 0.2, 0.05),
        ],
        // Same tenant set: the no-churn epoch.
        vec![
            (0, SliceClass::Embb, 0.3, 0.2),
            (1, SliceClass::Urllc, 0.4, 0.3),
            (2, SliceClass::Mmtc, 0.2, 0.05),
        ],
        // Tenant 1 departs, tenant 3 arrives.
        vec![
            (0, SliceClass::Embb, 0.3, 0.2),
            (2, SliceClass::Mmtc, 0.2, 0.05),
            (3, SliceClass::Embb, 0.25, 0.15),
        ],
    ];

    let opts = benders::BendersOptions::default();
    let mut carry = LpCarry::default();
    let mut cuts: Vec<RecycledCut> = Vec::new();
    let mut prev: Option<Vec<Option<usize>>> = None;
    for (k, specs) in epochs.iter().enumerate() {
        let inst = AcrrInstance::build(
            &model,
            tenants_on(&model, specs),
            PathPolicy::Spread,
            true,
            None,
        );
        let scratch =
            benders::solve(&inst, &opts).unwrap_or_else(|e| panic!("epoch {k} scratch: {e}"));
        let warm = benders::solve_carried(
            &inst,
            &opts,
            Some(&mut carry),
            Some(&mut cuts),
            prev.as_deref(),
        )
        .unwrap_or_else(|e| panic!("epoch {k} carried: {e}"));
        assert!(
            (warm.objective - scratch.objective).abs() < 1e-6,
            "epoch {k}: carried objective {} vs scratch {}",
            warm.objective,
            scratch.objective
        );
        if k > 0 {
            assert!(
                warm.stats.recycled_cuts > 0,
                "epoch {k}: the carried master recycled no cuts"
            );
        }
        prev = Some(warm.assigned_cu.clone());
    }
    assert!(!cuts.is_empty(), "the chain never pooled a cut");
}

/// The persistent solver and the from-scratch ladder share one dispatch: a
/// **fresh** `EpochSolver` (nothing carried) must reproduce plain
/// `solve_controlled` bit for bit — decision, degradation and LP telemetry —
/// for every `SolverKind`. For the exact `OneShot` solver the chain goes one
/// no-churn epoch further: the incumbent-seeded MILP must still agree
/// bit-for-bit (the optimum is unique-vertex here, and the seeded cutoff
/// must never prune it away).
#[test]
fn epoch_solver_oneshot_matches_scratch() {
    use ovnes::solver::epoch::EpochSolver;
    use ovnes::solver::{solve_controlled, SolveControls};

    let model = tiny_model();
    let specs = vec![
        (0, SliceClass::Embb, 0.3, 0.2),
        (1, SliceClass::Urllc, 0.4, 0.3),
    ];
    let bits = |r: &[Vec<f64>]| -> Vec<u64> { r.iter().flatten().map(|z| z.to_bits()).collect() };
    for kind in [
        SolverKind::Benders,
        SolverKind::Kac,
        SolverKind::OneShot,
        SolverKind::NoOverbooking,
    ] {
        let controls = SolveControls {
            kind,
            ..SolveControls::default()
        };
        let epochs = if kind == SolverKind::OneShot { 2 } else { 1 };
        let mut es = EpochSolver::new();
        for epoch in 0..epochs {
            let inst = AcrrInstance::build(
                &model,
                tenants_on(&model, &specs),
                PathPolicy::Spread,
                kind != SolverKind::NoOverbooking,
                None,
            );
            let scratch = solve_controlled(&inst, &controls);
            let (warm, report) = es.solve_epoch(&inst, &controls, &[]);
            assert!(
                !report.cold_fallback,
                "{kind:?} epoch {epoch} fell back cold"
            );
            assert_eq!(
                scratch.degradation, warm.degradation,
                "{kind:?} epoch {epoch}"
            );
            let (s, w) = (
                scratch.allocation.expect("scratch allocation"),
                warm.allocation.expect("warm allocation"),
            );
            assert_eq!(
                s.assigned_cu, w.assigned_cu,
                "{kind:?} epoch {epoch}: admissions differ"
            );
            assert_eq!(
                s.objective.to_bits(),
                w.objective.to_bits(),
                "{kind:?} epoch {epoch}: objective bits differ"
            );
            assert_eq!(
                bits(&s.reservations),
                bits(&w.reservations),
                "{kind:?} epoch {epoch}: reservation bits differ"
            );
            if epoch == 0 {
                assert_eq!(
                    s.stats.lp, w.stats.lp,
                    "{kind:?}: fresh-solver LP telemetry"
                );
            }
        }
    }
}
