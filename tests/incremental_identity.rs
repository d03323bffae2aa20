//! The bit-identity contract of the cross-epoch carry: every KAC horizon
//! resumes its vetting slave from the previous epoch's warm chain
//! ([`solve_epoch`]), and must make **exactly** the admission decisions of
//! the from-scratch specification, [`solve_controlled`] every epoch — also
//! under chaos — while paying measurably less solve
//! work. Decision identity is stated on
//! [`ScenarioReport::decision_fingerprint`], which hashes the full
//! decision trail (admissions, revenue trajectory, violations, degraded /
//! deferred epochs) but not the solver-path telemetry the carry
//! legitimately changes (pivots, refactorizations).
//!
//! A horizon no longer has a from-scratch mode, so the from-scratch runs
//! of the four carry presets are pinned constants below, recorded when a
//! switch could still turn the carry off. At solve level the refinement
//! check compares [`solve_epoch`] with [`solve_controlled`] directly, at
//! every epoch of 4,096 chains.

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::{solve_controlled, solve_epoch, ControlledOutcome, SolveControls, SolverKind};
use ovnes_lp::WarmChain;
use ovnes_scenario::driver::{run_scenario, ScenarioSpec};
use ovnes_scenario::{presets, ScenarioReport};
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

/// The from-scratch run of a carry preset, recorded with the carry
/// switched off: its decision fingerprint (which the carried run matched
/// bit for bit) and its LP pivots and refactorizations.
struct Scratch {
    decision_fingerprint: u64,
    lp_pivots: usize,
    lp_refactorizations: usize,
}

const INCREMENTAL_N1: Scratch = Scratch {
    decision_fingerprint: 0x2464_2319_2c0f_6b54,
    lp_pivots: 800,
    lp_refactorizations: 53,
};
const CHAOS_INCREMENTAL: Scratch = Scratch {
    decision_fingerprint: 0xf38f_37b4_d629_4a40,
    lp_pivots: 359,
    lp_refactorizations: 116,
};
const INCREMENTAL_STEADY: Scratch = Scratch {
    decision_fingerprint: 0xe29b_be1c_ddf3_d6e3,
    lp_pivots: 1_837,
    lp_refactorizations: 68,
};
/// LP pivots and refactorizations of [`INCREMENTAL_STEADY`]'s first
/// [`SETTLE`] epochs alone, from scratch.
const INCREMENTAL_STEADY_SETTLE: (usize, usize) = (790, 20);
const INCREMENTAL_DEGENERATE: Scratch = Scratch {
    decision_fingerprint: 0x8ec9_86ce_45a5_b40b,
    lp_pivots: 889,
    lp_refactorizations: 64,
};

/// Runs `spec`, panicking with its name on an error.
fn run(spec: &ScenarioSpec) -> ScenarioReport {
    run_scenario(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

/// The decision pin: the carried horizon decides as the from-scratch run
/// did, bit for bit.
fn assert_scratch_decisions(report: &ScenarioReport, scratch: &Scratch) {
    assert_eq!(
        report.decision_fingerprint(),
        scratch.decision_fingerprint,
        "{}: carried decisions diverged from the from-scratch run",
        report.name
    );
}

/// Clean-path identity: the incremental-n1 preset (slow-churn KAC) must
/// reproduce the from-scratch decision trail bit-for-bit while paying
/// strictly fewer simplex pivots and refactorizations over the horizon —
/// the O(churn) claim, observed end-to-end.
#[test]
fn incremental_n1_decisions_match_scratch_twin() {
    let warm = run(&presets::incremental_n1());
    assert_scratch_decisions(&warm, &INCREMENTAL_N1);
    assert_eq!(
        warm.carry_fallback_epochs, 0,
        "clean run must never fall back cold"
    );
    assert!(warm.accepted > 0, "horizon admitted nothing");
    assert!(
        warm.carry_certified > 0,
        "no epoch resumed the carried chain"
    );
    assert!(
        warm.lp_pivots < INCREMENTAL_N1.lp_pivots,
        "carried ({}) must pay fewer pivots than scratch ({})",
        warm.lp_pivots,
        INCREMENTAL_N1.lp_pivots
    );
    assert!(
        warm.lp_refactorizations < INCREMENTAL_N1.lp_refactorizations,
        "carried ({}) must refactorize less than scratch ({})",
        warm.lp_refactorizations,
        INCREMENTAL_N1.lp_refactorizations
    );
}

/// Chaos-path identity: background BS/link/CU faults plus seeded LP fault
/// injection (the `chaos-incremental-n1` preset) poison carried bases —
/// epochs must degrade to cold solves, never to errors, and the decision
/// trail must still match the from-scratch run.
#[test]
fn chaos_incremental_decisions_match_scratch_twin() {
    let warm = run(&presets::chaos_incremental());
    assert_scratch_decisions(&warm, &CHAOS_INCREMENTAL);
    assert_eq!(warm.solver_errors, 0, "faults must degrade, not error");
    assert!(warm.infra_events > 0, "chaos preset applied no faults");
    assert!(
        warm.lp_pivots < CHAOS_INCREMENTAL.lp_pivots,
        "carried ({}) must pay fewer pivots than scratch ({})",
        warm.lp_pivots,
        CHAOS_INCREMENTAL.lp_pivots
    );
}

/// Two KAC carry presets run to the end, and on a budgeted Benders chaos
/// horizon the chain stays out of the way: nothing is carried.
#[test]
fn incremental_runs_bit_identical_across_bnb_threads() {
    run(&presets::incremental_n1());
    run(&presets::incremental_steady());
    let benders = run(&presets::chaos_outage());
    assert_eq!(
        (benders.carry_certified, benders.carry_cold_restarts),
        (0, 0),
        "a Benders horizon touched the KAC carry"
    );
}

/// Run-to-run determinism of the chaos carry preset: running it twice
/// gives the same full fingerprint.
#[test]
fn chaos_incremental_scratch_twin_is_run_to_run_deterministic() {
    let spec = presets::chaos_incremental();
    let a = run_scenario(&spec).expect("first run");
    let b = run_scenario(&spec).expect("second run");
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// Horizon of the settle prefix of `incremental-steady-n1`.
const SETTLE: usize = 16;

/// The O(churn) claim on the steady-state preset: after the opening flash
/// settles, every epoch re-vets the same forced tenant set, and the
/// carried basis must make those epochs nearly free — ≥3× fewer simplex
/// pivots than the from-scratch run and, at the default refactorization
/// interval, **zero** refactorizations over the whole steady window (the
/// carried chain fits ⇒ its held factorization is reused). The steady
/// window is isolated by running a
/// settle-length prefix and subtracting; prefix stability of the horizon
/// is asserted first so the subtraction is sound.
#[test]
fn incremental_steady_no_churn_epochs_are_nearly_free() {
    let full = presets::incremental_steady();
    assert!(
        full.horizon_epochs - SETTLE >= 32,
        "the steady window is too short to dominate the horizon"
    );
    let mut settle = full.clone();
    settle.horizon_epochs = SETTLE;
    let warm_full = run_scenario(&full).expect("steady carried run");
    let warm_settle = run_scenario(&settle).expect("settle carried run");
    assert_scratch_decisions(&warm_full, &INCREMENTAL_STEADY);
    for i in 0..SETTLE {
        assert_eq!(
            warm_full.revenue_trajectory[i].to_bits(),
            warm_settle.revenue_trajectory[i].to_bits(),
            "horizon prefix instability at epoch {i}: the settle subtraction is unsound"
        );
    }
    assert!(warm_full.accepted > 0, "the opening flash admitted nothing");
    assert_eq!(warm_full.carry_fallback_epochs, 0);
    assert_eq!(
        warm_full.carry_cold_restarts, 0,
        "steady epochs must certify unique optima, not restart cold"
    );
    let steady_warm = warm_full.lp_pivots - warm_settle.lp_pivots;
    let steady_refactorizations = warm_full.lp_refactorizations - warm_settle.lp_refactorizations;
    let steady_cold = INCREMENTAL_STEADY.lp_pivots - INCREMENTAL_STEADY_SETTLE.0;
    assert!(
        steady_cold as f64 >= 3.0 * steady_warm.max(1) as f64,
        "steady-window pivot reduction below 3x: warm {steady_warm} vs cold {steady_cold}"
    );
    let steady_cold_refactorizations =
        INCREMENTAL_STEADY.lp_refactorizations - INCREMENTAL_STEADY_SETTLE.1;
    assert!(
        steady_refactorizations < steady_cold_refactorizations,
        "steady window refactorized {steady_refactorizations} times vs cold \
         {steady_cold_refactorizations}"
    );
    assert_eq!(
        steady_refactorizations, 0,
        "a no-churn steady epoch refactorized over {steady_warm} window pivots"
    );
}

/// The degenerate-optimum fix, observed end-to-end: on the homogeneous
/// `incremental-degenerate-n1` preset the engineered tight-but-slack CU
/// row makes strict complementarity fail on every steady epoch, so before
/// the perturbation certificate the carry cold-restarted **every** one of
/// them. Now the perturbed certificate must let the carried basis stand on
/// the steady window (perturbed-only certifications > 0) and resume
/// standing once the mid-horizon churn wave has passed, cold restarts must
/// be the exception rather than the rule — and the decision trail must
/// stay bit-identical to the from-scratch run.
#[test]
fn incremental_degenerate_certifies_perturbed_and_matches_scratch() {
    let warm = run(&presets::incremental_degenerate());
    assert_scratch_decisions(&warm, &INCREMENTAL_DEGENERATE);
    assert!(warm.accepted > 0, "the homogeneous burst admitted nothing");
    assert!(warm.infra_events > 0, "the scripted CU shrink never fired");
    assert_eq!(
        warm.carry_fallback_epochs, 0,
        "a clean run fell back to cold epochs"
    );
    assert!(
        warm.carry_certified_perturbed > 0,
        "no steady epoch certified through the perturbation certificate \
         (the degenerate pathology is back to always-cold)"
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
    assert!(
        warm.lp_pivots < INCREMENTAL_DEGENERATE.lp_pivots
            && warm.lp_refactorizations < INCREMENTAL_DEGENERATE.lp_refactorizations,
        "carried ({} pivots, {} refactorizations) must pay less than scratch ({}, {})",
        warm.lp_pivots,
        warm.lp_refactorizations,
        INCREMENTAL_DEGENERATE.lp_pivots,
        INCREMENTAL_DEGENERATE.lp_refactorizations
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

/// Bitwise equality of two ladder outcomes: rung, admission, objective and
/// reservations.
fn assert_same_decision(scratch: &ControlledOutcome, warm: &ControlledOutcome, tag: &str) {
    let bits = |r: &[Vec<f64>]| -> Vec<u64> { r.iter().flatten().map(|z| z.to_bits()).collect() };
    assert_eq!(scratch.degradation, warm.degradation, "{tag}: ladder rung");
    let (Some(s), Some(w)) = (&scratch.allocation, &warm.allocation) else {
        assert!(
            scratch.allocation.is_none() && warm.allocation.is_none(),
            "{tag}: only one side deferred"
        );
        return;
    };
    assert_eq!(s.assigned_cu, w.assigned_cu, "{tag}: admissions differ");
    assert_eq!(
        s.objective.to_bits(),
        w.objective.to_bits(),
        "{tag}: objective bits differ"
    );
    assert_eq!(
        bits(&s.reservations),
        bits(&w.reservations),
        "{tag}: reservation bits differ"
    );
}

/// Bounded refinement check of the one carried form left: the from-scratch
/// ladder [`solve_controlled`] is the specification, [`solve_epoch`] over
/// one chain carried across the epochs under KAC its refinement, checked on **every** presence pattern of three tenants over
/// four epochs (2¹² chains) instead of on seeded presets. A tenant admitted
/// in the previous epoch returns forced on its pinned CU, anything else
/// (re-)applies as optional, and forecasts drift from epoch to epoch — so
/// the chains cover carried chains that fit the next slave LP and carries
/// that do not (another tenant set, another forecast), empty epochs, epochs
/// that mix forced and optional tenants, and (tenants 0 and 1 are
/// exchangeable: one class, one α) degenerate optima. The three carry
/// totals are pinned: a change to where the carry seeds moves them.
#[test]
fn kac_carry_refines_scratch_on_every_small_churn_pattern() {
    const TENANTS: [(u32, SliceClass, f64, f64); 3] = [
        (0, SliceClass::Embb, 0.3, 0.2),
        (1, SliceClass::Embb, 0.3, 0.2),
        (2, SliceClass::Urllc, 0.4, 0.3),
    ];
    const EPOCHS: usize = 4;
    // Capacities sized so that all three carry outcomes occur. Radio at
    // 12 MHz (90 Mb/s) holds any one eMBB slice plus the uRLLC slice at full
    // SLA, but not both eMBB slices: together they share a binding row at
    // equal cost — genuine alternative optima, which both certificates
    // must refuse (cold restart). Compute at (1 + 1e-9)x the uRLLC slice's
    // full-SLA load keeps its CU row tight but slack-basic, so with it
    // present strict complementarity fails and only the perturbed
    // certificate passes (the `incremental-degenerate-n1` construction).
    // Every certified optimum here rests on window edges, which is where
    // bit-identity is guaranteed: a smaller radio (9 MHz) leaves an
    // *interior* basic reservation, whose last bit follows the pivot path
    // even under the strict certificate — ROADMAP, verification layer (3).
    let mut model = tiny_model();
    for bs in &mut model.base_stations {
        bs.capacity_mhz = 12.0;
    }
    for cu in &mut model.compute_units {
        cu.cores = 25.0 * (1.0 + 1e-9);
    }
    let controls = SolveControls {
        kind: SolverKind::Kac,
        ..SolveControls::default()
    };
    let (mut certified, mut perturbed, mut restarts) = (0usize, 0usize, 0usize);
    for pattern in 0u32..1 << (TENANTS.len() * EPOCHS) {
        let mut carry = WarmChain::new();
        // Global tenant id → CU, for the tenants admitted last epoch.
        let mut admitted: Vec<(u32, usize)> = Vec::new();
        for epoch in 0..EPOCHS {
            let present: Vec<(u32, SliceClass, f64, f64)> = TENANTS
                .iter()
                .enumerate()
                .filter(|(i, _)| pattern >> (epoch * TENANTS.len() + i) & 1 == 1)
                .map(|(_, &(id, class, alpha, sigma))| {
                    (id, class, alpha * (1.0 + 0.05 * epoch as f64), sigma)
                })
                .collect();
            let mut tenants = tenants_on(&model, &present);
            for t in &mut tenants {
                if let Some(&(_, cu)) = admitted.iter().find(|(id, _)| *id == t.tenant) {
                    t.must_accept = true;
                    t.pinned_cu = Some(cu);
                }
            }
            let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, Some(1e4));
            let scratch = solve_controlled(&inst, &controls);
            let warm = solve_epoch(&inst, &controls, &mut carry);
            assert_same_decision(
                &scratch,
                &warm,
                &format!("chain {pattern:#014b} epoch {epoch}"),
            );
            admitted.clear();
            if let Some(a) = &warm.allocation {
                certified += a.stats.carry_certified;
                perturbed += a.stats.carry_certified_perturbed;
                restarts += a.stats.carry_cold_restarts;
                // Every vet is counted, a cold re-vet included.
                assert_eq!(
                    a.stats.lp_solves,
                    a.stats.lp.warm_starts + a.stats.lp.cold_starts,
                    "chain {pattern:#014b} epoch {epoch}"
                );
                // An all-forced epoch vets its one packing once, plus a
                // cold re-vet or the relaxed deficit vet at most.
                if inst.tenants.iter().all(|t| t.must_accept) {
                    assert!(
                        a.stats.lp_solves <= 2,
                        "chain {pattern:#014b} epoch {epoch}: {} vets",
                        a.stats.lp_solves
                    );
                }
                admitted.extend(
                    a.assigned_cu
                        .iter()
                        .enumerate()
                        .filter_map(|(t, cu)| cu.map(|cu| (inst.tenants[t].tenant, cu))),
                );
            }
        }
    }
    // The chains exercise the strict certificate, the perturbed one and the
    // refusal.
    assert_eq!(
        (certified, perturbed, restarts),
        (640, 320, 64),
        "certified, perturbed-only, cold restarts"
    );
}
