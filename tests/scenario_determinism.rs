//! Long-horizon runs of the scenario engine: a multi-day horizon runs to
//! the end, and the default named sweep must aggregate bit-identically at
//! 1/2/4 sweep workers.

use ovnes_scenario::driver::{run_scenario, ScenarioSpec};
use ovnes_scenario::presets;
use ovnes_scenario::sweep::run_sweep;
use ovnes_scenario::workload::ArrivalProcess;
use ovnes_topology::operators::Operator;

/// A multi-day scenario small enough for the debug-mode test budget but
/// long enough to cycle slices through arrival, expiry, and abandonment.
fn horizon_spec() -> ScenarioSpec {
    ScenarioSpec::builder("horizon-det")
        .operator(Operator::Romanian, 0.02)
        .days(2)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.0 };
            w.duration.mean_epochs = 8.0;
        })
        .reapply_epochs(4)
        .seed(7)
        .build()
}

/// A two-day horizon runs every epoch and admits tenants.
#[test]
fn two_day_horizon_runs_every_epoch_and_admits() {
    let report = run_scenario(&horizon_spec()).expect("horizon run");
    assert_eq!(report.revenue_trajectory.len(), 48);
    assert!(report.accepted > 0, "horizon scenario admitted nothing");
}

/// The full default sweep (≥ 6 named scenarios incl. the overbooking
/// ablation pair on N1) aggregates bit-identically at 1/2/4 sweep
/// workers — report, rendering, and fingerprint.
#[test]
fn default_sweep_bit_identical_at_1_2_4_workers() {
    let specs = presets::default_sweep();
    assert!(specs.len() >= 6, "sweep must cover at least 6 scenarios");
    assert!(
        specs.iter().any(|s| s.name == "overbook-n1-on")
            && specs.iter().any(|s| s.name == "overbook-n1-off"),
        "sweep must include the N1 overbooking ablation pair"
    );
    let r1 = run_sweep(&specs, 1).expect("1-worker sweep");
    let r2 = run_sweep(&specs, 2).expect("2-worker sweep");
    let r4 = run_sweep(&specs, 4).expect("4-worker sweep");
    assert_eq!(r1.fingerprint(), r2.fingerprint(), "1 vs 2 workers");
    assert_eq!(r1.fingerprint(), r4.fingerprint(), "1 vs 4 workers");
    assert_eq!(r1.render(), r4.render(), "rendered reports differ");
    assert!(
        r1.total_arrivals > 0 && r1.total_accepted > 0 && r1.total_lp_solves > 0,
        "the sweep generated, admitted or solved nothing"
    );
    assert!((0.0..=1.0).contains(&r1.acceptance_ratio));
    assert!((0.0..=1.0).contains(&r1.violation_rate));

    // The ablation pair carries the paper's signal: overbooking strictly
    // increases net revenue on the identical workload.
    let on = &r1.scenarios[0];
    let off = &r1.scenarios[1];
    assert_eq!(on.name, "overbook-n1-on");
    assert_eq!(off.name, "overbook-n1-off");
    assert!(
        on.net_revenue > off.net_revenue,
        "overbooking ({}) must out-earn the baseline ({})",
        on.net_revenue,
        off.net_revenue
    );
    assert!(
        on.accepted >= off.accepted,
        "overbooking should admit at least as many tenants"
    );
}
