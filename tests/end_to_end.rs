//! End-to-end integration: generated operator topology → orchestrator →
//! revenue, overbooking vs baseline (the headline claim of the paper).

use ovnes::prelude::*;
use ovnes_scenario::experiment::{homogeneous, run_on, Scenario, SigmaLevel};
use ovnes_topology::stats::{path_capacity_cdf, path_delay_cdf, quantile};

fn small_topology() -> GeneratorConfig {
    GeneratorConfig {
        scale: 0.05,
        seed: 18,
        k_paths: 4,
    }
}

#[test]
fn overbooking_beats_baseline_on_embb() {
    let topo = small_topology();
    let tenants = homogeneous(SliceClass::Embb, 8, 0.2, SigmaLevel::Quarter, 1.0);

    let mut ours = Scenario::new(tenants.clone());
    ours.solver = SolverKind::Kac;
    ours.max_epochs = 20;
    ours.min_epochs = 10;

    let mut base = ours.clone();
    base.overbooking = false;

    let model = NetworkModel::generate(Operator::Romanian, &topo);
    let ours = run_on(&ours, model.clone()).unwrap();
    let base = run_on(&base, model).unwrap();

    assert!(
        ours.mean_net_revenue > base.mean_net_revenue,
        "overbooking ({:.2}) must beat no-overbooking ({:.2}) at α = 0.2",
        ours.mean_net_revenue,
        base.mean_net_revenue
    );
    // The paper's headline: gains with negligible SLA footprint.
    assert!(
        ours.violation_rate < 0.05,
        "violation rate {}",
        ours.violation_rate
    );
    assert_eq!(base.violation_rate, 0.0);
}

#[test]
fn mmtc_gains_are_compute_driven() {
    // mMTC is deterministic (σ = 0): overbooking should admit at least as
    // many tenants as full-SLA reservations on the compute-limited edge.
    let topo = small_topology();
    let tenants = homogeneous(SliceClass::Mmtc, 8, 0.2, SigmaLevel::Zero, 1.0);

    let mut ours = Scenario::new(tenants);
    ours.solver = SolverKind::Kac;
    ours.max_epochs = 16;
    ours.min_epochs = 10;
    let mut base = ours.clone();
    base.overbooking = false;

    let model = NetworkModel::generate(Operator::Romanian, &topo);
    let ours = run_on(&ours, model.clone()).unwrap();
    let base = run_on(&base, model).unwrap();
    assert!(ours.mean_admitted >= base.mean_admitted);
    assert!(ours.mean_net_revenue >= base.mean_net_revenue);
    // Deterministic load ⇒ overbooking carries essentially no risk.
    assert!(ours.violation_rate < 0.01);
}

#[test]
fn fig4_cdfs_have_paper_shape() {
    let cfg = small_topology();
    let n1 = NetworkModel::generate(Operator::Romanian, &cfg);
    let n2 = NetworkModel::generate(Operator::Swiss, &cfg);
    let n3 = NetworkModel::generate(Operator::Italian, &cfg);

    // Path redundancy: N1 ≫ N3 (paper: 6.6 vs 1.6 mean paths).
    assert!(n1.mean_paths_to_edge() > n3.mean_paths_to_edge());

    // Capacity: Swiss lowest (wireless), Italian highest (fiber).
    let med = |m: &NetworkModel| quantile(&path_capacity_cdf(m), 0.5);
    assert!(med(&n2) < med(&n1));
    assert!(med(&n1) < med(&n3));

    // Delay spread: Italian widest (20 km metro).
    let p95 = |m: &NetworkModel| quantile(&path_delay_cdf(m), 0.95);
    assert!(p95(&n3) > p95(&n1));
    assert!(p95(&n3) > p95(&n2));
}

#[test]
fn higher_variability_reduces_gain() {
    // Fig. 5's third observation: higher σ ⇒ more conservative overbooking
    // ⇒ lower revenue gain (allowing a small noise margin at this scale).
    let topo = small_topology();
    let model = NetworkModel::generate(Operator::Romanian, &topo);

    let run_sigma = |sigma: SigmaLevel| {
        let mut s = Scenario::new(homogeneous(SliceClass::Embb, 8, 0.3, sigma, 16.0));
        s.solver = SolverKind::Kac;
        s.max_epochs = 18;
        s.min_epochs = 12;
        s.target_stderr = 0.001; // force full horizon for comparability
        run_on(&s, model.clone()).unwrap()
    };
    let low = run_sigma(SigmaLevel::Zero);
    let high = run_sigma(SigmaLevel::Half);
    assert!(
        low.mean_net_revenue >= high.mean_net_revenue - 0.25,
        "σ=0 revenue {:.2} should not trail σ=λ̄/2 revenue {:.2}",
        low.mean_net_revenue,
        high.mean_net_revenue
    );
}
