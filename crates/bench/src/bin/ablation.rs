//! Ablations of four design choices:
//!
//! 1. **Forecasting method** — Holt-Winters vs the operator prior only
//!    (no learning): how much of the gain comes from demand learning?
//! 2. **Forecast headroom** — violation rate vs revenue as the reservation
//!    safety margin shrinks.
//! 3. **Solver** — Benders (optimal) vs KAC (heuristic) on the same cells.
//! 4. **Warm-start engine** — the pivot, refactorization and reuse counters
//!    of the revised simplex with and without basis reuse on the Benders hot
//!    path.

use ovnes::experiment::{homogeneous, run_on, Scenario, SigmaLevel};
use ovnes::prelude::*;
use ovnes_bench::{embb_cell, scale_arg, seed_arg};

fn main() {
    let scale = scale_arg(0.04);
    let seed = seed_arg();
    let topo = GeneratorConfig {
        scale,
        seed,
        k_paths: 3,
    };
    let model = NetworkModel::generate(Operator::Romanian, &topo);

    // ---- Ablation 1: learning on/off --------------------------------------
    println!("Ablation 1 — demand learning (Holt-Winters) vs prior-only\n");
    let header = format!(
        "{:<24} {:>12} {:>10} {:>12}",
        "variant", "revenue", "admitted", "viol.rate"
    );
    println!("{header}");
    ovnes_bench::rule(&header);
    for (label, history) in [
        ("with learning", 3usize),
        ("prior only (no learning)", usize::MAX),
    ] {
        let config = OrchestratorConfig {
            solver: SolverKind::Kac,
            prior_history: history, // usize::MAX ⇒ never trust the monitor
            seed,
            ..Default::default()
        };
        let cell = embb_cell(&model, config, 0.25, 1.0, 16, 0).expect("cell");
        println!(
            "{:<24} {:>12.1} {:>10} {:>11.4}%",
            label,
            cell.revenue,
            cell.admitted,
            100.0 * cell.violation_rate()
        );
    }

    // ---- Ablation 2: headroom sweep ----------------------------------------
    println!("\nAblation 2 — forecast headroom vs violation footprint\n");
    let header = format!(
        "{:<10} {:>12} {:>10} {:>12} {:>12}",
        "headroom", "revenue", "admitted", "viol.rate", "worst drop"
    );
    println!("{header}");
    ovnes_bench::rule(&header);
    for headroom in [0.0, 0.5, 1.5, 3.0] {
        let config = OrchestratorConfig {
            solver: SolverKind::Kac,
            forecast_headroom: headroom,
            seed,
            ..Default::default()
        };
        let cell = embb_cell(&model, config, 0.5, 1.0, 16, 0).expect("cell");
        println!(
            "{:<10.1} {:>12.1} {:>10} {:>11.4}% {:>12.2}",
            headroom,
            cell.revenue,
            cell.admitted,
            100.0 * cell.violation_rate(),
            cell.worst_drop
        );
    }

    // ---- Ablation 3: Benders vs KAC ---------------------------------------
    println!("\nAblation 3 — optimal Benders vs KAC heuristic (same cells)\n");
    let header = format!(
        "{:<8} {:>6} {:>14} {:>14} {:>10}",
        "class", "α", "Benders rev", "KAC rev", "gap"
    );
    println!("{header}");
    ovnes_bench::rule(&header);
    for class in [SliceClass::Embb, SliceClass::Urllc] {
        for alpha in [0.2, 0.5] {
            let mut results = Vec::new();
            for solver in [SolverKind::Benders, SolverKind::Kac] {
                let mut scn = Scenario::new(
                    Operator::Romanian,
                    homogeneous(class, 8, alpha, SigmaLevel::Quarter, 1.0),
                );
                scn.topology = topo.clone();
                scn.solver = solver;
                scn.max_epochs = 20;
                scn.min_epochs = 18;
                scn.target_stderr = 0.001;
                results.push(run_on(&scn, model.clone()).expect("cell").mean_net_revenue);
            }
            println!(
                "{:<8} {:>6.1} {:>14.2} {:>14.2} {:>9.1}%",
                class.label(),
                alpha,
                results[0],
                results[1],
                (results[0] - results[1]) / results[0].abs().max(1e-9) * 100.0,
            );
        }
    }
    println!("\nExpected: KAC ≈ Benders on radio-bound eMBB (the paper's observation);");
    println!("small gaps may appear on compute-bound classes under congestion.");

    // ---- Ablation 4: warm-start engine ------------------------------------
    println!("\nAblation 4 — revised-simplex warm starts on the Benders hot path\n");
    let n_bs = model.base_stations.len();
    let tenants: Vec<ovnes::problem::TenantInput> = (0..8)
        .map(|i| {
            let t = SliceTemplate::embb();
            ovnes::problem::TenantInput {
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
    let inst = ovnes::problem::AcrrInstance::build(
        &model,
        tenants,
        ovnes::problem::PathPolicy::Spread,
        true,
        None,
    );
    // The columns come straight from `LpStats::named_counters` — the shared
    // name list every renderer in the workspace uses. Nothing is timed here:
    // wall-clock numbers come from `benchmark/` only.
    let mut allocs = Vec::new();
    let mut rows = Vec::new();
    for (mode, warm) in [("warm", true), ("cold", false)] {
        let opts = ovnes::solver::benders::BendersOptions {
            warm_start: warm,
            ..Default::default()
        };
        let alloc = ovnes::solver::benders::solve(&inst, &opts).expect("benders");
        let cells: Vec<(&'static str, String)> = alloc
            .stats
            .lp
            .named_counters()
            .into_iter()
            .map(|(name, value)| (name, value.to_string()))
            .collect();
        rows.push((mode.to_string(), cells));
        allocs.push(alloc);
    }
    print!("{}", ovnes_obs::report::counter_table("mode", &rows));
    println!(
        "\nidentical objectives: {} ({}  vs  {})",
        (allocs[0].objective - allocs[1].objective).abs() < 1e-6,
        allocs[0].objective,
        allocs[1].objective,
    );
    println!("full counters (warm): {}", allocs[0].stats.lp_summary());
}
