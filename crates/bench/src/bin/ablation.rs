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

use ovnes::prelude::*;
use ovnes_bench::arg;
use ovnes_scenario::experiment::{
    campaign_topology, headroom_cell, learning_cell, solver_cell, warm_start_ablation,
    CAMPAIGN_SCALE, HEADROOMS, LEARNING_VARIANTS, SEED, SOLVER_CELLS,
};

fn main() {
    let scale = arg("--scale", CAMPAIGN_SCALE);
    let seed = arg("--seed", SEED);
    let model = NetworkModel::generate(Operator::Romanian, &campaign_topology(scale, seed));

    // ---- Ablation 1: learning on/off --------------------------------------
    println!("Ablation 1 — demand learning (Holt-Winters) vs prior-only\n");
    let header = format!(
        "{:<24} {:>12} {:>10} {:>12}",
        "variant", "revenue", "admitted", "viol.rate"
    );
    println!("{header}");
    ovnes_bench::rule(&header);
    for (label, history) in LEARNING_VARIANTS {
        let cell = learning_cell(&model, history, seed).expect("cell");
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
    for headroom in HEADROOMS {
        let cell = headroom_cell(&model, headroom, seed).expect("cell");
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
    for (class, alpha) in SOLVER_CELLS {
        let [benders, kac] = [SolverKind::Benders, SolverKind::Kac].map(|solver| {
            solver_cell(&model, (class, alpha), solver)
                .expect("cell")
                .mean_net_revenue
        });
        println!(
            "{:<8} {:>6.1} {:>14.2} {:>14.2} {:>9.1}%",
            class.label(),
            alpha,
            benders,
            kac,
            (benders - kac) / benders.abs().max(1e-9) * 100.0,
        );
    }
    println!("\nExpected: KAC ≈ Benders on radio-bound eMBB (the paper's observation);");
    println!("small gaps may appear on compute-bound classes under congestion.");

    // ---- Ablation 4: warm-start engine ------------------------------------
    println!("\nAblation 4 — revised-simplex warm starts on the Benders hot path\n");
    // The columns come straight from `LpStats::named_counters` — the shared
    // name list every renderer in the workspace uses. Nothing is timed here:
    // wall-clock numbers come from `benchmark/` only.
    let allocs = warm_start_ablation(&model).expect("benders");
    let row = |mode: &str, alloc: &Allocation| {
        let counters = alloc.stats.lp.named_counters().into_iter();
        let cells = counters.map(|(name, value)| (name, value.to_string()));
        (mode.to_string(), cells.collect())
    };
    let rows = [row("warm", &allocs[0]), row("cold", &allocs[1])];
    print!("{}", ovnes_obs::report::counter_table("mode", &rows));
    println!(
        "\nidentical objectives: {} ({}  vs  {})",
        (allocs[0].objective - allocs[1].objective).abs() < 1e-6,
        allocs[0].objective,
        allocs[1].objective,
    );
    println!("full counters (warm): {}", allocs[0].stats.lp_summary());
}
