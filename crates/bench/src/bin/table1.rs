//! Table 1 — the end-to-end network slice templates, plus a footer showing
//! the solver-engine pivot counters on a reference AC-RR instance (so a
//! regenerated table documents which engine produced the paper numbers).

use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes_scenario::experiment::engine_check;

fn main() {
    println!("Table 1 — End-to-end network slice templates\n");
    let header = format!(
        "{:<10} {:>6} {:>8} {:>10} {:>12} {:>16}",
        "Slice type", "R", "∆ (ms)", "Λ (Mb/s)", "σ (Mb/s)", "s = {a, b} (CPUs)"
    );
    println!("{header}");
    ovnes_bench::rule(&header);
    for class in SliceClass::all() {
        let t = SliceTemplate::for_class(class);
        let sigma = if class == SliceClass::Mmtc {
            "0"
        } else {
            "variable"
        };
        println!(
            "{:<10} {:>6.1} {:>8.0} {:>10.0} {:>12} {:>16}",
            t.class.label(),
            t.reward,
            t.delay_budget_us / 1000.0,
            t.sla_mbps,
            sigma,
            format!("{{{}, {}}}", t.service.base_cores, t.service.cores_per_mbps),
        );
    }
    println!("\nRewards follow the paper: eMBB R = 1, mMTC R = 1 + b = 3,");
    println!("uRLLC R = 2 + b = 2.2; penalties are K = m·R per scenario.");

    // Footer: solver-engine diagnostics on a reference instance (one tenant
    // per template class on the small Romanian metro topology).
    match engine_check() {
        Ok(alloc) => {
            println!("\nSolver engine (Benders, one tenant per template class above):");
            println!(
                "  iterations {}, lp solves {}, {}",
                alloc.stats.iterations,
                alloc.stats.lp_solves,
                alloc.stats.lp_summary()
            );
        }
        Err(e) => println!("\nSolver engine check failed: {e}"),
    }
}
