//! Replays the paper's §5 proof-of-concept day (Fig. 8): 9 slice requests
//! arriving every 2 hours on the 2-BS / edge+core testbed, comparing
//! overbooking against the no-overbooking policy hour by hour.
//!
//! Run with: `cargo run --release --example testbed_day`

use ovnes::prelude::*;
use ovnes_scenario::experiment::{epoch_to_time, run_testbed, testbed_requests};

fn class_of(tenant: u32) -> &'static str {
    match tenant {
        0..=2 => "uRLLC",
        3..=5 => "mMTC",
        _ => "eMBB",
    }
}

fn main() {
    let requests = testbed_requests();
    println!("Testbed (Table 2): 2×20 MHz BS, 1 Gb/s switch, edge 16 cores, core 64 cores");
    println!("9 requests, one every 2 h: 3×uRLLC, 3×mMTC, 3×eMBB; λ̄ = Λ/2, σ = 0.1·λ̄\n");

    let ours = run_testbed(SolverKind::Benders, true, 11).expect("overbooking run");
    let base = run_testbed(SolverKind::Benders, false, 11).expect("baseline run");

    println!(
        "{:<6} {:<10} {:>12} {:>12} {:>16} {:>16}",
        "time", "arrival", "ours: adm", "base: adm", "ours: revenue", "base: revenue"
    );
    let mut cum_ours = 0.0;
    let mut cum_base = 0.0;
    for (o, b) in ours.iter().zip(&base) {
        cum_ours += o.net_revenue;
        cum_base += b.net_revenue;
        let arrival = requests
            .iter()
            .find(|r| r.arrival_epoch == o.epoch)
            .map(|r| format!("{}{}", class_of(r.tenant), r.tenant % 3 + 1))
            .unwrap_or_default();
        println!(
            "{:<6} {:<10} {:>12} {:>12} {:>16.2} {:>16.2}",
            epoch_to_time(o.epoch),
            arrival,
            o.admitted.len(),
            b.admitted.len(),
            o.net_revenue,
            b.net_revenue,
        );
    }
    println!(
        "\nCumulative revenue: ours {cum_ours:.1} vs baseline {cum_base:.1} ({:+.0}%)",
        (cum_ours - cum_base) / cum_base.max(1e-9) * 100.0
    );

    let last = ours.last().unwrap();
    println!("\nFinal-hour utilisation (our approach):");
    for (b, (r, l)) in last
        .bs_reserved_mhz
        .iter()
        .zip(&last.bs_load_mhz)
        .enumerate()
    {
        println!(
            "  BS {b}: reserved {:.1}/20 MHz ({:.0} PRBs), load {:.1} MHz",
            r,
            r * 5.0,
            l
        );
    }
    for (c, (r, l)) in last
        .cu_reserved_cores
        .iter()
        .zip(&last.cu_load_cores)
        .enumerate()
    {
        let name = if c == 0 { "Edge" } else { "Core" };
        println!("  {name} CU: reserved {r:.1} cores, load {l:.1} cores");
    }
}
