//! Fig. 8 — the §5 experimental proof-of-concept day: net revenue (a),
//! radio (b), transport (c) and compute (d) reservation vs load time
//! series for 9 slice requests arriving every 2 hours.

use ovnes::prelude::*;
use ovnes_bench::arg;
use ovnes_scenario::experiment::{
    epoch_to_time, reserved_links, run_testbed, testbed_requests, PRBS_PER_MHZ, SEED,
};
use ovnes_topology::operators::testbed_model;
use std::collections::HashMap;
use std::fmt::Display;

fn main() {
    let seed = arg("--seed", SEED);
    let model = testbed_model();
    println!(
        "Table 2 testbed: {} BSs ({} MHz), edge {} cores, core {} cores, 1 Gb/s links",
        model.base_stations.len(),
        model.base_stations[0].capacity_mhz,
        model.compute_units[0].cores,
        model.compute_units[1].cores,
    );
    println!(
        "Requests: {:?}",
        testbed_requests()
            .iter()
            .map(|r| r.arrival_epoch)
            .collect::<Vec<_>>()
    );

    let ours = run_testbed(SolverKind::Benders, true, seed).expect("overbooking run");
    let base = run_testbed(SolverKind::Benders, false, seed).expect("baseline run");

    println!("\nFig. 8(a) — net revenue over time:");
    let columns = [
        ("ours: adm", 10, 0),
        ("ours: rev", 12, 2),
        ("base: adm", 12, 0),
        ("base: rev", 12, 2),
    ];
    hourly(&ours, &columns, |o| {
        let b = &base[o.epoch as usize];
        let admitted = |o: &EpochOutcome| o.admitted.len() as f64;
        vec![admitted(o), o.net_revenue, admitted(b), b.net_revenue]
    });

    println!("\nFig. 8(b) — radio utilisation (PRBs of 100 per BS), our approach:");
    let columns = [
        ("BS0 resv", 12, 1),
        ("BS0 load", 10, 1),
        ("BS1 resv", 12, 1),
        ("BS1 load", 10, 1),
    ];
    hourly(&ours, &columns, |o| {
        let bs = (0..2).flat_map(|b| [o.bs_reserved_mhz[b], o.bs_load_mhz[b]]);
        bs.map(|mhz| mhz * PRBS_PER_MHZ).collect()
    });

    println!("\nFig. 8(c) — transport utilisation (Mb/s per link), our approach:");
    let links = reserved_links(&ours);
    let columns: Vec<_> = links
        .iter()
        .flat_map(|l| [(format!("L{l} resv"), 9, 1), (format!("L{l} load"), 9, 1)])
        .collect();
    hourly(&ours, &columns, |o| {
        let mbps = |per_link: &HashMap<usize, f64>, l| per_link.get(l).copied().unwrap_or(0.0);
        let link = |l| [mbps(&o.link_reserved_mbps, l), mbps(&o.link_load_mbps, l)];
        links.iter().flat_map(link).collect()
    });

    println!("\nFig. 8(d) — computation utilisation (CPU cores), our approach:");
    let columns = [
        ("edge resv", 11, 1),
        ("edge load", 10, 1),
        ("core resv", 11, 1),
        ("core load", 10, 1),
    ];
    hourly(&ours, &columns, |o| {
        let cu = (0..2).flat_map(|c| [o.cu_reserved_cores[c], o.cu_load_cores[c]]);
        cu.collect()
    });

    let rev_ours: f64 = ours.iter().map(|o| o.net_revenue).sum();
    let rev_base: f64 = base.iter().map(|o| o.net_revenue).sum();
    println!(
        "\nCumulative: ours {rev_ours:.1} vs baseline {rev_base:.1} ({:+.0}%); paper reports",
        (rev_ours - rev_base) / rev_base.max(1e-9) * 100.0
    );
    println!("2x revenue at 10h (uRLLC), +100% at 16h (mMTC), +86% after 22h (eMBB).");
}

/// Prints one hourly block of `day`: the time, then one column per
/// `(name, width, decimals)`, each row's values from `row`.
fn hourly<N: Display>(
    day: &[EpochOutcome],
    columns: &[(N, usize, usize)],
    row: impl Fn(&EpochOutcome) -> Vec<f64>,
) {
    let mut header = format!("{:<6}", "time");
    for (name, width, _) in columns {
        header.push_str(&format!(" {name:>width$}"));
    }
    println!("{header}");
    ovnes_bench::rule(&header);
    for o in day {
        let mut line = format!("{:<6}", epoch_to_time(o.epoch));
        for ((_, width, decimals), value) in columns.iter().zip(row(o)) {
            line.push_str(&format!(" {value:>width$.decimals$}"));
        }
        println!("{line}");
    }
}
