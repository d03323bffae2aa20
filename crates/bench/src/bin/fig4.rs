//! Fig. 4 — the three operator topologies: structural statistics (a)-(c)
//! and the per-path capacity (d) / latency (e) CDFs.

use ovnes_bench::arg;
use ovnes_scenario::experiment::{
    fig4_models, FIG4_CAPACITY_QUANTILES, FIG4_DELAY_QUANTILES, FIG4_SCALE, SEED,
};
use ovnes_topology::stats::{path_capacity_cdf, path_delay_cdf, quantile};

fn main() {
    let scale = arg("--scale", FIG4_SCALE);
    let seed = arg("--seed", SEED);

    println!("Fig. 4 — operator topologies at scale {scale} (seed {seed})\n");
    let header = format!(
        "{:<10} {:>5} {:>6} {:>7} {:>12} {:>12}",
        "operator", "BSs", "links", "nodes", "mean paths", "radio (MHz)"
    );
    println!("{header}");
    ovnes_bench::rule(&header);

    let models = fig4_models(scale, seed);
    for m in &models {
        let radio = m.base_stations.iter().map(|b| b.capacity_mhz);
        let radio_lo = radio.clone().fold(f64::INFINITY, f64::min);
        let radio_hi = radio.fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<10} {:>5} {:>6} {:>7} {:>12.2} {:>12}",
            m.operator.label(),
            m.base_stations.len(),
            m.graph.num_links(),
            m.graph.num_nodes(),
            m.mean_paths_to_edge(),
            if radio_lo == radio_hi {
                format!("{radio_lo:.0}")
            } else {
                format!("{radio_lo:.0}-{radio_hi:.0}")
            },
        );
    }

    println!("\nFig. 4(d) — per-path capacity CDF (Gb/s), quantiles:");
    let header = format!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "operator", "p10", "p25", "p50", "p75", "p90"
    );
    println!("{header}");
    ovnes_bench::rule(&header);
    for m in &models {
        let cdf = path_capacity_cdf(m);
        let mut row = format!("{:<10}", m.operator.label());
        for q in FIG4_CAPACITY_QUANTILES {
            row.push_str(&format!(" {:>8.1}", quantile(&cdf, q)));
        }
        println!("{row}");
    }

    println!("\nFig. 4(e) — per-path latency CDF (µs), quantiles:");
    let header = format!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "operator", "p10", "p25", "p50", "p75", "p95"
    );
    println!("{header}");
    ovnes_bench::rule(&header);
    for m in &models {
        let cdf = path_delay_cdf(m);
        let mut row = format!("{:<10}", m.operator.label());
        for q in FIG4_DELAY_QUANTILES {
            row.push_str(&format!(" {:>8.0}", quantile(&cdf, q)));
        }
        println!("{row}");
    }

    println!("\nExpected shape (paper): Romanian has the highest path redundancy,");
    println!("Swiss the lowest capacities (wireless backhaul), Italian the highest");
    println!("capacities (fiber) and the widest latency spread (20 km metro).");
}
