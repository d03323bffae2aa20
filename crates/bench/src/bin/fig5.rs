//! Fig. 5 — relative net-revenue gain (%) of overbooking over the
//! no-overbooking baseline in *homogeneous* scenarios: every operator and
//! slice class over the grid of `ovnes_scenario::experiment::fig5_grid`
//! (α ∈ {0.2, 0.5, 0.8} × σ ∈ {0, λ̄/2} × m ∈ {1, 16}; σ = 0 only for mMTC),
//! against one baseline per (operator, class).

use ovnes::prelude::*;
use ovnes_bench::arg;
use ovnes_scenario::experiment::{
    campaign_topology, fig5_baseline, fig5_grid, fig5_tenants, overbooking_cell,
    revenue_gain_percent, CAMPAIGN_SCALE, SEED,
};

fn main() {
    let scale = arg("--scale", CAMPAIGN_SCALE);
    let seed = arg("--seed", SEED);
    let topo = campaign_topology(scale, seed);

    println!("Fig. 5 — net revenue gain (%) over no-overbooking, homogeneous slices");
    println!("(solver: KAC; topology scale {scale}; seed {seed}; λ̄ = α·Λ)\n");
    let header = format!(
        "{:<10} {:<6} {:>5} {:>7} {:>4} {:>12} {:>12} {:>9} {:>10}",
        "operator", "class", "α", "σ", "m", "ours", "baseline", "gain%", "viol.rate"
    );
    println!("{header}");
    ovnes_bench::rule(&header);

    for op in Operator::all() {
        let model = NetworkModel::generate(op, &topo);
        for class in SliceClass::all() {
            let base = fig5_baseline(&model, class).expect("baseline cell");
            for (alpha, sigma, m) in fig5_grid(class) {
                let tenants = fig5_tenants(op, class, (alpha, sigma, m));
                let ours = overbooking_cell(&model, tenants).expect("overbooking cell");
                let gain = revenue_gain_percent(ours.mean_net_revenue, base.mean_net_revenue);
                println!(
                    "{:<10} {:<6} {:>5.1} {:>7} {:>4} {:>12.2} {:>12.2} {:>8.0}% {:>9.5}%",
                    op.label(),
                    class.label(),
                    alpha,
                    sigma.label(),
                    m,
                    ours.mean_net_revenue,
                    base.mean_net_revenue,
                    gain,
                    100.0 * ours.violation_rate,
                );
            }
        }
    }
    println!("\nExpected shape (paper): gains shrink as α grows; σ=0 gains are");
    println!("penalty-independent; higher σ and higher m ⇒ more conservative, lower gain.");
}
