//! Fig. 6 — net revenue (monetary units) of overbooking vs no-overbooking
//! in *heterogeneous* scenarios: β% of one class mixed with (100−β)% of
//! another, mean load fixed at λ̄ = 0.2·Λ (`ovnes_scenario::experiment`'s
//! `FIG6_*` grid).

use ovnes::prelude::*;
use ovnes_bench::arg;
use ovnes_scenario::experiment::{
    baseline_cell, campaign_topology, fig6_tenants, overbooking_cell, CAMPAIGN_SCALE, FIG6_BETAS,
    FIG6_MIXES, FIG6_PENALTY, FIG6_SIGMA, SEED,
};

fn main() {
    let scale = arg("--scale", CAMPAIGN_SCALE);
    let seed = arg("--seed", SEED);
    let topo = campaign_topology(scale, seed);

    println!("Fig. 6 — net revenue in heterogeneous mixes (λ̄ = 0.2Λ, solver: KAC)");
    println!("(topology scale {scale}; seed {seed})\n");
    let header = format!(
        "{:<10} {:<22} {:>5} {:>7} {:>4} {:>10} {:>10} {:>10}",
        "operator", "mix", "β%", "σ", "m", "ours", "baseline", "viol.rate"
    );
    println!("{header}");
    ovnes_bench::rule(&header);

    for op in Operator::all() {
        let model = NetworkModel::generate(op, &topo);
        for (a, b) in FIG6_MIXES {
            let mix_label = format!("{}→{}", a.label(), b.label());
            for beta in FIG6_BETAS {
                let tenants = fig6_tenants(op, (a, b), beta);
                let ours = overbooking_cell(&model, tenants.clone()).expect("overbooking cell");
                let base = baseline_cell(&model, tenants).expect("baseline cell");
                println!(
                    "{:<10} {:<22} {:>5.0} {:>7} {:>4} {:>10.2} {:>10.2} {:>9.5}%",
                    op.label(),
                    mix_label,
                    beta,
                    FIG6_SIGMA.label(),
                    FIG6_PENALTY,
                    ours.mean_net_revenue,
                    base.mean_net_revenue,
                    100.0 * ours.violation_rate,
                );
            }
        }
    }
    println!("\nExpected shape (paper): overbooking revenue grows ~linearly in the");
    println!("share of the higher-reward class while the baseline flattens when the");
    println!("binding resource (edge compute for mMTC/uRLLC) is exhausted.");
}
