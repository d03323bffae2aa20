//! The one-pass slave skeleton against the per-row scan it replaced.

use super::*;
use crate::problem::{PathPolicy, TenantInput};
use crate::slice::ServiceModel;
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};
use rand::{Rng, SeedableRng};

/// The skeleton as a scan of every leg per row (every leg's path per
/// link row) — what [`SlaveContext::new`]'s one pass over leg buckets
/// has to reproduce: the program, row keys, per-leg columns and per-row
/// `u` coefficients, all in this order.
#[allow(clippy::type_complexity)]
fn scanned_skeleton(
    instance: &AcrrInstance,
) -> (
    Problem,
    Vec<RowKey>,
    Vec<Vec<(usize, f64)>>,
    Vec<Vec<((usize, usize), f64)>>,
) {
    let mut p = Problem::new();
    let z_vars: Vec<VarId> = instance
        .legs
        .iter()
        .map(|leg| p.add_var(0.0, 0.0, -instance.leg_q(leg)))
        .collect();
    let deficit_vars = instance.deficit_cost.map(|m| {
        (
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
        )
    });
    let mut leg_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); instance.legs.len()];
    let mut row_keys = Vec::new();
    let mut u_coeffs = Vec::new();

    for c in 0..instance.n_cu {
        let mut coeffs = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            let b = instance.tenants[leg.tenant].service.cores_per_mbps;
            if leg.cu == c && b != 0.0 {
                coeffs.push((z_vars[li], b));
                leg_cols[li].push((row_keys.len(), b));
            }
        }
        if let Some((_, _, dc)) = deficit_vars {
            coeffs.push((dc, -1.0));
        }
        let mut u = Vec::new();
        for (t, ten) in instance.tenants.iter().enumerate() {
            if instance.cu_allowed[t][c] && ten.service.base_cores != 0.0 {
                u.push(((t, c), -ten.service.base_cores));
            }
        }
        p.add_cons(&coeffs, Cmp::Le, instance.cu_cores[c]);
        row_keys.push(RowKey::Cu(c));
        u_coeffs.push(u);
    }
    for (e, &cap) in instance.link_caps.iter().enumerate() {
        let mut coeffs = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.links.contains(&e) {
                coeffs.push((z_vars[li], instance.eta_transport));
                leg_cols[li].push((row_keys.len(), instance.eta_transport));
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        if let Some((_, db, _)) = deficit_vars {
            coeffs.push((db, -1.0));
        }
        p.add_cons(&coeffs, Cmp::Le, cap);
        row_keys.push(RowKey::Link(instance.link_graph_ids[e]));
        u_coeffs.push(Vec::new());
    }
    for b in 0..instance.n_bs {
        let eff = instance.mbps_per_mhz[b];
        let mut coeffs = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.bs == b {
                coeffs.push((z_vars[li], 1.0 / eff));
                leg_cols[li].push((row_keys.len(), 1.0 / eff));
            }
        }
        if let Some((dr, _, _)) = deficit_vars {
            coeffs.push((dr, -1.0));
        }
        p.add_cons(&coeffs, Cmp::Le, instance.bs_radio_mhz[b]);
        row_keys.push(RowKey::Bs(b));
        u_coeffs.push(Vec::new());
    }
    (p, row_keys, leg_cols, u_coeffs)
}

/// A seeded city slice: a generated N1 topology and a handful of
/// tenants, some without per-Mb/s compute (no CU-row coefficient) and
/// some without base cores (no `u` coefficient).
fn seeded_instance(seed: u64, deficit_cost: Option<f64>) -> AcrrInstance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let model = NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.05,
            seed,
            k_paths: 3,
        },
    );
    let n_bs = model.base_stations.len();
    let tenants: Vec<TenantInput> = (0..rng.gen_range(3..9))
        .map(|i| {
            let sla = rng.gen_range(10.0..40.0);
            TenantInput {
                tenant: 100 + i as u32,
                sla_mbps: sla,
                reward: rng.gen_range(0.5..3.0),
                penalty: rng.gen_range(0.5..5.0),
                delay_budget_us: 30_000.0,
                service: ServiceModel {
                    base_cores: [0.0, 1.5][rng.gen_range(0..2usize)],
                    cores_per_mbps: [0.0, 0.02, 0.2][rng.gen_range(0..3usize)],
                },
                forecast_mbps: (0..n_bs).map(|_| rng.gen_range(0.1..0.9) * sla).collect(),
                sigma: rng.gen_range(0.05..1.0),
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect();
    AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, deficit_cost)
}

#[test]
fn one_pass_skeleton_equals_the_per_row_scan() {
    for seed in 0..12u64 {
        for deficit_cost in [None, Some(1e4)] {
            let mut instance = seeded_instance(seed, deficit_cost);
            assert!(instance.legs.len() > instance.n_bs, "seed {seed}: trivial");
            // A link no leg uses gets no row, wherever it sits in the list.
            instance.link_caps.insert(0, 123.0);
            instance.link_graph_ids.insert(0, usize::MAX);
            for leg in &mut instance.legs {
                leg.links.iter_mut().for_each(|e| *e += 1);
            }
            instance.link_caps.push(456.0);
            instance.link_graph_ids.push(usize::MAX - 1);

            let (problem, row_keys, leg_cols, u_coeffs) = scanned_skeleton(&instance);
            let ctx = SlaveContext::new(&instance);
            let tag = format!("seed {seed}, deficit {deficit_cost:?}");
            assert_eq!(ctx.row_keys, row_keys, "{tag}");
            assert!(!row_keys.contains(&RowKey::Link(usize::MAX)), "{tag}");
            assert_eq!(ctx.leg_cols, leg_cols, "{tag}");
            let built: Vec<_> = ctx.rows.iter().map(|r| r.u_coeffs.clone()).collect();
            assert_eq!(built, u_coeffs, "{tag}");
            assert!(
                ctx.rows.iter().enumerate().all(|(i, r)| r.id.index() == i),
                "{tag}: row i is constraint i"
            );
            assert_eq!(
                ctx.problem.structural_matrix().fingerprint(),
                problem.structural_matrix().fingerprint(),
                "{tag}"
            );
            // Bounds, costs, senses, right-hand sides and the order of
            // every row's coefficients (the certificates sum in it).
            assert_eq!(
                format!("{:?}", ctx.problem),
                format!("{problem:?}"),
                "{tag}"
            );
        }
    }
}
