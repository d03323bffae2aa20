//! The one-pass slave skeleton against the per-row scan it replaced.

use super::*;
use crate::problem::{PathPolicy, TenantInput};
use crate::slice::ServiceModel;
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};
use rand::{Rng, SeedableRng};

/// The skeleton as a scan of every leg per row (every leg's path per
/// link row) — what [`SlaveContext::new`]'s one pass over leg buckets
/// has to reproduce: the program, per-leg matrix columns and per-row `u`
/// coefficients, all in this order.
#[allow(clippy::type_complexity)]
fn scanned_skeleton(
    instance: &AcrrInstance,
) -> (
    Problem,
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
    let mut scanned_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); instance.legs.len()];
    let mut u_coeffs = Vec::new();

    for c in 0..instance.n_cu {
        let mut coeffs = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            let b = instance.tenants[leg.tenant].service.cores_per_mbps;
            if leg.cu == c && b != 0.0 {
                coeffs.push((z_vars[li], b));
                scanned_cols[li].push((p.num_cons(), b));
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
        u_coeffs.push(u);
    }
    for (e, &cap) in instance.link_caps.iter().enumerate() {
        let mut coeffs = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.links.contains(&e) {
                coeffs.push((z_vars[li], instance.eta_transport));
                scanned_cols[li].push((p.num_cons(), instance.eta_transport));
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        if let Some((_, db, _)) = deficit_vars {
            coeffs.push((db, -1.0));
        }
        p.add_cons(&coeffs, Cmp::Le, cap);
        u_coeffs.push(Vec::new());
    }
    for b in 0..instance.n_bs {
        let eff = instance.mbps_per_mhz[b];
        let mut coeffs = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.bs == b {
                coeffs.push((z_vars[li], 1.0 / eff));
                scanned_cols[li].push((p.num_cons(), 1.0 / eff));
            }
        }
        if let Some((dr, _, _)) = deficit_vars {
            coeffs.push((dr, -1.0));
        }
        p.add_cons(&coeffs, Cmp::Le, instance.bs_radio_mhz[b]);
        u_coeffs.push(Vec::new());
    }
    (p, scanned_cols, u_coeffs)
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

            let (problem, scanned_cols, u_coeffs) = scanned_skeleton(&instance);
            let ctx = SlaveContext::new(&instance);
            let tag = format!("seed {seed}, deficit {deficit_cost:?}");
            assert!(
                ctx.rows.iter().all(|r| r.r0 != 123.0 && r.r0 != 456.0),
                "{tag}: a row for an unused link"
            );
            // The per-leg columns the certificates are priced against are
            // the LP's own matrix columns: same rows, same order, same bits.
            let matrix = ctx.problem.structural_matrix();
            for (li, scanned) in scanned_cols.iter().enumerate() {
                let column: Vec<(usize, f64)> =
                    matrix.col_iter(li).map(|(i, a)| (i as usize, a)).collect();
                assert_eq!(&column, scanned, "{tag}: leg {li}");
            }
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

// ------------------------------------------------- the persistent context

use ovnes_lp::{Basis, FaultConfig, SolveError};
use ovnes_topology::operators::testbed_model;

/// Up to three tenants on the testbed data plane (2 BS × 2 CU): an mMTC
/// slice whose base cores move the CU right-hand sides and overflow the
/// edge CU, and two exchangeable eMBB slices (one class, one forecast:
/// degenerate optima) that fill the cut-down radio between them, so that
/// admitting everyone does not fit.
fn small_instance(n_tenants: usize, deficit_cost: Option<f64>) -> AcrrInstance {
    use crate::slice::{SliceClass, SliceTemplate};
    let mut model = testbed_model();
    for bs in &mut model.base_stations {
        bs.capacity_mhz = 4.4;
    }
    let specs = [
        (SliceClass::Mmtc, 0.4, 4.0),
        (SliceClass::Embb, 0.3, 0.0),
        (SliceClass::Embb, 0.3, 0.0),
    ];
    let tenants = specs[..n_tenants]
        .iter()
        .enumerate()
        .map(|(i, &(class, alpha, base_cores))| {
            let t = SliceTemplate::for_class(class);
            TenantInput {
                tenant: i as u32,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward,
                delay_budget_us: t.delay_budget_us,
                service: ServiceModel {
                    base_cores,
                    ..t.service
                },
                forecast_mbps: vec![alpha * t.sla_mbps; 2],
                sigma: 0.2,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect();
    AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, deficit_cost)
}

/// Every admission vector of the instance: each tenant rejected or on one
/// of its allowed CUs.
fn all_admissions(inst: &AcrrInstance) -> Vec<Vec<Option<usize>>> {
    let mut out: Vec<Vec<Option<usize>>> = vec![Vec::new()];
    for allowed in &inst.cu_allowed {
        let choices: Vec<Option<usize>> = std::iter::once(None)
            .chain((0..inst.n_cu).filter(|&c| allowed[c]).map(Some))
            .collect();
        out = out
            .iter()
            .flat_map(|prefix| {
                choices.iter().map(move |&c| {
                    let mut v = prefix.clone();
                    v.push(c);
                    v
                })
            })
            .collect();
    }
    out
}

/// The from-scratch form of the warm chain is the specification, the
/// persistent context its refinement — checked exhaustively on a small
/// instance rather than on seeded presets: **every** admission sequence
/// through one `SlaveContext` (moved-tenant re-pricing, the chain continued
/// in place) equals a fresh context per admission (every row and window
/// priced from scratch) resumed from the previous solve's exported basis.
/// Results by bit pattern — reservations, duals, cut coefficients —
/// counters, and the final basis with its factorization. All 9⁴ sequences
/// of four over the admissions of two tenants; shorter ones with a third
/// tenant (27⁴ chains take minutes in a debug build), with the deficit
/// relaxation, and under fault injection.
#[test]
fn one_context_refines_a_fresh_context_per_admission() {
    for (n_tenants, steps, deficit_cost, fault) in [
        (2, 4, None, None),
        (3, 2, None, None),
        (2, 3, Some(1e4), None),
        (2, 3, None, Some(FaultConfig::chaos(7))),
    ] {
        let inst = small_instance(n_tenants, deficit_cost);
        assert_eq!((inst.n_bs, inst.n_cu), (2, 2));
        let options = SimplexOptions {
            fault,
            ..SimplexOptions::default()
        };
        let admissions = all_admissions(&inst);
        let tag = format!("{n_tenants} tenants, deficit {deficit_cost:?}, fault {fault:?}");
        assert_eq!(admissions.len(), 3usize.pow(n_tenants as u32), "{tag}");
        let (mut feasible, mut infeasible) = (0usize, 0usize);
        for code in 0..admissions.len().pow(steps) {
            let mut kept = SlaveContext::new(&inst);
            kept.set_simplex_options(options.clone());
            let mut basis: Option<Basis> = None;
            let mut spent = LpStats::default();
            let mut rest = code;
            for step in 0..steps {
                let assigned = &admissions[rest % admissions.len()];
                rest /= admissions.len();
                let mut fresh = SlaveContext::new(&inst);
                fresh.set_simplex_options(options.clone());
                if let Some(b) = &basis {
                    fresh.chain.load(b);
                }
                let spec = fresh.solve_for(assigned).expect("fresh solve");
                let got = kept.solve_for(assigned).expect("kept solve");
                assert_eq!(
                    format!("{got:?}"),
                    format!("{spec:?}"),
                    "{tag}: sequence {code} step {step}"
                );
                match got {
                    SlaveResult::Feasible { .. } => feasible += 1,
                    SlaveResult::Infeasible { .. } => infeasible += 1,
                }
                spent.absorb(&fresh.stats);
                basis = fresh.chain.take_basis();
            }
            assert_eq!(kept.stats, spent, "{tag}: sequence {code}");
            assert_eq!(
                format!("{:?}", kept.chain.take_basis()),
                format!("{basis:?}"),
                "{tag}: sequence {code}: final basis"
            );
        }
        assert!(feasible > 0, "{tag}: no feasible solve");
        assert!(
            infeasible > 0 || deficit_cost.is_some(),
            "{tag}: no Farkas ray"
        );
    }
}

/// The persistent state is a new way to fail, so its edges are pinned: a
/// solve that runs out of pivots leaves the chain cold — the next solve is
/// the cold solve of a fresh context, not a continuation of a half-updated
/// basis — and a context told not to warm-start solves every admission cold.
#[test]
fn a_failed_solve_leaves_a_cold_context() {
    let inst = small_instance(3, None);
    let admissions = all_admissions(&inst);
    let (first, second) = (&admissions[admissions.len() - 1], &admissions[4]);

    let mut ctx = SlaveContext::new(&inst);
    ctx.solve_for(first).expect("opening solve");
    let opening = ctx.stats;
    assert!(ctx.chain.is_warm());
    ctx.set_simplex_options(SimplexOptions {
        max_iterations: 1,
        ..SimplexOptions::default()
    });
    assert_eq!(
        ctx.solve_for(second).err(),
        Some(SolveError::IterationLimit),
        "one pivot cannot re-price {second:?}"
    );
    assert!(!ctx.chain.is_warm(), "the failed solve left a basis behind");
    assert_eq!(ctx.stats, opening, "a failed solve books nothing");

    ctx.set_simplex_options(SimplexOptions::default());
    let retried = ctx.solve_for(second).expect("retry");
    let mut fresh = SlaveContext::new(&inst);
    let cold = fresh.solve_for(second).expect("cold solve");
    assert_eq!(format!("{retried:?}"), format!("{cold:?}"));
    let mut expected = opening;
    expected.absorb(&fresh.stats);
    assert_eq!(ctx.stats, expected);
    assert_eq!(fresh.stats.cold_starts, 1);
    assert_eq!(
        format!("{:?}", ctx.chain.take_basis()),
        format!("{:?}", fresh.chain.take_basis())
    );

    let mut never_warm = SlaveContext::new(&inst);
    never_warm.set_warm(false);
    for assigned in &admissions {
        never_warm.solve_for(assigned).expect("cold solve");
    }
    let stats = never_warm.stats;
    assert_eq!(
        (
            stats.cold_starts,
            stats.warm_starts,
            stats.factorization_reuses
        ),
        (admissions.len(), 0, 0)
    );
    let mut carry = WarmChain::new();
    never_warm.save_carry(&mut carry);
    assert!(!carry.is_warm(), "a cold context hands over no basis");
}

/// The cross-epoch carry both ways: a chain that fits a freshly built
/// context is moved in whole, and its first solve replays the carried
/// factorization; one that does not fit — another shape, or the same shape
/// over another matrix — stays where it is, and the next solve is cold.
#[test]
fn seed_from_carry_installs_only_a_chain_that_fits() {
    // Relaxed, so that admitting everyone is a feasible vet.
    let inst = small_instance(3, Some(1e4));
    let admissions = all_admissions(&inst);
    let last = &admissions[admissions.len() - 1];
    let carried = || {
        let mut ctx = SlaveContext::new(&inst);
        ctx.solve_for(last).expect("carried solve");
        let mut carry = WarmChain::new();
        ctx.save_carry(&mut carry);
        assert!(
            carry.is_warm() && !ctx.chain.is_warm(),
            "handed over by swap"
        );
        carry
    };

    let mut carry = carried();
    let mut ctx = SlaveContext::new(&inst);
    ctx.seed_from_carry(&mut carry);
    assert!(ctx.chain.is_warm() && !carry.is_warm(), "installed by swap");
    let seeded = ctx.solve_for(last).expect("seeded solve");
    assert!(matches!(
        seeded,
        SlaveResult::Feasible {
            certificate: Some(_),
            ..
        }
    ));
    let stats = ctx.stats;
    assert_eq!(
        (
            stats.warm_starts,
            stats.factorization_reuses,
            stats.refactorizations
        ),
        (1, 1, 0)
    );

    let mut other_matrix = small_instance(3, Some(1e4));
    other_matrix.mbps_per_mhz[0] *= 2.0;
    for (tag, other) in [
        ("another shape", small_instance(2, Some(1e4))),
        ("another matrix", other_matrix),
    ] {
        let mut carry = carried();
        let mut ctx = SlaveContext::new(&other);
        ctx.seed_from_carry(&mut carry);
        assert!(!ctx.chain.is_warm() && carry.is_warm(), "{tag}: installed");
        let none = vec![None; other.tenants.len()];
        let cold = ctx.solve_for(&none).expect("cold solve");
        assert!(
            matches!(
                cold,
                SlaveResult::Feasible {
                    certificate: None,
                    ..
                }
            ),
            "{tag}"
        );
        assert_eq!(
            (ctx.stats.cold_starts, ctx.stats.warm_starts),
            (1, 0),
            "{tag}"
        );
    }
}

/// The cut of a multiplier vector priced the long way: every row, then
/// **every** leg's residual against the LP's matrix column, summed per pair
/// in a map — what the dense accumulator over the ray's own legs refines.
fn scanned_cut(ctx: &SlaveContext, y: &[f64], feasibility: bool) -> CutExpr {
    let mut constant = 0.0;
    let mut sums: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
    for spec in &ctx.rows {
        let yi = y[spec.id.index()];
        if yi == 0.0 {
            continue;
        }
        constant += yi * spec.r0;
        for &(pair, w) in &spec.u_coeffs {
            *sums.entry(pair).or_insert(0.0) += yi * w;
        }
    }
    let matrix = ctx.problem.structural_matrix();
    for (li, leg) in ctx.instance.legs.iter().enumerate() {
        let h: f64 = matrix.col_iter(li).map(|(i, a)| y[i as usize] * a).sum();
        let (lam_hat, lam) = ctx.leg_window[li];
        let w = if feasibility {
            if h.abs() <= BOUND_DUAL_TOL {
                continue;
            }
            -(if h > 0.0 { h * lam } else { h * lam_hat })
        } else {
            let d = -ctx.instance.leg_q(leg) - h;
            if d.abs() <= BOUND_DUAL_TOL {
                continue;
            }
            if d > 0.0 {
                d * lam_hat
            } else {
                d * lam
            }
        };
        if w != 0.0 {
            *sums.entry((leg.tenant, leg.cu)).or_insert(0.0) += w;
        }
    }
    CutExpr {
        constant,
        coeffs: sums.into_iter().collect(),
    }
}

/// A cut is a value: its coefficients come out in pair order whatever the
/// order they were accumulated in, `eval` adds them in that order, and the
/// same multipliers price to the same cut — on a second context, on the
/// same context again, and by the full scan over every leg.
#[test]
fn cuts_are_ordered_and_evaluate_in_order() {
    let inst = small_instance(3, None);
    let admissions = all_admissions(&inst);
    let everyone = &admissions[admissions.len() - 1];
    let ray_cut = || {
        let mut ctx = SlaveContext::new(&inst);
        match ctx.solve_for(everyone).expect("solve") {
            SlaveResult::Infeasible { cut } => cut,
            SlaveResult::Feasible { .. } => panic!("admitting everyone must not fit"),
        }
    };
    let cut = ray_cut();
    assert_eq!(ray_cut(), cut, "a second context");
    assert!(cut.coeffs.len() >= 2, "a ray over several tenants");
    assert!(cut.coeffs.windows(2).all(|w| w[0].0 < w[1].0), "{cut:?}");
    for &(pair, w) in &cut.coeffs {
        assert_eq!(cut.get(pair), Some(w));
    }
    assert_eq!(cut.get((usize::MAX, 0)), None);

    let mut in_order = cut.constant;
    for &((t, c), w) in &cut.coeffs {
        if everyone[t] == Some(c) {
            in_order += w;
        }
    }
    assert_eq!(cut.eval(everyone).to_bits(), in_order.to_bits());
    assert!(
        cut.eval(everyone) > 0.0,
        "the ray cuts its own admission off"
    );

    // Dense, sparse and single-row multiplier vectors, both kinds of cut.
    let mut ctx = SlaveContext::new(&inst);
    let m = ctx.rows.len();
    for stride in [1, 3, m] {
        let y: Vec<f64> = (0..m)
            .map(|i| {
                if i % stride == 0 {
                    -0.25 * (i + 1) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let tag = format!("multipliers {y:?}");
        let feasibility = ctx.feasibility_cut(&y);
        assert_eq!(feasibility, scanned_cut(&ctx, &y, true), "{tag}");
        assert_eq!(ctx.feasibility_cut(&y), feasibility, "{tag}: priced again");
        let optimality = ctx.optimality_cut(&y);
        assert_eq!(optimality, scanned_cut(&ctx, &y, false), "{tag}");
        assert!(ctx.ray_legs.iter().all(|&hit| !hit), "{tag}");
    }
}
