//! Second test battery: risk-model arithmetic, KAC internals, orchestrator
//! edge cases and template invariants.

use crate::orchestrator::{
    EpochOutcome, InfraEvent, InfraEventKind, Orchestrator, OrchestratorConfig,
};
use crate::problem::{AcrrInstance, PathPolicy, TenantInput, MBPS_PER_MHZ};
use crate::slice::{RequestFault, ServiceModel, SliceRequest, SliceTemplate};
use crate::solver::slave::{SlaveContext, SlaveResult};
use crate::solver::{benders, kac, AcrrError, SolveControls, SolverKind};
use ovnes_lp::SimplexOptions;
use ovnes_topology::graph::{Graph, LinkTech};
use ovnes_topology::ksp::k_shortest;
use ovnes_topology::operators::{BaseStation, ComputeUnit, CuKind, NetworkModel, Operator};

fn one_bs_model(edge_cores: f64) -> NetworkModel {
    let mut g = Graph::new();
    let bs = g.add_node(0.0, 0.0);
    let edge = g.add_node(0.0, 0.1);
    g.add_link(bs, edge, 1_000.0, LinkTech::Copper);
    let base_stations = vec![BaseStation {
        node: bs,
        capacity_mhz: 20.0,
    }];
    let compute_units = vec![ComputeUnit {
        node: edge,
        cores: edge_cores,
        kind: CuKind::Edge,
    }];
    let paths = vec![vec![k_shortest(&g, bs, edge, 2)]];
    NetworkModel {
        operator: Operator::Romanian,
        graph: g,
        base_stations,
        compute_units,
        paths,
    }
}

fn simple_tenant(id: u32, forecast: f64, sigma: f64) -> TenantInput {
    TenantInput {
        tenant: id,
        sla_mbps: 50.0,
        reward: 1.0,
        penalty: 1.0,
        delay_budget_us: 30_000.0,
        service: ServiceModel {
            base_cores: 0.0,
            cores_per_mbps: 0.0,
        },
        forecast_mbps: vec![forecast],
        sigma,
        duration_weight: 1.0,
        must_accept: false,
        pinned_cu: None,
    }
}

// ------------------------------------------------------------- risk model

#[test]
fn leg_q_is_zero_without_overbooking() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 10.0, 0.2)],
        PathPolicy::MinDelay,
        false,
        None,
    );
    assert_eq!(inst.leg_q(&inst.legs[0]), 0.0);
    assert_eq!(
        inst.leg_forecast(&inst.legs[0]),
        50.0,
        "no-overbooking pins λ̂ = Λ"
    );
}

#[test]
fn leg_q_scales_with_sigma_and_penalty() {
    let model = one_bs_model(100.0);
    let mk = |sigma: f64, penalty: f64| {
        let mut t = simple_tenant(0, 10.0, sigma);
        t.penalty = penalty;
        let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, None);
        inst.leg_q(&inst.legs[0])
    };
    let base = mk(0.2, 1.0);
    assert!((mk(0.4, 1.0) - 2.0 * base).abs() < 1e-12, "q linear in σ̂");
    assert!((mk(0.2, 3.0) - 3.0 * base).abs() < 1e-12, "q linear in K");
}

#[test]
fn forecast_clamped_strictly_below_sla() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 80.0, 0.2)], // forecast above the 50 Mb/s SLA
        PathPolicy::MinDelay,
        true,
        None,
    );
    let lam_hat = inst.leg_forecast(&inst.legs[0]);
    assert!(lam_hat < 50.0);
    assert!((lam_hat - 0.999 * 50.0).abs() < 1e-9);
    assert!(inst.leg_q(&inst.legs[0]).is_finite());
}

#[test]
fn gamma_none_for_disallowed_pairs() {
    let model = one_bs_model(100.0);
    let mut t = simple_tenant(0, 10.0, 0.2);
    t.delay_budget_us = 1.0; // nothing is reachable in 1 µs
    let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, None);
    assert!(inst.gamma(0, 0).is_none());
    assert!(inst.pairs().is_empty());
    assert!(inst.legs.is_empty());
}

#[test]
fn pinned_cu_restricts_pairs() {
    let mut g = Graph::new();
    let bs = g.add_node(0.0, 0.0);
    let e0 = g.add_node(0.0, 0.1);
    let e1 = g.add_node(0.1, 0.1);
    g.add_link(bs, e0, 1_000.0, LinkTech::Copper);
    g.add_link(bs, e1, 1_000.0, LinkTech::Copper);
    let model = NetworkModel {
        operator: Operator::Romanian,
        base_stations: vec![BaseStation {
            node: bs,
            capacity_mhz: 20.0,
        }],
        compute_units: vec![
            ComputeUnit {
                node: e0,
                cores: 100.0,
                kind: CuKind::Edge,
            },
            ComputeUnit {
                node: e1,
                cores: 100.0,
                kind: CuKind::Core,
            },
        ],
        paths: vec![vec![k_shortest(&g, bs, e0, 2), k_shortest(&g, bs, e1, 2)]],
        graph: g,
    };
    let mut t = simple_tenant(0, 10.0, 0.2);
    t.pinned_cu = Some(1);
    let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, None);
    assert_eq!(inst.pairs(), vec![(0, 1)]);
}

#[test]
fn legs_of_is_the_pairs_contiguous_block() {
    // `legs_of` slices by the offset `build` records; the whole-vector
    // filter it replaced is the specification.
    let model = NetworkModel::generate(
        Operator::Romanian,
        &ovnes_topology::operators::GeneratorConfig {
            scale: 0.03,
            seed: 2,
            k_paths: 4,
        },
    );
    let n_bs = model.base_stations.len();
    let n_cu = model.compute_units.len();
    let tenants: Vec<TenantInput> = (0..4)
        .map(|id| {
            let mut t = simple_tenant(id, 10.0, 0.2);
            t.forecast_mbps = vec![10.0; n_bs];
            match id {
                1 => t.pinned_cu = Some(n_cu - 1),
                2 => t.delay_budget_us = 1.0, // unreachable: no pair, no legs
                _ => {}
            }
            t
        })
        .collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None);
    assert!(inst.legs.len() > n_bs, "more than one pair");
    for t in 0..inst.tenants.len() {
        for c in 0..n_cu {
            let scanned: Vec<usize> = (0..inst.legs.len())
                .filter(|&li| inst.legs[li].tenant == t && inst.legs[li].cu == c)
                .collect();
            assert_eq!(inst.leg_range(t, c).collect::<Vec<_>>(), scanned);
            assert_eq!(inst.legs_of(t, c).len(), scanned.len());
            assert_eq!(!scanned.is_empty(), inst.cu_allowed[t][c]);
            assert!(inst.legs_of(t, c).iter().map(|l| l.bs).eq(0..scanned.len()));
        }
    }
    assert!(inst.legs_of(2, 0).is_empty());
}

#[test]
fn path_policies_pick_feasible_paths() {
    let model = NetworkModel::generate(
        Operator::Romanian,
        &ovnes_topology::operators::GeneratorConfig {
            scale: 0.03,
            seed: 2,
            k_paths: 4,
        },
    );
    let n_bs = model.base_stations.len();
    for policy in [PathPolicy::MinDelay, PathPolicy::Spread] {
        let mut t = simple_tenant(0, 10.0, 0.2);
        t.forecast_mbps = vec![10.0; n_bs];
        let inst = AcrrInstance::build(&model, vec![t], policy, true, None);
        for leg in &inst.legs {
            assert!(
                leg.delay_us <= 30_000.0,
                "{policy:?} must respect the delay budget"
            );
            assert!(!leg.links.is_empty());
        }
    }
}

// ------------------------------------------------------------------ solvers

#[test]
fn benders_converges_with_gap_reported() {
    let model = one_bs_model(100.0);
    let tenants = (0..4).map(|i| simple_tenant(i, 10.0, 0.2)).collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, None);
    let alloc = benders::solve(&inst, &benders::BendersOptions::default()).unwrap();
    assert!(
        alloc.stats.gap.abs() < 1e-5,
        "converged gap, got {}",
        alloc.stats.gap
    );
    assert!(alloc.stats.iterations >= 1);
    // 4 eMBB-like tenants at λ̂ = 10 fit one 150 Mb/s BS only as 3 at Λ or
    // more when squeezed; the optimum accepts all 4 (4·10 = 40 ≤ 150).
    assert_eq!(alloc.accepted(), 4);
}

#[test]
fn kac_shed_loop_drops_net_negative_tenants() {
    // Radio so tight that admitting everyone pins z = λ̂, making high-risk
    // tenants net-negative; the shed loop must drop some.
    let model = one_bs_model(1e6);
    let tenants: Vec<TenantInput> = (0..6)
        .map(|i| {
            let mut t = simple_tenant(i, 24.0, 1.0); // λ̂ ≈ half the SLA
            t.penalty = 8.0; // ξK = 8 ≫ R = 1 at full squeeze
            t
        })
        .collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, None);
    let alloc = kac::solve(&inst, &SimplexOptions::default()).unwrap();
    // 150 Mb/s radio: 6·24 = 144 fits at the floor, but at the floor every
    // tenant's modelled risk (ξK = 8) dwarfs its reward → shed until the
    // survivors can sit near Λ (risk ≈ 0): 150/50 = 3 tenants.
    assert!(
        alloc.accepted() <= 3,
        "shed loop must drop squeezed tenants"
    );
    assert!(alloc.objective <= 0.0, "result must not be net-negative");
}

#[test]
fn kac_respects_aggregated_capacity() {
    let model = one_bs_model(1e6);
    // Forecast floors of 60 each: only 2 of 5 fit the 150 Mb/s radio.
    let tenants: Vec<TenantInput> = (0..5)
        .map(|i| {
            let mut t = simple_tenant(i, 49.0, 0.1);
            t.sla_mbps = 70.0;
            t.forecast_mbps = vec![60.0];
            t
        })
        .collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, None);
    let alloc = kac::solve(&inst, &SimplexOptions::default()).unwrap();
    assert!(alloc.accepted() <= 2);
    let used: f64 = alloc.reservations.iter().map(|r| r[0]).sum();
    assert!(used / MBPS_PER_MHZ <= 20.0 + 1e-6);
}

/// When the forced set alone does not fit the strict capacities, KAC ends
/// on the §3.4 relaxation of exactly that set: the same bits as a relaxed
/// slave priced for it directly, whatever optional tenants were packed and
/// shed on the way. An epoch whose first packing is already forced-only
/// spends two vets: the strict one that does not fit and the relaxed one.
#[test]
fn kac_forced_overflow_is_the_relaxed_vet_of_the_forced_set() {
    // Half a core cannot hold the forced tenant's floor at a core per Mb/s.
    let model = one_bs_model(0.5);
    let tenant = |id: u32, must_accept: bool| {
        let mut t = simple_tenant(id, 10.0, 0.2);
        t.service.cores_per_mbps = 1.0;
        t.must_accept = must_accept;
        t.pinned_cu = must_accept.then_some(0);
        t
    };
    // No CU meets a zero delay budget, so this tenant is never packed.
    let unplaceable = |id: u32| TenantInput {
        delay_budget_us: 0.0,
        ..tenant(id, false)
    };
    let cases = [
        (
            vec![tenant(0, true), tenant(1, false), tenant(2, false)],
            false,
        ),
        (vec![tenant(0, true), unplaceable(1)], true),
    ];
    for (tenants, forced_only_first) in cases {
        let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, Some(1e4));
        assert_eq!(inst.cu_allowed[1][0], !forced_only_first);
        let forced: Vec<Option<usize>> = inst
            .tenants
            .iter()
            .map(|t| t.must_accept.then_some(0))
            .collect();
        let alloc = kac::solve(&inst, &SimplexOptions::default()).unwrap();
        let SlaveResult::Feasible {
            value, z, deficit, ..
        } = SlaveContext::new(&inst).solve_for(&forced).unwrap()
        else {
            panic!("the relaxed slave always fits");
        };
        assert!(deficit.2 > 0.0, "the forced set must overflow the CU");
        assert_eq!(alloc.assigned_cu, forced);
        let fixed = inst.admission_cost(&forced).unwrap();
        assert_eq!(alloc.objective.to_bits(), (fixed + value).to_bits());
        assert_eq!(alloc.deficit.0.to_bits(), deficit.0.to_bits());
        assert_eq!(alloc.deficit.1.to_bits(), deficit.1.to_bits());
        assert_eq!(alloc.deficit.2.to_bits(), deficit.2.to_bits());
        for (li, leg) in inst.legs.iter().enumerate() {
            let zt = if forced[leg.tenant] == Some(leg.cu) {
                z[li]
            } else {
                0.0
            };
            assert_eq!(
                alloc.reservations[leg.tenant][leg.bs].to_bits(),
                zt.to_bits()
            );
        }
        if forced_only_first {
            assert_eq!((alloc.stats.iterations, alloc.stats.lp_solves), (1, 2));
        } else {
            assert!(
                alloc.stats.iterations > 1,
                "the optional tenants were packed"
            );
        }
    }
}

#[test]
fn solver_stats_populate() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 10.0, 0.2)],
        PathPolicy::MinDelay,
        true,
        None,
    );
    for kind in [SolverKind::Benders, SolverKind::Kac, SolverKind::OneShot] {
        let controls = SolveControls {
            kind,
            ..SolveControls::default()
        };
        let alloc = crate::solver::solve(&inst, &controls).unwrap();
        assert!(alloc.stats.iterations >= 1, "{kind:?}");
        assert!(alloc.expected_net_revenue() > 0.0, "{kind:?}");
    }
}

#[test]
fn deficit_vars_report_through_allocation() {
    let model = one_bs_model(0.5); // hopeless compute
    let mut t = simple_tenant(0, 10.0, 0.2);
    t.service = ServiceModel {
        base_cores: 0.0,
        cores_per_mbps: 1.0,
    };
    t.must_accept = true;
    t.pinned_cu = Some(0);
    let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, Some(1e4));
    let alloc = benders::solve(&inst, &benders::BendersOptions::default()).unwrap();
    assert_eq!(alloc.accepted(), 1, "forced slice stays");
    assert!(alloc.deficit.2 > 1.0, "compute deficit must be reported");
}

#[test]
fn slave_handles_empty_admission() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 10.0, 0.2)],
        PathPolicy::MinDelay,
        true,
        None,
    );
    match SlaveContext::new(&inst).solve_for(&[None]).unwrap() {
        SlaveResult::Feasible { value, z, .. } => {
            assert_eq!(value, 0.0);
            assert!(z.iter().all(|&v| v.abs() < 1e-9));
        }
        SlaveResult::Infeasible { .. } => panic!("empty admission is always feasible"),
    }
}

/// A negative deficit cost leaves the deficit columns unbounded below. The
/// slave reports it as an engine error and every solver kind comes off the
/// ladder with a decision or a deferral — a rung, never a panic.
#[test]
fn negative_deficit_cost_lands_on_a_ladder_rung() {
    use crate::solver::{solve_controlled, Degradation};
    let model = one_bs_model(100.0);
    let tenants = vec![simple_tenant(0, 10.0, 0.2), simple_tenant(1, 10.0, 0.2)];
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, Some(-1.0));
    assert!(matches!(
        SlaveContext::new(&inst).solve_for(&[Some(0), Some(0)]),
        Err(ovnes_lp::SolveError::Numerical)
    ));
    for kind in [SolverKind::Benders, SolverKind::Kac, SolverKind::OneShot] {
        let controls = SolveControls {
            kind,
            ..SolveControls::default()
        };
        let out = solve_controlled(&inst, &controls);
        assert_eq!(
            out.allocation.is_none(),
            out.degradation == Degradation::Deferred,
            "{kind:?}"
        );
        if kind != SolverKind::Kac {
            // KAC vets against the unrelaxed instance and never prices a
            // deficit here; the exact solvers do, fail, and fall back to it.
            assert_eq!(out.degradation, Degradation::Greedy, "{kind:?}");
            assert!(out.error.is_some(), "{kind:?}");
        }
    }
}

// ------------------------------------------------------------ templates etc.

#[test]
fn templates_match_table1() {
    let e = SliceTemplate::embb();
    assert_eq!(
        (e.reward, e.sla_mbps, e.delay_budget_us),
        (1.0, 50.0, 30_000.0)
    );
    assert_eq!(e.service.cores_per_mbps, 0.0);
    let m = SliceTemplate::mmtc();
    assert_eq!(
        (m.reward, m.sla_mbps, m.service.cores_per_mbps),
        (3.0, 10.0, 2.0)
    );
    let u = SliceTemplate::urllc();
    assert_eq!(
        (u.reward, u.sla_mbps, u.delay_budget_us),
        (2.2, 25.0, 5_000.0)
    );
    assert_eq!(u.service.cores_per_mbps, 0.2);
}

#[test]
fn mmtc_requests_are_deterministic() {
    let r = SliceRequest::from_template(0, SliceTemplate::mmtc(), 0.5, 3.0, 1.0);
    assert_eq!(
        r.true_sigma_mbps, 0.0,
        "Table 1: mMTC has σ = 0 regardless of input"
    );
    let r = SliceRequest::from_template(0, SliceTemplate::embb(), 0.5, 3.0, 1.0);
    assert_eq!(r.true_sigma_mbps, 3.0);
}

#[test]
fn penalty_is_m_times_reward() {
    let r = SliceRequest::from_template(0, SliceTemplate::urllc(), 0.2, 1.0, 4.0);
    assert!((r.penalty - 4.0 * 2.2).abs() < 1e-12);
}

// ------------------------------------------------------------ orchestrator

#[test]
fn diurnal_requests_flow_through() {
    let model = one_bs_model(100.0);
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            season_epochs: 4,
            seed: 21,
            ..Default::default()
        },
    );
    let mut r = SliceRequest::from_template(0, SliceTemplate::embb(), 0.3, 1.0, 1.0);
    r.diurnal = Some((0.5, 48)); // period = 4 epochs × 12 samples
    orch.submit(r);
    let mut total_rev = 0.0;
    for _ in 0..10 {
        total_rev += orch.step().unwrap().net_revenue;
    }
    assert!(
        total_rev > 8.0,
        "diurnal slice must stay admitted, got {total_rev}"
    );
}

/// The three model parameters the config keeps, at their hostile values: a
/// typed error or a finite horizon, never a panic.
#[test]
fn hostile_model_parameters_never_panic() {
    let run = |config: OrchestratorConfig| {
        let mut orch = Orchestrator::new(one_bs_model(100.0), config);
        orch.submit(SliceRequest::from_template(
            0,
            SliceTemplate::embb(),
            0.2,
            2.0,
            1.0,
        ));
        let revenue: Result<Vec<f64>, _> = (0..8)
            .map(|_| orch.step().map(|out| out.net_revenue))
            .collect();
        (revenue, orch.epoch())
    };
    let (unsampled, epoch) = run(OrchestratorConfig {
        samples_per_epoch: 0,
        ..Default::default()
    });
    assert!(matches!(unsampled, Err(AcrrError::Config(_))));
    assert_eq!(epoch, 0, "the refused step must not advance the epoch");
    // NaN headroom is a NaN bound at once; ±∞ is one as soon as a tenant's
    // observed peaks are 0 (0 · ∞).
    for forecast_headroom in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let (refused, epoch) = run(OrchestratorConfig {
            forecast_headroom,
            ..Default::default()
        });
        let refused = matches!(refused, Err(AcrrError::Config(_)));
        assert!(refused && epoch == 0, "{forecast_headroom}");
    }
    // 0 and 1 are no season; the huge ones overflow `2 * season`.
    for season_epochs in [0, 1, usize::MAX / 2 + 1, usize::MAX] {
        let (revenue, _) = run(OrchestratorConfig {
            season_epochs,
            ..Default::default()
        });
        let revenue = revenue.expect("a degenerate season is not an error");
        assert!(revenue.iter().all(|r| r.is_finite()), "{revenue:?}");
    }
}

/// A slice requested for zero epochs neither underflows its lifetime nor
/// wraps it to the "lives forever" sentinel: it expires at the end of the
/// epoch that admits it, exactly like a lifetime of one.
#[test]
fn zero_lifetime_slices_expire_like_one_epoch_slices() {
    let run = |duration_epochs: u32| {
        let mut orch = Orchestrator::new(
            one_bs_model(100.0),
            OrchestratorConfig {
                seed: 7,
                ..Default::default()
            },
        );
        let mut r = SliceRequest::from_template(0, SliceTemplate::embb(), 0.2, 1.0, 1.0);
        r.duration_epochs = duration_epochs;
        let mut outcomes = Vec::new();
        orch.run(vec![r], 4, |out| {
            outcomes.push((out.admitted.clone(), out.net_revenue.to_bits()));
            std::ops::ControlFlow::Continue(())
        })
        .expect("the horizon runs");
        (outcomes, orch.active_tenants().len())
    };
    let (zero, active_after) = run(0);
    assert_eq!(zero[0].0, vec![0], "admitted in its arrival epoch");
    assert!(zero[1..].iter().all(|(admitted, _)| admitted.is_empty()));
    assert_eq!(active_after, 0, "expired, not immortal");
    assert_eq!(zero, run(1).0);
}

#[test]
fn rejected_requests_reapply() {
    let model = one_bs_model(2.0); // tiny compute
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            seed: 23,
            ..Default::default()
        },
    );
    // Compute-hungry tenants: only one fits at a time.
    for t in 0..2 {
        let mut r = SliceRequest::from_template(t, SliceTemplate::embb(), 0.2, 1.0, 1.0);
        r.template.service = ServiceModel {
            base_cores: 1.5,
            cores_per_mbps: 0.0,
        };
        orch.submit(r);
    }
    let out = orch.step().unwrap();
    assert_eq!(out.admitted.len() + out.rejected.len(), 2);
    // The rejected tenant must be reconsidered next epoch (stays in queue).
    let out2 = orch.step().unwrap();
    assert_eq!(out2.admitted.len() + out2.rejected.len(), 2);
}

#[test]
fn reward_accounting_sums_active_slices() {
    let model = one_bs_model(1000.0);
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            seed: 24,
            ..Default::default()
        },
    );
    for t in 0..3 {
        orch.submit(SliceRequest::from_template(
            t,
            SliceTemplate::mmtc(),
            0.2,
            0.0,
            1.0,
        ));
    }
    let out = orch.step().unwrap();
    assert_eq!(out.admitted.len(), 3);
    assert!((out.reward - 9.0).abs() < 1e-9, "3 mMTC × R = 3");
    assert_eq!(out.penalty, 0.0, "deterministic load under full-SLA prior");
    assert!((out.net_revenue - 9.0).abs() < 1e-9);
}

#[test]
fn monitor_history_lives_only_while_a_tenant_is_active_or_queued() {
    // One BS, compute for two slices at a time: a steady stream of short
    // slices with finite patience expires, re-applies and abandons.
    let n_bs = 1;
    let mut orch = Orchestrator::new(
        one_bs_model(3.0),
        OrchestratorConfig {
            solver: SolverKind::Kac,
            reapply_epochs: 3,
            seed: 31,
            ..Default::default()
        },
    );
    for t in 0..40u32 {
        let mut r = SliceRequest::from_template(t, SliceTemplate::embb(), 0.2, 1.0, 1.0);
        r.template.service = ServiceModel {
            base_cores: 1.5,
            cores_per_mbps: 0.0,
        };
        r.duration_epochs = 2 + t % 3;
        r.arrival_epoch = t / 2;
        orch.submit(r);
    }
    let (mut admitted, mut abandoned, mut peak) = (0, 0, 0);
    for _ in 0..30 {
        let out = orch.step().unwrap();
        admitted += out.newly_admitted.len();
        abandoned += out.abandoned.len();
        peak = peak.max(orch.monitored_series());
        assert!(
            orch.monitored_series() <= (orch.active_tenants().len() + orch.queue_len()) * n_bs,
            "epoch {}: {} series for {} active + {} queued tenants",
            out.epoch,
            orch.monitored_series(),
            orch.active_tenants().len(),
            orch.queue_len()
        );
    }
    assert!(
        admitted > 0 && abandoned > 0 && peak > 0,
        "the run must churn: {admitted} admitted, {abandoned} abandoned, peak {peak}"
    );
    assert!(orch.active_tenants().is_empty() && orch.queue_len() == 0);
    assert_eq!(orch.monitored_series(), 0, "everyone left");
}

/// Two live requests under one tenant id are two records: each keeps its
/// own per-BS series from its own first simulated epoch on.
#[test]
fn monitor_history_belongs_to_the_request_not_the_id() {
    let model = one_bs_model(100.0);
    let n_bs = model.base_stations.len();
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Kac,
            seed: 32,
            ..Default::default()
        },
    );
    let mut later = SliceRequest::from_template(5, SliceTemplate::embb(), 0.2, 1.0, 1.0);
    later.arrival_epoch = 2;
    orch.submit(SliceRequest::from_template(
        5,
        SliceTemplate::embb(),
        0.2,
        1.0,
        1.0,
    ));
    orch.submit(later);
    orch.step().unwrap();
    orch.step().unwrap();
    assert_eq!(
        orch.monitored_series(),
        n_bs,
        "the later one is not simulated yet"
    );
    let out = orch.step().unwrap();
    assert_eq!(out.admitted, vec![5, 5]);
    assert_eq!(orch.monitored_series(), 2 * n_bs);
    assert_eq!(orch.monitored_epochs(5), vec![vec![3; n_bs], vec![1; n_bs]]);
}

/// A request rejected `k` epochs in a row carries one peak per BS from
/// each of them into its admission.
#[test]
fn a_request_is_admitted_with_its_rejected_epochs_history() {
    let model = one_bs_model(2.0);
    let n_bs = model.base_stations.len();
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Kac,
            seed: 33,
            ..Default::default()
        },
    );
    // Compute for one slice at a time: the second waits for the first to
    // expire after three epochs.
    for (t, arrival_epoch) in [(0, 0), (1, 1)] {
        let mut r = SliceRequest::from_template(t, SliceTemplate::embb(), 0.2, 1.0, 1.0);
        r.template.service = ServiceModel {
            base_cores: 1.5,
            cores_per_mbps: 0.0,
        };
        r.duration_epochs = 3;
        r.arrival_epoch = arrival_epoch;
        orch.submit(r);
    }
    let k = 2;
    assert_eq!(orch.step().unwrap().newly_admitted, vec![0]);
    for _ in 0..k {
        assert_eq!(orch.step().unwrap().rejected, vec![1]);
    }
    assert_eq!(orch.monitored_epochs(1), vec![vec![k; n_bs]]);
    assert_eq!(orch.step().unwrap().newly_admitted, vec![1]);
    assert_eq!(orch.monitored_epochs(1), vec![vec![k + 1; n_bs]]);
}

/// What a capacity event decides, without the wall-clock fields and with
/// the reserved-link map in ascending link id.
fn decided(out: &EpochOutcome) -> String {
    let mut links: Vec<(usize, u64)> = out
        .link_reserved_mbps
        .iter()
        .map(|(&gid, z)| (gid, z.to_bits()))
        .collect();
    links.sort_unstable();
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:x} {:x} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        out.admitted,
        out.rejected,
        out.abandoned,
        out.evicted,
        out.rehomed,
        out.net_revenue.to_bits(),
        out.penalty.to_bits(),
        out.violation_samples,
        out.deficit,
        out.bs_reserved_mhz,
        out.cu_reserved_cores,
        links,
        out.degradation,
        out.overcommit,
    )
}

/// A NaN capacity factor takes the resource away exactly as a factor of 0
/// does, for links and compute units alike, under the greedy and the exact
/// solver.
#[test]
fn nan_capacity_factor_reads_as_zero() {
    let run = |solver: SolverKind, kind: InfraEventKind| {
        let mut orch = Orchestrator::new(
            one_bs_model(100.0),
            OrchestratorConfig {
                solver,
                seed: 34,
                ..Default::default()
            },
        );
        orch.schedule_event(InfraEvent { epoch: 1, kind });
        let requests = (0..3)
            .map(|t| SliceRequest::from_template(t, SliceTemplate::embb(), 0.2, 2.0, 1.0))
            .collect();
        let mut outcomes = Vec::new();
        orch.run(requests, 4, |out| {
            assert!(out.net_revenue.is_finite(), "{:?}", out.net_revenue);
            outcomes.push(decided(out));
            std::ops::ControlFlow::Continue(())
        })
        .expect("the horizon runs");
        outcomes
    };
    for solver in [SolverKind::Kac, SolverKind::Benders] {
        for event in [
            |factor| InfraEventKind::CuCapacityLoss { cu: 0, factor },
            |factor| InfraEventKind::LinkDegradation { link: 0, factor },
        ] {
            assert_eq!(
                run(solver, event(f64::NAN)),
                run(solver, event(0.0)),
                "{solver:?} {:?}",
                event(f64::NAN)
            );
        }
    }
}

/// A request with each of its quantities at a hostile value, or with a
/// degenerate diurnal modulation, arriving beside three ordinary ones under
/// the greedy and the exact solver: `step` refuses it on arrival with its
/// fault, nothing panics, revenue stays finite, and the ordinary requests
/// are decided exactly as in a run without it.
#[test]
fn hostile_requests_are_refused_on_arrival() {
    type Edit = fn(&mut SliceRequest, f64);
    let quantities: [(&str, Edit); 8] = [
        ("template.reward", |r, v| r.template.reward = v),
        ("template.delay_budget_us", |r, v| {
            r.template.delay_budget_us = v
        }),
        ("template.sla_mbps", |r, v| r.template.sla_mbps = v),
        ("template.service.base_cores", |r, v| {
            r.template.service.base_cores = v
        }),
        ("template.service.cores_per_mbps", |r, v| {
            r.template.service.cores_per_mbps = v
        }),
        ("true_mean_mbps", |r, v| r.true_mean_mbps = v),
        ("true_sigma_mbps", |r, v| r.true_sigma_mbps = v),
        ("penalty", |r, v| r.penalty = v),
    ];
    let ordinary = |t| SliceRequest::from_template(t, SliceTemplate::embb(), 0.2, 2.0, 1.0);
    let mut hostile: Vec<(SliceRequest, RequestFault)> = Vec::new();
    for (field, edit) in quantities {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut r = ordinary(9);
            edit(&mut r, v);
            hostile.push((r, RequestFault::Quantity(field)));
        }
    }
    for diurnal in [(0.5, 0), (0.5, 1), (f64::NAN, 24), (1.0, 24), (-0.1, 24)] {
        let mut r = ordinary(9);
        r.diurnal = Some(diurnal);
        hostile.push((r, RequestFault::Diurnal));
    }
    let run = |solver: SolverKind, extra: Option<SliceRequest>| {
        let mut orch = Orchestrator::new(
            one_bs_model(100.0),
            OrchestratorConfig {
                solver,
                season_epochs: 2,
                seed: 35,
                ..Default::default()
            },
        );
        let mut requests: Vec<SliceRequest> = (0..3).map(ordinary).collect();
        requests.extend(extra.map(|mut r| {
            r.arrival_epoch = 1;
            r
        }));
        let (mut outcomes, mut refused) = (Vec::new(), Vec::new());
        orch.run(requests, 6, |out| {
            assert!(out.net_revenue.is_finite(), "{:?}", out.net_revenue);
            outcomes.push(decided(out));
            refused.push(out.refused.clone());
            std::ops::ControlFlow::Continue(())
        })
        .expect("the horizon runs");
        (outcomes, refused)
    };
    for solver in [SolverKind::Kac, SolverKind::Benders] {
        let (without, none) = run(solver, None);
        assert!(none.iter().all(Vec::is_empty));
        for (r, fault) in &hostile {
            let label = format!("{solver:?} {fault:?} {:?}", r.diurnal);
            assert_eq!(r.fault(), Some(*fault), "{label}");
            let (with, refused) = run(solver, Some(r.clone()));
            assert_eq!(refused[1], vec![(9, *fault)], "{label}");
            assert_eq!(refused.concat().len(), 1, "{label}: refused once");
            assert_eq!(with, without, "{label}");
        }
    }
}
