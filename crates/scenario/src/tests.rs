//! Unit tests: workload statistics, determinism, driver aggregation, and
//! sweep worker-count invariance on tiny scenarios.

use crate::driver::{run_scenario, ScenarioSpec};
use crate::experiment::{
    homogeneous, run_on, run_testbed, testbed_requests, Scenario, SigmaLevel, TESTBED_EPOCHS,
};
use crate::metrics::CdfSummary;
use crate::presets;
use crate::sweep::run_sweep;
use crate::workload::{
    ArrivalProcess, BurstEvent, ClassMix, DiurnalProfile, DurationModel, WorkloadSpec,
};
use ovnes::orchestrator::{Orchestrator, OrchestratorConfig};
use ovnes::slice::SliceClass;
use ovnes::solver::SolverKind;
use ovnes_topology::operators::{testbed_model, Operator};

fn tiny_spec(name: &str, seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder(name)
        .operator(Operator::Romanian, 0.02)
        .horizon(8)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.0 };
            w.duration.mean_epochs = 4.0;
        })
        .reapply_epochs(3)
        .seed(seed)
        .build()
}

#[test]
fn workload_generation_is_deterministic_per_seed() {
    let w = WorkloadSpec::default();
    let a = w.generate(42, 48);
    let b = w.generate(42, 48);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.tenant, y.tenant);
        assert_eq!(x.arrival_epoch, y.arrival_epoch);
        assert_eq!(x.duration_epochs, y.duration_epochs);
        assert_eq!(x.true_mean_mbps.to_bits(), y.true_mean_mbps.to_bits());
        assert_eq!(x.true_sigma_mbps.to_bits(), y.true_sigma_mbps.to_bits());
        assert_eq!(x.template.class, y.template.class);
    }
    let c = w.generate(43, 48);
    let same = a.len() == c.len()
        && a.iter()
            .zip(&c)
            .all(|(x, y)| x.true_mean_mbps.to_bits() == y.true_mean_mbps.to_bits());
    assert!(!same, "different seeds must produce different workloads");
}

#[test]
fn poisson_arrival_rate_matches_mean() {
    let w = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate: 3.0 },
        diurnal: None,
        bursts: Vec::new(),
        ..WorkloadSpec::default()
    };
    let horizon = 2000;
    let reqs = w.generate(7, horizon);
    let per_epoch = reqs.len() as f64 / horizon as f64;
    assert!(
        (per_epoch - 3.0).abs() < 0.15,
        "empirical rate {per_epoch} too far from 3.0"
    );
}

#[test]
fn diurnal_modulation_shapes_arrivals() {
    let w = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate: 4.0 },
        diurnal: Some(DiurnalProfile {
            amplitude: 0.9,
            period_epochs: 24,
            peak_epoch: 12.0,
        }),
        bursts: Vec::new(),
        ..WorkloadSpec::default()
    };
    let reqs = w.generate(9, 24 * 50);
    let mut by_hour = [0usize; 24];
    for r in &reqs {
        by_hour[(r.arrival_epoch % 24) as usize] += 1;
    }
    let peak: usize = (10..=14).map(|h| by_hour[h]).sum();
    let trough: usize = [22usize, 23, 0, 1, 2].iter().map(|&h| by_hour[h]).sum();
    assert!(
        peak > 3 * trough,
        "diurnal peak {peak} should dwarf trough {trough}"
    );
}

#[test]
fn class_mix_shares_are_respected() {
    let w = WorkloadSpec {
        mix: ClassMix {
            urllc: 0.6,
            mmtc: 0.2,
            embb: 0.2,
        },
        diurnal: None,
        ..WorkloadSpec::default()
    };
    let reqs = w.generate(5, 1500);
    let urllc = reqs
        .iter()
        .filter(|r| r.template.class == SliceClass::Urllc)
        .count();
    let share = urllc as f64 / reqs.len() as f64;
    assert!(
        (share - 0.6).abs() < 0.05,
        "uRLLC share {share} too far from 0.6"
    );
}

#[test]
fn flash_crowd_bursts_land_in_their_window() {
    let w = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate: 0.0 },
        diurnal: None,
        bursts: vec![BurstEvent {
            start_epoch: 10,
            duration_epochs: 3,
            extra_rate: 8.0,
            class: SliceClass::Embb,
            alpha: 0.7,
            slice_epochs: 2,
        }],
        ..WorkloadSpec::default()
    };
    let reqs = w.generate(3, 30);
    assert!(!reqs.is_empty(), "burst must produce arrivals");
    for r in &reqs {
        assert!((10..13).contains(&r.arrival_epoch));
        assert_eq!(r.template.class, SliceClass::Embb);
        assert_eq!(r.duration_epochs, 2);
    }
}

#[test]
fn mmpp_burst_state_raises_the_rate() {
    let w = WorkloadSpec {
        arrivals: ArrivalProcess::Mmpp {
            base_rate: 1.0,
            burst_rate: 20.0,
            p_enter_burst: 0.05,
            p_exit_burst: 0.3,
        },
        diurnal: None,
        ..WorkloadSpec::default()
    };
    let reqs = w.generate(13, 2000);
    // Stationary burst share ≈ 0.05/(0.05+0.3) = 1/7 ⇒ mean rate ≈ 3.7,
    // clearly above the pure background rate.
    let per_epoch = reqs.len() as f64 / 2000.0;
    assert!(
        per_epoch > 2.0,
        "MMPP mean rate {per_epoch} shows no burst contribution"
    );
}

#[test]
fn durations_are_positive_and_capped() {
    let w = WorkloadSpec {
        duration: DurationModel {
            mean_epochs: 5.0,
            max_epochs: 20,
        },
        ..WorkloadSpec::default()
    };
    let reqs = w.generate(17, 300);
    assert!(!reqs.is_empty());
    let mean: f64 = reqs.iter().map(|r| r.duration_epochs as f64).sum::<f64>() / reqs.len() as f64;
    for r in &reqs {
        assert!((1..=20).contains(&r.duration_epochs));
    }
    assert!(
        (mean - 5.0).abs() < 1.5,
        "mean duration {mean} too far from 5"
    );
}

#[test]
fn cdf_summary_quantiles() {
    let s = CdfSummary::from_samples(vec![0.4, 0.1, 0.2, 0.3, 0.5]);
    assert_eq!(s.count, 5);
    assert!((s.p50 - 0.3).abs() < 1e-12);
    assert!((s.max - 0.5).abs() < 1e-12);
    assert!((s.mean - 0.3).abs() < 1e-12);
    let empty = CdfSummary::from_samples(vec![]);
    assert_eq!(empty.count, 0);
    assert_eq!(empty.max, 0.0);
}

#[test]
fn driver_report_is_internally_consistent() {
    let report = run_scenario(&tiny_spec("tiny", 3)).expect("scenario runs");
    assert_eq!(report.epochs, 8);
    assert_eq!(report.revenue_trajectory.len(), 8);
    assert!(report.arrivals > 0, "workload generated no requests");
    assert!(report.accepted <= report.arrivals);
    assert!((0.0..=1.0).contains(&report.acceptance_ratio));
    assert!((0.0..=1.0).contains(&report.violation_rate));
    assert!(report.violated_samples <= report.total_samples);
    assert!(
        (report.net_revenue - (report.reward - report.penalty)).abs() < 1e-9,
        "net revenue must be reward − penalty"
    );
    assert!(report.peak_active as f64 >= report.mean_active);
    assert!(report.lp_solves > 0, "epoch solves must be counted");
    let last = *report.revenue_trajectory.last().unwrap();
    assert!(
        (last - report.net_revenue).abs() < 1e-9,
        "trajectory must end at the total"
    );
}

#[test]
fn scenario_runs_are_deterministic_per_seed() {
    let a = run_scenario(&tiny_spec("det", 5)).unwrap();
    let b = run_scenario(&tiny_spec("det", 5)).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    let c = run_scenario(&tiny_spec("det", 6)).unwrap();
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds should diverge"
    );
}

#[test]
fn sweep_is_bit_identical_at_any_worker_count() {
    let specs = vec![tiny_spec("s0", 1), tiny_spec("s1", 2), tiny_spec("s2", 3)];
    let r1 = run_sweep(&specs, 1).unwrap();
    let r2 = run_sweep(&specs, 2).unwrap();
    let r4 = run_sweep(&specs, 4).unwrap();
    assert_eq!(r1.fingerprint(), r2.fingerprint());
    assert_eq!(r1.fingerprint(), r4.fingerprint());
    assert_eq!(r1.render(), r2.render());
    assert_eq!(r1.render(), r4.render());
    assert_eq!(r1.scenarios.len(), 3);
    assert!(r1.total_arrivals > 0);
}

#[test]
fn every_preset_name_resolves_and_builds() {
    for name in presets::PRESET_NAMES {
        let spec = presets::preset(name).unwrap_or_else(|| panic!("preset {name} must resolve"));
        assert_eq!(spec.name, name);
        assert!(spec.horizon_epochs > 0);
    }
    assert!(presets::preset("no-such-preset").is_none());
}

#[test]
fn ablation_pair_differs_only_in_overbooking() {
    let on = presets::overbooking_ablation(true);
    let off = presets::overbooking_ablation(false);
    assert!(on.overbooking && !off.overbooking);
    assert_eq!(on.seed, off.seed);
    assert_eq!(on.horizon_epochs, off.horizon_epochs);
    // Identical workload expansion: same stream of requests.
    let (crate::driver::Workload::Generated(w_on), crate::driver::Workload::Generated(w_off)) =
        (&on.workload, &off.workload)
    else {
        panic!("ablation pair must use generated workloads");
    };
    let a = w_on.generate(on.seed, on.horizon_epochs);
    let b = w_off.generate(off.seed, off.horizon_epochs);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.arrival_epoch, y.arrival_epoch);
        assert_eq!(x.true_mean_mbps.to_bits(), y.true_mean_mbps.to_bits());
    }
}

/// The `testbed-day` preset is the Fig. 8 day of `run_testbed`: same
/// revenue bit for bit epoch by epoch, same admissions, same SLA samples —
/// at the preset's seed and at `fig8`'s, where a finite re-apply patience
/// would part the two from 20:00 on.
#[test]
fn testbed_day_preset_is_the_fig8_day() {
    for seed in [7, 18] {
        let spec = ScenarioSpec {
            seed,
            ..presets::testbed_day()
        };
        let report = run_scenario(&spec).expect("preset runs");
        let day = run_testbed(SolverKind::Benders, true, seed).expect("testbed day runs");
        let mut cumulative = 0.0;
        let running: Vec<u64> = day
            .iter()
            .map(|o| {
                cumulative += o.net_revenue;
                cumulative.to_bits()
            })
            .collect();
        let trajectory: Vec<u64> = report
            .revenue_trajectory
            .iter()
            .map(|r| r.to_bits())
            .collect();
        assert_eq!(trajectory, running, "seed {seed}");
        let newly: usize = day.iter().map(|o| o.newly_admitted.len()).sum();
        assert_eq!(report.accepted, newly, "seed {seed}");
        let violated: usize = day.iter().map(|o| o.violation_samples.0).sum();
        let total: usize = day.iter().map(|o| o.violation_samples.1).sum();
        assert_eq!(
            (report.violated_samples, report.total_samples),
            (violated, total),
            "seed {seed}"
        );
    }
}

#[test]
fn smoke_presets_run_on_every_operator() {
    for op in Operator::all() {
        let report = run_scenario(&presets::smoke(op)).expect("smoke scenario runs");
        assert!(report.arrivals > 0);
        assert!(report.total_samples > 0);
    }
}

// ------------------------------------------ the §4.3 runner and the Fig. 8 day

#[test]
fn experiment_runner_converges() {
    let model = testbed_model();
    let mut scenario = Scenario::new(homogeneous(
        SliceClass::Embb,
        4,
        0.3,
        SigmaLevel::Quarter,
        1.0,
    ));
    scenario.solver = SolverKind::Kac;
    scenario.max_epochs = 16;
    scenario.min_epochs = 8;
    let summary = run_on(&scenario, model).unwrap();
    assert!(summary.mean_net_revenue > 0.0);
    assert!(summary.epochs <= 16);
    assert!(summary.mean_admitted > 0.0);
}

#[test]
fn testbed_requests_follow_the_schedule() {
    let reqs = testbed_requests();
    assert_eq!(reqs.len(), 9);
    for (i, r) in reqs.iter().enumerate() {
        assert_eq!(r.arrival_epoch, (i * 2) as u32);
        assert!((r.true_mean_mbps - r.template.sla_mbps / 2.0).abs() < 1e-9);
    }
    assert_eq!(reqs[0].template.class, SliceClass::Urllc);
    assert_eq!(reqs[3].template.class, SliceClass::Mmtc);
    assert_eq!(reqs[6].template.class, SliceClass::Embb);
}

#[test]
fn testbed_overbooking_beats_baseline() {
    let ours = run_testbed(SolverKind::Benders, true, 11).unwrap();
    let base = run_testbed(SolverKind::Benders, false, 11).unwrap();
    assert_eq!(ours.len(), TESTBED_EPOCHS);
    let final_ours = ours.last().unwrap();
    let final_base = base.last().unwrap();
    assert!(
        final_ours.admitted.len() > final_base.admitted.len(),
        "overbooking must squeeze in extra slices ({} vs {})",
        final_ours.admitted.len(),
        final_base.admitted.len()
    );
    let rev_ours: f64 = ours.iter().map(|o| o.net_revenue).sum();
    let rev_base: f64 = base.iter().map(|o| o.net_revenue).sum();
    assert!(
        rev_ours > rev_base,
        "cumulative revenue {rev_ours} vs {rev_base}"
    );
    // The paper reports negligible SLA footprint: the total violation rate
    // should stay small.
    let violated: usize = ours.iter().map(|o| o.violation_samples.0).sum();
    let total: usize = ours.iter().map(|o| o.violation_samples.1).sum();
    assert!(total > 0);
    assert!((violated as f64 / total as f64) < 0.1);
}

#[test]
fn testbed_urllc_capacity_narrative() {
    // With full-SLA reservations only one uRLLC fits the 16-core edge
    // (2 BS × 25 Mb/s × 0.2 cores = 10 cores each).
    let base = run_testbed(SolverKind::Benders, false, 11).unwrap();
    // After epoch 4 all three uRLLC requests have arrived.
    let at5 = &base[5];
    let urllc_admitted = at5.admitted.iter().filter(|&&t| t < 3).count();
    assert_eq!(urllc_admitted, 1, "baseline admits exactly one uRLLC");
    // Overbooking admits two (reservations adapt to ~half load).
    let ours = run_testbed(SolverKind::Benders, true, 11).unwrap();
    let at5 = &ours[5];
    let urllc_admitted = at5.admitted.iter().filter(|&&t| t < 3).count();
    assert_eq!(urllc_admitted, 2, "overbooking admits a second uRLLC");
}

/// A request's arrival epoch alone decides when, and in which order, it is
/// considered: the Fig. 8 day with every request submitted before epoch 0
/// decides exactly as `Orchestrator::run`, which submits each at its epoch.
/// (Without the arrival-order sort in `step`, the up-front run considers a
/// new arrival ahead of older re-applicants, which reshuffles the random
/// draws of the rejected flows and moves the overbooking run's
/// reservations.)
#[test]
fn upfront_and_batched_submission_decide_the_same() {
    for overbooking in [true, false] {
        let config = || OrchestratorConfig {
            solver: SolverKind::Benders,
            overbooking,
            adaptive_reservations: true,
            seed: 18,
            ..Default::default()
        };
        let mut upfront = Orchestrator::new(testbed_model(), config());
        for r in testbed_requests() {
            upfront.submit(r);
        }
        let upfront: Vec<_> = (0..TESTBED_EPOCHS)
            .map(|_| upfront.step().unwrap())
            .collect();
        let mut batched = Vec::new();
        Orchestrator::new(testbed_model(), config())
            .run(testbed_requests(), TESTBED_EPOCHS, |out| {
                batched.push(out.clone());
                std::ops::ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(batched.len(), TESTBED_EPOCHS);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (u, b) in upfront.iter().zip(&batched) {
            assert_eq!(u.admitted, b.admitted, "epoch {}", u.epoch);
            assert_eq!(u.net_revenue.to_bits(), b.net_revenue.to_bits());
            assert_eq!(
                bits(&u.bs_reserved_mhz),
                bits(&b.bs_reserved_mhz),
                "overbooking {overbooking}, epoch {}",
                u.epoch
            );
        }
    }
}

/// The horizon loop stops right after the outcome its observer breaks on,
/// and never submits a request whose epoch it did not reach.
#[test]
fn run_stops_when_the_observer_breaks() {
    let mut orch = Orchestrator::new(testbed_model(), OrchestratorConfig::default());
    let mut seen = Vec::new();
    orch.run(testbed_requests(), TESTBED_EPOCHS, |out| {
        seen.push(out.epoch);
        if out.epoch == 4 {
            std::ops::ControlFlow::Break(())
        } else {
            std::ops::ControlFlow::Continue(())
        }
    })
    .unwrap();
    assert_eq!(seen, [0, 1, 2, 3, 4]);
    assert_eq!(orch.epoch(), 5);
    // Requests 0, 1, 2 arrived at epochs 0, 2, 4; 3..8 were never submitted.
    assert_eq!(orch.active_tenants().len() + orch.queue_len(), 3);
}
