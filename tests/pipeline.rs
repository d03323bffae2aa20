//! Pipeline integration: monitoring → forecasting → reservation adaptation.
//! Verifies the learning loop that gives overbooking its gains: as history
//! accumulates, reservations shrink from the conservative prior toward the
//! true peak demand, freeing capacity.

use ovnes::prelude::*;
use ovnes_forecast::predict_next;
use ovnes_netsim::{run_epoch, Flow, TrafficGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn monitor_to_forecast_loop_converges() {
    // Simulate 30 epochs of a slice's flat Gaussian demand, record peaks,
    // and check the forecast settles near the true per-epoch peak.
    let mut peaks: Vec<f64> = Vec::new();
    let mut rng = StdRng::seed_from_u64(1);
    let gen = TrafficGenerator::gaussian(20.0, 2.0);
    let mut sample_index = 0;
    for _ in 0..30 {
        let flows = vec![Flow {
            key: (0, 0),
            sla_mbps: 1e9,
            reservation_mbps: 1e9,
            generator: gen.clone(),
        }];
        let report = run_epoch(&flows, 12, sample_index, &mut rng);
        sample_index = report.next_sample_index;
        peaks.push(report.flows[0].peak_offered);
    }
    let pred = predict_next(&peaks, 6, 0.05);
    // True per-epoch peak of 12 samples from N(20, 2) is ≈ 20 + 1.6·2 ≈ 23.
    assert!(
        (pred.value - 23.0).abs() < 3.0,
        "forecast {} should approximate the expected epoch peak",
        pred.value
    );
    assert!(
        pred.sigma < 0.5,
        "flat traffic should be fairly predictable"
    );
}

#[test]
fn seasonal_demand_is_learnt_by_holt_winters() {
    // A diurnal tenant: the forecast must track the cycle so the
    // orchestrator can release capacity at night.
    let mut peaks: Vec<f64> = Vec::new();
    let mut rng = StdRng::seed_from_u64(2);
    let gen = TrafficGenerator::gaussian(30.0, 1.0).with_diurnal(0.6, 24 * 12);
    let mut sample_index = 0;
    for _ in 0..24 * 4 {
        let flows = vec![Flow {
            key: (0, 0),
            sla_mbps: 1e9,
            reservation_mbps: 1e9,
            generator: gen.clone(),
        }];
        let report = run_epoch(&flows, 12, sample_index, &mut rng);
        sample_index = report.next_sample_index;
        peaks.push(report.flows[0].peak_offered);
    }
    // Each epoch of the fourth day, forecast from the three days or more
    // before it: the Holt-Winters path, with a daily season of 24 epochs.
    let forecast: Vec<f64> = (24 * 3..24 * 4)
        .map(|t| predict_next(&peaks[..t], 24, 0.05).value)
        .collect();
    // The forecast cycle must span a meaningful fraction of the true
    // amplitude (quiet vs busy hours differ by ~3x here).
    let lo = forecast.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = forecast.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        hi / lo > 1.5,
        "forecast must reproduce the diurnal swing ({lo:.1}..{hi:.1})"
    );
}

#[test]
fn reservations_shrink_as_the_orchestrator_learns() {
    // One eMBB tenant at 30% load on a small network: the first epoch
    // reserves the conservative prior; after learning, the reservation
    // should drop toward the observed peak.
    let model = NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.03,
            seed: 5,
            k_paths: 3,
        },
    );
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            seed: 5,
            // Enforce §2.1.3's adaptive reservations so z tracks the
            // forecast instead of filling free capacity up to Λ.
            adaptive_reservations: true,
            ..Default::default()
        },
    );
    orch.submit(SliceRequest::from_template(
        0,
        SliceTemplate::embb(),
        0.3,
        2.0,
        1.0,
    ));

    let first = orch.step().unwrap();
    let first_reserved: f64 = first.bs_reserved_mhz.iter().sum();
    let mut last_reserved = first_reserved;
    for _ in 0..8 {
        let out = orch.step().unwrap();
        last_reserved = out.bs_reserved_mhz.iter().sum();
    }
    assert!(
        last_reserved < 0.7 * first_reserved,
        "reservations should shrink with learning: first {first_reserved:.2} MHz, last {last_reserved:.2} MHz"
    );
}

#[test]
fn middlebox_only_violates_when_overbooked_below_load() {
    // Sanity: with reservations pinned to the SLA (baseline), the pipeline
    // never reports violations even under peak bursts.
    let model = NetworkModel::generate(
        Operator::Swiss,
        &GeneratorConfig {
            scale: 0.03,
            seed: 6,
            k_paths: 3,
        },
    );
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            overbooking: false,
            seed: 6,
            ..Default::default()
        },
    );
    for t in 0..2 {
        orch.submit(SliceRequest::from_template(
            t,
            SliceTemplate::embb(),
            0.8,
            10.0,
            4.0,
        ));
    }
    for _ in 0..5 {
        let out = orch.step().unwrap();
        assert_eq!(out.violation_samples.0, 0);
    }
}
