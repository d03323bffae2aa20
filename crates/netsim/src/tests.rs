//! Tests for traffic generation, the middlebox classifier and the epoch
//! engine.

use crate::engine::{run_epoch, Flow};
use crate::middlebox::classify;
use crate::traffic::TrafficGenerator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------- middlebox

#[test]
fn middlebox_forwards_within_reservation() {
    let v = classify(10.0, 50.0, 25.0);
    assert_eq!(v.served, 10.0);
    assert_eq!(v.shaped, 0.0);
    assert_eq!(v.deficit, 0.0);
    assert!(!v.violated());
}

#[test]
fn middlebox_shapes_over_sla_without_violation() {
    // Tenant exceeds its SLA: excess dropped, no operator violation as long
    // as the reservation covers the SLA.
    let v = classify(70.0, 50.0, 50.0);
    assert_eq!(v.served, 50.0);
    assert_eq!(v.shaped, 20.0);
    assert_eq!(v.deficit, 0.0);
    assert!(!v.violated());
}

#[test]
fn middlebox_buffers_within_sla_above_reservation() {
    // Overbooked: in-SLA load above the reservation ⇒ violation.
    let v = classify(40.0, 50.0, 25.0);
    assert_eq!(v.served, 25.0);
    assert_eq!(v.shaped, 0.0);
    assert_eq!(v.deficit, 15.0);
    assert!(v.violated());
    assert!((v.deficit_fraction() - 15.0 / 40.0).abs() < 1e-12);
}

#[test]
fn middlebox_combined_over_sla_and_over_reservation() {
    let v = classify(80.0, 50.0, 30.0);
    assert_eq!(v.shaped, 30.0); // 80 → 50
    assert_eq!(v.served, 30.0);
    assert_eq!(v.deficit, 20.0); // 50 − 30
}

#[test]
fn middlebox_idle_flow() {
    let v = classify(0.0, 50.0, 0.0);
    assert_eq!(v.deficit_fraction(), 0.0);
    assert!(!v.violated());
}

proptest! {
    /// Conservation: offered = served + shaped + deficit, all nonnegative.
    #[test]
    fn prop_middlebox_conserves(
        offered in 0.0f64..500.0,
        sla in 0.0f64..200.0,
        frac in 0.0f64..1.0,
    ) {
        let reservation = sla * frac;
        let v = classify(offered, sla, reservation);
        prop_assert!(v.served >= 0.0 && v.shaped >= 0.0 && v.deficit >= 0.0);
        prop_assert!((v.served + v.shaped + v.deficit - v.offered).abs() < 1e-9);
        prop_assert!(v.served <= reservation + 1e-12);
        // Full reservation (no overbooking) can never violate.
        let nv = classify(offered, sla, sla);
        prop_assert_eq!(nv.deficit, 0.0);
    }
}

// ------------------------------------------------------------------ traffic

#[test]
fn deterministic_generator_is_flat() {
    let g = TrafficGenerator::gaussian(10.0, 0.0);
    let mut r = rng(1);
    for t in 0..50 {
        assert_eq!(g.sample(t, &mut r), 10.0);
    }
}

#[test]
fn gaussian_mean_and_spread() {
    let g = TrafficGenerator::gaussian(100.0, 10.0);
    let mut r = rng(2);
    let n = 20_000;
    let samples: Vec<f64> = (0..n).map(|t| g.sample(t, &mut r)).collect();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
    assert!((var.sqrt() - 10.0).abs() < 0.5, "std {}", var.sqrt());
}

#[test]
fn samples_never_negative() {
    let g = TrafficGenerator::gaussian(1.0, 50.0); // heavy truncation
    let mut r = rng(3);
    for t in 0..2000 {
        assert!(g.sample(t, &mut r) >= 0.0);
    }
}

#[test]
fn diurnal_modulates_mean() {
    let g = TrafficGenerator::gaussian(100.0, 0.0).with_diurnal(0.5, 24);
    // At σ = 0 a sample is the instantaneous mean.
    let mut r = rng(0);
    let mut mean = |t| g.sample(t, &mut r);
    // Peak of sin at a quarter period.
    assert!((mean(6) - 150.0).abs() < 1.0);
    assert!((mean(18) - 50.0).abs() < 1.0);
    assert!((mean(0) - 100.0).abs() < 1e-9);
    // Periodicity.
    assert_eq!(mean(5), mean(5 + 24));
}

#[test]
fn generator_reproducible_with_same_seed() {
    let g = TrafficGenerator::gaussian(50.0, 5.0);
    let a: Vec<f64> = {
        let mut r = rng(9);
        (0..20).map(|t| g.sample(t, &mut r)).collect()
    };
    let b: Vec<f64> = {
        let mut r = rng(9);
        (0..20).map(|t| g.sample(t, &mut r)).collect()
    };
    assert_eq!(a, b);
}

#[test]
#[should_panic(expected = "amplitude")]
fn diurnal_rejects_amplitude_one() {
    TrafficGenerator::gaussian(1.0, 0.0).with_diurnal(1.0, 24);
}

// ------------------------------------------------------------------- engine

#[test]
fn epoch_engine_reports_peaks_and_violations() {
    let flows = vec![
        Flow {
            key: (0, 0),
            sla_mbps: 50.0,
            reservation_mbps: 50.0,
            generator: TrafficGenerator::gaussian(25.0, 0.0),
        },
        Flow {
            key: (1, 0),
            sla_mbps: 50.0,
            reservation_mbps: 10.0, // overbooked below the offered load
            generator: TrafficGenerator::gaussian(25.0, 0.0),
        },
    ];
    let mut r = rng(4);
    let rep = run_epoch(&flows, 12, 0, &mut r);
    assert_eq!(rep.flows.len(), 2);
    assert_eq!(rep.flows[0].peak_offered, 25.0);
    assert_eq!((rep.flows[0].samples, rep.flows[1].samples), (12, 12));
    assert_eq!(rep.flows[0].violated_samples, 0);
    assert_eq!(rep.flows[1].violated_samples, 12);
    assert!((rep.flows[1].worst_deficit_fraction - 15.0 / 25.0).abs() < 1e-12);
    assert_eq!(rep.next_sample_index, 12);
}

#[test]
fn epoch_engine_threads_sample_index() {
    // With a diurnal generator the phase must continue across epochs.
    let flows = vec![Flow {
        key: (0, 0),
        sla_mbps: 1e9,
        reservation_mbps: 1e9,
        generator: TrafficGenerator::gaussian(100.0, 0.0).with_diurnal(0.5, 24),
    }];
    let mut r = rng(5);
    let rep1 = run_epoch(&flows, 12, 0, &mut r);
    let rep2 = run_epoch(&flows, 12, rep1.next_sample_index, &mut r);
    // First epoch covers the rising half (peak at t=6 ⇒ 150); the second
    // covers the falling half (trough at t=18 ⇒ 50).
    assert!(rep1.flows[0].peak_offered > 149.0);
    assert!(rep2.flows[0].peak_offered < 101.0);
}

#[test]
fn epoch_engine_shared_sines_match_per_sample_draws() {
    // `run_epoch` computes each period's sines once per epoch; every draw
    // must equal the generator's own per-sample `sample`, bit for bit.
    let gens = [
        TrafficGenerator::gaussian(40.0, 4.0).with_diurnal(0.3, 24),
        TrafficGenerator::gaussian(10.0, 2.0),
        TrafficGenerator::gaussian(30.0, 0.0).with_diurnal(0.5, 7),
        TrafficGenerator::gaussian(20.0, 6.0).with_diurnal(0.6, 24),
    ];
    let flows: Vec<Flow> = gens
        .iter()
        .enumerate()
        .map(|(i, g)| Flow {
            key: (i as u32, 0),
            sla_mbps: 1e9,
            reservation_mbps: 1e9,
            generator: g.clone(),
        })
        .collect();
    let (samples, first) = (12, 1_000);
    let rep = run_epoch(&flows, samples, first, &mut rng(9));
    let mut r = rng(9);
    for (flow, got) in flows.iter().zip(&rep.flows) {
        let draws: Vec<f64> = (0..samples as u64)
            .map(|s| flow.generator.sample(first + s, &mut r))
            .collect();
        let peak = draws.iter().copied().fold(0.0f64, f64::max);
        let sum: f64 = draws.iter().sum();
        assert_eq!(got.peak_offered.to_bits(), peak.to_bits());
        assert_eq!(got.mean_offered.to_bits(), (sum / samples as f64).to_bits());
    }
}

#[test]
fn epoch_engine_mean_tracks_generator() {
    let flows = vec![Flow {
        key: (0, 0),
        sla_mbps: 1e9,
        reservation_mbps: 1e9,
        generator: TrafficGenerator::gaussian(40.0, 4.0),
    }];
    let mut r = rng(6);
    let rep = run_epoch(&flows, 2000, 0, &mut r);
    assert!((rep.flows[0].mean_offered - 40.0).abs() < 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine summaries are internally consistent for arbitrary flows.
    #[test]
    fn prop_engine_consistent(
        mean in 0.0f64..100.0,
        sigma in 0.0f64..30.0,
        sla in 1.0f64..100.0,
        res_frac in 0.0f64..1.0,
        samples in 1usize..64,
        seed in 0u64..100,
    ) {
        let flows = vec![Flow {
            key: (0, 0),
            sla_mbps: sla,
            reservation_mbps: sla * res_frac,
            generator: TrafficGenerator::gaussian(mean, sigma),
        }];
        let mut r = rng(seed);
        let rep = run_epoch(&flows, samples, 0, &mut r);
        let f = &rep.flows[0];
        prop_assert!(f.peak_offered >= f.mean_offered - 1e-9);
        prop_assert!(f.violated_samples <= f.samples);
        prop_assert!(f.worst_deficit_fraction >= 0.0 && f.worst_deficit_fraction <= 1.0);
        prop_assert!(f.total_served >= 0.0 && f.total_deficit >= 0.0);
        // Served can never exceed reservation per sample.
        prop_assert!(f.total_served <= sla * res_frac * samples as f64 + 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Additional edge cases
// ---------------------------------------------------------------------------

#[test]
fn middlebox_exact_boundaries() {
    // load == z == Λ: everything forwarded, nothing shaped or violated.
    let v = classify(50.0, 50.0, 50.0);
    assert_eq!((v.served, v.shaped, v.deficit), (50.0, 0.0, 0.0));
    // Reservation of exactly zero with offered load inside the SLA.
    let v = classify(10.0, 50.0, 0.0);
    assert_eq!(v.deficit, 10.0);
    assert_eq!(v.deficit_fraction(), 1.0);
}

#[test]
fn gaussian_with_zero_mean_stays_at_zero_floor() {
    let g = TrafficGenerator::gaussian(0.0, 1.0);
    let mut r = rng(40);
    for t in 0..200 {
        assert!(g.sample(t, &mut r) >= 0.0);
    }
}

#[test]
fn diurnal_peak_to_trough_ratio() {
    let g = TrafficGenerator::gaussian(100.0, 0.0).with_diurnal(0.8, 40);
    let mut r = rng(0);
    let means: Vec<f64> = (0..40).map(|t| g.sample(t, &mut r)).collect();
    let peak = means.iter().copied().fold(0.0f64, f64::max);
    let trough = means.iter().copied().fold(f64::INFINITY, f64::min);
    assert!((peak - 180.0).abs() < 1.0);
    assert!((trough - 20.0).abs() < 1.0);
}

#[test]
fn engine_empty_flow_list() {
    let mut r = rng(41);
    let rep = run_epoch(&[], 12, 0, &mut r);
    assert!(rep.flows.is_empty());
    assert_eq!(rep.next_sample_index, 12);
}

#[test]
#[should_panic(expected = "at least one sample")]
fn engine_rejects_zero_samples() {
    let mut r = rng(42);
    run_epoch(&[], 0, 0, &mut r);
}

#[test]
fn flow_report_worst_deficit_mbps_tracks_peak_violation() {
    let flows = vec![Flow {
        key: (0, 0),
        sla_mbps: 50.0,
        reservation_mbps: 10.0,
        generator: TrafficGenerator::gaussian(30.0, 0.0),
    }];
    let mut r = rng(43);
    let rep = run_epoch(&flows, 5, 0, &mut r);
    assert_eq!(rep.flows[0].worst_deficit_mbps, 20.0);
}
