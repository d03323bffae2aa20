//! Direct probes: the harness times one public call of a layer itself, on
//! inputs sized by the workload, outside any horizon. They run only with
//! `--trace 1`, after everything that feeds an end-to-end metric.

use crate::stats::median;
use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::{solve_controlled, SolveControls};
use ovnes_forecast::predict_next;
use ovnes_scenario::driver::build_model;
use ovnes_scenario::ScenarioSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// History lengths `predict_next` is timed at: its cost per call grows
/// with the history, which is what makes epoch latency drift.
pub const HISTORY_LENGTHS: [usize; 3] = [32, 128, 512];
/// The orchestrator's `season_epochs` and `min_sigma` defaults.
const SEASON: usize = 6;
const MIN_SIGMA: f64 = 0.01;
/// Tenants of the synthetic instance, as in `crates/bench`'s `instance_at`.
const PROBE_TENANTS: usize = 24;
/// Seed of the `predict_next` series: the probes time one call on a fixed
/// input, whatever `--seed` the horizons ran under.
const SERIES_SEED: u64 = 1;

pub struct Probes {
    /// Microseconds per `predict_next` call, per [`HISTORY_LENGTHS`] entry.
    pub predict_next_us: [f64; 3],
    pub instance_build_us: f64,
    pub cold_solve_ms: f64,
}

/// Median seconds per call of `f` over `batches` batches of `calls`.
fn seconds_per_call<T>(batches: usize, calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            started.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&per_call)
}

/// A noisy seasonal peak-load series like the monitor's histories.
fn seasonal_series(len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(SERIES_SEED);
    (0..len)
        .map(|t| {
            let phase = std::f64::consts::TAU * t as f64 / SEASON as f64;
            50.0 * (1.0 + 0.3 * phase.sin()) + rng.gen_range(-2.0..2.0)
        })
        .collect()
}

fn probe_tenants(n_bs: usize) -> Vec<TenantInput> {
    let classes = [SliceClass::Embb, SliceClass::Mmtc, SliceClass::Urllc];
    (0..PROBE_TENANTS)
        .map(|i| {
            let t = SliceTemplate::for_class(classes[i % 3]);
            TenantInput {
                tenant: i as u32,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward,
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: vec![0.3 * t.sla_mbps; n_bs],
                sigma: 0.2,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect()
}

/// The instance is sized by the workload's topology, solver and budget.
pub fn run(spec: &ScenarioSpec) -> Probes {
    let predict_next_us = HISTORY_LENGTHS.map(|len| {
        let series = seasonal_series(len);
        1e6 * seconds_per_call(15, 20, || {
            predict_next(black_box(&series), SEASON, MIN_SIGMA)
        })
    });

    let model = build_model(spec);
    let tenants = probe_tenants(model.base_stations.len());
    let build = || {
        AcrrInstance::build(
            &model,
            tenants.clone(),
            PathPolicy::Spread,
            spec.overbooking,
            None,
        )
    };
    let instance_build_us = 1e6 * seconds_per_call(15, 4, build);

    let instance = build();
    let controls = SolveControls {
        kind: spec.solver,
        threads: spec.threads,
        round_width: spec.round_width,
        budget: spec.budget,
        lp_fault: None,
        refactor_interval: 0,
    };
    let cold_solve_ms = 1e3 * seconds_per_call(5, 1, || solve_controlled(&instance, &controls));

    Probes {
        predict_next_us,
        instance_build_us,
        cold_solve_ms,
    }
}
