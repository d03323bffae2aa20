//! The measuring loop: timed set-up builds, timed repetitions of the
//! horizon with tracing off, the reference run through `run_scenario`,
//! and the gate that holds the harness's own epoch loop to it.
//!
//! It is a closed loop with one client: the harness submits an epoch's
//! arrivals, calls `Orchestrator::step` and waits for the outcome before
//! the next epoch.

use crate::stats::parse_vm_hwm_kb;
use crate::workloads::ARRIVAL_SEED;
use ovnes::orchestrator::{EpochOutcome, Orchestrator, OrchestratorConfig};
use ovnes::slice::SliceRequest;
use ovnes::solver::{AcrrError, Degradation};
use ovnes_lp::LpStats;
use ovnes_obs::{Registry, Trace};
use ovnes_scenario::driver::{build_model, Workload};
use ovnes_scenario::{run_scenario, ScenarioReport, ScenarioSpec};
use std::time::{Duration, Instant};

/// Set-up is cheap on the small topologies, so one build is all noise.
/// A batch of builds, at least this many and for at least this long, is
/// timed before every repetition: the samples span the run, and a slow
/// episode of the machine disturbs a part of them, not the median.
const SETUP_BATCH_BUILDS: usize = 7;
const SETUP_BATCH_TIME: Duration = Duration::from_millis(150);
/// Fewest timed repetitions, however short `--seconds` is: the issue's
/// three. The noise filter is the minimum over repetitions, which needs
/// one that no slow spell of the machine touched. Only `churn_kac_10x`,
/// whose horizon takes 5 s, needs the floor at the declared 10 s.
const MIN_REPS: usize = 3;

/// Everything a horizon needs before epoch 0, and how long the parts took.
struct Setup {
    orch: Orchestrator,
    requests: Vec<SliceRequest>,
    total_s: f64,
    topology_s: f64,
    workload_s: f64,
    base_stations: usize,
    paths: usize,
}

/// The workload's request stream in arrival order, generated under
/// [`ARRIVAL_SEED`] where `run_scenario` would use `spec.seed`.
fn request_stream(spec: &ScenarioSpec) -> Vec<SliceRequest> {
    let mut requests = match &spec.workload {
        Workload::Generated(w) => w.generate(ARRIVAL_SEED, spec.horizon_epochs),
        Workload::Explicit(requests) => requests.clone(),
    };
    requests.sort_by_key(|r| r.arrival_epoch);
    requests
}

/// Builds the model, the request stream, the fault schedule and the
/// orchestrator exactly as `ovnes_scenario::run_scenario_on` does.
fn build_setup(spec: &ScenarioSpec) -> Setup {
    let t0 = Instant::now();
    let model = build_model(spec);
    let topology_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let requests = request_stream(spec);
    let workload_s = t1.elapsed().as_secs_f64();

    let base_stations = model.base_stations.len();
    let paths = model.paths.iter().flatten().map(Vec::len).sum();
    let links = model.graph.links().count();
    let compute_units = model.compute_units.len();
    let config = OrchestratorConfig {
        solver: spec.solver,
        overbooking: spec.overbooking,
        adaptive_reservations: spec.adaptive_reservations,
        reapply_epochs: spec.reapply_epochs,
        round_width: spec.round_width,
        threads: spec.threads,
        seed: spec.seed,
        budget: spec.budget,
        incremental: spec.incremental,
        lp_fault: spec
            .faults
            .as_ref()
            .and_then(|plan| plan.lp_fault_seed)
            .map(ovnes_lp::FaultConfig::chaos),
        ..Default::default()
    };
    let mut orch = Orchestrator::new(model, config);
    if let Some(plan) = &spec.faults {
        let horizon = spec.horizon_epochs as u32;
        for event in plan.expand(base_stations, links, compute_units, horizon) {
            orch.schedule_event(event);
        }
    }
    Setup {
        orch,
        requests,
        total_s: t0.elapsed().as_secs_f64(),
        topology_s,
        workload_s,
        base_stations,
        paths,
    }
}

/// The timed set-up builds of a run; the metrics are their medians.
#[derive(Default)]
pub struct SetupSamples {
    pub total_s: Vec<f64>,
    pub topology_s: Vec<f64>,
    pub workload_s: Vec<f64>,
    pub base_stations: usize,
    pub paths: usize,
}

impl SetupSamples {
    fn time_batch(&mut self, spec: &ScenarioSpec) {
        let started = Instant::now();
        let mut builds = 0;
        while builds < SETUP_BATCH_BUILDS || started.elapsed() < SETUP_BATCH_TIME {
            // Each build is dropped before the next: set-up must not raise
            // the peak resident set the repetitions are read against.
            let setup = build_setup(spec);
            self.total_s.push(setup.total_s);
            self.topology_s.push(setup.topology_s);
            self.workload_s.push(setup.workload_s);
            (self.base_stations, self.paths) = (setup.base_stations, setup.paths);
            builds += 1;
        }
    }
}

/// What one horizon decided and counted. Everything here is deterministic:
/// two repetitions of a spec must produce equal tallies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub arrivals: usize,
    pub accepted: usize,
    pub abandoned: usize,
    pub evictions: usize,
    pub rehomes: usize,
    pub degraded_epochs: usize,
    pub deferred_epochs: usize,
    pub failed_epochs: usize,
    pub overcommit_epochs: usize,
    pub infra_events: usize,
    pub active_sum: usize,
    pub reward: f64,
    pub penalty: f64,
    pub violated_samples: usize,
    pub total_samples: usize,
    pub lp_solves: usize,
    pub lp: LpStats,
    pub recycled_cuts: usize,
    pub carry_cold_restarts: usize,
    pub carry_certified: usize,
    pub carry_certified_perturbed: usize,
    pub churn_carry_attempts: usize,
}

impl Tally {
    fn observe(&mut self, out: &EpochOutcome) {
        let deferred = out.degradation == Degradation::Deferred;
        self.accepted += out.newly_admitted.len();
        self.abandoned += out.abandoned.len();
        self.evictions += out.evicted.len();
        self.rehomes += out.rehomed.len();
        self.degraded_epochs += usize::from(out.degradation != Degradation::None);
        self.deferred_epochs += usize::from(deferred);
        self.failed_epochs += usize::from(deferred || out.solver_error.is_some());
        // The bound `tests_chaos.rs` asserts on its own preset: enforced
        // radio and compute reservations exceed capacity by no more than
        // the deficit the relaxation priced.
        let over = |reserved: f64, deficit: f64| reserved > deficit + 1e-6;
        self.overcommit_epochs += usize::from(
            !deferred
                && (over(out.overcommit.0, out.deficit.0) || over(out.overcommit.2, out.deficit.2)),
        );
        self.infra_events += out.infra_events;
        self.active_sum += out.admitted.len();
        self.reward += out.reward;
        self.penalty += out.penalty;
        self.violated_samples += out.violation_samples.0;
        self.total_samples += out.violation_samples.1;
        self.lp_solves += out.solver_stats.lp_solves;
        self.lp.absorb(&out.solver_stats.lp);
        self.recycled_cuts += out.solver_stats.recycled_cuts;
        self.carry_cold_restarts += out.solver_stats.carry_cold_restarts;
        self.carry_certified += out.solver_stats.carry_certified;
        self.carry_certified_perturbed += out.solver_stats.carry_certified_perturbed;
        self.churn_carry_attempts += out.solver_stats.churn_carry_attempts;
    }

    pub fn net_revenue(&self) -> f64 {
        self.reward - self.penalty
    }
}

/// The aggregates the harness's own loop must reproduce: by name, as the
/// loop tallied them and as `run_scenario`'s report states them.
type GateRow = (&'static str, fn(&Tally) -> u64, fn(&ScenarioReport) -> u64);
const GATE: [GateRow; 11] = [
    ("accepted", |t| t.accepted as u64, |r| r.accepted as u64),
    ("abandoned", |t| t.abandoned as u64, |r| r.abandoned as u64),
    ("evictions", |t| t.evictions as u64, |r| r.evictions as u64),
    ("rehomes", |t| t.rehomes as u64, |r| r.rehomes as u64),
    (
        "degraded_epochs",
        |t| t.degraded_epochs as u64,
        |r| r.degraded_epochs as u64,
    ),
    (
        "deferred_epochs",
        |t| t.deferred_epochs as u64,
        |r| r.deferred_epochs as u64,
    ),
    ("lp_solves", |t| t.lp_solves as u64, |r| r.lp_solves as u64),
    (
        "lp_pivots",
        |t| t.lp.total_pivots() as u64,
        |r| r.lp_pivots as u64,
    ),
    (
        "net_revenue_bits",
        |t| t.net_revenue().to_bits(),
        |r| r.net_revenue.to_bits(),
    ),
    (
        "violated_samples",
        |t| t.violated_samples as u64,
        |r| r.violated_samples as u64,
    ),
    (
        "total_samples",
        |t| t.total_samples as u64,
        |r| r.total_samples as u64,
    ),
];

/// One timed repetition of the horizon.
pub struct Rep {
    /// Whole-horizon wall-clock: every `submit` and `step`.
    pub wall_s: f64,
    /// `step()` wall time per epoch.
    pub step_s: Vec<f64>,
    /// `EpochOutcome.decision_seconds` per epoch (0 where `step` failed).
    pub decision_s: Vec<f64>,
    pub tally: Tally,
}

/// The same loop as `run_scenario_on`: each epoch receives only its own
/// arrivals, then one `step()`, timed from outside.
fn run_rep(spec: &ScenarioSpec) -> Rep {
    let Setup {
        mut orch, requests, ..
    } = build_setup(spec);
    let mut tally = Tally {
        arrivals: requests.len(),
        ..Tally::default()
    };
    let mut step_s = Vec::with_capacity(spec.horizon_epochs);
    let mut decision_s = Vec::with_capacity(spec.horizon_epochs);
    let mut arrivals = requests.into_iter().peekable();
    let started = Instant::now();
    for epoch in 0..spec.horizon_epochs as u32 {
        while let Some(request) = arrivals.next_if(|r| r.arrival_epoch <= epoch) {
            orch.submit(request);
        }
        let step_started = Instant::now();
        let outcome = orch.step();
        step_s.push(step_started.elapsed().as_secs_f64());
        match outcome {
            Ok(out) => {
                decision_s.push(out.decision_seconds);
                tally.observe(&out);
            }
            Err(_) => {
                decision_s.push(0.0);
                tally.failed_epochs += 1;
            }
        }
    }
    Rep {
        wall_s: started.elapsed().as_secs_f64(),
        step_s,
        decision_s,
        tally,
    }
}

/// The run through `ovnes_scenario::run_scenario`: the decision oracle,
/// and with tracing on the source of the per-layer numbers.
pub struct Reference {
    pub report: ScenarioReport,
    /// Wall-clock around the whole `run_scenario` call.
    pub wall_s: f64,
    /// Spans and global metrics of the run; `None` with tracing off.
    pub trace: Option<(Trace, Registry)>,
}

fn run_reference(spec: &ScenarioSpec, traced: bool) -> Result<Reference, AcrrError> {
    ovnes_obs::set_enabled(traced);
    let started = Instant::now();
    let report = run_scenario(spec);
    let wall_s = started.elapsed().as_secs_f64();
    ovnes_obs::set_enabled(false);
    let trace = traced.then(|| {
        (
            ovnes_obs::trace::drain(),
            ovnes_obs::metrics::drain_global(),
        )
    });
    Ok(Reference {
        report: report?,
        wall_s,
        trace,
    })
}

/// Everything one benchmark run measured.
pub struct Measurement {
    pub setup: SetupSamples,
    pub reps: Vec<Rep>,
    /// `VmHWM` after the timed repetitions, before the reference run.
    pub peak_rss_mb: f64,
    pub reference: Reference,
    /// Gate failures; empty when the outputs are correct.
    pub mismatches: Vec<String>,
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Timed repetitions with tracing off for at least `seconds` of horizon
/// time, a batch of set-up builds before each, then the reference run
/// (traced or not).
pub fn measure(spec: &ScenarioSpec, seconds: f64, traced: bool) -> Result<Measurement, String> {
    ovnes_obs::set_enabled(false);
    let mut setup = SetupSamples::default();
    let mut reps = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < MIN_REPS || measured_s < seconds {
        setup.time_batch(spec);
        let rep = run_rep(spec);
        measured_s += rep.wall_s;
        reps.push(rep);
    }
    let peak_rss_mb = peak_rss_mb()?;

    // `run_scenario` is handed the stream as an explicit list: it would
    // generate it under `spec.seed`.
    let reference_spec = ScenarioSpec {
        workload: Workload::Explicit(request_stream(spec)),
        ..spec.clone()
    };
    let reference =
        run_reference(&reference_spec, traced).map_err(|e| format!("run_scenario failed: {e}"))?;

    let mut mismatches = Vec::new();
    let first = &reps[0].tally;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.tally != *first {
            mismatches.push(format!(
                "repetition {i} differs from repetition 0: {:?} vs {first:?}",
                rep.tally
            ));
        }
    }
    for (name, tallied, reported) in GATE {
        let (ours, theirs) = (tallied(first), reported(&reference.report));
        if ours != theirs {
            mismatches.push(format!(
                "{name}: harness loop {ours} != run_scenario {theirs}"
            ));
        }
    }
    Ok(Measurement {
        setup,
        reps,
        peak_rss_mb,
        reference,
        mismatches,
    })
}
