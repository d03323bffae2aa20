//! The simulation driver: expands a [`ScenarioSpec`] into a workload, runs
//! it through the orchestrator's horizon loop
//! ([`ovnes::orchestrator::Orchestrator::run`]) and aggregates the metrics
//! pipeline into a [`ScenarioReport`].

use crate::faults::FaultPlan;
use crate::metrics::{CdfSummary, ScenarioReport};
use crate::workload::WorkloadSpec;
use ovnes::orchestrator::{Orchestrator, OrchestratorConfig};
use ovnes::slice::SliceRequest;
use ovnes::solver::{AcrrError, Degradation, SolveBudget, SolverKind};
use ovnes_obs::trace::phase;
use ovnes_topology::operators::{testbed_model, GeneratorConfig, NetworkModel, Operator};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::Instant;

/// Which data-plane model a scenario runs on.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// A generated operator topology (paper Fig. 4, scaled).
    Generated {
        /// Operator to model (N1/N2/N3).
        operator: Operator,
        /// Generator knobs (scale, seed, k-paths).
        topology: GeneratorConfig,
    },
    /// The §5 testbed data plane (Fig. 7 / Table 2).
    Testbed,
}

/// How the request stream is produced.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Expanded from a seeded [`WorkloadSpec`].
    Generated(WorkloadSpec),
    /// An explicit, hand-written request list (e.g. the testbed day).
    Explicit(Vec<SliceRequest>),
}

/// One fully specified, independently runnable scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Display / preset name (flows into reports and fingerprints).
    pub name: String,
    /// Data-plane model.
    pub model: ModelSpec,
    /// The request stream.
    pub workload: Workload,
    /// Horizon length in epochs.
    pub horizon_epochs: usize,
    /// AC-RR algorithm for the overbooking runs.
    pub solver: SolverKind,
    /// Overbooking on/off (off ⇒ the no-overbooking baseline).
    pub overbooking: bool,
    /// Enforce head-roomed-forecast reservations (§2.1.3 adaptive mode).
    pub adaptive_reservations: bool,
    /// Re-apply patience handed to the orchestrator (bounds the pending
    /// queue under churn; see `OrchestratorConfig::reapply_epochs`).
    pub reapply_epochs: u32,
    /// Ignored: every epoch's branch and bound is one best-first loop on
    /// the calling thread. The field and [`ScenarioBuilder::threads`]
    /// survive only because the frozen `benchmark/` workloads still name
    /// them; the next change to `benchmark/` drops those uses, and both
    /// with them.
    pub threads: usize,
    /// Ignored, as [`ScenarioSpec::threads`] is (the search has no rounds
    /// to size); [`ScenarioBuilder::round_width`] likewise.
    pub round_width: usize,
    /// Master seed: drives both the workload expansion and the simulator.
    pub seed: u64,
    /// Per-epoch solve budget (pivots / nodes / rounds / opt-in wall
    /// clock). Exhaustion degrades the epoch decision instead of failing
    /// it; counter-only budgets keep the report deterministic.
    pub budget: SolveBudget,
    /// Optional seeded fault-injection plan: infrastructure events are
    /// expanded deterministically and scheduled before the horizon starts,
    /// and `lp_fault_seed` (if set) arms LP warm-path fault injection on
    /// the MILP-backed epoch solves.
    pub faults: Option<FaultPlan>,
    /// Ignored: under KAC every horizon carries the vetting slave's warm
    /// chain from epoch to epoch
    /// ([`solve_epoch`](ovnes::solver::solve_epoch)), whatever this says.
    /// The field and [`ScenarioBuilder::incremental`] survive only because
    /// the frozen `benchmark/` workloads still name them; the next change
    /// to `benchmark/` drops those uses, and both with them.
    pub incremental: bool,
}

impl ScenarioSpec {
    /// Starts a builder for a named scenario with library defaults: a
    /// harness-scale Romanian (N1) topology, the default generated
    /// workload, a 2-day horizon, the KAC solver, overbooking on.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                model: ModelSpec::Generated {
                    operator: Operator::Romanian,
                    topology: GeneratorConfig {
                        scale: 0.03,
                        seed: 18,
                        k_paths: 4,
                    },
                },
                workload: Workload::Generated(WorkloadSpec::default()),
                horizon_epochs: 48,
                solver: SolverKind::Kac,
                overbooking: true,
                adaptive_reservations: true,
                reapply_epochs: 8,
                threads: 1,
                round_width: 8,
                seed: 7,
                budget: SolveBudget::default(),
                faults: None,
                incremental: false,
            },
        }
    }
}

/// Chainable construction for [`ScenarioSpec`] — the small API every
/// preset (and every future workload PR) builds on.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Generated operator topology at `scale` of the paper's size.
    pub fn operator(mut self, operator: Operator, scale: f64) -> Self {
        self.spec.model = ModelSpec::Generated {
            operator,
            topology: GeneratorConfig {
                scale,
                seed: 18,
                k_paths: 4,
            },
        };
        self
    }

    /// Run on the §5 testbed data plane instead of a generated topology.
    pub(crate) fn testbed(mut self) -> Self {
        self.spec.model = ModelSpec::Testbed;
        self
    }

    /// Replace the whole workload spec.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.spec.workload = Workload::Generated(workload);
        self
    }

    /// Mutate the current generated workload in place (no-op after
    /// `ScenarioBuilder::requests`).
    pub fn tune_workload(mut self, f: impl FnOnce(&mut WorkloadSpec)) -> Self {
        if let Workload::Generated(ref mut w) = self.spec.workload {
            f(w);
        }
        self
    }

    /// Use an explicit request list instead of a generated workload.
    pub(crate) fn requests(mut self, requests: Vec<SliceRequest>) -> Self {
        self.spec.workload = Workload::Explicit(requests);
        self
    }

    /// Horizon in epochs.
    pub fn horizon(mut self, epochs: usize) -> Self {
        self.spec.horizon_epochs = epochs;
        self
    }

    /// Horizon in 24-epoch days.
    pub fn days(self, days: usize) -> Self {
        self.horizon(days * 24)
    }

    /// AC-RR algorithm.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.spec.solver = solver;
        self
    }

    /// Overbooking on/off.
    pub fn overbooking(mut self, on: bool) -> Self {
        self.spec.overbooking = on;
        self
    }

    /// Adaptive (forecast-floor) reservations on/off.
    pub fn adaptive_reservations(mut self, on: bool) -> Self {
        self.spec.adaptive_reservations = on;
        self
    }

    /// Rejected-request patience in epochs.
    pub fn reapply_epochs(mut self, epochs: u32) -> Self {
        self.spec.reapply_epochs = epochs;
        self
    }

    /// Does nothing: the branch and bound runs on the calling thread. Kept
    /// only because the frozen `benchmark/` workloads still call it (see
    /// [`ScenarioSpec::threads`]).
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Does nothing: the branch and bound has no rounds. Kept only because
    /// the frozen `benchmark/` workloads still call it (see
    /// [`ScenarioSpec::round_width`]).
    pub fn round_width(self, _round_width: usize) -> Self {
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Per-epoch solve budget (graceful degradation on exhaustion).
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.spec.budget = budget;
        self
    }

    /// Attach a seeded fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.spec.faults = Some(plan);
        self
    }

    /// Does nothing: the cross-epoch carry is always on. Kept only
    /// because the frozen `benchmark/` workloads still call it (see
    /// [`ScenarioSpec::incremental`]).
    pub fn incremental(self, _on: bool) -> Self {
        self
    }

    /// Finalises the spec.
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }
}

/// Builds the scenario's data-plane model.
pub fn build_model(spec: &ScenarioSpec) -> NetworkModel {
    match &spec.model {
        ModelSpec::Generated { operator, topology } => NetworkModel::generate(*operator, topology),
        ModelSpec::Testbed => testbed_model(),
    }
}

/// Runs one scenario end to end. A generated model whose scale is outside
/// `(0, 1]` or whose `k_paths` is 0 is refused as [`AcrrError::Config`]
/// before anything is built.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, AcrrError> {
    if let ModelSpec::Generated { topology, .. } = &spec.model {
        if !(topology.scale > 0.0 && topology.scale <= 1.0) {
            return Err(AcrrError::Config("topology scale must be in (0, 1]"));
        }
        if topology.k_paths == 0 {
            return Err(AcrrError::Config("topology needs k_paths >= 1"));
        }
    }
    run_scenario_on(spec, build_model(spec))
}

/// The orchestrator of `spec` on `model`: the spec's solver, policy,
/// patience, seed, budget and LP fault plan, with the infrastructure events
/// of its fault plan scheduled (recoveries past the horizon never fire).
pub fn build_orchestrator(spec: &ScenarioSpec, model: NetworkModel) -> Orchestrator {
    let events = spec.faults.as_ref().map(|plan| {
        plan.expand(
            model.base_stations.len(),
            model.graph.links().count(),
            model.compute_units.len(),
            spec.horizon_epochs as u32,
        )
    });
    let config = OrchestratorConfig {
        solver: spec.solver,
        overbooking: spec.overbooking,
        adaptive_reservations: spec.adaptive_reservations,
        reapply_epochs: spec.reapply_epochs,
        seed: spec.seed,
        budget: spec.budget,
        lp_fault: spec
            .faults
            .as_ref()
            .and_then(|plan| plan.lp_fault_seed)
            .map(ovnes_lp::FaultConfig::chaos),
        ..Default::default()
    };
    let mut orch = Orchestrator::new(model, config);
    for event in events.into_iter().flatten() {
        orch.schedule_event(event);
    }
    orch
}

/// Runs one scenario on its built model.
fn run_scenario_on(spec: &ScenarioSpec, model: NetworkModel) -> Result<ScenarioReport, AcrrError> {
    let _scenario_span = ovnes_obs::span!("scenario");
    let t0 = Instant::now();
    let generate = phase("generate");
    let requests: Vec<SliceRequest> = match &spec.workload {
        Workload::Generated(w) => w.generate(spec.seed, spec.horizon_epochs),
        Workload::Explicit(reqs) => reqs
            .iter()
            .filter(|r| (r.arrival_epoch as usize) < spec.horizon_epochs)
            .cloned()
            .collect(),
    };
    let arrivals = requests.len();
    let phase_generate_seconds = generate.close();

    // Static capacities, captured before the model moves into the
    // orchestrator.
    let bs_capacity: Vec<f64> = model.base_stations.iter().map(|b| b.capacity_mhz).collect();
    let cu_capacity: Vec<f64> = model.compute_units.iter().map(|c| c.cores).collect();
    let link_capacity: Vec<f64> = model.graph.links().map(|(_, l)| l.capacity_mbps).collect();
    let mut orch = build_orchestrator(spec, model);

    // Streaming aggregation state.
    let mut accepted = 0usize;
    let mut abandoned = 0usize;
    let mut reward = 0.0f64;
    let mut penalty = 0.0f64;
    let mut cumulative = 0.0f64;
    let mut trajectory = Vec::with_capacity(spec.horizon_epochs);
    let mut violated = 0usize;
    let mut samples = 0usize;
    let mut worst_drop = 0.0f64;
    let mut peak_active = 0usize;
    let mut active_sum = 0usize;
    let mut bs_res_sum = vec![0.0f64; bs_capacity.len()];
    let mut cu_res_sum = vec![0.0f64; cu_capacity.len()];
    let mut link_res_sum: HashMap<usize, f64> = HashMap::new();
    let mut lp_solves = 0usize;
    let mut lp_pivots = 0usize;
    let mut lp_refactorizations = 0usize;
    let mut carry_fallback_epochs = 0usize;
    let mut carry_cold_restarts = 0usize;
    let mut carry_certified = 0usize;
    let mut carry_certified_perturbed = 0usize;
    let mut degraded_epochs = 0usize;
    let mut deferred_epochs = 0usize;
    let mut evictions = 0usize;
    let mut rehomes = 0usize;
    let mut eviction_penalty = 0.0f64;
    let mut infra_events = 0usize;
    let mut solver_errors = 0usize;
    // Latency percentiles come from an obs histogram fed with each epoch's
    // `decision_seconds` — recorded always (the clock read exists
    // regardless), so percentiles are present even with observability
    // off. Wall-clock telemetry: never fingerprinted.
    let mut decision_latency = ovnes_obs::Histogram::new();
    let mut phase_seconds = ovnes::orchestrator::EpochPhaseSeconds::default();

    // `Orchestrator::run` submits each request at its arrival epoch, so the
    // pending queue holds re-applicants (bounded by the patience knob)
    // rather than the entire multi-day future. Metrics aggregate epoch by
    // epoch instead of materialising the whole trajectory.
    orch.run(requests, spec.horizon_epochs, |out| {
        accepted += out.newly_admitted.len();
        abandoned += out.abandoned.len();
        reward += out.reward;
        penalty += out.penalty;
        cumulative += out.net_revenue;
        trajectory.push(cumulative);
        violated += out.violation_samples.0;
        samples += out.violation_samples.1;
        worst_drop = worst_drop.max(out.worst_drop_fraction);
        peak_active = peak_active.max(out.admitted.len());
        active_sum += out.admitted.len();
        for (b, &r) in out.bs_reserved_mhz.iter().enumerate() {
            bs_res_sum[b] += r;
        }
        for (c, &r) in out.cu_reserved_cores.iter().enumerate() {
            cu_res_sum[c] += r;
        }
        for (&gid, &r) in &out.link_reserved_mbps {
            *link_res_sum.entry(gid).or_insert(0.0) += r;
        }
        lp_solves += out.solver_stats.lp_solves;
        lp_pivots += out.solver_stats.lp.total_pivots();
        lp_refactorizations += out.solver_stats.lp.refactorizations;
        carry_cold_restarts += out.solver_stats.carry_cold_restarts;
        carry_certified += out.solver_stats.carry_certified;
        carry_certified_perturbed += out.solver_stats.carry_certified_perturbed;
        carry_fallback_epochs += usize::from(out.carry_fallback);
        if out.degradation != Degradation::None {
            degraded_epochs += 1;
        }
        if out.degradation == Degradation::Deferred {
            deferred_epochs += 1;
        }
        evictions += out.evicted.len();
        rehomes += out.rehomed.len();
        eviction_penalty += out.eviction_penalty;
        infra_events += out.infra_events;
        solver_errors += usize::from(out.solver_error.is_some());
        decision_latency.record_secs(out.decision_seconds);
        phase_seconds.accumulate(&out.phase_seconds);
        ControlFlow::Continue(())
    })?;

    let epochs = spec.horizon_epochs.max(1) as f64;
    let utilisation = |sums: &[f64], caps: &[f64]| {
        CdfSummary::from_samples(
            sums.iter()
                .zip(caps)
                .map(|(&s, &c)| s / epochs / c.max(1e-9))
                .collect(),
        )
    };
    // Only links that ever carried a reservation enter the transport CDF
    // (idle backbone links would drown the signal in zeros); iterate in
    // link-id order so the sample vector — and the fingerprint — is
    // deterministic.
    let mut link_util: Vec<f64> = Vec::new();
    let mut used: Vec<usize> = link_res_sum.keys().copied().collect();
    used.sort_unstable();
    for gid in used {
        let cap = link_capacity.get(gid).copied().unwrap_or(1e-9);
        link_util.push(link_res_sum[&gid] / epochs / cap.max(1e-9));
    }

    Ok(ScenarioReport {
        name: spec.name.clone(),
        epochs: spec.horizon_epochs,
        arrivals,
        accepted,
        abandoned,
        acceptance_ratio: if arrivals > 0 {
            accepted as f64 / arrivals as f64
        } else {
            0.0
        },
        reward,
        penalty,
        net_revenue: reward - penalty,
        revenue_trajectory: trajectory,
        violated_samples: violated,
        total_samples: samples,
        violation_rate: if samples > 0 {
            violated as f64 / samples as f64
        } else {
            0.0
        },
        worst_drop_fraction: worst_drop,
        peak_active,
        mean_active: active_sum as f64 / epochs,
        bs_utilisation: utilisation(&bs_res_sum, &bs_capacity),
        cu_utilisation: utilisation(&cu_res_sum, &cu_capacity),
        link_utilisation: CdfSummary::from_samples(link_util),
        lp_solves,
        lp_pivots,
        lp_refactorizations,
        carry_fallback_epochs,
        carry_cold_restarts,
        carry_certified,
        carry_certified_perturbed,
        degraded_epochs,
        deferred_epochs,
        evictions,
        rehomes,
        eviction_penalty,
        infra_events,
        solver_errors,
        deterministic: spec.budget.is_deterministic(),
        decision_latency_percentiles: [
            decision_latency.quantile_secs(0.50),
            decision_latency.quantile_secs(0.90),
            decision_latency.quantile_secs(0.99),
            decision_latency.quantile_secs(0.999),
        ],
        phase_generate_seconds,
        phase_seconds,
        wall_seconds: t0.elapsed().as_secs_f64(),
    })
}
