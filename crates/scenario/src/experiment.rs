//! The paper's evaluation in one place: the §4.3 simulation campaign
//! (Figs. 5-6, the §4.3.3 SLA footprint and the ablations), Fig. 4's
//! topologies, Table 1's engine check and the §5 testbed day (Fig. 8).
//!
//! Each figure is defined here once — its grid, its tenant counts and its
//! cell parameters. The `ovnes-bench` binaries print it at their defaults
//! ([`SEED`], [`CAMPAIGN_SCALE`], [`FIG4_SCALE`]) and
//! `tests/paper_figures.rs` pins every block they print.
//!
//! A campaign cell runs through the orchestrator's one horizon loop,
//! [`Orchestrator::run`]: every slice request arrives at epoch 0 (as the
//! paper does), and [`run_on`]'s observer stops the horizon once the mean
//! net revenue stabilises ("runs until the mean revenue has a standard
//! error lower than 2%") or at [`Scenario::max_epochs`]. It reports
//! steady-state revenue plus the SLA-violation footprint. The stop rule is
//! this observer's, not an orchestrator option.

use ovnes::orchestrator::{EpochOutcome, Orchestrator, OrchestratorConfig};
use ovnes::problem::{AcrrInstance, Allocation, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceRequest, SliceTemplate};
use ovnes::solver::{benders, AcrrError, SolverKind};
use ovnes_topology::operators::{testbed_model, GeneratorConfig, NetworkModel, Operator};
use std::ops::ControlFlow;

/// The bins' default `--seed`: topology generation and, for the SLA
/// footprint, the ablations and Fig. 8, the simulation.
pub const SEED: u64 = 18;

/// The bins' default `--scale` for the §4.3 campaign (Figs. 5-6, the SLA
/// footprint and the ablations).
pub const CAMPAIGN_SCALE: f64 = 0.04;

/// Traffic variability levels used in Fig. 5/6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaLevel {
    /// σ = 0 (deterministic).
    Zero,
    /// σ = λ̄/4.
    Quarter,
    /// σ = λ̄/2.
    Half,
}

impl SigmaLevel {
    /// σ as a fraction of the mean load.
    pub(crate) fn fraction(self) -> f64 {
        match self {
            SigmaLevel::Zero => 0.0,
            SigmaLevel::Quarter => 0.25,
            SigmaLevel::Half => 0.5,
        }
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            SigmaLevel::Zero => "σ=0",
            SigmaLevel::Quarter => "σ=λ/4",
            SigmaLevel::Half => "σ=λ/2",
        }
    }
}

/// One tenant of a scenario.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Slice class (Table 1 template).
    pub class: SliceClass,
    /// Mean utilisation `α` so that `λ̄ = α·Λ`.
    pub alpha: f64,
    /// Load variability.
    pub sigma: SigmaLevel,
    /// Penalty factor `m` (`K = m·R`).
    pub penalty_factor: f64,
}

/// A full simulation cell, run on a given model by [`run_on`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The tenant population (all submitted at epoch 0).
    pub tenants: Vec<TenantSpec>,
    /// Solver for the overbooking runs.
    pub solver: SolverKind,
    /// Overbooking on/off (off = baseline).
    pub overbooking: bool,
    /// Stop when the revenue standard error falls below this fraction of
    /// the mean (paper: 2%).
    pub target_stderr: f64,
    /// Epoch bounds.
    pub min_epochs: usize,
    /// Hard cap on epochs.
    pub max_epochs: usize,
    /// Epochs discarded as warm-up before measuring.
    pub warmup_epochs: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Scenario {
    /// A reasonable default cell: KAC with overbooking, 16 to 48 epochs.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Scenario {
            tenants,
            solver: SolverKind::Kac,
            overbooking: true,
            target_stderr: 0.02,
            min_epochs: 16,
            max_epochs: 48,
            // The learning phase (prior → SES → Holt-Winters at 2 seasons)
            // takes ~12 epochs with the default 6-epoch season; measure
            // steady state only, as the paper does.
            warmup_epochs: 13,
            seed: 7,
        }
    }
}

/// Steady-state result of one cell.
#[derive(Debug, Clone)]
pub struct RevenueSummary {
    /// Mean per-epoch net revenue after warm-up.
    pub mean_net_revenue: f64,
    /// Epochs simulated (including warm-up).
    pub epochs: usize,
    /// Mean number of admitted tenants after warm-up.
    pub mean_admitted: f64,
    /// Fraction of (flow, sample) pairs violating their SLA, after warm-up.
    pub violation_rate: f64,
}

/// Runs one cell on `model` to revenue convergence.
pub fn run_on(scenario: &Scenario, model: NetworkModel) -> Result<RevenueSummary, AcrrError> {
    let config = OrchestratorConfig {
        solver: scenario.solver,
        overbooking: scenario.overbooking,
        seed: scenario.seed,
        ..Default::default()
    };
    let requests = scenario
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let template = SliceTemplate::for_class(spec.class);
            let mean = spec.alpha * template.sla_mbps;
            let sigma = spec.sigma.fraction() * mean;
            SliceRequest::from_template(i as u32, template, spec.alpha, sigma, spec.penalty_factor)
        })
        .collect();

    let mut revenues: Vec<f64> = Vec::new();
    let mut admitted: Vec<f64> = Vec::new();
    let mut violated = 0usize;
    let mut samples = 0usize;
    let mut epochs = 0usize;

    Orchestrator::new(model, config).run(requests, scenario.max_epochs, |out| {
        epochs += 1;
        if epochs > scenario.warmup_epochs {
            revenues.push(out.net_revenue);
            admitted.push(out.admitted.len() as f64);
            violated += out.violation_samples.0;
            samples += out.violation_samples.1;
        }
        if epochs >= scenario.min_epochs && revenues.len() >= 4 {
            let (mean, stderr) = mean_stderr(&revenues);
            let converged = if mean.abs() > 1e-9 {
                stderr / mean.abs() < scenario.target_stderr
            } else {
                stderr < 1e-9 // flat zero revenue (nothing admitted)
            };
            if converged {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    })?;

    Ok(RevenueSummary {
        mean_net_revenue: mean_stderr(&revenues).0,
        epochs,
        mean_admitted: admitted.iter().sum::<f64>() / admitted.len().max(1) as f64,
        violation_rate: if samples > 0 {
            violated as f64 / samples as f64
        } else {
            0.0
        },
    })
}

fn mean_stderr(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, f64::INFINITY);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Homogeneous population (Fig. 5): `n` tenants of one class, common α/σ/m.
pub fn homogeneous(
    class: SliceClass,
    n: usize,
    alpha: f64,
    sigma: SigmaLevel,
    penalty_factor: f64,
) -> Vec<TenantSpec> {
    (0..n)
        .map(|_| TenantSpec {
            class,
            alpha,
            sigma,
            penalty_factor,
        })
        .collect()
}

/// Heterogeneous mix (Fig. 6): `beta`% of class `b`, the rest class `a`,
/// all at `λ̄ = 0.2Λ` as in the paper.
pub(crate) fn heterogeneous(
    class_a: SliceClass,
    class_b: SliceClass,
    n: usize,
    beta_percent: f64,
    sigma: SigmaLevel,
    penalty_factor: f64,
) -> Vec<TenantSpec> {
    assert!((0.0..=100.0).contains(&beta_percent));
    let n_b = ((beta_percent / 100.0) * n as f64).round() as usize;
    (0..n)
        .map(|i| TenantSpec {
            class: if i < n_b { class_b } else { class_a },
            alpha: 0.2,
            sigma,
            penalty_factor,
        })
        .collect()
}

/// Relative revenue gain over the baseline, in percent (Fig. 5's y-axis).
pub fn revenue_gain_percent(ours: f64, baseline: f64) -> f64 {
    if baseline.abs() < 1e-9 {
        if ours.abs() < 1e-9 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (ours - baseline) / baseline * 100.0
    }
}

// ------------------------------------------------------ Figs. 5-6 cells

/// The topology of every campaign figure: `--scale` and `--seed`, up to 3
/// precomputed paths per (BS, CU) pair.
pub fn campaign_topology(scale: f64, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        scale,
        seed,
        k_paths: 3,
    }
}

/// Tenants in one Fig. 5 / Fig. 6 cell. The paper uses 10 on N1/N2 and 75
/// on the radio-rich N3; at harness scale 20 congest N3's radio the same
/// way.
pub(crate) fn tenants_on(operator: Operator) -> usize {
    if operator == Operator::Italian {
        20
    } else {
        10
    }
}

/// Runs the overbooking cell of Figs. 5-6: KAC, 18 to 22 epochs.
pub fn overbooking_cell(
    model: &NetworkModel,
    tenants: Vec<TenantSpec>,
) -> Result<RevenueSummary, AcrrError> {
    let mut cell = Scenario::new(tenants);
    cell.min_epochs = 18;
    cell.max_epochs = 22;
    run_on(&cell, model.clone())
}

/// Runs the no-overbooking cell of Figs. 5-6: full-SLA reservations admit
/// the same set every epoch, so 6 to 10 epochs with 2 of warm-up.
pub fn baseline_cell(
    model: &NetworkModel,
    tenants: Vec<TenantSpec>,
) -> Result<RevenueSummary, AcrrError> {
    let mut cell = Scenario::new(tenants);
    cell.overbooking = false;
    cell.min_epochs = 6;
    cell.max_epochs = 10;
    cell.warmup_epochs = 2;
    run_on(&cell, model.clone())
}

/// Fig. 5's α axis.
pub(crate) const FIG5_ALPHAS: [f64; 3] = [0.2, 0.5, 0.8];
/// Fig. 5's σ levels.
pub(crate) const FIG5_SIGMAS: [SigmaLevel; 2] = [SigmaLevel::Zero, SigmaLevel::Half];
/// Fig. 5's penalty factors m (`K = m·R`).
pub const FIG5_PENALTIES: [f64; 2] = [1.0, 16.0];

/// Fig. 5's overbooking cells `(α, σ, m)` of one class in print order: α,
/// then σ, then m. mMTC load is deterministic (Table 1), so its cells have
/// σ = 0 only.
pub fn fig5_grid(class: SliceClass) -> Vec<(f64, SigmaLevel, f64)> {
    let mut grid = Vec::new();
    for alpha in FIG5_ALPHAS {
        for sigma in FIG5_SIGMAS {
            if class == SliceClass::Mmtc && sigma != SigmaLevel::Zero {
                continue;
            }
            grid.extend(FIG5_PENALTIES.map(|m| (alpha, sigma, m)));
        }
    }
    grid
}

/// The population of Fig. 5's cell of `class` at `(α, σ, m)` on
/// `operator`.
pub fn fig5_tenants(
    operator: Operator,
    class: SliceClass,
    (alpha, sigma, m): (f64, SigmaLevel, f64),
) -> Vec<TenantSpec> {
    homogeneous(class, tenants_on(operator), alpha, sigma, m)
}

/// Runs Fig. 5's baseline of `class`, once per (operator, class): without
/// overbooking neither α, σ nor m changes admission (full-SLA
/// reservations, no violations), exactly as the paper notes
/// ("no-overbooking obtains a revenue equal to 3 monetary units
/// irrespective of the conditions").
pub fn fig5_baseline(model: &NetworkModel, class: SliceClass) -> Result<RevenueSummary, AcrrError> {
    let tenants = fig5_tenants(model.operator, class, (0.5, SigmaLevel::Zero, 1.0));
    baseline_cell(model, tenants)
}

/// Fig. 6's class mixes `(a, b)`: β % of class `b`, the rest class `a`.
pub const FIG6_MIXES: [(SliceClass, SliceClass); 3] = [
    (SliceClass::Embb, SliceClass::Mmtc),
    (SliceClass::Embb, SliceClass::Urllc),
    (SliceClass::Mmtc, SliceClass::Urllc),
];
/// Fig. 6's β axis, in percent.
pub const FIG6_BETAS: [f64; 5] = [0.0, 25.0, 50.0, 75.0, 100.0];
/// The σ of every Fig. 6 cell.
pub const FIG6_SIGMA: SigmaLevel = SigmaLevel::Quarter;
/// The penalty factor of every Fig. 6 cell.
pub const FIG6_PENALTY: f64 = 1.0;

/// The population of Fig. 6's cell at `mix` and `beta` on `operator`, run
/// both by [`overbooking_cell`] and by [`baseline_cell`].
pub fn fig6_tenants(
    operator: Operator,
    (a, b): (SliceClass, SliceClass),
    beta: f64,
) -> Vec<TenantSpec> {
    heterogeneous(a, b, tenants_on(operator), beta, FIG6_SIGMA, FIG6_PENALTY)
}

// ------------------------------------ the SLA footprint and the ablations

/// What an `embb_cell` saw after its warm-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmbbCell {
    /// Net revenue summed over the measured epochs.
    pub revenue: f64,
    /// Epochs measured.
    pub measured: usize,
    /// Tenants admitted in the last epoch.
    pub admitted: usize,
    /// Violated monitoring samples over the measured epochs.
    pub violated: usize,
    /// Monitoring samples over the measured epochs.
    pub samples: usize,
    /// Worst single-sample traffic-drop fraction over the measured epochs.
    pub worst_drop: f64,
}

impl EmbbCell {
    /// Violated over total samples (0 when nothing was sampled).
    pub fn violation_rate(&self) -> f64 {
        if self.samples > 0 {
            self.violated as f64 / self.samples as f64
        } else {
            0.0
        }
    }

    /// Net revenue per measured epoch.
    pub fn mean_revenue(&self) -> f64 {
        self.revenue / self.measured as f64
    }
}

/// The ablation and SLA-footprint cell: 10 eMBB tenants at `λ̄ = 0.2Λ`
/// with `σ = sigma_frac·λ̄` and penalty factor `m`, all arriving at epoch 0,
/// run for `epochs` epochs under `config`. The first `warmup` epochs are
/// not measured.
pub(crate) fn embb_cell(
    model: &NetworkModel,
    config: OrchestratorConfig,
    sigma_frac: f64,
    m: f64,
    epochs: usize,
    warmup: usize,
) -> Result<EmbbCell, AcrrError> {
    let template = SliceTemplate::embb();
    let mean = 0.2 * template.sla_mbps;
    let requests = (0..10)
        .map(|t| SliceRequest::from_template(t, template.clone(), 0.2, sigma_frac * mean, m))
        .collect();
    let mut cell = EmbbCell::default();
    Orchestrator::new(model.clone(), config).run(requests, epochs, |out| {
        cell.admitted = out.admitted.len();
        if out.epoch as usize >= warmup {
            cell.revenue += out.net_revenue;
            cell.measured += 1;
            cell.violated += out.violation_samples.0;
            cell.samples += out.violation_samples.1;
            cell.worst_drop = cell.worst_drop.max(out.worst_drop_fraction);
        }
        ControlFlow::Continue(())
    })?;
    Ok(cell)
}

fn kac(seed: u64) -> OrchestratorConfig {
    OrchestratorConfig {
        solver: SolverKind::Kac,
        seed,
        ..Default::default()
    }
}

/// §4.3.3's configurations `(label, σ/λ̄, m)`: the paper's most aggressive
/// one, its sanity check and two milder ones.
pub const SLA_FOOTPRINT: [(&str, f64, f64); 4] = [
    ("aggressive (σ=λ̄/2, m=1)", 0.5, 1.0),
    ("sanity (σ=3λ̄/4, m=0.01)", 0.75, 0.01),
    ("moderate (σ=λ̄/4, m=1)", 0.25, 1.0),
    ("deterministic (σ=0, m=1)", 0.0, 1.0),
];

/// Runs one §4.3.3 configuration: 40 epochs, the first 6 not measured.
pub fn sla_footprint_cell(
    model: &NetworkModel,
    sigma_frac: f64,
    m: f64,
    seed: u64,
) -> Result<EmbbCell, AcrrError> {
    embb_cell(model, kac(seed), sigma_frac, m, 40, 6)
}

/// Ablation 1's variants `(label, prior_history)`: Holt-Winters learning,
/// or the operator prior forever (`usize::MAX` never trusts the monitor).
pub const LEARNING_VARIANTS: [(&str, usize); 2] = [
    ("with learning", 3),
    ("prior only (no learning)", usize::MAX),
];

/// Runs Ablation 1's cell: 16 epochs at `σ = λ̄/4`, all measured.
pub fn learning_cell(
    model: &NetworkModel,
    prior_history: usize,
    seed: u64,
) -> Result<EmbbCell, AcrrError> {
    let mut config = kac(seed);
    config.prior_history = prior_history;
    embb_cell(model, config, 0.25, 1.0, 16, 0)
}

/// Ablation 2's forecast headrooms.
pub const HEADROOMS: [f64; 4] = [0.0, 0.5, 1.5, 3.0];

/// Runs Ablation 2's cell: 16 epochs at `σ = λ̄/2`, all measured.
pub fn headroom_cell(
    model: &NetworkModel,
    forecast_headroom: f64,
    seed: u64,
) -> Result<EmbbCell, AcrrError> {
    let mut config = kac(seed);
    config.forecast_headroom = forecast_headroom;
    embb_cell(model, config, 0.5, 1.0, 16, 0)
}

/// Ablation 3's cells `(class, α)`, each run by Benders and by KAC.
pub const SOLVER_CELLS: [(SliceClass, f64); 4] = [
    (SliceClass::Embb, 0.2),
    (SliceClass::Embb, 0.5),
    (SliceClass::Urllc, 0.2),
    (SliceClass::Urllc, 0.5),
];

/// Runs Ablation 3's cell under `solver`: 8 tenants at `σ = λ̄/4`, 18 to
/// 20 epochs with a 0.1 % stop rule.
pub fn solver_cell(
    model: &NetworkModel,
    (class, alpha): (SliceClass, f64),
    solver: SolverKind,
) -> Result<RevenueSummary, AcrrError> {
    let tenants = homogeneous(class, 8, alpha, SigmaLevel::Quarter, 1.0);
    let mut cell = Scenario::new(tenants);
    cell.solver = solver;
    cell.min_epochs = 18;
    cell.max_epochs = 20;
    cell.target_stderr = 0.001;
    run_on(&cell, model.clone())
}

/// One tenant of each of `classes` at `0.3·Λ` on every BS, `σ̂ = 0.2`.
fn reference_instance(model: &NetworkModel, classes: &[SliceClass]) -> AcrrInstance {
    let n_bs = model.base_stations.len();
    let tenants = classes
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let t = SliceTemplate::for_class(class);
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
        .collect();
    AcrrInstance::build(model, tenants, PathPolicy::Spread, true, None)
}

/// Ablation 4: Benders on 8 eMBB tenants, with basis reuse and without,
/// as `[warm, cold]`.
pub fn warm_start_ablation(model: &NetworkModel) -> Result<[Allocation; 2], AcrrError> {
    let inst = reference_instance(model, &[SliceClass::Embb; 8]);
    let solve = |warm_start| {
        let mut options = benders::BendersOptions::default();
        options.milp.warm_start = warm_start;
        benders::solve(&inst, &options)
    };
    Ok([solve(true)?, solve(false)?])
}

/// Table 1's footer: Benders on one tenant per template class on the
/// small Romanian metro topology (scale 0.03), showing which engine
/// produced the figures.
pub fn engine_check() -> Result<Allocation, AcrrError> {
    let model = NetworkModel::generate(Operator::Romanian, &campaign_topology(0.03, SEED));
    let inst = reference_instance(&model, &SliceClass::all());
    benders::solve(&inst, &benders::BendersOptions::default())
}

// ------------------------------------------------------------------ Fig. 4

/// The `fig4` bin's default `--scale`.
pub const FIG4_SCALE: f64 = 0.15;
/// Fig. 4(d)'s quantiles of the per-path capacity CDF.
pub const FIG4_CAPACITY_QUANTILES: [f64; 5] = [0.10, 0.25, 0.50, 0.75, 0.90];
/// Fig. 4(e)'s quantiles of the per-path latency CDF.
pub const FIG4_DELAY_QUANTILES: [f64; 5] = [0.10, 0.25, 0.50, 0.75, 0.95];

/// Fig. 4's three operator topologies, up to 8 paths per (BS, CU) pair.
pub fn fig4_models(scale: f64, seed: u64) -> Vec<NetworkModel> {
    let config = GeneratorConfig {
        scale,
        seed,
        k_paths: 8,
    };
    Operator::all()
        .map(|op| NetworkModel::generate(op, &config))
        .to_vec()
}

// ------------------------------------------------------- Fig. 8: the day

/// Number of decision epochs in the §5 testbed day (06:00–24:00).
pub(crate) const TESTBED_EPOCHS: usize = 18;

/// Radio PRBs per MHz: a 20 MHz base station has 100 PRBs.
pub const PRBS_PER_MHZ: f64 = 5.0;

/// The 9 testbed slice requests, one every 2 epochs (1 epoch = 1 h, 12
/// monitoring samples of 5 min): uRLLC ×3, then mMTC ×3, then eMBB ×3.
/// Every slice offers `λ̄ = Λ/2` with `σ = 0.1·λ̄` and `K = R` (m = 1).
pub fn testbed_requests() -> Vec<SliceRequest> {
    [SliceClass::Urllc, SliceClass::Mmtc, SliceClass::Embb]
        .into_iter()
        .flat_map(|class| [class; 3])
        .enumerate()
        .map(|(i, class)| {
            let template = SliceTemplate::for_class(class);
            let mean = template.sla_mbps / 2.0;
            let mut r = SliceRequest::from_template(i as u32, template, 0.5, 0.1 * mean, 1.0);
            // The testbed fixes σ = 0.1·λ̄ for every slice, overriding the
            // template's deterministic mMTC.
            r.true_sigma_mbps = 0.1 * mean;
            r.arrival_epoch = (i * 2) as u32;
            r
        })
        .collect()
}

/// Runs the testbed day on [`testbed_model`] through [`Orchestrator::run`];
/// returns one [`EpochOutcome`] per hour-epoch.
pub fn run_testbed(
    solver: SolverKind,
    overbooking: bool,
    seed: u64,
) -> Result<Vec<EpochOutcome>, AcrrError> {
    let config = OrchestratorConfig {
        solver,
        overbooking,
        samples_per_epoch: 12, // 12 × 5 min = 1 h epochs
        // Fig. 8 plots *adaptive* reservations tracking the tenant load
        // (§2.1.3), so the testbed enforces the forecast-floor reservations.
        adaptive_reservations: true,
        seed,
        ..Default::default()
    };
    let mut outcomes = Vec::with_capacity(TESTBED_EPOCHS);
    Orchestrator::new(testbed_model(), config).run(testbed_requests(), TESTBED_EPOCHS, |out| {
        outcomes.push(out.clone());
        ControlFlow::Continue(())
    })?;
    Ok(outcomes)
}

/// The links that carry a reservation in any epoch of `day`, ascending
/// (Fig. 8(c)'s columns).
pub fn reserved_links(day: &[EpochOutcome]) -> Vec<usize> {
    let mut links: Vec<usize> = day
        .iter()
        .flat_map(|o| o.link_reserved_mbps.keys().copied())
        .collect();
    links.sort_unstable();
    links.dedup();
    links
}

/// Formats an epoch index as the paper's time-of-day axis (06:00 start).
pub fn epoch_to_time(epoch: u32) -> String {
    format!("{:02}:00", 6 + epoch)
}
