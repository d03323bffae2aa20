//! Scenario runners for the paper's simulation campaign (§4.3).
//!
//! [`run`] executes one (topology, tenant mix, solver) cell through the
//! orchestrator's one horizon loop, [`Orchestrator::run`]: every slice
//! request arrives at epoch 0 (as the paper does), and the cell's observer
//! stops the horizon once the mean net revenue stabilises ("runs until the
//! mean revenue has a standard error lower than 2%") or at
//! [`Scenario::max_epochs`]. It reports steady-state revenue plus the
//! SLA-violation footprint. The stop rule is this observer's, not an
//! orchestrator option.
//!
//! Helper constructors produce the homogeneous mixes of Fig. 5 (`λ̄ = α·Λ`,
//! `σ ∈ {0, λ̄/4, λ̄/2}`, penalty `K = m·R` for `m ∈ {1, 4, 16}`) and the
//! heterogeneous β-mixes of Fig. 6.

use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::slice::{SliceClass, SliceRequest, SliceTemplate};
use crate::solver::{AcrrError, SolverKind};
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};
use std::ops::ControlFlow;

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
    pub fn fraction(self) -> f64 {
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

/// A full simulation cell.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which operator topology.
    pub operator: Operator,
    /// Topology generation parameters (scale, seed, k-paths).
    pub topology: GeneratorConfig,
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
    /// A reasonable default cell: Romanian topology at harness scale.
    pub fn new(operator: Operator, tenants: Vec<TenantSpec>) -> Self {
        Scenario {
            operator,
            topology: GeneratorConfig {
                scale: 0.05,
                seed: 18,
                k_paths: 4,
            },
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
    /// Standard error of that mean, as a fraction of |mean|.
    pub stderr_fraction: f64,
    /// Epochs simulated (including warm-up).
    pub epochs: usize,
    /// Mean number of admitted tenants after warm-up.
    pub mean_admitted: f64,
    /// Fraction of (flow, sample) pairs violating their SLA, after warm-up.
    pub violation_rate: f64,
    /// Worst single-sample traffic-drop fraction observed.
    pub worst_drop_fraction: f64,
}

/// Runs one cell to revenue convergence.
pub fn run(scenario: &Scenario) -> Result<RevenueSummary, AcrrError> {
    let model = NetworkModel::generate(scenario.operator, &scenario.topology);
    run_on(scenario, model)
}

/// Runs one cell on a pre-generated model (reuse across cells for speed).
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
    let mut worst_drop = 0.0f64;
    let mut epochs = 0usize;

    Orchestrator::new(model, config).run(requests, scenario.max_epochs, |out| {
        epochs += 1;
        if epochs > scenario.warmup_epochs {
            revenues.push(out.net_revenue);
            admitted.push(out.admitted.len() as f64);
            violated += out.violation_samples.0;
            samples += out.violation_samples.1;
            worst_drop = worst_drop.max(out.worst_drop_fraction);
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

    let (mean, stderr) = mean_stderr(&revenues);
    Ok(RevenueSummary {
        mean_net_revenue: mean,
        stderr_fraction: if mean.abs() > 1e-9 {
            stderr / mean.abs()
        } else {
            0.0
        },
        epochs,
        mean_admitted: admitted.iter().sum::<f64>() / admitted.len().max(1) as f64,
        violation_rate: if samples > 0 {
            violated as f64 / samples as f64
        } else {
            0.0
        },
        worst_drop_fraction: worst_drop,
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
pub fn heterogeneous(
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
