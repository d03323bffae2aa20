//! # ovnes-bench — figure & table regeneration harness
//!
//! One binary per paper artefact:
//!
//! * `table1` — the slice templates,
//! * `fig4` — topology statistics and path capacity/delay CDFs,
//! * `fig5` — homogeneous revenue-gain sweeps (α × σ × m × class × operator),
//! * `fig6` — heterogeneous β-mix revenue curves,
//! * `fig8` — the testbed day time series,
//! * `sla_footprint` — §4.3.3's violation-probability check,
//! * `ablation` — design-choice ablations (forecasting, headroom, solver).
//!
//! All binaries print aligned text tables/series to stdout; pass `--full`
//! where supported to run the paper-size grid instead of the quick default.
//!
//! Nothing here is timed. Performance is measured end to end by the
//! `benchmark/` package; the kernels' work is pinned as exact counts by
//! `tests/kernel_counts.rs`.

use ovnes::prelude::*;
use std::ops::ControlFlow;

/// What the eMBB cell of [`embb_cell`] saw after its warm-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmbbCell {
    /// Net revenue summed over the measured epochs.
    pub revenue: f64,
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
}

/// The ablation and SLA-footprint cell: 10 eMBB tenants at `λ̄ = 0.2Λ`
/// with `σ = sigma_frac·λ̄` and penalty factor `m`, all arriving at epoch 0,
/// run for `epochs` epochs under `config`. The first `warmup` epochs are
/// not measured.
pub fn embb_cell(
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
            cell.violated += out.violation_samples.0;
            cell.samples += out.violation_samples.1;
            cell.worst_drop = cell.worst_drop.max(out.worst_drop_fraction);
        }
        ControlFlow::Continue(())
    })?;
    Ok(cell)
}

/// Returns true when `--full` was passed on the command line.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Reads an optional `--seed N` argument (default 18).
pub fn seed_arg() -> u64 {
    arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(18)
}

/// Reads an optional `--scale F` argument with a per-binary default.
pub fn scale_arg(default: f64) -> f64 {
    arg_value("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Prints a horizontal rule sized to a header string.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}
