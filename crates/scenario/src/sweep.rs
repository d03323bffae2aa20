//! The parallel scenario-sweep runner.
//!
//! Scenarios are embarrassingly parallel — each one owns its model, its
//! orchestrator, and its seeded PRNGs — so the runner fans them across
//! `std::thread::scope` workers through a shared atomic work index (the
//! unit of work is a whole simulation; the `Send + Sync` solver core is
//! what lets the epoch solves inside different workers coexist).
//!
//! **Determinism contract:** each scenario's report depends only on its
//! spec (worker assignment never leaks in — there is no shared mutable
//! state between scenarios), each result is tagged with its scenario
//! index, and aggregation sorts them back into spec order. The aggregated
//! [`SweepReport`] is therefore bit-identical at any worker count; only
//! the wall-clock fields differ, and those are excluded from
//! [`SweepReport::fingerprint`].

use crate::driver::{run_scenario, ScenarioSpec};
use crate::metrics::{Fnv64, ScenarioReport};
use ovnes::solver::AcrrError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Aggregated result of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-scenario reports, in spec order.
    pub scenarios: Vec<ScenarioReport>,
    /// Requests issued across all scenarios.
    pub total_arrivals: usize,
    /// Distinct tenants admitted across all scenarios.
    pub total_accepted: usize,
    /// `total_accepted / total_arrivals`.
    pub acceptance_ratio: f64,
    /// Net revenue summed across scenarios.
    pub total_net_revenue: f64,
    /// SLA-violating samples across scenarios.
    pub total_violated: usize,
    /// All samples across scenarios.
    pub total_samples: usize,
    /// `total_violated / total_samples`.
    pub violation_rate: f64,
    /// LP solves across every epoch of every scenario.
    pub total_lp_solves: usize,
    /// Simplex pivots across every epoch of every scenario.
    pub total_lp_pivots: usize,
    /// Basis refactorizations across every epoch of every scenario.
    pub total_lp_refactorizations: usize,
    /// Degraded epochs (incumbent / greedy / deferred) across scenarios.
    pub total_degraded_epochs: usize,
    /// Infrastructure-shrinkage evictions across scenarios.
    pub total_evictions: usize,
    /// Infrastructure events applied across scenarios.
    pub total_infra_events: usize,
    /// Workers the sweep ran with (informational; the report does not
    /// depend on it).
    pub workers: usize,
    /// Sweep wall-clock in seconds — machine-dependent, excluded from the
    /// fingerprint.
    pub wall_seconds: f64,
}

impl SweepReport {
    /// Order-independent-by-construction fingerprint over every
    /// deterministic field of every scenario report plus the aggregates.
    /// Two sweeps of the same specs agree on this value at *any* worker
    /// count — the bit-identical-report guarantee, stated as one `u64`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.scenarios.len() as u64);
        for s in &self.scenarios {
            s.hash_into(&mut h);
        }
        h.write_u64(self.total_arrivals as u64);
        h.write_u64(self.total_accepted as u64);
        h.write_f64(self.acceptance_ratio);
        h.write_f64(self.total_net_revenue);
        h.write_u64(self.total_violated as u64);
        h.write_u64(self.total_samples as u64);
        h.write_u64(self.total_lp_solves as u64);
        h.write_u64(self.total_lp_pivots as u64);
        h.write_u64(self.total_lp_refactorizations as u64);
        h.write_u64(self.total_degraded_epochs as u64);
        h.write_u64(self.total_evictions as u64);
        h.write_u64(self.total_infra_events as u64);
        h.finish()
    }

    /// Renders the deterministic part of the report as an aligned table
    /// (no wall-clock columns — the rendering is identical across runs
    /// and worker counts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let header = format!(
            "{:<22} {:>6} {:>8} {:>8} {:>6} {:>10} {:>8} {:>8} {:>8}",
            "scenario",
            "epochs",
            "arrivals",
            "accepted",
            "acc%",
            "net rev",
            "viol%",
            "bs p90",
            "cu p90"
        );
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<22} {:>6} {:>8} {:>8} {:>5.1}% {:>10.2} {:>7.3}% {:>8.3} {:>8.3}\n",
                s.name,
                s.epochs,
                s.arrivals,
                s.accepted,
                100.0 * s.acceptance_ratio,
                s.net_revenue,
                100.0 * s.violation_rate,
                s.bs_utilisation.p90,
                s.cu_utilisation.p90,
            ));
        }
        out.push_str(&format!(
            "total: {} arrivals, {} accepted ({:.1}%), net revenue {:.2}, \
             violation rate {:.4}%, {} LP solves / {} pivots / {} refactorizations\n",
            self.total_arrivals,
            self.total_accepted,
            100.0 * self.acceptance_ratio,
            self.total_net_revenue,
            100.0 * self.violation_rate,
            self.total_lp_solves,
            self.total_lp_pivots,
            self.total_lp_refactorizations,
        ));
        if self.total_infra_events > 0 || self.total_degraded_epochs > 0 {
            out.push_str(&format!(
                "chaos: {} infra events, {} degraded epochs, {} evictions\n",
                self.total_infra_events, self.total_degraded_epochs, self.total_evictions,
            ));
        }
        out.push_str(&format!("fingerprint: {:#018x}\n", self.fingerprint()));
        out
    }
}

/// Runs every scenario across `workers` threads and aggregates in spec
/// order. An error in any scenario fails the sweep; when several fail,
/// the error of the lowest-index scenario is returned (deterministic at
/// any worker count).
pub fn run_sweep(specs: &[ScenarioSpec], workers: usize) -> Result<SweepReport, AcrrError> {
    let t0 = Instant::now();
    let workers = workers.max(1).min(specs.len().max(1));
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Result<ScenarioReport, AcrrError>)>> =
        Mutex::new(Vec::with_capacity(specs.len()));

    // The scope re-raises a worker's panic, so a poisoned lock is never read
    // past it.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let result = run_scenario(&specs[i]);
                    done.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, result));
                }
                // Scoped joins can outrun TLS destructors, so hand the
                // span buffers to the sink before the closure returns.
                if ovnes_obs::enabled() {
                    ovnes_obs::trace::flush_thread();
                }
            });
        }
    });

    let mut results = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|&(i, _)| i);

    let mut scenarios = Vec::with_capacity(specs.len());
    for (_, result) in results {
        scenarios.push(result?);
    }

    let total_arrivals: usize = scenarios.iter().map(|s| s.arrivals).sum();
    let total_accepted: usize = scenarios.iter().map(|s| s.accepted).sum();
    let total_violated: usize = scenarios.iter().map(|s| s.violated_samples).sum();
    let total_samples: usize = scenarios.iter().map(|s| s.total_samples).sum();
    let mut total_net_revenue = 0.0;
    let mut total_lp_solves = 0usize;
    let mut total_lp_pivots = 0usize;
    let mut total_lp_refactorizations = 0usize;
    let mut total_degraded_epochs = 0usize;
    let mut total_evictions = 0usize;
    let mut total_infra_events = 0usize;
    for s in &scenarios {
        total_net_revenue += s.net_revenue;
        total_lp_solves += s.lp_solves;
        total_lp_pivots += s.lp_pivots;
        total_lp_refactorizations += s.lp_refactorizations;
        total_degraded_epochs += s.degraded_epochs;
        total_evictions += s.evictions;
        total_infra_events += s.infra_events;
    }

    Ok(SweepReport {
        scenarios,
        total_arrivals,
        total_accepted,
        acceptance_ratio: if total_arrivals > 0 {
            total_accepted as f64 / total_arrivals as f64
        } else {
            0.0
        },
        total_net_revenue,
        total_violated,
        total_samples,
        violation_rate: if total_samples > 0 {
            total_violated as f64 / total_samples as f64
        } else {
            0.0
        },
        total_lp_solves,
        total_lp_pivots,
        total_lp_refactorizations,
        total_degraded_epochs,
        total_evictions,
        total_infra_events,
        workers,
        wall_seconds: t0.elapsed().as_secs_f64(),
    })
}
