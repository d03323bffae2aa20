//! Epoch runner: drives traffic generators through the middlebox for every
//! flow and summarises the outcome per epoch.
//!
//! A *flow* is one (tenant, base-station) leg of a slice: it has its own SLA
//! share Λ, reservation z and load generator. The orchestrator owns the
//! mapping onto paths/CUs; this engine only produces the traffic-level truth.

use crate::middlebox::classify;
use crate::traffic::{diurnal_sin, TrafficGenerator};
use rand::rngs::StdRng;

/// One simulated flow for an epoch.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Caller-chosen identity (e.g. tenant index, BS index).
    pub key: (u32, u32),
    /// Contracted rate Λ for this leg, Mb/s.
    pub sla_mbps: f64,
    /// Reserved rate z for this leg, Mb/s.
    pub reservation_mbps: f64,
    /// Load generator.
    pub generator: TrafficGenerator,
}

/// Per-flow epoch summary.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Flow identity.
    pub key: (u32, u32),
    /// Peak offered load over the epoch (the paper's λ^{(t)}).
    pub peak_offered: f64,
    /// Mean offered load over the epoch.
    pub mean_offered: f64,
    /// Sum of served traffic (Mb/s·samples).
    pub total_served: f64,
    /// Sum of in-SLA deficit (Mb/s·samples); > 0 ⇒ the SLA was violated.
    pub total_deficit: f64,
    /// Number of samples with a deficit.
    pub violated_samples: usize,
    /// Largest single-sample deficit fraction (deficit / in-SLA load).
    pub worst_deficit_fraction: f64,
    /// Largest single-sample absolute deficit (Mb/s).
    pub worst_deficit_mbps: f64,
    /// Number of samples in the epoch.
    pub samples: usize,
}

/// Whole-epoch summary.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Per-flow summaries, in input order.
    pub flows: Vec<FlowReport>,
    /// Global sample index after this epoch (feed back into the next call to
    /// keep diurnal phases continuous).
    pub next_sample_index: u64,
}

/// Runs `samples_per_epoch` monitoring samples for every flow.
///
/// `first_sample_index` is the global index of the first sample (phases of
/// diurnal generators continue across epochs when the caller threads
/// the report's `next_sample_index` back in).
pub fn run_epoch(
    flows: &[Flow],
    samples_per_epoch: usize,
    first_sample_index: u64,
    rng: &mut StdRng,
) -> EpochReport {
    assert!(samples_per_epoch > 0, "an epoch needs at least one sample");
    let mut reports = Vec::with_capacity(flows.len());
    // The diurnal sines of this epoch's samples, once per distinct period.
    let mut sines: Vec<(usize, Vec<f64>)> = Vec::new();
    for flow in flows {
        let row = flow.generator.diurnal.map(|(_, period)| {
            sines
                .iter()
                .position(|&(p, _)| p == period)
                .unwrap_or_else(|| {
                    let row = (0..samples_per_epoch)
                        .map(|s| diurnal_sin(first_sample_index + s as u64, period))
                        .collect();
                    sines.push((period, row));
                    sines.len() - 1
                })
        });
        let mut peak = 0.0f64;
        let mut sum = 0.0;
        let mut served = 0.0;
        let mut deficit = 0.0;
        let mut violated = 0usize;
        let mut worst_frac = 0.0f64;
        let mut worst_abs = 0.0f64;
        for s in 0..samples_per_epoch {
            let sin = row.map_or(0.0, |r| sines[r].1[s]);
            let offered = flow.generator.sample_given(sin, rng);
            let v = classify(offered, flow.sla_mbps, flow.reservation_mbps);
            peak = peak.max(offered);
            sum += offered;
            served += v.served;
            deficit += v.deficit;
            if v.violated() {
                violated += 1;
                worst_frac = worst_frac.max(v.deficit_fraction());
                worst_abs = worst_abs.max(v.deficit);
            }
        }
        reports.push(FlowReport {
            key: flow.key,
            peak_offered: peak,
            mean_offered: sum / samples_per_epoch as f64,
            total_served: served,
            total_deficit: deficit,
            violated_samples: violated,
            worst_deficit_fraction: worst_frac,
            worst_deficit_mbps: worst_abs,
            samples: samples_per_epoch,
        });
    }
    EpochReport {
        flows: reports,
        next_sample_index: first_sample_index + samples_per_epoch as u64,
    }
}
