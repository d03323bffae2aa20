//! Seeded fault-injection plans — the chaos harness.
//!
//! A [`FaultPlan`] turns a seed and the model's dimensions into a
//! deterministic [`InfraEvent`] schedule (BS outages with recoveries, link
//! degradations with repairs, CU capacity losses with repairs), optionally
//! augmented with a hand-scripted event list for targeted storms and an LP
//! warm-path fault seed (`ovnes_lp::FaultConfig::chaos`) that poisons the
//! MILP-backed epoch solves.
//!
//! Like the workload generators, everything is driven by one sequential
//! PRNG seeded from the plan alone, so a (plan, dimensions, horizon) tuple
//! always expands to the identical event schedule — chaos runs stay inside
//! the sweep runner's bit-identical-report guarantee.

use ovnes::orchestrator::{InfraEvent, InfraEventKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded infrastructure-fault schedule generator.
///
/// Rates are *per-epoch probabilities* of starting one fault of that class
/// inside the active window `[start_epoch, end_epoch)`. Every sampled
/// fault schedules its own recovery (factor `1.0` / [`InfraEventKind::
/// BsRecovery`]) after a uniformly drawn duration; overlapping faults on
/// the same element resolve last-writer-wins, since event factors are
/// absolute fractions of base capacity.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the event sampling (independent of the scenario seed, so
    /// the same chaos schedule can be replayed over different workloads).
    pub seed: u64,
    /// First epoch (inclusive) at which random faults may start.
    pub start_epoch: u32,
    /// Epoch (exclusive) after which no new random fault starts.
    pub end_epoch: u32,
    /// Per-epoch probability of a BS outage starting.
    pub bs_outage_rate: f64,
    /// Uniform range (inclusive) of outage durations, epochs.
    pub outage_epochs: (u32, u32),
    /// Per-epoch probability of a link degradation starting.
    pub link_degradation_rate: f64,
    /// Uniform range of the remaining-capacity factor for degraded links.
    pub link_factor: (f64, f64),
    /// Uniform range (inclusive) of link-degradation durations, epochs.
    pub link_epochs: (u32, u32),
    /// Per-epoch probability of a CU capacity loss starting.
    pub cu_loss_rate: f64,
    /// Uniform range of the remaining-capacity factor for shrunken CUs.
    pub cu_factor: (f64, f64),
    /// Uniform range (inclusive) of CU-loss durations, epochs.
    pub cu_epochs: (u32, u32),
    /// Hand-scripted events appended verbatim after the sampled ones —
    /// targeted storms (e.g. "kill every edge CU at epoch 6") that random
    /// sampling cannot guarantee.
    pub scripted: Vec<InfraEvent>,
    /// When set, the scenario arms `ovnes_lp::FaultConfig::chaos(seed)` on
    /// the orchestrator's MILP-backed epoch solves, poisoning warm bases /
    /// persisted factorizations on the master LPs. Injection is a pure
    /// function of the seed and per-solve fingerprints — thread-count
    /// invariant.
    pub lp_fault_seed: Option<u64>,
}

impl Default for FaultPlan {
    /// A moderate background-chaos plan: occasional short BS outages and
    /// link degradations, rare CU losses, no scripted storm, no LP faults.
    fn default() -> Self {
        Self {
            seed: 97,
            start_epoch: 2,
            end_epoch: u32::MAX,
            bs_outage_rate: 0.05,
            outage_epochs: (2, 6),
            link_degradation_rate: 0.05,
            link_factor: (0.2, 0.6),
            link_epochs: (2, 8),
            cu_loss_rate: 0.02,
            cu_factor: (0.3, 0.7),
            cu_epochs: (2, 8),
            scripted: Vec::new(),
            lp_fault_seed: None,
        }
    }
}

impl FaultPlan {
    /// An inert plan that only replays `scripted` (rates all zero).
    pub(crate) fn scripted_only(events: Vec<InfraEvent>) -> Self {
        Self {
            bs_outage_rate: 0.0,
            link_degradation_rate: 0.0,
            cu_loss_rate: 0.0,
            scripted: events,
            ..Self::default()
        }
    }

    /// Expands the plan into a concrete event schedule for a model with
    /// `n_bs` base stations, `n_links` links and `n_cu` compute units over
    /// `horizon` epochs. Deterministic in all arguments.
    pub fn expand(
        &self,
        n_bs: usize,
        n_links: usize,
        n_cu: usize,
        horizon: u32,
    ) -> Vec<InfraEvent> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();
        let end = self.end_epoch.min(horizon);
        let dur = |rng: &mut StdRng, (lo, hi): (u32, u32)| -> u32 {
            let lo = lo.max(1);
            let hi = hi.max(lo);
            rng.gen_range(lo..=hi)
        };
        let factor = |rng: &mut StdRng, (lo, hi): (f64, f64)| -> f64 {
            let lo = lo.clamp(0.0, 1.0);
            let hi = hi.clamp(lo, 1.0);
            if hi > lo {
                rng.gen_range(lo..hi)
            } else {
                lo
            }
        };
        for epoch in self.start_epoch..end {
            if n_bs > 0 && rng.gen_range(0.0..1.0) < self.bs_outage_rate {
                let bs = rng.gen_range(0..n_bs);
                let d = dur(&mut rng, self.outage_epochs);
                events.push(InfraEvent {
                    epoch,
                    kind: InfraEventKind::BsOutage { bs },
                });
                events.push(InfraEvent {
                    epoch: epoch.saturating_add(d),
                    kind: InfraEventKind::BsRecovery { bs },
                });
            }
            if n_links > 0 && rng.gen_range(0.0..1.0) < self.link_degradation_rate {
                let link = rng.gen_range(0..n_links);
                let f = factor(&mut rng, self.link_factor);
                let d = dur(&mut rng, self.link_epochs);
                events.push(InfraEvent {
                    epoch,
                    kind: InfraEventKind::LinkDegradation { link, factor: f },
                });
                events.push(InfraEvent {
                    epoch: epoch.saturating_add(d),
                    kind: InfraEventKind::LinkDegradation { link, factor: 1.0 },
                });
            }
            if n_cu > 0 && rng.gen_range(0.0..1.0) < self.cu_loss_rate {
                let cu = rng.gen_range(0..n_cu);
                let f = factor(&mut rng, self.cu_factor);
                let d = dur(&mut rng, self.cu_epochs);
                events.push(InfraEvent {
                    epoch,
                    kind: InfraEventKind::CuCapacityLoss { cu, factor: f },
                });
                events.push(InfraEvent {
                    epoch: epoch.saturating_add(d),
                    kind: InfraEventKind::CuCapacityLoss { cu, factor: 1.0 },
                });
            }
        }
        events.extend(self.scripted.iter().copied());
        // Stable schedule order: by epoch, preserving the sample/scripted
        // order within an epoch (the orchestrator applies recoveries and
        // repairs last-writer-wins).
        events.sort_by_key(|e| e.epoch);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        let plan = FaultPlan {
            seed: 1234,
            ..FaultPlan::default()
        };
        let a = plan.expand(6, 9, 3, 48);
        let b = plan.expand(6, 9, 3, 48);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "default rates over 48 epochs produce events");
    }

    #[test]
    fn every_fault_schedules_its_recovery() {
        let plan = FaultPlan::default();
        let events = plan.expand(4, 6, 2, 200);
        let outages = events
            .iter()
            .filter(|e| matches!(e.kind, InfraEventKind::BsOutage { .. }))
            .count();
        let recoveries = events
            .iter()
            .filter(|e| matches!(e.kind, InfraEventKind::BsRecovery { .. }))
            .count();
        assert_eq!(outages, recoveries);
    }

    #[test]
    fn scripted_only_replays_exactly() {
        let storm = vec![InfraEvent {
            epoch: 6,
            kind: InfraEventKind::CuCapacityLoss { cu: 0, factor: 0.0 },
        }];
        let plan = FaultPlan::scripted_only(storm.clone());
        assert_eq!(plan.expand(10, 10, 4, 48), storm);
    }
}
