//! # ovnes-netsim — data-plane simulator
//!
//! Substitutes for the paper's experimental data plane (commercial LTE base
//! stations, an OpenFlow switch, OpenStack compute — Table 2) with a
//! deterministic, seeded simulation of the same observable behaviour:
//!
//! * `traffic` ([`TrafficGenerator`]) — per-slice stochastic load generators: Gaussian
//!   per-monitoring-sample loads with optional diurnal seasonality
//!   (mMTC slices are deterministic, σ = 0, per Table 1),
//! * `middlebox` — the split-TCP rate-control middlebox of §2.1.3 as a
//!   per-sample classifier: *forward* within the reservation, *shape* (drop)
//!   traffic exceeding the tenant's SLA, *buffer/drop* traffic within the SLA
//!   but above the reservation — the latter is the **SLA violation** that
//!   overbooking must keep rare,
//! * `engine` ([`run_epoch`]) — an epoch runner that applies generators + middlebox to a
//!   set of flows and produces per-flow epoch reports, each with the peak
//!   (`max`) of its samples.
//!
//! The monitoring block of §2.2.2 is not here: the orchestrator appends each
//! report's peak to the `λ^{(t)}` series held on its own tenant record, the
//! series the forecaster reads.
//!
//! Everything is seeded and reproducible; no wall-clock time is involved.

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod engine;
mod middlebox;
mod traffic;

pub use engine::{run_epoch, Flow, FlowReport};
pub use traffic::TrafficGenerator;

#[cfg(test)]
mod tests;
