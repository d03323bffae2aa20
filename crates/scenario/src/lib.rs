//! # ovnes-scenario — city-scale workloads and parallel scenario sweeps
//!
//! The paper's headline results (Figs. 5–6) come from *long-horizon,
//! multi-tenant* simulations: weeks of diurnal traffic, slices continuously
//! arriving and departing, overbooking ablations across three operator
//! networks. PRs 1–4 made each decision epoch solve fast and parallel; this
//! crate is the subsystem that **generates and runs those workloads at
//! scale** — the platform every future workload experiment plugs into.
//!
//! ## Layers
//!
//! * [`experiment`] — the paper's evaluation as the paper runs it, each
//!   figure defined once for the `ovnes-bench` binaries to print and
//!   `tests/paper_figures.rs` to pin: the §4.3 campaign, Fig. 4's
//!   topologies and the §5 testbed day (Fig. 8).
//! * [`workload`] — seeded arrival processes: Poisson and Markov-modulated
//!   request streams with diurnal modulation, uRLLC/mMTC/eMBB class mixes,
//!   geometric slice lifetimes, tenant populations with churn, and
//!   flash-crowd bursts. A `(spec, seed, horizon)` triple always expands to
//!   the identical [`ovnes::slice::SliceRequest`] stream.
//! * [`driver`] — [`driver::ScenarioSpec`] (built through a small builder
//!   API) plus [`driver::run_scenario`], which steps the
//!   [`ovnes::orchestrator::Orchestrator`] over the multi-day horizon and
//!   aggregates the metrics pipeline epoch by epoch:
//!   acceptance ratio, revenue trajectory, SLA-violation rate, per-BS /
//!   per-CU / per-link utilisation CDF summaries — the Fig. 5/6 observables.
//! * `faults` — the seeded fault-injection harness: a [`FaultPlan`]
//!   expands into a deterministic infrastructure-event schedule (BS outages,
//!   link degradations, CU capacity losses, each with scheduled repair) and
//!   can arm LP warm-path fault injection, exercising the orchestrator's
//!   revalidation / degradation machinery under chaos.
//! * [`presets`] — the named scenario library: the §5 testbed day, Fig. 5/6
//!   reproductions per operator (N1/N2/N3), a stadium flash crowd, a 10×
//!   overload, the overbooking on/off ablation pair, and the chaos suite
//!   (outage storm, starved solve budget, LP fault injection).
//! * [`sweep`] — the parallel sweep runner: independent seeded scenarios
//!   fanned across `std::thread::scope` workers (reusing the PR-4
//!   `Send + Sync` solver contract inside each epoch solve), with
//!   deterministic slot-ordered aggregation.
//!
//! ## Determinism contract
//!
//! Scenario reports are pure functions of their spec: the workload
//! expansion and the simulator share one seeded PRNG stream each, the
//! epoch solves are deterministic (the branch-and-bound search is one
//! sequential loop), and scenarios share no mutable state. The
//! aggregated [`sweep::SweepReport`] is therefore **bit-identical at any
//! worker count**; [`sweep::SweepReport::fingerprint`] states that
//! guarantee as a single build-stable `u64` (wall-clock fields are
//! excluded — they are the only machine-dependent quantity in a report).
//!
//! ## Example
//!
//! ```
//! use ovnes_scenario::presets;
//! use ovnes_scenario::sweep::run_sweep;
//! use ovnes_topology::operators::Operator;
//!
//! // One short smoke scenario per operator, swept across 2 workers.
//! let specs: Vec<_> = Operator::all().into_iter().map(presets::smoke).collect();
//! let report = run_sweep(&specs, 2).unwrap();
//! assert_eq!(report.scenarios.len(), 3);
//! // Bit-identical at any worker count.
//! assert_eq!(
//!     report.fingerprint(),
//!     run_sweep(&specs, 1).unwrap().fingerprint(),
//! );
//! ```

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod driver;
pub mod experiment;
mod faults;
mod metrics;
pub mod presets;
pub mod sweep;
pub mod workload;

pub use driver::{run_scenario, ScenarioBuilder, ScenarioSpec};
pub use faults::FaultPlan;
pub use metrics::ScenarioReport;
pub use workload::{
    ArrivalProcess, BurstEvent, ClassMix, DiurnalProfile, DurationModel, TenantPopulation,
    WorkloadSpec,
};

#[cfg(test)]
mod tests;

#[cfg(test)]
mod tests_chaos;

#[cfg(test)]
mod tests_more;
