//! # ovnes — yield-driven end-to-end network-slice orchestration
//!
//! A from-scratch Rust reproduction of *"Overbooking Network Slices through
//! Yield-driven End-to-End Orchestration"* (Salvat et al., CoNEXT 2018):
//! a mobile operator admits **more slices than nominal capacity** because
//! tenants rarely consume their full SLA, trading a small, penalised risk of
//! SLA violations for substantially higher revenue — the same yield
//! management airlines apply to seat overbooking.
//!
//! ## Architecture (paper §2)
//!
//! * [`mod@slice`] — slice templates (Table 1) and tenant requests `Φτ`,
//! * [`problem`] — the AC-RR (admission control & resource reservation)
//!   optimization instance: capacities, forecasts, risk coefficients,
//! * [`solver`] — the paper's algorithms: optimal **Benders decomposition**
//!   (Algorithm 1), the **KAC** knapsack heuristic (Algorithms 2–3), the
//!   one-shot MILP (Problem 2) and the **no-overbooking** baseline,
//! * [`orchestrator`] — the epoch (monitor → forecast → solve → enforce)
//!   and the one horizon loop, [`orchestrator::Orchestrator::run`].
//!
//! Substrates (each its own crate): `ovnes-lp` (simplex), `ovnes-milp`
//! (branch & bound), `ovnes-forecast` (Holt-Winters), `ovnes-topology`
//! (operator networks and the §5 testbed's data plane), `ovnes-netsim`
//! (traffic + middlebox). On top sits `ovnes-scenario`: the paper's
//! evaluation (the §4.3 campaign of Figs. 5-6 and the §5 testbed day of
//! Fig. 8) and city-scale generated workloads (arrival processes, churn,
//! flash crowds), all driven through [`orchestrator::Orchestrator::run`]
//! and swept in parallel with bit-identical aggregated reports.
//!
//! ## Failure semantics (fault-tolerant admission)
//!
//! The orchestrator is built so that **no solver condition aborts a
//! horizon**:
//!
//! * **Infrastructure events** ([`orchestrator::InfraEvent`]) — BS outages
//!   and recoveries, link degradations, CU capacity losses — mutate the
//!   live model at epoch boundaries. Shrinkage triggers deterministic
//!   revalidation of active slices: re-home to a delay-feasible CU with
//!   room, else evict with a one-time SLA-break penalty; over-committed
//!   radios are trimmed proportionally.
//! * **Solve budgets** ([`solver::SolveBudget`]) cap pivots, B&B nodes and
//!   Benders rounds per epoch (deterministic counters; an opt-in wall-clock
//!   deadline is the only non-deterministic knob). Exhaustion degrades the
//!   decision down the ladder of [`solver::solve_controlled`]: best
//!   incumbent → KAC greedy → defer the epoch — the rung is recorded in
//!   [`orchestrator::EpochOutcome::degradation`].
//! * **Fault injection** (`ovnes_lp::FaultConfig`, seeded) poisons LP warm
//!   state to exercise the cold-restart recovery paths; injection is a pure
//!   function of seed and problem fingerprints, so chaos runs stay
//!   bit-identical at any thread count.
//!
//! ## Quickstart
//!
//! ```
//! use ovnes::prelude::*;
//!
//! // A small Romanian-style metro network.
//! let model = NetworkModel::generate(
//!     Operator::Romanian,
//!     &GeneratorConfig { scale: 0.05, seed: 1, k_paths: 4 },
//! );
//! let mut orch = Orchestrator::new(model, OrchestratorConfig {
//!     solver: SolverKind::Kac,
//!     ..Default::default()
//! });
//! // Four eMBB tenants at 20% mean utilisation, all arriving at epoch 0.
//! let requests = (0..4)
//!     .map(|t| SliceRequest::from_template(t, SliceTemplate::embb(), 0.2, 2.5, 1.0))
//!     .collect();
//! // The KAC heuristic admits once load patterns have been learnt.
//! let mut admitted = 0;
//! orch.run(requests, 6, |out| {
//!     admitted = out.admitted.len();
//!     std::ops::ControlFlow::Continue(())
//! })
//! .unwrap();
//! assert!(admitted > 0);
//! ```

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod orchestrator;
pub mod problem;
pub mod slice;
pub mod solver;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::orchestrator::{EpochOutcome, Orchestrator, OrchestratorConfig};
    pub use crate::problem::Allocation;
    pub use crate::slice::{SliceClass, SliceRequest, SliceTemplate};
    pub use crate::solver::SolverKind;
    pub use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};
}

#[cfg(test)]
mod tests;

#[cfg(test)]
mod tests_more;
