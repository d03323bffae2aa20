//! Cross-epoch carry: one slave warm chain, for KAC, on epochs without churn.
//!
//! The paper solves AC-RR afresh every epoch; the from-scratch
//! [`solve_controlled`] is therefore the specification, and anything
//! carried from one epoch to the next is only legitimate as a *refinement*
//! of it — the same decision, shown per solve. [`EpochSolver`] keeps the
//! one piece of state that meets that bar and pays for itself
//! (`crates/scenario/DESIGN.md`, "Cross-epoch warm start", has the
//! measurements, what was deleted, and the known limit of the proof):
//!
//! * the previous epoch's KAC vetting-slave **warm chain**
//!   ([`WarmChain`]: final basis, its factorization and the engine's
//!   buffers), handed over by swap at the end of every epoch.
//!   [`kac::solve_carried`](super::kac::solve_carried) seeds it on
//!   **all-forced epochs only**, and only when it
//!   [fits](WarmChain::fits) the new slave LP — same shape, same
//!   structural matrix — so the first solve replays the held LU with zero
//!   refactorizations; nothing is copied or re-keyed. That seeded vet is
//!   the only vet the carried chain reaches: it stands if it is feasible
//!   and [`certify_unique`](ovnes_lp::certify_unique) proves a unique
//!   basis or a unique decision; a feasible but unproven one is re-vetted
//!   cold in the same slave, and an infeasible one goes straight to the
//!   deficit fallback, where the from-scratch solve also ends.
//!
//! An infrastructure event that changes only row capacities leaves the
//! chain fitting (the slave re-prices right-hand sides anyway), and a
//! carried basis it makes useless fails its certificate and costs one cold
//! re-vet; one that reroutes legs changes the matrix, and the chain is not
//! seeded.
//!
//! Every other [`SolverKind`] has no carried state at all: for Benders,
//! one-shot and the baseline, [`EpochSolver::solve_epoch`] *is*
//! [`solve_controlled`].
//!
//! **Safety contract:** the carry changes only the solve *path*. If the
//! carried solve errors — a corrupt basis, a fault-injection hit — the
//! carry is dropped and the epoch runs as a from-scratch
//! [`solve_controlled`], never as an error the orchestrator wouldn't
//! survive.

use super::{dispatch, solve_controlled, ControlledOutcome, SolveControls, SolverKind};
use crate::problem::AcrrInstance;
use ovnes_lp::WarmChain;

/// Per-epoch telemetry of the carry, alongside the [`ControlledOutcome`] it
/// produced. (How often a carried solve certified or restarted cold is in
/// the allocation's [`SolveStats`](crate::problem::SolveStats).)
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalReport {
    /// The carried solve errored and the epoch was re-solved from scratch
    /// (the carry was dropped).
    pub cold_fallback: bool,
}

/// Persistent cross-epoch solver state; owned by the orchestrator and fed
/// one [`AcrrInstance`] per epoch. See the module docs for what is carried.
#[derive(Debug, Default)]
pub struct EpochSolver {
    carry: WarmChain,
}

impl EpochSolver {
    /// A solver with no carried state: the first epoch always solves cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves one epoch's admission, resuming KAC's vetting slave from the
    /// carried chain where that applies and keeping the final chain for
    /// the next epoch.
    ///
    /// Mirrors [`solve_controlled`]'s degradation ladder — this method
    /// never errors. A failure on the carried path drops the carry and
    /// re-runs the epoch as a plain from-scratch [`solve_controlled`],
    /// reported via [`IncrementalReport::cold_fallback`].
    pub fn solve_epoch(
        &mut self,
        instance: &AcrrInstance,
        controls: &SolveControls,
    ) -> (ControlledOutcome, IncrementalReport) {
        let _span = ovnes_obs::span!("epoch_solve");
        let mut cold_fallback = false;
        let outcome = if controls.kind != SolverKind::Kac {
            solve_controlled(instance, controls)
        } else {
            match dispatch(instance, controls, Some(&mut self.carry)) {
                Ok(allocation) => ControlledOutcome::primary(allocation),
                Err(_) => {
                    self.carry.clear();
                    cold_fallback = true;
                    solve_controlled(instance, controls)
                }
            }
        };
        (outcome, IncrementalReport { cold_fallback })
    }
}
