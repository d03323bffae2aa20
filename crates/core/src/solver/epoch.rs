//! Cross-epoch incremental re-optimization.
//!
//! One admission epoch differs from the previous by its *churn* — a few
//! arrivals, departures, and forecast updates — while the LP/MILP machinery
//! historically re-solved the whole city from scratch. [`EpochSolver`] is
//! the persistent state that makes the per-epoch cost track the churn
//! instead:
//!
//! * the previous epoch's final slave **basis** (plus its factorization)
//!   is re-keyed onto the new epoch's LP layout via stable
//!   [`ColKey`](super::slave::ColKey)/[`RowKey`] identities — on a
//!   no-churn epoch the mapping is the identity and the first solve replays
//!   the persisted LU with **zero refactorizations**;
//! * Benders **cuts** are kept as raw dual certificates
//!   ([`RecycledCut`]) and re-priced against the new epoch's data, so the
//!   master starts with last epoch's polyhedral knowledge;
//! * the previous **admission** seeds the branch-and-bound incumbent, so
//!   exact solvers prove optimality instead of rediscovering it.
//!
//! Infrastructure events (PR 6) only change row capacities, which
//! re-pricing already absorbs; they do, however, make cuts whose
//! certificates lean on the affected rows useless, so the orchestrator
//! reports the touched [`RowKey`]s and [`EpochSolver::solve_epoch`] drops
//! those cuts before solving.
//!
//! **Safety contract:** every hook above changes only the solve *path*.
//! If any incremental step fails — a corrupt carried basis, a
//! fault-injection hit, an over-tight seeded cutoff — the epoch degrades
//! cleanly to a from-scratch [`solve_controlled`] (and the carried state is
//! reset), never to an error the orchestrator wouldn't survive.

use super::slave::{LpCarry, RecycledCut, RowKey, SlaveContext, SlaveResult};
use super::{dispatch, milp_options_for, solve_controlled, ControlledOutcome, SolveControls};
use crate::problem::AcrrInstance;
use std::collections::HashMap;

/// Per-epoch telemetry of the incremental machinery, alongside the
/// [`ControlledOutcome`] it produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalReport {
    /// A previous epoch's basis was re-keyed into this solve's slave.
    pub carried_basis: bool,
    /// Recycled cuts re-priced into the master (Benders only).
    pub recycled_cuts: usize,
    /// Pool cuts dropped because an infrastructure event touched a row
    /// their certificate weights.
    pub invalidated_cuts: usize,
    /// The incremental path failed and the epoch was re-solved cold from
    /// scratch (carried state was reset).
    pub cold_fallback: bool,
}

/// Persistent cross-epoch solver state; owned by the orchestrator and fed
/// one [`AcrrInstance`] per epoch. See the module docs for what is carried.
#[derive(Debug, Default)]
pub struct EpochSolver {
    pub(super) carry: LpCarry,
    pub(super) cuts: Vec<RecycledCut>,
    /// Previous epoch's admission, keyed by *global* tenant id so it
    /// survives the per-epoch renumbering of instance-local indices.
    prev_admission: Option<Vec<(u32, usize)>>,
}

impl EpochSolver {
    /// A solver with no carried state: the first epoch always solves cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all carried state; the next epoch solves exactly like a
    /// from-scratch run.
    pub fn reset(&mut self) {
        self.carry = LpCarry::default();
        self.cuts.clear();
        self.prev_admission = None;
    }

    /// Drops pooled cuts whose dual certificate weights any of the touched
    /// rows (capacity changed ⇒ the certificate's tightness argument is
    /// stale). Returns how many were dropped. Re-pricing keeps the
    /// *remaining* cuts valid regardless — invalidation is a usefulness
    /// filter, not a soundness requirement.
    pub fn invalidate(&mut self, touched: &[RowKey]) -> usize {
        if touched.is_empty() || self.cuts.is_empty() {
            return 0;
        }
        let before = self.cuts.len();
        self.cuts.retain(|c| !touched.iter().any(|k| c.touches(k)));
        before - self.cuts.len()
    }

    /// Solves one epoch's admission with every applicable incremental hook,
    /// updating the carried state for the next epoch. `touched` lists the
    /// rows whose capacity changed since the previous epoch (infrastructure
    /// events); pass `&[]` when nothing happened.
    ///
    /// Mirrors [`solve_controlled`]'s degradation ladder — this method
    /// never errors. Any failure on the incremental path resets the carried
    /// state and re-runs the epoch as a plain from-scratch
    /// [`solve_controlled`], reported via
    /// [`IncrementalReport::cold_fallback`].
    pub fn solve_epoch(
        &mut self,
        instance: &AcrrInstance,
        controls: &SolveControls,
        touched: &[RowKey],
    ) -> (ControlledOutcome, IncrementalReport) {
        let _span = ovnes_obs::span!("epoch_solve");
        let mut report = IncrementalReport {
            invalidated_cuts: self.invalidate(touched),
            carried_basis: self.carry.is_seeded(),
            ..IncrementalReport::default()
        };
        if report.carried_basis {
            ovnes_obs::metrics::global_counter_add("epoch.carry_attempts", 1);
        }
        // The primary solver with its incremental hooks attached; an error
        // degrades to a cold solve below.
        match dispatch(instance, controls, Some(self)).map(ControlledOutcome::primary) {
            Ok(outcome) => {
                report.recycled_cuts = outcome
                    .allocation
                    .as_ref()
                    .map_or(0, |a| a.stats.recycled_cuts);
                if let Some(alloc) = outcome.allocation.as_ref() {
                    ovnes_obs::metrics::global_counter_add(
                        "epoch.carry_certified",
                        alloc.stats.carry_certified as u64,
                    );
                    ovnes_obs::metrics::global_counter_add(
                        "epoch.carry_cold_restarts",
                        alloc.stats.carry_cold_restarts as u64,
                    );
                }
                self.remember(instance, &outcome);
                (outcome, report)
            }
            Err(_) => {
                self.reset();
                report.cold_fallback = true;
                report.carried_basis = false;
                ovnes_obs::metrics::global_counter_add("epoch.cold_fallbacks", 1);
                let outcome = solve_controlled(instance, controls);
                self.remember(instance, &outcome);
                (outcome, report)
            }
        }
    }

    /// Re-indexes the remembered admission onto this epoch's tenant list;
    /// departed tenants drop out, arrivals map to `None`.
    pub(super) fn mapped_prev(&self, instance: &AcrrInstance) -> Option<Vec<Option<usize>>> {
        let prev = self.prev_admission.as_ref()?;
        let by_id: HashMap<u32, usize> = prev.iter().copied().collect();
        Some(
            instance
                .tenants
                .iter()
                .map(|t| by_id.get(&t.tenant).copied())
                .collect(),
        )
    }

    /// Evaluates the remembered admission against this epoch's instance and
    /// returns a branch-and-bound cutoff for the one-shot MILP — slightly
    /// relaxed (`+ abs_gap + ε`) so the true optimum is never pruned.
    /// `None` whenever the admission no longer qualifies (forced tenant
    /// uncovered, CU no longer allowed, slave evaluation failed).
    pub(super) fn oneshot_bound(
        &self,
        instance: &AcrrInstance,
        controls: &SolveControls,
    ) -> Option<f64> {
        let prev = self.mapped_prev(instance)?;
        let usable = prev.iter().enumerate().all(|(t, c)| match c {
            Some(c) => *c < instance.n_cu && instance.cu_allowed[t][*c],
            None => !instance.tenants[t].must_accept,
        });
        if !usable {
            return None;
        }
        let mut slave = SlaveContext::new(instance);
        let SlaveResult::Feasible { value, .. } = slave.solve_for(&prev).ok()? else {
            return None;
        };
        let mut fixed = 0.0;
        for (t, c) in prev.iter().enumerate() {
            if let Some(c) = c {
                fixed += instance.gamma(t, *c)?;
            }
        }
        Some(fixed + value + milp_options_for(controls).abs_gap + 1e-6)
    }

    /// Records this epoch's admission (when one was made) for the next
    /// epoch's incumbent seeding. A deferred epoch keeps the previous
    /// record — the orchestrator keeps the previous reservations in force,
    /// so that admission is still the operative one.
    fn remember(&mut self, instance: &AcrrInstance, outcome: &ControlledOutcome) {
        if let Some(a) = outcome.allocation.as_ref() {
            self.prev_admission = Some(
                a.assigned_cu
                    .iter()
                    .enumerate()
                    .filter_map(|(t, c)| c.map(|c| (instance.tenants[t].tenant, c)))
                    .collect(),
            );
        }
    }
}
