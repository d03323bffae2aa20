//! The AC-RR problem instance (paper §3).
//!
//! An [`AcrrInstance`] is the epoch-local optimization input assembled by the
//! orchestrator: tenants with forecasts, the network model condensed into
//! capacity rows, and one **leg** per (tenant, base station, compute unit)
//! triple carrying the selected transport path.
//!
//! ## Path pre-selection
//!
//! The paper's full formulation has a binary per (τ, b, c, *path*). Since all
//! paths of a pair share the same `Λ` and the per-(τ,b) choice is single-path
//! (constraint (5)), we pre-select one path per (τ, b, c) triple among the
//! delay-feasible ones (`D_p ≤ ∆_τ`, constraint (7), exact under
//! single-path). The [`PathPolicy`] controls the choice; the orchestrator's
//! `Spread` rotates tenants across the k-shortest feasible paths, which is
//! what a load-balancing operator does and keeps link constraints meaningful.
//! The decision variable that remains binary is the paper's CU pinning
//! `u_{τ,c}` (constraint (6) reformulated: a CU is allowed for a tenant
//! only if every BS reaches it within the delay budget).
//!
//! ## Objective
//!
//! Minimise `Ψ = Σ_legs K_item·ρ(z)·u − Σ_τ R_τ·acc_τ` with
//! `ρ(z) = ξ·(Λ−z)/(Λ−λ̂)`, `ξ = σ̂·L`, `K_item = K/|B|` (per-leg
//! normalisation so a fully violated slice pays `K` once, matching the
//! paper's revenue scale).

use crate::slice::ServiceModel;
use ovnes_topology::operators::NetworkModel;

/// LTE-style spectral efficiency used to map bitrate to radio spectrum:
/// 20 MHz ⇔ 150 Mb/s (the paper's `η_b = 20/150` with ideal 2×2 MIMO).
pub(crate) const MBPS_PER_MHZ: f64 = 150.0 / 20.0;

/// How the single path per (tenant, BS, CU) triple is pre-selected among the
/// delay-feasible k-shortest paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathPolicy {
    /// Always the minimum-delay feasible path.
    MinDelay,
    /// Rotate tenants across feasible paths (deterministic round-robin on
    /// tenant and BS index) — spreads transport load.
    Spread,
}

/// Per-tenant solver input for one epoch.
#[derive(Debug, Clone)]
pub struct TenantInput {
    /// Tenant identity (for reporting).
    pub tenant: u32,
    /// Contracted per-BS bitrate Λ (Mb/s).
    pub sla_mbps: f64,
    /// Reward R (per epoch).
    pub reward: f64,
    /// Penalty constant K.
    pub penalty: f64,
    /// Latency tolerance ∆ (µs).
    pub delay_budget_us: f64,
    /// Compute model s = {a, b}.
    pub service: ServiceModel,
    /// Forecast peak load λ̂ per BS (Mb/s); length must equal the number of
    /// base stations.
    pub forecast_mbps: Vec<f64>,
    /// Forecast uncertainty σ̂ ∈ (0, 1].
    pub sigma: f64,
    /// The `L` factor of `ξ = σ̂·L`; 1.0 = per-epoch risk accounting.
    pub duration_weight: f64,
    /// Constraint (13): the slice is active and must remain accepted.
    pub must_accept: bool,
    /// Active slices stay on the CU they were deployed on.
    pub pinned_cu: Option<usize>,
}

/// One leg = (tenant, BS, CU) with its pre-selected path.
#[derive(Debug, Clone)]
pub struct Leg {
    /// Tenant index into [`AcrrInstance::tenants`].
    pub tenant: usize,
    /// Base-station index.
    pub bs: usize,
    /// Compute-unit index.
    pub cu: usize,
    /// Link indices (into [`AcrrInstance::link_caps`]) of the selected path.
    pub links: Vec<usize>,
    /// Path delay in µs.
    pub delay_us: f64,
}

/// The assembled AC-RR optimization instance.
///
/// Not `Clone`: every solver borrows the caller's instance. KAC vets
/// against strict capacities through `SlaveContext::new_strict`, never a
/// copy with `deficit_cost` cleared, which would deep-copy every leg's
/// link list each epoch.
#[derive(Debug)]
pub struct AcrrInstance {
    /// Number of base stations.
    pub n_bs: usize,
    /// Number of compute units.
    pub n_cu: usize,
    /// Radio capacity per BS, MHz (`C_b`).
    pub bs_radio_mhz: Vec<f64>,
    /// CPU cores per CU (`C_c`).
    pub cu_cores: Vec<f64>,
    /// Transport capacity per referenced link, Mb/s (`C_e`).
    pub link_caps: Vec<f64>,
    /// Graph-level link id (`LinkId::0`) per entry of `link_caps`, for
    /// reporting utilisation against the original topology.
    pub link_graph_ids: Vec<usize>,
    /// Transport protocol overhead factor `η_e` (paper simulations use 1).
    pub eta_transport: f64,
    /// Bitrate→spectrum efficiency per BS, Mb/s per MHz.
    pub mbps_per_mhz: Vec<f64>,
    /// Tenants under consideration this epoch.
    pub tenants: Vec<TenantInput>,
    /// All legs; for every allowed (tenant, cu) pair there is exactly one leg
    /// per BS, contiguous and in BS order.
    pub legs: Vec<Leg>,
    /// `leg_start[t][c]`: index in `legs` of the first of the pair's `n_bs`
    /// legs; `None` exactly where `cu_allowed[t][c]` is false.
    pub(crate) leg_start: Vec<Vec<Option<usize>>>,
    /// `cu_allowed[t][c]`: every BS reaches CU `c` within tenant `t`'s delay
    /// budget (and respects pinning).
    pub cu_allowed: Vec<Vec<bool>>,
    /// Overbooking on (z ∈ [λ̂, Λ]) or off (z = Λ).
    pub overbooking: bool,
    /// Big-M cost per unit of capacity deficit; `None` forbids deficit
    /// (§3.4's relaxation (14)-(16) is enabled by the orchestrator once
    /// slices persist across epochs).
    pub deficit_cost: Option<f64>,
}

impl AcrrInstance {
    /// Builds an instance from a network model and tenant inputs.
    ///
    /// # Panics
    /// Panics if a tenant's forecast vector length differs from the BS count
    /// or a pinned CU index is out of range.
    pub fn build(
        model: &NetworkModel,
        tenants: Vec<TenantInput>,
        policy: PathPolicy,
        overbooking: bool,
        deficit_cost: Option<f64>,
    ) -> Self {
        let n_bs = model.base_stations.len();
        let n_cu = model.compute_units.len();
        for t in &tenants {
            assert_eq!(t.forecast_mbps.len(), n_bs, "forecast per BS required");
            assert!(t.sigma > 0.0 && t.sigma <= 1.0, "σ̂ must be in (0, 1]");
            if let Some(c) = t.pinned_cu {
                assert!(c < n_cu, "pinned CU out of range");
            }
        }

        // Collect only links actually used by any selected path; remap ids
        // (graph link id → index into `link_caps`, first use first).
        let mut link_index: Vec<Option<usize>> = vec![None; model.graph.num_links()];
        let mut link_caps: Vec<f64> = Vec::new();
        let mut link_graph_ids: Vec<usize> = Vec::new();
        let mut legs = Vec::new();
        let mut cu_allowed = vec![vec![false; n_cu]; tenants.len()];
        let mut leg_start = vec![vec![None; n_cu]; tenants.len()];

        for (ti, t) in tenants.iter().enumerate() {
            for c in 0..n_cu {
                if let Some(pc) = t.pinned_cu {
                    if pc != c {
                        continue;
                    }
                }
                // Pick one feasible path per BS; the CU is allowed only if
                // every BS has one (reformulated constraint (6)).
                let mut picks: Vec<(usize, &ovnes_topology::Path)> = Vec::with_capacity(n_bs);
                let mut ok = true;
                for (b, per_cu) in model.paths.iter().enumerate() {
                    let mut feasible = per_cu[c].iter().filter(|p| p.delay_us <= t.delay_budget_us);
                    let chosen = match policy {
                        PathPolicy::MinDelay => feasible.next(),
                        // Keyed by the *global* tenant id, not the
                        // instance-local index: a tenant must keep the same
                        // spread path as its neighbours churn, or every
                        // arrival/departure would silently re-route (and
                        // re-coefficient) the whole city's LP.
                        PathPolicy::Spread => match feasible.clone().count() {
                            0 => None,
                            n => feasible.nth((t.tenant as usize + b) % n),
                        },
                    };
                    let Some(chosen) = chosen else {
                        ok = false;
                        break;
                    };
                    picks.push((b, chosen));
                }
                if !ok {
                    continue;
                }
                cu_allowed[ti][c] = true;
                let start = legs.len();
                leg_start[ti][c] = Some(start);
                for (b, path) in picks {
                    let links: Vec<usize> = path
                        .links
                        .iter()
                        .map(|lid| {
                            *link_index[lid.0].get_or_insert_with(|| {
                                link_caps.push(model.graph.link(*lid).capacity_mbps);
                                link_graph_ids.push(lid.0);
                                link_caps.len() - 1
                            })
                        })
                        .collect();
                    legs.push(Leg {
                        tenant: ti,
                        bs: b,
                        cu: c,
                        links,
                        delay_us: path.delay_us,
                    });
                }
                debug_assert!(
                    legs[start..].iter().map(|l| l.bs).eq(0..n_bs),
                    "a pair's legs: one per BS, in BS order"
                );
            }
        }

        AcrrInstance {
            n_bs,
            n_cu,
            bs_radio_mhz: model.base_stations.iter().map(|b| b.capacity_mhz).collect(),
            cu_cores: model.compute_units.iter().map(|c| c.cores).collect(),
            link_caps,
            link_graph_ids,
            eta_transport: 1.0,
            mbps_per_mhz: vec![MBPS_PER_MHZ; n_bs],
            tenants,
            legs,
            leg_start,
            cu_allowed,
            overbooking,
            deficit_cost,
        }
    }

    /// Effective forecast for a leg: under overbooking the clamped λ̂, else Λ
    /// (no-overbooking reserves the full SLA; constraint (9) flipped).
    pub(crate) fn leg_forecast(&self, leg: &Leg) -> f64 {
        let t = &self.tenants[leg.tenant];
        if self.overbooking {
            // Keep a strictly positive gap Λ − λ̂ so the risk ratio is
            // well-defined (the paper assumes λ̂ < Λ).
            t.forecast_mbps[leg.bs].clamp(0.0, 0.999 * t.sla_mbps)
        } else {
            t.sla_mbps
        }
    }

    /// Linearised risk-rate coefficient `q = ξ·K_item/(Λ − λ̂)` of a leg
    /// (zero without overbooking, where the risk term vanishes).
    pub(crate) fn leg_q(&self, leg: &Leg) -> f64 {
        if !self.overbooking {
            return 0.0;
        }
        let t = &self.tenants[leg.tenant];
        let lam_hat = self.leg_forecast(leg);
        let xi = t.sigma * t.duration_weight;
        let k_item = t.penalty / self.n_bs as f64;
        xi * k_item / (t.sla_mbps - lam_hat).max(1e-9)
    }

    /// Master objective coefficient `Γ_{τ,c} = Σ_b q·Λ − R` for a (tenant,
    /// CU) pair; `None` when the pair is not allowed.
    pub(crate) fn gamma(&self, tenant: usize, cu: usize) -> Option<f64> {
        if !self.cu_allowed[tenant][cu] {
            return None;
        }
        let t = &self.tenants[tenant];
        let risk: f64 = self
            .legs_of(tenant, cu)
            .iter()
            .map(|l| self.leg_q(l) * t.sla_mbps)
            .sum();
        Some(risk - t.reward)
    }

    /// `Σ_τ Γ_{τ,c}` over the admitted (tenant, CU) pairs of `assigned`,
    /// summed in tenant order: the fixed part of an admission's objective,
    /// to which a slave adds its reservation value. `None` when a tenant is
    /// assigned a CU it is not allowed on.
    pub(crate) fn admission_cost(&self, assigned: &[Option<usize>]) -> Option<f64> {
        let mut cost = 0.0;
        for (t, c) in assigned.iter().enumerate() {
            if let Some(c) = *c {
                cost += self.gamma(t, c)?;
            }
        }
        Some(cost)
    }

    /// All allowed (tenant, cu) pairs.
    pub(crate) fn pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for t in 0..self.tenants.len() {
            for c in 0..self.n_cu {
                if self.cu_allowed[t][c] {
                    out.push((t, c));
                }
            }
        }
        out
    }

    /// Positions in [`AcrrInstance::legs`] of a (tenant, cu) pair's legs: one
    /// per BS, in BS order; empty when the pair is not allowed.
    pub(crate) fn leg_range(&self, tenant: usize, cu: usize) -> std::ops::Range<usize> {
        match self.leg_start[tenant][cu] {
            Some(start) => start..start + self.n_bs,
            None => 0..0,
        }
    }

    /// Legs of a (tenant, cu) pair, indexed by BS; empty when the pair is not
    /// allowed.
    pub(crate) fn legs_of(&self, tenant: usize, cu: usize) -> &[Leg] {
        &self.legs[self.leg_range(tenant, cu)]
    }

    /// True if some assignment can satisfy `must_accept` tenants at all
    /// (every forced tenant has at least one allowed CU).
    pub(crate) fn forced_feasible(&self) -> bool {
        self.tenants
            .iter()
            .enumerate()
            .all(|(i, t)| !t.must_accept || self.cu_allowed[i].iter().any(|&a| a))
    }
}

/// The solver output: admissions, CU selection and reservations.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Objective value Ψ (minimisation; more negative = more net revenue).
    pub objective: f64,
    /// Selected CU per tenant (`None` = rejected).
    pub assigned_cu: Vec<Option<usize>>,
    /// Reservation z per (tenant, BS) in Mb/s (0 for rejected tenants),
    /// indexed `[tenant][bs]`.
    pub reservations: Vec<Vec<f64>>,
    /// Capacity deficit absorbed by the §3.4 relaxation:
    /// (radio MHz, transport Mb/s, compute cores).
    pub deficit: (f64, f64, f64),
    /// Solver diagnostics.
    pub stats: SolveStats,
}

impl Allocation {
    /// The allocation of an admission decision: each admitted tenant's
    /// reservation at BS `b` is `leg_z(li)` of the leg `li` of its
    /// (tenant, CU) pair at `b`; rejected tenants reserve nothing.
    pub(crate) fn from_legs(
        instance: &AcrrInstance,
        objective: f64,
        assigned_cu: Vec<Option<usize>>,
        leg_z: impl Fn(usize) -> f64,
        deficit: (f64, f64, f64),
        stats: SolveStats,
    ) -> Allocation {
        let mut reservations = vec![vec![0.0; instance.n_bs]; instance.tenants.len()];
        for (li, leg) in instance.legs.iter().enumerate() {
            if assigned_cu[leg.tenant] == Some(leg.cu) {
                reservations[leg.tenant][leg.bs] = leg_z(li);
            }
        }
        Allocation {
            objective,
            assigned_cu,
            reservations,
            deficit,
            stats,
        }
    }

    /// Number of accepted tenants.
    pub fn accepted(&self) -> usize {
        self.assigned_cu.iter().filter(|c| c.is_some()).count()
    }

    /// Expected per-epoch net revenue implied by the objective (−Ψ).
    pub fn expected_net_revenue(&self) -> f64 {
        -self.objective
    }
}

/// Solver diagnostics.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Outer iterations (Benders/KAC rounds; 1 for one-shot MILP).
    pub iterations: usize,
    /// LP solves performed (slaves + relaxations where counted).
    pub lp_solves: usize,
    /// Final optimality gap (UB − LB) for Benders; 0 elsewhere.
    pub gap: f64,
    /// True when a [`SolveBudget`](crate::solver::SolveBudget) limit cut the
    /// search short and the allocation is a best-effort incumbent rather
    /// than a proven optimum (Benders: outer rounds exhausted or a truncated
    /// master; MILP solvers: node/wall limits hit).
    pub truncated: bool,
    /// Pivot-level LP statistics aggregated across every simplex run this
    /// solve performed (master B&B nodes + slave re-pricings): phase-1/2
    /// pivots, dual (warm-restart) pivots, warm-start hits,
    /// refactorizations.
    pub lp: ovnes_lp::LpStats,
    /// Always 0: Benders cut recycling was deleted with the carry verdict
    /// (see `crates/scenario/DESIGN.md`). The field stays only because the
    /// frozen `benchmark/src/harness.rs` names it; it goes in the next
    /// `benchmark` PR.
    pub recycled_cuts: usize,
    /// Seeded (carried-basis) vets that were feasible but certified
    /// [`Uniqueness::Unproven`](ovnes_lp::Uniqueness::Unproven) and were
    /// re-vetted cold in the same slave (KAC with a carried chain only;
    /// 0 elsewhere). The re-vet is exactly the from-scratch vet — this
    /// only records that the carry bought nothing that epoch. An
    /// infeasible seeded vet goes straight to the deficit fallback and is
    /// not counted.
    pub carry_cold_restarts: usize,
    /// Seeded vets that stood: feasible and certified at least a unique
    /// optimal decision (KAC with a carried chain only).
    pub carry_certified: usize,
    /// Subset of [`SolveStats::carry_certified`] certified
    /// [`Uniqueness::Decision`](ovnes_lp::Uniqueness::Decision) only —
    /// degenerate optima the strict complementarity test rejects (see
    /// [`ovnes_lp::certify_unique`]).
    pub carry_certified_perturbed: usize,
    /// Always 0: the churn-epoch carry was deleted with the carry verdict
    /// (the carry is attempted on all-forced epochs only). Kept for the
    /// frozen `benchmark/src/harness.rs`, like
    /// [`SolveStats::recycled_cuts`].
    pub churn_carry_attempts: usize,
}

impl SolveStats {
    /// Human-oriented one-line summary of the pivot-level counters,
    /// rendered through the shared `ovnes-obs` formatter so the counter
    /// names come from [`ovnes_lp::LpStats::named_counters`] — the one
    /// source of truth every binary shares.
    pub fn lp_summary(&self) -> String {
        ovnes_obs::report::counter_line(&self.lp.named_counters())
    }
}
