//! The end-to-end orchestrator (paper §2.2, "OVNES"): the epoch loop tying
//! together monitoring, forecasting, AC-RR solving and the data plane.
//!
//! Each decision epoch the orchestrator:
//!
//! 1. collects newly arrived slice requests (the slice manager's queue),
//! 2. forecasts every tenant's peak demand per BS from the monitoring
//!    history (Holt-Winters, §2.2.2) — tenants without history get the
//!    operator prior,
//! 3. builds and solves the AC-RR instance (active slices are forced to
//!    remain admitted on their pinned CU, constraint (13), with the §3.4
//!    deficit relaxation enabled),
//! 4. pushes the reservations into the data plane and simulates one epoch of
//!    traffic through the middlebox,
//! 5. records each request's per-BS monitoring peaks on its own tenant
//!    record, so a history lives exactly as long as its request, and
//!    accounts revenue: rewards for admitted slices minus penalties
//!    `K·(worst SLA deficit)/Λ` for violations.
//!
//! [`Orchestrator::step`] is one epoch and [`Orchestrator::run`] the one
//! horizon loop every experiment drives. Pending requests are considered in
//! stable arrival-epoch order, so a horizon depends on its requests and not
//! on when they were submitted.

use crate::problem::{AcrrInstance, PathPolicy, TenantInput, MBPS_PER_MHZ};
use crate::slice::{RequestFault, SliceRequest};
use crate::solver::{self, AcrrError, Degradation, SolveBudget, SolveControls, SolverKind};
use ovnes_forecast::predict_next;
use ovnes_netsim::{run_epoch, Flow, FlowReport, TrafficGenerator};
use ovnes_topology::graph::LinkId;
use ovnes_topology::operators::NetworkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::Instant;

/// Orchestrator configuration.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Which AC-RR algorithm to run each epoch.
    pub solver: SolverKind,
    /// Ignored: every epoch's branch and bound is one best-first loop on
    /// the calling thread. The field survives only because the frozen
    /// `benchmark/` harness still names it; the next change to
    /// `benchmark/` drops that use, and this field with it.
    pub threads: usize,
    /// Ignored, as [`OrchestratorConfig::threads`] is: the search has no
    /// rounds to size.
    pub round_width: usize,
    /// Overbooking on/off (off ⇒ the no-overbooking baseline semantics).
    pub overbooking: bool,
    /// Monitoring samples per epoch (the paper's κ; testbed uses 12 × 5 min).
    pub samples_per_epoch: usize,
    /// Seasonal period for Holt-Winters, in epochs (e.g. 24 for hourly
    /// epochs with diurnal traffic).
    pub season_epochs: usize,
    /// History length (epochs) below which the operator prior (`λ̂ = Λ`,
    /// `σ̂ = 0.5`) is used instead of a forecast.
    pub prior_history: usize,
    /// Safety margin on the reservation floor: `λ̂ = forecast·(1 +
    /// headroom·σ̂)`. The paper reserves for *forecasted peak* loads
    /// specifically to keep the violation footprint negligible (§3.1); the
    /// uncertainty-scaled headroom is how we realise that: confident
    /// forecasts get a thin margin, erratic ones a thick margin. Must be
    /// finite: [`Orchestrator::step`] refuses NaN or ±∞ with
    /// [`AcrrError::Config`], since `0 · ∞` would reach the admission LP as
    /// a NaN bound.
    pub forecast_headroom: f64,
    /// §2.1.3: "our overbooking mechanism adapts the reservation of
    /// resources to the actual demand of each slice (or a prediction of
    /// it)". When `true` (default), admitted slices are reserved their
    /// head-roomed forecast `λ̂` rather than whatever slack the optimizer
    /// filled up to — matching the adaptive reservations of Fig. 8. When
    /// `false`, the solver's risk-optimal reservations (which grow to Λ
    /// whenever capacity is free) are enforced as-is.
    pub adaptive_reservations: bool,
    /// Total admission attempts a rejected request gets before abandoning,
    /// counting the attempt at its arrival epoch: with patience `P`, a
    /// request arriving at epoch `a` applies at epochs `a .. a+P` and is
    /// dropped after the rejection at `a+P−1`. `u32::MAX` = unlimited, the
    /// paper's semantics where every tenant re-applies each epoch.
    /// Long-horizon workload scenarios set a finite patience so the
    /// pending queue — and with it the per-epoch AC-RR instance — stays
    /// bounded under churn.
    pub reapply_epochs: u32,
    /// Simulation seed.
    pub seed: u64,
    /// Compute budget per epoch solve. Exhaustion never aborts the epoch:
    /// the decision degrades down the ladder (incumbent → KAC greedy →
    /// defer) and the rung is recorded in
    /// [`EpochOutcome::degradation`]. Default unlimited.
    pub budget: SolveBudget,
    /// Seeded LP fault injection threaded into the MILP-backed epoch solves
    /// (chaos testing; see [`ovnes_lp::FaultConfig`]). Default `None`.
    pub lp_fault: Option<ovnes_lp::FaultConfig>,
    /// Ignored: every KAC epoch resumes its vetting slave from the
    /// previous epoch's warm chain ([`solver::solve_epoch`]), whatever this
    /// says. The field survives only because the frozen `benchmark/`
    /// harness still names it; the next change to `benchmark/` drops that
    /// use, and this field with it.
    pub incremental: bool,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            solver: SolverKind::Benders,
            threads: 1,
            round_width: 0,
            overbooking: true,
            samples_per_epoch: 12,
            season_epochs: 6,
            prior_history: 3,
            forecast_headroom: 2.5,
            adaptive_reservations: false,
            reapply_epochs: u32::MAX,
            seed: 7,
            budget: SolveBudget::default(),
            lp_fault: None,
            incremental: false,
        }
    }
}

/// Floor for forecast uncertainty σ̂ (`predict_next` requires it > 0).
const MIN_SIGMA: f64 = 0.01;
/// Prior σ̂ of a tenant with fewer than `prior_history` monitored epochs.
const PRIOR_SIGMA: f64 = 0.5;
/// Big-M cost of capacity deficit (paper §3.4).
const DEFICIT_COST: f64 = 1e4;
/// The `L` factor in `ξ = σ̂·L`: 1.0 = per-epoch risk accounting, the risk
/// of a slice is re-priced every epoch it stays admitted.
const DURATION_WEIGHT: f64 = 1.0;
/// Path pre-selection: spread tenants across the feasible k-shortest paths.
const PATH_POLICY: PathPolicy = PathPolicy::Spread;

/// What happens to the infrastructure (an event's effect is applied to the
/// live network model at the start of its epoch, *before* that epoch's
/// admission decision).
///
/// Capacity factors are **absolute fractions of the as-built ("base")
/// capacity**, not of the current one — so a repair is simply a second
/// event with `factor: 1.0`, and two degradations never compound by
/// accident. A factor is clamped into `[0, 1]`, and a NaN factor reads as
/// 0: the resource is gone, exactly as at `factor: 0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InfraEventKind {
    /// A base station goes dark: its radio capacity drops to zero and
    /// demand forecasts at that BS are clamped to zero until recovery.
    /// Active slices keep their admission (their other BSs still serve) but
    /// their reservations at the dead BS are trimmed to zero, so traffic
    /// arriving there registers as SLA violations — the paper's penalty
    /// accounting prices the outage.
    BsOutage {
        /// Base-station index.
        bs: usize,
    },
    /// The base station comes back at full capacity.
    BsRecovery {
        /// Base-station index.
        bs: usize,
    },
    /// A transport link's capacity changes to `factor` × its base capacity
    /// (clamped to `[0, 1]`; `1.0` = fully repaired). Topology and
    /// precomputed path sets are untouched — path *delay* metrics keep their
    /// nominal-capacity values, only the capacity rows of subsequent
    /// admission solves see the degradation.
    LinkDegradation {
        /// Graph link index.
        link: usize,
        /// Remaining fraction of base capacity.
        factor: f64,
    },
    /// A compute unit's core capacity changes to `factor` × its base
    /// capacity (clamped to `[0, 1]`; `1.0` = fully repaired). Shrinkage
    /// triggers revalidation of the active slices hosted there: overloading
    /// slices are re-homed to another delay-feasible CU with room, or
    /// evicted with a one-time SLA-break penalty.
    CuCapacityLoss {
        /// Compute-unit index.
        cu: usize,
        /// Remaining fraction of base capacity.
        factor: f64,
    },
}

/// A scheduled infrastructure event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfraEvent {
    /// Epoch at whose start the event takes effect.
    pub epoch: u32,
    /// What happens.
    pub kind: InfraEventKind,
}

/// One request and its monitoring history (§2.2.2), as a single record.
///
/// The record moves by value from the queue to the epoch's pending set and
/// on to the active set, or back to the queue; it is never cloned, and its
/// history goes wherever it goes. A record that expires, is evicted or
/// abandons drops its history with it, so two live requests under one
/// tenant id keep separate series.
#[derive(Debug)]
struct Tenant {
    request: SliceRequest,
    /// Peak offered load per BS, one series per BS, earliest epoch first;
    /// empty until the tenant's first simulated epoch.
    peaks: Vec<Vec<f64>>,
}

impl Tenant {
    /// Appends one epoch's peaks from the tenant's block of flow reports,
    /// one report per BS in BS order.
    fn record(&mut self, reports: &[FlowReport]) {
        self.peaks.resize_with(reports.len(), Vec::new);
        for (series, f) in self.peaks.iter_mut().zip(reports) {
            series.push(f.peak_offered.max(0.0));
        }
    }
}

/// An admitted slice with its remaining lifetime and current reservations.
#[derive(Debug)]
struct ActiveSlice {
    tenant: Tenant,
    cu: usize,
    remaining: u32,
    /// Reservation per BS, Mb/s.
    reservations: Vec<f64>,
}

/// Wall-clock seconds spent in each orchestrator phase of one epoch
/// (the `revalidate → forecast → solve → admit → simulate` pipeline of
/// [`Orchestrator::step`]). Each is the inclusive time of the phase's
/// `ovnes-obs` span (`epoch;<phase>`), so all-zero while observability is
/// off, except [`EpochPhaseSeconds::solve`], which always mirrors
/// [`EpochOutcome::decision_seconds`]. **Not deterministic** — scenario
/// fingerprints must never include these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochPhaseSeconds {
    /// Infra event application + active-set revalidation (step 0).
    pub revalidate: f64,
    /// Tenant-input assembly incl. per-tenant forecasts (step 2).
    pub forecast: f64,
    /// The admission solve ladder (step 3) — `decision_seconds`.
    pub solve: f64,
    /// Decision application: active set + rejects set aside (step 4).
    pub admit: f64,
    /// Middlebox data-plane simulation (step 5).
    pub simulate: f64,
}

impl EpochPhaseSeconds {
    /// Accumulate another epoch's phase breakdown (driver aggregation).
    pub fn accumulate(&mut self, other: &EpochPhaseSeconds) {
        self.revalidate += other.revalidate;
        self.forecast += other.forecast;
        self.solve += other.solve;
        self.admit += other.admit;
        self.simulate += other.simulate;
    }
}

/// Everything that happened in one epoch.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Tenants admitted this epoch (including continuing ones).
    pub admitted: Vec<u32>,
    /// Tenants admitted for the *first* time this epoch (the subset of
    /// [`EpochOutcome::admitted`] that was pending at the start of the
    /// epoch) — the numerator of an acceptance-ratio metric.
    pub newly_admitted: Vec<u32>,
    /// Pending tenants rejected this epoch.
    pub rejected: Vec<u32>,
    /// Requests refused on arrival this epoch, in arrival order, each with
    /// its `SliceRequest::fault`. A refused request is dropped before
    /// anything forecasts, solves or simulates it, so the other requests
    /// are decided as if it had never been submitted.
    pub refused: Vec<(u32, RequestFault)>,
    /// Rejected tenants that abandoned this epoch (their
    /// [`OrchestratorConfig::reapply_epochs`] patience ran out; they will
    /// not re-apply).
    pub abandoned: Vec<u32>,
    /// Active slices evicted by infrastructure shrinkage this epoch (no
    /// delay-feasible CU with room was left for them). Each eviction is
    /// charged a one-time SLA-break penalty, included in
    /// [`EpochOutcome::penalty`] and itemised in
    /// [`EpochOutcome::eviction_penalty`].
    pub evicted: Vec<u32>,
    /// Active slices moved to a different CU by revalidation this epoch
    /// (their old CU shrank; a delay-feasible CU with room existed).
    pub rehomed: Vec<u32>,
    /// One-time SLA-break penalties charged for this epoch's evictions
    /// (a subcomponent of [`EpochOutcome::penalty`]).
    pub eviction_penalty: f64,
    /// Infrastructure events applied at the start of this epoch.
    pub infra_events: usize,
    /// Net revenue = rewards − penalties.
    pub net_revenue: f64,
    /// Gross rewards collected.
    pub reward: f64,
    /// Penalties paid for SLA violations.
    pub penalty: f64,
    /// (violated samples, total samples) across all admitted flows.
    pub violation_samples: (usize, usize),
    /// Worst single-sample traffic-drop fraction among violations.
    pub worst_drop_fraction: f64,
    /// Capacity deficit the big-M relaxation had to absorb.
    pub deficit: (f64, f64, f64),
    /// Reserved radio per BS, MHz.
    pub bs_reserved_mhz: Vec<f64>,
    /// Mean offered radio load per BS, MHz.
    pub bs_load_mhz: Vec<f64>,
    /// Reserved cores per CU.
    pub cu_reserved_cores: Vec<f64>,
    /// Mean carried-load cores per CU.
    pub cu_load_cores: Vec<f64>,
    /// Reserved Mb/s per graph link id (only links carrying slices).
    pub link_reserved_mbps: HashMap<usize, f64>,
    /// Mean offered Mb/s per graph link id.
    pub link_load_mbps: HashMap<usize, f64>,
    /// Solver diagnostics.
    pub solver_stats: crate::problem::SolveStats,
    /// How far down the degradation ladder this epoch's admission decision
    /// fell (see [`solver::solve_controlled`]).
    pub degradation: Degradation,
    /// The primary-solver error, when one occurred (recorded even when a
    /// fallback rung produced the decision).
    pub solver_error: Option<String>,
    /// Wall-clock seconds spent in the admission solve (the ladder, end to
    /// end). **Not deterministic** — scenario fingerprints exclude it.
    pub decision_seconds: f64,
    /// Per-phase wall-clock breakdown of this epoch (see
    /// [`EpochPhaseSeconds`]). Zeros (except `solve`) unless `ovnes-obs`
    /// is enabled. **Not deterministic** — fingerprints exclude it.
    pub phase_seconds: EpochPhaseSeconds,
    /// The solve from the carried chain errored, so the chain was dropped
    /// and the epoch re-solved from scratch
    /// ([`ControlledOutcome::carry_fallback`](solver::ControlledOutcome::carry_fallback)).
    pub carry_fallback: bool,
    /// Enforced reservations in excess of current capacity, summed per
    /// resource class: (radio MHz, transport Mb/s, compute cores) — the
    /// same order as [`EpochOutcome::deficit`]. Bounded by the deficit the
    /// big-M relaxation reported (plus stale reservations on deferred
    /// epochs); the chaos suite asserts the bound.
    pub overcommit: (f64, f64, f64),
}

/// The end-to-end orchestrator.
#[derive(Debug)]
pub struct Orchestrator {
    model: NetworkModel,
    config: OrchestratorConfig,
    rng: StdRng,
    epoch: u32,
    sample_index: u64,
    /// Admitted slices; their order fixes the instance's tenant order and
    /// the flow order.
    active: Vec<ActiveSlice>,
    /// Requests not yet admitted, in submission order (re-applying rejects
    /// appended after those still waiting).
    queue: Vec<Tenant>,
    /// Scheduled infrastructure events not yet applied.
    events: Vec<InfraEvent>,
    /// As-built capacities (events express factors relative to these).
    base_bs_mhz: Vec<f64>,
    base_cu_cores: Vec<f64>,
    base_link_mbps: Vec<f64>,
    /// Per-BS availability factor (0 during an outage): demand forecasts
    /// are scaled by it so solves stop reserving at dark radios.
    bs_factor: Vec<f64>,
    /// KAC's vetting-slave warm chain, carried from one epoch's solve to
    /// the next ([`solver::solve_epoch`]).
    carry: ovnes_lp::WarmChain,
}

impl Orchestrator {
    /// Creates an orchestrator over a network model.
    pub fn new(model: NetworkModel, config: OrchestratorConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let base_bs_mhz: Vec<f64> = model.base_stations.iter().map(|b| b.capacity_mhz).collect();
        let base_cu_cores: Vec<f64> = model.compute_units.iter().map(|c| c.cores).collect();
        let base_link_mbps: Vec<f64> = model.graph.links().map(|(_, l)| l.capacity_mbps).collect();
        let bs_factor = vec![1.0; base_bs_mhz.len()];
        Self {
            model,
            config,
            rng,
            epoch: 0,
            sample_index: 0,
            active: Vec::new(),
            queue: Vec::new(),
            events: Vec::new(),
            base_bs_mhz,
            base_cu_cores,
            base_link_mbps,
            bs_factor,
            carry: ovnes_lp::WarmChain::new(),
        }
    }

    /// Queues a slice request. It is considered from its `arrival_epoch` on,
    /// ordered among the pending requests by that epoch and not by when it
    /// was submitted.
    ///
    /// The monitoring history belongs to the request, not to its tenant id:
    /// it starts empty, lives while the request is queued or active, and
    /// goes when the request expires, is evicted or abandons. Two live
    /// requests under one id keep separate histories, and a later request
    /// under a departed id starts from the operator prior again.
    ///
    /// A request with a `SliceRequest::fault` is accepted here and
    /// refused when it arrives ([`EpochOutcome::refused`]).
    pub fn submit(&mut self, request: SliceRequest) {
        self.queue.push(Tenant {
            request,
            peaks: Vec::new(),
        });
    }

    /// Schedules an infrastructure event. Events are applied at the start
    /// of their epoch, in submission order within an epoch (submit them in
    /// a deterministic order to keep runs reproducible). Out-of-range
    /// indices are ignored at application time.
    pub fn schedule_event(&mut self, event: InfraEvent) {
        self.events.push(event);
    }

    /// Current epoch index.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Tenants currently admitted.
    pub fn active_tenants(&self) -> Vec<u32> {
        self.active
            .iter()
            .map(|a| a.tenant.request.tenant)
            .collect()
    }

    /// Requests queued or re-applying (not yet admitted or abandoned).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Every live record, active ones first, then the queue.
    #[cfg(test)]
    fn records(&self) -> impl Iterator<Item = &Tenant> {
        self.active.iter().map(|a| &a.tenant).chain(&self.queue)
    }

    /// Monitored per-BS series currently held, summed over live records.
    #[cfg(test)]
    pub(crate) fn monitored_series(&self) -> usize {
        self.records().map(|t| t.peaks.len()).sum()
    }

    /// Peaks held per BS by each live record under `tenant`, active records
    /// first, then queued ones.
    #[cfg(test)]
    pub(crate) fn monitored_epochs(&self, tenant: u32) -> Vec<Vec<usize>> {
        self.records()
            .filter(|t| t.request.tenant == tenant)
            .map(|t| t.peaks.iter().map(Vec::len).collect())
            .collect()
    }

    /// Forecast for a tenant: per-BS λ̂ plus σ̂ (max across BSs). Falls back
    /// to the operator prior below `prior_history` epochs of monitoring.
    fn forecast_for(&self, tenant: &Tenant) -> (Vec<f64>, f64) {
        let request = &tenant.request;
        let n_bs = self.model.base_stations.len();
        let lam = request.template.sla_mbps;
        let mut lam_hat = vec![lam; n_bs];
        let mut sigma = PRIOR_SIGMA;
        let mut observed = false;
        // Risk-averse margin: the costlier a violation (penalty factor
        // m = K/R), the more peak headroom the reservation floor carries.
        let m_factor = (request.penalty / request.template.reward.max(1e-9)).max(1.0);
        let headroom = self.config.forecast_headroom * (1.0 + 0.5 * m_factor.ln());
        for b in 0..n_bs {
            let series = tenant.peaks.get(b).map_or(&[][..], Vec::as_slice);
            if series.len() >= self.config.prior_history {
                let pred = predict_next(series, self.config.season_epochs, MIN_SIGMA);
                // Never reserve below the recent observed peaks: a transient
                // downward forecast dip must not trigger an avoidable
                // violation (the paper's "max over monitoring samples"
                // aggregation exists precisely to cover peaks).
                let recent = series[series.len().saturating_sub(3)..]
                    .iter()
                    .cloned()
                    .fold(0.0f64, f64::max);
                lam_hat[b] = pred.value.max(recent) * (1.0 + headroom * pred.sigma);
                sigma = if observed {
                    sigma.max(pred.sigma)
                } else {
                    pred.sigma
                };
                observed = true;
            }
        }
        // Availability clamp: a BS in outage serves nothing, so reserving
        // for demand there is pure waste (and, for forced slices, would
        // drive the radio row straight into the big-M deficit).
        for (b, f) in self.bs_factor.iter().enumerate() {
            lam_hat[b] *= f;
        }
        (lam_hat, sigma.clamp(MIN_SIGMA, 1.0))
    }

    /// Applies every scheduled event due at `epoch` to the live model;
    /// returns how many were applied.
    fn apply_due_events(&mut self, epoch: u32) -> usize {
        let mut due: Vec<InfraEvent> = Vec::new();
        self.events.retain(|e| {
            if e.epoch <= epoch {
                due.push(*e);
                false
            } else {
                true
            }
        });
        for event in &due {
            match event.kind {
                InfraEventKind::BsOutage { bs } => {
                    if bs < self.base_bs_mhz.len() {
                        self.bs_factor[bs] = 0.0;
                        self.model.base_stations[bs].capacity_mhz = 0.0;
                    }
                }
                InfraEventKind::BsRecovery { bs } => {
                    if bs < self.base_bs_mhz.len() {
                        self.bs_factor[bs] = 1.0;
                        self.model.base_stations[bs].capacity_mhz = self.base_bs_mhz[bs];
                    }
                }
                InfraEventKind::LinkDegradation { link, factor } => {
                    if link < self.base_link_mbps.len() {
                        let cap = self.base_link_mbps[link] * capacity_fraction(factor);
                        self.model.graph.set_link_capacity(LinkId(link), cap);
                    }
                }
                InfraEventKind::CuCapacityLoss { cu, factor } => {
                    if cu < self.base_cu_cores.len() {
                        self.model.compute_units[cu].cores =
                            self.base_cu_cores[cu] * capacity_fraction(factor);
                    }
                }
            }
        }
        due.len()
    }

    /// Cores an active slice occupies on its CU at its current reservations.
    fn slice_cores(a: &ActiveSlice) -> f64 {
        let s = &a.tenant.request.template.service;
        s.base_cores + s.cores_per_mbps * a.reservations.iter().sum::<f64>()
    }

    /// True when `cu` is delay-reachable from *every* BS within `budget_us`
    /// — the same rule [`AcrrInstance::build`] uses to allow a (tenant, CU)
    /// pair, so a re-homed slice's pin survives the next instance build.
    fn cu_delay_feasible(&self, cu: usize, budget_us: f64) -> bool {
        (0..self.model.base_stations.len()).all(|b| {
            self.model.paths[b][cu]
                .iter()
                .any(|p| p.delay_us <= budget_us)
        })
    }

    /// Revalidates the active set against the (possibly shrunken) model:
    ///
    /// * **CU overload** — while a CU's occupied cores exceed its capacity,
    ///   the least-valuable slice there (lowest reward, then lowest tenant
    ///   id — deterministic) is re-homed to the lowest-indexed delay-feasible
    ///   CU with room, or evicted with a one-time SLA-break penalty.
    /// * **BS overload** — reservations at an over-committed radio are
    ///   scaled down proportionally (to zero at a dark BS); the slices stay
    ///   admitted and the traffic they now drop is priced by the ordinary
    ///   violation accounting.
    ///
    /// Transport links are not trimmed here: link fit is re-established by
    /// this epoch's admission solve against the degraded capacity rows.
    fn revalidate_active(&mut self) -> (Vec<u32>, Vec<u32>, f64) {
        let n_cu = self.model.compute_units.len();
        let mut evicted = Vec::new();
        let mut rehomed = Vec::new();
        let mut eviction_penalty = 0.0;

        let cu_load = |active: &[ActiveSlice], c: usize| -> f64 {
            active
                .iter()
                .filter(|a| a.cu == c)
                .map(Self::slice_cores)
                .sum()
        };
        for c in 0..n_cu {
            loop {
                let capacity = self.model.compute_units[c].cores;
                if cu_load(&self.active, c) <= capacity + 1e-9 {
                    break;
                }
                // Deterministic victim: least valuable first.
                let Some(vi) = self
                    .active
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.cu == c)
                    .min_by(|(_, a), (_, b)| {
                        let (a, b) = (&a.tenant.request, &b.tenant.request);
                        a.template
                            .reward
                            .total_cmp(&b.template.reward)
                            .then(a.tenant.cmp(&b.tenant))
                    })
                    .map(|(i, _)| i)
                else {
                    break; // base capacity shrank below zero load: nothing hosted
                };
                let need = Self::slice_cores(&self.active[vi]);
                let budget_us = self.active[vi].tenant.request.template.delay_budget_us;
                let new_home = (0..n_cu).find(|&c2| {
                    c2 != c
                        && self.cu_delay_feasible(c2, budget_us)
                        && cu_load(&self.active, c2) + need
                            <= self.model.compute_units[c2].cores + 1e-9
                });
                match new_home {
                    Some(c2) => {
                        self.active[vi].cu = c2;
                        rehomed.push(self.active[vi].tenant.request.tenant);
                    }
                    None => {
                        let victim = self.active.remove(vi).tenant.request;
                        eviction_penalty += victim.penalty;
                        evicted.push(victim.tenant);
                    }
                }
            }
        }

        // Proportional radio trim.
        for b in 0..self.model.base_stations.len() {
            let cap_mbps = self.model.base_stations[b].capacity_mhz * MBPS_PER_MHZ;
            let reserved: f64 = self.active.iter().map(|a| a.reservations[b]).sum();
            if reserved > cap_mbps + 1e-9 {
                let scale = if reserved > 0.0 {
                    cap_mbps / reserved
                } else {
                    0.0
                };
                for a in self.active.iter_mut() {
                    a.reservations[b] *= scale;
                }
            }
        }

        (evicted, rehomed, eviction_penalty)
    }

    /// Advances one decision epoch; returns what happened.
    ///
    /// **Resilience contract:** solver failures never abort a horizon. The
    /// admission solve runs through the degradation ladder
    /// ([`solver::solve_controlled`]), so a failed or budget-starved solve
    /// degrades *that epoch* (incumbent → greedy → defer) — recorded in
    /// [`EpochOutcome::degradation`] / [`EpochOutcome::solver_error`] — and
    /// the epoch completes. A hostile request is refused on arrival and
    /// listed in [`EpochOutcome::refused`], not raised. An `Err` here
    /// signals a non-recoverable configuration error
    /// ([`AcrrError::Config`]), returned before anything is mutated, never
    /// a transient solver condition.
    pub fn step(&mut self) -> Result<EpochOutcome, AcrrError> {
        if self.config.samples_per_epoch == 0 {
            return Err(AcrrError::Config("samples_per_epoch must be positive"));
        }
        if !self.config.forecast_headroom.is_finite() {
            return Err(AcrrError::Config("forecast_headroom must be finite"));
        }
        let epoch = self.epoch;
        let n_bs = self.model.base_stations.len();
        let _epoch_span = ovnes_obs::span!("epoch", epoch = epoch as i64);

        // 0. Infrastructure: apply due events, then revalidate the active
        // set against the shrunken model (re-home / evict / trim) so the
        // admission solve below starts from an enforceable state.
        let revalidate_span = ovnes_obs::span!("revalidate");
        let infra_events = self.apply_due_events(epoch);
        let (evicted, rehomed, eviction_penalty) = self.revalidate_active();
        let revalidate_seconds = revalidate_span.close();

        // 1. Arrivals: requests whose time has come move into consideration.
        let (mut pending, waiting): (Vec<Tenant>, Vec<Tenant>) = std::mem::take(&mut self.queue)
            .into_iter()
            .partition(|t| t.request.arrival_epoch <= epoch);
        self.queue = waiting;
        // Previously rejected requests keep re-applying (they were returned
        // to the queue with their original arrival epoch). Arrival order, not
        // submission order: the order of the rejected flows decides which
        // random draws each gets (step 5).
        pending.sort_by_key(|t| t.request.arrival_epoch);
        // A request the model cannot take (a NaN, an infinity, a negative
        // rate, a degenerate diurnal period) is refused here, before it
        // reaches the forecast, the LP or the traffic generator.
        let mut refused = Vec::new();
        pending.retain(|t| match t.request.fault() {
            Some(fault) => {
                refused.push((t.request.tenant, fault));
                false
            }
            None => true,
        });

        // 2. Assemble tenant inputs: active slices first, each forced and
        // pinned to its CU, then pending requests.
        let forecast_span = ovnes_obs::span!("forecast");
        let tenant_input = |tenant: &Tenant, pinned_cu: Option<usize>| {
            let (forecast_mbps, sigma) = self.forecast_for(tenant);
            let req = &tenant.request;
            TenantInput {
                tenant: req.tenant,
                sla_mbps: req.template.sla_mbps,
                reward: req.template.reward,
                penalty: req.penalty,
                delay_budget_us: req.template.delay_budget_us,
                service: req.template.service,
                forecast_mbps,
                sigma,
                duration_weight: DURATION_WEIGHT,
                must_accept: pinned_cu.is_some(),
                pinned_cu,
            }
        };
        let tenants: Vec<TenantInput> = self
            .active
            .iter()
            .map(|a| tenant_input(&a.tenant, Some(a.cu)))
            .chain(pending.iter().map(|t| tenant_input(t, None)))
            .collect();
        let forecast_seconds = forecast_span.close();

        // 3. Solve AC-RR through the degradation ladder — never aborts.
        let instance = AcrrInstance::build(
            &self.model,
            tenants,
            PATH_POLICY,
            self.config.overbooking,
            Some(DEFICIT_COST),
        );
        let kind = if self.config.overbooking {
            self.config.solver
        } else {
            SolverKind::NoOverbooking
        };
        let controls = SolveControls {
            kind,
            budget: self.config.budget,
            lp_fault: self.config.lp_fault,
            ..SolveControls::default()
        };
        let solve_span = ovnes_obs::span!("solve");
        let solve_started = Instant::now();
        let controlled = solver::solve_epoch(&instance, &controls, &mut self.carry);
        let decision_seconds = solve_started.elapsed().as_secs_f64();
        drop(solve_span);
        let degradation = controlled.degradation;
        let solver_error = controlled.error.as_ref().map(|e| e.to_string());
        let carry_fallback = controlled.carry_fallback;
        let allocation = controlled.allocation;

        // 4. Apply the decision: update the active set and set the rejects
        // aside, in rejection order, for steps 5 and 6. Under adaptive
        // reservations the enforced z is trimmed down to the head-roomed
        // forecast floor (always capacity-feasible since the solver's z is
        // an upper envelope of it). On a deferred epoch there is no
        // decision: active slices keep their previous reservations and every
        // pending request is rejected (re-applying under its patience).
        let admit_span = ovnes_obs::span!("admit");
        let n_active_before = self.active.len();
        // `instance.tenants` index of each active slice, in `active` order.
        let mut instance_tenant: Vec<usize> = (0..n_active_before).collect();
        let mut admitted = Vec::new();
        let mut newly_admitted = Vec::new();
        let mut rejected = Vec::new();
        let mut rejects: Vec<Tenant> = Vec::new();
        if let Some(allocation) = &allocation {
            let effective_z = |ti: usize| -> Vec<f64> {
                let z = &allocation.reservations[ti];
                if !self.config.adaptive_reservations || !self.config.overbooking {
                    return z.clone();
                }
                let t = &instance.tenants[ti];
                (0..n_bs)
                    .map(|b| {
                        let floor = t.forecast_mbps[b].clamp(0.0, 0.999 * t.sla_mbps);
                        z[b].min(floor)
                    })
                    .collect()
            };
            let (forced, fresh) = allocation.assigned_cu.split_at(n_active_before);
            for (ti, cu) in forced.iter().enumerate() {
                // Forced slices must stay admitted.
                debug_assert!(cu.is_some(), "active slice must remain admitted");
                self.active[ti].reservations = effective_z(ti);
                admitted.push(self.active[ti].tenant.request.tenant);
            }
            for (ti, (tenant, cu)) in (n_active_before..).zip(pending.into_iter().zip(fresh)) {
                let id = tenant.request.tenant;
                match cu {
                    Some(c) => {
                        self.active.push(ActiveSlice {
                            cu: *c,
                            remaining: tenant.request.duration_epochs,
                            reservations: effective_z(ti),
                            tenant,
                        });
                        instance_tenant.push(ti);
                        admitted.push(id);
                        newly_admitted.push(id);
                    }
                    None => {
                        rejected.push(id);
                        rejects.push(tenant);
                    }
                }
            }
        } else {
            admitted.extend(self.active.iter().map(|a| a.tenant.request.tenant));
            rejected.extend(pending.iter().map(|t| t.request.tenant));
            rejects = pending;
        }

        let admit_seconds = admit_span.close();

        // 5. Simulate the epoch through the middlebox: one flow per BS for
        // each active slice, in `active` order, then for each reject, in
        // rejection order. The demand of rejected tenants is sampled too
        // (the paper's simulations learn every request's load pattern;
        // abandoning ones included, their draws are part of the sequence) —
        // with reservation = SLA so they never register as violations and
        // never enter utilisation/revenue accounting.
        let simulate_span = ovnes_obs::span!("simulate");
        let mut flows = Vec::new();
        let mk_gen = |req: &SliceRequest| {
            let mut gen = TrafficGenerator::gaussian(req.true_mean_mbps, req.true_sigma_mbps);
            if let Some((amp, period)) = req.diurnal {
                gen = gen.with_diurnal(amp, period);
            }
            gen
        };
        let simulated = self
            .active
            .iter()
            .map(|a| (&a.tenant.request, Some(&a.reservations)))
            .chain(rejects.iter().map(|t| (&t.request, None)));
        for (req, reservations) in simulated {
            for b in 0..n_bs {
                flows.push(Flow {
                    key: (req.tenant, b as u32),
                    sla_mbps: req.template.sla_mbps,
                    reservation_mbps: reservations.map_or(req.template.sla_mbps, |z| z[b]),
                    generator: mk_gen(req),
                });
            }
        }
        let report = run_epoch(
            &flows,
            self.config.samples_per_epoch,
            self.sample_index,
            &mut self.rng,
        );
        self.sample_index = report.next_sample_index;
        let simulate_seconds = simulate_span.close();

        // 6. Monitoring feedback: `run_epoch` reports in flow order, so the
        // `i`-th record of step 5 owns the `i`-th block of `n_bs` reports.
        // Each reject is then re-queued or dropped with its history.
        let records = self.active.iter_mut().map(|a| &mut a.tenant);
        for (i, tenant) in records.chain(rejects.iter_mut()).enumerate() {
            let block = &report.flows[i * n_bs..(i + 1) * n_bs];
            debug_assert!(block
                .iter()
                .map(|f| f.key)
                .eq((0..n_bs as u32).map(|b| (tenant.request.tenant, b))));
            tenant.record(block);
        }
        let mut abandoned = Vec::new();
        for tenant in rejects {
            // Patience: a rejected request re-applies next epoch only while
            // it is still within `reapply_epochs` of its arrival; afterwards
            // the tenant walks away.
            let waited = (epoch + 1).saturating_sub(tenant.request.arrival_epoch);
            if waited < self.config.reapply_epochs {
                self.queue.push(tenant);
            } else {
                abandoned.push(tenant.request.tenant);
            }
        }

        // 7. Revenue accounting.
        let mut reward = 0.0;
        let mut penalty = 0.0;
        let mut violated = 0usize;
        let mut total_samples = 0usize;
        let mut worst_drop = 0.0f64;
        // Slice `ai` owns the `ai`-th block of `n_bs` reports (step 6).
        for (ai, a) in self.active.iter().enumerate() {
            let req = &a.tenant.request;
            reward += req.template.reward;
            // Worst per-sample SLA deficit across this slice's BS legs.
            let mut worst_fraction_of_sla = 0.0f64;
            for f in &report.flows[ai * n_bs..(ai + 1) * n_bs] {
                violated += f.violated_samples;
                total_samples += f.samples;
                worst_drop = worst_drop.max(f.worst_deficit_fraction);
                if f.samples > 0 {
                    let deficit_vs_sla = f.worst_deficit_mbps / req.template.sla_mbps.max(1e-9);
                    worst_fraction_of_sla = worst_fraction_of_sla.max(deficit_vs_sla);
                }
            }
            penalty += req.penalty * worst_fraction_of_sla;
        }
        // One-time SLA-break charges for slices evicted by infrastructure
        // shrinkage this epoch (balanced accounting: `penalty` always equals
        // the violation penalties above plus `eviction_penalty`).
        penalty += eviction_penalty;

        // 8. Utilisation series (for Fig. 8-style reporting).
        let mut bs_reserved = vec![0.0; n_bs];
        let mut bs_load = vec![0.0; n_bs];
        let mut cu_reserved = vec![0.0; instance.n_cu];
        let mut cu_load = vec![0.0; instance.n_cu];
        let mut link_reserved: HashMap<usize, f64> = HashMap::new();
        let mut link_load: HashMap<usize, f64> = HashMap::new();
        for (ai, a) in self.active.iter().enumerate() {
            let t = &a.tenant.request.template;
            // The legs of the slice's (tenant, CU) pair, indexed by BS;
            // empty when the pinned CU lost a path this epoch.
            let legs = instance.legs_of(instance_tenant[ai], a.cu);
            let mut sum_res = 0.0;
            let mut sum_load = 0.0;
            for b in 0..n_bs {
                let z = a.reservations[b];
                let load = report.flows[ai * n_bs + b].mean_offered.min(t.sla_mbps);
                bs_reserved[b] += z / crate::problem::MBPS_PER_MHZ;
                bs_load[b] += load / crate::problem::MBPS_PER_MHZ;
                sum_res += z;
                sum_load += load;
                // Attribute transport to the selected leg's links.
                if let Some(leg) = legs.get(b) {
                    for &e in &leg.links {
                        let gid = instance.link_graph_ids[e];
                        *link_reserved.entry(gid).or_insert(0.0) += z;
                        *link_load.entry(gid).or_insert(0.0) += load;
                    }
                }
            }
            cu_reserved[a.cu] += t.service.base_cores + t.service.cores_per_mbps * sum_res;
            cu_load[a.cu] += t.service.base_cores + t.service.cores_per_mbps * sum_load;
        }

        // 8b. Overcommit audit: enforced reservations in excess of the
        // (possibly degraded) capacities, per resource class. On solved
        // epochs this is bounded by the big-M deficit; on deferred epochs
        // stale reservations may exceed link capacity until the next solve.
        let mut over_radio = 0.0;
        for b in 0..n_bs {
            over_radio += (bs_reserved[b] - self.model.base_stations[b].capacity_mhz).max(0.0);
        }
        let mut over_cu = 0.0;
        for (c, reserved) in cu_reserved.iter().enumerate() {
            over_cu += (reserved - self.model.compute_units[c].cores).max(0.0);
        }
        let over_link = link_overcommit(&link_reserved, |gid| {
            self.model.graph.link(LinkId(gid)).capacity_mbps
        });

        // 9. Ageing: expire slices whose duration elapsed. A zero lifetime
        // saturates, so it expires with the epoch that admitted it, like a
        // lifetime of one; `u32::MAX` lives forever.
        for a in self.active.iter_mut() {
            if a.remaining != u32::MAX {
                a.remaining = a.remaining.saturating_sub(1);
            }
        }
        // An expired slice's record, history included, goes with it.
        self.active.retain(|a| a.remaining > 0);

        self.epoch += 1;
        let (deficit, solver_stats) = match allocation {
            Some(a) => (a.deficit, a.stats),
            None => ((0.0, 0.0, 0.0), crate::problem::SolveStats::default()),
        };
        Ok(EpochOutcome {
            epoch,
            admitted,
            newly_admitted,
            rejected,
            refused,
            abandoned,
            evicted,
            rehomed,
            eviction_penalty,
            infra_events,
            net_revenue: reward - penalty,
            reward,
            penalty,
            violation_samples: (violated, total_samples),
            worst_drop_fraction: worst_drop,
            deficit,
            bs_reserved_mhz: bs_reserved,
            bs_load_mhz: bs_load,
            cu_reserved_cores: cu_reserved,
            cu_load_cores: cu_load,
            link_reserved_mbps: link_reserved,
            link_load_mbps: link_load,
            solver_stats,
            degradation,
            solver_error,
            decision_seconds,
            phase_seconds: EpochPhaseSeconds {
                revalidate: revalidate_seconds,
                forecast: forecast_seconds,
                solve: decision_seconds,
                admit: admit_seconds,
                simulate: simulate_seconds,
            },
            carry_fallback,
            overcommit: (over_radio, over_link, over_cu),
        })
    }

    /// Runs a horizon of up to `epochs` [`Orchestrator::step`]s, handing
    /// each outcome to `observe`.
    ///
    /// * **Submission.** `requests` is sorted stably by `arrival_epoch`, and
    ///   each is submitted at the start of that epoch (or of the first step,
    ///   if it has passed): the pending queue never holds the future.
    /// * **Stop rule.** After `epochs` steps, or right after the outcome on
    ///   which `observe` returns [`ControlFlow::Break`].
    /// * **Errors.** The first `step` error (a configuration error, raised
    ///   before that epoch mutates anything) is returned as is.
    pub fn run(
        &mut self,
        mut requests: Vec<SliceRequest>,
        epochs: usize,
        mut observe: impl FnMut(&EpochOutcome) -> ControlFlow<()>,
    ) -> Result<(), AcrrError> {
        requests.sort_by_key(|r| r.arrival_epoch);
        let mut arrivals = requests.into_iter().peekable();
        for _ in 0..epochs {
            while let Some(request) = arrivals.next_if(|r| r.arrival_epoch <= self.epoch) {
                self.submit(request);
            }
            if observe(&self.step()?).is_break() {
                break;
            }
        }
        Ok(())
    }
}

/// The capacity fraction an event's `factor` leaves: clamped into `[0, 1]`,
/// with NaN read as 0 (`f64::clamp` would pass a NaN through to the LP).
fn capacity_fraction(factor: f64) -> f64 {
    if factor.is_nan() {
        0.0
    } else {
        factor.clamp(0.0, 1.0)
    }
}

/// Reservation in excess of capacity, summed over the links of `reserved` in
/// ascending link id: a `HashMap` iterates in an order that differs from run
/// to run, and the last bits of a float sum differ with it.
pub(crate) fn link_overcommit(
    reserved: &HashMap<usize, f64>,
    capacity_mbps: impl Fn(usize) -> f64,
) -> f64 {
    let mut gids: Vec<usize> = reserved.keys().copied().collect();
    gids.sort_unstable();
    let mut over = 0.0;
    for gid in gids {
        over += (reserved[&gid] - capacity_mbps(gid)).max(0.0);
    }
    over
}
