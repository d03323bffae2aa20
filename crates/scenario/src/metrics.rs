//! Metrics pipeline: per-scenario reports, utilisation CDF summaries, and
//! the deterministic fingerprint the sweep runner's bit-identical-report
//! guarantee is stated against.
//!
//! Wall-clock timings are first-class report fields but are **excluded**
//! from [`ScenarioReport::hash_into`] — they are the only
//! machine-dependent quantity in a report, and keeping them out of the
//! fingerprint is what lets `fingerprint()` assert bit-identical results
//! across worker counts and across runs.

/// Quantile summary of a utilisation distribution (the Fig. 5/6-style
/// per-resource CDF observables, compressed to the points we track).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfSummary {
    /// Resources summarised (0 ⇒ every other field is 0).
    pub count: usize,
    /// Mean across resources.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile. Derived from the same sorted sample vector as
    /// the hashed quantiles but **excluded** from [`CdfSummary`]'s hash:
    /// every pre-existing fingerprint gate (`tests/obs_guard.rs`, CI sweep
    /// assertions) pins hashes computed without it, and the sample
    /// vector's identity is already pinned by count/mean/p50/p90/max.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl CdfSummary {
    /// Summarises a sample set (empty ⇒ all-zero summary).
    pub(crate) fn from_samples(mut xs: Vec<f64>) -> Self {
        if xs.is_empty() {
            return CdfSummary {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        let n = xs.len();
        let q = |frac: f64| xs[(((n - 1) as f64) * frac).round() as usize];
        CdfSummary {
            count: n,
            mean: xs.iter().sum::<f64>() / n as f64,
            p50: q(0.5),
            p90: q(0.9),
            p99: q(0.99),
            max: xs[n - 1],
        }
    }

    /// Hash ordering is **append-only** (count, mean, p50, p90, max) so
    /// every previously committed fingerprint stays comparable; `p99` is
    /// deliberately not hashed (see its field doc).
    fn hash_into(&self, h: &mut Fnv64) {
        h.write_u64(self.count as u64);
        h.write_f64(self.mean);
        h.write_f64(self.p50);
        h.write_f64(self.p90);
        h.write_f64(self.max);
    }
}

/// Everything one scenario run produced, aggregated over its horizon.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Preset / builder name.
    pub name: String,
    /// Epochs simulated.
    pub epochs: usize,
    /// Requests issued within the horizon.
    pub arrivals: usize,
    /// Distinct tenants admitted at least once.
    pub accepted: usize,
    /// Requests that ran out of re-apply patience.
    pub abandoned: usize,
    /// `accepted / arrivals` (0 when nothing arrived).
    pub acceptance_ratio: f64,
    /// Gross rewards over the horizon.
    pub reward: f64,
    /// Penalties paid over the horizon.
    pub penalty: f64,
    /// `reward − penalty`.
    pub net_revenue: f64,
    /// Cumulative net revenue after each epoch (the Fig. 5 trajectory).
    pub revenue_trajectory: Vec<f64>,
    /// SLA-violating (flow, sample) pairs.
    pub violated_samples: usize,
    /// All (flow, sample) pairs.
    pub total_samples: usize,
    /// `violated_samples / total_samples`.
    pub violation_rate: f64,
    /// Worst single-sample traffic-drop fraction seen.
    pub worst_drop_fraction: f64,
    /// Most tenants simultaneously active.
    pub peak_active: usize,
    /// Mean tenants active per epoch.
    pub mean_active: f64,
    /// Time-mean radio utilisation per BS, summarised across BSs.
    pub bs_utilisation: CdfSummary,
    /// Time-mean core utilisation per CU, summarised across CUs.
    pub cu_utilisation: CdfSummary,
    /// Time-mean transport utilisation per used link, across used links.
    pub link_utilisation: CdfSummary,
    /// LP solves across every epoch's AC-RR.
    pub lp_solves: usize,
    /// Simplex pivots across every epoch's AC-RR.
    pub lp_pivots: usize,
    /// Basis refactorizations across every epoch's AC-RR. The headline
    /// observable of the cross-epoch carry: a no-churn KAC epoch whose
    /// carried slave chain fits its LP replays the held factorization and
    /// pays **zero** of these.
    pub lp_refactorizations: usize,
    /// KAC epochs whose solve from the carried chain errored (a fault hit
    /// the carried path), so the chain was dropped and the epoch re-solved
    /// from scratch. A carry that does not fit the epoch's slave LP is not
    /// counted here: it is simply not seeded.
    pub carry_fallback_epochs: usize,
    /// Seeded vets that were feasible but could not certify a unique
    /// optimal decision, and were re-vetted cold in the same slave (KAC
    /// only; an infeasible seeded vet goes straight to the deficit
    /// fallback and is not counted). Unlike `carry_fallback_epochs`
    /// these are part of normal clean operation, not fault degradation.
    pub carry_cold_restarts: usize,
    /// Seeded vets that stood: feasible and certified at least a unique
    /// optimal decision (KAC only).
    pub carry_certified: usize,
    /// Subset of [`ScenarioReport::carry_certified`] certified only by the
    /// perturbation certificate — degenerate epochs the strict
    /// complementarity test would have restarted cold.
    pub carry_certified_perturbed: usize,
    /// Epochs whose decision was degraded below a clean full solve
    /// (incumbent, greedy fallback or deferral).
    pub degraded_epochs: usize,
    /// Epochs with no allocation at all (the bottom degradation rung).
    pub deferred_epochs: usize,
    /// Active slices evicted by infrastructure shrinkage.
    pub evictions: usize,
    /// Active slices re-homed to another CU instead of evicted.
    pub rehomes: usize,
    /// One-time SLA-break penalties paid on eviction (already included in
    /// [`ScenarioReport::penalty`]).
    pub eviction_penalty: f64,
    /// Infrastructure events applied over the horizon.
    pub infra_events: usize,
    /// Epochs whose solver returned an error that was absorbed by the
    /// degradation ladder.
    pub solver_errors: usize,
    /// True when the spec's solve budget used counters only (no wall-clock
    /// deadline) — the precondition for the fingerprint guarantee.
    pub deterministic: bool,
    /// Decision-latency percentiles over the horizon's epochs, seconds,
    /// from an `ovnes-obs` log-linear histogram (p50 / p90 / p99 / p999
    /// in that order). Machine-dependent, **excluded** from the
    /// fingerprint.
    pub decision_latency_percentiles: [f64; 4],
    /// Wall-clock spent generating/expanding the workload before the
    /// horizon ran: the `scenario;generate` phase span's time, read with
    /// `ovnes-obs` on or off. **Excluded** from the fingerprint.
    pub phase_generate_seconds: f64,
    /// Per-phase orchestrator wall-clock summed over the horizon
    /// (revalidate / forecast / solve / admit / simulate / account — the
    /// epoch breakdown the flamegraph folds to), read with `ovnes-obs` on
    /// or off. **Excluded** from the fingerprint.
    pub phase_seconds: ovnes::orchestrator::EpochPhaseSeconds,
    /// Wall-clock of the run in seconds — machine-dependent, **excluded**
    /// from the fingerprint.
    pub wall_seconds: f64,
}

impl ScenarioReport {
    /// Folds every deterministic field (not the wall-clock telemetry:
    /// `wall_seconds`, `decision_latency_percentiles`,
    /// `phase_generate_seconds`, `phase_seconds`) into `h`: the decision
    /// trail plus the solver-path telemetry. The
    /// wall-clock-never-in-fingerprints invariant lives here: deterministic
    /// counters may be appended, timing never.
    pub(crate) fn hash_into(&self, h: &mut Fnv64) {
        self.hash_decision_into(h);
        h.write_u64(self.lp_solves as u64);
        h.write_u64(self.lp_pivots as u64);
        h.write_u64(self.lp_refactorizations as u64);
        h.write_u64(self.carry_fallback_epochs as u64);
        h.write_u64(self.carry_cold_restarts as u64);
        h.write_u64(self.carry_certified as u64);
        h.write_u64(self.carry_certified_perturbed as u64);
    }

    /// Folds only the fields determined by the *admission decisions* —
    /// everything in [`ScenarioReport::hash_into`] except the solver-path
    /// telemetry (LP solves/pivots/refactorizations, the carry counters).
    /// A carried run and a from-scratch run of the same spec make
    /// identical decisions by contract, so their decision fingerprints
    /// must match bit-for-bit even though their solve paths (and full
    /// fingerprints) legitimately differ.
    pub(crate) fn hash_decision_into(&self, h: &mut Fnv64) {
        h.write_bytes(self.name.as_bytes());
        h.write_u64(self.epochs as u64);
        h.write_u64(self.arrivals as u64);
        h.write_u64(self.accepted as u64);
        h.write_u64(self.abandoned as u64);
        h.write_f64(self.acceptance_ratio);
        h.write_f64(self.reward);
        h.write_f64(self.penalty);
        h.write_f64(self.net_revenue);
        for &r in &self.revenue_trajectory {
            h.write_f64(r);
        }
        h.write_u64(self.violated_samples as u64);
        h.write_u64(self.total_samples as u64);
        h.write_f64(self.violation_rate);
        h.write_f64(self.worst_drop_fraction);
        h.write_u64(self.peak_active as u64);
        h.write_f64(self.mean_active);
        self.bs_utilisation.hash_into(h);
        self.cu_utilisation.hash_into(h);
        self.link_utilisation.hash_into(h);
        h.write_u64(self.degraded_epochs as u64);
        h.write_u64(self.deferred_epochs as u64);
        h.write_u64(self.evictions as u64);
        h.write_u64(self.rehomes as u64);
        h.write_f64(self.eviction_penalty);
        h.write_u64(self.infra_events as u64);
        h.write_u64(self.solver_errors as u64);
        h.write_u64(u64::from(self.deterministic));
    }

    /// Fingerprint of this single report (see `ScenarioReport::hash_into`).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        self.hash_into(&mut h);
        h.finish()
    }

    /// Fingerprint of the admission-decision trail only (see
    /// `ScenarioReport::hash_decision_into`) — the bit-identity contract
    /// between a carried horizon and the from-scratch one.
    pub fn decision_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        self.hash_decision_into(&mut h);
        h.finish()
    }
}

/// FNV-1a 64-bit: a tiny, explicit, build-stable hasher. The std
/// `DefaultHasher` is randomly keyed per process, which would defeat the
/// cross-run fingerprint comparisons `tests/obs_guard.rs` pins.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    /// FNV-1a offset basis.
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern — "bit-identical" is meant literally.
    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated hash.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}
