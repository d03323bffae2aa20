//! Slice templates and requests (paper §2.2.1 and Table 1).
//!
//! A tenant's slice request `Φτ = {sτ, ∆τ, Λτ, Lτ}` carries the linear
//! compute model `sτ = {a, b}` (CPU cores consumed as `a + b·load`), the
//! latency tolerance `∆τ`, the per-radio-site service bitrate `Λτ` and the
//! slice duration `Lτ`. Accepted requests become SLAs.

/// 3GPP NSSAI slice classes used in the evaluation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceClass {
    /// Enhanced mobile broadband: radio/transport-bound, no compute.
    Embb,
    /// Massive machine-type communications: compute-heavy, deterministic
    /// load (σ = 0).
    Mmtc,
    /// Ultra-reliable low latency: 5 ms budget, edge-only, light compute.
    Urllc,
}

impl SliceClass {
    /// All classes in Table 1 order.
    pub fn all() -> [SliceClass; 3] {
        [SliceClass::Embb, SliceClass::Mmtc, SliceClass::Urllc]
    }

    /// Display name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SliceClass::Embb => "eMBB",
            SliceClass::Mmtc => "mMTC",
            SliceClass::Urllc => "uRLLC",
        }
    }
}

/// Linear service model `sτ = {a, b}`: CPU cores consumed by the slice's
/// network service as a function of carried load (`a + b·Mb/s`), learnt
/// during onboarding (§3.2, footnote 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Baseline cores (VS operating system, control plane, …).
    pub base_cores: f64,
    /// Cores per Mb/s of carried load.
    pub cores_per_mbps: f64,
}

/// An end-to-end slice template — one row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceTemplate {
    /// Slice class.
    pub class: SliceClass,
    /// Reward `R` for accepting the slice (monetary units per epoch).
    pub reward: f64,
    /// Latency tolerance `∆` in µs.
    pub delay_budget_us: f64,
    /// Contracted per-radio-site bitrate `Λ` in Mb/s.
    pub sla_mbps: f64,
    /// Compute model `s = {a, b}`.
    pub service: ServiceModel,
}

impl SliceTemplate {
    /// Table 1, eMBB row: `R = 1, ∆ = 30 ms, Λ = 50 Mb/s, s = {0, 0}`.
    pub fn embb() -> Self {
        SliceTemplate {
            class: SliceClass::Embb,
            reward: 1.0,
            delay_budget_us: 30_000.0,
            sla_mbps: 50.0,
            service: ServiceModel {
                base_cores: 0.0,
                cores_per_mbps: 0.0,
            },
        }
    }

    /// Table 1, mMTC row: `R = 1 + b = 3, ∆ = 30 ms, Λ = 10 Mb/s, σ = 0,
    /// s = {0, 2}`.
    pub fn mmtc() -> Self {
        SliceTemplate {
            class: SliceClass::Mmtc,
            reward: 3.0,
            delay_budget_us: 30_000.0,
            sla_mbps: 10.0,
            service: ServiceModel {
                base_cores: 0.0,
                cores_per_mbps: 2.0,
            },
        }
    }

    /// Table 1, uRLLC row: `R = 2 + b = 2.2, ∆ = 5 ms, Λ = 25 Mb/s,
    /// s = {0, 0.2}`.
    pub fn urllc() -> Self {
        SliceTemplate {
            class: SliceClass::Urllc,
            reward: 2.2,
            delay_budget_us: 5_000.0,
            sla_mbps: 25.0,
            service: ServiceModel {
                base_cores: 0.0,
                cores_per_mbps: 0.2,
            },
        }
    }

    /// Template for a class.
    pub fn for_class(class: SliceClass) -> Self {
        match class {
            SliceClass::Embb => Self::embb(),
            SliceClass::Mmtc => Self::mmtc(),
            SliceClass::Urllc => Self::urllc(),
        }
    }
}

/// A tenant's slice request `Φτ` plus its (hidden) true traffic statistics
/// used by the simulator.
#[derive(Debug, Clone)]
pub struct SliceRequest {
    /// Tenant identity, as reported in outcomes. Meant to be unique per
    /// request, but nothing is keyed by it: the monitoring history belongs
    /// to the request ([`Orchestrator::submit`](crate::orchestrator::Orchestrator::submit)),
    /// so two live requests under one id keep separate histories.
    pub tenant: u32,
    /// The requested template (becomes the SLA on acceptance).
    pub template: SliceTemplate,
    /// Requested duration `L` in epochs; `u32::MAX` ⇒ for the whole run.
    pub duration_epochs: u32,
    /// Epoch at which the request is issued.
    pub arrival_epoch: u32,
    /// *Ground truth* mean load λ̄ per radio site (Mb/s) — known to the
    /// simulator, never to the orchestrator.
    pub true_mean_mbps: f64,
    /// Ground-truth per-sample standard deviation σ (Mb/s).
    pub true_sigma_mbps: f64,
    /// Optional diurnal modulation of the true load: (amplitude, period in
    /// samples).
    pub diurnal: Option<(f64, usize)>,
    /// Penalty `K` paid per unit of violated-SLA fraction (the paper's
    /// `K = m·R`: the penalty factor `m` times the slice's reward).
    pub penalty: f64,
}

/// Why [`Orchestrator::step`](crate::orchestrator::Orchestrator::step)
/// refuses a request (`SliceRequest::fault`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFault {
    /// The named quantity (its path in the request, e.g.
    /// `"template.sla_mbps"`) is NaN, infinite or negative.
    Quantity(&'static str),
    /// The diurnal modulation has an amplitude outside `[0, 1)` or a
    /// period below 2 samples.
    Diurnal,
}

impl SliceRequest {
    /// The first reason this request cannot be orchestrated, if any. Every
    /// quantity of the request must be a finite number ≥ 0, and a diurnal
    /// modulation needs an amplitude in `[0, 1)` and a period of at least 2
    /// samples: a NaN or an infinity would reach the LP as a coefficient,
    /// and the traffic generator takes nothing else.
    pub(crate) fn fault(&self) -> Option<RequestFault> {
        let t = &self.template;
        let quantities = [
            ("template.reward", t.reward),
            ("template.delay_budget_us", t.delay_budget_us),
            ("template.sla_mbps", t.sla_mbps),
            ("template.service.base_cores", t.service.base_cores),
            ("template.service.cores_per_mbps", t.service.cores_per_mbps),
            ("true_mean_mbps", self.true_mean_mbps),
            ("true_sigma_mbps", self.true_sigma_mbps),
            ("penalty", self.penalty),
        ];
        if let Some((field, _)) = quantities
            .into_iter()
            .find(|&(_, v)| !(v.is_finite() && v >= 0.0))
        {
            return Some(RequestFault::Quantity(field));
        }
        match self.diurnal {
            Some((amp, period)) if !(0.0..1.0).contains(&amp) || period < 2 => {
                Some(RequestFault::Diurnal)
            }
            _ => None,
        }
    }

    /// Builds a request from a template with `λ̄ = α·Λ` and an explicit σ,
    /// penalty factor `m` (so `K = m·R`).
    pub fn from_template(
        tenant: u32,
        template: SliceTemplate,
        alpha: f64,
        sigma: f64,
        penalty_factor: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "α must be in [0, 1]");
        assert!(sigma >= 0.0);
        let penalty = penalty_factor * template.reward;
        SliceRequest {
            tenant,
            true_mean_mbps: alpha * template.sla_mbps,
            true_sigma_mbps: if template.class == SliceClass::Mmtc {
                0.0
            } else {
                sigma
            },
            template,
            duration_epochs: u32::MAX,
            arrival_epoch: 0,
            diurnal: None,
            penalty,
        }
    }
}
