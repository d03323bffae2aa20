//! Seeded slice-request workload generators.
//!
//! A [`WorkloadSpec`] turns a seed and a horizon into a deterministic
//! stream of [`SliceRequest`]s — the city-scale counterpart of the paper's
//! hand-written 18-epoch testbed day. The pieces compose:
//!
//! * an [`ArrivalProcess`] (homogeneous Poisson, or a two-state
//!   Markov-modulated Poisson process whose burst state models correlated
//!   request waves),
//! * a [`DiurnalProfile`] modulating the arrival rate over the day
//!   (request activity follows business hours just like traffic does),
//! * a [`ClassMix`] drawing each request's slice class (uRLLC / mMTC /
//!   eMBB shares),
//! * a [`DurationModel`] sampling geometric slice lifetimes so slices
//!   continuously arrive *and depart* through the orchestrator's expiry
//!   path,
//! * a [`TenantPopulation`] of behavioural profiles (mean utilisation α,
//!   traffic variability σ/λ̄, penalty factor) with per-epoch churn, and
//! * zero or more [`BurstEvent`]s — flash crowds that superimpose a surge
//!   of same-class requests over a window (the stadium scenario).
//!
//! Everything is driven by one sequential PRNG, so a (spec, seed, horizon)
//! triple always produces the identical request stream — the foundation of
//! the sweep runner's bit-identical reports.

use ovnes::slice::{SliceClass, SliceRequest, SliceTemplate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How request inter-arrivals are distributed.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` requests per epoch.
    Poisson {
        /// Mean requests per epoch.
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process: a background state at
    /// `base_rate` and a burst state at `burst_rate`, switching with the
    /// given per-epoch probabilities. Models the correlated request waves
    /// (product launches, events) a homogeneous process cannot.
    Mmpp {
        /// Requests per epoch in the background state.
        base_rate: f64,
        /// Requests per epoch in the burst state.
        burst_rate: f64,
        /// P(background → burst) per epoch.
        p_enter_burst: f64,
        /// P(burst → background) per epoch.
        p_exit_burst: f64,
    },
}

/// Sinusoidal diurnal modulation of the arrival rate.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalProfile {
    /// Modulation depth in [0, 1]: the rate swings between `1 − amplitude`
    /// and `1 + amplitude` times its base value.
    pub amplitude: f64,
    /// Period in epochs (24 for hourly epochs).
    pub period_epochs: usize,
    /// Epoch-of-day at which the rate peaks.
    pub peak_epoch: f64,
}

impl DiurnalProfile {
    /// Rate multiplier at `epoch` (never negative).
    pub(crate) fn factor(&self, epoch: u32) -> f64 {
        let period = self.period_epochs.max(1) as f64;
        let phase = std::f64::consts::TAU * (epoch as f64 - self.peak_epoch) / period;
        (1.0 + self.amplitude * phase.cos()).max(0.0)
    }
}

/// Slice-class shares of the request stream (normalised at sampling time).
#[derive(Debug, Clone, Copy)]
pub struct ClassMix {
    /// uRLLC share.
    pub urllc: f64,
    /// mMTC share.
    pub mmtc: f64,
    /// eMBB share.
    pub embb: f64,
}

impl ClassMix {
    /// Equal thirds, the paper's default simulation mix.
    pub(crate) fn even() -> Self {
        ClassMix {
            urllc: 1.0,
            mmtc: 1.0,
            embb: 1.0,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> SliceClass {
        let total = (self.urllc + self.mmtc + self.embb).max(1e-12);
        let u: f64 = rng.gen_range(0.0..1.0) * total;
        if u < self.urllc {
            SliceClass::Urllc
        } else if u < self.urllc + self.mmtc {
            SliceClass::Mmtc
        } else {
            SliceClass::Embb
        }
    }
}

/// Geometric slice-lifetime model: slices depart continuously, exercising
/// the orchestrator's expiry path over long horizons.
#[derive(Debug, Clone, Copy)]
pub struct DurationModel {
    /// Mean lifetime in epochs (geometric distribution).
    pub mean_epochs: f64,
    /// Hard cap on a sampled lifetime.
    pub max_epochs: u32,
}

impl DurationModel {
    fn sample(&self, rng: &mut StdRng) -> u32 {
        let mean = self.mean_epochs.max(1.0);
        let p = 1.0 / mean;
        let u: f64 = rng.gen_range(0.0..1.0);
        // Inverse-CDF geometric on {1, 2, …}: 1 + ⌊ln(1−U)/ln(1−p)⌋.
        let k = 1.0 + ((1.0 - u).ln() / (1.0 - p).ln()).floor();
        (k as u32).clamp(1, self.max_epochs.max(1))
    }
}

/// A population of tenant behavioural profiles with churn: each arrival
/// draws its hidden traffic statistics from one of `size` live profiles,
/// and every epoch an expected `churn_per_epoch` fraction of profiles is
/// replaced by freshly drawn ones (new tenants entering the market as old
/// ones leave).
#[derive(Debug, Clone, Copy)]
pub struct TenantPopulation {
    /// Live behavioural profiles at any time.
    pub size: usize,
    /// Expected fraction of profiles replaced per epoch.
    pub churn_per_epoch: f64,
    /// Uniform range of mean utilisation α (`λ̄ = α·Λ`).
    pub alpha: (f64, f64),
    /// Uniform range of σ as a fraction of λ̄.
    pub sigma_frac: (f64, f64),
    /// Penalty factor `m` (`K = m·R`) shared by the population.
    pub penalty_factor: f64,
}

#[derive(Debug, Clone, Copy)]
struct Profile {
    alpha: f64,
    sigma_frac: f64,
}

impl TenantPopulation {
    fn draw_profile(&self, rng: &mut StdRng) -> Profile {
        let span_a = (self.alpha.1 - self.alpha.0).max(0.0);
        let span_s = (self.sigma_frac.1 - self.sigma_frac.0).max(0.0);
        Profile {
            alpha: self.alpha.0 + rng.gen_range(0.0..1.0f64) * span_a,
            sigma_frac: self.sigma_frac.0 + rng.gen_range(0.0..1.0f64) * span_s,
        }
    }
}

/// A flash crowd: a surge of extra same-class requests over an epoch
/// window (stadium events, launches). Burst slices are short-lived and
/// run hot (high α).
#[derive(Debug, Clone, Copy)]
pub struct BurstEvent {
    /// First epoch of the surge.
    pub start_epoch: u32,
    /// Surge length in epochs.
    pub duration_epochs: u32,
    /// Extra Poisson arrivals per epoch during the window.
    pub extra_rate: f64,
    /// Slice class of the surge requests.
    pub class: SliceClass,
    /// Mean utilisation of the surge slices.
    pub alpha: f64,
    /// Lifetime of each surge slice, in epochs.
    pub slice_epochs: u32,
}

/// The full workload recipe: everything needed to expand a seed into a
/// multi-day request stream.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Inter-arrival law.
    pub arrivals: ArrivalProcess,
    /// Optional diurnal modulation of the arrival rate.
    pub diurnal: Option<DiurnalProfile>,
    /// Slice-class shares.
    pub mix: ClassMix,
    /// Slice-lifetime law.
    pub duration: DurationModel,
    /// Tenant behavioural profiles and churn.
    pub population: TenantPopulation,
    /// Flash-crowd events.
    pub bursts: Vec<BurstEvent>,
    /// Diurnal modulation of each slice's *true traffic* (amplitude,
    /// period in monitoring samples), passed through to
    /// [`SliceRequest::diurnal`].
    pub traffic_diurnal: Option<(f64, usize)>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            arrivals: ArrivalProcess::Poisson { rate: 2.0 },
            diurnal: Some(DiurnalProfile {
                amplitude: 0.5,
                period_epochs: 24,
                peak_epoch: 14.0,
            }),
            mix: ClassMix::even(),
            duration: DurationModel {
                mean_epochs: 12.0,
                max_epochs: 96,
            },
            population: TenantPopulation {
                size: 16,
                churn_per_epoch: 0.02,
                alpha: (0.15, 0.45),
                sigma_frac: (0.1, 0.5),
                penalty_factor: 1.0,
            },
            bursts: Vec::new(),
            traffic_diurnal: Some((0.3, 288)),
        }
    }
}

/// Exact Poisson sampling: Knuth's product-of-uniforms below λ = 30, and
/// the splitting property (Poisson(λ) = Poisson(λ/2) + Poisson(λ/2))
/// above it to keep the uniform count bounded.
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda >= 30.0 {
        let half = lambda / 2.0;
        return poisson(rng, half) + poisson(rng, lambda - half);
    }
    let limit = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

impl WorkloadSpec {
    /// Expands the spec into the deterministic request stream for
    /// `horizon_epochs` epochs. Tenant ids are assigned sequentially from
    /// 0 in arrival order.
    pub fn generate(&self, seed: u64, horizon_epochs: usize) -> Vec<SliceRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut profiles: Vec<Profile> = (0..self.population.size.max(1))
            .map(|_| self.population.draw_profile(&mut rng))
            .collect();
        let mut requests = Vec::new();
        let mut next_tenant: u32 = 0;
        let mut in_burst_state = false;

        for epoch in 0..horizon_epochs as u32 {
            // Tenant churn: replace an expected fraction of profiles.
            if self.population.churn_per_epoch > 0.0 {
                for p in profiles.iter_mut() {
                    if rng.gen_bool(self.population.churn_per_epoch.clamp(0.0, 1.0)) {
                        *p = self.population.draw_profile(&mut rng);
                    }
                }
            }

            // Arrival rate this epoch: process state × diurnal factor.
            let base_rate = match &self.arrivals {
                ArrivalProcess::Poisson { rate } => *rate,
                ArrivalProcess::Mmpp {
                    base_rate,
                    burst_rate,
                    p_enter_burst,
                    p_exit_burst,
                } => {
                    if in_burst_state {
                        if rng.gen_bool(p_exit_burst.clamp(0.0, 1.0)) {
                            in_burst_state = false;
                        }
                    } else if rng.gen_bool(p_enter_burst.clamp(0.0, 1.0)) {
                        in_burst_state = true;
                    }
                    if in_burst_state {
                        *burst_rate
                    } else {
                        *base_rate
                    }
                }
            };
            let diurnal_factor = self.diurnal.map_or(1.0, |d| d.factor(epoch));

            // Background arrivals.
            let n = poisson(&mut rng, base_rate * diurnal_factor);
            for _ in 0..n {
                let class = self.mix.sample(&mut rng);
                let profile = profiles[rng.gen_range(0..profiles.len())];
                let duration = self.duration.sample(&mut rng);
                requests.push(self.build_request(
                    next_tenant,
                    class,
                    profile.alpha,
                    profile.sigma_frac,
                    epoch,
                    duration,
                ));
                next_tenant += 1;
            }

            // Flash crowds.
            for burst in &self.bursts {
                let end = burst.start_epoch.saturating_add(burst.duration_epochs);
                if epoch < burst.start_epoch || epoch >= end {
                    continue;
                }
                let n = poisson(&mut rng, burst.extra_rate);
                for _ in 0..n {
                    // Flash-crowd traffic is bursty: reuse the population's
                    // upper σ band regardless of which profile is live.
                    requests.push(self.build_request(
                        next_tenant,
                        burst.class,
                        burst.alpha,
                        self.population.sigma_frac.1,
                        epoch,
                        burst.slice_epochs.max(1),
                    ));
                    next_tenant += 1;
                }
            }
        }
        requests
    }

    fn build_request(
        &self,
        tenant: u32,
        class: SliceClass,
        alpha: f64,
        sigma_frac: f64,
        arrival_epoch: u32,
        duration_epochs: u32,
    ) -> SliceRequest {
        let template = SliceTemplate::for_class(class);
        let alpha = alpha.clamp(0.0, 1.0);
        let sigma = sigma_frac.max(0.0) * alpha * template.sla_mbps;
        let mut r = SliceRequest::from_template(
            tenant,
            template,
            alpha,
            sigma,
            self.population.penalty_factor,
        );
        r.arrival_epoch = arrival_epoch;
        r.duration_epochs = duration_epochs;
        r.diurnal = self.traffic_diurnal;
        r
    }
}
