//! Per-slice stochastic load generators.
//!
//! §4.3.2: "the actual traffic demand λ^{(θ)}_τ follows a Gaussian
//! distribution with variable mean λ̄ and standard deviation σ. The only
//! exception is the mMTC template that has a deterministic load (σ = 0)."
//! The optional diurnal profile gives Holt-Winters genuine seasonality to
//! learn, as in the testbed experiment where load follows the time of day.

use rand::rngs::StdRng;
use rand::Rng;

/// A seeded, reproducible load generator producing one value per monitoring
/// sample (Mb/s).
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    /// Long-run mean load λ̄ (Mb/s).
    pub mean: f64,
    /// Per-sample standard deviation σ (Mb/s); 0 ⇒ deterministic.
    pub sigma: f64,
    /// Optional seasonality: (relative amplitude in [0, 1), period in
    /// samples). The instantaneous mean becomes
    /// `λ̄ · (1 + amp · sin(2π·t/period))`.
    pub diurnal: Option<(f64, usize)>,
}

impl TrafficGenerator {
    /// A flat Gaussian generator.
    ///
    /// # Panics
    /// Panics on negative mean or sigma.
    pub fn gaussian(mean: f64, sigma: f64) -> Self {
        assert!(mean >= 0.0 && sigma >= 0.0);
        Self {
            mean,
            sigma,
            diurnal: None,
        }
    }

    /// Adds a diurnal modulation.
    ///
    /// # Panics
    /// Panics unless `0 ≤ amplitude < 1` and `period ≥ 2`.
    pub fn with_diurnal(mut self, amplitude: f64, period: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(period >= 2, "period must be at least 2 samples");
        self.diurnal = Some((amplitude, period));
        self
    }

    /// Draws the offered load for global sample index `t`, truncated at 0.
    pub fn sample(&self, t: u64, rng: &mut StdRng) -> f64 {
        self.sample_given(self.phase_sin(t), rng)
    }

    /// The diurnal sine at sample `t` ([`diurnal_sin`] over this
    /// generator's period); 0 without seasonality.
    fn phase_sin(&self, t: u64) -> f64 {
        self.diurnal
            .map_or(0.0, |(_, period)| diurnal_sin(t, period))
    }

    /// The instantaneous mean given the diurnal sine of the sample.
    fn mean_given(&self, sin: f64) -> f64 {
        match self.diurnal {
            None => self.mean,
            Some((amp, _)) => self.mean * (1.0 + amp * sin),
        }
    }

    /// [`TrafficGenerator::sample`] given the diurnal sine of the sample, so
    /// flows sharing a period share its sines.
    pub(crate) fn sample_given(&self, sin: f64, rng: &mut StdRng) -> f64 {
        let mean = self.mean_given(sin);
        if self.sigma == 0.0 {
            return mean;
        }
        // Box-Muller; rand 0.8's Standard-normal lives in rand_distr which is
        // outside the sanctioned crate set, so draw it directly.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + self.sigma * z).max(0.0)
    }
}

/// `sin(2π·(t mod period)/period)`, the phase of sample `t` in a diurnal
/// cycle of `period` samples.
pub(crate) fn diurnal_sin(t: u64, period: usize) -> f64 {
    (std::f64::consts::TAU * (t % period as u64) as f64 / period as f64).sin()
}
