//! Holt's linear method (double exponential smoothing): level + trend.
//!
//! ```text
//! ℓ_t = α·y_t + (1−α)(ℓ_{t−1} + b_{t−1})
//! b_t = β(ℓ_t − ℓ_{t−1}) + (1−β)·b_{t−1}
//! ŷ_{t+h} = ℓ_t + h·b_t
//! ```
//!
//! The paper notes double smoothing cannot capture seasonality — this
//! implementation backs the forecasting ablation and the short-history
//! fallback.

use crate::Forecaster;

/// Holt's double exponential smoothing.
#[derive(Debug, Clone)]
pub struct Holt {
    /// Level smoothing factor in `(0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor in `(0, 1]`.
    pub beta: f64,
    state: Option<(f64, f64)>,
    rmse: Option<f64>,
}

impl Holt {
    /// Creates a smoother with the given factors.
    ///
    /// # Panics
    /// Panics unless both factors are in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        Self {
            alpha,
            beta,
            state: None,
            rmse: None,
        }
    }

    /// Fitted `(level, trend)`, if any.
    pub fn state(&self) -> Option<(f64, f64)> {
        self.state
    }
}

impl Default for Holt {
    /// Conventional defaults `alpha = 0.4`, `beta = 0.2`.
    fn default() -> Self {
        Self::new(0.4, 0.2)
    }
}

impl Forecaster for Holt {
    fn fit(&mut self, series: &[f64]) {
        self.state = None;
        self.rmse = None;
        match series.len() {
            0 => return,
            1 => {
                self.state = Some((series[0], 0.0));
                return;
            }
            _ => {}
        }
        let mut level = series[0];
        let mut trend = series[1] - series[0];
        let mut sq_err = 0.0;
        let mut n_err = 0usize;
        for &y in &series[1..] {
            let pred = level + trend;
            let err = y - pred;
            sq_err += err * err;
            n_err += 1;
            let new_level = self.alpha * y + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (new_level - level) + (1.0 - self.beta) * trend;
            level = new_level;
        }
        self.state = Some((level, trend));
        if n_err > 0 {
            self.rmse = Some((sq_err / n_err as f64).sqrt());
        }
    }

    fn forecast(&self, horizon: usize) -> Option<Vec<f64>> {
        let (level, trend) = self.state?;
        Some((1..=horizon).map(|h| level + h as f64 * trend).collect())
    }

    fn fit_rmse(&self) -> Option<f64> {
        self.rmse
    }
}
