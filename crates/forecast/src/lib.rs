//! # ovnes-forecast — one-step demand forecasting
//!
//! The CoNEXT'18 overbooking orchestrator drives admission decisions from a
//! *forecast* of each slice's peak demand in the next decision epoch
//! (`λ̂`) and an *uncertainty estimate* for that forecast (`σ̂ ∈ (0, 1]`),
//! which scales the risk term of the yield objective (§2.2.2,
//! "Forecasting"). The crate is one function, [`predict_next`], called per
//! (slice, BS) series every epoch, and the [`Prediction`] it returns.
//!
//! * On two seasons of history or more (and a season of at least 2), the
//!   paper's **multiplicative Holt-Winters** method (triple exponential
//!   smoothing), additive when a sample is not positive, with its factors
//!   chosen by one-step RMSE over a 5×5×5 grid of (α, β, γ). Mobile traffic
//!   is strongly seasonal, and the seasonal amplitude scales with the level.
//! * On a shorter history, simple exponential smoothing of the level at
//!   α = 0.3: a trend fitted to a few noisy peaks chases the noise and would
//!   inflate σ̂ during the learning phase.
//! * σ̂ is the normalised one-step fit error, RMSE over the series' mean
//!   magnitude, clamped into `[min_sigma, 1]`; 1 when there is no error to
//!   measure or the series holds a non-finite sample.
//!
//! `predict_next` is total: no series, season or `min_sigma` panics, `λ̂` is
//! never negative or NaN, and σ̂ is always in `(0, 1]`. The grid's answer is
//! bit for bit that of 125 independent Holt-Winters fits and a refit under
//! the winner; it gets there with shared, pruned passes compiled once per
//! seasonality mode, which smooth an α's five β side by side through the
//! first season and each (α, β) pair's five γ side by side after it, and
//! keeps the winner's state.
//!
//! ## Example
//!
//! ```
//! use ovnes_forecast::predict_next;
//!
//! // Two days of hourly load with a clear diurnal pattern.
//! let series: Vec<f64> = (0..48)
//!     .map(|h| 100.0 + 40.0 * (2.0 * std::f64::consts::PI * (h % 24) as f64 / 24.0).sin())
//!     .collect();
//! let p = predict_next(&series, 24, 0.05);
//! assert!((p.value - 100.0).abs() < 30.0); // follows the cycle back up
//! assert!(p.sigma > 0.0 && p.sigma <= 1.0);
//! ```

// The public surface is `predict_next` and `Prediction`, both declared here;
// a `pub` item elsewhere in the crate is unreachable and fails to compile, so
// the grid, SES and σ̂ stay private (`tests/design_guards.rs` holds the rest).
#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod holt_winters;
mod uncertainty;

use holt_winters::Seasonality;

/// Forecast for the next epoch with its uncertainty, the pair consumed by
/// the AC-RR objective (`λ̂`, `σ̂`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted value (e.g. peak slice load next epoch), never negative or
    /// NaN.
    pub value: f64,
    /// Normalised uncertainty in `(0, 1]`: ~0 ⇒ highly confident.
    pub sigma: f64,
}

/// The orchestrator's one forecasting call: fit the paper's multiplicative
/// Holt-Winters (additive when a sample is not positive, SES on a history
/// shorter than two seasons), forecast one step, and attach σ̂.
///
/// `season` is the seasonal period in samples; `min_sigma` floors the
/// uncertainty (the paper requires σ̂ > 0). A `min_sigma` outside `(0, 1]`
/// is clamped into it: NaN and non-positive values become
/// `f64::MIN_POSITIVE`, values above 1 become 1.
pub fn predict_next(series: &[f64], season: usize, min_sigma: f64) -> Prediction {
    let min_sigma = if min_sigma > 0.0 {
        min_sigma.min(1.0)
    } else {
        f64::MIN_POSITIVE
    };
    // `len / 2 >= season`, not `len >= 2 * season`: the product overflows on
    // a huge season, which must take the short-history path instead.
    let (value, rmse) = if season >= 2 && series.len() / 2 >= season {
        let mode = if series.iter().all(|&v| v > 0.0) {
            Seasonality::Multiplicative
        } else {
            Seasonality::Additive
        };
        let fit = holt_winters::fit_grid(mode, season, series);
        (fit.forecast(mode, series.len()), Some(fit.rmse))
    } else {
        ses(series)
    };
    Prediction {
        value: value.max(0.0),
        sigma: uncertainty::sigma_from_rmse(rmse, series, min_sigma),
    }
}

/// Simple exponential smoothing of the level, `ℓ_t = α·y_t + (1−α)·ℓ_{t−1}`
/// at α = 0.3 from `ℓ_0 = y_0`: the final level (0 on an empty series) and
/// the one-step RMSE (`None` below two samples).
fn ses(series: &[f64]) -> (f64, Option<f64>) {
    const ALPHA: f64 = 0.3;
    let Some((&first, rest)) = series.split_first() else {
        return (0.0, None);
    };
    let (mut level, mut sq_err) = (first, 0.0);
    for &y in rest {
        let err = y - level;
        sq_err += err * err;
        level = ALPHA * y + (1.0 - ALPHA) * level;
    }
    let rmse = (!rest.is_empty()).then(|| (sq_err / rest.len() as f64).sqrt());
    (level, rmse)
}

#[cfg(test)]
mod tests;
