//! # ovnes-forecast — exponential-smoothing forecasting
//!
//! The CoNEXT'18 overbooking orchestrator drives admission decisions from a
//! *forecast* of each slice's peak demand in the next decision epoch
//! (`λ̂`) and an *uncertainty estimate* for that forecast (`σ̂ ∈ (0, 1]`),
//! which scales the risk term of the yield objective. The paper uses the
//! **multiplicative Holt-Winters** method (triple exponential smoothing)
//! because mobile traffic is strongly seasonal (§2.2.2, "Forecasting").
//!
//! The orchestrator forecasts through one function, [`predict_next`], and
//! the crate holds the three smoothers behind it:
//!
//! * [`ses`] — simple exponential smoothing (level only): its path for a
//!   history shorter than two seasons,
//! * [`holt`] — double exponential smoothing (level + trend): what a
//!   Holt-Winters fit falls back to on a history shorter than two seasons,
//! * [`holt_winters`] — triple smoothing with additive or multiplicative
//!   seasonality, plus a small grid-search fitter,
//! * [`uncertainty`] — normalised one-step-error estimator mapping model fit
//!   quality into the paper's `σ̂ ∈ (0, 1]` scale factor.
//!
//! The [`Forecaster`] trait is their common fit / forecast interface. The
//! orchestrator is not generic over it, and no ablation swaps the method.
//!
//! [`predict_next`] runs per (slice, BS) series every epoch: on two seasons
//! of history or more, a Holt-Winters fit (multiplicative, or additive when
//! a sample is not positive) chosen by a 5×5×5 grid over (α, β, γ) by
//! one-step RMSE; on less, SES. The seasonal initialisation does not
//! depend on the factors, so
//! [`HoltWinters::fit_grid`](holt_winters::HoltWinters::fit_grid) computes it
//! once and runs each candidate as one smoothing pass over a reused buffer —
//! the same two steps a plain `fit` takes, so the grid's answer is bit for
//! bit that of 125 independent fits. A candidate is abandoned as soon as its
//! running squared error exceeds the best full sum so far: round-to-nearest
//! addition of non-negative terms is monotone, so such a candidate's RMSE
//! could only tie or lose, and a NaN sum never compares greater, so it runs
//! to the end as before. Pruning changes how much history a losing
//! candidate reads, never which candidate wins or any bit of the result;
//! the winner and the final refit still read the whole history, so a fit
//! stays linear in it (the grid order is unchanged, so how early the cap
//! tightens depends on where the winner lies in it).
//!
//! **Shared first season.** In the first smoothed season every step reads
//! an initial seasonal index, never one a candidate wrote, so γ does not
//! reach the level, the trend or the error sum before `2m`. The five γ of
//! an (α, β) pair therefore share those `m` steps bit for bit: the grid
//! runs them once per pair (under the cap in force when the pair starts,
//! the loosest any of its γ meets), keeps each step's blend input, and per
//! γ forms the first-season indices with the recursion's own blend before
//! smoothing on from `2m`. On `2m + k` samples that is at most
//! `25·m + 125·k` full steps and `125·m` blends instead of `125·(m + k)`
//! steps, so the short histories of the first days gain most. One function
//! holds a step's arithmetic, and both paths call it.
//!
//! ## Example
//!
//! ```
//! use ovnes_forecast::{holt_winters::{HoltWinters, Seasonality}, Forecaster};
//!
//! // Two days of hourly load with a clear diurnal pattern.
//! let series: Vec<f64> = (0..48)
//!     .map(|h| 100.0 + 40.0 * (2.0 * std::f64::consts::PI * (h % 24) as f64 / 24.0).sin())
//!     .collect();
//! let mut hw = HoltWinters::new(24, Seasonality::Multiplicative);
//! hw.fit(&series);
//! let next = hw.forecast(1).expect("fitted above")[0];
//! assert!((next - 100.0).abs() < 30.0); // follows the cycle back up
//! ```

pub mod holt;
pub mod holt_winters;
pub mod ses;
pub mod uncertainty;

/// Common interface for time-series forecasters.
///
/// Implementations are *offline*: `fit` consumes the full history each epoch
/// (histories in the orchestrator are short — hundreds of points) and
/// `forecast` extrapolates from the fitted state.
pub trait Forecaster {
    /// Fits internal state to the observation history (earliest first).
    fn fit(&mut self, series: &[f64]);

    /// Forecasts the next `horizon` values after the end of the fitted
    /// series. Returns `None` when no state is fitted — `fit` was never
    /// called, or the last call saw an empty series (or, for Holt-Winters, a
    /// season too long to hold an index table).
    fn forecast(&self, horizon: usize) -> Option<Vec<f64>>;

    /// Root-mean-square of one-step-ahead fit errors, if available.
    /// `None` before `fit` or when the series was too short to estimate.
    fn fit_rmse(&self) -> Option<f64>;
}

/// Forecast for the next epoch with its uncertainty, the pair consumed by
/// the AC-RR objective (`λ̂`, `σ̂`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted value (e.g. peak slice load next epoch).
    pub value: f64,
    /// Normalised uncertainty in `(0, 1]`: ~0 ⇒ highly confident.
    pub sigma: f64,
}

/// The orchestrator's one forecasting call: fit the paper's multiplicative
/// Holt-Winters (additive when a sample is not positive, SES on a history
/// shorter than two seasons), forecast one step, and attach σ̂.
///
/// `season` is the seasonal period in samples; `min_sigma` floors the
/// uncertainty (the paper requires σ̂ > 0).
pub fn predict_next(series: &[f64], season: usize, min_sigma: f64) -> Prediction {
    use holt_winters::{HoltWinters, Seasonality};

    if series.is_empty() {
        return Prediction {
            value: 0.0,
            sigma: 1.0,
        };
    }
    if series.len() < 2 {
        return Prediction {
            value: series[0],
            sigma: 1.0,
        };
    }

    let positive = series.iter().all(|&v| v > 0.0);
    // `len / 2 >= season`, not `len >= 2 * season`: the product overflows on
    // a huge season, which must take the short-history path instead.
    let enough_for_hw = season >= 2 && series.len() / 2 >= season;

    let (value, rmse) = if enough_for_hw {
        let mut hw = HoltWinters::new(
            season,
            if positive {
                Seasonality::Multiplicative
            } else {
                Seasonality::Additive
            },
        );
        hw.fit_grid(series);
        match hw.forecast(1) {
            Some(f) => (f[0], hw.fit_rmse()),
            None => (series[series.len() - 1], None),
        }
    } else {
        // Short history: a level-only smoother. (Holt's trend term chases
        // noise on short peak series and wildly inflates the fit error,
        // which would make σ̂ — and thus reservations — far too
        // conservative during the learning phase.)
        let mut s = ses::Ses::new(0.3);
        s.fit(series);
        match s.forecast(1) {
            Some(f) => (f[0], s.fit_rmse()),
            None => (series[series.len() - 1], None),
        }
    };

    let sigma = uncertainty::sigma_from_rmse(rmse, series, min_sigma);
    Prediction {
        value: value.max(0.0),
        sigma,
    }
}

#[cfg(test)]
mod tests;
