//! Forecast-uncertainty estimation behind [`predict_next`](crate::predict_next).
//!
//! The AC-RR objective scales its risk term by `ξ = σ̂ · L` where
//! `σ̂ ∈ (0, 1]` quantifies how much the forecast can be trusted (§3.1).
//! The paper leaves the estimator open; we use the natural choice of
//! **normalised one-step fit error**: RMSE of the smoother's one-step-ahead
//! residuals divided by the series' mean magnitude, clamped into
//! `[min_sigma, 1]`.
//!
//! A perfectly periodic series fits with near-zero residuals ⇒ σ̂ ≈
//! `min_sigma` (overbooking at almost no risk), while an erratic series
//! drives σ̂ toward 1 (the orchestrator reserves close to the full SLA).

/// Maps a fit RMSE to the paper's `σ̂ ∈ (0, 1]` scale.
///
/// * `rmse = None` (series too short to measure) ⇒ maximum uncertainty 1.0.
/// * A non-finite `rmse` or any non-finite series element (a poisoned
///   monitor stream) ⇒ maximum uncertainty 1.0 — without this guard the
///   NaN would survive `clamp` (`NaN.clamp(a, b)` is NaN) and poison the
///   risk term downstream.
/// * Otherwise `clamp(rmse / mean(|series|), min_sigma, 1.0)`.
///
/// # Panics
/// Panics unless `0 < min_sigma ≤ 1`; `predict_next` clamps its argument
/// into that range first.
pub(crate) fn sigma_from_rmse(rmse: Option<f64>, series: &[f64], min_sigma: f64) -> f64 {
    assert!(
        min_sigma > 0.0 && min_sigma <= 1.0,
        "min_sigma must be in (0, 1]"
    );
    let Some(rmse) = rmse else {
        return 1.0;
    };
    if series.is_empty() {
        return 1.0;
    }
    if !rmse.is_finite() || series.iter().any(|v| !v.is_finite()) {
        return 1.0;
    }
    let mean_abs: f64 = series.iter().map(|v| v.abs()).sum::<f64>() / series.len() as f64;
    if mean_abs < 1e-12 {
        // An all-zero series is perfectly predictable.
        return min_sigma;
    }
    (rmse / mean_abs).clamp(min_sigma, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_series_is_max_uncertainty() {
        assert_eq!(sigma_from_rmse(None, &[1.0], 0.05), 1.0);
    }

    #[test]
    fn zero_error_floors_at_min_sigma() {
        assert_eq!(sigma_from_rmse(Some(0.0), &[5.0, 5.0, 5.0], 0.05), 0.05);
    }

    #[test]
    fn large_error_caps_at_one() {
        assert_eq!(sigma_from_rmse(Some(100.0), &[1.0, 1.0], 0.05), 1.0);
    }

    #[test]
    fn proportional_in_between() {
        let s = sigma_from_rmse(Some(2.0), &[10.0, 10.0], 0.05);
        assert!((s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_series_is_predictable() {
        assert_eq!(sigma_from_rmse(Some(0.0), &[0.0, 0.0], 0.05), 0.05);
    }

    #[test]
    #[should_panic(expected = "min_sigma")]
    fn rejects_bad_min_sigma() {
        sigma_from_rmse(Some(1.0), &[1.0], 0.0);
    }

    #[test]
    fn non_finite_rmse_is_max_uncertainty() {
        assert_eq!(sigma_from_rmse(Some(f64::NAN), &[1.0, 2.0], 0.05), 1.0);
        assert_eq!(sigma_from_rmse(Some(f64::INFINITY), &[1.0, 2.0], 0.05), 1.0);
    }

    #[test]
    fn non_finite_series_element_is_max_uncertainty() {
        assert_eq!(sigma_from_rmse(Some(1.0), &[1.0, f64::NAN], 0.05), 1.0);
        assert_eq!(
            sigma_from_rmse(Some(1.0), &[f64::NEG_INFINITY, 1.0], 0.05),
            1.0
        );
    }
}
