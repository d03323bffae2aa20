//! Tests for `predict_next` and the Holt-Winters grid behind it.

use crate::holt_winters::{fit_grid, step_count, Fit, Seasonality};
use crate::uncertainty::sigma_from_rmse;
use crate::{predict_next, Prediction};
use proptest::prelude::*;

const TAU: f64 = std::f64::consts::TAU;
const MODES: [Seasonality; 2] = [Seasonality::Additive, Seasonality::Multiplicative];

fn diurnal(n: usize, period: usize, mean: f64, amp: f64) -> Vec<f64> {
    (0..n)
        .map(|t| mean + amp * (TAU * (t % period) as f64 / period as f64).sin())
        .collect()
}

/// The one-step forecasts of `series[from..]`, each from the history before
/// it.
fn rolling(series: &[f64], season: usize, from: usize) -> Vec<Prediction> {
    (from..series.len())
        .map(|t| predict_next(&series[..t], season, 0.05))
        .collect()
}

// ---------------------------------------------------------------------------
// The short-history path: SES at α = 0.3
// ---------------------------------------------------------------------------

#[test]
fn ses_constant_series() {
    let p = predict_next(&[7.0; 20], 24, 0.05);
    assert!((p.value - 7.0).abs() < 1e-9);
    assert_eq!(p.sigma, 0.05, "zero fit error floors σ̂");
}

#[test]
fn ses_converges_toward_recent_level() {
    let mut series = vec![0.0; 30];
    series.extend(vec![10.0; 30]);
    let p = predict_next(&series, 48, 0.05); // under two seasons: SES
    assert!(p.value > 9.5, "SES should track the regime change");
}

#[test]
fn ses_empty_and_single() {
    assert_eq!(
        predict_next(&[], 6, 0.05),
        Prediction {
            value: 0.0,
            sigma: 1.0
        }
    );
    let p = predict_next(&[3.0], 6, 0.05);
    assert_eq!((p.value, p.sigma), (3.0, 1.0), "no error to measure");
    // Two samples: one step of error 2 against a mean magnitude of 4.
    let p = predict_next(&[3.0, 5.0], 6, 0.05);
    assert!((p.value - 3.6).abs() < 1e-12, "{p:?}");
    assert!((p.sigma - 0.5).abs() < 1e-12, "{p:?}");
}

// ---------------------------------------------------------------------------
// The Holt-Winters path, read through `predict_next` and the grid's `Fit`
// ---------------------------------------------------------------------------

#[test]
fn hw_multiplicative_learns_seasonality() {
    let series = diurnal(24 * 7, 24, 100.0, 40.0);
    // Each hour of the seventh day, forecast from the hours before it,
    // should match the true cycle.
    for (h, p) in rolling(&series, 24, 24 * 6).iter().enumerate() {
        let truth = series[24 * 6 + h];
        assert!((p.value - truth).abs() < 12.0, "h={h}: {p:?} vs {truth}");
    }
    // And the fit error should be far below the seasonal amplitude.
    let fit = fit_grid(Seasonality::Multiplicative, 24, &series[..24 * 6]);
    assert!(fit.rmse < 10.0);
}

#[test]
fn hw_additive_learns_seasonality_with_negatives() {
    let series = diurnal(12 * 9, 12, 0.0, 5.0); // oscillates around zero
    for (h, p) in rolling(&series, 12, 12 * 8).iter().enumerate() {
        let (history, truth) = (&series[..12 * 8 + h], series[12 * 8 + h]);
        let fit = fit_grid(Seasonality::Additive, 12, history);
        let f = fit.forecast(Seasonality::Additive, history.len());
        assert!((f - truth).abs() < 2.5, "h={h}: {f} vs {truth}");
        assert_eq!(p.value, f.max(0.0), "h={h}: the additive fit, floored");
    }
}

#[test]
fn holt_tracks_linear_trend() {
    // Holt's linear trend, as the trend term of the Holt-Winters path: the
    // next values continue the line, 2 + 0.5·40 = 22, then 22.5, …
    let series: Vec<f64> = (0..44).map(|t| 2.0 + 0.5 * t as f64).collect();
    for (h, p) in rolling(&series, 6, 40).iter().enumerate() {
        let expect = series[40 + h];
        assert!((p.value - expect).abs() < 0.5, "h={h}: {p:?} vs {expect}");
    }
}

#[test]
fn holt_downtrend_extrapolates_below_last() {
    let series: Vec<f64> = (0..30).map(|t| 100.0 - 2.0 * t as f64).collect();
    let p = predict_next(&series, 6, 0.05);
    assert!(p.value < series[29], "{p:?}");
    // Two steps on, the trend continues downward.
    let longer: Vec<f64> = (0..32).map(|t| 100.0 - 2.0 * t as f64).collect();
    assert!(predict_next(&longer, 6, 0.05).value < p.value);
}

#[test]
fn hw_beats_holt_on_seasonal_data() {
    // One-step forecasts over the fifth day: the seasonal path against
    // Holt's level + trend (the oracle's fallback) from the same history.
    let series = diurnal(24 * 5, 24, 50.0, 20.0);
    let (mut hw_err, mut holt_err) = (0.0, 0.0);
    for t in 24 * 4..24 * 5 {
        let hw = predict_next(&series[..t], 24, 0.05).value;
        let ((level, trend), _) = oracle_holt(&series[..t]).expect("non-empty");
        hw_err += (hw - series[t]).powi(2);
        holt_err += (level + trend - series[t]).powi(2);
    }
    assert!(
        hw_err < holt_err,
        "Holt-Winters ({hw_err:.2}) should beat Holt ({holt_err:.2}) on seasonal data"
    );
}

#[test]
fn hw_short_history_falls_back() {
    // Under two seasons there is no seasonal initialisation: the level-only
    // path answers, and it does not extrapolate the rise.
    let series = [5.0, 6.0, 7.0];
    let p = predict_next(&series, 24, 0.05);
    let (level, rmse) = oracle_ses(&series);
    let sigma = sigma_from_rmse(rmse, &series, 0.05);
    assert_eq!(bits(&[p.value, p.sigma]), bits(&[level, sigma]));
    assert!(p.value > 5.0 && p.value < 7.0, "{p:?}");
}

#[test]
fn hw_grid_search_not_worse_than_default() {
    let series = diurnal(24 * 5, 24, 80.0, 30.0);
    let mut default_hw = OracleHw::new(24, Seasonality::Multiplicative);
    default_hw.fit(&series);
    let tuned = fit_grid(Seasonality::Multiplicative, 24, &series);
    assert!(tuned.rmse <= default_hw.rmse.unwrap() + 1e-9);
}

#[test]
fn hw_seasonal_indices_multiplicative_centered_near_one() {
    let series = diurnal(24 * 4, 24, 100.0, 30.0);
    let idx = fit_grid(Seasonality::Multiplicative, 24, &series).seasonal;
    let mean: f64 = idx.iter().sum::<f64>() / idx.len() as f64;
    assert!((mean - 1.0).abs() < 0.1, "indices mean {mean}");
}

#[test]
fn hw_handles_constant_series() {
    let p = predict_next(&[10.0; 36], 6, 0.05);
    assert!((p.value - 10.0).abs() < 1e-6, "{p:?}");
    assert_eq!(p.sigma, 0.05);
    let fit = fit_grid(Seasonality::Multiplicative, 6, &[10.0; 36]);
    assert!(fit.rmse < 1e-9);
    assert!((fit.level - 10.0).abs() < 1e-6 && fit.trend.abs() < 1e-9);
    assert!(fit.seasonal.iter().all(|s| (s - 1.0).abs() < 1e-9));
}

#[test]
fn hw_additive_handles_zero_heavy_series() {
    // Many zeros would break the multiplicative form; additive must cope.
    let series: Vec<f64> = (0..60)
        .map(|t| if t % 12 < 6 { 0.0 } else { 5.0 })
        .collect();
    let forecasts = rolling(&series, 12, 48);
    assert!(forecasts.iter().all(|p| p.value.is_finite()));
    // The square wave should be roughly reproduced.
    assert!(
        forecasts[2].value < forecasts[8].value,
        "quiet half must forecast below busy half"
    );
}

#[test]
fn predict_next_empty_and_short() {
    let p = predict_next(&[], 24, 0.05);
    assert_eq!(p.value, 0.0);
    assert_eq!(p.sigma, 1.0);
    let p = predict_next(&[9.0], 24, 0.05);
    assert_eq!(p.value, 9.0);
    assert_eq!(p.sigma, 1.0);
}

#[test]
fn predict_next_periodic_series_is_confident() {
    let series = diurnal(24 * 6, 24, 100.0, 40.0);
    let p = predict_next(&series, 24, 0.05);
    assert!(
        p.sigma < 0.3,
        "periodic traffic should be predictable, σ̂ = {}",
        p.sigma
    );
    assert!(p.value > 0.0);
}

#[test]
fn predict_next_noise_is_uncertain() {
    // Deterministic pseudo-noise (LCG) with large relative swings and no
    // period commensurate with the declared season.
    let mut state = 0x2545F4914F6CDD1Du64;
    let series: Vec<f64> = (0..96)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0.5 + 19.5 * ((state >> 33) as f64 / (1u64 << 31) as f64)
        })
        .collect();
    let p = predict_next(&series, 24, 0.05);
    assert!(
        p.sigma > 0.3,
        "erratic traffic must carry high σ̂, got {}",
        p.sigma
    );
}

#[test]
fn predict_next_never_negative() {
    let series: Vec<f64> = (0..30).map(|t| 10.0 - t as f64).collect(); // strong downtrend
    let p = predict_next(&series, 5, 0.05);
    assert!(p.value >= 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forecasts of positive, bounded series stay finite, and σ̂ in (0,1].
    #[test]
    fn prop_prediction_well_formed(
        n in 4usize..120,
        season in 2usize..26,
        mean in 1.0f64..1000.0,
        amp_frac in 0.0f64..0.9,
    ) {
        let series = diurnal(n, season, mean, mean * amp_frac);
        let p = predict_next(&series, season, 0.05);
        prop_assert!(p.value.is_finite());
        prop_assert!(p.value >= 0.0);
        prop_assert!(p.sigma > 0.0 && p.sigma <= 1.0);
    }

    /// The SES path's level always lies within the series' range (floored
    /// at zero, as every forecast is).
    #[test]
    fn prop_ses_level_within_range(
        values in proptest::collection::vec(-50.0f64..50.0, 2..60),
    ) {
        let value = predict_next(&values, 0, 0.05).value;
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(value >= lo.max(0.0) - 1e-9 && value <= hi.max(0.0) + 1e-9);
    }

    /// Holt-Winters one-step forecast of a noiseless periodic signal is
    /// asymptotically accurate.
    #[test]
    fn prop_hw_periodic_accuracy(
        season in 3usize..13,
        mean in 10.0f64..200.0,
    ) {
        let amp = mean * 0.3;
        let series = diurnal(season * 8, season, mean, amp);
        let f = predict_next(&series, season, 0.05).value;
        let truth = mean + amp * (TAU * ((season * 8) % season) as f64 / season as f64).sin();
        prop_assert!((f - truth).abs() < mean * 0.25,
            "forecast {f} too far from truth {truth}");
    }
}

#[test]
fn predict_next_short_series_uses_level_not_trend() {
    // Two points with a big jump: the SES fallback must not extrapolate a
    // runaway trend the way Holt would.
    let p = predict_next(&[10.0, 30.0], 24, 0.05);
    assert!(
        p.value <= 30.0 + 1e-9,
        "level-only fallback, got {}",
        p.value
    );
}

#[test]
fn predict_next_sigma_respects_floor() {
    let series = vec![5.0; 40];
    let p = predict_next(&series, 6, 0.07);
    assert_eq!(p.sigma, 0.07, "constant series hits the σ̂ floor exactly");
}

// ---------------------------------------------------------------------------
// Refinement: the shared-initialisation, pruned grid against the unpruned
// rebuild it replaced
// ---------------------------------------------------------------------------

/// The Holt-Winters fit and grid search as shipped before `init`/`smooth`
/// were split out: every candidate clones the model and runs a whole fit
/// over the whole history (no pruning), and a fit recomputes each season
/// mean once per position. Kept here, and only here, as the oracle the
/// shipped form must refine bit for bit.
#[derive(Clone)]
struct OracleHw {
    season: usize,
    mode: Seasonality,
    alpha: f64,
    beta: f64,
    gamma: f64,
    /// `(level, trend, seasonal, next_pos)`.
    state: Option<(f64, f64, Vec<f64>, usize)>,
    rmse: Option<f64>,
}

impl OracleHw {
    fn new(season: usize, mode: Seasonality) -> Self {
        Self {
            season,
            mode,
            alpha: 0.4,
            beta: 0.1,
            gamma: 0.3,
            state: None,
            rmse: None,
        }
    }

    /// One fit under the factors `(a, b, g)`; its RMSE.
    fn rmse_under(
        series: &[f64],
        season: usize,
        mode: Seasonality,
        (a, b, g): (f64, f64, f64),
    ) -> Option<f64> {
        let mut hw = Self::new(season, mode);
        (hw.alpha, hw.beta, hw.gamma) = (a, b, g);
        hw.fit(series);
        hw.rmse
    }

    fn fit_grid(&mut self, series: &[f64]) {
        const GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
        let mut best: Option<(f64, f64, f64, f64)> = None;
        for &a in &GRID {
            for &b in &GRID {
                for &g in &GRID {
                    let mut cand = self.clone();
                    cand.alpha = a;
                    cand.beta = b;
                    cand.gamma = g;
                    cand.fit(series);
                    if let Some(r) = cand.rmse {
                        if best.is_none_or(|(br, ..)| r < br) {
                            best = Some((r, a, b, g));
                        }
                    }
                }
            }
        }
        if let Some((_, a, b, g)) = best {
            self.alpha = a;
            self.beta = b;
            self.gamma = g;
        }
        self.fit(series);
    }

    fn fit(&mut self, series: &[f64]) {
        self.state = None;
        self.rmse = None;
        let m = self.season;
        if series.len() < 2 * m {
            if let Some(((level, trend), rmse)) = oracle_holt(series) {
                let neutral = match self.mode {
                    Seasonality::Additive => 0.0,
                    Seasonality::Multiplicative => 1.0,
                };
                self.state = Some((level, trend, vec![neutral; m], series.len() % m));
                self.rmse = rmse;
            }
            return;
        }

        let s1_mean: f64 = series[..m].iter().sum::<f64>() / m as f64;
        let s2_mean: f64 = series[m..2 * m].iter().sum::<f64>() / m as f64;
        let mut level = s1_mean;
        let mut trend = (s2_mean - s1_mean) / m as f64;

        let full_seasons = series.len() / m;
        let mut seasonal = vec![0.0; m];
        for pos in 0..m {
            let mut acc = 0.0;
            for s in 0..full_seasons {
                let y = series[s * m + pos];
                let season_mean: f64 = series[s * m..(s + 1) * m].iter().sum::<f64>() / m as f64;
                acc += match self.mode {
                    Seasonality::Additive => y - season_mean,
                    Seasonality::Multiplicative => {
                        if season_mean.abs() < f64::EPSILON {
                            1.0
                        } else {
                            y / season_mean
                        }
                    }
                };
            }
            seasonal[pos] = acc / full_seasons as f64;
        }
        if self.mode == Seasonality::Multiplicative {
            for s in seasonal.iter_mut() {
                if *s <= 0.0 {
                    *s = f64::EPSILON.max(1e-6);
                }
            }
        }

        let (alpha, beta, gamma) = (self.alpha, self.beta, self.gamma);
        let mut sq_err = 0.0;
        let mut n_err = 0usize;
        for (t, &y) in series.iter().enumerate().skip(m) {
            let pos = t % m;
            let s_prev = seasonal[pos];
            let pred = match self.mode {
                Seasonality::Additive => level + trend + s_prev,
                Seasonality::Multiplicative => (level + trend) * s_prev,
            };
            let err = y - pred;
            sq_err += err * err;
            n_err += 1;

            let new_level = match self.mode {
                Seasonality::Additive => alpha * (y - s_prev) + (1.0 - alpha) * (level + trend),
                Seasonality::Multiplicative => {
                    alpha * (y / s_prev) + (1.0 - alpha) * (level + trend)
                }
            };
            trend = beta * (new_level - level) + (1.0 - beta) * trend;
            let denom = if new_level.abs() < 1e-12 {
                1e-12
            } else {
                new_level
            };
            seasonal[pos] = match self.mode {
                Seasonality::Additive => gamma * (y - new_level) + (1.0 - gamma) * s_prev,
                Seasonality::Multiplicative => gamma * (y / denom) + (1.0 - gamma) * s_prev,
            };
            level = new_level;
        }

        self.state = Some((level, trend, seasonal, series.len() % m));
        if n_err > 0 {
            self.rmse = Some((sq_err / n_err as f64).sqrt());
        }
    }

    fn forecast(&self, horizon: usize) -> Option<Vec<f64>> {
        let (level, trend, seasonal, next_pos) = self.state.as_ref()?;
        Some(
            (0..horizon)
                .map(|h| {
                    let base = level + (h + 1) as f64 * trend;
                    let s = seasonal[(next_pos + h) % self.season];
                    match self.mode {
                        Seasonality::Additive => base + s,
                        Seasonality::Multiplicative => base * s,
                    }
                })
                .collect(),
        )
    }
}

/// Holt's linear method at α = 0.4, β = 0.2, the oracle's fallback below two
/// seasons: the fitted `(level, trend)` (none on an empty series) and the
/// one-step RMSE (none below two samples).
fn oracle_holt(series: &[f64]) -> Option<((f64, f64), Option<f64>)> {
    let (alpha, beta) = (0.4, 0.2);
    match series.len() {
        0 => return None,
        1 => return Some(((series[0], 0.0), None)),
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
        let new_level = alpha * y + (1.0 - alpha) * (level + trend);
        trend = beta * (new_level - level) + (1.0 - beta) * trend;
        level = new_level;
    }
    Some(((level, trend), Some((sq_err / n_err as f64).sqrt())))
}

/// Simple exponential smoothing at α = 0.3 as the retired `Ses` smoother
/// fitted it: the level (0 on an empty series) and the one-step RMSE (none
/// below two samples).
fn oracle_ses(series: &[f64]) -> (f64, Option<f64>) {
    let alpha = 0.3;
    if series.is_empty() {
        return (0.0, None);
    }
    let mut level = series[0];
    let mut sq_err = 0.0;
    let mut n_err = 0usize;
    for &y in &series[1..] {
        let err = y - level;
        sq_err += err * err;
        n_err += 1;
        level = alpha * y + (1.0 - alpha) * level;
    }
    (level, (n_err > 0).then(|| (sq_err / n_err as f64).sqrt()))
}

/// `predict_next` over the oracle grid and the oracle SES, for a `min_sigma`
/// in `(0, 1]`.
fn oracle_predict_next(series: &[f64], season: usize, min_sigma: f64) -> Prediction {
    let (value, rmse) = if season >= 2 && series.len() / 2 >= season {
        let positive = series.iter().all(|&v| v > 0.0);
        let mut hw = OracleHw::new(
            season,
            if positive {
                Seasonality::Multiplicative
            } else {
                Seasonality::Additive
            },
        );
        hw.fit_grid(series);
        match hw.forecast(1) {
            Some(f) => (f[0], hw.rmse),
            None => (series[series.len() - 1], None),
        }
    } else {
        oracle_ses(series)
    };
    Prediction {
        value: value.max(0.0),
        sigma: sigma_from_rmse(rmse, series, min_sigma),
    }
}

/// Bit patterns, with every NaN folded to one: which of two NaN operands an
/// addition propagates is the code generator's choice, not the source's.
fn bits(values: &[f64]) -> Vec<u64> {
    values
        .iter()
        .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
        .collect()
}

/// Asserts the grid's fit and the oracle's agree bit for bit on the
/// factors, the RMSE, the fitted level, trend and seasonal indices, and the
/// one-step forecast after `len` samples.
fn assert_same_model(fit: &Fit, oracle: &OracleHw, len: usize, what: &str) {
    let (a, b, g) = fit.factors;
    assert_eq!(
        bits(&[a, b, g]),
        bits(&[oracle.alpha, oracle.beta, oracle.gamma]),
        "{what}: factors"
    );
    assert_eq!(
        Some(bits(&[fit.rmse])),
        oracle.rmse.map(|r| bits(&[r])),
        "{what}: rmse"
    );
    let (level, trend, seasonal, _) = oracle.state.as_ref().expect("two seasons fit");
    assert_eq!(
        bits(&[fit.level, fit.trend]),
        bits(&[*level, *trend]),
        "{what}: level and trend"
    );
    assert_eq!(
        bits(&fit.seasonal),
        bits(seasonal),
        "{what}: seasonal indices"
    );
    assert_eq!(
        bits(&[fit.forecast(oracle.mode, len)]),
        bits(&oracle.forecast(1).expect("two seasons fit")),
        "{what}: forecast"
    );
}

/// Grid-fits `series` (two seasons or more) under `mode` in both forms and
/// compares them.
fn assert_refines(series: &[f64], season: usize, mode: Seasonality) {
    let what = format!("fit_grid m={season} len={} {mode:?}", series.len());
    let fit = fit_grid(mode, season, series);
    let mut oracle = OracleHw::new(season, mode);
    oracle.fit_grid(series);
    assert_same_model(&fit, &oracle, series.len(), &what);
}

/// Number of series families [`shaped`] draws from.
const SHAPES: usize = 9;

/// Turns raw draws in `(-1, 1)` into one of the series families the
/// refinement must hold on.
fn shaped(raw: &[f64], season: usize, shape: usize) -> Vec<f64> {
    let mut walk = 100.0;
    raw.iter()
        .enumerate()
        .map(|(t, &r)| match shape {
            // Strictly positive: the multiplicative path `predict_next` takes.
            0 => 60.0 + 50.0 * r,
            // Zero-heavy.
            1 => {
                if r.abs() < 0.4 {
                    0.0
                } else {
                    40.0 * r.abs()
                }
            }
            // Mixed signs.
            2 => 50.0 * r,
            // Constant runs (a few plateaus).
            3 => (3.0 * r).round(),
            // An all-zero second season: a zero season mean.
            4 => {
                if t / season == 1 {
                    0.0
                } else {
                    10.0 + 5.0 * r
                }
            }
            // Constant throughout: every candidate ties at RMSE 0.
            5 => 7.5,
            // All zero: the ties again, through the additive path.
            6 => 0.0,
            // Positive, with the odd NaN, +inf or -inf.
            7 => match r {
                r if r > 0.96 => f64::NAN,
                r if r < -0.96 => f64::INFINITY,
                r if r.abs() < 0.01 => f64::NEG_INFINITY,
                r => 60.0 + 50.0 * r,
            },
            // A random walk: high smoothing factors win, late in grid order,
            // so the cap tightens late.
            _ => {
                walk += 10.0 * r;
                walk
            }
        })
        .collect()
}

/// `n` draws in `[-1, 1)` from a fixed LCG stream.
fn draws(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grid from the shared initialisation equals the clone-and-refit
    /// grid bit for bit, in both modes, whatever the series.
    #[test]
    fn prop_shared_init_refines_rebuild(
        season_pick in 0usize..3,
        seasons in 2usize..41,
        ragged in 0usize..24,
        shape in 0usize..SHAPES,
        raw in proptest::collection::vec(-1.0f64..1.0, 41 * 24),
    ) {
        let season = [2, 6, 24][season_pick];
        let len = (seasons * season + ragged % season).min(40 * season);
        let series = shaped(&raw[..len], season, shape);
        for mode in MODES {
            assert_refines(&series, season, mode);
        }
        let p = predict_next(&series, season, 0.05);
        let o = oracle_predict_next(&series, season, 0.05);
        prop_assert_eq!(bits(&[p.value, p.sigma]), bits(&[o.value, o.sigma]));
    }
}

#[test]
fn refinement_covers_the_length_boundaries() {
    // Exactly two seasons, one short of three, and the 40-season ceiling.
    for season in [2usize, 6, 24] {
        for len in [2 * season, 3 * season - 1, 40 * season] {
            let series = diurnal(len, season, 80.0, 30.0);
            for mode in MODES {
                assert_refines(&series, season, mode);
            }
        }
    }
}

#[test]
fn pruned_grid_refines_the_unpruned_grid_on_every_length() {
    // Every length from two to eight seasons, the family rotating with the
    // length so each meets ragged and whole-season ends.
    for (k, season) in [2usize, 6, 24].into_iter().enumerate() {
        let raw = draws(0x5EED_0000 + k as u64, 8 * season);
        for len in 2 * season..=8 * season {
            let series = shaped(&raw[..len], season, len % SHAPES);
            for mode in MODES {
                assert_refines(&series, season, mode);
            }
        }
    }
}

#[test]
fn pruned_grid_keeps_a_late_winner_and_the_earliest_tie() {
    // A random walk: the winner sits in the last fifth of the grid order,
    // so most candidates run under a loose cap and the cap tightens late.
    let series = shaped(&draws(7, 96), 6, 8);
    let fit = fit_grid(Seasonality::Multiplicative, 6, &series);
    assert_eq!(fit.factors.0, 0.9, "winner {:?}", fit.factors);
    let mut oracle = OracleHw::new(6, Seasonality::Multiplicative);
    oracle.fit_grid(&series);
    assert_same_model(&fit, &oracle, series.len(), "late winner");

    // Exact ties at RMSE 0: the first candidate stands, in both modes.
    for series in [[7.5; 36], [0.0; 36]] {
        for mode in MODES {
            let fit = fit_grid(mode, 6, &series);
            assert_eq!(fit.factors, (0.1, 0.1, 0.1), "{mode:?}");
            assert_eq!(fit.rmse, 0.0);
            assert_refines(&series, 6, mode);
        }
    }
}

#[test]
fn pruning_skips_pinned_smoothing_work() {
    // A fixed seeded set: every family, both modes, three seasons. The
    // unpruned grid runs 125 candidates over the whole history (there is no
    // refit); the count of steps the pruned one executes is pinned, and
    // moves only with a change that means to move it. Both passes count a
    // step per lane and observation, dead lanes included: the first season
    // (an α's five β) until the group's last lane passes the cap, the
    // lockstep pass (a pair's five γ) until the pair's last lane does. A
    // blend is not a step.
    let (mut unpruned, mut pruned) = (0u64, 0u64);
    for (k, season) in [2usize, 6, 24].into_iter().enumerate() {
        let raw = draws(0xC0FF_EE00 + k as u64, 8 * season);
        for shape in 0..SHAPES {
            let series = shaped(&raw, season, shape);
            for mode in MODES {
                let before = step_count::total();
                fit_grid(mode, season, &series);
                pruned += step_count::total() - before;
                unpruned += 125 * (series.len() - season) as u64;
            }
        }
    }
    assert!(pruned < unpruned, "{pruned} of {unpruned}");
    assert_eq!((pruned, unpruned), (327_240, 504_000));
}

#[test]
fn shared_season_skips_pinned_work_on_short_histories() {
    // Two to three seasons, every family, both modes: the histories where
    // the first season is most of the work, and where a slow pair's first
    // season alone can cost more than the best full fit.
    let (mut unpruned, mut pruned) = (0u64, 0u64);
    for (k, season) in [2usize, 6, 24].into_iter().enumerate() {
        let raw = draws(0x5407_0000 + k as u64, 3 * season);
        for len in 2 * season..=3 * season {
            for shape in 0..SHAPES {
                let series = shaped(&raw[..len], season, shape);
                for mode in MODES {
                    let before = step_count::total();
                    fit_grid(mode, season, &series);
                    pruned += step_count::total() - before;
                    unpruned += 125 * (len - season) as u64;
                }
            }
        }
    }
    assert_eq!((pruned, unpruned), (716_295, 2_187_000));
}

/// Grid-fits `series` under both modes against the oracle, and
/// `predict_next` against the oracle's.
fn assert_refines_and_predicts(series: &[f64], season: usize) {
    for mode in MODES {
        assert_refines(series, season, mode);
    }
    let p = predict_next(series, season, 0.05);
    let o = oracle_predict_next(series, season, 0.05);
    let what = format!("predict_next m={season} len={}", series.len());
    assert_eq!(
        bits(&[p.value, p.sigma]),
        bits(&[o.value, o.sigma]),
        "{what}"
    );
}

#[test]
fn shared_first_season_refines_at_the_season_boundaries() {
    // Two seasons (an empty tail: a pair's five γ tie on the shared sum, so
    // γ = 0.1 wins), one sample more, one short of three seasons and three.
    // The families include a zero-mean first season (4) and the random
    // walk whose winner comes late (8).
    for (k, season) in [2usize, 6, 24].into_iter().enumerate() {
        let raw = draws(0x5EA5_0000 + k as u64, 3 * season);
        for len in [2 * season, 2 * season + 1, 3 * season - 1, 3 * season] {
            let mut families = vec![diurnal(len, season, 80.0, 30.0)];
            families.extend([0, 2, 4, 8].map(|shape| shaped(&raw[..len], season, shape)));
            for series in &families {
                assert_refines_and_predicts(series, season);
                if len == 2 * season {
                    for mode in MODES {
                        let fit = fit_grid(mode, season, series);
                        assert_eq!(fit.factors.2, 0.1, "m={season} {mode:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn shared_first_season_refines_on_non_finite_sums() {
    // Every factor-independent way for the first season to go non-finite:
    // a NaN or +inf sample at each of its positions. Every candidate's sum
    // turns NaN or +inf there, so the first candidate's sticks as the cap,
    // and each later pair shares its season under that cap.
    let grid = [0.1, 0.3, 0.5, 0.7, 0.9];
    for season in [2usize, 6, 24] {
        let base = diurnal(4 * season, season, 40.0, 15.0);
        for pos in season..2 * season {
            for poison in [f64::NAN, f64::INFINITY] {
                let mut series = base.clone();
                series[pos] = poison;
                assert_refines_and_predicts(&series, season);
            }
        }
    }
    // A NaN first candidate: it sticks, and its NaN cap abandons nothing.
    let mut series = diurnal(24, 6, 40.0, 15.0);
    series[8] = f64::NAN;
    for mode in MODES {
        let fit = fit_grid(mode, 6, &series);
        assert!(fit.rmse.is_nan(), "{mode:?}");
        assert_eq!(fit.factors, (0.1, 0.1, 0.1), "{mode:?}");
    }

    // Factor-dependent overflow: a first season of 7e153 spikes squares to
    // just under `f64::MAX`, so the running sum overflows to +inf inside
    // the first season for the fastest-tracking pairs only. Those come last
    // in grid order: their shared season runs under a finite cap and is
    // abandoned at the overflow. (The candidates are enumerated on the
    // oracle, the specification of a single fit.)
    let (season, mode) = (6, Seasonality::Multiplicative);
    let mut series = diurnal(4 * season, season, 10.0, 3.0);
    for pos in (season..2 * season).step_by(2) {
        series[pos] = 7e153;
    }
    let first_finite = grid
        .iter()
        .flat_map(|&a| grid.iter().flat_map(move |&b| grid.map(|g| (a, b, g))))
        .position(|factors| {
            OracleHw::rmse_under(&series, season, mode, factors).is_some_and(f64::is_finite)
        });
    let overflowing: Vec<usize> = (0..25)
        .filter(|&pair| {
            let factors = (grid[pair / 5], grid[pair % 5], 0.1);
            // The first season's sum alone.
            OracleHw::rmse_under(&series[..2 * season], season, mode, factors)
                == Some(f64::INFINITY)
        })
        .collect();
    let first_finite = first_finite.expect("some candidate stays finite");
    assert!(
        overflowing.iter().any(|&pair| 5 * pair > first_finite),
        "{first_finite} {overflowing:?}"
    );
    assert_refines_and_predicts(&series, season);
}

#[test]
fn shared_first_season_refines_through_the_level_clamp() {
    // Multiplicative seasonal blends divide by the new level, clamped to
    // 1e-12 when smaller. Seasons of ones, then one of 1e-14 followed by
    // -m: the level and trend seeds cancel, so the first smoothed level is
    // about 1e-14 for every α and then turns negative, crossing the clamp
    // inside the first season.
    for season in [2usize, 6, 24] {
        let m = season as f64;
        let mut series = vec![1.0; 4 * season];
        series[season] = 1e-14;
        for y in &mut series[season + 1..2 * season] {
            *y = -m;
        }
        let s1 = series[..season].iter().sum::<f64>() / m;
        let s2 = series[season..2 * season].iter().sum::<f64>() / m;
        assert!(
            (s1 + (s2 - s1) / m).abs() < 1e-13,
            "level + trend seeds cancel"
        );
        assert_refines_and_predicts(&series, season);
    }
}

// ---------------------------------------------------------------------------
// Refinement: the five γ lanes of a pair against the grid in sequence
// ---------------------------------------------------------------------------

const GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// One candidate's fit by the oracle's initialisation and recursion, with
/// the running squared-error sum after each step `t ∈ [m, len)`: where a
/// candidate run in sequence would pass a cap. The last sum reproduces the
/// oracle's RMSE bit for bit (asserted).
fn running_sums(series: &[f64], m: usize, mode: Seasonality, factors: (f64, f64, f64)) -> Vec<f64> {
    running_states(series, m, mode, factors)
        .into_iter()
        .map(|(sq, _)| sq)
        .collect()
}

/// [`running_sums`] with the level each step leaves beside its sum.
fn running_states(
    series: &[f64],
    m: usize,
    mode: Seasonality,
    factors: (f64, f64, f64),
) -> Vec<(f64, f64)> {
    let mean = |season: &[f64]| season.iter().sum::<f64>() / m as f64;
    let (mut level, s2) = (mean(&series[..m]), mean(&series[m..2 * m]));
    let mut trend = (s2 - level) / m as f64;
    let seasons: Vec<&[f64]> = series.chunks_exact(m).collect();
    let mut seasonal: Vec<f64> = (0..m)
        .map(|pos| {
            let mut acc = 0.0;
            for season in &seasons {
                let (y, mu) = (season[pos], mean(season));
                acc += match mode {
                    Seasonality::Additive => y - mu,
                    Seasonality::Multiplicative if mu.abs() < f64::EPSILON => 1.0,
                    Seasonality::Multiplicative => y / mu,
                };
            }
            let s = acc / seasons.len() as f64;
            match mode {
                Seasonality::Multiplicative if s <= 0.0 => f64::EPSILON.max(1e-6),
                _ => s,
            }
        })
        .collect();
    let (a, b, g) = factors;
    let mut sq = 0.0;
    let states: Vec<(f64, f64)> = (m..series.len())
        .map(|t| {
            let (y, s) = (series[t], seasonal[t % m]);
            let (pred, new_level) = match mode {
                Seasonality::Additive => {
                    (level + trend + s, a * (y - s) + (1.0 - a) * (level + trend))
                }
                Seasonality::Multiplicative => (
                    (level + trend) * s,
                    a * (y / s) + (1.0 - a) * (level + trend),
                ),
            };
            sq += (y - pred) * (y - pred);
            trend = b * (new_level - level) + (1.0 - b) * trend;
            let denom = if new_level.abs() < 1e-12 {
                1e-12
            } else {
                new_level
            };
            seasonal[t % m] = match mode {
                Seasonality::Additive => g * (y - new_level) + (1.0 - g) * s,
                Seasonality::Multiplicative => g * (y / denom) + (1.0 - g) * s,
            };
            level = new_level;
            (sq, level)
        })
        .collect();
    let rmse = (states[states.len() - 1].0 / states.len() as f64).sqrt();
    let oracle = OracleHw::rmse_under(series, m, mode, factors).expect("two seasons");
    assert_eq!(
        bits(&[rmse]),
        bits(&[oracle]),
        "running sums of {factors:?}"
    );
    states
}

/// One (α, β) pair of the grid run in sequence: the cap its first γ meets
/// (the final sum of the best candidate before the pair, `+∞` before a
/// first is kept), and each γ's running sums and whether it is kept when
/// its turn comes.
struct Pair {
    cap0: f64,
    sums: [Vec<f64>; 5],
    kept: [bool; 5],
}

impl Pair {
    /// The step index at which each γ's running sum first passes `cap0`.
    fn passes(&self) -> [Option<usize>; 5] {
        std::array::from_fn(|k| self.sums[k].iter().position(|&sq| sq > self.cap0))
    }

    /// Whether the running sum the five γ share passes `cap` inside the
    /// first season (the first `m` steps): where the pair stops before its
    /// γ lanes when it meets `cap`.
    fn first_season_passes(&self, m: usize, cap: f64) -> bool {
        self.sums[0][..m].iter().any(|&sq| sq > cap)
    }
}

/// The grid in sequence, specified on the oracle's fits: the 25 pairs in
/// grid order and the winner's `(pair, γ lane)`.
fn sequential_grid(series: &[f64], m: usize, mode: Seasonality) -> (Vec<Pair>, (usize, usize)) {
    let n = (series.len() - m) as f64;
    let mut best: Option<(f64, f64, (usize, usize))> = None;
    let mut pairs = Vec::new();
    for (p, (a, b)) in GRID.iter().flat_map(|&a| GRID.map(|b| (a, b))).enumerate() {
        let cap0 = best.map_or(f64::INFINITY, |(_, sq, _)| sq);
        let sums = GRID.map(|g| running_sums(series, m, mode, (a, b, g)));
        let kept = std::array::from_fn(|k| {
            let sq = sums[k][sums[k].len() - 1];
            let r = (sq / n).sqrt();
            let keep = best.is_none_or(|(br, ..)| r < br);
            if keep {
                best = Some((r, sq, (p, k)));
            }
            keep
        });
        pairs.push(Pair { cap0, sums, kept });
    }
    (pairs, best.expect("the first candidate is kept").2)
}

/// Series for the lane tests to search: the seeded families, each `len`
/// samples long, that the multiplicative path can take.
fn lane_candidates(m: usize, len: usize) -> impl Iterator<Item = Vec<f64>> {
    (0..64u64).flat_map(move |seed| {
        let raw = draws(0x1A4E_0000 + seed, len);
        [0, 8].map(|shape| shaped(&raw, m, shape))
    })
}

/// Asserts `fit_grid` agrees with the oracle on `series` and keeps the
/// sequential grid's winner.
fn assert_lanes_refine(series: &[f64], m: usize, mode: Seasonality, (p, k): (usize, usize)) {
    assert_refines(series, m, mode);
    let fit = fit_grid(mode, m, series);
    assert_eq!(
        fit.factors,
        (GRID[p / 5], GRID[p % 5], GRID[k]),
        "m={m} {mode:?}"
    );
}

#[test]
fn lanes_pass_the_cap_at_different_steps_while_a_later_lane_wins() {
    // In the winner's pair, two or more lanes pass the pair's cap past the
    // shared first season at different steps, one of them ahead of the
    // winner in grid order: dead lanes keep stepping beside the winner, and
    // the pass runs on until the winner's end.
    for m in [2usize, 6, 24] {
        for mode in MODES {
            let found = lane_candidates(m, 8 * m).find_map(|series| {
                let (pairs, (p, k)) = sequential_grid(&series, m, mode);
                let passes = pairs[p].passes();
                let steps: Vec<usize> = passes.iter().flatten().copied().collect();
                let mid_pass = steps.iter().all(|&d| d >= m);
                let distinct = steps.iter().any(|&d| d != steps[0]);
                let ahead = passes[..k].iter().any(Option::is_some);
                (mid_pass && distinct && ahead).then_some((series, (p, k)))
            });
            let (series, winner) = found.unwrap_or_else(|| panic!("no series for m={m} {mode:?}"));
            assert_lanes_refine(&series, m, mode, winner);
        }
    }
}

#[test]
fn two_lanes_of_a_pair_are_kept_in_turn() {
    // γ = 0.1 beats every earlier pair and is kept, then a later γ of the
    // same pair beats it: the fit is the later lane's level, trend and
    // seasonal column, not the first kept lane's.
    for m in [2usize, 6, 24] {
        for mode in MODES {
            let found = lane_candidates(m, 8 * m).find_map(|series| {
                let (pairs, (p, k)) = sequential_grid(&series, m, mode);
                (k > 0 && pairs[p].kept[0] && p > 0).then_some((series, (p, k)))
            });
            let (series, winner) = found.unwrap_or_else(|| panic!("no series for m={m} {mode:?}"));
            assert_lanes_refine(&series, m, mode, winner);
        }
    }
}

#[test]
fn a_lane_turns_non_finite_beside_live_lanes() {
    // One spike of about 1e154 past the first season: its squared error is
    // just below `f64::MAX`, and whether the errors after it overflow the
    // running sum to +inf depends on γ. So in the winner's pair, run
    // uncapped, some lanes turn +inf mid-pass beside the live winner, and in
    // a later pair a lane turning +inf passes the finite cap mid-pass.
    for m in [2usize, 6, 24] {
        for mode in MODES {
            let non_finite_mid_pass =
                |sums: &Vec<f64>| sums[m - 1].is_finite() && !sums[sums.len() - 1].is_finite();
            let spiked = (2 * m..6 * m).flat_map(|at| {
                [4e153, 8e153, 1.2e154].map(|spike| {
                    let mut series = diurnal(6 * m, m, 40.0, 15.0);
                    series[at] = spike;
                    series
                })
            });
            let found = spiked.into_iter().find_map(|series| {
                let (pairs, (p, k)) = sequential_grid(&series, m, mode);
                let beside_winner = pairs[p].sums.iter().any(non_finite_mid_pass);
                let capped = pairs[1..].iter().any(|pair| {
                    let passes = pair.passes();
                    let mid_pass = |k: usize| passes[k].is_some_and(|d| d >= m);
                    (0..5).any(|k| mid_pass(k) && non_finite_mid_pass(&pair.sums[k]))
                });
                (beside_winner && capped).then_some((series, (p, k)))
            });
            let (series, winner) = found.unwrap_or_else(|| panic!("no series for m={m} {mode:?}"));
            assert_lanes_refine(&series, m, mode, winner);
        }
    }
}

// ---------------------------------------------------------------------------
// Refinement: the five β lanes of an α group's first season against the grid
// in sequence
// ---------------------------------------------------------------------------

/// The seasons the β-lane tests sweep, an odd one among them.
const SEASONS: [usize; 4] = [2, 3, 6, 24];

/// [`lane_candidates`] at every length from two to three seasons, where the
/// first season is most of each sum and a cap can stop it.
fn short_lane_candidates(m: usize) -> impl Iterator<Item = Vec<f64>> {
    (2 * m + 1..=3 * m).flat_map(move |len| lane_candidates(m, len))
}

/// Searches `candidates` for a series on which `wanted` holds of the
/// sequential grid's 25 pairs in grid order, and checks `fit_grid` on it.
fn assert_lanes_refine_where(
    m: usize,
    mode: Seasonality,
    candidates: impl Iterator<Item = Vec<f64>>,
    wanted: impl Fn(&[Pair]) -> bool,
) {
    let mut candidates = candidates;
    let found = candidates.find_map(|series| {
        let (pairs, winner) = sequential_grid(&series, m, mode);
        wanted(&pairs).then_some((series, winner))
    });
    let (series, winner) = found.unwrap_or_else(|| panic!("no series for m={m} {mode:?}"));
    assert_lanes_refine(&series, m, mode, winner);
}

#[test]
fn beta_lanes_die_under_the_alpha_cap_beside_live_ones() {
    // In an α group, the cap in force when the group starts stops some of
    // its five β inside the first season and not others, which run on to
    // their γ lanes.
    for m in SEASONS {
        for mode in MODES {
            assert_lanes_refine_where(m, mode, short_lane_candidates(m), |pairs| {
                pairs.chunks(5).any(|group| {
                    let cap = group[0].cap0;
                    let dead = group.iter().filter(|p| p.first_season_passes(m, cap));
                    (1..5).contains(&dead.count())
                })
            });
        }
    }
}

#[test]
fn a_beta_lane_passes_its_pairs_cap_but_not_the_alpha_cap() {
    // A β kept earlier in its α group tightens the cap, and a later β's
    // first season stays under the group's opening cap but passes the
    // tighter one: the check before its γ lanes must drop it.
    for m in SEASONS {
        for mode in MODES {
            assert_lanes_refine_where(m, mode, short_lane_candidates(m), |pairs| {
                pairs.chunks(5).any(|group| {
                    group.iter().any(|p| {
                        !p.first_season_passes(m, group[0].cap0) && p.first_season_passes(m, p.cap0)
                    })
                })
            });
        }
    }
}

#[test]
fn beta_lanes_refine_on_non_finite_first_season_sums() {
    // +∞: a spike and its negative in the first season, of a size whose
    // square sits just under `f64::MAX`. The second error grows with the
    // trend the first spike leaves, so whether a lane's first-season sum
    // overflows depends on β within one α group. NaN: a NaN sample in the
    // first season turns every lane NaN; the first candidate is kept on a
    // NaN sum, and the NaN cap stops nothing afterwards.
    for m in SEASONS {
        for mode in MODES {
            let spiked = (0..m - 1).flat_map(|at| {
                (30..=90).step_by(5).map(move |tenths| {
                    let spike = tenths as f64 * 1e152;
                    let mut series = diurnal(4 * m, m, 10.0, 3.0);
                    (series[m + at], series[m + at + 1]) = (spike, -spike);
                    series
                })
            });
            assert_lanes_refine_where(m, mode, spiked, |pairs| {
                pairs.chunks(5).any(|group| {
                    let last = |p: &Pair| p.sums[0][m - 1];
                    group.iter().any(|p| last(p) == f64::INFINITY)
                        && group.iter().any(|p| last(p).is_finite())
                })
            });
        }
        for at in m..2 * m {
            let mut series = diurnal(3 * m, m, 40.0, 15.0);
            series[at] = f64::NAN;
            assert_refines_and_predicts(&series, m);
            for mode in MODES {
                let fit = fit_grid(mode, m, &series);
                assert!(fit.rmse.is_nan(), "m={m} {mode:?} at {at}");
            }
        }
    }
}

#[test]
fn beta_lanes_refine_through_the_level_clamp() {
    // Multiplicative blend inputs divide by the new level, clamped to 1e-12
    // when smaller. On a positive series of levels around 1e-12, the five
    // β lanes of an α group hold different levels in the first season, and
    // at some step some of them fall inside the clamp while others do not.
    let mode = Seasonality::Multiplicative;
    for m in SEASONS {
        let found = (0..64u64).find_map(|seed| {
            let raw = draws(0xC1A4_0000 + seed, 3 * m);
            let series: Vec<f64> = raw.iter().map(|r| 1e-12 * (1.0 + 0.9 * r)).collect();
            let split = GRID.iter().any(|&a| {
                let levels = GRID.map(|b| running_states(&series, m, mode, (a, b, 0.1)));
                (0..m).any(|t| {
                    let clamped = levels.iter().filter(|l| l[t].1.abs() < 1e-12).count();
                    (1..5).contains(&clamped)
                })
            });
            split.then_some(series)
        });
        let series = found.unwrap_or_else(|| panic!("no series for m={m}"));
        assert_refines_and_predicts(&series, m);
    }
}

#[test]
fn beta_lanes_refine_on_every_short_history() {
    // Every length from two to three seasons, every family, both modes,
    // against the oracle bit for bit.
    for (k, m) in SEASONS.into_iter().enumerate() {
        let raw = draws(0xBE7A_0000 + k as u64, 3 * m);
        for len in 2 * m..=3 * m {
            for shape in 0..SHAPES {
                assert_refines_and_predicts(&shaped(&raw[..len], m, shape), m);
            }
        }
    }
}

#[test]
fn a_huge_season_never_panics() {
    // `2 * season` overflows here: the season must read as "longer than
    // the history", not wrap to a short one.
    let series = [1.0; 10];
    for season in [usize::MAX / 2 + 1, usize::MAX] {
        let p = predict_next(&series, season, 0.05);
        assert!(
            p.value.is_finite() && p.sigma.is_finite(),
            "{season}: {p:?}"
        );
        assert_eq!(p, predict_next(&series, 11, 0.05), "the short-history path");
    }
}

// ---------------------------------------------------------------------------
// Hostile input (ROADMAP aim 3)
// ---------------------------------------------------------------------------

#[test]
fn predict_next_is_total() {
    // No series, season or `min_sigma` panics; λ̂ is never negative or NaN;
    // σ̂ is in (0, 1]; and for a valid `min_sigma` the answer is the
    // oracle's, bit for bit.
    let m = 6;
    let day = diurnal(2 * m + 3, m, 40.0, 15.0);
    let poisoned = |at: usize, v: f64| {
        let mut s = day.clone();
        s[at] = v;
        s
    };
    let series = [
        vec![],
        vec![-5.0],
        vec![f64::NAN],
        poisoned(m + 1, f64::NAN),
        poisoned(2 * m + 1, f64::INFINITY),
        poisoned(0, f64::NEG_INFINITY),
        vec![0.0; 2 * m + 3],
        day.clone(),
    ];
    let min_sigmas = [f64::NAN, -1.0, 0.0, 1e-300, 0.05, 1.0, 2.0, f64::INFINITY];
    for s in &series {
        for season in [0, 1, 2, m, usize::MAX] {
            for min_sigma in min_sigmas {
                let what = format!("{s:?} season {season} min_sigma {min_sigma}");
                let p = predict_next(s, season, min_sigma);
                assert!(p.value >= 0.0, "{what}: {p:?}");
                assert!(p.sigma > 0.0 && p.sigma <= 1.0, "{what}: {p:?}");
                if min_sigma > 0.0 && min_sigma <= 1.0 {
                    let o = oracle_predict_next(s, season, min_sigma);
                    assert_eq!(
                        bits(&[p.value, p.sigma]),
                        bits(&[o.value, o.sigma]),
                        "{what}"
                    );
                }
            }
        }
    }
}

#[test]
fn hostile_series_never_panic_and_answer_as_before() {
    let len = 48usize;
    let base = diurnal(len, 6, 40.0, 15.0);
    let poisoned = |at: usize, v: f64| {
        let mut s = base.clone();
        s[at] = v;
        s
    };
    let mut spike = vec![0.0; len];
    spike[len / 2] = 1e9;
    let hostile: Vec<(&str, Vec<f64>)> = vec![
        ("nan-first", poisoned(0, f64::NAN)),
        ("nan-mid", poisoned(len / 2, f64::NAN)),
        ("nan-last", poisoned(len - 1, f64::NAN)),
        ("inf", poisoned(7, f64::INFINITY)),
        ("neg-inf", poisoned(20, f64::NEG_INFINITY)),
        ("all-nan", vec![f64::NAN; len]),
        ("all-zero", vec![0.0; len]),
        ("single-spike", spike),
        ("huge", vec![f64::MAX; len]),
    ];
    for (name, series) in &hostile {
        for season in [0, 1, 2, 6, len / 2, len] {
            let p = predict_next(series, season, 0.05);
            let o = oracle_predict_next(series, season, 0.05);
            assert_eq!(
                bits(&[p.value, p.sigma]),
                bits(&[o.value, o.sigma]),
                "{name} season {season}"
            );
            assert!(p.sigma > 0.0 && p.sigma <= 1.0, "{name}: σ̂ = {}", p.sigma);
            if series.iter().any(|v| !v.is_finite()) {
                assert_eq!(p.sigma, 1.0, "{name} season {season}");
            }
            if season < 2 || len / 2 < season {
                continue; // the grid runs on two seasons of `m ≥ 2` or more
            }
            for mode in MODES {
                assert_refines(series, season, mode);
            }
        }
    }
    let p = predict_next(&vec![0.0; len], 6, 0.05);
    assert_eq!((p.value, p.sigma), (0.0, 0.05));
}

#[test]
fn grid_never_lets_a_nan_rmse_displace_a_finite_one() {
    // Period 2, even positions silent for 210 seasons and then one 1e100
    // burst: the silent position's multiplicative index decays like
    // (1 - gamma)^210, so the burst divided by it stays finite for gamma <=
    // 0.3, overflows the squared error to +inf at 0.5 and 0.7, and overflows
    // the level itself at 0.9, where inf - inf leaves a NaN RMSE. Every
    // (alpha, beta) block therefore ends on a NaN candidate that follows
    // finite ones; `r < best` must skip it. (The candidates are enumerated
    // on the oracle, the specification of a single fit.)
    let series: Vec<f64> = (0..424)
        .map(|t| match t {
            420 => 1e100,
            t if t % 2 == 1 => 10.0,
            _ => 0.0,
        })
        .collect();
    let mode = Seasonality::Multiplicative;
    let grid = [0.1, 0.3, 0.5, 0.7, 0.9];
    let (mut finite, mut nan) = (Vec::new(), 0);
    for a in grid {
        for b in grid {
            for g in grid {
                match OracleHw::rmse_under(&series, 2, mode, (a, b, g)) {
                    Some(r) if r.is_nan() => nan += 1,
                    Some(r) if r.is_finite() => finite.push(r),
                    _ => {}
                }
            }
        }
    }
    assert_eq!(nan, 25, "every gamma = 0.9 candidate must blow up");
    assert!(!finite.is_empty());

    let fit = fit_grid(mode, 2, &series);
    let mut oracle = OracleHw::new(2, mode);
    oracle.fit_grid(&series);
    assert_same_model(&fit, &oracle, series.len(), "nan candidates");
    let best = finite.iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(fit.rmse, best);
}
