//! Tests for the forecasting family.

use crate::holt::Holt;
use crate::holt_winters::{HoltWinters, Seasonality};
use crate::ses::Ses;
use crate::uncertainty::sigma_from_rmse;
use crate::{predict_next, Forecaster, Prediction};
use proptest::prelude::*;

const TAU: f64 = std::f64::consts::TAU;

fn diurnal(n: usize, period: usize, mean: f64, amp: f64) -> Vec<f64> {
    (0..n)
        .map(|t| mean + amp * (TAU * (t % period) as f64 / period as f64).sin())
        .collect()
}

#[test]
fn ses_constant_series() {
    let mut s = Ses::default();
    s.fit(&[7.0; 20]);
    assert!((s.forecast(3).unwrap()[2] - 7.0).abs() < 1e-9);
    assert!(s.fit_rmse().unwrap() < 1e-9);
}

#[test]
fn ses_converges_toward_recent_level() {
    let mut series = vec![0.0; 30];
    series.extend(vec![10.0; 30]);
    let mut s = Ses::new(0.5);
    s.fit(&series);
    assert!(
        s.forecast(1).unwrap()[0] > 9.5,
        "SES should track the regime change"
    );
}

#[test]
fn ses_empty_and_single() {
    let mut s = Ses::default();
    s.fit(&[]);
    assert!(s.level().is_none());
    assert!(s.forecast(1).is_none());
    s.fit(&[3.0]);
    assert_eq!(s.forecast(2).unwrap(), vec![3.0, 3.0]);
    assert!(s.fit_rmse().is_none());
}

#[test]
#[should_panic(expected = "alpha")]
fn ses_rejects_bad_alpha() {
    Ses::new(0.0);
}

#[test]
fn holt_tracks_linear_trend() {
    let series: Vec<f64> = (0..40).map(|t| 2.0 + 0.5 * t as f64).collect();
    let mut h = Holt::default();
    h.fit(&series);
    let f = h.forecast(4).unwrap();
    // Next values continue the line: 2 + 0.5·40 = 22, then 22.5, …
    for (i, v) in f.iter().enumerate() {
        let expect = 2.0 + 0.5 * (40 + i) as f64;
        assert!((v - expect).abs() < 0.5, "h={i}: {v} vs {expect}");
    }
}

#[test]
fn holt_single_point() {
    let mut h = Holt::default();
    h.fit(&[4.0]);
    assert_eq!(h.forecast(2).unwrap(), vec![4.0, 4.0]);
}

#[test]
fn hw_multiplicative_learns_seasonality() {
    let series = diurnal(24 * 6, 24, 100.0, 40.0);
    let mut hw = HoltWinters::new(24, Seasonality::Multiplicative);
    hw.fit(&series);
    let f = hw.forecast(24).unwrap();
    // The forecast of the next full period should match the true cycle.
    for (h, v) in f.iter().enumerate() {
        let truth = 100.0 + 40.0 * (TAU * ((24 * 6 + h) % 24) as f64 / 24.0).sin();
        assert!((v - truth).abs() < 12.0, "h={h}: {v} vs {truth}");
    }
    // And the fit error should be far below the seasonal amplitude.
    assert!(hw.fit_rmse().unwrap() < 10.0);
}

#[test]
fn hw_additive_learns_seasonality_with_negatives() {
    let series = diurnal(12 * 8, 12, 0.0, 5.0); // oscillates around zero
    let mut hw = HoltWinters::new(12, Seasonality::Additive);
    hw.fit(&series);
    let f = hw.forecast(12).unwrap();
    for (h, v) in f.iter().enumerate() {
        let truth = 5.0 * (TAU * ((12 * 8 + h) % 12) as f64 / 12.0).sin();
        assert!((v - truth).abs() < 2.5, "h={h}: {v} vs {truth}");
    }
}

#[test]
fn hw_beats_holt_on_seasonal_data() {
    let series = diurnal(24 * 5, 24, 50.0, 20.0);
    let (train, test) = series.split_at(24 * 4);
    let mut hw = HoltWinters::new(24, Seasonality::Multiplicative);
    hw.fit(train);
    let mut h = Holt::default();
    h.fit(train);
    let err = |f: &[f64]| -> f64 {
        f.iter()
            .zip(test)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    };
    let hw_err = err(&hw.forecast(24).unwrap());
    let holt_err = err(&h.forecast(24).unwrap());
    assert!(
        hw_err < holt_err,
        "Holt-Winters ({hw_err:.2}) should beat Holt ({holt_err:.2}) on seasonal data"
    );
}

#[test]
fn hw_grid_search_not_worse_than_default() {
    let series = diurnal(24 * 5, 24, 80.0, 30.0);
    let mut default_hw = HoltWinters::new(24, Seasonality::Multiplicative);
    default_hw.fit(&series);
    let mut tuned = HoltWinters::new(24, Seasonality::Multiplicative);
    tuned.fit_grid(&series);
    assert!(tuned.fit_rmse().unwrap() <= default_hw.fit_rmse().unwrap() + 1e-9);
}

#[test]
fn hw_short_history_falls_back() {
    let mut hw = HoltWinters::new(24, Seasonality::Multiplicative);
    hw.fit(&[5.0, 6.0, 7.0]); // < 2 seasons
    let f = hw.forecast(2).unwrap();
    assert!(
        f[0] > 6.0,
        "fallback should extrapolate the trend, got {}",
        f[0]
    );
}

#[test]
fn hw_seasonal_indices_multiplicative_centered_near_one() {
    let series = diurnal(24 * 4, 24, 100.0, 30.0);
    let mut hw = HoltWinters::new(24, Seasonality::Multiplicative);
    hw.fit(&series);
    let idx = hw.seasonal_indices().unwrap();
    let mean: f64 = idx.iter().sum::<f64>() / idx.len() as f64;
    assert!((mean - 1.0).abs() < 0.1, "indices mean {mean}");
}

#[test]
#[should_panic(expected = "seasonal period")]
fn hw_rejects_tiny_season() {
    HoltWinters::new(1, Seasonality::Additive);
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

    /// SES level always lies within the series' range.
    #[test]
    fn prop_ses_level_within_range(
        values in proptest::collection::vec(-50.0f64..50.0, 2..60),
        alpha in 0.05f64..1.0,
    ) {
        let mut s = Ses::new(alpha);
        s.fit(&values);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let level = s.level().unwrap();
        prop_assert!(level >= lo - 1e-9 && level <= hi + 1e-9);
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
        let mut hw = HoltWinters::new(season, Seasonality::Multiplicative);
        hw.fit(&series);
        let f = hw.forecast(1).unwrap()[0];
        let truth = mean + amp * (TAU * ((season * 8) % season) as f64 / season as f64).sin();
        prop_assert!((f - truth).abs() < mean * 0.25,
            "forecast {f} too far from truth {truth}");
    }
}

// ---------------------------------------------------------------------------
// Additional edge cases
// ---------------------------------------------------------------------------

#[test]
fn hw_handles_constant_series() {
    let mut hw = HoltWinters::new(6, Seasonality::Multiplicative);
    hw.fit(&[10.0; 36]);
    let f = hw.forecast(6).unwrap();
    for v in f {
        assert!((v - 10.0).abs() < 1e-6);
    }
    assert!(hw.fit_rmse().unwrap() < 1e-9);
}

#[test]
fn hw_additive_handles_zero_heavy_series() {
    // Many zeros would break the multiplicative form; additive must cope.
    let series: Vec<f64> = (0..48)
        .map(|t| if t % 12 < 6 { 0.0 } else { 5.0 })
        .collect();
    let mut hw = HoltWinters::new(12, Seasonality::Additive);
    hw.fit(&series);
    let f = hw.forecast(12).unwrap();
    assert!(f.iter().all(|v| v.is_finite()));
    // The square wave should be roughly reproduced.
    assert!(f[2] < f[8], "quiet half must forecast below busy half");
}

#[test]
fn hw_with_params_applies() {
    let series = diurnal(48, 12, 50.0, 10.0);
    let hw = HoltWinters::new(12, Seasonality::Multiplicative).with_params(0.9, 0.9, 0.9);
    assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.9, 0.9, 0.9));
    let mut hw = hw;
    hw.fit(&series);
    assert!(hw.fit_rmse().is_some());
}

#[test]
#[should_panic(expected = "alpha")]
fn hw_with_params_validates() {
    HoltWinters::new(12, Seasonality::Additive).with_params(1.5, 0.5, 0.5);
}

#[test]
fn holt_downtrend_extrapolates_below_last() {
    let series: Vec<f64> = (0..30).map(|t| 100.0 - 2.0 * t as f64).collect();
    let mut h = Holt::default();
    h.fit(&series);
    let f = h.forecast(3).unwrap();
    assert!(f[0] < series[29]);
    assert!(f[2] < f[0], "trend continues downward");
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

#[test]
fn forecast_before_fit_returns_none() {
    // Regression: these used to panic on `.expect("fit before forecast")`,
    // taking down an orchestrator epoch on a not-yet-warmed monitor stream.
    assert!(Ses::default().forecast(3).is_none());
    assert!(Holt::default().forecast(3).is_none());
    assert!(HoltWinters::new(12, Seasonality::Multiplicative)
        .forecast(3)
        .is_none());
    // Fitting on an empty series clears state rather than fabricating one.
    let mut h = Holt::default();
    h.fit(&[1.0, 2.0]);
    h.fit(&[]);
    assert!(h.forecast(1).is_none());
    let mut hw = HoltWinters::new(4, Seasonality::Additive);
    hw.fit(&[]);
    assert!(hw.forecast(1).is_none());
}

#[test]
fn forecaster_trait_objects_work() {
    // The orchestrator can swap methods through the trait.
    let series = diurnal(48, 12, 50.0, 10.0);
    let mut methods: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Ses::default()),
        Box::new(Holt::default()),
        Box::new(HoltWinters::new(12, Seasonality::Multiplicative)),
    ];
    for m in methods.iter_mut() {
        m.fit(&series);
        let f = m.forecast(4).unwrap();
        assert_eq!(f.len(), 4);
        assert!(f.iter().all(|v| v.is_finite()));
    }
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
            let mut h = Holt::default();
            h.fit(series);
            if let Some((level, trend)) = h.state() {
                let neutral = match self.mode {
                    Seasonality::Additive => 0.0,
                    Seasonality::Multiplicative => 1.0,
                };
                self.state = Some((level, trend, vec![neutral; m], series.len() % m));
                self.rmse = h.fit_rmse();
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

/// `predict_next` as shipped, over the oracle grid.
fn oracle_predict_next(series: &[f64], season: usize, min_sigma: f64) -> Prediction {
    if series.len() < 2 || season < 2 || series.len() < 2 * season {
        // Below the Holt-Winters threshold no grid runs: nothing to refine.
        return predict_next(series, season, min_sigma);
    }
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
    let (value, rmse) = match hw.forecast(1) {
        Some(f) => (f[0], hw.rmse),
        None => (series[series.len() - 1], None),
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

/// Asserts the shipped model and the oracle agree bit for bit on everything
/// a caller can observe.
fn assert_same_model(hw: &HoltWinters, oracle: &OracleHw, what: &str) {
    assert_eq!(
        bits(&[hw.alpha, hw.beta, hw.gamma]),
        bits(&[oracle.alpha, oracle.beta, oracle.gamma]),
        "{what}: factors"
    );
    assert_eq!(
        hw.fit_rmse().map(|r| bits(&[r])),
        oracle.rmse.map(|r| bits(&[r])),
        "{what}: rmse"
    );
    assert_eq!(
        hw.forecast(3).map(|f| bits(&f)),
        oracle.forecast(3).map(|f| bits(&f)),
        "{what}: forecast"
    );
    assert_eq!(
        hw.seasonal_indices().map(bits),
        oracle.state.as_ref().map(|(_, _, s, _)| bits(s)),
        "{what}: seasonal indices"
    );
}

/// Fits and grid-fits both forms on `series` under `mode` and compares them.
fn assert_refines(series: &[f64], season: usize, mode: Seasonality) {
    let what = format!("m={season} len={} {mode:?}", series.len());
    let mut hw = HoltWinters::new(season, mode);
    let mut oracle = OracleHw::new(season, mode);
    hw.fit(series);
    oracle.fit(series);
    assert_same_model(&hw, &oracle, &format!("fit {what}"));
    hw.fit_grid(series);
    oracle.fit_grid(series);
    assert_same_model(&hw, &oracle, &format!("fit_grid {what}"));
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

    /// `fit` and `fit_grid` from the shared initialisation equal the
    /// clone-and-refit grid bit for bit, in both modes, whatever the series.
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
        for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
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
            for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
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
            for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
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
    let mut hw = HoltWinters::new(6, Seasonality::Multiplicative);
    hw.fit_grid(&series);
    assert_eq!(
        hw.alpha, 0.9,
        "winner ({}, {}, {})",
        hw.alpha, hw.beta, hw.gamma
    );
    let mut oracle = OracleHw::new(6, Seasonality::Multiplicative);
    oracle.fit_grid(&series);
    assert_same_model(&hw, &oracle, "late winner");

    // Exact ties at RMSE 0: the first candidate stands, in both modes.
    for series in [[7.5; 36], [0.0; 36]] {
        for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
            let mut hw = HoltWinters::new(6, mode);
            hw.fit_grid(&series);
            assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.1, 0.1, 0.1), "{mode:?}");
            assert_eq!(hw.fit_rmse(), Some(0.0));
            assert_refines(&series, 6, mode);
        }
    }
}

#[test]
fn pruning_skips_pinned_smoothing_work() {
    // A fixed seeded set: every family, both modes, three seasons. The
    // unpruned grid runs 125 candidates and one refit over the whole
    // history; the count of steps the pruned one executes is pinned, and
    // moves only with a change that means to move it. A shared first
    // season counts its steps once per (α, β) pair, and a blend is not a
    // step.
    use crate::holt_winters::step_count;
    let (mut unpruned, mut pruned) = (0u64, 0u64);
    for (k, season) in [2usize, 6, 24].into_iter().enumerate() {
        let raw = draws(0xC0FF_EE00 + k as u64, 8 * season);
        for shape in 0..SHAPES {
            let series = shaped(&raw, season, shape);
            for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
                let before = step_count::total();
                HoltWinters::new(season, mode).fit_grid(&series);
                pruned += step_count::total() - before;
                unpruned += 126 * (series.len() - season) as u64;
            }
        }
    }
    assert!(pruned < unpruned, "{pruned} of {unpruned}");
    assert_eq!((pruned, unpruned), (299_040, 508_032));
}

#[test]
fn shared_season_skips_pinned_work_on_short_histories() {
    // Two to three seasons, every family, both modes: the histories where
    // the first season is most of the work, and where a slow pair's first
    // season alone can cost more than the best full fit.
    use crate::holt_winters::step_count;
    let (mut unpruned, mut pruned) = (0u64, 0u64);
    for (k, season) in [2usize, 6, 24].into_iter().enumerate() {
        let raw = draws(0x5407_0000 + k as u64, 3 * season);
        for len in 2 * season..=3 * season {
            for shape in 0..SHAPES {
                let series = shaped(&raw[..len], season, shape);
                for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
                    let before = step_count::total();
                    HoltWinters::new(season, mode).fit_grid(&series);
                    pruned += step_count::total() - before;
                    unpruned += 126 * (len - season) as u64;
                }
            }
        }
    }
    assert_eq!((pruned, unpruned), (699_584, 2_204_496));
}

/// Grid-fits `series` under `mode` against the oracle, and `predict_next`
/// against the oracle's.
fn assert_refines_and_predicts(series: &[f64], season: usize) {
    for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
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
                    for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
                        let mut hw = HoltWinters::new(season, mode);
                        hw.fit_grid(series);
                        assert_eq!(hw.gamma, 0.1, "m={season} {mode:?}");
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
    for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
        let mut hw = HoltWinters::new(6, mode);
        hw.fit_grid(&series);
        assert!(hw.fit_rmse().is_some_and(f64::is_nan), "{mode:?}");
        assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.1, 0.1, 0.1), "{mode:?}");
    }

    // Factor-dependent overflow: a first season of 7e153 spikes squares to
    // just under `f64::MAX`, so the running sum overflows to +inf inside
    // the first season for the fastest-tracking pairs only. Those come last
    // in grid order: their shared season runs under a finite cap and is
    // abandoned at the overflow.
    let (season, mode) = (6, Seasonality::Multiplicative);
    let mut series = diurnal(4 * season, season, 10.0, 3.0);
    for pos in (season..2 * season).step_by(2) {
        series[pos] = 7e153;
    }
    let first_finite = grid
        .iter()
        .flat_map(|&a| grid.iter().flat_map(move |&b| grid.map(|g| (a, b, g))))
        .position(|(a, b, g)| {
            let mut hw = HoltWinters::new(season, mode).with_params(a, b, g);
            hw.fit(&series);
            hw.fit_rmse().is_some_and(f64::is_finite)
        });
    let overflowing: Vec<usize> = (0..25)
        .filter(|&pair| {
            let (a, b) = (grid[pair / 5], grid[pair % 5]);
            let mut hw = HoltWinters::new(season, mode).with_params(a, b, 0.1);
            hw.fit(&series[..2 * season]); // the first season's sum alone
            hw.fit_rmse() == Some(f64::INFINITY)
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
        for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
            let mut hw = HoltWinters::new(season, mode).with_params(0.6, 0.2, 0.8);
            hw.fit(&series);
            assert!(hw.forecast(1).is_none(), "{season} {mode:?}");
            assert!(hw.fit_rmse().is_none() && hw.seasonal_indices().is_none());
            hw.fit_grid(&series);
            assert!(hw.forecast(1).is_none(), "{season} {mode:?}");
            assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.6, 0.2, 0.8));
        }
    }
}

#[test]
fn hw_grid_on_short_history_fits_once_and_keeps_the_tie_break() {
    // Below two seasons the Holt fallback ignores the factors, so all 125
    // candidates tie and the first one wins.
    let mut hw = HoltWinters::new(24, Seasonality::Multiplicative);
    let mut oracle = OracleHw::new(24, Seasonality::Multiplicative);
    let series = [5.0, 6.0, 7.0, 9.0];
    hw.fit_grid(&series);
    oracle.fit_grid(&series);
    assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.1, 0.1, 0.1));
    assert_same_model(&hw, &oracle, "short history");
    assert!(hw.fit_rmse().is_some());

    // No RMSE (a single point, an empty series): the factors stay untouched.
    for series in [&[3.0][..], &[]] {
        let mut hw = HoltWinters::new(24, Seasonality::Additive).with_params(0.6, 0.2, 0.8);
        let mut oracle = OracleHw::new(24, Seasonality::Additive);
        (oracle.alpha, oracle.beta, oracle.gamma) = (0.6, 0.2, 0.8);
        hw.fit_grid(series);
        oracle.fit_grid(series);
        assert_eq!((hw.alpha, hw.beta, hw.gamma), (0.6, 0.2, 0.8));
        assert!(hw.fit_rmse().is_none());
        assert_same_model(&hw, &oracle, "no rmse");
    }
}

// ---------------------------------------------------------------------------
// Hostile input (ROADMAP aim 3)
// ---------------------------------------------------------------------------

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
            if season < 2 {
                continue; // `HoltWinters::new` rejects these by contract.
            }
            for mode in [Seasonality::Additive, Seasonality::Multiplicative] {
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
    // finite ones; `r < best` must skip it.
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
                let mut cand = HoltWinters::new(2, mode).with_params(a, b, g);
                cand.fit(&series);
                match cand.fit_rmse() {
                    Some(r) if r.is_nan() => nan += 1,
                    Some(r) if r.is_finite() => finite.push(r),
                    _ => {}
                }
            }
        }
    }
    assert_eq!(nan, 25, "every gamma = 0.9 candidate must blow up");
    assert!(!finite.is_empty());

    let mut hw = HoltWinters::new(2, mode);
    let mut oracle = OracleHw::new(2, mode);
    hw.fit_grid(&series);
    oracle.fit_grid(&series);
    assert_same_model(&hw, &oracle, "nan candidates");
    let best = finite.iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(hw.fit_rmse(), Some(best));
}
