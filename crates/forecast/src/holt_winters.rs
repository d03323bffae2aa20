//! Holt-Winters triple exponential smoothing (level + trend + seasonality).
//!
//! The paper's forecasting block uses the **multiplicative** variant
//! (`f_HW` in §2.2.2) because mobile traffic exhibits periodic (diurnal)
//! patterns whose amplitude scales with the level. The additive variant is
//! provided for non-positive series and ablations.
//!
//! Multiplicative update, seasonal period `m`:
//!
//! ```text
//! ℓ_t = α·y_t/s_{t−m} + (1−α)(ℓ_{t−1} + b_{t−1})
//! b_t = β(ℓ_t − ℓ_{t−1}) + (1−β)·b_{t−1}
//! s_t = γ·y_t/ℓ_t + (1−γ)·s_{t−m}
//! ŷ_{t+h} = (ℓ_t + h·b_t)·s_{t−m+((h−1) mod m)+1}
//! ```
//!
//! Initialisation follows the classic scheme: the first season's mean seeds
//! the level, the first-vs-second season mean difference seeds the trend, and
//! per-position averages over complete seasons seed the seasonal indices.

use crate::Forecaster;
use std::cmp::Ordering;

/// Seasonal composition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seasonality {
    /// Seasonal effect added to the level (works with any sign).
    Additive,
    /// Seasonal effect multiplies the level (requires positive data).
    Multiplicative,
}

/// Holt-Winters smoother with fixed parameters.
#[derive(Debug, Clone)]
pub struct HoltWinters {
    /// Seasonal period in samples (≥ 2).
    pub season: usize,
    /// Seasonal mode.
    pub mode: Seasonality,
    /// Level smoothing factor in `(0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor in `(0, 1]`.
    pub beta: f64,
    /// Seasonal smoothing factor in `(0, 1]`.
    pub gamma: f64,
    state: Option<State>,
    rmse: Option<f64>,
}

#[derive(Debug, Clone)]
struct State {
    level: f64,
    trend: f64,
    /// Seasonal indices for the last `season` positions, aligned so that
    /// `seasonal[(t+h−1) % season]`... we store by absolute position modulo
    /// the period of the *end* of the series.
    seasonal: Vec<f64>,
    /// Index (mod season) of the sample following the series end.
    next_pos: usize,
}

impl HoltWinters {
    /// Creates a smoother with conventional factors (α=0.4, β=0.1, γ=0.3).
    ///
    /// # Panics
    /// Panics if `season < 2`.
    pub fn new(season: usize, mode: Seasonality) -> Self {
        assert!(season >= 2, "seasonal period must be at least 2");
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

    /// Sets the smoothing factors.
    ///
    /// # Panics
    /// Panics unless all three are in `(0, 1]`.
    pub fn with_params(mut self, alpha: f64, beta: f64, gamma: f64) -> Self {
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            assert!(v > 0.0 && v <= 1.0, "{name} must be in (0, 1]");
        }
        self.alpha = alpha;
        self.beta = beta;
        self.gamma = gamma;
        self
    }

    /// Fits with a coarse grid search over (α, β, γ) minimising one-step
    /// RMSE, then keeps the best parameters. This mirrors how operators tune
    /// the paper's forecasting block offline.
    ///
    /// The 125 candidates share everything that does not depend on the
    /// factors: `init` (season means, level and trend seeds, the seasonal-index
    /// table) runs once, each (α, β) pair runs the first season once (below),
    /// and each candidate continues with one `smooth` pass over a single
    /// seasonal buffer primed from the pair's first season. A candidate owns
    /// only its running level, trend and error sum. A last pass under the
    /// winning factors leaves the fitted state, so the outcome is
    /// bit-for-bit that of 125 independent [`fit`](Forecaster::fit) calls
    /// followed by a refit (ties keep the earlier candidate; a NaN RMSE never
    /// displaces a finite one).
    ///
    /// **Pruning.** A candidate stops smoothing as soon as its running
    /// squared-error sum exceeds the final sum of the best candidate so far
    /// (no cap until a first candidate is kept). This is exact — it skips
    /// only candidates that could never be selected:
    ///
    /// * each term `err * err` is ≥ 0 or NaN;
    /// * round-to-nearest addition is monotone, so once a partial sum is
    ///   above the best's final sum the candidate's final sum is too, and
    ///   its RMSE `sqrt(sq / n)` is ≥ the best's: it could never pass the
    ///   strict `r < best` test;
    /// * a NaN partial sum never compares greater, so a NaN candidate runs
    ///   to the end exactly as without pruning (and is then not kept);
    /// * a `+∞` sum is abandoned once a finite best exists, which it could
    ///   never have displaced.
    ///
    /// The grid order, the shared `init`, the final refit and every
    /// floating-point operation of the candidates that do run are those of
    /// the unpruned grid, so factors, forecast, RMSE and seasonal indices
    /// are unchanged bit for bit. What pruning changes is only how much of
    /// the history a losing candidate reads; the winner and the refit still
    /// read all of it, so a fit stays linear in the history.
    ///
    /// **Shared first season.** During the first season, `t ∈ [m, 2m)`,
    /// step `t` reads the `init` index `seasonal0[t − m]`, and the index it
    /// writes under γ is first read again at `t + m ≥ 2m`. So the five γ of
    /// an (α, β) pair reach `2m` with the same level, trend and error sum,
    /// computed by the same operations. Each pair runs those `m` steps once
    /// (`first_season`), under the cap `cap0` in force when the pair
    /// starts — the loosest any of its γ runs under, since the cap only
    /// tightens (or is NaN, which caps nothing, for good). A sum past `cap0`
    /// abandons all five γ. Otherwise each γ in grid order blends its
    /// first-season indices `γ·q + (1 − γ)·seasonal0` from the step's blend
    /// input `q` — the recursion's own expression on the same operands —
    /// and continues `smooth` from `t = 2m` under the cap now in force. No
    /// γ needs the shared sum re-checked against that cap: the cap moved
    /// since `cap0` only if an earlier γ of the pair was kept, and that γ's
    /// full sum is at least the shared one. On a history of `2m + k`
    /// samples the grid runs at most `25·m + 125·k` full steps and `125·m`
    /// blends, where it ran `125·(m + k)` steps: at `m = 6`, about a fifth
    /// of the steps on 12 samples, and 97 % on 200.
    ///
    /// On a history shorter than two seasons the Holt fallback ignores the
    /// factors, so one fit stands for all candidates: the factors become the
    /// first grid point when an RMSE exists and stay untouched otherwise.
    pub fn fit_grid(&mut self, series: &[f64]) {
        const GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
        let m = self.season;
        if series.len() / 2 < m {
            self.fit(series);
            if self.rmse.is_some() {
                (self.alpha, self.beta, self.gamma) = (GRID[0], GRID[0], GRID[0]);
            }
            return;
        }
        let (mode, n) = (self.mode, series.len() - m);
        let (start, seasonal0) = init(mode, m, series);
        let (mut seasonal, mut q) = (vec![0.0; m], vec![0.0; m]);
        // (rmse, squared-error sum, factors) of the best candidate so far;
        // its sum is the cap every later candidate is smoothed under.
        let mut best: Option<(f64, f64, (f64, f64, f64))> = None;
        let cap_of = |best: Option<(f64, f64, _)>| best.map_or(f64::INFINITY, |(_, sq, _)| sq);
        for &a in &GRID {
            for &b in &GRID {
                let cap0 = cap_of(best);
                let run = first_season(mode, series, start, &seasonal0, (a, b), cap0, &mut q);
                let Some(shared) = run else {
                    continue; // all five γ abandoned: none could have won
                };
                for &g in &GRID {
                    // The cap moved since `cap0` only if an earlier γ of this
                    // pair was kept, and its full sum is at least the shared
                    // one: no γ can be skipped on the shared sum alone.
                    let cap = cap_of(best);
                    debug_assert_ne!(shared.2.partial_cmp(&cap), Some(Ordering::Greater));
                    for ((s, &qi), &s0) in seasonal.iter_mut().zip(&q).zip(&seasonal0) {
                        *s = blend(g, qi, s0);
                    }
                    let run = smooth(mode, series, 2 * m, shared, &mut seasonal, (a, b, g), cap);
                    let Some((_, _, sq)) = run else {
                        continue; // abandoned: it could not have won
                    };
                    let r = rmse(sq, n);
                    if best.is_none_or(|(br, ..)| r < br) {
                        best = Some((r, sq, (a, b, g)));
                    }
                }
            }
        }
        if let Some((.., factors)) = best {
            (self.alpha, self.beta, self.gamma) = factors;
        }
        self.smooth_from(series, start, seasonal0);
    }

    /// One uncapped [`smooth`] pass under the model's own factors from an
    /// [`init`] seed; stores the fitted state and RMSE.
    fn smooth_from(&mut self, series: &[f64], (level, trend): (f64, f64), mut seasonal: Vec<f64>) {
        let (mode, m, uncapped) = (self.mode, self.season, f64::INFINITY);
        let (start, factors) = ((level, trend, 0.0), (self.alpha, self.beta, self.gamma));
        let run = smooth(mode, series, m, start, &mut seasonal, factors, uncapped);
        let Some((level, trend, sq)) = run else {
            unreachable!("no sum exceeds an infinite cap");
        };
        self.state = Some(State {
            level,
            trend,
            seasonal,
            next_pos: series.len() % self.season,
        });
        self.rmse = Some(rmse(sq, series.len() - self.season));
    }

    /// Fitted seasonal indices (testing/diagnostics).
    pub fn seasonal_indices(&self) -> Option<&[f64]> {
        self.state.as_ref().map(|s| s.seasonal.as_slice())
    }
}

impl Forecaster for HoltWinters {
    /// `init` then one `smooth` pass under the current factors — the same two
    /// steps [`HoltWinters::fit_grid`] runs per candidate. Histories shorter
    /// than two seasons degrade to a Holt fit with flat seasonal indices; a
    /// season too long for its flat index table to be allocated at all
    /// (near `usize::MAX`) leaves no state.
    fn fit(&mut self, series: &[f64]) {
        self.state = None;
        self.rmse = None;
        let m = self.season;
        if series.len() / 2 < m {
            // Not enough history for seasonal initialisation; degrade to a
            // Holt fit with flat seasonal indices.
            let mut h = crate::holt::Holt::default();
            h.fit(series);
            let mut seasonal = Vec::new();
            let fitted = h.state().filter(|_| seasonal.try_reserve_exact(m).is_ok());
            if let Some((level, trend)) = fitted {
                let neutral = match self.mode {
                    Seasonality::Additive => 0.0,
                    Seasonality::Multiplicative => 1.0,
                };
                seasonal.resize(m, neutral);
                self.state = Some(State {
                    level,
                    trend,
                    seasonal,
                    next_pos: series.len() % m,
                });
                self.rmse = h.fit_rmse();
            }
            return;
        }

        let (start, seasonal) = init(self.mode, m, series);
        self.smooth_from(series, start, seasonal);
    }

    fn forecast(&self, horizon: usize) -> Option<Vec<f64>> {
        let st = self.state.as_ref()?;
        let m = self.season;
        Some(
            (0..horizon)
                .map(|h| {
                    let base = st.level + (h + 1) as f64 * st.trend;
                    let s = st.seasonal[(st.next_pos + h) % m];
                    match self.mode {
                        Seasonality::Additive => base + s,
                        Seasonality::Multiplicative => base * s,
                    }
                })
                .collect(),
        )
    }

    fn fit_rmse(&self) -> Option<f64> {
        self.rmse
    }
}

/// Classic initialisation over a history of at least two seasons of length
/// `m`: `((level0, trend0), seasonal0)`. Nothing here depends on (α, β, γ), so
/// [`HoltWinters::fit_grid`] computes it once for all candidates.
fn init(mode: Seasonality, m: usize, series: &[f64]) -> ((f64, f64), Vec<f64>) {
    let s1_mean: f64 = series[..m].iter().sum::<f64>() / m as f64;
    let s2_mean: f64 = series[m..2 * m].iter().sum::<f64>() / m as f64;
    let level = s1_mean;
    let trend = (s2_mean - s1_mean) / m as f64;

    // Per-position average over the complete seasons of the observation's
    // offset from (additive) or ratio to (multiplicative) its season's mean,
    // accumulated season by season so each mean is computed once.
    let full_seasons = series.len() / m;
    let mut seasonal = vec![0.0; m];
    for season in series.chunks_exact(m) {
        let season_mean: f64 = season.iter().sum::<f64>() / m as f64;
        for (acc, &y) in seasonal.iter_mut().zip(season) {
            *acc += match mode {
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
    }
    for s in seasonal.iter_mut() {
        *s /= full_seasons as f64;
        if mode == Seasonality::Multiplicative && *s <= 0.0 {
            *s = f64::EPSILON.max(1e-6);
        }
    }
    ((level, trend), seasonal)
}

/// What one [`step`] of the recursion computes.
struct Step {
    /// The one-step-ahead error `y − ŷ`.
    err: f64,
    level: f64,
    trend: f64,
    /// The blend input of the new seasonal index (see [`blend`]).
    q: f64,
}

/// One step of the recursion at observation `y` against the seasonal index
/// `s_prev` it reads. The one place the recursion's arithmetic lives:
/// [`smooth`] and [`first_season`] both step through it.
fn step(
    mode: Seasonality,
    y: f64,
    s_prev: f64,
    (level, trend): (f64, f64),
    (alpha, beta): (f64, f64),
) -> Step {
    let pred = match mode {
        Seasonality::Additive => level + trend + s_prev,
        Seasonality::Multiplicative => (level + trend) * s_prev,
    };
    let new_level = match mode {
        Seasonality::Additive => alpha * (y - s_prev) + (1.0 - alpha) * (level + trend),
        Seasonality::Multiplicative => alpha * (y / s_prev) + (1.0 - alpha) * (level + trend),
    };
    let denom = if new_level.abs() < 1e-12 {
        1e-12
    } else {
        new_level
    };
    Step {
        err: y - pred,
        level: new_level,
        trend: beta * (new_level - level) + (1.0 - beta) * trend,
        q: match mode {
            Seasonality::Additive => y - new_level,
            Seasonality::Multiplicative => y / denom,
        },
    }
}

/// The new seasonal index from a step's blend input `q` and the index
/// `s_prev` the step read: `γ·q + (1 − γ)·s_prev`.
fn blend(gamma: f64, q: f64, s_prev: f64) -> f64 {
    gamma * q + (1.0 - gamma) * s_prev
}

/// The smoothing recursion over `series[from..]` (`from ≥ m = seasonal.len()`)
/// from the `(level, trend, sq_err)` reached at `from`, updating `seasonal`
/// in place: `(level, trend, sq_err)` with `sq_err` the sum of squared
/// one-step-ahead errors — or `None`, abandoned, as soon as the running sum
/// exceeds `cap` (never, for `cap = +∞`). `fit` and the grid's final refit
/// run it from the [`init`] seed at `from = m`; every grid candidate from
/// its pair's [`first_season`] at `from = 2m`.
fn smooth(
    mode: Seasonality,
    series: &[f64],
    from: usize,
    (mut level, mut trend, mut sq_err): (f64, f64, f64),
    seasonal: &mut [f64],
    (alpha, beta, gamma): (f64, f64, f64),
    cap: f64,
) -> Option<(f64, f64, f64)> {
    let m = seasonal.len();
    for (t, &y) in series.iter().enumerate().skip(from) {
        let pos = t % m;
        let s_prev = seasonal[pos];
        let st = step(mode, y, s_prev, (level, trend), (alpha, beta));
        sq_err += st.err * st.err;
        if sq_err > cap {
            #[cfg(test)]
            step_count::add(t + 1 - from);
            return None;
        }
        seasonal[pos] = blend(gamma, st.q, s_prev);
        (level, trend) = (st.level, st.trend);
    }
    #[cfg(test)]
    step_count::add(series.len() - from);
    Some((level, trend, sq_err))
}

/// The first season of the recursion, `t ∈ [m, 2m)` (`m =
/// seasonal0.len()`), from the [`init`] seed under (α, β) alone: every step
/// reads an `init` index, so γ enters only through the indices it leaves
/// behind. Returns the `(level, trend, sq_err)` at `2m` and leaves each
/// position's blend input in `q` — or `None` once the running sum exceeds
/// `cap`, as [`smooth`] would.
fn first_season(
    mode: Seasonality,
    series: &[f64],
    (mut level, mut trend): (f64, f64),
    seasonal0: &[f64],
    factors: (f64, f64),
    cap: f64,
    q: &mut [f64],
) -> Option<(f64, f64, f64)> {
    let m = seasonal0.len();
    let mut sq_err = 0.0;
    for pos in 0..m {
        let y = series[m + pos];
        let st = step(mode, y, seasonal0[pos], (level, trend), factors);
        sq_err += st.err * st.err;
        if sq_err > cap {
            #[cfg(test)]
            step_count::add(pos + 1);
            return None;
        }
        q[pos] = st.q;
        (level, trend) = (st.level, st.trend);
    }
    #[cfg(test)]
    step_count::add(m);
    Some((level, trend, sq_err))
}

/// Root-mean-square one-step error from a [`smooth`] sum over `n` steps.
fn rmse(sq_err: f64, n: usize) -> f64 {
    (sq_err / n as f64).sqrt()
}

/// A per-thread count of executed [`smooth`] steps, the work pruning saves.
#[cfg(test)]
pub(crate) mod step_count {
    use std::cell::Cell;

    thread_local! {
        static STEPS: Cell<u64> = const { Cell::new(0) };
    }

    /// Books `n` executed steps of the smoothing recursion.
    pub(super) fn add(n: usize) {
        STEPS.with(|s| s.set(s.get() + n as u64));
    }

    /// Smoothing steps this thread has executed so far.
    pub(crate) fn total() -> u64 {
        STEPS.with(Cell::get)
    }
}
