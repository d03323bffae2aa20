//! The Holt-Winters grid behind [`predict_next`](crate::predict_next):
//! triple exponential smoothing (level + trend + seasonality) with the
//! factors chosen by one-step RMSE over a 5×5×5 grid.
//!
//! The paper's forecasting block uses the **multiplicative** variant
//! (`f_HW` in §2.2.2) because mobile traffic exhibits periodic (diurnal)
//! patterns whose amplitude scales with the level; `predict_next` takes the
//! additive one when a sample is not positive. Multiplicative update,
//! seasonal period `m`:
//!
//! ```text
//! ℓ_t = α·y_t/s_{t−m} + (1−α)(ℓ_{t−1} + b_{t−1})
//! b_t = β(ℓ_t − ℓ_{t−1}) + (1−β)·b_{t−1}
//! s_t = γ·y_t/ℓ_t + (1−γ)·s_{t−m}
//! ŷ_{t+1} = (ℓ_t + b_t)·s_{t+1−m}
//! ```
//!
//! Initialisation follows the classic scheme: the first season's mean seeds
//! the level, the first-vs-second season mean difference seeds the trend, and
//! per-position averages over complete seasons seed the seasonal indices.
//! The grid needs at least two seasons of history and `m ≥ 2`;
//! `predict_next` takes simple exponential smoothing below that.
//!
//! The specification is 125 independent fits, each from its own
//! initialisation over the whole history, and a refit under the winner (the
//! clone-and-refit oracle of the crate's tests). [`fit_grid`] computes the
//! same answer bit for bit with less work, in three steps.
//!
//! **Shared initialisation.** [`init`] does not depend on (α, β, γ), so it
//! runs once, and each candidate continues with one [`smooth`] pass over a
//! single reused seasonal buffer. A candidate owns only its running level,
//! trend and error sum.
//!
//! **Pruning.** A candidate stops smoothing as soon as its running
//! squared-error sum exceeds the final sum of the best candidate so far (no
//! cap until a first candidate is kept). This is exact — it skips only
//! candidates that could never be selected:
//!
//! * each term `err * err` is ≥ 0 or NaN;
//! * round-to-nearest addition is monotone, so once a partial sum is above
//!   the best's final sum the candidate's final sum is too, and its RMSE
//!   `sqrt(sq / n)` is ≥ the best's: it could never pass the strict
//!   `r < best` test (ties keep the earlier candidate);
//! * a NaN partial sum never compares greater, so a NaN candidate runs to
//!   the end exactly as without pruning (and is then not kept, nor does a
//!   NaN RMSE ever displace a finite one);
//! * a `+∞` sum is abandoned once a finite best exists, which it could
//!   never have displaced.
//!
//! The grid order, the shared `init`, the final refit and every
//! floating-point operation of the candidates that do run are those of the
//! unpruned grid, so factors, forecast, RMSE and seasonal indices are
//! unchanged bit for bit. Pruning changes only how much of the history a
//! losing candidate reads; the winner and the refit still read all of it,
//! so a fit stays linear in the history (and how early the cap tightens
//! depends on where the winner lies in the grid order).
//!
//! **Shared first season.** During the first season, `t ∈ [m, 2m)`, step
//! `t` reads the `init` index `seasonal0[t − m]`, and the index it writes
//! under γ is first read again at `t + m ≥ 2m`. So the five γ of an (α, β)
//! pair reach `2m` with the same level, trend and error sum, computed by the
//! same operations. Each pair runs those `m` steps once ([`first_season`]),
//! under the cap `cap0` in force when the pair starts — the loosest any of
//! its γ runs under, since the cap only tightens (or is NaN, which caps
//! nothing, for good). A sum past `cap0` abandons all five γ. Otherwise
//! each γ in grid order blends its first-season indices
//! `γ·q + (1 − γ)·seasonal0` from the step's blend input `q` — the
//! recursion's own expression on the same operands — and continues `smooth`
//! from `t = 2m` under the cap now in force. No γ needs the shared sum
//! re-checked against that cap: the cap moved since `cap0` only if an
//! earlier γ of the pair was kept, and that γ's full sum is at least the
//! shared one. On a history of `2m + k` samples the grid runs at most
//! `25·m + 125·k` full steps and `125·m` blends, where it ran
//! `125·(m + k)` steps: at `m = 6`, about a fifth of the steps on 12
//! samples, and 97 % on 200. One function, [`step`], holds a step's
//! arithmetic, and both paths call it.

use std::cmp::Ordering;

/// Seasonal composition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seasonality {
    /// Seasonal effect added to the level (works with any sign).
    Additive,
    /// Seasonal effect multiplies the level (requires positive data).
    Multiplicative,
}

/// What [`fit_grid`] leaves: the winning factors and the state of the final
/// pass under them.
#[derive(Debug, Clone)]
pub(crate) struct Fit {
    /// The winning `(α, β, γ)`, read by the refinement tests.
    #[cfg(test)]
    pub(crate) factors: (f64, f64, f64),
    pub(crate) level: f64,
    pub(crate) trend: f64,
    /// Seasonal indices by absolute position modulo the period.
    pub(crate) seasonal: Vec<f64>,
    /// Root-mean-square one-step error of the final pass.
    pub(crate) rmse: f64,
}

impl Fit {
    /// The one-step forecast after a history of `len` samples.
    pub(crate) fn forecast(&self, mode: Seasonality, len: usize) -> f64 {
        let s = self.seasonal[len % self.seasonal.len()];
        match mode {
            Seasonality::Additive => self.level + self.trend + s,
            Seasonality::Multiplicative => (self.level + self.trend) * s,
        }
    }
}

/// Fits `series` (at least two seasons of `m ≥ 2` samples) with the 125
/// (α, β, γ) candidates of the grid and refits under the one with the least
/// one-step RMSE (ties keep the earlier candidate; a NaN RMSE never
/// displaces a finite one). See the module docs for why the pruned, shared
/// passes give the answer of 125 independent fits bit for bit.
pub(crate) fn fit_grid(mode: Seasonality, m: usize, series: &[f64]) -> Fit {
    const GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
    let n = series.len() - m;
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
    let Some((.., factors)) = best else {
        unreachable!("the first candidate runs uncapped and is kept");
    };
    let mut seasonal = seasonal0;
    let (start, uncapped) = ((start.0, start.1, 0.0), f64::INFINITY);
    let run = smooth(mode, series, m, start, &mut seasonal, factors, uncapped);
    let Some((level, trend, sq)) = run else {
        unreachable!("no sum exceeds an infinite cap");
    };
    Fit {
        #[cfg(test)]
        factors,
        level,
        trend,
        seasonal,
        rmse: rmse(sq, n),
    }
}

/// Classic initialisation over a history of at least two seasons of length
/// `m`: `((level0, trend0), seasonal0)`. Nothing here depends on (α, β, γ), so
/// [`fit_grid`] computes it once for all candidates.
///
/// Kept out of line: inlined into `fit_grid`, its one caller, it made every
/// `predict_next` call at 12 / 32 samples about 15 % / 7 % slower on an
/// x86-64 Xeon (the candidates' loop compiled worse), at no gain elsewhere.
#[inline(never)]
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
/// exceeds `cap` (never, for `cap = +∞`). The grid's final refit runs it
/// from the [`init`] seed at `from = m`; every candidate from its pair's
/// [`first_season`] at `from = 2m`.
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
