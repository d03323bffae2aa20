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
//! same answer bit for bit with less work. Every pass it runs steps through
//! one function, [`step`], which holds the recursion's arithmetic.
//!
//! **Shared initialisation.** [`init`] does not depend on (α, β, γ), so it
//! runs once for all 125 candidates.
//!
//! **Pruning.** A candidate stops as soon as its running squared-error sum
//! exceeds the cap, the final sum of the best candidate so far (no cap until
//! a first candidate is kept). This skips only candidates that could never
//! be selected:
//!
//! * each term `err * err` is ≥ 0 or NaN;
//! * round-to-nearest addition is monotone, so once a partial sum is above
//!   a kept candidate's final sum the candidate's final sum is too, and its
//!   RMSE `sqrt(sq / n)` is ≥ the kept one's: it could never pass the
//!   strict `r < best` test (ties keep the earlier candidate);
//! * a NaN partial sum never compares greater, so a NaN candidate runs to
//!   the end (and is then not kept, nor does a NaN RMSE ever displace a
//!   finite one);
//! * a `+∞` sum is stopped once a finite best exists, which it could
//!   never have displaced.
//!
//! **Shared first season, five β lanes.** During the first season, `t ∈
//! [m, 2m)`, step `t` reads the `init` index `seasonal0[t − m]`, and the
//! index it writes under γ is first read again at `t + m ≥ 2m`. So the five
//! γ of an (α, β) pair reach `2m` with the same level, trend and error sum,
//! computed by the same operations, and each pair's first season runs once.
//! The five β of one α run it side by side ([`first_season`]): five lanes,
//! as in [`lockstep`] below, under the cap `capα` in force when the α group
//! starts. A lane whose sum passes `capα` is dead and stops its pair's five
//! γ; the pass stops once every lane is dead. Each lane leaves its blend
//! input `q` at every position in one column of an `m × 5` block, and each
//! γ's first-season indices are then `γ·q + (1 − γ)·seasonal0`: the
//! recursion's own expression ([`blend`]) on the same operands.
//!
//! Before its [`lockstep`] pass, a pair whose first-season sum exceeds its
//! own cap `cap0` (which a kept earlier β of the group may have tightened
//! since `capα`) is skipped. This drops what the sequential grid drops:
//!
//! * the cap only tightens (or is NaN, which caps nothing, for good), so
//!   `capα` is never tighter than `cap0`, and a lane dead under `capα` has
//!   passed `cap0` too;
//! * partial sums never decrease, so a final first-season sum above `cap0`
//!   means a partial sum above it, where the pair would have stopped;
//! * a NaN sum never compares greater, here or in sequence. The one
//!   difference: a sum that passes `cap0` but not `capα`, and only then
//!   turns NaN, stopped the pair in sequence and runs it here. Its five γ
//!   end NaN, and a NaN RMSE never displaces the kept candidate whose sum
//!   is `cap0`; only the work differs. (A sum that overflows to `+∞` before
//!   turning NaN dies under a finite `capα`, so this needs the uncapped
//!   first α group.)
//!
//! **Five γ lanes.** From `2m` the five γ of a pair run side by side
//! ([`lockstep`]): five independent level → trend → level chains, whose
//! latencies the CPU overlaps, all under `cap0`. The lanes' levels, trends
//! and squared-error sums are three `[f64; 5]` arrays, and the seasonal
//! indices an `m × 5` array of rows, so observation `t` reads and writes
//! the one row `t mod m`, through a row index that wraps at `m` rather than
//! a division per observation. One indexed loop over the five lanes reads
//! each lane's index once, steps it through the one `step` and `blend`,
//! and folds its sum into the all-dead test. A lane whose sum passes
//! `cap0` is dead but keeps stepping; the pass stops once every lane is
//! dead. The live lanes are then compared in grid order under the same
//! strict `r < best` rule, which keeps the sequential grid's choice:
//!
//! * `cap0` is never tighter than the cap a lane would meet in sequence;
//! * a lane that passes `cap0` has a sum above a kept candidate's full sum;
//! * a lane that a sibling γ's tighter cap would have stopped ends with a
//!   sum at least that sibling's (or NaN), so it loses the strict `<`;
//! * NaN and `+∞` sums behave as under pruning alone: a NaN lane never dies
//!   and displaces no kept candidate, and a `+∞` one dies under a finite cap.
//!
//! **No refit, one kept column.** A kept lane's level, trend and seasonal
//! column are the [`Fit`]. A refit under the winner would compute the same
//! bits: it runs the same operations in the same order, the first season
//! from the `init` seed and then the lane's tail. The column is copied into
//! one buffer allocated once per call, whatever the number of candidates
//! kept on the way to the winner.
//!
//! **One compiled copy per mode.** [`fit_grid`] matches the [`Seasonality`]
//! once and runs the grid's body, inlined with its passes, with the mode as
//! a constant, so every `match mode` in [`step`] folds away in each copy.
//! [`init`] stays out of line: it runs once per call, and inlined it made
//! the candidates' loop compile worse.
//!
//! **Work.** On a history of `2m + k` samples the grid runs at most `25·m`
//! first-season steps, `125·k` lane steps and `125·m` blends, where the
//! specification runs `126·(m + k)` steps: still linear in the history.
//! A lane stops only with the last of its group or pair, so pruning skips
//! less than in sequence. The lanes' state lives in registers and fixed
//! arrays, and the seasonal rows, the blend inputs and the kept column are
//! allocated once per call: a call allocates 4 times, and no pass allocates
//! (`tests/alloc_counts.rs` pins it). Each lane runs the operations of a
//! sequential fit in the same order, so the layout changes no bit. Measured
//! per call (m = 6, best of 7 runs on a shared 2-core x86-64 Xeon), the
//! arrays made one call 15-23 % faster at 48-384 samples than per-lane
//! tuples; the copy per mode, the wrapping row index, the β lanes and the
//! kept column then made one call on a noisy peak series 12-40 % faster at
//! 12-384 samples than one body for both modes, `t % m` per observation, a
//! pair's first season at a time and a column per kept candidate.

/// The grid's values of each smoothing factor, in grid order.
const GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Seasonal composition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seasonality {
    /// Seasonal effect added to the level (works with any sign).
    Additive,
    /// Seasonal effect multiplies the level (requires positive data).
    Multiplicative,
}

/// What [`fit_grid`] leaves: the winning factors and the state their lane
/// ends in.
#[derive(Debug, Clone)]
pub(crate) struct Fit {
    /// The winning `(α, β, γ)`, read by the refinement tests.
    #[cfg(test)]
    pub(crate) factors: (f64, f64, f64),
    pub(crate) level: f64,
    pub(crate) trend: f64,
    /// Seasonal indices by absolute position modulo the period.
    pub(crate) seasonal: Vec<f64>,
    /// Root-mean-square one-step error of the winning candidate.
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
/// (α, β, γ) candidates of the grid and keeps the fit of the one with the
/// least one-step RMSE (ties keep the earlier candidate; a NaN RMSE never
/// displaces a finite one). See the module docs for why the pruned, shared
/// lockstep passes give the answer of 125 independent fits and a refit
/// under the winner bit for bit.
pub(crate) fn fit_grid(mode: Seasonality, m: usize, series: &[f64]) -> Fit {
    // One compiled copy of the grid per mode: `mode` is a constant in each,
    // so every `match mode` in the passes folds away.
    match mode {
        Seasonality::Additive => grid(Seasonality::Additive, m, series),
        Seasonality::Multiplicative => grid(Seasonality::Multiplicative, m, series),
    }
}

/// The body of [`fit_grid`], inlined into each of its two calls.
#[inline(always)]
fn grid(mode: Seasonality, m: usize, series: &[f64]) -> Fit {
    let n = series.len() - m;
    let (start, seasonal0) = init(mode, m, series);
    let (mut seasonal, mut q) = (vec![[0.0; 5]; m], vec![[0.0; 5]; m]);
    // The kept candidate: its fit (the seasonal column empty until the first
    // is kept) and its squared-error sum, the cap every later pass runs
    // under (+∞ before the first).
    let mut fit = Fit {
        #[cfg(test)]
        factors: (0.0, 0.0, 0.0),
        level: 0.0,
        trend: 0.0,
        seasonal: Vec::with_capacity(m),
        rmse: f64::NAN,
    };
    let mut cap = f64::INFINITY;
    for &a in &GRID {
        let firsts = first_season(mode, series, start, &seasonal0, a, cap, &mut q);
        for (j, first) in firsts.into_iter().enumerate() {
            let Some(shared) = first else {
                continue; // past the α group's cap: no γ could have won
            };
            if shared.2 > cap {
                continue; // past the cap a kept earlier β has set since
            }
            for ((row, qi), &s0) in seasonal.iter_mut().zip(&q).zip(&seasonal0) {
                *row = GRID.map(|g| blend(g, qi[j], s0));
            }
            let b = GRID[j];
            let lanes = lockstep(mode, series, shared, &mut seasonal, (a, b), cap);
            for (k, lane) in lanes.into_iter().enumerate() {
                let Some((level, trend, sq)) = lane else {
                    continue; // past the cap: it could not have won
                };
                let r = rmse(sq, n);
                if fit.seasonal.is_empty() || r < fit.rmse {
                    #[cfg(test)]
                    {
                        fit.factors = (a, b, GRID[k]);
                    }
                    (fit.level, fit.trend, fit.rmse) = (level, trend, r);
                    fit.seasonal.clear();
                    fit.seasonal.extend(seasonal.iter().map(|row| row[k]));
                    cap = sq;
                }
            }
        }
    }
    // The first lane of the first pair runs uncapped, so it is kept and
    // every field above is a candidate's.
    fit
}

/// Classic initialisation over a history of at least two seasons of length
/// `m`: `((level0, trend0), seasonal0)`. Nothing here depends on (α, β, γ), so
/// [`fit_grid`] computes it once for all candidates.
///
/// Kept out of line while the grid's body is inlined once per mode: it runs
/// once per call, so a copy per mode saves nothing, and inlined into the
/// grid it made every `predict_next` call at 12 / 32 samples about 15 % /
/// 7 % slower on an x86-64 Xeon (the candidates' loop compiled worse), at
/// no gain elsewhere.
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
/// [`first_season`] and [`lockstep`] both step through it.
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

/// The recursion over `series[2m..]` (`m = seasonal.len()`) for the five γ
/// of the grid side by side under (α, β): one lane each, from the `(level,
/// trend, sq_err)` its pair's [`first_season`] lane reached, kept at index
/// `k` of three `[f64; 5]` arrays and stepping its own column `k` of
/// `seasonal` in place. A lane is dead once its running sum exceeds `cap`
/// (never, for `cap = +∞` or NaN) but keeps stepping with the others, and
/// the pass stops when every lane is dead. Returns each live lane's `(level,
/// trend, sq_err)` and `None` for a dead one.
#[inline(always)]
fn lockstep(
    mode: Seasonality,
    series: &[f64],
    shared: (f64, f64, f64),
    seasonal: &mut [[f64; 5]],
    factors: (f64, f64),
    cap: f64,
) -> [Option<(f64, f64, f64)>; 5] {
    let m = seasonal.len();
    let (level0, trend0, sq0) = shared;
    let (mut level, mut trend, mut sq) = ([level0; 5], [trend0; 5], [sq0; 5]);
    let mut dead = [false; 5];
    // Observation `2m + i` reads and writes row `(2m + i) mod m`, which wraps
    // at `m` from row 0.
    let mut at = 0;
    for &y in &series[2 * m..] {
        #[cfg(test)]
        step_count::add(5);
        let row = &mut seasonal[at];
        let mut all_dead = true;
        for k in 0..5 {
            let s = row[k];
            let st = step(mode, y, s, (level[k], trend[k]), factors);
            (level[k], trend[k]) = (st.level, st.trend);
            sq[k] += st.err * st.err;
            dead[k] |= sq[k] > cap;
            all_dead &= dead[k];
            row[k] = blend(GRID[k], st.q, s);
        }
        if all_dead {
            return [None; 5];
        }
        at += 1;
        if at == m {
            at = 0;
        }
    }
    std::array::from_fn(|k| (!dead[k]).then_some((level[k], trend[k], sq[k])))
}

/// The first season of the recursion, `t ∈ [m, 2m)` (`m =
/// seasonal0.len()`), from the [`init`] seed under α for the five β of the
/// grid side by side: one lane each, dead once its running sum exceeds `cap`
/// and stepping on with the others until every lane is dead. Every step
/// reads an `init` index, so γ enters only through the indices it leaves
/// behind: row `pos` of `q` receives each lane's blend input at `m + pos`.
/// Returns each live lane's `(level, trend, sq_err)` at `2m` and `None` for
/// a dead one.
#[inline(always)]
fn first_season(
    mode: Seasonality,
    series: &[f64],
    (level0, trend0): (f64, f64),
    seasonal0: &[f64],
    alpha: f64,
    cap: f64,
    q: &mut [[f64; 5]],
) -> [Option<(f64, f64, f64)>; 5] {
    let m = seasonal0.len();
    let (mut level, mut trend, mut sq) = ([level0; 5], [trend0; 5], [0.0; 5]);
    let mut dead = [false; 5];
    let season = series[m..2 * m].iter().zip(seasonal0).zip(q.iter_mut());
    for ((&y, &s), row) in season {
        #[cfg(test)]
        step_count::add(5);
        let mut all_dead = true;
        for k in 0..5 {
            let st = step(mode, y, s, (level[k], trend[k]), (alpha, GRID[k]));
            (level[k], trend[k]) = (st.level, st.trend);
            sq[k] += st.err * st.err;
            dead[k] |= sq[k] > cap;
            all_dead &= dead[k];
            row[k] = st.q;
        }
        if all_dead {
            return [None; 5];
        }
    }
    std::array::from_fn(|k| (!dead[k]).then_some((level[k], trend[k], sq[k])))
}

/// Root-mean-square one-step error from a squared-error sum over `n` steps.
fn rmse(sq_err: f64, n: usize) -> f64 {
    (sq_err / n as f64).sqrt()
}

/// A per-thread count of executed steps: a [`first_season`] or [`lockstep`]
/// step once per lane, dead or live.
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
