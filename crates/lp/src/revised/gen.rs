//! Seeded random bounded-LP generation, shared across the test layers.
//!
//! One generator serves the in-crate unit/property tests
//! (`revised/tests.rs`) and the cross-crate integration tests
//! (`tests/solver_cross_check.rs`) — replacing the ad-hoc per-file
//! generators they used to carry. It is compiled only for tests or behind
//! the `testgen` feature, so production builds never see it.
//!
//! The generator is **seeded and deterministic**: the same `GenRng` seed and
//! [`LpGenConfig`] always produce the same problem, which keeps failures
//! reproducible without proptest-style shrinking. Knobs cover what the
//! revised engine's hard paths care about:
//!
//! * the **column-shape mix** (boxed / one-sided / free / fixed columns) —
//!   boxed columns are what the long-step dual ratio test flips,
//! * **bound tightness** — narrow boxes raise bound activity and flip
//!   density,
//! * **degeneracy** — rows snapped tight at a reference point create the
//!   tied ratio tests that historically hide pivoting bugs.

use crate::model::{Cmp, Problem, VarId};

/// Deterministic xorshift64 generator — keeps fixture generation free of
/// dev-dependency wiring beyond the offline `rand` stub.
#[derive(Debug, Clone)]
pub struct GenRng(u64);

impl GenRng {
    /// Seeds the stream. The seed is passed through a splitmix64 finaliser
    /// — a bijection on `u64`, so distinct seeds always yield distinct
    /// streams — and only the single seed that maps to xorshift's zero
    /// fixed point is nudged.
    pub fn new(seed: u64) -> GenRng {
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^= s >> 31;
        GenRng(if s == 0 { 0x9E37_79B9_7F4A_7C15 } else { s })
    }

    /// Next sample in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform index in `0..n` (0 when `n == 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Knobs for [`random_lp`]. All probabilities are in `[0, 1]`; the column
/// shape draws `fixed`, `free`, `boxed` in that order and falls back to a
/// one-sided column.
#[derive(Debug, Clone)]
pub struct LpGenConfig {
    /// Structural variables are drawn from `min_vars..=max_vars`.
    pub min_vars: usize,
    /// Upper end of the variable-count draw.
    pub max_vars: usize,
    /// Constraint rows are drawn from `1..=max_cons`.
    pub max_cons: usize,
    /// Probability of a boxed column (both bounds finite) — the flip fuel.
    pub boxed: f64,
    /// Probability of a free column.
    pub free: f64,
    /// Probability of a fixed column (`lb == ub`).
    pub fixed: f64,
    /// Width multiplier for finite boxes; < 1 tightens every box, raising
    /// bound activity (and long-step flip counts) in the solves.
    pub bound_tightness: f64,
    /// Probability a row is generated *tight* at the internal reference
    /// point: zero slack ⇒ degenerate vertices and tied ratio tests.
    pub degeneracy: f64,
    /// Probability each variable participates in a row.
    pub density: f64,
}

impl Default for LpGenConfig {
    fn default() -> Self {
        LpGenConfig {
            min_vars: 1,
            max_vars: 7,
            max_cons: 7,
            boxed: 0.35,
            free: 0.1,
            fixed: 0.1,
            bound_tightness: 1.0,
            degeneracy: 0.15,
            density: 0.8,
        }
    }
}

impl LpGenConfig {
    /// The torture preset shared by the integration harness
    /// (`tests/solver_cross_check.rs`) and the in-crate suites: larger
    /// instances, a boxed-heavy column mix, tight bounds, and heavy
    /// degeneracy — the distribution the long-step/partial-pricing paths
    /// are graded on. One definition so the suites cannot drift apart.
    pub fn torture() -> Self {
        LpGenConfig {
            max_vars: 15,
            max_cons: 12,
            boxed: 0.55,
            bound_tightness: 0.5,
            degeneracy: 0.3,
            ..LpGenConfig::default()
        }
    }

    /// The wide variant of [`LpGenConfig::torture`]: enough columns to put
    /// every solve past the engine's partial-pricing threshold (256 total
    /// columns), so the candidate-list scan/refresh path itself gets
    /// randomized coverage rather than only the fixed-seed unit test.
    #[cfg(test)]
    pub(crate) fn torture_wide() -> Self {
        LpGenConfig {
            min_vars: 260,
            max_vars: 340,
            max_cons: 24,
            boxed: 0.5,
            bound_tightness: 0.7,
            degeneracy: 0.2,
            density: 0.4,
            ..LpGenConfig::default()
        }
    }
}

/// Builds a random bounded LP. The outcome class is intentionally *not*
/// constrained: depending on the draw the problem may be optimal,
/// infeasible, or unbounded, which is exactly what the engine-vs-oracle
/// cross-checks need.
pub fn random_lp(rng: &mut GenRng, cfg: &LpGenConfig) -> Problem {
    let lo = cfg.min_vars.max(1);
    let nv = lo + rng.index(cfg.max_vars.saturating_sub(lo) + 1);
    let nc = 1 + rng.index(cfg.max_cons);
    let mut p = Problem::new();
    let mut vars: Vec<VarId> = Vec::with_capacity(nv);
    // Reference point inside every box; degenerate rows are snapped to it.
    let mut x_ref: Vec<f64> = Vec::with_capacity(nv);

    for _ in 0..nv {
        let draw = rng.next_f64();
        let (lb, ub) = if draw < cfg.fixed {
            let v = rng.uniform(-2.0, 2.0);
            (v, v)
        } else if draw < cfg.fixed + cfg.free {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else if draw < cfg.fixed + cfg.free + cfg.boxed {
            let lb = rng.uniform(-5.0, 1.0);
            let width = rng.uniform(0.2, 6.0) * cfg.bound_tightness;
            (lb, lb + width)
        } else if rng.chance(0.7) {
            (0.0, f64::INFINITY)
        } else {
            (f64::NEG_INFINITY, rng.uniform(0.0, 8.0))
        };
        x_ref.push(match (lb.is_finite(), ub.is_finite()) {
            (true, true) => rng.uniform(lb, ub),
            (true, false) => lb + rng.uniform(0.0, 3.0),
            (false, true) => ub - rng.uniform(0.0, 3.0),
            (false, false) => rng.uniform(-2.0, 2.0),
        });
        vars.push(p.add_var(lb, ub, rng.uniform(-3.0, 3.0)));
    }

    for _ in 0..nc {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        let mut at_ref = 0.0;
        for (j, &v) in vars.iter().enumerate() {
            if rng.chance(cfg.density) {
                let a = rng.uniform(-4.0, 4.0);
                row.push((v, a));
                at_ref += a * x_ref[j];
            }
        }
        let cmp = match rng.index(4) {
            0 => Cmp::Ge,
            1 => Cmp::Eq,
            _ => Cmp::Le,
        };
        let rhs = if rng.chance(cfg.degeneracy) {
            at_ref // tight at the reference point: a degenerate vertex
        } else {
            rng.uniform(-6.0, 10.0)
        };
        p.add_cons(&row, cmp, rhs);
    }
    p
}

/// Applies one random bound edit to a variable of `p` — the shape of a
/// branch-and-bound branching step or an orchestrator window move. The edit
/// always keeps `lb ≤ ub`, so any stored basis remains warm-startable.
pub fn random_bound_edit(rng: &mut GenRng, p: &mut Problem) {
    if p.num_vars() == 0 {
        return;
    }
    let v = VarId(rng.index(p.num_vars()));
    let (lb, ub) = p.bounds(v);
    if rng.chance(0.5) {
        // Tighten (or introduce) the upper bound.
        let new_ub = if ub.is_finite() {
            ub - (ub - lb.max(ub - 8.0)).abs() * rng.uniform(0.1, 0.5)
        } else {
            rng.uniform(0.0, 4.0)
        };
        if new_ub >= lb {
            p.set_bounds(v, lb, new_ub);
        }
    } else {
        // Tighten (or introduce) the lower bound.
        let new_lb = if lb.is_finite() {
            lb + (ub.min(lb + 8.0) - lb).abs() * rng.uniform(0.1, 0.5)
        } else {
            rng.uniform(-3.0, 0.0)
        };
        if new_lb <= ub {
            p.set_bounds(v, new_lb, ub);
        }
    }
}
