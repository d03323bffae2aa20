//! Types shared by every caller of the LP engine: the solver options, the
//! seeded fault-injection plan, and the solve outcomes — optimal solution,
//! Farkas certificate, unbounded — with the terminal error type.

/// Tunable solver options.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on total pivots across both phases.
    pub max_iterations: usize,
    /// Switch from Dantzig to Bland pricing after this many pivots (guards
    /// against cycling on degenerate problems). The counter is **per phase**:
    /// phase 1, phase 2, and each dual-simplex pass each get a fresh
    /// `bland_after` budget of Dantzig pivots.
    pub bland_after: usize,
    /// Seeded warm-path fault injection (revised engine; chaos testing).
    /// Defaults to `None`.
    pub fault: Option<FaultConfig>,
    /// Refactorize after this many Forrest–Tomlin updates have been folded
    /// into the basis factorization (revised engine). Compressed updates
    /// keep FTRAN/BTRAN cost flat as the count grows, so the default sits
    /// well past the old product-form eta limit of 64; lower it to bound
    /// numerical drift on ill-conditioned bases. Defaults to 128.
    pub refactor_interval: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200_000,
            bland_after: 10_000,
            fault: None,
            refactor_interval: 128,
        }
    }
}

/// Seeded fault injection on the warm-start path of the revised engine.
///
/// Faults never change a solve's outcome class or optimum *value* — they
/// discard warm state (basis, persisted factorization) or corrupt the
/// basic set into a singular matrix, forcing the engine through its
/// cold-restart / refactorization recovery paths. (Which optimal vertex or
/// Farkas ray a degenerate problem ends on may follow the path taken.)
/// Every roll is a pure function of `(seed, constraint-matrix fingerprint,
/// basis summary)`, never of thread identity or wall clock, so injected
/// faults are **bit-identical at any worker count** and across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into every roll.
    pub seed: u64,
}

impl FaultConfig {
    /// The chaos profile for a seed: all three fault classes armed at the
    /// fixed moderate rates of the `revised` module's `FAULT_*` constants.
    pub fn chaos(seed: u64) -> Self {
        Self { seed }
    }

    /// Deterministic roll in `[0, 1)` from the seed, a solve fingerprint,
    /// a basis summary, and a per-decision salt (splitmix64 finalizer).
    pub(crate) fn roll(&self, fingerprint: u64, summary: u64, salt: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(fingerprint.rotate_left(17))
            .wrapping_add(summary.rotate_left(31))
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Terminal failures (distinct from well-defined outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The pivot limit was exhausted before reaching optimality.
    IterationLimit,
    /// The factorized basis degraded beyond repair (revised engine only);
    /// re-solving cold or loosening tolerances is the caller's recourse.
    Numerical,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            SolveError::Numerical => write!(f, "simplex basis factorization failed"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution: primal values, objective, and constraint duals.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value including any constant added to the problem.
    pub objective: f64,
    /// Primal value per variable, indexed by [`VarId::index`](crate::VarId::index).
    pub x: Vec<f64>,
    /// Dual value per user constraint (see crate-level sign conventions).
    pub duals: Vec<f64>,
}

impl Solution {
    /// Value of a variable in the optimal solution.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.x[var.index()]
    }
}

/// A Farkas certificate of primal infeasibility.
///
/// Letting `y = row_multipliers` (one entry per user constraint) and `w` the
/// bound multipliers `Farkas::ub_multipliers` derives from it (one entry
/// per variable, nonzero only for variables with a finite upper bound), the
/// certificate satisfies, within numeric tolerance:
///
/// * sign conventions: `y_i ≤ 0` for `≤` rows, `y_i ≥ 0` for `≥` rows,
///   `w_j ≤ 0`;
/// * `Σ_i y_i a_{ij} + w_j ≤ 0` for every variable `j` with lower bound 0;
/// * `Σ_i y_i b_i + Σ_j w_j ub_j > 0`.
///
/// Together these are contradictory for any feasible point, proving the
/// system infeasible. Benders feasibility cuts are built directly from `y`,
/// which is all a solve computes: the bound part is a function of `y` and
/// the problem, priced on demand.
#[derive(Debug, Clone)]
pub struct Farkas {
    /// Multiplier per user constraint.
    pub row_multipliers: Vec<f64>,
}

impl Farkas {
    /// Multiplier per variable upper bound for this certificate on `p` (the
    /// problem whose solve returned it): `−g_j` wherever pricing the row
    /// multipliers leaves a positive residual `g_j = Σ_i y_i a_{ij}` that the
    /// variable's finite upper bound must absorb, and on every fixed
    /// variable; 0.0 elsewhere. One column dot product per variable.
    #[cfg(test)]
    pub(crate) fn ub_multipliers(&self, p: &crate::Problem) -> Vec<f64> {
        p.var_ids()
            .map(|v| {
                let g = p.col_dot(&self.row_multipliers, v);
                let (lb, ub) = p.bounds(v);
                if (g > 0.0 && ub.is_finite()) || lb == ub {
                    -g
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Well-defined solve outcomes.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// An optimal solution was found.
    Optimal(Solution),
    /// The constraints admit no solution; a Farkas certificate is attached.
    Infeasible(Farkas),
    /// The objective is unbounded below over the feasible region.
    Unbounded,
}

#[cfg(test)]
impl Outcome {
    /// Test accessor; panics unless the outcome is `Optimal`.
    pub(crate) fn unwrap_optimal(self) -> Solution {
        match self {
            Outcome::Optimal(s) => s,
            Outcome::Infeasible(_) => panic!("LP infeasible, expected optimal"),
            Outcome::Unbounded => panic!("LP unbounded, expected optimal"),
        }
    }
}
