//! Problem builder: variables with bounds, sparse linear constraints, and a
//! linear minimisation objective.

use crate::revised::{Basis, LpStats, Structure, WarmChain, WarmSolve};
use crate::simplex::{Outcome, SimplexOptions, Solution, SolveError};
use crate::sparse::SparseMatrix;
use std::sync::{Arc, OnceLock};

/// Handle to a decision variable, returned by [`Problem::add_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint, returned by [`Problem::add_cons`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConsId(pub(crate) usize);

impl ConsId {
    /// Index of the constraint in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Comparison sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

impl Cmp {
    /// Bounds of the row's logical column `s` in `a·x + s = b`.
    fn logical_bounds(self) -> (f64, f64) {
        match self {
            Cmp::Le => (0.0, f64::INFINITY),
            Cmp::Ge => (f64::NEG_INFINITY, 0.0),
            Cmp::Eq => (0.0, 0.0),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ConsDef {
    /// Sparse row: (variable index, coefficient). Duplicate variables are
    /// summed during canonicalisation.
    pub coeffs: Vec<(usize, f64)>,
    pub cmp: Cmp,
}

/// A linear program `min c'x + k` over variables with box bounds and sparse
/// linear constraints.
///
/// The values are held in the one form the revised engine reads (see the
/// `revised` module docs): `lb`, `ub` and `cost` run over all `n + m`
/// columns — the `n` variables in creation order, then one *logical* column
/// per constraint carrying the bounds of its sense and cost 0 — and `rhs`
/// over the `m` rows. Editing is a store into those arrays
/// ([`Problem::set_bounds`], [`Problem::set_rhs`], `Problem::set_objective`)
/// or a push ([`Problem::add_cons`]); only [`Problem::add_var`] after a
/// constraint shifts anything, the logicals moving up by one. A solve
/// borrows the arrays as they stand.
///
/// The first solve after a **structural** edit ([`Problem::add_var`],
/// [`Problem::add_cons`], `Problem::add_column`) assembles the matrix
/// structure (CSC matrix, CSR pattern, fingerprint) once and keeps it behind
/// an `Arc`; value edits and `clone()` keep it, so a re-solve after such
/// edits sets up in `O(1)`. A clone copies the arrays and the row lists
/// (`O(nonzeros)`) and shares the structure — the MILP branch and bound
/// clones once per search and only edits bounds per node.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    /// Lower bound per column: variables, then logicals.
    pub(crate) lb: Vec<f64>,
    /// Upper bound per column.
    pub(crate) ub: Vec<f64>,
    /// Objective coefficient per column (0 for logicals).
    pub(crate) cost: Vec<f64>,
    /// Right-hand side per constraint.
    pub(crate) rhs: Vec<f64>,
    /// The rows: coefficients and sense per constraint.
    pub(crate) cons: Vec<ConsDef>,
    /// Constant added to the objective (bookkeeping for shifted bounds and
    /// model-level constants such as Benders' fixed master terms).
    pub(crate) obj_constant: f64,
    /// The canonical structure of `cons`, built on first use and dropped by
    /// every edit that changes the matrix — see [`Problem::structure`].
    structure: OnceLock<Arc<Structure>>,
}

impl Problem {
    /// Creates an empty problem (minimisation, zero objective constant).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `lb ≤ x ≤ ub` and objective coefficient
    /// `obj`. Use `f64::NEG_INFINITY` / `f64::INFINITY` for free directions.
    ///
    /// # Panics
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN variable bound");
        assert!(
            lb <= ub,
            "variable lower bound {lb} exceeds upper bound {ub}"
        );
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.structure.take();
        let n = self.num_vars();
        self.lb.insert(n, lb);
        self.ub.insert(n, ub);
        self.cost.insert(n, obj);
        VarId(n)
    }

    /// Adds the constraint `Σ coeff_i · var_i  cmp  rhs`.
    ///
    /// Duplicate variable entries are allowed and are summed.
    ///
    /// # Panics
    /// Panics if any coefficient or the rhs is non-finite.
    pub fn add_cons(&mut self, coeffs: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> ConsId {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut row = Vec::with_capacity(coeffs.len());
        for &(v, c) in coeffs {
            assert!(c.is_finite(), "constraint coefficient must be finite");
            assert!(v.0 < self.num_vars(), "unknown variable in constraint");
            row.push((v.0, c));
        }
        self.structure.take();
        let (lb, ub) = cmp.logical_bounds();
        self.lb.push(lb);
        self.ub.push(ub);
        self.cost.push(0.0);
        self.rhs.push(rhs);
        self.cons.push(ConsDef { coeffs: row, cmp });
        ConsId(self.cons.len() - 1)
    }

    /// Adds a variable together with its coefficients in *existing*
    /// constraints — the column-growth dual of [`Problem::add_cons`]. No row
    /// is rebuilt and every previously stored [`Basis`](crate::Basis) stays
    /// adaptable (the new column enters nonbasic on a bound).
    ///
    /// Duplicate constraint entries are allowed and are summed.
    ///
    /// # Panics
    /// Panics on NaN/inverted bounds, a non-finite objective or coefficient,
    /// or an unknown constraint handle.
    #[cfg(test)]
    pub(crate) fn add_column(
        &mut self,
        lb: f64,
        ub: f64,
        obj: f64,
        coeffs: &[(ConsId, f64)],
    ) -> VarId {
        let v = self.add_var(lb, ub, obj);
        for &(c, a) in coeffs {
            assert!(a.is_finite(), "column coefficient must be finite");
            assert!(c.0 < self.cons.len(), "unknown constraint in column");
            self.cons[c.0].coeffs.push((v.0, a));
        }
        v
    }

    /// Adds `k` to the objective function (useful to keep reported objective
    /// values aligned with a paper formulation).
    #[cfg(test)]
    pub(crate) fn add_objective_constant(&mut self, k: f64) {
        assert!(k.is_finite());
        self.obj_constant += k;
    }

    /// Returns the current number of variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.lb.len() - self.cons.len()
    }

    /// Returns the current number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// The column of `var`, checked: past the variables the arrays go on
    /// into the logicals, which no handle may reach.
    fn col(&self, var: VarId) -> usize {
        assert!(var.0 < self.num_vars(), "unknown variable");
        var.0
    }

    /// Iterates the handles of all variables in creation order (handles are
    /// stable — variables are never removed).
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.num_vars()).map(VarId)
    }

    /// Overrides the bounds of an existing variable (used by branch-and-bound
    /// to fix binaries at nodes).
    ///
    /// # Panics
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN variable bound");
        assert!(
            lb <= ub,
            "variable lower bound {lb} exceeds upper bound {ub}"
        );
        let j = self.col(var);
        self.lb[j] = lb;
        self.ub[j] = ub;
    }

    /// Returns the bounds of a variable.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let j = self.col(var);
        (self.lb[j], self.ub[j])
    }

    /// Overrides the objective coefficient of an existing variable.
    #[cfg(test)]
    pub(crate) fn set_objective(&mut self, var: VarId, obj: f64) {
        assert!(obj.is_finite());
        let j = self.col(var);
        self.cost[j] = obj;
    }

    /// Overrides the right-hand side of an existing constraint (used by the
    /// Benders slave to re-price a new admission vector without rebuilding
    /// the program — the row structure, and therefore any stored
    /// [`Basis`](crate::Basis), is preserved).
    ///
    /// # Panics
    /// Panics if `rhs` is non-finite.
    pub fn set_rhs(&mut self, cons: ConsId, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.rhs[cons.0] = rhs;
    }

    /// Builds the structural constraint matrix (`num_cons × num_vars`) in
    /// compressed-sparse-column form: duplicate row entries are summed and
    /// zero coefficients dropped. This is the matrix representation the
    /// revised engine (and its sparse LU) works on. Every call assembles it
    /// from the rows (`O(nonzeros)`, a counting sort by column into one flat
    /// array); solves go through the copy cached since the last structural
    /// edit instead.
    pub fn structural_matrix(&self) -> SparseMatrix {
        let n = self.num_vars();
        let mut col_start = vec![0usize; n + 1];
        for c in &self.cons {
            for &(j, _) in &c.coeffs {
                col_start[j + 1] += 1;
            }
        }
        for j in 0..n {
            col_start[j + 1] += col_start[j];
        }
        let mut fill = col_start[..n].to_vec();
        let mut entries = vec![(0u32, 0.0f64); col_start[n]];
        for (i, c) in self.cons.iter().enumerate() {
            // Rows are visited in order, so each column's slice fills sorted;
            // duplicate entries within a row land adjacent and the CSC
            // constructor sums them (dropping exact-zero results).
            for &(j, a) in &c.coeffs {
                entries[fill[j]] = (i as u32, a);
                fill[j] += 1;
            }
        }
        SparseMatrix::from_flat_columns(self.cons.len(), &col_start, &entries)
    }

    /// Dot product of a row-space vector (one entry per constraint) with a
    /// variable's column of the constraint matrix, read from the cached
    /// structure: `Σ_i y_i·a_{i,var}` over the column's nonzeros in
    /// ascending row order. How callers price reduced costs and Farkas
    /// residuals without keeping their own copy of the columns.
    pub fn col_dot(&self, y: &[f64], var: VarId) -> f64 {
        self.structure().a.col_dot(y, var.0)
    }

    /// The variables with a nonzero coefficient in a constraint, ascending
    /// (the cached row pattern of the constraint matrix).
    pub fn row_vars(&self, cons: ConsId) -> impl Iterator<Item = VarId> + '_ {
        let s = self.structure();
        let (lo, hi) = (s.row_ptr[cons.0] as usize, s.row_ptr[cons.0 + 1] as usize);
        s.row_cols[lo..hi].iter().map(|&j| VarId(j as usize))
    }

    /// The canonical structure of the constraint matrix, assembled from
    /// [`Problem::structural_matrix`] on first use after a structural edit
    /// and shared from then on (also with clones taken in between).
    pub(crate) fn structure(&self) -> &Arc<Structure> {
        self.structure
            .get_or_init(|| Arc::new(Structure::build(self)))
    }

    /// Solves the program cold with default simplex options, through a
    /// fresh [`WarmChain`].
    pub fn solve(&self) -> Result<Outcome, SolveError> {
        let (outcome, _) = self.resolve(&mut WarmChain::new(), &SimplexOptions::default())?;
        Ok(outcome)
    }

    /// Solves the program, resuming from `warm` when supplied; returns the
    /// outcome plus a basis reusable for the next perturbed solve (see the
    /// crate docs for the warm-start contract). Default simplex options,
    /// through a fresh chain's [`WarmChain::solve_from`] — a loop of solves
    /// keeps one chain and calls that, or [`Problem::resolve`] to resume in
    /// place.
    pub fn solve_warm(&self, warm: Option<&Basis>) -> Result<WarmSolve, SolveError> {
        WarmChain::new().solve_from(self, warm, &SimplexOptions::default())
    }

    /// Solves the program continuing from `chain`: the basis, factorization
    /// and buffers the chain's previous solve left behind (or the
    /// [`Basis`] it [loaded](WarmChain::load)) are picked up in place, and
    /// this solve's are left for the next. The one way into the engine. A
    /// fresh or [cleared](WarmChain::clear) chain solves cold; an `Err`
    /// leaves the chain cold.
    pub fn resolve(
        &self,
        chain: &mut WarmChain,
        options: &SimplexOptions,
    ) -> Result<(Outcome, LpStats), SolveError> {
        crate::revised::solve_state(self, chain, options)
    }
}

/// What [`certify_unique`] proves about an optimum `s` of `p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uniqueness {
    /// The optimum *and* its optimal basis are unique — the precondition
    /// for basis-start-independent re-solves (any simplex path, warm or
    /// cold, must terminate in the identical state).
    Basis,
    /// The optimal decision `s.x` is unique, but the optimal basis, and
    /// hence the dual vector, may not be. Consumers of dual certificates
    /// (e.g. Benders optimality cuts) need [`Uniqueness::Basis`].
    Decision,
    /// Neither could be certified. Both checks are conservative
    /// (sufficient, not necessary): `Unproven` for a genuinely unique
    /// optimum only costs the caller a fallback, never correctness.
    Unproven,
}

/// Certifies how unique the optimum `s` of `p` is. One sweep over the
/// nonzeros computes the reduced costs `d_j = c_j − y'A_j`; the strict
/// basis test runs first and the decision test only when it fails.
///
/// **Basis** demands strict complementarity at the KKT point:
///
/// * every variable resting on a bound has a strictly nonzero reduced cost
///   (dual nondegeneracy: no zero-cost direction into the feasible box,
///   and a basic-at-bound column — whose `d_j` is zero — is rejected as
///   primal-degenerate);
/// * every tight inequality row carries a strictly nonzero multiplier
///   (a tight row with `y_i ≈ 0` either admits an alternative optimum or
///   hides a degenerate basic slack).
///
/// Fixed variables (`lb == ub`) and equality rows have no freedom and are
/// skipped.
///
/// **Decision** widens this for degenerate optima, the normal case for
/// LPs built from exchangeable columns (many identical requests): a
/// capacity row can sit exactly tight with a zero multiplier, or a basic
/// variable can rest on its bound, so strict complementarity fails even
/// though every optimum has the same `x`. The test reasons about the
/// optimal *face* instead, mimicking what an infinitesimal lexicographic
/// perturbation of the bounds would reveal:
///
/// 1. Complementary slackness with the one known optimal dual `y` holds
///    between *every* primal optimum and *every* dual optimum, so a
///    variable with a strictly nonzero reduced cost is pinned to the bound
///    it currently rests on at every optimum. Fixed variables are pinned
///    trivially.
/// 2. Equality rows, and inequality rows with `|y_i| > tol`, are tight at
///    every optimum (the optimal face lies inside them).
/// 3. A face row whose nonzeros cover exactly one unpinned column
///    determines that column; propagate to a fixed point.
///
/// It succeeds iff every variable ends up pinned. A tight row with a zero
/// dual is simply *not* a face row and costs nothing, while genuine
/// alternative optima (exchangeable columns sharing a binding row with
/// equal costs) leave columns unpinned and are refused.
pub fn certify_unique(p: &Problem, s: &Solution) -> Uniqueness {
    let d = reduced_costs(p, s);
    if unique_basis(p, s, &d) {
        Uniqueness::Basis
    } else if unique_decision(p, s, &d) {
        Uniqueness::Decision
    } else {
        Uniqueness::Unproven
    }
}

/// Tolerance of both uniqueness tests.
const CERTIFY_TOL: f64 = 1e-7;

/// Reduced costs `d_j = c_j − y'A_j` of `s`, in one sweep over the
/// nonzeros.
pub(crate) fn reduced_costs(p: &Problem, s: &Solution) -> Vec<f64> {
    let mut d: Vec<f64> = p.cost[..p.num_vars()].to_vec();
    for (i, cons) in p.cons.iter().enumerate() {
        let y = s.duals[i];
        if y != 0.0 {
            for &(j, a) in &cons.coeffs {
                d[j] -= y * a;
            }
        }
    }
    d
}

/// Whether `x` rests on one of the finite bounds `lb`, `ub`.
fn at_bound(x: f64, lb: f64, ub: f64) -> bool {
    let at_lower = lb.is_finite() && (x - lb).abs() <= CERTIFY_TOL * (1.0 + lb.abs());
    let at_upper = ub.is_finite() && (ub - x).abs() <= CERTIFY_TOL * (1.0 + ub.abs());
    at_lower || at_upper
}

/// The strict-complementarity test of [`Uniqueness::Basis`]; `d` holds
/// the reduced costs of `s`.
fn unique_basis(p: &Problem, s: &Solution, d: &[f64]) -> bool {
    for (j, &dj) in d.iter().enumerate() {
        let (lb, ub) = (p.lb[j], p.ub[j]);
        if lb == ub {
            continue;
        }
        if at_bound(s.x[j], lb, ub) && dj.abs() <= CERTIFY_TOL * (1.0 + p.cost[j].abs()) {
            return false;
        }
    }
    for (i, cons) in p.cons.iter().enumerate() {
        if matches!(cons.cmp, Cmp::Eq) {
            continue;
        }
        let activity: f64 = cons.coeffs.iter().map(|&(j, a)| a * s.x[j]).sum();
        let tight = (activity - p.rhs[i]).abs() <= CERTIFY_TOL * (1.0 + p.rhs[i].abs());
        if tight && s.duals[i].abs() <= CERTIFY_TOL {
            return false;
        }
    }
    true
}

/// The face-propagation test of [`Uniqueness::Decision`]; `d` holds the
/// reduced costs of `s`.
pub(crate) fn unique_decision(p: &Problem, s: &Solution, d: &[f64]) -> bool {
    let n = d.len();
    let mut pinned = vec![false; n];
    let mut unpinned = 0usize;
    for (j, &dj) in d.iter().enumerate() {
        let (lb, ub) = (p.lb[j], p.ub[j]);
        if lb == ub {
            pinned[j] = true;
            continue;
        }
        if dj.abs() > CERTIFY_TOL * (1.0 + p.cost[j].abs()) {
            if at_bound(s.x[j], lb, ub) {
                pinned[j] = true;
                continue;
            }
            // A strictly nonzero reduced cost away from both bounds
            // contradicts optimality — numerically suspect, refuse.
            return false;
        }
        unpinned += 1;
    }
    if unpinned == 0 {
        return true;
    }
    // Rows tight at every optimum: the optimal face lives inside them.
    let face: Vec<usize> = p
        .cons
        .iter()
        .enumerate()
        .filter(|(i, c)| matches!(c.cmp, Cmp::Eq) || s.duals[*i].abs() > CERTIFY_TOL)
        .map(|(i, _)| i)
        .collect();
    loop {
        let mut progress = false;
        for &i in &face {
            let mut free = 0usize;
            let mut last = usize::MAX;
            for &(j, a) in &p.cons[i].coeffs {
                if a != 0.0 && !pinned[j] {
                    free += 1;
                    last = j;
                }
            }
            if free == 1 {
                pinned[last] = true;
                unpinned -= 1;
                progress = true;
            }
        }
        if unpinned == 0 {
            return true;
        }
        if !progress {
            return false;
        }
    }
}
