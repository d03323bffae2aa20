//! Dense two-phase primal simplex — the **test oracle**.
//!
//! Compiled only under `cfg(test)` or the `testgen` feature: the shipping
//! library has one engine ([`crate::revised`]). This one shares no code
//! with it, which is what makes it the specification side of the
//! dense-vs-revised cross-check suites.
//!
//! The solver canonicalises a [`Problem`] into equality
//! standard form `min c'v, Av = b, v ≥ 0, b ≥ 0`:
//!
//! * finite lower bounds are shifted away (`x = lb + x'`),
//! * variables with only a finite upper bound are mirrored (`x = ub − x'`),
//! * free variables are split (`x = x⁺ − x⁻`),
//! * finite upper bounds become explicit internal rows `x' ≤ ub − lb`,
//! * inequality rows gain slack/surplus columns,
//! * rows with negative right-hand sides are negated (tracked so that dual
//!   values are reported in the user's orientation),
//! * every row receives an initial identity column: its slack when usable,
//!   otherwise an artificial variable.
//!
//! Phase 1 minimises the sum of artificials. A strictly positive phase-1
//! optimum proves infeasibility and the phase-1 duals form a Farkas
//! certificate. Phase 2 then minimises the true objective with artificial
//! columns barred from entering the basis.
//!
//! Pricing is Dantzig's rule with an automatic switch to Bland's rule (which
//! cannot cycle) after a configurable number of iterations.

use crate::model::{Cmp, Problem};
use crate::simplex::{Farkas, Outcome, SimplexOptions, Solution, SolveError};

/// Numeric tolerance used throughout the solver.
const EPS: f64 = 1e-9;
/// Tolerance for declaring the phase-1 objective "zero" (feasible).
const FEAS_EPS: f64 = 1e-7;

/// How a user variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lb + column` (lb finite).
    Shifted { col: usize, lb: f64 },
    /// `x = ub − column` (only ub finite).
    Mirrored { col: usize, ub: f64 },
    /// `x = col_pos − col_neg` (both bounds infinite).
    Split { pos: usize, neg: usize },
}

struct Canonical {
    /// Number of structural columns (before slacks/artificials).
    n_struct: usize,
    var_map: Vec<VarMap>,
    /// Equality rows as dense coefficient vectors over structural columns.
    rows: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    /// +1.0 if the row kept its orientation, −1.0 if it was negated.
    row_sign: Vec<f64>,
    /// Original comparison per row (`Eq` for internal ub rows is `Le`).
    row_cmp: Vec<Cmp>,
    /// Number of user rows (the prefix); the rest are internal ub rows.
    n_user_rows: usize,
    /// Structural objective over columns.
    cost: Vec<f64>,
    /// Objective constant accumulated by shifts/mirrors + user constant.
    obj_constant: f64,
}

fn canonicalise(p: &Problem) -> Canonical {
    let n = p.num_vars();
    let mut var_map = Vec::with_capacity(n);
    let mut cost: Vec<f64> = Vec::new();
    let mut obj_constant = p.obj_constant;

    // Structural columns & bound bookkeeping.
    // ub_rows: (column, residual_ub)
    let mut ub_rows: Vec<(usize, f64)> = Vec::new();
    for j in 0..n {
        let (lb, ub, obj) = (p.lb[j], p.ub[j], p.cost[j]);
        if lb.is_finite() {
            let col = cost.len();
            cost.push(obj);
            obj_constant += obj * lb;
            var_map.push(VarMap::Shifted { col, lb });
            if ub.is_finite() {
                ub_rows.push((col, ub - lb));
            }
        } else if ub.is_finite() {
            // x = ub − x'; objective c·x = c·ub − c·x'.
            let col = cost.len();
            cost.push(-obj);
            obj_constant += obj * ub;
            var_map.push(VarMap::Mirrored { col, ub });
        } else {
            let pos = cost.len();
            cost.push(obj);
            let neg = cost.len();
            cost.push(-obj);
            var_map.push(VarMap::Split { pos, neg });
        }
    }
    let n_struct = cost.len();

    let n_user_rows = p.cons.len();
    let total_rows = n_user_rows + ub_rows.len();
    let mut rows = Vec::with_capacity(total_rows);
    let mut rhs = Vec::with_capacity(total_rows);
    let mut row_cmp = Vec::with_capacity(total_rows);

    for (c, &user_rhs) in p.cons.iter().zip(&p.rhs) {
        let mut dense = vec![0.0; n_struct];
        let mut b = user_rhs;
        for &(j, a) in &c.coeffs {
            match var_map[j] {
                VarMap::Shifted { col, lb } => {
                    dense[col] += a;
                    b -= a * lb;
                }
                VarMap::Mirrored { col, ub } => {
                    dense[col] -= a;
                    b -= a * ub;
                }
                VarMap::Split { pos, neg } => {
                    dense[pos] += a;
                    dense[neg] -= a;
                }
            }
        }
        rows.push(dense);
        rhs.push(b);
        row_cmp.push(c.cmp);
    }
    for &(col, residual) in &ub_rows {
        let mut dense = vec![0.0; n_struct];
        dense[col] = 1.0;
        rows.push(dense);
        rhs.push(residual);
        row_cmp.push(Cmp::Le);
    }

    let row_sign = vec![1.0; total_rows];
    Canonical {
        n_struct,
        var_map,
        rows,
        rhs,
        row_sign,
        row_cmp,
        n_user_rows,
        cost,
        obj_constant,
    }
}

/// Solve `p`; see crate-level docs for conventions.
pub fn solve(p: &Problem, options: &SimplexOptions) -> Result<Outcome, SolveError> {
    let mut canon = canonicalise(p);
    let m = canon.rows.len();
    let n_struct = canon.n_struct;

    // Column layout: [structural | slack/surplus (one per inequality row) |
    // artificial (one per row that needs it)] + rhs as a separate vector.
    // First pass: decide slack columns.
    let mut slack_col_of_row: Vec<Option<usize>> = vec![None; m];
    let mut n_cols = n_struct;
    for i in 0..m {
        match canon.row_cmp[i] {
            Cmp::Le | Cmp::Ge => {
                slack_col_of_row[i] = Some(n_cols);
                n_cols += 1;
            }
            Cmp::Eq => {}
        }
    }
    let n_slack_end = n_cols;

    // Normalise rhs ≥ 0 (flip row orientation where needed).
    for i in 0..m {
        if canon.rhs[i] < 0.0 {
            canon.rhs[i] = -canon.rhs[i];
            canon.row_sign[i] = -1.0;
            for a in canon.rows[i].iter_mut() {
                *a = -*a;
            }
        }
    }

    // Decide initial basis: a row can use its slack when the slack coefficient
    // is +1 after normalisation; i.e. `≤` rows not flipped or `≥` rows flipped.
    let mut art_col_of_row: Vec<Option<usize>> = vec![None; m];
    let mut basis: Vec<usize> = vec![usize::MAX; m];
    for i in 0..m {
        let slack_is_identity = match canon.row_cmp[i] {
            Cmp::Le => canon.row_sign[i] > 0.0,
            Cmp::Ge => canon.row_sign[i] < 0.0,
            Cmp::Eq => false,
        };
        match slack_col_of_row[i] {
            Some(sc) if slack_is_identity => basis[i] = sc,
            _ => {
                art_col_of_row[i] = Some(n_cols);
                basis[i] = n_cols;
                n_cols += 1;
            }
        }
    }
    // Identity column per row (used for dual extraction): the row's
    // artificial if it has one, else its slack, i.e. the initial basis.
    let id_col_of_row: Vec<usize> = basis.clone();

    // Build the tableau: m rows × (n_cols + 1), last column = rhs.
    let stride = n_cols + 1;
    let mut t = vec![0.0; m * stride];
    for i in 0..m {
        let base = i * stride;
        t[base..base + n_struct].copy_from_slice(&canon.rows[i]);
        if let Some(sc) = slack_col_of_row[i] {
            let coeff = match canon.row_cmp[i] {
                Cmp::Le => 1.0,
                Cmp::Ge => -1.0,
                Cmp::Eq => unreachable!(),
            };
            t[base + sc] = coeff * canon.row_sign[i];
        }
        if let Some(ac) = art_col_of_row[i] {
            t[base + ac] = 1.0;
        }
        t[base + n_cols] = canon.rhs[i];
    }

    // Phase-2 reduced-cost row (true objective) and phase-1 row (sum of
    // artificials). Both start as c_j − Σ_{basic} ..., computed by pricing out
    // the initial basis.
    let mut obj2 = vec![0.0; stride]; // includes rhs slot = −objective value
    obj2[..n_struct].copy_from_slice(&canon.cost[..n_struct]);
    let mut obj1 = vec![0.0; stride];
    let is_artificial = |j: usize| -> bool { j >= n_slack_end && j < n_cols };
    // Phase-1 costs: 1 on every artificial column, 0 elsewhere.
    for j in n_slack_end..n_cols {
        obj1[j] = 1.0;
    }
    // Price out: initial basic variables must have zero reduced cost.
    // Initial basis columns are identity, so subtract each basic row scaled by
    // the basic column's cost. Slack/artificial costs: phase2 = 0 for both;
    // phase1 = 1 for artificials.
    for i in 0..m {
        let b = basis[i];
        if is_artificial(b) {
            // phase-1 cost of artificial is 1
            let base = i * stride;
            for j in 0..stride {
                obj1[j] -= t[base + j];
            }
        }
        // phase-2 cost of slack and artificial columns is 0: nothing to do.
    }

    let mut iterations_left = options.max_iterations;
    let mut scratch: Vec<f64> = Vec::with_capacity(stride);

    // ---- Phase 1 ----
    let needs_phase1 = basis.iter().any(|&b| is_artificial(b));
    if needs_phase1 {
        let status = run_phase(
            &mut t,
            &mut obj1,
            Some(&mut obj2),
            &mut basis,
            m,
            n_cols,
            stride,
            |_j| true, // every column may enter in phase 1
            &mut iterations_left,
            options.bland_after,
            &mut scratch,
        )?;
        debug_assert!(
            !matches!(status, PhaseEnd::Unbounded),
            "phase-1 objective is bounded below by 0"
        );
        let phase1_obj = -obj1[n_cols];
        if phase1_obj > FEAS_EPS {
            // Infeasible: extract the Farkas certificate from phase-1 duals.
            // y_i = c1(id_col_i) − reduced_cost1(id_col_i); c1 = 1 for
            // artificials, 0 for slacks.
            let mut y_eq = vec![0.0; m];
            for i in 0..m {
                let idc = id_col_of_row[i];
                let c1 = if is_artificial(idc) { 1.0 } else { 0.0 };
                y_eq[i] = c1 - obj1[idc];
            }
            // Map to user orientation (undo row negation) and keep the user
            // rows (the internal upper-bound rows' multipliers are the bound
            // part, which `Farkas::ub_multipliers` prices from these). The
            // certificate satisfies y'b > 0 (phase-1 duals satisfy y'b =
            // phase1_obj > 0 already in normalised space).
            let row_multipliers = (0..canon.n_user_rows)
                .map(|i| y_eq[i] * canon.row_sign[i])
                .collect();
            return Ok(Outcome::Infeasible(Farkas { row_multipliers }));
        }
        // Feasible: drive any artificial still in the basis (at zero level)
        // out if possible; leave it if the row turned out redundant.
        for i in 0..m {
            if !is_artificial(basis[i]) {
                continue;
            }
            let base = i * stride;
            let mut pivot_col = None;
            for j in 0..n_slack_end {
                if t[base + j].abs() > 1e-7 {
                    pivot_col = Some(j);
                    break;
                }
            }
            if let Some(j) = pivot_col {
                pivot(
                    &mut t,
                    &mut obj1,
                    Some(&mut obj2),
                    &mut basis,
                    m,
                    stride,
                    i,
                    j,
                    &mut scratch,
                );
            }
        }
    }

    // ---- Phase 2 ----
    let status = run_phase(
        &mut t,
        &mut obj2,
        None,
        &mut basis,
        m,
        n_cols,
        stride,
        |j| !is_artificial(j),
        &mut iterations_left,
        options.bland_after,
        &mut scratch,
    )?;
    if matches!(status, PhaseEnd::Unbounded) {
        return Ok(Outcome::Unbounded);
    }

    // Extract the primal solution in user space.
    let mut col_val = vec![0.0; n_cols];
    for i in 0..m {
        col_val[basis[i]] = t[i * stride + n_cols];
    }
    let mut x = vec![0.0; p.num_vars()];
    for (j, vm) in canon.var_map.iter().enumerate() {
        x[j] = match *vm {
            VarMap::Shifted { col, lb } => lb + col_val[col],
            VarMap::Mirrored { col, ub } => ub - col_val[col],
            VarMap::Split { pos, neg } => col_val[pos] - col_val[neg],
        };
    }

    // Duals: y_i = c2(id_col_i) − reduced_cost2(id_col_i); slack/artificial
    // phase-2 costs are zero.
    let mut duals = vec![0.0; canon.n_user_rows];
    for i in 0..canon.n_user_rows {
        let idc = id_col_of_row[i];
        duals[i] = (0.0 - obj2[idc]) * canon.row_sign[i];
    }

    // Objective: structural costs over column values, plus the constant.
    let mut objective = canon.obj_constant;
    for j in 0..n_struct {
        objective += canon.cost[j] * col_val[j];
    }

    Ok(Outcome::Optimal(Solution {
        objective,
        x,
        duals,
    }))
}

enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// Runs simplex pivots on the given objective row until optimality or
/// unboundedness. `aux_obj` (if any) is kept up to date so that phase 2 can
/// continue from phase 1's basis.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    t: &mut [f64],
    obj: &mut [f64],
    mut aux_obj: Option<&mut Vec<f64>>,
    basis: &mut [usize],
    m: usize,
    n_cols: usize,
    stride: usize,
    may_enter: impl Fn(usize) -> bool,
    iterations_left: &mut usize,
    bland_after: usize,
    scratch: &mut Vec<f64>,
) -> Result<PhaseEnd, SolveError> {
    let mut local_iters = 0usize;
    loop {
        if *iterations_left == 0 {
            return Err(SolveError::IterationLimit);
        }
        let use_bland = local_iters >= bland_after;

        // Entering column.
        let mut enter: Option<usize> = None;
        if use_bland {
            for j in 0..n_cols {
                if may_enter(j) && obj[j] < -EPS {
                    enter = Some(j);
                    break;
                }
            }
        } else {
            let mut best = -EPS;
            for j in 0..n_cols {
                if may_enter(j) && obj[j] < best {
                    best = obj[j];
                    enter = Some(j);
                }
            }
        }
        let Some(e) = enter else {
            return Ok(PhaseEnd::Optimal);
        };

        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = t[i * stride + e];
            if a > EPS {
                let ratio = t[i * stride + n_cols] / a;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leave.is_none_or(|l| {
                            if use_bland {
                                basis[i] < basis[l]
                            } else {
                                // Prefer larger pivot elements for stability.
                                a > t[l * stride + e]
                            }
                        }));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(l) = leave else {
            return Ok(PhaseEnd::Unbounded);
        };

        pivot(
            t,
            obj,
            aux_obj.as_deref_mut(),
            basis,
            m,
            stride,
            l,
            e,
            scratch,
        );
        *iterations_left -= 1;
        local_iters += 1;
    }
}

/// Performs a full tableau pivot on (row, col), updating the objective rows.
/// `scratch` is a reusable buffer for the pivot-row snapshot, hoisted out of
/// the per-pivot path so the inner loops allocate nothing.
#[allow(clippy::too_many_arguments)]
fn pivot(
    t: &mut [f64],
    obj: &mut [f64],
    aux_obj: Option<&mut Vec<f64>>,
    basis: &mut [usize],
    m: usize,
    stride: usize,
    row: usize,
    col: usize,
    scratch: &mut Vec<f64>,
) {
    let base = row * stride;
    let piv = t[base + col];
    debug_assert!(piv.abs() > EPS, "pivot on (near-)zero element");
    let inv = 1.0 / piv;
    for j in 0..stride {
        t[base + j] *= inv;
    }
    // Snapshot the pivot row (into the caller's scratch buffer) to keep the
    // borrow checker happy and the inner loop tight.
    scratch.clear();
    scratch.extend_from_slice(&t[base..base + stride]);
    let pivot_row: &[f64] = scratch;
    for i in 0..m {
        if i == row {
            continue;
        }
        let f = t[i * stride + col];
        if f.abs() > EPS {
            let ibase = i * stride;
            for j in 0..stride {
                t[ibase + j] -= f * pivot_row[j];
            }
            t[ibase + col] = 0.0; // kill round-off exactly
        }
    }
    let f = obj[col];
    if f.abs() > EPS {
        for j in 0..stride {
            obj[j] -= f * pivot_row[j];
        }
        obj[col] = 0.0;
    }
    if let Some(aux) = aux_obj {
        let f = aux[col];
        if f.abs() > EPS {
            for j in 0..stride {
                aux[j] -= f * pivot_row[j];
            }
            aux[col] = 0.0;
        }
    }
    basis[row] = col;
}
