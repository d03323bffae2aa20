//! Unit tests and dense-tableau cross-checks for the revised engine.

use crate::revised::{Basis, LpStats, WarmChain};
use crate::simplex::Farkas;
use crate::simplex::{FaultConfig, SimplexOptions};
use crate::{Cmp, ConsId, Outcome, Problem, SolveError, VarId};

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
}

fn solve_r(p: &Problem) -> Outcome {
    p.solve().unwrap()
}

/// The dense-tableau oracle, default options.
fn solve_dense(p: &Problem) -> Result<Outcome, SolveError> {
    crate::dense::solve(p, &SimplexOptions::default())
}

// ------------------------------------------------------------ basic solves

#[test]
fn bounds_only_no_rows() {
    // min 2x − 3y with 0 ≤ x ≤ 5, 0 ≤ y ≤ 7 → x = 0, y = 7.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 5.0, 2.0);
    let y = p.add_var(0.0, 7.0, -3.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.value(x), 0.0, 1e-9);
    assert_close(s.value(y), 7.0, 1e-9);
    assert_close(s.objective, -21.0, 1e-9);
}

#[test]
fn textbook_max_problem() {
    // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), 36.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -3.0);
    let y = p.add_var(0.0, f64::INFINITY, -5.0);
    p.add_cons(&[(x, 1.0)], Cmp::Le, 4.0);
    p.add_cons(&[(y, 2.0)], Cmp::Le, 12.0);
    p.add_cons(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.objective, -36.0, 1e-7);
    assert_close(s.value(x), 2.0, 1e-7);
    assert_close(s.value(y), 6.0, 1e-7);
}

#[test]
fn native_upper_bounds_no_extra_rows() {
    // The dense engine needs an internal row per finite ub; the revised
    // engine must handle them as pure bound flips.
    let mut p = Problem::new();
    let vars: Vec<VarId> = (0..6)
        .map(|i| p.add_var(0.0, 1.0 + i as f64, -1.0))
        .collect();
    let row: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
    p.add_cons(&row, Cmp::Le, 100.0); // slack: all vars go to their ubs
    let s = solve_r(&p).unwrap_optimal();
    for (i, &v) in vars.iter().enumerate() {
        assert_close(s.value(v), 1.0 + i as f64, 1e-9);
    }
}

#[test]
fn equality_and_ge_rows_need_phase1() {
    // min x + y s.t. x + y = 10, x − y ≥ 2 → obj = 10.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 1.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
    p.add_cons(&[(x, 1.0), (y, -1.0)], Cmp::Ge, 2.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.objective, 10.0, 1e-7);
    assert!(s.value(x) - s.value(y) >= 2.0 - 1e-7);
}

#[test]
fn free_variables_handled_natively() {
    let mut p = Problem::new();
    let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0)], Cmp::Ge, -5.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.value(x), -5.0, 1e-9);

    // Square equality system over two free variables.
    let mut p = Problem::new();
    let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
    let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
    p.add_cons(&[(x, 2.0), (y, 1.0)], Cmp::Eq, 5.0);
    p.add_cons(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.value(x), 2.0, 1e-7);
    assert_close(s.value(y), 1.0, 1e-7);
}

#[test]
fn negative_and_fixed_bounds() {
    let mut p = Problem::new();
    let x = p.add_var(-4.0, -1.0, 1.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.value(x), -4.0, 1e-9);

    let mut p = Problem::new();
    let x = p.add_var(2.5, 2.5, 1.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.value(x), 2.5, 1e-9);
    assert_close(s.value(y), 1.5, 1e-9);
}

#[test]
fn unbounded_detected() {
    let mut p = Problem::new();
    let _x = p.add_var(0.0, f64::INFINITY, -1.0);
    assert!(matches!(solve_r(&p), Outcome::Unbounded));

    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -2.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
    assert!(matches!(solve_r(&p), Outcome::Unbounded));
}

#[test]
fn degenerate_beale_does_not_cycle() {
    let mut p = Problem::new();
    let x1 = p.add_var(0.0, f64::INFINITY, -0.75);
    let x2 = p.add_var(0.0, f64::INFINITY, 150.0);
    let x3 = p.add_var(0.0, f64::INFINITY, -0.02);
    let x4 = p.add_var(0.0, f64::INFINITY, 6.0);
    p.add_cons(
        &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Cmp::Le,
        0.0,
    );
    p.add_cons(
        &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Cmp::Le,
        0.0,
    );
    p.add_cons(&[(x3, 1.0)], Cmp::Le, 1.0);
    let opts = SimplexOptions {
        max_iterations: 10_000,
        bland_after: 16,
        ..SimplexOptions::default()
    };
    let s = WarmChain::new()
        .solve_from(&p, None, &opts)
        .unwrap()
        .outcome
        .unwrap_optimal();
    assert_close(s.objective, -0.05, 1e-7);
}

#[test]
fn duals_match_convention() {
    // min −x s.t. x ≤ 3 → dual −1 on the ≤ row.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -1.0);
    let c = p.add_cons(&[(x, 1.0)], Cmp::Le, 3.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.value(x), 3.0, 1e-9);
    assert_close(s.duals[c.index()], -1.0, 1e-9);

    // Diet LP: duals ≥ 0 on ≥ rows with strong duality.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 0.6);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    let c1 = p.add_cons(&[(x, 10.0), (y, 4.0)], Cmp::Ge, 20.0);
    let c2 = p.add_cons(&[(x, 5.0), (y, 5.0)], Cmp::Ge, 20.0);
    let s = solve_r(&p).unwrap_optimal();
    assert_close(s.objective, 2.4, 1e-6);
    assert!(s.duals[c1.index()] >= -1e-9 && s.duals[c2.index()] >= -1e-9);
    assert_close(
        s.duals[c1.index()] * 20.0 + s.duals[c2.index()] * 20.0,
        s.objective,
        1e-6,
    );
}

#[test]
fn infeasible_row_certificate() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0)], Cmp::Le, -1.0);
    match solve_r(&p) {
        Outcome::Infeasible(f) => assert!(f.row_multipliers[0] < -1e-9),
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn infeasible_via_native_upper_bounds() {
    // x ≤ 2, y ≤ 2, x + y ≥ 5: the certificate must lean on ub multipliers.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 2.0, 0.0);
    let y = p.add_var(0.0, 2.0, 0.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
    match solve_r(&p) {
        Outcome::Infeasible(f) => {
            let yr = f.row_multipliers[0];
            let w = f.ub_multipliers(&p);
            let (wx, wy) = (w[0], w[1]);
            assert!(yr >= -1e-9);
            assert!(wx <= 1e-9 && wy <= 1e-9);
            assert!(
                yr * 5.0 + 2.0 * wx + 2.0 * wy > 1e-7,
                "certificate must separate"
            );
            assert!(yr + wx <= 1e-7 && yr + wy <= 1e-7, "columns must price out");
        }
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn empty_and_trivial_rows() {
    let p = Problem::new();
    assert_close(solve_r(&p).unwrap_optimal().objective, 0.0, 1e-12);

    let mut p = Problem::new();
    let _x = p.add_var(0.0, 1.0, 1.0);
    p.add_cons(&[], Cmp::Le, 5.0);
    assert!(matches!(solve_r(&p), Outcome::Optimal(_)));
    p.add_cons(&[], Cmp::Ge, 5.0);
    assert!(matches!(solve_r(&p), Outcome::Infeasible(_)));
}

// ------------------------------------------------------------- warm starts

#[test]
fn warm_start_after_bound_tightening_uses_dual_simplex() {
    // A fractional knapsack relaxation, then "branch": fix a variable to 0.
    let mut p = Problem::new();
    let a = p.add_var(0.0, 1.0, -10.0);
    let b = p.add_var(0.0, 1.0, -13.0);
    let c = p.add_var(0.0, 1.0, -7.0);
    p.add_cons(&[(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);

    let cold = p.solve_warm(None).unwrap();
    let cold_obj = cold.outcome.clone().unwrap_optimal().objective;
    assert!(cold.stats.cold_starts == 1 && cold.stats.warm_starts == 0);

    p.set_bounds(a, 0.0, 0.0);
    let warm = p.solve_warm(Some(&cold.basis)).unwrap();
    assert_eq!(warm.stats.warm_starts, 1);
    assert_eq!(
        warm.stats.phase1_pivots, 0,
        "warm restart must skip phase 1"
    );
    let warm_obj = warm.outcome.clone().unwrap_optimal().objective;

    // Reference: cold solve of the modified problem.
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(warm_obj, reference, 1e-7);
    assert!(
        warm_obj >= cold_obj - 1e-9,
        "tightening cannot improve the optimum"
    );
}

#[test]
fn warm_start_after_rhs_change() {
    // Benders-slave shape: re-price after the RHS moves.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -3.0);
    let y = p.add_var(0.0, f64::INFINITY, -2.0);
    let cap1 = p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
    let cap2 = p.add_cons(&[(x, 2.0), (y, 1.0)], Cmp::Le, 15.0);
    let first = p.solve_warm(None).unwrap();

    p.set_rhs(cap1, 8.0);
    p.set_rhs(cap2, 18.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.warm_starts, 1);
    assert_eq!(warm.stats.phase1_pivots, 0);
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(warm.outcome.unwrap_optimal().objective, reference, 1e-7);
}

#[test]
fn warm_start_after_appending_cut_rows() {
    // Benders-master shape: rows append, basis extends with their logicals.
    let mut p = Problem::new();
    let u1 = p.add_var(0.0, 1.0, -5.0);
    let u2 = p.add_var(0.0, 1.0, -4.0);
    let theta = p.add_var(-100.0, f64::INFINITY, 1.0);
    p.add_cons(&[(u1, 1.0), (u2, 1.0)], Cmp::Le, 2.0);
    let first = p.solve_warm(None).unwrap();

    // "Optimality cut": θ ≥ 3·u1 + 2·u2 − 50.
    p.add_cons(&[(theta, -1.0), (u1, 3.0), (u2, 2.0)], Cmp::Le, 50.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.warm_starts, 1);
    assert_eq!(warm.stats.phase1_pivots, 0);
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(
        warm.outcome.clone().unwrap_optimal().objective,
        reference,
        1e-7,
    );

    // A second cut on top of the warm basis.
    p.add_cons(&[(theta, -1.0), (u1, 1.0), (u2, 6.0)], Cmp::Le, 49.0);
    let warm2 = p.solve_warm(Some(&warm.basis)).unwrap();
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(warm2.outcome.unwrap_optimal().objective, reference, 1e-7);
}

#[test]
fn warm_start_detecting_infeasible_node() {
    // Branch into an empty region: warm restart must certify infeasibility.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, -1.0);
    let y = p.add_var(0.0, 1.0, -1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 1.5);
    let first = p.solve_warm(None).unwrap();
    assert!(matches!(first.outcome, Outcome::Optimal(_)));

    p.set_bounds(x, 0.0, 0.0);
    p.set_bounds(y, 0.0, 0.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert!(matches!(warm.outcome, Outcome::Infeasible(_)));
}

#[test]
fn grown_column_space_stays_warm() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, -1.0);
    p.add_cons(&[(x, 1.0)], Cmp::Le, 1.0);
    let first = p.solve_warm(None).unwrap();

    // Adding a variable (and a row) grows the shape: the basis adapts —
    // the new column enters nonbasic, the new row's logical joins the
    // basis — instead of falling back to a cold start.
    let y = p.add_var(0.0, 1.0, -1.0);
    p.add_cons(&[(y, 1.0)], Cmp::Le, 1.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.warm_starts, 1);
    assert_eq!(warm.stats.cold_starts, 0);
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(warm.outcome.unwrap_optimal().objective, reference, 1e-7);
}

#[test]
fn added_column_into_existing_rows_stays_warm() {
    // The cross-epoch shape: a persistent program gains a column with
    // coefficients in rows that already exist (an arriving tenant), and a
    // previously useful column is clamped to zero (a departure).
    let mut p = Problem::new();
    let x = p.add_var(0.0, 4.0, -1.0);
    let cap = p.add_cons(&[(x, 1.0)], Cmp::Le, 3.0);
    let first = p.solve_warm(None).unwrap();
    assert_close(first.outcome.clone().unwrap_optimal().objective, -3.0, 1e-9);

    let y = p.add_column(0.0, 4.0, -2.0, &[(cap, 1.0)]);
    p.set_bounds(x, 0.0, 0.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.warm_starts, 1);
    let sol = warm.outcome.unwrap_optimal();
    assert_close(sol.objective, -6.0, 1e-9);
    assert_close(sol.x[y.index()], 3.0, 1e-9);
    assert_close(sol.x[x.index()], 0.0, 1e-9);
}

#[test]
fn incompatible_basis_falls_back_to_cold() {
    // A basis from a problem with *more* variables than the one being
    // solved cannot adapt: shrunk shapes force a cold start.
    let mut big = Problem::new();
    let x = big.add_var(0.0, 1.0, -1.0);
    let y = big.add_var(0.0, 1.0, -1.0);
    big.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
    let first = big.solve_warm(None).unwrap();

    let mut small = Problem::new();
    let z = small.add_var(0.0, 1.0, -1.0);
    small.add_cons(&[(z, 1.0)], Cmp::Le, 1.0);
    let warm = small.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.cold_starts, 1);
    assert_eq!(warm.stats.warm_starts, 0);
    assert!(matches!(warm.outcome, Outcome::Optimal(_)));
}

#[test]
fn objective_change_falls_back_to_primal_warm() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 10.0, -1.0);
    let y = p.add_var(0.0, 10.0, -2.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 12.0);
    let first = p.solve_warm(None).unwrap();

    // Flip the preference: the stored basis is no longer dual feasible.
    p.set_objective(x, -5.0);
    p.set_objective(y, -1.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    let reference = solve_r(&p).unwrap_optimal();
    assert_close(
        warm.outcome.unwrap_optimal().objective,
        reference.objective,
        1e-7,
    );
}

#[test]
fn long_warm_chain_stays_exact() {
    // Drive one problem through many RHS perturbations, always warm; each
    // solve must agree with a cold reference solve.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 8.0, -3.0);
    let y = p.add_var(0.0, 8.0, -5.0);
    let z = p.add_var(0.0, 8.0, -4.0);
    let r1 = p.add_cons(&[(x, 1.0), (y, 2.0), (z, 1.0)], Cmp::Le, 14.0);
    let r2 = p.add_cons(&[(x, 3.0), (y, 0.0), (z, 2.0)], Cmp::Le, 12.0);
    let r3 = p.add_cons(&[(x, 1.0), (y, 4.0), (z, 0.0)], Cmp::Le, 16.0);

    let mut basis: Option<Basis> = None;
    let mut stats = LpStats::default();
    for k in 0..40 {
        let t = k as f64;
        p.set_rhs(r1, 10.0 + 4.0 * ((0.37 * t).sin().abs()));
        p.set_rhs(r2, 8.0 + 6.0 * ((0.53 * t).cos().abs()));
        p.set_rhs(r3, 12.0 + 5.0 * ((0.71 * t).sin().abs()));
        let w = p.solve_warm(basis.as_ref()).unwrap();
        stats.absorb(&w.stats);
        let warm_obj = w.outcome.clone().unwrap_optimal().objective;
        let cold_obj = solve_r(&p).unwrap_optimal().objective;
        assert_close(warm_obj, cold_obj, 1e-6);
        basis = Some(w.basis);
    }
    assert_eq!(stats.warm_starts, 39);
    assert_eq!(stats.cold_starts, 1);
}

// ---------------------------------------- dense-tableau cross-check (prop)
//
// The random LPs come from the shared fixture generator
// (`crate::revised::gen`), which the integration cross-checks reuse — one
// generator for every test layer.

use crate::revised::gen::{random_bound_edit, random_lp, GenRng, LpGenConfig};

/// Strong-duality + complementary-slackness validation of a solution.
fn check_solution(p: &Problem, obj: f64, x: &[f64], duals: &[f64], tag: &str) {
    let tol = 1e-5;
    // Primal feasibility.
    for j in 0..p.num_vars() {
        assert!(
            x[j] >= p.lb[j] - tol && x[j] <= p.ub[j] + tol,
            "{tag}: x[{j}] = {} outside [{}, {}]",
            x[j],
            p.lb[j],
            p.ub[j]
        );
    }
    let mut dual_obj_rows = 0.0;
    for (i, c) in p.cons.iter().enumerate() {
        let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
        let (y, rhs) = (duals[i], p.rhs[i]);
        match c.cmp {
            Cmp::Le => {
                assert!(lhs <= rhs + tol, "{tag}: row {i} violated");
                assert!(y <= tol, "{tag}: ≤ row {i} has positive dual {y}");
            }
            Cmp::Ge => {
                assert!(lhs >= rhs - tol, "{tag}: row {i} violated");
                assert!(y >= -tol, "{tag}: ≥ row {i} has negative dual {y}");
            }
            Cmp::Eq => assert!((lhs - rhs).abs() <= tol, "{tag}: eq row {i} violated"),
        }
        // Complementary slackness on rows.
        assert!(
            ((lhs - rhs) * y).abs() <= 1e-4 * (1.0 + y.abs()),
            "{tag}: row {i} slack·dual = {}",
            (lhs - rhs) * y
        );
        dual_obj_rows += y * rhs;
    }
    // Strong duality with bound contributions: c'x = y'b + Σ d_j·x_j where
    // d is the reduced-cost vector (nonzero only at active bounds).
    let mut bound_part = 0.0;
    for j in 0..p.num_vars() {
        let (lb, ub) = (p.lb[j], p.ub[j]);
        let mut d = p.cost[j];
        for (i, c) in p.cons.iter().enumerate() {
            for &(jj, a) in &c.coeffs {
                if jj == j {
                    d -= duals[i] * a;
                }
            }
        }
        let interior = x[j] > lb + 1e-6 && x[j] < ub - 1e-6;
        if interior {
            assert!(
                d.abs() <= 1e-4,
                "{tag}: interior var {j} has reduced cost {d}"
            );
        }
        bound_part += d * x[j];
    }
    let lhs_obj = obj - p.obj_constant;
    assert!(
        (lhs_obj - (dual_obj_rows + bound_part)).abs() <= 1e-4 * (1.0 + lhs_obj.abs()),
        "{tag}: strong duality broken: {} vs {}",
        lhs_obj,
        dual_obj_rows + bound_part
    );
}

/// Validates a Farkas certificate via the box-bound separation inequality.
///
/// For any feasible `x`, the row senses give `Σ_j h_j·x_j ≥ y'b` with
/// `h_j = Σ_i y_i·a_ij`. The certificate proves infeasibility exactly when
/// the supremum of the left side over the variable box stays *below* `y'b`
/// — which also forces `h_j` to lean only on finite bounds.
fn check_farkas(p: &Problem, f: &Farkas, tag: &str) {
    let tol = 1e-6;
    let mut value = 0.0;
    for (i, c) in p.cons.iter().enumerate() {
        let y = f.row_multipliers[i];
        match c.cmp {
            Cmp::Le => assert!(y <= tol, "{tag}: ≤ row {i} multiplier {y} > 0"),
            Cmp::Ge => assert!(y >= -tol, "{tag}: ≥ row {i} multiplier {y} < 0"),
            Cmp::Eq => {}
        }
        value += y * p.rhs[i];
    }
    let ub_multipliers = f.ub_multipliers(p);
    let mut sup = 0.0;
    for j in 0..p.num_vars() {
        let (lb, ub) = (p.lb[j], p.ub[j]);
        let mut h = 0.0;
        for (i, c) in p.cons.iter().enumerate() {
            for &(jj, a) in &c.coeffs {
                if jj == j {
                    h += f.row_multipliers[i] * a;
                }
            }
        }
        // Tiny residuals on infinite bounds are numerical noise, not a lean.
        if h.abs() <= 1e-7 {
            continue;
        }
        let contrib = if h >= 0.0 { h * ub } else { h * lb };
        assert!(
            contrib.is_finite(),
            "{tag}: certificate leans on an infinite bound of var {j} (h = {h})"
        );
        sup += contrib;
        // The reported ub multiplier must cover positive residuals.
        if h > 1e-6 && ub.is_finite() && lb != ub {
            assert!(
                ub_multipliers[j] <= -h + 1e-5,
                "{tag}: ub multiplier {} does not cover residual {h} on var {j}",
                ub_multipliers[j]
            );
        }
    }
    assert!(
        value - sup > 1e-7,
        "{tag}: certificate does not separate: sup {sup} vs value {value}"
    );
}

#[test]
fn cross_check_revised_vs_dense_on_200_random_lps() {
    let mut rng = GenRng::new(0x00C0_FFEE_D00D_5EED);
    let cfg = LpGenConfig::default();
    let mut optimal = 0;
    let mut infeasible = 0;
    let mut unbounded = 0;
    for case in 0..200 {
        let p = random_lp(&mut rng, &cfg);
        let dense = solve_dense(&p).unwrap_or_else(|e| panic!("case {case}: dense failed: {e}"));
        let revised = p
            .solve()
            .unwrap_or_else(|e| panic!("case {case}: revised failed: {e}"));
        match (&dense, &revised) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                optimal += 1;
                assert!(
                    (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                    "case {case}: objectives diverge: dense {} vs revised {}",
                    a.objective,
                    b.objective
                );
                check_solution(
                    &p,
                    b.objective,
                    &b.x,
                    &b.duals,
                    &format!("case {case} revised"),
                );
                check_solution(
                    &p,
                    a.objective,
                    &a.x,
                    &a.duals,
                    &format!("case {case} dense"),
                );
            }
            (Outcome::Infeasible(_), Outcome::Infeasible(fr)) => {
                infeasible += 1;
                check_farkas(&p, fr, &format!("case {case} revised"));
            }
            (Outcome::Unbounded, Outcome::Unbounded) => unbounded += 1,
            other => panic!(
                "case {case}: engines disagree on classification: dense {:?} vs revised {:?}",
                kind(other.0),
                kind(other.1)
            ),
        }
    }
    // The generator must exercise all three outcome classes.
    assert!(optimal > 50, "only {optimal} optimal cases");
    assert!(infeasible > 10, "only {infeasible} infeasible cases");
    assert!(unbounded > 5, "only {unbounded} unbounded cases");
}

fn kind(o: &Outcome) -> &'static str {
    match o {
        Outcome::Optimal(_) => "optimal",
        Outcome::Infeasible(_) => "infeasible",
        Outcome::Unbounded => "unbounded",
    }
}

#[test]
fn cross_check_warm_chains_against_dense() {
    // Random base LP, then a chain of bound tightenings (B&B-style); the
    // warm path must track the dense oracle at every step.
    let mut rng = GenRng::new(0xBEEF_BEEF_BEEF_0001);
    let cfg = LpGenConfig::default();
    for case in 0..40 {
        let mut p = random_lp(&mut rng, &cfg);
        let mut basis: Option<Basis> = None;
        for step in 0..6 {
            let w = p
                .solve_warm(basis.as_ref())
                .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            let dense = solve_dense(&p).unwrap();
            match (&dense, &w.outcome) {
                (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                    assert!(
                        (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                        "case {case} step {step}: {} vs {}",
                        a.objective,
                        b.objective
                    );
                }
                (Outcome::Infeasible(_), Outcome::Infeasible(_)) => {}
                (Outcome::Unbounded, Outcome::Unbounded) => {}
                other => panic!(
                    "case {case} step {step}: disagreement {:?} vs {:?}",
                    kind(other.0),
                    kind(other.1)
                ),
            }
            basis = Some(w.basis);
            // Tighten a random variable's box, keeping lb ≤ ub.
            random_bound_edit(&mut rng, &mut p);
        }
    }
}

#[test]
fn objective_flip_with_unrepairable_column_stays_feasible() {
    // Regression: repair_dual_feasibility used to flip x's status and then
    // bail out on y (infinite ub) *without* recomputing x_B, so the primal
    // phases ran from a stale basic solution and returned an infeasible
    // point as Optimal (x=1, y=10 "optimal" for x + y ≤ 10).
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, 1.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    let cap = p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
    let first = p.solve_warm(None).unwrap();
    assert!(matches!(first.outcome, Outcome::Optimal(_)));

    p.set_objective(x, -1.0);
    p.set_objective(y, -1.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    let s = warm.outcome.unwrap_optimal();
    assert!(
        s.value(x) + s.value(y) <= 10.0 + 1e-7,
        "returned point violates the capacity row: x={} y={}",
        s.value(x),
        s.value(y)
    );
    assert_close(s.objective, -10.0, 1e-7);
    let _ = cap;
}

// ------------------------------- warm-restart chain oracle + nasty pivots

mod warm_chain_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Warm-restart chains of random bound edits against the dense
        /// oracle: classification and objective agree at every link, a warm
        /// bound-edit re-solve never needs phase 1 (dual feasibility is
        /// preserved across the repair/long-step bound flips), and warm
        /// pivots never exceed a cold solve of the same link.
        #[test]
        fn warm_bound_edit_chains_match_dense_oracle(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let cfg = LpGenConfig {
                boxed: 0.5,
                bound_tightness: 0.6,
                ..LpGenConfig::default()
            };
            let mut p = random_lp(&mut rng, &cfg);
            let mut basis: Option<Basis> = None;
            let mut prev_optimal = false;
            for link in 0..6 {
                let warm = p.solve_warm(basis.as_ref()).unwrap();
                let dense = solve_dense(&p).unwrap();
                match (&dense, &warm.outcome) {
                    (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                        prop_assert!(
                            (a.objective - b.objective).abs()
                                <= 1e-6 * (1.0 + a.objective.abs()),
                            "link {}: dense {} vs warm {}", link, a.objective, b.objective
                        );
                    }
                    (Outcome::Infeasible(_), Outcome::Infeasible(f)) => {
                        check_farkas(&p, f, &format!("link {link} warm"));
                    }
                    (Outcome::Unbounded, Outcome::Unbounded) => {}
                    other => prop_assert!(
                        false,
                        "link {}: dense {:?} vs warm {:?}", link, kind(other.0), kind(other.1)
                    ),
                }
                if basis.is_some() && prev_optimal {
                    prop_assert_eq!(
                        warm.stats.phase1_pivots, 0,
                        "link {}: a bound edit must preserve dual feasibility", link
                    );
                    // +1 slack: a degenerate-lucky cold start can prove its
                    // outcome with zero pivots where the warm re-solve pays
                    // a single closing pivot (same slack as
                    // `tests/kernel_counts.rs`).
                    let cold = p.solve_warm(None).unwrap();
                    prop_assert!(
                        warm.stats.total_pivots() <= cold.stats.total_pivots() + 1,
                        "link {}: warm {} pivots vs cold {}",
                        link, warm.stats.total_pivots(), cold.stats.total_pivots()
                    );
                }
                prev_optimal = matches!(warm.outcome, Outcome::Optimal(_));
                basis = Some(warm.basis);
                random_bound_edit(&mut rng, &mut p);
            }
        }
    }
}

#[test]
fn long_step_dual_resolve_flips_bounds() {
    // A knapsack-relaxation re-solve whose capacity collapses: the single
    // dual pivot must walk through the cheap breakpoints by *flipping* the
    // boxed columns (long-step ratio test) instead of pivoting them one by
    // one. Hand-computable: with capacity 2 only the two most valuable
    // variables stay up, so three columns flip and one enters.
    let mut p = Problem::new();
    let vars: Vec<VarId> = (0..8)
        .map(|j| p.add_var(0.0, 1.0, -((j + 1) as f64)))
        .collect();
    let row: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
    let cap = p.add_cons(&row, Cmp::Le, 6.5);
    let first = p.solve_warm(None).unwrap();
    assert_close(first.outcome.unwrap_optimal().objective, -34.0, 1e-7);

    p.set_rhs(cap, 2.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_close(warm.outcome.unwrap_optimal().objective, -15.0, 1e-7);
    assert!(
        warm.stats.bound_flips >= 3,
        "expected a long step through >= 3 bound flips, got {}",
        warm.stats.bound_flips
    );
    assert!(
        warm.stats.dual_pivots <= 2,
        "the long step should need at most 2 pivots, took {}",
        warm.stats.dual_pivots
    );
}

#[test]
fn candidate_list_pricing_on_wide_lp_matches_dense() {
    // 300+ columns put the solve on the partial-pricing path (candidate
    // list + rotating refresh); the optimum must still match the dense
    // oracle, and the stats must show the list machinery actually engaged.
    let mut rng = GenRng::new(0xFACE_0FF5);
    let mut p = Problem::new();
    let vars: Vec<VarId> = (0..300)
        .map(|j| p.add_var(0.0, 1.0 + (j % 7) as f64 * 0.5, -rng.uniform(0.5, 3.0)))
        .collect();
    for r in 0..12 {
        let row: Vec<(VarId, f64)> = vars
            .iter()
            .enumerate()
            .filter(|(j, _)| (j + r) % 3 != 0)
            .map(|(_, &v)| (v, rng.uniform(0.2, 2.0)))
            .collect();
        p.add_cons(&row, Cmp::Le, rng.uniform(40.0, 80.0));
    }
    let w = p.solve_warm(None).unwrap();
    let dense = solve_dense(&p).unwrap().unwrap_optimal();
    let s = w.outcome.unwrap_optimal();
    assert!(
        (s.objective - dense.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
        "partial pricing diverged: revised {} vs dense {}",
        s.objective,
        dense.objective
    );
    assert!(
        w.stats.candidate_refreshes >= 1,
        "expected at least one candidate-list refresh on a 312-column LP"
    );
    assert!(w.stats.pricing_scans > 0);
}

#[test]
fn randomized_wide_lps_exercise_candidate_list_pricing() {
    // The wide torture preset guarantees every draw crosses the
    // partial-pricing threshold, so the candidate-list scan/refresh path
    // gets *randomized* coverage (the fixed-seed test above only pins one
    // instance). Each case runs a short warm chain against the dense
    // oracle.
    let mut rng = GenRng::new(0x51DE_CA51_0000_0001);
    let cfg = LpGenConfig::torture_wide();
    let mut stats = LpStats::default();
    for case in 0..6 {
        let mut p = random_lp(&mut rng, &cfg);
        let mut basis: Option<Basis> = None;
        for link in 0..2 {
            let w = p
                .solve_warm(basis.as_ref())
                .unwrap_or_else(|e| panic!("case {case} link {link}: {e}"));
            stats.absorb(&w.stats);
            let dense = solve_dense(&p).unwrap();
            match (&dense, &w.outcome) {
                (Outcome::Optimal(a), Outcome::Optimal(b)) => assert!(
                    (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                    "case {case} link {link}: dense {} vs revised {}",
                    a.objective,
                    b.objective
                ),
                (Outcome::Infeasible(_), Outcome::Infeasible(_)) => {}
                (Outcome::Unbounded, Outcome::Unbounded) => {}
                other => panic!(
                    "case {case} link {link}: dense {:?} vs revised {:?}",
                    kind(other.0),
                    kind(other.1)
                ),
            }
            basis = Some(w.basis);
            random_bound_edit(&mut rng, &mut p);
        }
    }
    assert!(
        stats.candidate_refreshes > 0,
        "wide chains never refreshed a candidate list"
    );
}

#[test]
fn all_degenerate_dual_steps_fall_back_to_bland() {
    // Fully degenerate instances (every row tight at the generator's
    // reference point) re-solved warm with `bland_after = 0`: the dual pass
    // must run the classic least-index ratio test — no long steps — and
    // still match the dense oracle at every link.
    let mut rng = GenRng::new(0xD15E_A5ED_0000_0007);
    let cfg = LpGenConfig {
        degeneracy: 1.0,
        boxed: 0.6,
        ..LpGenConfig::default()
    };
    let opts = SimplexOptions {
        bland_after: 0,
        ..SimplexOptions::default()
    };
    for case in 0..40 {
        let mut p = random_lp(&mut rng, &cfg);
        let first = WarmChain::new()
            .solve_from(&p, None, &opts)
            .unwrap_or_else(|e| panic!("case {case}: cold solve failed: {e}"));
        random_bound_edit(&mut rng, &mut p);
        let warm = WarmChain::new()
            .solve_from(&p, Some(&first.basis), &opts)
            .unwrap_or_else(|e| panic!("case {case}: warm solve failed: {e}"));
        let dense = solve_dense(&p).unwrap();
        match (&dense, &warm.outcome) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "case {case}: dense {} vs warm-Bland {}",
                a.objective,
                b.objective
            ),
            (Outcome::Infeasible(_), Outcome::Infeasible(_)) => {}
            (Outcome::Unbounded, Outcome::Unbounded) => {}
            other => panic!(
                "case {case}: dense {:?} vs warm-Bland {:?}",
                kind(other.0),
                kind(other.1)
            ),
        }
    }
}

#[test]
fn coinciding_bounds_column_is_never_flipped() {
    // A fixed column (lb == ub) with a seductively negative cost sits among
    // boxed flip candidates. The ratio tests must skip it — "flipping"
    // between coinciding bounds is a no-op that would only corrupt the
    // status bookkeeping — and it must stay pinned in the solution.
    let mut p = Problem::new();
    let a = p.add_var(0.0, 1.0, -4.0);
    let b = p.add_var(0.0, 1.0, -3.0);
    let f = p.add_var(2.0, 2.0, -100.0);
    let c = p.add_var(0.0, 1.0, -2.0);
    let cap = p.add_cons(&[(a, 1.0), (b, 1.0), (f, 1.0), (c, 1.0)], Cmp::Le, 4.5);
    let first = p.solve_warm(None).unwrap();
    let s0 = first.outcome.clone().unwrap_optimal();
    assert_close(s0.value(f), 2.0, 1e-9);

    p.set_rhs(cap, 2.5); // fixed column alone consumes 2.0 of it
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    let s = warm.outcome.unwrap_optimal();
    assert_close(s.value(f), 2.0, 1e-9);
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(s.objective, reference, 1e-7);
}

#[test]
fn warm_dual_certificate_on_box_infeasible_node() {
    // A bound edit drives the node primal-infeasible while every entering
    // candidate is a boxed column: the dual pass exhausts its flips and
    // must return a separating Farkas certificate (the unbounded-dual ray).
    let mut p = Problem::new();
    let x = p.add_var(0.0, 2.0, 1.0);
    let y = p.add_var(0.0, 2.0, 2.0);
    let z = p.add_var(0.0, 2.0, 3.0);
    p.add_cons(&[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Ge, 3.0);
    let first = p.solve_warm(None).unwrap();
    assert!(matches!(first.outcome, Outcome::Optimal(_)));

    p.set_bounds(x, 0.0, 0.5);
    p.set_bounds(y, 0.0, 1.0);
    p.set_bounds(z, 0.0, 0.75);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    match warm.outcome {
        Outcome::Infeasible(f) => check_farkas(&p, &f, "box-infeasible node"),
        other => panic!("expected infeasible, got {other:?}"),
    }
}

// --------------------------------------- persistent-factorization contract

#[test]
fn pure_rhs_resolve_skips_refactorization() {
    // Benders-slave shape: only the RHS moves between solves, so the basis
    // matrix is bit-identical and the persisted factorization must be
    // resumed — the re-solve performs *zero* refactorizations.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -3.0);
    let y = p.add_var(0.0, f64::INFINITY, -2.0);
    let z = p.add_var(0.0, 6.0, -4.0);
    let cap1 = p.add_cons(&[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 10.0);
    let cap2 = p.add_cons(&[(x, 2.0), (y, 1.0)], Cmp::Le, 15.0);
    let cap3 = p.add_cons(&[(y, 1.0), (z, 3.0)], Cmp::Le, 12.0);
    let first = p.solve_warm(None).unwrap();
    assert!(first.stats.refactorizations >= 1, "cold solve factorizes");
    assert_eq!(first.stats.factorization_reuses, 0);

    p.set_rhs(cap1, 8.0);
    p.set_rhs(cap2, 18.0);
    p.set_rhs(cap3, 9.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.warm_starts, 1);
    assert_eq!(
        warm.stats.refactorizations, 0,
        "pure-RHS re-solve must reuse the persisted factorization"
    );
    assert_eq!(warm.stats.factorization_reuses, 1);
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(warm.outcome.unwrap_optimal().objective, reference, 1e-7);
}

#[test]
fn bound_change_resolve_skips_refactorization() {
    // Branch-and-bound shape: a bound edit leaves the basis matrix intact.
    let mut p = Problem::new();
    let a = p.add_var(0.0, 1.0, -10.0);
    let b = p.add_var(0.0, 1.0, -13.0);
    let c = p.add_var(0.0, 1.0, -7.0);
    p.add_cons(&[(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
    let first = p.solve_warm(None).unwrap();

    p.set_bounds(b, 0.0, 0.0); // branch down
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.refactorizations, 0);
    assert_eq!(warm.stats.factorization_reuses, 1);
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(warm.outcome.unwrap_optimal().objective, reference, 1e-7);
}

#[test]
fn appended_row_invalidates_factorization_but_not_basis() {
    // A Benders cut grows the basis matrix: the stored factorization no
    // longer fits and a refactorization is required, but the warm basis
    // itself still restarts the solve.
    let mut p = Problem::new();
    let u1 = p.add_var(0.0, 1.0, -5.0);
    let u2 = p.add_var(0.0, 1.0, -4.0);
    let theta = p.add_var(-100.0, f64::INFINITY, 1.0);
    p.add_cons(&[(u1, 1.0), (u2, 1.0)], Cmp::Le, 2.0);
    let first = p.solve_warm(None).unwrap();

    p.add_cons(&[(theta, -1.0), (u1, 3.0), (u2, 2.0)], Cmp::Le, 50.0);
    let warm = p.solve_warm(Some(&first.basis)).unwrap();
    assert_eq!(warm.stats.warm_starts, 1);
    assert_eq!(warm.stats.factorization_reuses, 0);
    assert!(warm.stats.refactorizations >= 1);
    let reference = solve_r(&p).unwrap_optimal().objective;
    assert_close(warm.outcome.unwrap_optimal().objective, reference, 1e-7);
}

#[test]
fn basis_from_different_same_shape_problem_refactorizes() {
    // Outside the documented contract: a basis from a *different* problem
    // that happens to share the shape. The shape checks accept it (as they
    // did pre-persistence), but the factorization fingerprint must reject
    // the stale factors so the solve refactorizes from the real matrix.
    let mut p1 = Problem::new();
    let x = p1.add_var(0.0, f64::INFINITY, -3.0);
    let y = p1.add_var(0.0, f64::INFINITY, -2.0);
    p1.add_cons(&[(x, 1.0), (y, 2.0)], Cmp::Le, 10.0);
    p1.add_cons(&[(x, 3.0), (y, 1.0)], Cmp::Le, 15.0);
    let w1 = p1.solve_warm(None).unwrap();

    let mut p2 = Problem::new();
    let x2 = p2.add_var(0.0, f64::INFINITY, -3.0);
    let y2 = p2.add_var(0.0, f64::INFINITY, -2.0);
    p2.add_cons(&[(x2, 2.0), (y2, 1.0)], Cmp::Le, 10.0);
    p2.add_cons(&[(x2, 1.0), (y2, 4.0)], Cmp::Le, 15.0);
    let w2 = p2.solve_warm(Some(&w1.basis)).unwrap();
    assert_eq!(
        w2.stats.factorization_reuses, 0,
        "stale factors from another problem must not be reused"
    );
    assert!(w2.stats.refactorizations >= 1);
    let reference = solve_r(&p2).unwrap_optimal().objective;
    assert_close(w2.outcome.unwrap_optimal().objective, reference, 1e-7);
}

#[test]
fn warm_chain_reports_factorization_counters() {
    // Over an RHS-only warm chain every re-solve reuses the factorization
    // (until an eta-file overflow forces a refresh, which this short chain
    // cannot hit), and fill-in / eta-length telemetry flows through absorb.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 8.0, -3.0);
    let y = p.add_var(0.0, 8.0, -5.0);
    let r1 = p.add_cons(&[(x, 1.0), (y, 2.0)], Cmp::Le, 14.0);
    let r2 = p.add_cons(&[(x, 3.0), (y, 1.0)], Cmp::Le, 12.0);

    let mut basis: Option<Basis> = None;
    let mut stats = LpStats::default();
    for k in 0..10 {
        let t = k as f64;
        p.set_rhs(r1, 10.0 + 4.0 * ((0.4 * t).sin().abs()));
        p.set_rhs(r2, 8.0 + 4.0 * ((0.6 * t).cos().abs()));
        let w = p.solve_warm(basis.as_ref()).unwrap();
        stats.absorb(&w.stats);
        basis = Some(w.basis);
    }
    assert_eq!(stats.cold_starts, 1);
    assert_eq!(stats.warm_starts, 9);
    assert_eq!(stats.factorization_reuses, 9);
    assert_eq!(stats.refactorizations, 1, "only the cold solve factorizes");
}

// ------------------------------------ sparse kernel vs dense oracle (prop)

mod sparse_kernel_props {
    use crate::revised::lu::{Lu, SparseLu};
    use proptest::prelude::*;

    /// Dense row-major → per-column sparse form.
    fn dense_to_cols(a: &[f64], m: usize) -> Vec<Vec<(u32, f64)>> {
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i * m + j] != 0.0)
                    .map(|i| (i as u32, a[i * m + j]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(a: &[f64], m: usize, x: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|i| (0..m).map(|j| a[i * m + j] * x[j]).sum())
            .collect()
    }

    fn mat_t_vec(a: &[f64], m: usize, x: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|j| (0..m).map(|i| a[i * m + j] * x[i]).sum())
            .collect()
    }

    /// Assembles a random sparse, strictly diagonally dominant (hence
    /// nonsingular) `m × m` matrix from flat value/mask pools.
    fn build_matrix(m: usize, vals: &[f64], mask: &[f64]) -> Vec<f64> {
        let mut a = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                if i != j && mask[i * m + j] < 0.35 {
                    a[i * m + j] = vals[i * m + j];
                }
            }
        }
        for i in 0..m {
            let row_sum: f64 = (0..m).filter(|&j| j != i).map(|j| a[i * m + j].abs()).sum();
            let sign = if vals[i * m + i] < 0.0 { -1.0 } else { 1.0 };
            a[i * m + i] = sign * (row_sum + 1.0 + vals[i * m + i].abs());
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sparse_ftran_btran_match_dense_oracle(
            m in 2usize..11,
            vals in proptest::collection::vec(-3.0f64..3.0, 121),
            mask in proptest::collection::vec(0.0f64..1.0, 121),
            x in proptest::collection::vec(-5.0f64..5.0, 11),
        ) {
            let a = build_matrix(m, &vals, &mask);
            let dense = Lu::factor(a.clone(), m).expect("diagonally dominant");
            let sparse =
                SparseLu::factor_cols(m, &dense_to_cols(&a, m)).expect("diagonally dominant");
            let mut scratch = Vec::new();
            let x_true = &x[..m];

            // FTRAN: both engines must reproduce x from B·x.
            let v0 = mat_vec(&a, m, x_true);
            let mut vd = v0.clone();
            dense.solve(&mut vd);
            let mut vs = v0;
            sparse.solve(&mut vs, &mut scratch);
            for j in 0..m {
                prop_assert!(
                    (vd[j] - vs[j]).abs() <= 1e-8 * (1.0 + vd[j].abs()),
                    "ftran mismatch at {}: dense {} vs sparse {}", j, vd[j], vs[j]
                );
                prop_assert!(
                    (vs[j] - x_true[j]).abs() <= 1e-7 * (1.0 + x_true[j].abs()),
                    "ftran wrong at {}: {} vs {}", j, vs[j], x_true[j]
                );
            }

            // BTRAN: same through the transpose.
            let w0 = mat_t_vec(&a, m, x_true);
            let mut wd = w0.clone();
            dense.solve_t(&mut wd);
            let mut ws = w0;
            sparse.solve_t(&mut ws, &mut scratch);
            for j in 0..m {
                prop_assert!(
                    (wd[j] - ws[j]).abs() <= 1e-8 * (1.0 + wd[j].abs()),
                    "btran mismatch at {}: dense {} vs sparse {}", j, wd[j], ws[j]
                );
            }
        }

        #[test]
        fn sparse_lu_handles_sparse_rhs(
            m in 3usize..11,
            vals in proptest::collection::vec(-3.0f64..3.0, 121),
            mask in proptest::collection::vec(0.0f64..1.0, 121),
            hot in 0usize..11,
        ) {
            // A singleton RHS (the FTRAN of a logical column) must take the
            // sparse fast path and still agree with the dense oracle.
            let a = build_matrix(m, &vals, &mask);
            let dense = Lu::factor(a.clone(), m).expect("diagonally dominant");
            let sparse =
                SparseLu::factor_cols(m, &dense_to_cols(&a, m)).expect("diagonally dominant");
            let mut scratch = Vec::new();
            let mut v = vec![0.0; m];
            v[hot % m] = 1.0;
            let mut vd = v.clone();
            dense.solve(&mut vd);
            sparse.solve(&mut v, &mut scratch);
            for j in 0..m {
                prop_assert!(
                    (vd[j] - v[j]).abs() <= 1e-8 * (1.0 + vd[j].abs()),
                    "sparse-rhs ftran mismatch at {}: {} vs {}", j, vd[j], v[j]
                );
            }
        }
    }
}

#[test]
fn review_probe_free_var_bounds_become_finite() {
    use crate::{Cmp, Problem};
    let mut p = Problem::new();
    // x free, y in [0, 10]; minimize y with x unused in objective.
    let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
    let y = p.add_var(0.0, 10.0, 1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 100.0);
    let w1 = p.solve_warm(None).unwrap();
    // Narrow x to [2, 3]: per the documented Basis contract this is allowed.
    p.set_bounds(x, 2.0, 3.0);
    let w2 = p.solve_warm(Some(&w1.basis)).unwrap();
    match w2.outcome {
        crate::Outcome::Optimal(s) => {
            let xv = s.value(x);
            assert!(
                (2.0 - 1e-6..=3.0 + 1e-6).contains(&xv),
                "x = {xv} violates its bounds [2,3]"
            );
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

// ------------------------------------------------- a chain that fits

/// A two-row program whose optimum sits on both rows.
fn fits_fixture() -> Problem {
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -3.0);
    let y = p.add_var(0.0, f64::INFINITY, -2.0);
    let z = p.add_var(0.0, 6.0, -4.0);
    p.add_cons(&[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 10.0);
    p.add_cons(&[(x, 2.0), (y, 1.0)], Cmp::Le, 15.0);
    p
}

#[test]
fn a_chain_fits_its_problem_through_value_edits_only() {
    let options = SimplexOptions::default();
    let mut p = fits_fixture();
    let mut chain = WarmChain::new();
    assert!(!chain.fits(&p), "a fresh chain holds no basis");
    p.resolve(&mut chain, &options).unwrap();
    assert!(chain.fits(&p));

    // Value edits keep the matrix, so the held factorization replays.
    p.set_rhs(ConsId(0), 9.0);
    p.set_bounds(VarId(2), 0.0, 5.0);
    p.set_objective(VarId(1), -2.5);
    assert!(chain.fits(&p));
    let (_, stats) = p.resolve(&mut chain, &options).unwrap();
    assert_eq!((stats.refactorizations, stats.factorization_reuses), (0, 1));
    assert!(chain.fits(&p));

    chain.clear();
    assert!(!chain.fits(&p), "a cleared chain holds no basis");

    p.resolve(&mut chain, &options).unwrap();
    let mut grown = p.clone();
    grown.add_cons(&[(VarId(1), 1.0)], Cmp::Le, 4.0);
    assert!(!chain.fits(&grown), "a new row changes the shape");
    let mut widened = p.clone();
    widened.add_column(0.0, 1.0, -1.0, &[(ConsId(1), 1.0)]);
    assert!(!chain.fits(&widened), "a new column changes the shape");

    // Same shape, one coefficient changed: another matrix.
    let mut other = Problem::new();
    let x = other.add_var(0.0, f64::INFINITY, -3.0);
    let y = other.add_var(0.0, f64::INFINITY, -2.0);
    let z = other.add_var(0.0, 6.0, -4.0);
    other.add_cons(&[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Le, 10.0);
    other.add_cons(&[(x, 2.0), (y, 1.5)], Cmp::Le, 15.0);
    assert_eq!(
        (other.num_vars(), other.num_cons()),
        (p.num_vars(), p.num_cons())
    );
    assert!(!chain.fits(&other), "same shape, another matrix");
    assert!(chain.fits(&fits_fixture()), "a rebuilt twin fits");
}

// --------------------- factorization internals, gen-driven (ISSUE 9 props)
//
// The lu.rs unit tests pin the bucketed-Markowitz / Forrest–Tomlin /
// hyper-sparse kernels on hand-built matrices; these suites drive the same
// invariants from the shared seeded generator so the coverage tracks the
// LP distribution the engine actually factorizes.

mod factorization_props {
    use super::*;
    use crate::revised::lu::{Factorization, SolveScratch, SparseLu};
    use proptest::prelude::*;

    /// Basis-like square column set harvested from a random LP: for each of
    /// the `m` rows either the unit slack column or a structural column of
    /// the constraint matrix — the shapes `Engine::refactorize` feeds the
    /// factorizer. Intentionally allowed to be singular (duplicate or empty
    /// columns) so the singular verdict is exercised too.
    fn lp_basis_cols(rng: &mut GenRng, cfg: &LpGenConfig) -> (usize, Vec<Vec<(u32, f64)>>) {
        let p = random_lp(rng, cfg);
        let m = p.cons.len();
        let nv = p.num_vars();
        let mut structural: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nv];
        for (i, c) in p.cons.iter().enumerate() {
            for &(j, a) in &c.coeffs {
                structural[j].push((i as u32, a));
            }
        }
        let cols = (0..m)
            .map(|i| {
                if nv > 0 && rng.chance(0.6) {
                    structural[rng.index(nv)].clone()
                } else {
                    vec![(i as u32, 1.0)]
                }
            })
            .collect();
        (m, cols)
    }

    /// Random sparse strictly diagonally dominant (hence nonsingular)
    /// `m × m` matrix in dense row-major form, from the shared generator.
    fn gen_dominant(rng: &mut GenRng, m: usize, density: f64) -> Vec<f64> {
        let mut a = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                if i != j && rng.chance(density) {
                    a[i * m + j] = rng.uniform(-3.0, 3.0);
                }
            }
        }
        for i in 0..m {
            let row_sum: f64 = (0..m).filter(|&j| j != i).map(|j| a[i * m + j].abs()).sum();
            a[i * m + i] = row_sum + rng.uniform(1.0, 2.0);
        }
        a
    }

    fn dense_to_cols(a: &[f64], m: usize) -> Vec<Vec<(u32, f64)>> {
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i * m + j] != 0.0)
                    .map(|i| (i as u32, a[i * m + j]))
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bucketed-Markowitz factor must be indistinguishable from the
        /// retained rescan implementation on generator-shaped bases: same
        /// singularity verdict, and — because the bucket selection is
        /// engineered to pick the identical pivot sequence — bitwise-equal
        /// solves through the resulting factors.
        #[test]
        fn bucketed_factor_matches_rescan_on_gen_bases(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let cfg = LpGenConfig {
                max_vars: 20,
                max_cons: 16,
                density: 0.5,
                ..LpGenConfig::default()
            };
            let (m, cols) = lp_basis_cols(&mut rng, &cfg);
            let fast = SparseLu::factor_cols(m, &cols);
            let slow = SparseLu::factor_rescan(m, |pos, buf| buf.extend_from_slice(&cols[pos]));
            prop_assert_eq!(
                fast.is_some(), slow.is_some(),
                "singularity verdicts diverge at m={}", m
            );
            if let (Some(fast), Some(slow)) = (fast, slow) {
            prop_assert_eq!(fast.nnz_factors(), slow.nnz_factors());
            prop_assert!(
                fast.pivot_scan_work() <= slow.pivot_scan_work(),
                "bucketed selection examined more candidates ({} vs {})",
                fast.pivot_scan_work(), slow.pivot_scan_work()
            );
            let rhs: Vec<f64> = (0..m).map(|_| rng.uniform(-5.0, 5.0)).collect();
            let mut scratch = Vec::new();
            let mut vf = rhs.clone();
            fast.solve(&mut vf, &mut scratch);
            let mut vs = rhs.clone();
            slow.solve(&mut vs, &mut scratch);
            for j in 0..m {
                prop_assert_eq!(
                    vf[j].to_bits(), vs[j].to_bits(),
                    "ftran bit mismatch at {}: {} vs {}", j, vf[j], vs[j]
                );
            }
            let mut wf = rhs.clone();
            fast.solve_t(&mut wf, &mut scratch);
            let mut ws = rhs;
            slow.solve_t(&mut ws, &mut scratch);
            for j in 0..m {
                prop_assert_eq!(
                    wf[j].to_bits(), ws[j].to_bits(),
                    "btran bit mismatch at {}: {} vs {}", j, wf[j], ws[j]
                );
            }
            }
        }
    }

    /// The asymptotic claim behind the bucketed search, as counts: on
    /// basis-shaped matrices (banded near-triangular plus 2 % coupling
    /// entries) at the slave LP's row counts for the small / paper / 10× /
    /// 100× cities, the bucketed factor inspects about 3.2 candidates per
    /// column at every size while the rescan inspects Θ(m²). The rescan at
    /// 8,115 is left out: 66 M inspections, seconds in a debug build.
    #[test]
    fn bucketed_scan_work_is_linear_where_the_rescan_is_quadratic() {
        for (m, bucketed, rescan) in [
            (38, 117, Some(1_482)),
            (110, 359, Some(12_210)),
            (885, 2_866, Some(784_110)),
            (8_115, 26_208, None),
        ] {
            let mut rng = GenRng::new(0x1A0_FAC7 ^ m as u64);
            let mut cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
            for j in 0..m {
                let mut col = vec![(j as u32, 4.0 + rng.next_f64())];
                for d in 1..=2usize {
                    if j >= d && rng.chance(0.6) {
                        col.push(((j - d) as u32, rng.uniform(-1.0, 1.0)));
                    }
                }
                if rng.chance(0.02) {
                    let i = rng.index(m);
                    if i != j {
                        col.push((i as u32, rng.uniform(-1.0, 1.0)));
                    }
                }
                col.sort_by_key(|&(i, _)| i);
                col.dedup_by_key(|&mut (i, _)| i);
                cols.push(col);
            }
            let fast = SparseLu::factor_cols(m, &cols).expect("nonsingular");
            assert_eq!(fast.pivot_scan_work(), bucketed, "bucketed, dim {m}");
            if let Some(rescan) = rescan {
                let slow = SparseLu::factor_rescan(m, |pos, buf| buf.extend_from_slice(&cols[pos]))
                    .expect("nonsingular");
                assert_eq!(slow.pivot_scan_work(), rescan, "rescan, dim {m}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// ≥64 consecutive Forrest–Tomlin column replacements on a random
        /// basis, cross-checked against a from-scratch factorization of the
        /// tracked column set: FTRAN and BTRAN must stay within solve
        /// tolerance however the spikes fold, and a refused update must
        /// leave the engine's refactorize fallback viable.
        #[test]
        fn ft_update_chains_track_scratch_refactorization(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let m = 8 + rng.index(17); // 8..=24
            let a = gen_dominant(&mut rng, m, 0.25);
            let mut cols = dense_to_cols(&a, m);
            let mut fact =
                Factorization::new(SparseLu::factor_cols(m, &cols).expect("dominant"));
            let mut scratch = SolveScratch::new();
            let mut accepted = 0usize;
            let mut attempts = 0usize;
            while accepted < 64 {
                attempts += 1;
                prop_assert!(
                    attempts < 600,
                    "FT acceptance stalled: {} of 64 in {} attempts", accepted, attempts
                );
                // Entering column with a guaranteed strong diagonal entry so
                // the chain stays well conditioned.
                let slot = rng.index(m);
                let mut newcol: Vec<(u32, f64)> = vec![(slot as u32, 4.0 + rng.next_f64())];
                for i in 0..m {
                    if i != slot && rng.chance(0.2) {
                        newcol.push((i as u32, rng.uniform(-0.5, 0.5)));
                    }
                }
                newcol.sort_by_key(|&(i, _)| i);
                let mut v = vec![0.0; m];
                for &(i, x) in &newcol {
                    v[i as usize] = x;
                }
                scratch.rhs_nz.clear();
                scratch.rhs_nz.extend(newcol.iter().map(|&(i, _)| i));
                fact.ftran_entering(&mut v, &mut scratch);
                // Leaving row: the strongest pivot keeps the update stable.
                let r = (0..m)
                    .max_by(|&x, &y| v[x].abs().partial_cmp(&v[y].abs()).unwrap())
                    .unwrap();
                if v[r].abs() < 1e-6 {
                    continue; // hopeless replacement; draw another column
                }
                cols[r] = newcol;
                if fact.push_update(r, &mut scratch) {
                    accepted += 1;
                } else {
                    // Refusal path: refactorize from the already-updated
                    // column set, exactly as Engine::absorb_pivot does.
                    fact = Factorization::new(
                        SparseLu::factor_cols(m, &cols).expect("refactorizable"),
                    );
                }
                if accepted.is_multiple_of(8) || accepted >= 64 {
                    let fresh = Factorization::new(
                        SparseLu::factor_cols(m, &cols).expect("nonsingular"),
                    );
                    let rhs: Vec<f64> = (0..m).map(|_| rng.uniform(-4.0, 4.0)).collect();
                    let mut via_ft = rhs.clone();
                    fact.ftran(&mut via_ft, &mut scratch);
                    let mut via_fresh = rhs.clone();
                    fresh.ftran(&mut via_fresh, &mut scratch);
                    for j in 0..m {
                        prop_assert!(
                            (via_ft[j] - via_fresh[j]).abs()
                                <= 1e-6 * (1.0 + via_fresh[j].abs()),
                            "ftran drift after {} updates at {}: {} vs {}",
                            fact.update_count(), j, via_ft[j], via_fresh[j]
                        );
                    }
                    let mut wt_ft = rhs.clone();
                    fact.btran(&mut wt_ft, &mut scratch);
                    let mut wt_fresh = rhs;
                    fresh.btran(&mut wt_fresh, &mut scratch);
                    for j in 0..m {
                        prop_assert!(
                            (wt_ft[j] - wt_fresh[j]).abs()
                                <= 1e-6 * (1.0 + wt_fresh[j].abs()),
                            "btran drift after {} updates at {}: {} vs {}",
                            fact.update_count(), j, wt_ft[j], wt_fresh[j]
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Hyper-sparse FTRAN/BTRAN must be *bitwise* identical to the dense
        /// sweeps — on singleton, sparse, and (via the cutoff fallback)
        /// dense right-hand sides — and the worklist path must actually
        /// fire for the sparse ones.
        #[test]
        fn hypersparse_paths_bitwise_match_dense_on_gen_bases(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let m = 64 + rng.index(65); // 64..=128: past HYPERSPARSE_DIM_MIN
            let a = gen_dominant(&mut rng, m, 0.03);
            let cols = dense_to_cols(&a, m);
            let mut fact =
                Factorization::new(SparseLu::factor_cols(m, &cols).expect("dominant"));
            let mut scratch = SolveScratch::new();
            // Fold a few FT updates in so the row-eta passes are covered.
            for _ in 0..3 {
                let slot = rng.index(m);
                let mut col = vec![0.0; m];
                col[slot] = 5.0 + rng.next_f64();
                col[(slot + 7) % m] = rng.uniform(-0.5, 0.5);
                let mut alpha = col;
                fact.ftran_entering(&mut alpha, &mut scratch);
                prop_assert!(fact.push_update(slot, &mut scratch), "update must be stable");
            }
            let _ = scratch.take_hypersparse_counts();
            for nnz in [1usize, 1 + rng.index(3), m / 20 + 1, m] {
                let mut v = vec![0.0; m];
                let mut idxs: Vec<u32> = Vec::new();
                while idxs.len() < nnz {
                    let i = rng.index(m);
                    if v[i] == 0.0 {
                        v[i] = rng.uniform(-4.0, 4.0);
                        idxs.push(i as u32);
                    }
                }
                idxs.sort_unstable();
                // FTRAN: hinted (worklist-eligible) vs dense sweep.
                let mut vs = v.clone();
                scratch.rhs_nz.clear();
                scratch.rhs_nz.extend(idxs.iter().copied());
                fact.ftran(&mut vs, &mut scratch);
                let mut vd = v.clone();
                scratch.rhs_nz.clear();
                fact.ftran(&mut vd, &mut scratch);
                for j in 0..m {
                    prop_assert_eq!(
                        vs[j].to_bits(), vd[j].to_bits(),
                        "ftran bit mismatch (nnz={}) at {}: {} vs {}", nnz, j, vs[j], vd[j]
                    );
                }
                // BTRAN the same way.
                let mut ws = v.clone();
                scratch.rhs_nz.clear();
                scratch.rhs_nz.extend(idxs.iter().copied());
                fact.btran(&mut ws, &mut scratch);
                let mut wd = v.clone();
                scratch.rhs_nz.clear();
                fact.btran(&mut wd, &mut scratch);
                for j in 0..m {
                    prop_assert_eq!(
                        ws[j].to_bits(), wd[j].to_bits(),
                        "btran bit mismatch (nnz={}) at {}: {} vs {}", nnz, j, ws[j], wd[j]
                    );
                }
            }
            let (hf, hb) = scratch.take_hypersparse_counts();
            prop_assert!(hf > 0, "sparse RHS never took the hyper-sparse FTRAN path");
            prop_assert!(hb > 0, "sparse RHS never took the hyper-sparse BTRAN path");
        }
    }
}

// ----------------------------- refactorization interval: warm == cold

#[test]
fn refactor_interval_preserves_results_warm_and_cold() {
    // The interval is a numerical-drift bound, not a semantic knob: at 8,
    // 64, and 256 a warm chain of bound edits must classify every link the
    // same way as a cold solve at the same interval, and the objectives
    // must agree across all three intervals.
    let intervals = [8usize, 64, 256];
    let mut rng = GenRng::new(0x0000_FAC7_0123_u64);
    let cfg = LpGenConfig::torture();
    for case in 0..25 {
        // Pre-generate the edit chain so every interval sees identical
        // problems.
        let mut chain = Vec::with_capacity(6);
        let mut p = random_lp(&mut rng, &cfg);
        for _ in 0..6 {
            chain.push(p.clone());
            random_bound_edit(&mut rng, &mut p);
        }
        let mut per_interval: Vec<Vec<(String, f64)>> = Vec::new();
        for &interval in &intervals {
            let opts = SimplexOptions {
                refactor_interval: interval,
                ..SimplexOptions::default()
            };
            let mut basis: Option<Basis> = None;
            let mut links = Vec::with_capacity(chain.len());
            for (step, p) in chain.iter().enumerate() {
                let warm = WarmChain::new()
                    .solve_from(p, basis.as_ref(), &opts)
                    .unwrap_or_else(|e| panic!("case {case} step {step} interval {interval}: {e}"));
                let cold = WarmChain::new()
                    .solve_from(p, None, &opts)
                    .unwrap_or_else(|e| panic!("case {case} step {step} interval {interval}: {e}"));
                assert_eq!(
                    kind(&warm.outcome),
                    kind(&cold.outcome),
                    "case {case} step {step} interval {interval}: warm/cold classification"
                );
                let obj = match (&warm.outcome, &cold.outcome) {
                    (Outcome::Optimal(w), Outcome::Optimal(c)) => {
                        assert!(
                            (w.objective - c.objective).abs() <= 1e-6 * (1.0 + c.objective.abs()),
                            "case {case} step {step} interval {interval}: warm {} vs cold {}",
                            w.objective,
                            c.objective
                        );
                        w.objective
                    }
                    _ => f64::NAN,
                };
                links.push((kind(&warm.outcome).to_string(), obj));
                basis = Some(warm.basis);
            }
            per_interval.push(links);
        }
        for i in 1..per_interval.len() {
            for (step, (a, b)) in per_interval[0].iter().zip(&per_interval[i]).enumerate() {
                assert_eq!(
                    a.0, b.0,
                    "case {case} step {step}: classification differs between interval {} and {}",
                    intervals[0], intervals[i]
                );
                if a.1.is_finite() || b.1.is_finite() {
                    assert!(
                        (a.1 - b.1).abs() <= 1e-7 * (1.0 + a.1.abs()),
                        "case {case} step {step}: objective differs between interval {} ({}) \
                         and {} ({})",
                        intervals[0],
                        a.1,
                        intervals[i],
                        b.1
                    );
                }
            }
        }
    }
}

// ------------------- cached structure: a refinement of the per-solve rebuild

#[test]
fn structure_is_shared_until_a_structural_edit() {
    use std::sync::Arc;
    let mut p = Problem::new();
    let x = p.add_var(0.0, 4.0, -3.0);
    let y = p.add_var(0.0, f64::INFINITY, -2.0);
    let r = p.add_cons(&[(x, 1.0), (y, 2.0)], Cmp::Le, 10.0);
    // Every generation stays alive to the end, so no address is recycled.
    let s0 = Arc::clone(p.structure());

    p.set_rhs(r, 7.0);
    p.set_bounds(x, 1.0, 3.0);
    p.set_objective(y, -1.0);
    p.add_objective_constant(2.0);
    p.solve().unwrap();
    assert!(Arc::ptr_eq(&s0, p.structure()), "value edits keep it");
    let kept = p.clone();
    assert!(Arc::ptr_eq(&s0, kept.structure()), "a clone shares it");

    p.add_cons(&[(x, 1.0)], Cmp::Ge, 0.5);
    let s1 = Arc::clone(p.structure());
    assert!(!Arc::ptr_eq(&s0, &s1), "add_cons replaces it");
    let z = p.add_var(0.0, 1.0, 0.0);
    let s2 = Arc::clone(p.structure());
    assert!(!Arc::ptr_eq(&s1, &s2), "add_var replaces it");
    p.add_column(0.0, 1.0, -1.0, &[(r, 1.0)]);
    let s3 = Arc::clone(p.structure());
    assert!(!Arc::ptr_eq(&s2, &s3), "add_column replaces it");
    p.set_bounds(z, 0.0, 0.5);
    assert!(Arc::ptr_eq(&s3, p.structure()));

    // The clone taken before the structural edits never saw them.
    assert!(Arc::ptr_eq(&s0, kept.structure()));
    assert_eq!(kept.num_cons(), 1);
    assert_eq!(s0.fingerprint, kept.structural_matrix().fingerprint());
    assert_eq!(s3.fingerprint, p.structural_matrix().fingerprint());
}

mod structure_refinement_props {
    use super::*;
    use crate::model::ConsId;
    use crate::revised::WarmSolve;
    use proptest::prelude::*;

    /// The specification side: the same program re-entered through the
    /// builder, so its first solve assembles the structure from scratch.
    fn rebuilt(p: &Problem) -> Problem {
        let mut q = Problem::new();
        for j in 0..p.num_vars() {
            q.add_var(p.lb[j], p.ub[j], p.cost[j]);
        }
        for (c, &rhs) in p.cons.iter().zip(&p.rhs) {
            let row: Vec<(VarId, f64)> = c.coeffs.iter().map(|&(j, a)| (VarId(j), a)).collect();
            q.add_cons(&row, c.cmp, rhs);
        }
        q.add_objective_constant(p.obj_constant);
        q
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A solve's outcome, floats as bit patterns.
    fn observed_outcome(p: &Problem, outcome: &Outcome) -> String {
        match outcome {
            Outcome::Optimal(s) => format!(
                "optimal {} {:?} {:?}",
                s.objective.to_bits(),
                bits(&s.x),
                bits(&s.duals)
            ),
            Outcome::Infeasible(f) => format!(
                "infeasible {:?} {:?}",
                bits(&f.row_multipliers),
                bits(&f.ub_multipliers(p))
            ),
            Outcome::Unbounded => "unbounded".to_string(),
        }
    }

    /// Everything a solve returns, floats as bit patterns.
    fn observed(p: &Problem, r: &Result<WarmSolve, SolveError>) -> String {
        match r {
            Err(e) => format!("{e:?}"),
            Ok(w) => format!(
                "{} | {:?} {:?} {} | {:?}",
                observed_outcome(p, &w.outcome),
                w.basis.status,
                w.basis.basic,
                w.basis.matrix_fp,
                w.stats
            ),
        }
    }

    fn random_box(rng: &mut GenRng) -> (f64, f64) {
        let lb = rng.uniform(-3.0, 1.0);
        (lb, lb + rng.uniform(0.0, 5.0))
    }

    /// A random sparse row (`wrap = VarId`) or column (`wrap = ConsId`) over
    /// `len` indices.
    fn random_coeffs<T>(rng: &mut GenRng, len: usize, wrap: fn(usize) -> T) -> Vec<(T, f64)> {
        let mut out = Vec::new();
        for k in 0..len {
            if rng.chance(0.6) {
                out.push((wrap(k), rng.uniform(-4.0, 4.0)));
            }
        }
        out
    }

    /// A random bound shape: free, one-sided, boxed or fixed.
    fn random_shape(rng: &mut GenRng) -> (f64, f64) {
        let (lb, ub) = random_box(rng);
        match rng.index(5) {
            0 => (f64::NEG_INFINITY, f64::INFINITY),
            1 => (lb, f64::INFINITY),
            2 => (f64::NEG_INFINITY, ub),
            3 => (lb, lb),
            _ => (lb, ub),
        }
    }

    /// Gives a random variable a random bound shape, so bounds change
    /// finiteness in both directions.
    fn random_reshape(rng: &mut GenRng, p: &mut Problem) {
        let v = VarId(rng.index(p.num_vars()));
        let (lb, ub) = random_shape(rng);
        p.set_bounds(v, lb, ub);
    }

    /// One random edit through the public builder API.
    fn random_edit(rng: &mut GenRng, p: &mut Problem) {
        let (n, m) = (p.num_vars(), p.num_cons());
        match rng.index(7) {
            0 => random_bound_edit(rng, p),
            1 => p.set_rhs(ConsId(rng.index(m)), rng.uniform(-6.0, 10.0)),
            2 => p.set_objective(VarId(rng.index(n)), rng.uniform(-3.0, 3.0)),
            3 => {
                let row = random_coeffs(rng, n, VarId);
                let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.index(3)];
                p.add_cons(&row, cmp, rng.uniform(-6.0, 10.0));
            }
            4 => {
                let col = random_coeffs(rng, m, ConsId);
                let (lb, ub) = random_box(rng);
                p.add_column(lb, ub, rng.uniform(-3.0, 3.0), &col);
            }
            5 => {
                let (lb, ub) = random_box(rng);
                p.add_var(lb, ub, rng.uniform(-3.0, 3.0));
            }
            _ => *p = p.clone(),
        }
    }

    /// The record form [`Problem`] held its values in before it kept the
    /// engine's arrays: bounds and cost per variable, sense and right-hand
    /// side per row, as the builder calls stated them.
    #[derive(Clone, Default)]
    struct Records {
        vars: Vec<[f64; 3]>,
        cons: Vec<(Cmp, f64)>,
    }

    impl Records {
        /// The per-solve refill the engine's arrays used to come from (the
        /// deleted `CanonValues::fill`), kept as the specification of the
        /// arrays `Problem` now maintains: `[lb, ub, cost, rhs]`.
        fn fill(&self) -> [Vec<f64>; 4] {
            let (mut lb, mut ub, mut cost, mut b) = (vec![], vec![], vec![], vec![]);
            for &[l, u, c] in &self.vars {
                lb.push(l);
                ub.push(u);
                cost.push(c);
            }
            for &(cmp, rhs) in &self.cons {
                b.push(rhs);
                let (l, u) = match cmp {
                    Cmp::Le => (0.0, f64::INFINITY),
                    Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                    Cmp::Eq => (0.0, 0.0),
                };
                lb.push(l);
                ub.push(u);
                cost.push(0.0);
            }
            [lb, ub, cost, b]
        }
    }

    /// One random edit applied to the problem through the builder API and to
    /// the records by hand.
    fn mirrored_edit(rng: &mut GenRng, p: &mut Problem, rec: &mut Records) {
        let (n, m) = (p.num_vars(), p.num_cons());
        let (lb, ub) = random_shape(rng);
        let obj = rng.uniform(-3.0, 3.0);
        let rhs = rng.uniform(-6.0, 10.0);
        match rng.index(7) {
            0 if n > 0 => {
                let j = rng.index(n);
                p.set_bounds(VarId(j), lb, ub);
                rec.vars[j][..2].copy_from_slice(&[lb, ub]);
            }
            1 if m > 0 => {
                let i = rng.index(m);
                p.set_rhs(ConsId(i), rhs);
                rec.cons[i].1 = rhs;
            }
            2 if n > 0 => {
                let j = rng.index(n);
                p.set_objective(VarId(j), obj);
                rec.vars[j][2] = obj;
            }
            3 => {
                let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.index(3)];
                p.add_cons(&random_coeffs(rng, n, VarId), cmp, rhs);
                rec.cons.push((cmp, rhs));
            }
            4 => {
                p.add_column(lb, ub, obj, &random_coeffs(rng, m, ConsId));
                rec.vars.push([lb, ub, obj]);
            }
            5 => (*p, *rec) = (p.clone(), rec.clone()),
            _ => {
                p.add_var(lb, ub, obj);
                rec.vars.push([lb, ub, obj]);
            }
        }
    }

    /// Variables and constraints entered in any order give the arrays — and
    /// so the solve — of the same program entered variables first.
    #[test]
    fn interleaved_build_solves_as_variables_first() {
        let mut p = Problem::new();
        let x = p.add_var(0.0, 4.0, -1.0);
        p.add_cons(&[(x, 1.0)], Cmp::Le, 3.0);
        let y = p.add_var(f64::NEG_INFINITY, 5.0, -2.0);
        p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let r = p.add_cons(&[(x, 2.0), (y, 1.0)], Cmp::Le, 8.0);
        let z = p.add_column(1.0, f64::INFINITY, 0.5, &[(r, -1.0)]);
        p.add_cons(&[(y, 1.0), (z, -1.0)], Cmp::Eq, 0.5);
        let w = p.add_var(0.0, 2.0, -0.25);
        p.add_cons(&[(w, 1.0), (z, 1.0)], Cmp::Le, 6.0);
        p.add_objective_constant(1.5);

        let first = rebuilt(&p);
        assert_eq!(bits(&p.lb), bits(&first.lb));
        assert_eq!(bits(&p.ub), bits(&first.ub));
        assert_eq!(bits(&p.cost), bits(&first.cost));
        assert_eq!(bits(&p.rhs), bits(&first.rhs));
        let solved = p.solve_warm(None);
        assert!(matches!(&solved, Ok(w) if matches!(w.outcome, Outcome::Optimal(_))));
        assert_eq!(observed(&p, &solved), observed(&p, &first.solve_warm(None)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arrays `Problem` maintains edit by edit refine the refill
        /// from records they replaced: after every step of a random edit
        /// sequence — variables added after constraints, rows of all three
        /// senses, appended columns, bounds changing finiteness both ways,
        /// right-hand sides, costs, clones — they equal it bit for bit.
        #[test]
        fn model_arrays_refine_the_refill(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let (mut p, mut rec) = (Problem::new(), Records::default());
            for step in 0..48 {
                mirrored_edit(&mut rng, &mut p, &mut rec);
                prop_assert_eq!((p.num_vars(), p.num_cons()), (rec.vars.len(), rec.cons.len()));
                let held = [&p.lb, &p.ub, &p.cost, &p.rhs].map(|v| bits(v));
                prop_assert_eq!(held, rec.fill().map(|v| bits(&v)), "step {}", step);
            }
        }

        /// The problem that keeps its structure across an edit sequence
        /// refines the one that rebuilds it for every solve: same outcome,
        /// basis, counters and matrix fingerprint, bit for bit, warm and
        /// cold, whatever mix of value edits, structural edits and clones
        /// lies between two solves.
        #[test]
        fn cached_structure_refines_the_rebuild(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let mut p = random_lp(&mut rng, &LpGenConfig::default());
            let options = SimplexOptions::default();
            let mut basis: Option<Basis> = None;
            for step in 0..24 {
                if step > 0 {
                    random_edit(&mut rng, &mut p);
                    if rng.chance(0.25) {
                        continue; // let edits pile up between solves
                    }
                }
                let warm = basis.as_ref().filter(|_| rng.chance(0.75));
                let kept = WarmChain::new().solve_from(&p, warm, &options);
                let spec = WarmChain::new().solve_from(&rebuilt(&p), warm, &options);
                prop_assert_eq!(observed(&p, &kept), observed(&p, &spec), "step {}", step);
                if let Ok(w) = kept {
                    prop_assert_eq!(
                        w.basis.matrix_fp,
                        p.structural_matrix().fingerprint(),
                        "step {}: stale fingerprint", step
                    );
                    basis = Some(w.basis);
                }
            }
        }

        /// A kept [`WarmChain`] refines the `Basis` hand-off: a chain of
        /// `resolve`s and, at every step, a fresh chain that loads the
        /// previous step's basis, resolves and gives its basis up again
        /// (`solve_from`) agree bit for bit — outcome, final statuses and
        /// basic set, the persisted factorization, `matrix_fp`, every
        /// counter — across value edits (bounds changing finiteness
        /// included), problem growth, injected faults, any refactorization
        /// interval, and a pivot cap that makes a solve fail (after which
        /// both sides start cold).
        #[test]
        fn chain_refines_the_basis_handoff(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let mut p = random_lp(&mut rng, &LpGenConfig::default());
            let options = SimplexOptions {
                fault: [None, Some(FaultConfig::chaos(seed))][rng.index(2)],
                refactor_interval: [1, 8, 128][rng.index(3)],
                ..SimplexOptions::default()
            };
            let mut chain = WarmChain::new();
            let mut basis: Option<Basis> = None;
            for step in 0..24 {
                if step > 0 {
                    if rng.chance(0.3) {
                        random_reshape(&mut rng, &mut p);
                    } else {
                        random_edit(&mut rng, &mut p);
                    }
                    if rng.chance(0.25) {
                        continue; // let edits pile up between solves
                    }
                }
                let capped = SimplexOptions {
                    max_iterations: rng.index(3),
                    ..options.clone()
                };
                let options = if rng.chance(0.1) { &capped } else { &options };
                let spec = WarmChain::new().solve_from(&p, basis.as_ref(), options);
                let kept = p.resolve(&mut chain, options);
                match (spec, kept) {
                    (Ok(spec), Ok((outcome, stats))) => {
                        prop_assert_eq!(
                            observed_outcome(&p, &outcome),
                            observed_outcome(&p, &spec.outcome),
                            "step {}", step
                        );
                        prop_assert_eq!(stats, spec.stats, "step {}", step);
                        let held = &chain.state;
                        prop_assert!(held.warm, "step {}: a finished solve leaves a basis", step);
                        prop_assert_eq!(&held.status, &spec.basis.status, "step {}", step);
                        prop_assert_eq!(&held.basic, &spec.basis.basic, "step {}", step);
                        prop_assert_eq!(held.n_vars, spec.basis.n_vars, "step {}", step);
                        prop_assert_eq!(held.matrix_fp, spec.basis.matrix_fp, "step {}", step);
                        prop_assert_eq!(
                            format!("{:?}", held.fact),
                            format!("{:?}", spec.basis.fact.as_deref()),
                            "step {}: factorization", step
                        );
                        basis = Some(spec.basis);
                    }
                    (Err(spec), Err(kept)) => {
                        prop_assert_eq!(spec, kept, "step {}", step);
                        prop_assert!(!chain.is_warm(), "step {}: a failed solve leaves a cold chain", step);
                        basis = None;
                    }
                    (spec, kept) => prop_assert!(
                        false,
                        "step {}: basis hand-off {:?}, chain {:?}",
                        step, spec.map(|w| w.stats), kept.map(|k| k.1)
                    ),
                }
            }
        }
    }
}

/// The three kernels whose shape changed under the warm chain, each against
/// the form it replaced.
mod chain_kernel_props {
    use super::*;
    use crate::revised::canon::{drain_ascending, Canon};
    use crate::sparse::SparseMatrix;
    use proptest::prelude::*;

    /// A random LP whose rows repeat variables, with coefficients from a
    /// small set so that duplicates cancel and explicit zeros occur.
    fn lp_with_duplicates(rng: &mut GenRng) -> Problem {
        let mut p = random_lp(rng, &LpGenConfig::default());
        let n = p.num_vars();
        for _ in 0..1 + rng.index(4) {
            let row: Vec<(VarId, f64)> = (0..rng.index(3 * n + 1))
                .map(|_| (VarId(rng.index(n)), rng.index(5) as f64 - 2.0))
                .collect();
            p.add_cons(&row, Cmp::Le, rng.uniform(-6.0, 10.0));
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The counting-sort assembly of the CSC matrix equals the one list
        /// per column it replaced: pattern, values and fingerprint.
        #[test]
        fn counting_sort_csc_equals_from_columns(seed in 0u64..1u64 << 48) {
            let p = lp_with_duplicates(&mut GenRng::new(seed));
            let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); p.num_vars()];
            for (i, c) in p.cons.iter().enumerate() {
                for &(j, a) in &c.coeffs {
                    cols[j].push((i as u32, a));
                }
            }
            let listed = SparseMatrix::from_columns(p.num_cons(), &cols);
            let sorted = p.structural_matrix();
            prop_assert_eq!(sorted.fingerprint(), listed.fingerprint());
            prop_assert_eq!(sorted, listed);
        }

        /// Marking a pivot row's candidates in the bitset and walking it
        /// yields the stamped-and-sorted column list, and the entries
        /// accumulated row by row are `col_dot`'s: the same bits where
        /// nonzero, zero where zero.
        #[test]
        fn pivot_row_marking_equals_the_sorted_scan(seed in 0u64..1u64 << 48) {
            let mut rng = GenRng::new(seed);
            let p = lp_with_duplicates(&mut rng);
            let c = Canon::new(&p);
            let rho: Vec<f64> = (0..c.m)
                .map(|_| if rng.chance(0.4) { rng.uniform(-3.0, 3.0) } else { 0.0 })
                .collect();

            // The list it replaced: stamp, collect, sort.
            let mut stamped = vec![false; c.n];
            let mut cols: Vec<usize> = Vec::new();
            for (i, &ri) in rho.iter().enumerate() {
                if ri == 0.0 {
                    continue;
                }
                for k in c.s.row_ptr[i] as usize..c.s.row_ptr[i + 1] as usize {
                    let j = c.s.row_cols[k] as usize;
                    if !std::mem::replace(&mut stamped[j], true) {
                        cols.push(j);
                    }
                }
                cols.push(c.n + i);
            }
            cols.sort_unstable();

            let mut bits = vec![0u64; (c.n + c.m).div_ceil(64)];
            let mut acc = vec![0.0; c.n];
            c.mark_pivot_row(&rho, &mut bits, &mut acc);
            let mut walked = Vec::new();
            let count = drain_ascending(&mut bits, |j| walked.push(j));
            prop_assert_eq!(count, cols.len());
            prop_assert_eq!(&walked, &cols);
            prop_assert!(bits.iter().all(|&w| w == 0), "the walk clears the set");
            for j in 0..c.n {
                let dot = c.col_dot(&rho, j);
                if dot != 0.0 {
                    prop_assert_eq!(acc[j].to_bits(), dot.to_bits(), "column {}", j);
                } else {
                    prop_assert_eq!(acc[j], 0.0, "column {}", j);
                }
                prop_assert!(acc[j] == 0.0 || stamped[j], "column {}: unmarked entry", j);
            }
        }
    }
}

mod chain_edges {
    use super::*;

    /// No rows at all, and no column free to move: the chain solves, and
    /// re-solves warm, where there is nothing to pivot on.
    #[test]
    fn empty_and_all_fixed_problems_resolve() {
        let options = SimplexOptions::default();

        let mut rowless = Problem::new();
        let x = rowless.add_var(0.0, 5.0, 2.0);
        let y = rowless.add_var(-1.0, 7.0, -3.0);
        let mut chain = WarmChain::new();
        for ub in [7.0, 4.0] {
            rowless.set_bounds(y, -1.0, ub);
            let (outcome, _) = rowless.resolve(&mut chain, &options).unwrap();
            let s = outcome.unwrap_optimal();
            assert_eq!((s.value(x), s.value(y)), (0.0, ub));
        }
        assert!(chain.is_warm());

        let mut fixed = Problem::new();
        let a = fixed.add_var(2.0, 2.0, 1.0);
        let b = fixed.add_var(-1.0, -1.0, 1.0);
        let row = fixed.add_cons(&[(a, 1.0), (b, 1.0)], Cmp::Le, 3.0);
        let mut chain = WarmChain::new();
        let (outcome, stats) = fixed.resolve(&mut chain, &options).unwrap();
        assert_eq!(outcome.unwrap_optimal().objective, 1.0);
        assert_eq!(stats.cold_starts, 1);
        // Warm, and now infeasible with no column able to enter.
        fixed.set_rhs(row, 0.0);
        let (outcome, stats) = fixed.resolve(&mut chain, &options).unwrap();
        assert_eq!((stats.warm_starts, stats.factorization_reuses), (1, 1));
        match outcome {
            Outcome::Infeasible(f) => check_farkas(&fixed, &f, "all-fixed"),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }
}

/// The engine keeps the duals `B⁻ᵀc_B` it priced until the basis or the
/// factorization changes, instead of pricing them again.
mod dual_reuse {
    use super::*;
    use crate::model::ConsId;
    use crate::revised::lu::{Factorization, SolveScratch};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `duals` equal, bit for bit, one fresh BTRAN of `c_B` for the basic
    /// set `basic` through `fact` — the factorization the solve ended with.
    fn assert_btran_of_basic_costs(
        p: &Problem,
        duals: &[f64],
        basic: &[usize],
        fact: Option<&Factorization>,
        tag: &str,
    ) {
        let fact =
            fact.unwrap_or_else(|| panic!("{tag}: an optimal solve leaves its factorization"));
        let mut y: Vec<f64> = basic.iter().map(|&j| p.cost[j]).collect();
        fact.btran(&mut y, &mut SolveScratch::new());
        assert_eq!(bits(duals), bits(&y), "{tag}");
    }

    /// Over random LPs and warm chains of bound, right-hand-side and cost
    /// edits — dual re-solves, primal mop-ups with bound flips, phase 1
    /// after a bound turns infinite, and every refactorization interval from
    /// each pivot to rarely — an optimal solve's duals are the BTRAN a
    /// from-scratch pricing would return, through a `Basis` hand-off and
    /// through a `WarmChain` alike.
    #[test]
    fn optimal_duals_are_a_btran_through_the_final_factorization() {
        let mut rng = GenRng::new(0x0D0A_15EE_D0A1_5EED);
        let mut checked = 0;
        for case in 0..240 {
            let cfg = &[LpGenConfig::default(), LpGenConfig::torture()][case % 2];
            let mut p = random_lp(&mut rng, cfg);
            let mut chain = WarmChain::new();
            let mut basis: Option<Basis> = None;
            for step in 0..8 {
                let tag = format!("case {case} step {step}");
                // An interval below the carried factorization's update count
                // refactorizes between the repair's pricing and the dual.
                let options = SimplexOptions {
                    refactor_interval: [1, 2, 8, 128][rng.index(4)],
                    ..SimplexOptions::default()
                };
                let w = WarmChain::new()
                    .solve_from(&p, basis.as_ref(), &options)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let (outcome, _) = p
                    .resolve(&mut chain, &options)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                if let Outcome::Optimal(s) = &w.outcome {
                    let (basic, fact) = (&w.basis.basic, w.basis.fact.as_deref());
                    assert_btran_of_basic_costs(&p, &s.duals, basic, fact, &tag);
                    checked += 1;
                }
                if let Outcome::Optimal(s) = &outcome {
                    let held = &chain.state;
                    let tag = format!("{tag} chain");
                    assert_btran_of_basic_costs(
                        &p,
                        &s.duals,
                        &held.basic,
                        held.fact.as_ref(),
                        &tag,
                    );
                }
                basis = Some(w.basis);
                let v = VarId(rng.index(p.num_vars()));
                match rng.index(4) {
                    0 => random_bound_edit(&mut rng, &mut p),
                    1 => p.set_rhs(ConsId(rng.index(p.num_cons())), rng.uniform(-6.0, 10.0)),
                    2 => p.set_objective(v, rng.uniform(-3.0, 3.0)),
                    _ => p.set_bounds(v, f64::NEG_INFINITY, f64::INFINITY),
                }
            }
        }
        assert!(checked > 300, "only {checked} optimal solves checked");
    }

    /// A warm start whose repair priced the duals, then a phase 1 that ends
    /// on one bound flip and no pivot: phase 1 overwrote the pricing
    /// buffer, so phase 2 must price afresh.
    #[test]
    fn phase_one_by_a_flip_alone_leaves_no_stale_duals() {
        let options = SimplexOptions::default();
        let mut p = Problem::new();
        let x = p.add_var(0.0, 1.0, 0.0);
        let w = p.add_var(0.0, f64::INFINITY, -1.0);
        let u = p.add_var(0.0, f64::INFINITY, 0.0);
        let row = p.add_cons(&[(x, 1.0)], Cmp::Ge, 0.0);
        p.add_cons(&[(w, 1.0), (u, 1.0)], Cmp::Le, 5.0);
        let first = WarmChain::new().solve_from(&p, None, &options).unwrap();
        // `u` turns attractive below an infinite upper bound, which no flip
        // repairs; `x >= 1` is met by flipping `x` to its upper bound.
        p.set_objective(u, -2.0);
        p.set_rhs(row, 1.0);
        let w = WarmChain::new()
            .solve_from(&p, Some(&first.basis), &options)
            .unwrap();
        let stats = &w.stats;
        assert_eq!(
            (stats.warm_starts, stats.phase1_pivots, stats.bound_flips),
            (1, 1, 1)
        );
        let s = w.outcome.unwrap_optimal();
        assert_eq!((s.objective, s.value(x), s.value(u)), (-10.0, 1.0, 5.0));
        let (basic, fact) = (&w.basis.basic, w.basis.fact.as_deref());
        assert_btran_of_basic_costs(&p, &s.duals, basic, fact, "flip-only phase 1");
    }
}
