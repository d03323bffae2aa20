//! Unit and property tests for the simplex solver.

use crate::{Cmp, Outcome, Problem, SimplexOptions};
use proptest::prelude::*;

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
}

#[test]
fn trivial_unconstrained_at_bounds() {
    // min 2x − 3y with 0 ≤ x ≤ 5, 0 ≤ y ≤ 7 → x = 0, y = 7.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 5.0, 2.0);
    let y = p.add_var(0.0, 7.0, -3.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 0.0, 1e-9);
    assert_close(s.value(y), 7.0, 1e-9);
    assert_close(s.objective, -21.0, 1e-9);
}

#[test]
fn textbook_max_problem() {
    // Classic: max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), 36.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -3.0);
    let y = p.add_var(0.0, f64::INFINITY, -5.0);
    p.add_cons(&[(x, 1.0)], Cmp::Le, 4.0);
    p.add_cons(&[(y, 2.0)], Cmp::Le, 12.0);
    let c3 = p.add_cons(&[(x, 1.0), (y, 2.0)], Cmp::Le, 18.0).index();
    let _ = c3;
    let s = p.solve().unwrap().unwrap_optimal();
    // note: third constraint here is x + 2y ≤ 18 variant → optimum (4, 6), -42? Let's check:
    // max 3x+5y, x≤4, y≤6, x+2y≤18 → x=4,y=6 gives x+2y=16 ≤ 18 ok → 12+30=42.
    assert_close(s.objective, -42.0, 1e-7);
    assert_close(s.value(x), 4.0, 1e-7);
    assert_close(s.value(y), 6.0, 1e-7);
}

#[test]
fn equality_constraint() {
    // min x + y s.t. x + y = 10, x − y ≥ 2 → any point on x+y=10 with x−y≥2; obj = 10.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 1.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
    p.add_cons(&[(x, 1.0), (y, -1.0)], Cmp::Ge, 2.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.objective, 10.0, 1e-7);
    assert_close(s.value(x) + s.value(y), 10.0, 1e-7);
    assert!(s.value(x) - s.value(y) >= 2.0 - 1e-7);
}

#[test]
fn ge_constraints_diet_style() {
    // min 0.6x + y s.t. 10x + 4y ≥ 20, 5x + 5y ≥ 20 → classic diet LP.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 0.6);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    let c1 = p.add_cons(&[(x, 10.0), (y, 4.0)], Cmp::Ge, 20.0);
    let c2 = p.add_cons(&[(x, 5.0), (y, 5.0)], Cmp::Ge, 20.0);
    let s = p.solve().unwrap().unwrap_optimal();
    // Corner points: (4,0) cost 2.4, (0,5) cost 5, (2/3,10/3) cost 3.73… →
    // optimum is (4, 0).
    assert_close(s.value(x), 4.0, 1e-6);
    assert_close(s.value(y), 0.0, 1e-6);
    assert_close(s.objective, 2.4, 1e-6);
    // Duals: Ge rows have nonnegative duals; strong duality holds.
    let d1 = s.duals[c1.index()];
    let d2 = s.duals[c2.index()];
    assert!(d1 >= -1e-9 && d2 >= -1e-9);
    assert_close(d1 * 20.0 + d2 * 20.0, s.objective, 1e-6);
}

#[test]
fn le_constraint_duals_are_nonpositive_for_min() {
    // min −x s.t. x ≤ 3 → dual of the ≤ row must be ≤ 0 and obj = 3·y... −3 = 3y → y = −1.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -1.0);
    let c = p.add_cons(&[(x, 1.0)], Cmp::Le, 3.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 3.0, 1e-9);
    assert_close(s.duals[c.index()], -1.0, 1e-9);
}

#[test]
fn infeasible_simple_with_certificate() {
    // x ≥ 0, x ≤ −1 is infeasible.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0)], Cmp::Le, -1.0);
    match p.solve().unwrap() {
        Outcome::Infeasible(f) => {
            // y ≤ 0 for the ≤ row; y·b = y·(−1) > 0 → y < 0; column: y·1 ≤ 0 ✓.
            assert!(f.row_multipliers[0] < -1e-9);
        }
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn infeasible_two_rows_certificate_property() {
    // x + y ≥ 10 and x + y ≤ 4: infeasible.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 0.0);
    let y = p.add_var(0.0, f64::INFINITY, 0.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    match p.solve().unwrap() {
        Outcome::Infeasible(f) => {
            let yv = &f.row_multipliers;
            // Sign conventions.
            assert!(yv[0] >= -1e-9, "Ge row multiplier must be ≥ 0");
            assert!(yv[1] <= 1e-9, "Le row multiplier must be ≤ 0");
            // A'y ≤ 0 per column (both columns identical here).
            let col = yv[0] + yv[1];
            assert!(col <= 1e-7, "certificate must price out columns, got {col}");
            // y'b > 0.
            let val = yv[0] * 10.0 + yv[1] * 4.0;
            assert!(val > 1e-7, "certificate must separate, got {val}");
        }
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn infeasible_via_upper_bounds() {
    // x ≤ 2, y ≤ 2, x + y ≥ 5 infeasible via variable bounds.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 2.0, 0.0);
    let y = p.add_var(0.0, 2.0, 0.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
    match p.solve().unwrap() {
        Outcome::Infeasible(f) => {
            // Full certificate: row y0 ≥ 0, ub multipliers w ≤ 0, and
            // y·5 + w_x·2 + w_y·2 > 0 while each column prices out.
            let yr = f.row_multipliers[0];
            assert!(yr >= -1e-9);
            let w = f.ub_multipliers(&p);
            let (wx, wy) = (w[0], w[1]);
            assert!(wx <= 1e-9 && wy <= 1e-9);
            assert!(yr * 5.0 + 2.0 * wx + 2.0 * wy > 1e-7);
            assert!(yr + wx <= 1e-7);
            assert!(yr + wy <= 1e-7);
        }
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn unbounded_detection() {
    // min −x, x ≥ 0 unconstrained above.
    let mut p = Problem::new();
    let _x = p.add_var(0.0, f64::INFINITY, -1.0);
    match p.solve().unwrap() {
        Outcome::Unbounded => {}
        other => panic!("expected unbounded, got {other:?}"),
    }
}

#[test]
fn unbounded_with_constraints() {
    // min −x + y s.t. x − y ≤ 1: x − y bounded but x free to grow with y.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -2.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
    match p.solve().unwrap() {
        Outcome::Unbounded => {}
        other => panic!("expected unbounded, got {other:?}"),
    }
}

#[test]
fn free_variable_split() {
    // min |style|: min x s.t. x ≥ −5 encoded with free var and Ge row.
    let mut p = Problem::new();
    let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0)], Cmp::Ge, -5.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), -5.0, 1e-9);
    assert_close(s.objective, -5.0, 1e-9);
}

#[test]
fn mirrored_variable_only_upper_bound() {
    // min −x with x ≤ 9 and no lower bound but constraint x ≥ 1.
    let mut p = Problem::new();
    let x = p.add_var(f64::NEG_INFINITY, 9.0, -1.0);
    p.add_cons(&[(x, 1.0)], Cmp::Ge, 1.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 9.0, 1e-9);
}

#[test]
fn shifted_lower_bound() {
    // min x with 3 ≤ x ≤ 10 → 3; objective constant must be accounted.
    let mut p = Problem::new();
    let x = p.add_var(3.0, 10.0, 1.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 3.0, 1e-9);
    assert_close(s.objective, 3.0, 1e-9);
}

#[test]
fn negative_lower_bound_shift() {
    // min x, −4 ≤ x ≤ −1 → −4.
    let mut p = Problem::new();
    let x = p.add_var(-4.0, -1.0, 1.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), -4.0, 1e-9);
}

#[test]
fn fixed_variable() {
    // lb == ub pins the variable.
    let mut p = Problem::new();
    let x = p.add_var(2.5, 2.5, 1.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 2.5, 1e-9);
    assert_close(s.value(y), 1.5, 1e-9);
}

#[test]
fn objective_constant_reported() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, 1.0);
    p.add_objective_constant(100.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.objective, 100.0, 1e-9);
    assert_close(s.value(x), 0.0, 1e-9);
}

#[test]
fn degenerate_does_not_cycle() {
    // Beale's classic cycling example (with Dantzig pricing this cycles
    // without anti-cycling safeguards).
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
    let s = crate::dense::solve(&p, &opts).unwrap().unwrap_optimal();
    assert_close(s.objective, -0.05, 1e-7);
}

#[test]
fn duality_with_equality_rows() {
    // min 2x + 3y s.t. x + y = 4, x ≥ 1 → x=4,y=0? obj candidates: y free to 0,
    // x=4: 8; or x=1,y=3: 2+9=11 → optimum x=4,y=0, obj 8.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 2.0);
    let y = p.add_var(0.0, f64::INFINITY, 3.0);
    let ceq = p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
    let cge = p.add_cons(&[(x, 1.0)], Cmp::Ge, 1.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.objective, 8.0, 1e-7);
    // Strong duality over both rows: 4·y_eq + 1·y_ge = 8 with y_ge ≥ 0.
    assert_close(4.0 * s.duals[ceq.index()] + s.duals[cge.index()], 8.0, 1e-6);
    assert!(s.duals[cge.index()] >= -1e-9);
}

#[test]
fn redundant_equality_rows() {
    // Duplicate equality rows must not break phase 1 (redundant row keeps an
    // artificial basic at level zero).
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, 1.0);
    let y = p.add_var(0.0, f64::INFINITY, 1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
    p.add_cons(&[(x, 2.0), (y, 2.0)], Cmp::Eq, 10.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.objective, 5.0, 1e-7);
}

#[test]
fn duplicate_coefficients_are_summed() {
    // (x,1) listed twice == coefficient 2.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -1.0);
    p.add_cons(&[(x, 1.0), (x, 1.0)], Cmp::Le, 10.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 5.0, 1e-9);
}

#[test]
fn transportation_problem() {
    // 2 plants (cap 20, 30) → 3 markets (dem 10, 25, 15), known optimum.
    let cost = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
    let mut p = Problem::new();
    let mut v = [[crate::VarId(0); 3]; 2];
    for i in 0..2 {
        for j in 0..3 {
            v[i][j] = p.add_var(0.0, f64::INFINITY, cost[i][j]);
        }
    }
    p.add_cons(
        &[(v[0][0], 1.0), (v[0][1], 1.0), (v[0][2], 1.0)],
        Cmp::Le,
        20.0,
    );
    p.add_cons(
        &[(v[1][0], 1.0), (v[1][1], 1.0), (v[1][2], 1.0)],
        Cmp::Le,
        30.0,
    );
    p.add_cons(&[(v[0][0], 1.0), (v[1][0], 1.0)], Cmp::Ge, 10.0);
    p.add_cons(&[(v[0][1], 1.0), (v[1][1], 1.0)], Cmp::Ge, 25.0);
    p.add_cons(&[(v[0][2], 1.0), (v[1][2], 1.0)], Cmp::Ge, 15.0);
    let s = p.solve().unwrap().unwrap_optimal();
    // Supply 50 = demand 50. Cheapest: plant0 serves market1 (6) up to 20,
    // plant1 serves market0 (9) 10 units, market1 remaining 5 (12), market2 15 (13).
    // obj = 20·6 + 10·9 + 5·12 + 15·13 = 120+90+60+195 = 465.
    assert_close(s.objective, 465.0, 1e-6);
}

#[test]
fn set_bounds_resolves() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, -1.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 1.0, 1e-9);
    p.set_bounds(x, 0.0, 0.25);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 0.25, 1e-9);
}

#[test]
fn empty_problem_is_trivially_optimal() {
    let p = Problem::new();
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.objective, 0.0, 1e-12);
}

#[test]
fn constraint_with_no_vars_feasible_and_infeasible() {
    let mut p = Problem::new();
    let _x = p.add_var(0.0, 1.0, 1.0);
    p.add_cons(&[], Cmp::Le, 5.0); // 0 ≤ 5 ✓
    assert!(matches!(p.solve().unwrap(), Outcome::Optimal(_)));
    p.add_cons(&[], Cmp::Ge, 5.0); // 0 ≥ 5 ✗
    assert!(matches!(p.solve().unwrap(), Outcome::Infeasible(_)));
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// Builds a random LP guaranteed feasible by construction: pick a point x0 in
/// the box, derive each row's rhs from a·x0 with nonnegative slack.
fn feasible_lp(
    nv: usize,
    nc: usize,
    coeffs: &[f64],
    x0: &[f64],
    slacks: &[f64],
    objs: &[f64],
) -> (Problem, Vec<f64>) {
    let mut p = Problem::new();
    let mut vars = Vec::new();
    for j in 0..nv {
        vars.push(p.add_var(0.0, 10.0, objs[j]));
    }
    for i in 0..nc {
        let row: Vec<(crate::VarId, f64)> =
            (0..nv).map(|j| (vars[j], coeffs[i * nv + j])).collect();
        let ax: f64 = (0..nv).map(|j| coeffs[i * nv + j] * x0[j]).sum();
        p.add_cons(&row, Cmp::Le, ax + slacks[i]);
    }
    (p, x0.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random feasible bounded LPs must solve to optimality, satisfy all
    /// constraints, and obey weak duality within tolerance.
    #[test]
    fn prop_feasible_lps_solve(
        nv in 1usize..6,
        nc in 1usize..6,
        raw_coeffs in proptest::collection::vec(-5.0f64..5.0, 36),
        raw_x0 in proptest::collection::vec(0.0f64..10.0, 6),
        raw_slacks in proptest::collection::vec(0.0f64..5.0, 6),
        raw_objs in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        let (p, _x0) = feasible_lp(
            nv, nc,
            &raw_coeffs[..nv * nc],
            &raw_x0[..nv],
            &raw_slacks[..nc],
            &raw_objs[..nv],
        );
        let outcome = p.solve().unwrap();
        let s = match outcome {
            Outcome::Optimal(s) => s,
            other => panic!("constructed-feasible LP reported {other:?}"),
        };
        // Primal feasibility.
        for (i, c) in p.cons.iter().enumerate() {
            let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * s.x[j]).sum();
            prop_assert!(lhs <= p.rhs[i] + 1e-6, "row {i}: {lhs} > {}", p.rhs[i]);
        }
        for (j, &x) in s.x.iter().enumerate() {
            prop_assert!(x >= p.lb[j] - 1e-7 && x <= p.ub[j] + 1e-7);
        }
        // Sign convention: all rows are ≤ ⇒ all duals ≤ 0.
        for (i, d) in s.duals.iter().enumerate() {
            prop_assert!(*d <= 1e-7, "dual {i} positive for ≤ row: {d}");
        }
    }

    /// The solver never reports Optimal for a system made infeasible by an
    /// impossible aggregate constraint, and certificates separate.
    #[test]
    fn prop_infeasible_certified(
        nv in 1usize..5,
        ub in 1.0f64..5.0,
        excess in 0.1f64..10.0,
    ) {
        let mut p = Problem::new();
        let mut vars = Vec::new();
        for _ in 0..nv {
            vars.push(p.add_var(0.0, ub, 0.0));
        }
        // Σ x ≥ nv·ub + excess is impossible.
        let row: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_cons(&row, Cmp::Ge, nv as f64 * ub + excess);
        match p.solve().unwrap() {
            Outcome::Infeasible(f) => {
                let y = f.row_multipliers[0];
                prop_assert!(y >= -1e-9);
                // Certificate value: y·b + Σ w_j·ub_j > 0.
                let val = y * (nv as f64 * ub + excess)
                    + f.ub_multipliers(&p).iter().sum::<f64>() * ub;
                prop_assert!(val > 1e-9, "certificate does not separate: {val}");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    /// Strong duality on random two-phase problems with a mix of row senses.
    #[test]
    fn prop_strong_duality_mixed_rows(
        a in -4.0f64..4.0, b in -4.0f64..4.0,
        c in -4.0f64..4.0, d in -4.0f64..4.0,
        r1 in 1.0f64..8.0, r2 in 1.0f64..8.0,
        o1 in 0.1f64..3.0, o2 in 0.1f64..3.0,
    ) {
        // min o1·x + o2·y s.t. a·x + b·y ≥ −r1, c·x + d·y ≤ r2, x,y ∈ [0, 20].
        // Always feasible at (0,0) since −r1 < 0 < r2.
        let mut p = Problem::new();
        let x = p.add_var(0.0, 20.0, o1);
        let y = p.add_var(0.0, 20.0, o2);
        let g = p.add_cons(&[(x, a), (y, b)], Cmp::Ge, -r1);
        let l = p.add_cons(&[(x, c), (y, d)], Cmp::Le, r2);
        let s = p.solve().unwrap().unwrap_optimal();
        // With positive costs the optimum is (0,0) and duals are 0 on
        // inactive rows; either way the duals must respect signs.
        prop_assert!(s.duals[g.index()] >= -1e-7);
        prop_assert!(s.duals[l.index()] <= 1e-7);
        prop_assert!(s.objective >= -1e-7);
    }
}

// ---------------------------------------------------------------------------
// Stress & robustness
// ---------------------------------------------------------------------------

#[test]
fn moderately_large_dense_lp() {
    // A 40×80 packing LP: max Σ x_j s.t. random rows; solved in one go.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut p = Problem::new();
    let vars: Vec<_> = (0..80).map(|_| p.add_var(0.0, 10.0, -1.0)).collect();
    for _ in 0..40 {
        let row: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.1..2.0))).collect();
        p.add_cons(&row, Cmp::Le, rng.gen_range(20.0..60.0));
    }
    let s = p.solve().unwrap().unwrap_optimal();
    assert!(s.objective < 0.0, "some packing must be possible");
    // Feasibility of the returned point.
    for (c, &rhs) in p.cons.iter().zip(&p.rhs) {
        let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * s.x[j]).sum();
        assert!(lhs <= rhs + 1e-6);
    }
}

#[test]
fn widely_scaled_coefficients() {
    // Capacities in the 1e5 range with costs in the 1e-3 range (the slave
    // LP's actual regime: Mb/s capacities vs tiny risk rates).
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -1e-3);
    let y = p.add_var(0.0, f64::INFINITY, -2e-3);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 2e5);
    p.add_cons(&[(x, 1.0)], Cmp::Le, 5e4);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(y), 2e5, 1e-3);
    assert_close(s.value(x), 0.0, 1e-6);
}

#[test]
fn dual_values_price_capacity() {
    // Economic sanity: the dual of a binding capacity equals the marginal
    // objective gain of relaxing it.
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -3.0);
    let cap = p.add_cons(&[(x, 1.0)], Cmp::Le, 10.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.duals[cap.index()], -3.0, 1e-9);
    // Relax by 1 and re-solve: objective improves by exactly |dual|.
    let mut p2 = Problem::new();
    let x2 = p2.add_var(0.0, f64::INFINITY, -3.0);
    p2.add_cons(&[(x2, 1.0)], Cmp::Le, 11.0);
    let s2 = p2.solve().unwrap().unwrap_optimal();
    assert_close(s2.objective - s.objective, -3.0, 1e-9);
}

#[test]
fn many_redundant_rows() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, f64::INFINITY, -1.0);
    for k in 0..50 {
        p.add_cons(&[(x, 1.0)], Cmp::Le, 5.0 + k as f64); // only the first binds
    }
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 5.0, 1e-9);
    // Only the binding row carries a nonzero dual.
    assert!(s.duals[0] < -1e-9);
    for d in &s.duals[1..] {
        assert!(d.abs() < 1e-9);
    }
}

#[test]
fn equality_system_exact_solve() {
    // Square nonsingular equality system: the LP must return its unique
    // solution regardless of objective.
    let mut p = Problem::new();
    let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
    let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
    p.add_cons(&[(x, 2.0), (y, 1.0)], Cmp::Eq, 5.0);
    p.add_cons(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
    let s = p.solve().unwrap().unwrap_optimal();
    assert_close(s.value(x), 2.0, 1e-7);
    assert_close(s.value(y), 1.0, 1e-7);
}

#[test]
fn perturbed_certificate_accepts_degenerate_tight_row() {
    // max z1+z2+z3 with z ∈ [0,1]³ and Σz ≤ 3: the optimum (1,1,1) is
    // unique (each z pushes independently to its bound) but the capacity
    // row is exactly tight with a zero multiplier — the classic degenerate
    // pattern that strict complementarity rejects.
    let mut p = Problem::new();
    let z1 = p.add_var(0.0, 1.0, -1.0);
    let z2 = p.add_var(0.0, 1.0, -1.0);
    let z3 = p.add_var(0.0, 1.0, -1.0);
    p.add_cons(&[(z1, 1.0), (z2, 1.0), (z3, 1.0)], Cmp::Le, 3.0);
    let s = crate::simplex::Solution {
        objective: -3.0,
        x: vec![1.0, 1.0, 1.0],
        duals: vec![0.0],
    };
    assert_eq!(crate::certify_unique(&p, &s), crate::Uniqueness::Decision);

    // The revised engine's own terminal state agrees: unique decision,
    // degenerate basis.
    let sol = p.solve().unwrap().unwrap_optimal();
    for j in 0..3 {
        assert_close(sol.x[j], 1.0, 1e-9);
    }
    assert_eq!(crate::certify_unique(&p, &sol), crate::Uniqueness::Decision);
}

#[test]
fn perturbed_certificate_refuses_alternative_optima() {
    // max z1+z2 with z ∈ [0,1]² and z1+z2 ≤ 1: every split along the
    // binding row is optimal. Neither test may accept.
    let mut p = Problem::new();
    let z1 = p.add_var(0.0, 1.0, -1.0);
    let z2 = p.add_var(0.0, 1.0, -1.0);
    p.add_cons(&[(z1, 1.0), (z2, 1.0)], Cmp::Le, 1.0);
    // An interior optimum of the binding face (simplex never returns one,
    // but the decision test must still refuse it). The strict test only
    // inspects at-bound columns and passes it, so the decision test is
    // called directly.
    let s = crate::simplex::Solution {
        objective: -1.0,
        x: vec![0.5, 0.5],
        duals: vec![-1.0],
    };
    let d = crate::model::reduced_costs(&p, &s);
    assert!(!crate::model::unique_decision(&p, &s, &d));
    // A vertex optimum of the same face is refused by both tests.
    let v = crate::simplex::Solution {
        objective: -1.0,
        x: vec![1.0, 0.0],
        duals: vec![-1.0],
    };
    assert_eq!(crate::certify_unique(&p, &v), crate::Uniqueness::Unproven);
}

#[test]
fn perturbed_certificate_pins_through_face_rows() {
    // max z1 with z1 ∈ [0,2], z2 ∈ [0,1] free of cost, and z1 + z2 = 3:
    // the unique optimum (2, 1) leaves z2 on its bound with a zero reduced
    // cost (strict fails), but the equality row pins z2 once z1 is pinned
    // by its reduced cost.
    let mut p = Problem::new();
    let z1 = p.add_var(0.0, 2.0, -1.0);
    let z2 = p.add_var(0.0, 1.0, 0.0);
    p.add_cons(&[(z1, 1.0), (z2, 1.0)], Cmp::Eq, 3.0);
    let s = crate::simplex::Solution {
        objective: -2.0,
        x: vec![2.0, 1.0],
        duals: vec![0.0],
    };
    assert_eq!(crate::certify_unique(&p, &s), crate::Uniqueness::Decision);
}
