//! Tests for branch-and-bound, cross-checked against brute-force enumeration.

use crate::{Milp, MilpOptions, MilpOutcome, ABS_GAP, INT_EPS};
use ovnes_lp::{Cmp, Outcome as LpOutcome, Problem, SolveError, VarId};
use proptest::prelude::*;

/// Brute-force optimum of a 0-1 knapsack: max Σ v_i x_i s.t. Σ w_i x_i ≤ cap.
fn knapsack_brute(values: &[f64], weights: &[f64], cap: f64) -> f64 {
    let n = values.len();
    assert!(n <= 20);
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let mut v = 0.0;
        let mut w = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                v += values[i];
                w += weights[i];
            }
        }
        if w <= cap + 1e-12 && v > best {
            best = v;
        }
    }
    best
}

fn knapsack_milp(values: &[f64], weights: &[f64], cap: f64) -> Milp {
    let mut p = Problem::new();
    let vars: Vec<VarId> = values.iter().map(|&v| p.add_var(0.0, 1.0, -v)).collect();
    let row: Vec<_> = vars.iter().zip(weights).map(|(&x, &w)| (x, w)).collect();
    p.add_cons(&row, Cmp::Le, cap);
    let mut m = Milp::new(p);
    for v in vars {
        m.mark_integer(v);
    }
    m
}

/// The knapsack family the node-budget and search-order tests share: 14 items with
/// correlated weights (forces real branching).
fn correlated_knapsack() -> (Vec<f64>, Vec<f64>) {
    let values = (0..14).map(|i| 10.0 + (i as f64) * 0.618).collect();
    let weights = (0..14).map(|i| 7.0 + ((i * 37) % 11) as f64).collect();
    (values, weights)
}

#[test]
fn knapsack_small() {
    let values = [10.0, 13.0, 7.0, 5.0];
    let weights = [3.0, 4.0, 2.0, 1.0];
    let mut m = knapsack_milp(&values, &weights, 6.0);
    let s = m.solve().unwrap().unwrap_optimal();
    let brute = knapsack_brute(&values, &weights, 6.0);
    assert!(
        (-s.objective - brute).abs() < 1e-6,
        "milp {} vs brute {}",
        -s.objective,
        brute
    );
}

#[test]
fn all_items_fit() {
    let values = [1.0, 2.0, 3.0];
    let weights = [1.0, 1.0, 1.0];
    let mut m = knapsack_milp(&values, &weights, 10.0);
    let s = m.solve().unwrap().unwrap_optimal();
    assert!((-s.objective - 6.0).abs() < 1e-6);
    for v in &s.x {
        assert!((v - 1.0).abs() < 1e-9);
    }
}

#[test]
fn nothing_fits() {
    let values = [5.0, 5.0];
    let weights = [10.0, 12.0];
    let mut m = knapsack_milp(&values, &weights, 6.0);
    let s = m.solve().unwrap().unwrap_optimal();
    assert!(s.objective.abs() < 1e-9);
}

#[test]
fn integer_infeasible() {
    // x + y = 1.5 with both binary has a fractional LP solution but no
    // integral one? (0,1)+(1,0) sum to 1, (1,1) to 2 → infeasible.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, 1.0);
    let y = p.add_var(0.0, 1.0, 1.0);
    p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 1.5);
    let mut m = Milp::new(p);
    m.mark_integer(x);
    m.mark_integer(y);
    assert!(matches!(m.solve().unwrap(), MilpOutcome::Infeasible));
}

#[test]
fn lp_infeasible_propagates() {
    let mut p = Problem::new();
    let x = p.add_var(0.0, 1.0, 1.0);
    p.add_cons(&[(x, 1.0)], Cmp::Ge, 2.0);
    let mut m = Milp::new(p);
    m.mark_integer(x);
    assert!(matches!(m.solve().unwrap(), MilpOutcome::Infeasible));
}

#[test]
fn unbounded_relaxation() {
    let mut p = Problem::new();
    let _x = p.add_var(0.0, f64::INFINITY, -1.0);
    let b = p.add_var(0.0, 1.0, 0.0);
    p.add_cons(&[(b, 1.0)], Cmp::Le, 1.0);
    let mut m = Milp::new(p);
    m.mark_integer(b);
    assert!(matches!(m.solve().unwrap(), MilpOutcome::Unbounded));
}

#[test]
fn mixed_integer_continuous() {
    // max 5b + z s.t. b binary, 0 ≤ z ≤ 10, 4b + z ≤ 7 → b=1, z=3 → 8
    // (beats b=0, z=7 → 7).
    let mut p = Problem::new();
    let b = p.add_var(0.0, 1.0, -5.0);
    let z = p.add_var(0.0, 10.0, -1.0);
    p.add_cons(&[(b, 4.0), (z, 1.0)], Cmp::Le, 7.0);
    let mut m = Milp::new(p);
    m.mark_integer(b);
    let s = m.solve().unwrap().unwrap_optimal();
    assert!(
        (s.objective + 8.0).abs() < 1e-6,
        "objective {}",
        s.objective
    );
    assert!((s.value(b) - 1.0).abs() < 1e-9);
    assert!((s.value(z) - 3.0).abs() < 1e-6);
}

#[test]
fn general_integer_variable() {
    // max x s.t. 0 ≤ x ≤ 4.7, x integer → 4.
    let mut p = Problem::new();
    let x = p.add_var(0.0, 4.7, -1.0);
    let mut m = Milp::new(p);
    m.mark_integer(x);
    let s = m.solve().unwrap().unwrap_optimal();
    assert!((s.value(x) - 4.0).abs() < 1e-9);
}

#[test]
fn equality_assignment_problem() {
    // 2 workers × 2 jobs, costs [[1, 4], [3, 2]]: optimum 1 + 2 = 3.
    let mut p = Problem::new();
    let costs = [[1.0, 4.0], [3.0, 2.0]];
    let v: Vec<Vec<VarId>> = costs
        .iter()
        .map(|row| row.iter().map(|&c| p.add_var(0.0, 1.0, c)).collect())
        .collect();
    for i in 0..2 {
        p.add_cons(&[(v[i][0], 1.0), (v[i][1], 1.0)], Cmp::Eq, 1.0);
    }
    for j in 0..2 {
        p.add_cons(&[(v[0][j], 1.0), (v[1][j], 1.0)], Cmp::Eq, 1.0);
    }
    let mut m = Milp::new(p);
    for i in 0..2 {
        for j in 0..2 {
            m.mark_integer(v[i][j]);
        }
    }
    let s = m.solve().unwrap().unwrap_optimal();
    assert!((s.objective - 3.0).abs() < 1e-6);
}

#[test]
fn node_limit_truncates() {
    let (values, weights) = correlated_knapsack();
    let mut m = knapsack_milp(&values, &weights, 40.0);
    m.set_options(MilpOptions {
        max_nodes: 2,
        ..Default::default()
    });
    match m.solve() {
        Ok(MilpOutcome::Optimal(s)) => assert!(s.truncated || s.nodes <= 2),
        // No incumbent in 2 nodes: a spent budget, never `Infeasible`.
        Err(SolveError::IterationLimit) => {}
        other => panic!("feasible problem: {other:?}"),
    }
}

/// A tree the node budget stops before any incumbent has not proved the
/// problem infeasible: it reports the spent budget, while the same tree run
/// to the end finds the optimum.
#[test]
fn node_limit_without_incumbent_is_not_infeasible() {
    let (values, weights) = correlated_knapsack();
    let mut m = knapsack_milp(&values, &weights, 40.0);
    m.set_options(MilpOptions {
        max_nodes: 1, // the root relaxation is fractional
        ..Default::default()
    });
    assert!(matches!(m.solve(), Err(SolveError::IterationLimit)));
    m.set_options(MilpOptions::default());
    let s = m.solve().unwrap().unwrap_optimal();
    assert!(!s.truncated);
    assert!((-s.objective - knapsack_brute(&values, &weights, 40.0)).abs() < 1e-6);
}

#[test]
fn multi_constraint_knapsack() {
    // Two resource dimensions (like CU + radio in the paper).
    let mut p = Problem::new();
    let a = p.add_var(0.0, 1.0, -10.0);
    let b = p.add_var(0.0, 1.0, -8.0);
    let c = p.add_var(0.0, 1.0, -6.0);
    p.add_cons(&[(a, 5.0), (b, 4.0), (c, 1.0)], Cmp::Le, 8.0);
    p.add_cons(&[(a, 1.0), (b, 3.0), (c, 4.0)], Cmp::Le, 5.0);
    let mut m = Milp::new(p);
    for v in [a, b, c] {
        m.mark_integer(v);
    }
    let s = m.solve().unwrap().unwrap_optimal();
    // Candidates: {a,c}: w1=6≤8, w2=5≤5 → 16; {a,b}: w1=9 ✗; {b,c}: w2=7 ✗ → 16.
    assert!((s.objective + 16.0).abs() < 1e-6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small knapsacks must match brute force exactly.
    #[test]
    fn prop_knapsack_matches_brute_force(
        n in 1usize..9,
        raw_values in proptest::collection::vec(0.5f64..20.0, 9),
        raw_weights in proptest::collection::vec(0.5f64..10.0, 9),
        cap in 1.0f64..30.0,
    ) {
        let values = &raw_values[..n];
        let weights = &raw_weights[..n];
        let mut m = knapsack_milp(values, weights, cap);
        let s = m.solve().unwrap().unwrap_optimal();
        let brute = knapsack_brute(values, weights, cap);
        prop_assert!((-s.objective - brute).abs() < 1e-6,
            "milp {} vs brute {}", -s.objective, brute);
        // The reported x must be a genuinely feasible 0/1 selection.
        let w: f64 = s.x.iter().zip(weights).map(|(x, w)| x * w).sum();
        prop_assert!(w <= cap + 1e-6);
        for x in &s.x {
            prop_assert!((x - x.round()).abs() < 1e-9);
        }
    }

    /// Two-dimensional knapsacks against brute force.
    #[test]
    fn prop_multidim_knapsack(
        n in 1usize..7,
        raw_values in proptest::collection::vec(0.5f64..20.0, 7),
        w1 in proptest::collection::vec(0.5f64..10.0, 7),
        w2 in proptest::collection::vec(0.5f64..10.0, 7),
        cap1 in 2.0f64..20.0,
        cap2 in 2.0f64..20.0,
    ) {
        let mut p = Problem::new();
        let vars: Vec<VarId> =
            raw_values[..n].iter().map(|&v| p.add_var(0.0, 1.0, -v)).collect();
        let r1: Vec<_> = vars.iter().zip(&w1[..n]).map(|(&x, &w)| (x, w)).collect();
        let r2: Vec<_> = vars.iter().zip(&w2[..n]).map(|(&x, &w)| (x, w)).collect();
        p.add_cons(&r1, Cmp::Le, cap1);
        p.add_cons(&r2, Cmp::Le, cap2);
        let mut m = Milp::new(p);
        for &v in &vars {
            m.mark_integer(v);
        }
        let s = m.solve().unwrap().unwrap_optimal();

        // Brute force.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let mut v = 0.0;
            let mut a = 0.0;
            let mut b = 0.0;
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    v += raw_values[i];
                    a += w1[i];
                    b += w2[i];
                }
            }
            if a <= cap1 + 1e-12 && b <= cap2 + 1e-12 && v > best {
                best = v;
            }
        }
        prop_assert!((-s.objective - best).abs() < 1e-6,
            "milp {} vs brute {}", -s.objective, best);
    }
}

// ------------------------------------------------------------- search order

/// The nodes a best-first search must apply on the 0-1 knapsack, counted
/// without the search: the whole tree is enumerated with no pruning, each
/// node's relaxation solved cold and branched on its most fractional item
/// (the crate's rule), and the count is the root plus every node whose
/// parent bound lies below the brute-force optimum by more than `ABS_GAP`.
/// Best-first pops all of those before any node at or above the optimum,
/// and none of them can be pruned, so once the optimum is the incumbent
/// every later pop is pruned.
fn best_first_node_count(values: &[f64], weights: &[f64], cap: f64) -> usize {
    let optimum = -knapsack_brute(values, weights, cap);
    let mut count = 0;
    let mut open = vec![(f64::NEG_INFINITY, vec![(0.0, 1.0); values.len()])];
    while let Some((parent_bound, bounds)) = open.pop() {
        if parent_bound < optimum - ABS_GAP {
            count += 1;
        }
        let mut p = Problem::new();
        let row: Vec<_> = values
            .iter()
            .zip(weights)
            .zip(&bounds)
            .map(|((&v, &w), &(lb, ub))| (p.add_var(lb, ub, -v), w))
            .collect();
        p.add_cons(&row, Cmp::Le, cap);
        let LpOutcome::Optimal(sol) = p.solve().unwrap() else {
            continue;
        };
        let mut branch = None;
        let mut best_frac_dist = INT_EPS;
        for (i, &x) in sol.x.iter().enumerate() {
            let frac = (x - x.round()).abs();
            if frac > best_frac_dist {
                best_frac_dist = frac;
                branch = Some(i);
            }
        }
        if let Some(i) = branch {
            for side in [0.0, 1.0] {
                let mut child = bounds.clone();
                child[i] = (side, side);
                open.push((sol.objective, child));
            }
        }
    }
    count
}

/// The search is best-first: on knapsacks whose items have distinct
/// value/weight ratios (so every relaxation has a unique optimum, and the
/// warm search and the cold enumeration branch alike), it applies exactly
/// the nodes [`best_first_node_count`] counts, and finds the brute-force
/// optimum.
#[test]
fn search_applies_exactly_the_best_first_nodes() {
    let (values, weights) = correlated_knapsack();
    let mut ratios: Vec<f64> = values.iter().zip(&weights).map(|(v, w)| v / w).collect();
    ratios.sort_by(f64::total_cmp);
    assert!(ratios.windows(2).all(|r| r[1] - r[0] > 1e-9));
    for cap in [20.0, 40.0, 55.0] {
        let s = knapsack_milp(&values, &weights, cap)
            .solve()
            .unwrap()
            .unwrap_optimal();
        assert!((-s.objective - knapsack_brute(&values, &weights, cap)).abs() < 1e-6);
        assert!(!s.truncated);
        assert_eq!(
            s.nodes,
            best_first_node_count(&values, &weights, cap),
            "cap {cap}: applied nodes vs the best-first count"
        );
    }
}

/// Truncation by the node budget is part of the deterministic contract:
/// the cap stops the search after exactly `max_nodes` applied nodes.
#[test]
fn truncation_is_deterministic_across_workers() {
    let (values, weights) = correlated_knapsack();
    let mut m = knapsack_milp(&values, &weights, 40.0);
    m.set_options(MilpOptions {
        max_nodes: 9,
        ..MilpOptions::default()
    });
    match m.solve() {
        Ok(MilpOutcome::Optimal(s)) => assert_eq!((s.nodes, s.truncated), (9, true)),
        Err(SolveError::IterationLimit) => {}
        other => panic!("feasible problem: {other:?}"),
    }
}

// ----------------------------------------------------- warm-start regression

/// Warm-started branch and bound must return byte-identical decisions to a
/// cold-started run: basis reuse is a speed lever, never a result change.
#[test]
fn warm_and_cold_runs_agree() {
    let values = [10.0, 13.0, 7.0, 5.0, 9.0, 4.0];
    let weights = [3.0, 4.0, 2.0, 1.0, 3.5, 1.5];
    for cap in [3.0, 6.0, 9.0, 12.0] {
        let mut warm = knapsack_milp(&values, &weights, cap);
        let mut cold = knapsack_milp(&values, &weights, cap);
        cold.set_options(MilpOptions {
            warm_start: false,
            ..MilpOptions::default()
        });

        let sw = warm.solve().unwrap().unwrap_optimal();
        let sc = cold.solve().unwrap().unwrap_optimal();
        assert!(
            (sw.objective - sc.objective).abs() < 1e-9,
            "cap {cap}: warm {} vs cold {}",
            sw.objective,
            sc.objective
        );
        // The warm run must actually exercise the dual simplex on non-root
        // nodes (unless the root relaxation was already integral).
        if sw.nodes > 1 {
            assert!(
                sw.lp_stats.warm_starts > 0,
                "cap {cap}: no warm starts recorded"
            );
        }
        assert_eq!(
            sc.lp_stats.warm_starts, 0,
            "cap {cap}: cold run must not warm-start"
        );
    }
}

/// Re-solving a Milp after appending rows (the Benders master pattern) must
/// reuse the stored root basis and still match a from-scratch solve.
#[test]
fn resolve_after_added_rows_reuses_root_basis() {
    let mut p = Problem::new();
    let a = p.add_var(0.0, 1.0, -10.0);
    let b = p.add_var(0.0, 1.0, -13.0);
    let c = p.add_var(0.0, 1.0, -7.0);
    p.add_cons(&[(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
    let mut m = Milp::new(p);
    m.mark_integer(a);
    m.mark_integer(b);
    m.mark_integer(c);
    let first = m.solve().unwrap().unwrap_optimal();
    assert!((first.objective - (-20.0)).abs() < 1e-6);

    // "Cut": forbid taking b and c together.
    m.problem_mut()
        .add_cons(&[(b, 1.0), (c, 1.0)], Cmp::Le, 1.0);
    let second = m.solve().unwrap().unwrap_optimal();
    assert!(
        second.lp_stats.warm_starts > 0,
        "root must resume from the stored basis"
    );

    // Reference: fresh Milp over the same cut problem.
    let mut fresh = Milp::new(m.problem().clone());
    fresh.mark_integer(a);
    fresh.mark_integer(b);
    fresh.mark_integer(c);
    let reference = fresh.solve().unwrap().unwrap_optimal();
    assert!(
        (second.objective - reference.objective).abs() < 1e-9,
        "warm resolve {} vs fresh {}",
        second.objective,
        reference.objective
    );
}
