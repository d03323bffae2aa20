//! Tests for branch-and-bound, cross-checked against brute-force enumeration.

use crate::{adaptive_round_width, Milp, MilpOptions, MilpOutcome, MilpSolution};
use ovnes_lp::{Cmp, Problem, SolveError, VarId};
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
    // A 14-item knapsack with correlated weights forces some branching.
    let values: Vec<f64> = (0..14).map(|i| 10.0 + (i as f64) * 0.618).collect();
    let weights: Vec<f64> = (0..14).map(|i| 7.0 + ((i * 37) % 11) as f64).collect();
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
    let values: Vec<f64> = (0..14).map(|i| 10.0 + (i as f64) * 0.618).collect();
    let weights: Vec<f64> = (0..14).map(|i| 7.0 + ((i * 37) % 11) as f64).collect();
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

// ------------------------------------------------------ parallel determinism

/// The parallel search must return bit-identical results — objective,
/// solution vector, node count, pivot statistics — at every worker count.
/// Speculative solves may be wasted, but application order is canonical.
#[test]
fn worker_count_never_changes_results() {
    // A knapsack family with correlated weights (forces real branching)
    // plus the multi-constraint instance.
    let values: Vec<f64> = (0..14).map(|i| 10.0 + (i as f64) * 0.618).collect();
    let weights: Vec<f64> = (0..14).map(|i| 7.0 + ((i * 37) % 11) as f64).collect();
    for cap in [20.0, 40.0, 55.0] {
        let mut reference: Option<MilpSolution> = None;
        for threads in [1usize, 2, 4] {
            let mut m = knapsack_milp(&values, &weights, cap);
            m.set_options(MilpOptions {
                threads,
                ..MilpOptions::default()
            });
            let s = m.solve().unwrap().unwrap_optimal();
            match &reference {
                None => reference = Some(s),
                Some(r) => {
                    assert_eq!(
                        r.objective.to_bits(),
                        s.objective.to_bits(),
                        "cap {cap}: objective differs at {threads} workers"
                    );
                    assert_eq!(r.x, s.x, "cap {cap}: solution differs at {threads} workers");
                    assert_eq!(
                        r.nodes, s.nodes,
                        "cap {cap}: node count differs at {threads} workers"
                    );
                    assert_eq!(
                        r.lp_stats, s.lp_stats,
                        "cap {cap}: pivot stats differ at {threads} workers"
                    );
                }
            }
        }
    }
}

/// The round width is a hardware-tuning lever: every width must find the
/// same optimum, and any fixed width must stay bit-identical across
/// worker counts (the determinism contract is per width, not across
/// widths — node counts may legitimately differ between widths).
#[test]
fn round_width_preserves_optimum_and_per_width_determinism() {
    let values: Vec<f64> = (0..14).map(|i| 10.0 + (i as f64) * 0.618).collect();
    let weights: Vec<f64> = (0..14).map(|i| 7.0 + ((i * 37) % 11) as f64).collect();
    let solve = |round_width: Option<usize>, threads: usize| {
        let mut m = knapsack_milp(&values, &weights, 40.0);
        m.set_options(MilpOptions {
            round_width,
            threads,
            ..MilpOptions::default()
        });
        m.solve().unwrap().unwrap_optimal()
    };
    let reference = solve(Some(8), 1);
    for width in [Some(1usize), Some(2), Some(4), Some(16), Some(64), None] {
        let width_label = width.map_or("adaptive".to_string(), |w| w.to_string());
        let serial = solve(width, 1);
        assert!(
            (serial.objective - reference.objective).abs() < 1e-9,
            "width {width_label}: objective {} vs {}",
            serial.objective,
            reference.objective
        );
        let parallel = solve(width, 4);
        assert_eq!(
            serial.objective.to_bits(),
            parallel.objective.to_bits(),
            "width {width_label}: objective differs at 4 workers"
        );
        assert_eq!(
            serial.x, parallel.x,
            "width {width_label}: solution differs"
        );
        assert_eq!(
            serial.nodes, parallel.nodes,
            "width {width_label}: node count differs"
        );
        assert_eq!(
            serial.lp_stats, parallel.lp_stats,
            "width {width_label}: pivot stats differ"
        );
    }
}

/// The adaptive round-width policy (`round_width: None`) must be a pure
/// function of the round-start queue depth: the node count, objective, and
/// pivot statistics are bit-identical at 1, 2, and 4 workers.
#[test]
fn adaptive_round_width_is_worker_count_invariant() {
    let values: Vec<f64> = (0..16).map(|i| 9.0 + (i as f64) * 0.731).collect();
    let weights: Vec<f64> = (0..16).map(|i| 6.0 + ((i * 29) % 13) as f64).collect();
    let solve = |threads: usize| {
        let mut m = knapsack_milp(&values, &weights, 47.0);
        m.set_options(MilpOptions {
            round_width: None,
            threads,
            ..MilpOptions::default()
        });
        m.solve().unwrap().unwrap_optimal()
    };
    let one = solve(1);
    assert!(
        one.nodes >= 16,
        "a {}-node tree is too shallow to exercise the round scheduler",
        one.nodes
    );
    for threads in [2usize, 4] {
        let multi = solve(threads);
        assert_eq!(
            one.objective.to_bits(),
            multi.objective.to_bits(),
            "adaptive width: objective differs at {threads} workers"
        );
        assert_eq!(one.x, multi.x, "adaptive width: solution differs");
        assert_eq!(
            one.nodes, multi.nodes,
            "adaptive width: node count differs at {threads} workers"
        );
        assert_eq!(
            one.lp_stats, multi.lp_stats,
            "adaptive width: pivot stats differ at {threads} workers"
        );
    }
    // The policy itself: clamped halving of the open-queue depth.
    assert_eq!(adaptive_round_width(0), 8);
    assert_eq!(adaptive_round_width(16), 8);
    assert_eq!(adaptive_round_width(40), 20);
    assert_eq!(adaptive_round_width(1000), 64);
}

/// Truncation by the node budget is part of the deterministic contract too.
#[test]
fn truncation_is_deterministic_across_workers() {
    let values: Vec<f64> = (0..14).map(|i| 10.0 + (i as f64) * 0.618).collect();
    let weights: Vec<f64> = (0..14).map(|i| 7.0 + ((i * 37) % 11) as f64).collect();
    let mut outcomes = Vec::new();
    for threads in [1usize, 3] {
        let mut m = knapsack_milp(&values, &weights, 40.0);
        m.set_options(MilpOptions {
            max_nodes: 9,
            threads,
            ..MilpOptions::default()
        });
        match m.solve() {
            Ok(MilpOutcome::Optimal(s)) => {
                outcomes.push((s.objective.to_bits(), s.nodes, s.truncated))
            }
            Err(SolveError::IterationLimit) => outcomes.push((0, 0, true)),
            other => panic!("feasible problem: {other:?}"),
        }
    }
    assert_eq!(outcomes[0], outcomes[1], "truncated runs diverged");
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
