//! Cross-crate solver validation on *generated operator topologies* (the
//! in-crate unit tests use hand-built toys; this exercises the full
//! topology → instance → solver path), plus a randomized LP torture
//! harness driving the warm-start engine through the same shared fixture
//! generator the `ovnes-lp` unit tests use.

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::{baseline, benders, kac, oneshot, solve, SolveControls, SolverKind};
use ovnes_lp::revised::gen::{random_bound_edit, random_lp, GenRng, LpGenConfig};
use ovnes_lp::{Basis, FaultConfig, LpStats, Outcome, SimplexOptions, WarmChain};
use ovnes_milp::{Milp, MilpOptions, MilpOutcome};
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

fn tenants_on(model: &NetworkModel, classes: &[(SliceClass, f64, f64)]) -> Vec<TenantInput> {
    let n_bs = model.base_stations.len();
    classes
        .iter()
        .enumerate()
        .map(|(i, &(class, alpha, sigma))| {
            let t = SliceTemplate::for_class(class);
            TenantInput {
                tenant: i as u32,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward, // m = 1
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: vec![alpha * t.sla_mbps; n_bs],
                sigma,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect()
}

fn tiny_model(op: Operator) -> NetworkModel {
    NetworkModel::generate(
        op,
        &GeneratorConfig {
            scale: 0.025,
            seed: 42,
            k_paths: 3,
        },
    )
}

#[test]
fn benders_equals_oneshot_on_generated_topologies() {
    for op in [Operator::Romanian, Operator::Swiss] {
        let model = tiny_model(op);
        let tenants = tenants_on(
            &model,
            &[
                (SliceClass::Embb, 0.3, 0.2),
                (SliceClass::Urllc, 0.4, 0.3),
                (SliceClass::Mmtc, 0.2, 0.05),
            ],
        );
        let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None);
        let b = benders::solve(&inst, &benders::BendersOptions::default()).unwrap();
        let o = oneshot::solve(&inst, &MilpOptions::default()).unwrap();
        assert!(
            (b.objective - o.objective).abs() < 1e-5,
            "{op:?}: benders {} vs oneshot {}",
            b.objective,
            o.objective
        );
    }
}

#[test]
fn kac_close_to_optimal_when_uncongested() {
    // With ample capacity every profitable tenant is admitted by both
    // methods, so KAC matches the optimum exactly (the Fig. 5 eMBB
    // observation: "both KAC and Benders provide equal performance").
    let model = tiny_model(Operator::Italian);
    let tenants = tenants_on(
        &model,
        &[
            (SliceClass::Embb, 0.2, 0.1),
            (SliceClass::Embb, 0.2, 0.1),
            (SliceClass::Embb, 0.2, 0.1),
        ],
    );
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None);
    let b = benders::solve(&inst, &benders::BendersOptions::default()).unwrap();
    let k = kac::solve(&inst, &SimplexOptions::default()).unwrap();
    assert!(
        (k.objective - b.objective).abs() < 1e-5,
        "uncongested KAC {} should equal Benders {}",
        k.objective,
        b.objective
    );
    assert_eq!(k.accepted(), 3);
}

#[test]
fn solvers_agree_under_extreme_penalties() {
    // A savage penalty with a near-SLA forecast: Benders and the one-shot
    // MILP must still agree exactly.
    let model = tiny_model(Operator::Romanian);
    let mut tenants = tenants_on(&model, &[(SliceClass::Embb, 0.9, 1.0)]);
    tenants[0].penalty = 1000.0;
    tenants[0].forecast_mbps.iter_mut().for_each(|f| *f = 49.9);
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None);
    let b = benders::solve(&inst, &benders::BendersOptions::default()).unwrap();
    let o = oneshot::solve(&inst, &MilpOptions::default()).unwrap();
    assert!((b.objective - o.objective).abs() < 1e-5);
}

#[test]
fn benders_slave_runs_at_the_requested_refactor_interval() {
    // At interval 1 every Forrest–Tomlin update is followed by a
    // refactorization — in the master's node LPs *and* in the slave, which
    // solves under the caller's simplex options (all but the pivot cap).
    let model = NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.05,
            seed: 42,
            k_paths: 3,
        },
    );
    let classes = [SliceClass::Embb, SliceClass::Urllc, SliceClass::Mmtc];
    let tenants = tenants_on(
        &model,
        &(0..12)
            .map(|i| (classes[i % 3], 0.2 + 0.05 * (i % 4) as f64, 0.2))
            .collect::<Vec<_>>(),
    );
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None);
    let at = |refactor_interval: usize| {
        let mut options = benders::BendersOptions::default();
        options.milp.simplex = SimplexOptions {
            refactor_interval,
            ..SimplexOptions::default()
        };
        benders::solve(&inst, &options).unwrap()
    };
    let (every, rarely) = (at(1), at(128));
    let lp = &every.stats.lp;
    assert!(lp.eta_compressions > 0, "the instance must pivot");
    assert!(
        lp.refactorizations >= lp.eta_compressions,
        "{} refactorizations for {} updates",
        lp.refactorizations,
        lp.eta_compressions
    );
    assert!(rarely.stats.lp.refactorizations < lp.refactorizations);
    assert!((every.objective - rarely.objective).abs() < 1e-9);
}

/// One pass of the LP torture under `options`: larger instances than the
/// unit-level cross-checks (the generator is shared; only the knobs
/// differ), tight boxes and heavy degeneracy, a chain of five bound edits
/// per instance, each link's basis handed to the next as a value through
/// one chain (`WarmChain::solve_from`, the branch-and-bound node step),
/// every link checked
/// against the dense tableau oracle. Without fault injection, warm pivots
/// must never exceed the cold solve of the same link, and warm bound-edit
/// restarts must never need phase 1; injection drops warm bases on
/// purpose, so a faulted pass checks the answers only. Returns the summed
/// statistics of the warm solves.
fn torture_warm_chains(options: &SimplexOptions) -> LpStats {
    let mut rng = GenRng::new(0x7012_7012_7012_7012);
    let cfg = LpGenConfig::torture();
    let mut chain = WarmChain::new();
    let mut stats = LpStats::default();
    for case in 0..60 {
        let mut p = random_lp(&mut rng, &cfg);
        let mut basis: Option<Basis> = None;
        let mut prev_optimal = false;
        for link in 0..5 {
            let tag = format!("case {case} link {link}");
            let warm = chain
                .solve_from(&p, basis.as_ref(), options)
                .unwrap_or_else(|e| panic!("{tag}: warm solve failed: {e}"));
            stats.absorb(&warm.stats);
            let dense = ovnes_lp::dense::solve(&p, &SimplexOptions::default())
                .unwrap_or_else(|e| panic!("{tag}: dense: {e}"));
            match (&dense, &warm.outcome) {
                (Outcome::Optimal(a), Outcome::Optimal(b)) => assert!(
                    (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                    "{tag}: dense {} vs warm {}",
                    a.objective,
                    b.objective
                ),
                (Outcome::Infeasible(_), Outcome::Infeasible(_)) => {}
                (Outcome::Unbounded, Outcome::Unbounded) => {}
                _ => panic!("{tag}: engines disagree on classification"),
            }
            if options.fault.is_none() && basis.is_some() && prev_optimal {
                assert_eq!(
                    warm.stats.phase1_pivots, 0,
                    "{tag}: bound edits must keep the warm basis dual feasible"
                );
                // +1 slack: a degenerate-lucky cold start can prove its
                // outcome with zero pivots where the warm re-solve pays a
                // single closing pivot (same slack as `kernel_counts.rs`).
                let cold = chain.solve_from(&p, None, options).unwrap();
                assert!(
                    warm.stats.total_pivots() <= cold.stats.total_pivots() + 1,
                    "{tag}: warm {} pivots vs cold {}",
                    warm.stats.total_pivots(),
                    cold.stats.total_pivots()
                );
            }
            prev_optimal = matches!(warm.outcome, Outcome::Optimal(_));
            basis = Some(warm.basis);
            random_bound_edit(&mut rng, &mut p);
        }
    }
    stats
}

/// The torture chain under three option sets: the defaults, seeded warm-path
/// fault injection, and a refactorization interval of 8. Each set must agree
/// with the dense oracle on every link, and each must visibly take its own
/// path: faults leave fewer warm starts than the defaults, the tight
/// interval more refactorizations.
#[test]
fn randomized_lp_torture_warm_chains_match_dense_oracle() {
    let clean = torture_warm_chains(&SimplexOptions::default());
    // The torture mix must actually exercise the long-step machinery.
    assert!(
        clean.bound_flips > 0,
        "no bound flips across the whole torture run"
    );
    assert!(clean.total_pivots() > 0, "torture run performed no pivots");
    assert!(clean.warm_starts > 100, "chains were not warm-started");
    assert!(clean.warm_starts > clean.cold_starts);

    let faulted = SimplexOptions {
        fault: Some(FaultConfig::chaos(1337)),
        ..SimplexOptions::default()
    };
    let faulted = torture_warm_chains(&faulted);
    assert!(
        faulted.warm_starts < clean.warm_starts,
        "no fault fired: {} warm starts under injection vs {} without",
        faulted.warm_starts,
        clean.warm_starts
    );

    let tight = SimplexOptions {
        refactor_interval: 8,
        ..SimplexOptions::default()
    };
    let tight = torture_warm_chains(&tight);
    assert!(
        tight.refactorizations > clean.refactorizations,
        "interval 8 refactorized {} times vs {} at the default",
        tight.refactorizations,
        clean.refactorizations
    );
}

/// Seeded torture MILPs (the shared random-LP generator with every boxed
/// column integer-marked) solve without an engine error, and enough of
/// them branch to exercise the node queue.
#[test]
fn torture_milps_solve_and_enough_of_them_branch() {
    let mut rng = GenRng::new(0xD17E_4A11_CE55_0001);
    let cfg = LpGenConfig::torture();
    let mut branched_cases = 0usize;
    let mut attempts = 0usize;
    let mut case = 0usize;
    while case < 24 && attempts < 400 {
        attempts += 1;
        let p = random_lp(&mut rng, &cfg);
        // Keep only draws whose relaxation is optimal — infeasible/unbounded
        // roots never branch.
        if !matches!(p.solve_warm(None).unwrap().outcome, Outcome::Optimal(_)) {
            continue;
        }
        case += 1;
        let integers: Vec<_> = p
            .var_ids()
            .filter(|&v| {
                let (lb, ub) = p.bounds(v);
                lb.is_finite() && ub.is_finite()
            })
            .collect();
        let mut m = Milp::new(p);
        for &v in &integers {
            m.mark_integer(v);
        }
        match m.solve().unwrap_or_else(|e| panic!("case {case}: {e}")) {
            MilpOutcome::Optimal(s) if s.nodes > 1 => branched_cases += 1,
            _ => {}
        }
    }
    assert!(
        branched_cases >= 5,
        "torture mix produced only {branched_cases} branching trees — not exercising the queue"
    );
}

/// The one-shot oracle and full Benders solve both test operators'
/// instances and admit at least one tenant.
#[test]
fn oneshot_and_benders_admit_on_both_operators() {
    for (op, specs) in [
        (
            Operator::Romanian,
            vec![
                (SliceClass::Embb, 0.3, 0.2),
                (SliceClass::Urllc, 0.4, 0.3),
                (SliceClass::Mmtc, 0.2, 0.05),
            ],
        ),
        (
            Operator::Swiss,
            vec![
                (SliceClass::Embb, 0.5, 0.2),
                (SliceClass::Embb, 0.2, 0.1),
                (SliceClass::Urllc, 0.4, 0.3),
                (SliceClass::Mmtc, 0.3, 0.1),
            ],
        ),
    ] {
        let model = tiny_model(op);
        let tenants = tenants_on(&model, &specs);
        let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None);
        for kind in [SolverKind::OneShot, SolverKind::Benders] {
            let controls = SolveControls {
                kind,
                ..SolveControls::default()
            };
            let alloc = solve(&inst, &controls).unwrap();
            assert!(
                alloc.assigned_cu.iter().any(Option::is_some),
                "{op:?}/{kind:?}: admitted nothing"
            );
        }
    }
}

#[test]
fn baseline_is_admission_only() {
    let model = tiny_model(Operator::Swiss);
    let tenants = tenants_on(
        &model,
        &[(SliceClass::Embb, 0.5, 0.2), (SliceClass::Embb, 0.5, 0.2)],
    );
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::Spread, false, None);
    let alloc = baseline::solve(&inst, &MilpOptions::default()).unwrap();
    for (t, cu) in alloc.assigned_cu.iter().enumerate() {
        if cu.is_some() {
            for b in 0..inst.n_bs {
                assert!(
                    (alloc.reservations[t][b] - inst.tenants[t].sla_mbps).abs() < 1e-9,
                    "baseline must reserve the full SLA"
                );
            }
        }
    }
}

#[test]
fn overbooking_admits_superset_revenue() {
    // On a congested Swiss network, overbooking admits at least as many
    // tenants as the baseline and earns at least as much expected revenue.
    let model = tiny_model(Operator::Swiss);
    let specs = vec![(SliceClass::Embb, 0.2, 0.1); 6];
    let mk = |ov: bool| {
        AcrrInstance::build(
            &model,
            tenants_on(&model, &specs),
            PathPolicy::Spread,
            ov,
            None,
        )
    };
    let ours = benders::solve(&mk(true), &benders::BendersOptions::default()).unwrap();
    let base = baseline::solve(&mk(false), &MilpOptions::default()).unwrap();
    assert!(ours.accepted() >= base.accepted());
    assert!(ours.expected_net_revenue() >= base.expected_net_revenue() - 1e-6);
}

/// Copy-on-compress audit for the Forrest–Tomlin path (PR 9 bugfix): a
/// `Factorization` cloned out of a shared handle — exactly what
/// `Engine::new` does with the `Arc`-shared factorization persisted in a
/// [`Basis`] — must keep its compressed updates private. Sibling workers
/// fold distinct update chains concurrently; the parent's factors must stay
/// bitwise untouched, and every sibling must track its own basis exactly.
#[test]
fn ft_updates_stay_private_to_each_worker() {
    use ovnes_lp::revised::{Factorization, SolveScratch, SparseLu};
    use std::sync::Arc;

    let m = 32usize;
    let mut rng = GenRng::new(0xC0FF_EE00_AB1E_0007);
    // Diagonally dominant sparse parent basis (always factorizable).
    let mut dense = vec![0.0f64; m * m];
    for i in 0..m {
        for j in 0..m {
            if i != j && rng.chance(0.2) {
                dense[i * m + j] = rng.uniform(-2.0, 2.0);
            }
        }
    }
    for i in 0..m {
        let row: f64 = (0..m)
            .filter(|&j| j != i)
            .map(|j| dense[i * m + j].abs())
            .sum();
        dense[i * m + i] = row + 1.5;
    }
    let cols: Vec<Vec<(u32, f64)>> = (0..m)
        .map(|j| {
            (0..m)
                .filter(|&i| dense[i * m + j] != 0.0)
                .map(|i| (i as u32, dense[i * m + j]))
                .collect()
        })
        .collect();
    let parent = Arc::new(Factorization::new(
        SparseLu::factor_cols(m, &cols).expect("diagonally dominant"),
    ));

    // Parent fingerprint before the siblings run.
    let rhs: Vec<f64> = (0..m).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect();
    let mut scratch = SolveScratch::new();
    let mut before_f = rhs.clone();
    parent.ftran(&mut before_f, &mut scratch);
    let mut before_b = rhs.clone();
    parent.btran(&mut before_b, &mut scratch);

    let handles: Vec<_> = (0..4u64)
        .map(|w| {
            let shared = Arc::clone(&parent);
            let base_cols = cols.clone();
            std::thread::spawn(move || {
                // The engine's reuse step: a private copy off the shared
                // handle; the LU factors stay Arc-shared underneath.
                let mut fact = (*shared).clone();
                let mut cols = base_cols;
                let mut scratch = SolveScratch::new();
                let mut rng = GenRng::new(0xBEEF_0000_0000_0000 + w);
                for _ in 0..12 {
                    let slot = rng.index(m);
                    let mut col = vec![0.0; m];
                    col[slot] = 4.0 + rng.next_f64();
                    col[(slot + 1 + w as usize) % m] = rng.uniform(-0.5, 0.5);
                    cols[slot] = col
                        .iter()
                        .enumerate()
                        .filter(|&(_, &x)| x != 0.0)
                        .map(|(i, &x)| (i as u32, x))
                        .collect();
                    let mut alpha = col;
                    fact.ftran_entering(&mut alpha, &mut scratch);
                    if !fact.push_update(slot, &mut scratch) {
                        fact = Factorization::new(
                            SparseLu::factor_cols(m, &cols).expect("refactorizable"),
                        );
                    }
                }
                // The private copy must track the worker's own basis.
                let fresh =
                    Factorization::new(SparseLu::factor_cols(m, &cols).expect("nonsingular"));
                let probe: Vec<f64> = (0..m).map(|i| (i as f64) - 11.0).collect();
                let mut via_ft = probe.clone();
                fact.ftran(&mut via_ft, &mut scratch);
                let mut via_fresh = probe.clone();
                fresh.ftran(&mut via_fresh, &mut scratch);
                for j in 0..m {
                    assert!(
                        (via_ft[j] - via_fresh[j]).abs() <= 1e-6 * (1.0 + via_fresh[j].abs()),
                        "worker {w}: private updates drifted at {j}: {} vs {}",
                        via_ft[j],
                        via_fresh[j]
                    );
                }
                fact.update_count()
            })
        })
        .collect();
    let mut folded = 0usize;
    for h in handles {
        folded += h.join().expect("worker panicked");
    }
    assert!(
        folded > 0,
        "no FT updates were folded — the audit is vacuous"
    );

    // The parent must be bitwise where it started: zero updates, identical
    // solves.
    assert_eq!(
        parent.update_count(),
        0,
        "sibling updates leaked into the parent"
    );
    let mut after_f = rhs.clone();
    parent.ftran(&mut after_f, &mut scratch);
    let mut after_b = rhs;
    parent.btran(&mut after_b, &mut scratch);
    for j in 0..m {
        assert_eq!(
            before_f[j].to_bits(),
            after_f[j].to_bits(),
            "parent FTRAN changed at {j} after sibling updates"
        );
        assert_eq!(
            before_b[j].to_bits(),
            after_b[j].to_bits(),
            "parent BTRAN changed at {j} after sibling updates"
        );
    }

    // End-to-end flavor of the same property: sibling warm solves off one
    // shared Basis (each with its own bound edits) must not perturb what a
    // later solve from that same basis returns.
    let mut rng = GenRng::new(0x511B_11A6_5EED_0042);
    let cfg = LpGenConfig::torture();
    let p = random_lp(&mut rng, &cfg);
    let first = p.solve_warm(None).expect("root solve");
    let control = p
        .solve_warm(Some(&first.basis))
        .expect("control re-solve")
        .stats;
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let basis = &first.basis;
            let mut edited = p.clone();
            s.spawn(move || {
                let mut rng = GenRng::new(0xD00D_0000_0000_0000 + w);
                for _ in 0..3 {
                    random_bound_edit(&mut rng, &mut edited);
                }
                edited.solve_warm(Some(basis)).expect("sibling warm solve");
            });
        }
    });
    let replay = p
        .solve_warm(Some(&first.basis))
        .expect("replay re-solve")
        .stats;
    assert_eq!(
        (
            control.total_pivots(),
            control.refactorizations,
            control.factorization_reuses
        ),
        (
            replay.total_pivots(),
            replay.refactorizations,
            replay.factorization_reuses
        ),
        "sibling warm solves perturbed the shared basis"
    );
}
