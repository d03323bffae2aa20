//! Heap allocations of the hot paths, counted: a warm slave re-solve, one
//! refactorization, one branch-and-bound node, one forecast.
//!
//! The slave's warm chain keeps its basis, factorization and buffers alive
//! between solves, and `solve_for` re-prices only the tenants that moved:
//! what a re-solve still allocates is what it returns (reservations, duals
//! or a cut) plus the factor updates of its pivots — a number that does not
//! grow with the size of the LP. The factors are flat arrays and a
//! refactorization's working set is reused, so a refactorization allocates
//! the arrays it returns and nothing else, the same number at every
//! dimension; and a node that resumes from its parent's basis copies that
//! factorization in a fixed handful of blocks. A forecast allocates its
//! seasonal arrays and the kept candidate's column once per call, however
//! long the history and however many candidates it keeps: the smoothing
//! passes allocate nothing. A
//! count is deterministic where a timing is not, so this is the form in
//! which `cargo test` holds these properties; the timings are
//! `benchmark/`'s.
//!
//! This file is its own test binary with one `#[test]`, so the counting
//! allocator sees a single thread.

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::kac;
use ovnes::solver::slave::SlaveContext;
use ovnes_forecast::predict_next;
use ovnes_lp::revised::{Factorization, SolveScratch, SparseLu};
use ovnes_lp::{Cmp, Outcome, Problem, SimplexOptions, VarId, WarmChain};
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// The instance family of `tests/kernel_counts.rs` (same generator seed,
/// same tenant mix), so "10x" and "100x" name the same LPs there and here.
fn instance_at(scale: f64, n_tenants: usize) -> AcrrInstance {
    let generator = GeneratorConfig {
        scale,
        seed: 18,
        k_paths: 3,
    };
    let model = NetworkModel::generate(Operator::Romanian, &generator);
    let n_bs = model.base_stations.len();
    let classes = [SliceClass::Embb, SliceClass::Mmtc, SliceClass::Urllc];
    let tenants: Vec<TenantInput> = (0..n_tenants)
        .map(|i| {
            let t = SliceTemplate::for_class(classes[i % 3]);
            TenantInput {
                tenant: i as u32,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward,
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: vec![0.3 * t.sla_mbps; n_bs],
                sigma: 0.2,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect();
    AcrrInstance::build(&model, tenants, PathPolicy::Spread, true, None)
}

/// A warm re-solve that moves one tenant may allocate this often at most,
/// at any scale: the handful of vectors it returns plus a few per pivot
/// (4-16 measured; 7-21 while a factor update still allocated per row, and
/// before the chain the copy of the updatable `U` alone was about two
/// allocations per LP row, several hundred here).
const MAX_RESOLVE_ALLOCATIONS: usize = 16;

/// One refactorization with a warmed-up scratch, at every dimension: the
/// factor's ten arrays, the `Arc` that shares them, the update state's
/// nine. (About five per row before flat storage: 4,626 at the 10x
/// dimension, 42,172 at the 100x.)
const REFACTORIZATION_ALLOCATIONS: usize = 20;

/// One B&B node — the search's chain loads its parent's basis after one
/// bound edit, resolves, and gives its own basis up — may allocate this
/// often at most: the copy of the parent's factorization (nine arrays, with
/// room for the node's updates) and restart state (two), the returned
/// solution (two) and the `Arc` of the basis it hands its children. The
/// chain keeps its `x_B` buffer from node to node. (15 while every node
/// allocated its own `x_B`; 138 before flat storage, the copy alone about
/// 2m + 11 blocks and every update reallocating.)
const MAX_NODE_ALLOCATIONS: usize = 14;

/// One B&B node the search does not branch from (infeasible, pruned or
/// integral) resolves in place: its basis stays in the chain, so the next
/// load copies the restart state into the buffers it already holds, no
/// `Arc` is made, and the copy of the parent's factorization goes into the
/// arrays of the one the load displaced. What is left is the returned
/// solution. (11 while that copy went into fresh arrays.)
const LEAF_NODE_ALLOCATIONS: usize = 2;

fn warm_slave_resolves() {
    for (label, scale, tenants) in [("10x", 0.12, 20), ("100x", 0.4, 60)] {
        let inst = instance_at(scale, tenants);
        let base = kac::solve(&inst, &SimplexOptions::default())
            .expect("KAC")
            .assigned_cu;
        let admitted: Vec<usize> = (0..base.len()).filter(|&t| base[t].is_some()).collect();
        assert!(admitted.len() >= 2, "{label}: nothing to move");

        let mut ctx = SlaveContext::new(&inst);
        ctx.solve_for(&base).expect("opening solve");
        // Drop one admitted tenant, then take it back: two one-tenant moves.
        let mut moved = base.clone();
        moved[admitted[0]] = None;
        for assigned in [&moved, &base] {
            let pivots = ctx.stats.total_pivots();
            let (spent, result) = counted(|| ctx.solve_for(assigned));
            result.expect("warm re-solve");
            assert_eq!(ctx.stats.cold_starts, 1, "{label}: the chain stayed warm");
            let pivots = ctx.stats.total_pivots() - pivots;
            assert!(
                spent <= MAX_RESOLVE_ALLOCATIONS,
                "{label}: {spent} allocations for {pivots} pivots over {} legs",
                inst.legs.len()
            );
        }
    }
}

/// A basis-shaped `m × m` matrix: a dominant diagonal, a band on either
/// side of it and 2 % coupling entries, so that both `L` and `U` have
/// entries and elimination fills in.
fn basis_like(m: usize) -> Vec<Vec<(u32, f64)>> {
    let mut state = 0x1A0_FAC7 ^ m as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..m)
        .map(|j| {
            let mut col = vec![(j as u32, 4.0 + next())];
            for d in 1..=2usize {
                if j >= d && next() < 0.6 {
                    col.push(((j - d) as u32, 2.0 * next() - 1.0));
                }
                if j + d < m && next() < 0.3 {
                    col.push(((j + d) as u32, 2.0 * next() - 1.0));
                }
            }
            if next() < 0.02 {
                let i = (next() * m as f64) as usize % m;
                if i != j {
                    col.push((i as u32, 2.0 * next() - 1.0));
                }
            }
            col.sort_by_key(|&(i, _)| i);
            col.dedup_by_key(|&mut (i, _)| i);
            col
        })
        .collect()
}

fn refactorizations() {
    // The slave LP's row counts at the 10x and the 100x city
    // (`tests/kernel_counts.rs`).
    for m in [885, 8_115] {
        let cols = basis_like(m);
        let mut scratch = SolveScratch::new();
        let factor = |scratch: &mut SolveScratch| {
            let lu = SparseLu::factor(m, scratch, |pos, buf| buf.extend_from_slice(&cols[pos]));
            Factorization::new(lu.expect("nonsingular"))
        };
        // The first factorization sizes the scratch; the engine's next ones
        // find it sized.
        drop(factor(&mut scratch));
        let (spent, fact) = counted(|| factor(&mut scratch));
        drop(fact);
        assert_eq!(
            spent, REFACTORIZATION_ALLOCATIONS,
            "one refactorization at m = {m}"
        );
    }
}

/// The LP relaxation of a multi-knapsack — 25 binaries relaxed to [0, 1]
/// against 20 capacity rows — the shape and size of the Benders master's
/// node LPs (n ≈ 25, m ≈ 20).
fn knapsack_relaxation() -> (Problem, Vec<VarId>) {
    let mut state = 0x9E37_79B9_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut p = Problem::new();
    let x: Vec<VarId> = (0..25)
        .map(|_| p.add_var(0.0, 1.0, -1.0 - 9.0 * next()))
        .collect();
    for _ in 0..20 {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for &v in &x {
            if next() < 0.4 {
                row.push((v, 1.0 + 4.0 * next()));
            }
        }
        p.add_cons(&row, Cmp::Le, 6.0 + 6.0 * next());
    }
    (p, x)
}

fn bb_node_solve() {
    let opts = SimplexOptions::default();
    let (mut p, x) = knapsack_relaxation();
    let root = p.solve_warm(None).expect("root");
    let Outcome::Optimal(sol) = &root.outcome else {
        panic!("the root relaxation is feasible and bounded")
    };
    // Branch down on the most fractional variable, as the B&B does.
    let v = *x
        .iter()
        .max_by(|a, b| {
            let f = |v: &VarId| (sol.x[v.index()] - 0.5).abs();
            f(b).partial_cmp(&f(a)).expect("finite")
        })
        .expect("25 variables");
    assert!(
        sol.x[v.index()] > 1e-6 && sol.x[v.index()] < 1.0 - 1e-6,
        "a fractional root"
    );
    p.set_bounds(v, 0.0, 0.0);
    // The search's chain has solved nodes before this one.
    let mut chain = WarmChain::new();
    let mut node = || {
        chain
            .solve_from(&p, Some(&root.basis), &opts)
            .expect("node")
    };
    node();
    let (spent, solved) = counted(&mut node);
    let stats = solved.stats;
    assert_eq!(
        stats.factorization_reuses, 1,
        "the node resumed the parent's factors"
    );
    assert!(stats.dual_pivots > 0, "the bound edit took dual pivots");
    assert!(
        spent <= MAX_NODE_ALLOCATIONS,
        "{spent} allocations for one node of {} pivots",
        stats.total_pivots()
    );
    // The same node as a leaf, after a leaf: load, resolve, keep the basis.
    let mut leaf = || {
        chain.load(&root.basis);
        p.resolve(&mut chain, &opts).expect("leaf")
    };
    leaf();
    let (spent, (_, stats)) = counted(&mut leaf);
    assert_eq!(stats.factorization_reuses, 1);
    assert_eq!(
        spent,
        LEAF_NODE_ALLOCATIONS,
        "allocations for one leaf node of {} pivots",
        stats.total_pivots()
    );
}

/// A seeded diurnal series of `len` samples at season 6 around `level`,
/// with noise of `±noise`: all positive (the multiplicative grid) at a high
/// level, crossing zero (the additive grid) at a low one.
fn seasonal_series(len: usize, level: f64, noise: f64) -> Vec<f64> {
    let mut state = 0x5EA5_0A11_u64;
    (0..len)
        .map(|t| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let phase = 2.0 * std::f64::consts::PI * (t % 6) as f64 / 6.0;
            level + 10.0 * phase.sin() + noise * (2.0 * u - 1.0)
        })
        .collect()
}

/// A seeded peak series of `len` epochs as the orchestrator records one: each
/// epoch's peak is the maximum of 12 Gaussian draws around a diurnal mean
/// (`level` ± 40 % over 24 epochs, the scenario traffic's day against the
/// forecaster's season of 6) with a standard deviation of 0.3 of the mean.
fn peak_series(len: usize, level: f64) -> Vec<f64> {
    let mut state = 0x9EA4_5E1E_u64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    (0..len)
        .map(|t| {
            let phase = 2.0 * std::f64::consts::PI * (t % 24) as f64 / 24.0;
            let mean = level * (1.0 + 0.4 * phase.sin());
            (0..12)
                .map(|_| {
                    // Box-Muller: one standard normal from two uniforms.
                    let (u, v) = (uniform(), uniform());
                    let z = (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
                    mean + 0.3 * mean * z
                })
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

fn predict_next_calls() {
    // (multiplicative, additive) allocations of one call, by history length:
    // the initial seasonal indices, the five lanes' seasonal rows, the first
    // season's blend inputs and the kept candidate's seasonal column, however
    // many candidates the grid keeps on its way to the winner. Allocating per
    // observation would add 36 at 48 samples and 372 at 384, per (α, β) pair
    // that runs its lanes; a column per kept candidate would add one each.
    let pinned: [(usize, (usize, usize)); 3] = [(12, (4, 4)), (48, (4, 4)), (384, (4, 4))];
    let multiplicative = seasonal_series(384, 50.0, 4.0);
    let additive = seasonal_series(384, 0.0, 4.0);
    assert!(multiplicative.iter().all(|&y| y > 0.0));
    assert!(additive.iter().any(|&y| y <= 0.0));
    let measured = pinned.map(|(len, _)| {
        let (mul, _) = counted(|| predict_next(&multiplicative[..len], 6, 0.05));
        let (add, _) = counted(|| predict_next(&additive[..len], 6, 0.05));
        (len, (mul, add))
    });
    assert_eq!(
        measured, pinned,
        "(multiplicative, additive) allocations of one forecast, by length"
    );

    // The series the orchestrator feeds: noisy peaks, and the same peaks
    // shifted down by 1.5 times their level so that troughs fall below zero
    // and the additive grid runs. The grid keeps up to 22 candidates on its
    // way to the winner here; with a column per kept candidate a call made
    // 10 / 25 / 25 / 16 (multiplicative) and 10 / 18 / 22 / 17 (additive)
    // allocations.
    let pinned: [(usize, (usize, usize)); 4] =
        [(12, (4, 4)), (24, (4, 4)), (48, (4, 4)), (384, (4, 4))];
    let peaks = peak_series(384, 20.0);
    let shifted: Vec<f64> = peaks.iter().map(|y| y - 30.0).collect();
    let measured = pinned.map(|(len, _)| {
        assert!(peaks[..len].iter().all(|&y| y > 0.0));
        assert!(shifted[..len].iter().any(|&y| y <= 0.0));
        let (mul, _) = counted(|| predict_next(&peaks[..len], 6, 0.05));
        let (add, _) = counted(|| predict_next(&shifted[..len], 6, 0.05));
        (len, (mul, add))
    });
    assert_eq!(
        measured, pinned,
        "(multiplicative, additive) allocations of one forecast on noisy peaks, by length"
    );
}

#[test]
fn a_warm_resolve_allocates_a_small_constant() {
    warm_slave_resolves();
    refactorizations();
    bb_node_solve();
    predict_next_calls();
}
