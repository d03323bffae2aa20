//! Heap allocations of one warm slave re-solve, counted.
//!
//! The slave's warm chain keeps its basis, factorization and buffers alive
//! between solves, and `solve_for` re-prices only the tenants that moved:
//! what a re-solve still allocates is what it returns (reservations, duals
//! or a cut) plus the factor updates of its pivots — a number that does not
//! grow with the size of the LP. A count is deterministic where a timing is
//! not, so this is the form in which `cargo test` holds the property; the
//! timings are `benchmark/`'s.
//!
//! This file is its own test binary with one `#[test]`, so the counting
//! allocator sees a single thread.

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::kac;
use ovnes::solver::slave::SlaveContext;
use ovnes_lp::SimplexOptions;
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
/// at any scale: the handful of vectors it returns plus a few per pivot.
/// Before the chain, the copy of the updatable `U` alone was about two
/// allocations per LP row (several hundred here).
const MAX_ALLOCATIONS: usize = 32;

#[test]
fn a_warm_resolve_allocates_a_small_constant() {
    let pinned = SimplexOptions {
        fault: None,
        refactor_interval: 128,
        ..SimplexOptions::default()
    };
    for (label, scale, tenants) in [("10x", 0.12, 20), ("100x", 0.4, 60)] {
        let inst = instance_at(scale, tenants);
        let base = kac::solve(&inst, &pinned).expect("KAC").assigned_cu;
        let admitted: Vec<usize> = (0..base.len()).filter(|&t| base[t].is_some()).collect();
        assert!(admitted.len() >= 2, "{label}: nothing to move");

        let mut ctx = SlaveContext::new(&inst);
        ctx.set_simplex_options(pinned.clone());
        ctx.solve_for(&base).expect("opening solve");
        // Drop one admitted tenant, then take it back: two one-tenant moves.
        let mut moved = base.clone();
        moved[admitted[0]] = None;
        for assigned in [&moved, &base] {
            let pivots = ctx.stats.total_pivots();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let result = ctx.solve_for(assigned);
            let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
            result.expect("warm re-solve");
            assert_eq!(ctx.stats.cold_starts, 1, "{label}: the chain stayed warm");
            let pivots = ctx.stats.total_pivots() - pivots;
            assert!(
                spent <= MAX_ALLOCATIONS,
                "{label}: {spent} allocations for {pivots} pivots over {} legs",
                inst.legs.len()
            );
        }
    }
}
