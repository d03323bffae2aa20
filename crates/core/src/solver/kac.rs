//! Knapsack Admission Control (paper Algorithms 2–3).
//!
//! KAC replaces the exact master with a greedy knapsack: each (tenant, CU)
//! item has cost `γ_{τ,c} = Σ_b q·Λ − R` (negative = profitable) and the
//! capacity constraint is built *lazily* from the dual extreme rays of the
//! infeasible slave, aggregated across iterations into a single knapsack row
//! (`w̄`, `W̄`) as in Eq. (29)-(30). Items are sorted by benefit per unit
//! aggregated weight and packed first-fit-decreasing (FFD).
//!
//! Interpretation note: the paper sorts by `ϕ = γ/w̄` decreasing; with
//! profitable items having `γ < 0` the standard FFD reading is to sort by
//! `−γ/max(w̄, ε)` descending and skip unprofitable items, which is what we
//! do.

use super::slave::{SlaveContext, SlaveResult};
use super::AcrrError;
use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::{SimplexOptions, Uniqueness, WarmChain};

/// Lazy-constraint iterations (Algorithm 3's cap) before falling back to
/// dropping the least profitable admitted tenant.
const MAX_ITERATIONS: usize = 40;

/// Solves the AC-RR instance with the KAC heuristic from scratch; every
/// vetting-slave LP solves under `simplex` (how a caller's fault plan and
/// refactorization interval reach the greedy path). `solve_carried`
/// over a fresh chain.
pub fn solve(instance: &AcrrInstance, simplex: &SimplexOptions) -> Result<Allocation, AcrrError> {
    solve_carried(instance, simplex, &mut WarmChain::new())
}

/// [`solve`] resuming the vetting slave from `carry`, the previous
/// epoch's vetting-slave [`WarmChain`] (owned by the caller of
/// [`solve_epoch`](super::solve_epoch)), and handing the final chain back
/// into it by swap on success — nothing is copied or re-keyed. A fresh
/// chain makes this [`solve`].
///
/// **Where the carry is seeded.** Only on an all-forced epoch (no churn
/// to admit), and only when the carried chain
/// [fits](WarmChain::fits) the new slave LP — same shape, same structural
/// matrix: its opening forced-only vet then continues the chain in place
/// and replays the held factorization — the O(churn) fast path. A carry
/// that does not fit is not seeded, and the vet runs cold. A churn epoch
/// solves from scratch (its opening all-in vet is usually infeasible, and
/// a Farkas ray is never certified) and only hands its final chain on to
/// the next epoch; seeding a later shed iteration was measured and deleted
/// (`crates/scenario/DESIGN.md`, "Cross-epoch warm start"). An all-forced
/// epoch has nothing to shed, so the seeded vet is the only vet a carried
/// chain ever reaches.
///
/// **Decision-identity contract (one certificate).** KAC's decisions
/// consume the vetting LP's *certificates* (reservations `z`, Farkas
/// rays), which are only start-point-independent when the optimal decision
/// is unique. The seeded vet therefore returns its
/// [`certify_unique`](ovnes_lp::certify_unique) verdict, and:
///
/// * a feasible vet certified [`Uniqueness::Basis`] (optimum and optimal
///   basis unique) or [`Uniqueness::Decision`] (decision unique, basis
///   perhaps not, on degenerate optima) stands: it holds the decision a
///   cold vet reaches, and the epoch ends on it;
/// * a feasible but [`Uniqueness::Unproven`] vet is re-vetted cold in the
///   same context ([`SlaveContext::restart_cold`]), which is the vet a
///   from-scratch solve runs, bit for bit (`stats.carry_cold_restarts`
///   counts these);
/// * an infeasible vet needs no certificate: only forced tenants are
///   packed, so the epoch goes straight to the deficit fallback, as the
///   from-scratch solve does after its own infeasible vets.
///
/// Either way the decision is [`solve`]'s — same admission, same optimal
/// vertex — and the carry only changes how many pivots it costs. The
/// reservations are the same *bits* wherever they rest on window edges,
/// which is every case the presets, the benchmark and the 4,096-chain
/// refinement check produce; an interior basic reservation can differ in
/// its last bit (`crates/scenario/DESIGN.md`, "Known limit").
pub(crate) fn solve_carried(
    instance: &AcrrInstance,
    simplex: &SimplexOptions,
    carry: &mut WarmChain,
) -> Result<Allocation, AcrrError> {
    let _span = ovnes_obs::span!("kac");
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }
    // Admissions are vetted against *strict* capacities: the §3.4 big-M
    // deficit exists to absorb forecast drift of already-admitted slices,
    // not to let the greedy overbook into paid-for federated capacity. If
    // even the forced set needs the relaxation, we fall back to it at the
    // end.
    //
    // Per-pair values (Γ here, w̄ below) live in dense slots `t·n_cu + c`.
    let pairs = instance.pairs();
    let n_t = instance.tenants.len();
    let mut gammas = vec![f64::INFINITY; n_t * instance.n_cu];
    for &(t, c) in &pairs {
        gammas[t * instance.n_cu + c] = instance
            .gamma(t, c)
            .ok_or(AcrrError::Internal("allowed pair has no gamma"))?;
    }

    // One persistent strict-slave LP: every vet below re-prices the RHS
    // and warm-starts from the previous admission's basis. The carried
    // chain seeds the opening vet of an all-forced epoch only (see the
    // function docs).
    let mut slave = SlaveContext::new_strict(instance);
    slave.set_simplex_options(simplex.clone());
    if instance.tenants.iter().all(|t| t.must_accept) {
        slave.seed_from_carry(carry);
    }
    // An unseeded carry is stale (`settle` overwrites it): free its
    // factorization and buffers before the vets allocate their own.
    *carry = WarmChain::new();

    // Aggregated knapsack (Eq. 29): w̄ per item, W̄ total capacity. ε_k
    // normalises each ray so no single cut dominates (the paper's
    // recursive ε is a scaling device; we normalise by the ray's capacity
    // term).
    let mut w_bar = vec![0.0f64; n_t * instance.n_cu];
    let mut cap_bar = 0.0f64;
    let mut have_cuts = false;
    let mut stats = SolveStats::default();
    // Tenants force-dropped by the fallback (never readmitted this epoch).
    let mut banned: Vec<bool> = vec![false; n_t];

    loop {
        stats.iterations += 1;
        let assigned = greedy_pack(
            instance, &pairs, &gammas, &w_bar, cap_bar, have_cuts, &banned,
        );
        stats.lp_solves += 1;
        let mut result = slave.solve_for(&assigned)?;
        if let SlaveResult::Feasible {
            certificate: Some(verdict),
            ..
        } = result
        {
            // The seeded vet: it stands only on a unique optimal decision;
            // otherwise the warm start may have landed on another vertex
            // than a cold vet would, so it is re-vetted cold.
            match verdict {
                Uniqueness::Basis => stats.carry_certified += 1,
                Uniqueness::Decision => {
                    stats.carry_certified += 1;
                    stats.carry_certified_perturbed += 1;
                }
                Uniqueness::Unproven => {
                    slave.restart_cold();
                    stats.carry_cold_restarts += 1;
                    stats.lp_solves += 1;
                    result = slave.solve_for(&assigned)?;
                }
            }
        }
        match result {
            SlaveResult::Feasible {
                value, z, deficit, ..
            } => {
                // Improvement pass: with the slave's priced reservations,
                // a squeezed tenant may cost more in expected penalty than
                // its reward (`Σ_legs q·(Λ − z) > R`). Shedding it frees
                // room for the survivors; iterate until no tenant is
                // net-negative (the admitted set strictly shrinks, so this
                // terminates).
                let (mut assigned, mut value, mut z, mut deficit) = (assigned, value, z, deficit);
                while let Some(t) = worst_net_negative(instance, &assigned, &z) {
                    assigned[t] = None;
                    stats.lp_solves += 1;
                    match slave.solve_for(&assigned)? {
                        SlaveResult::Feasible {
                            value: v2,
                            z: z2,
                            deficit: d2,
                            ..
                        } => {
                            value = v2;
                            z = z2;
                            deficit = d2;
                        }
                        SlaveResult::Infeasible { .. } => {
                            return Err(AcrrError::Internal(
                                "shedding a tenant cannot break feasibility",
                            ))
                        }
                    }
                }
                let fixed = instance
                    .admission_cost(&assigned)
                    .ok_or(AcrrError::Internal("assigned pair has no gamma"))?;
                settle(&mut stats, &mut slave, carry);
                return Ok(Allocation::from_legs(
                    instance,
                    fixed + value,
                    assigned,
                    |li| z[li],
                    deficit,
                    stats,
                ));
            }
            SlaveResult::Infeasible { cut } => {
                // The least profitable admitted optional tenant: the one
                // the fallback below sheds.
                let victim = assigned
                    .iter()
                    .enumerate()
                    .filter(|(t, c)| c.is_some() && !instance.tenants[*t].must_accept)
                    .max_by(|(ta, ca), (tb, cb)| {
                        let gamma = |t: usize, c: &Option<usize>| {
                            c.map_or(0.0, |c| gammas[t * instance.n_cu + c])
                        };
                        gamma(*ta, ca).total_cmp(&gamma(*tb, cb))
                    })
                    .map(|(t, _)| t);
                let Some(victim) = victim else {
                    // Only forced tenants are packed and they do not fit
                    // strictly, so no packing of this epoch fits: every
                    // strict-slave row has nonnegative leg coefficients
                    // (and an admission term that only lowers its
                    // capacity), every window floor is ≥ 0
                    // (`leg_forecast` clamps it), and every packing holds
                    // this same forced assignment. Lean on the §3.4
                    // relaxation at once. The strict slave's final chain
                    // is still the best available carry for the next epoch
                    // (the relaxed fallback context has a different column
                    // layout).
                    settle(&mut stats, &mut slave, carry);
                    return finish_with_deficit(instance, simplex, assigned, stats);
                };
                if stats.iterations <= MAX_ITERATIONS {
                    // Feasibility requires cut(u) ≤ 0 ⇔ Σ coeff·u ≤
                    // −constant. Fold into the aggregated knapsack,
                    // normalised by the capacity magnitude (Eq. 30's ε
                    // scaling).
                    let cap_k = -cut.constant;
                    let norm = cap_k.abs().max(1.0);
                    for &((t, c), w) in &cut.coeffs {
                        w_bar[t * instance.n_cu + c] += w / norm;
                    }
                    cap_bar += cap_k / norm;
                    have_cuts = true;
                } else {
                    // Fallback for pathological aggregation: shed the
                    // victim. Terminates since the admitted set strictly
                    // shrinks.
                    banned[victim] = true;
                }
            }
        }
    }
}

/// Closes the solve's stats — the one place every return site of
/// [`solve_carried`] settles its counters: the slave's vets and pivots,
/// and the final chain handed on to the next epoch.
fn settle(stats: &mut SolveStats, slave: &mut SlaveContext<'_>, carry: &mut WarmChain) {
    stats.lp.absorb(&slave.stats);
    // Every vet is one LP solve, a cold re-vet included.
    debug_assert_eq!(stats.lp_solves, stats.lp.warm_starts + stats.lp.cold_starts);
    slave.save_carry(carry);
}

/// Finds the admitted, non-forced tenant whose expected risk at its current
/// reservations exceeds its reward by the largest margin (`Σ q(Λ−z) − R`).
fn worst_net_negative(
    instance: &AcrrInstance,
    assigned: &[Option<usize>],
    z: &[f64],
) -> Option<usize> {
    let mut worst: Option<(usize, f64)> = None;
    for (t, cu) in assigned.iter().enumerate() {
        let Some(c) = cu else { continue };
        if instance.tenants[t].must_accept {
            continue;
        }
        let block = instance.leg_range(t, *c);
        let risk: f64 = instance.legs[block.clone()]
            .iter()
            .zip(&z[block])
            .map(|(l, z)| instance.leg_q(l) * (instance.tenants[t].sla_mbps - z))
            .sum();
        let net = risk - instance.tenants[t].reward;
        if net > 1e-9 && worst.is_none_or(|(_, w)| net > w) {
            worst = Some((t, net));
        }
    }
    worst.map(|(t, _)| t)
}

/// Last resort when the strictly-capacitated system cannot even hold the
/// forced slices: price the overflow with the big-M deficit (§3.4), exactly
/// what the orchestrator's relaxed formulation does. `forced` admits the
/// forced tenants only. The relaxed vet runs under the caller's `simplex`
/// options like every other vet.
fn finish_with_deficit(
    instance: &AcrrInstance,
    simplex: &SimplexOptions,
    forced: Vec<Option<usize>>,
    mut stats: SolveStats,
) -> Result<Allocation, AcrrError> {
    if instance.deficit_cost.is_none() {
        return Err(AcrrError::Infeasible);
    }
    stats.lp_solves += 1;
    // Fresh context over the *relaxed* instance (the loop's context was
    // strict); keep its pivot counters so `stats.lp` covers every solve.
    let mut relaxed = SlaveContext::new(instance);
    relaxed.set_simplex_options(simplex.clone());
    let result = relaxed.solve_for(&forced)?;
    stats.lp.absorb(&relaxed.stats);
    match result {
        SlaveResult::Feasible {
            value, z, deficit, ..
        } => {
            let fixed = instance
                .admission_cost(&forced)
                .ok_or(AcrrError::Internal("forced pair has no gamma"))?;
            Ok(Allocation::from_legs(
                instance,
                fixed + value,
                forced,
                |li| z[li],
                deficit,
                stats,
            ))
        }
        SlaveResult::Infeasible { .. } => Err(AcrrError::Infeasible),
    }
}

/// One FFD pass (Algorithm 2): forced tenants first, then profitable items
/// by benefit per aggregated weight, subject to ≤ 1 CU per tenant and, once
/// rays exist, the aggregated capacity `W̄`. `gammas` and `w_bar` hold Γ and
/// w̄ of pair `(t, c)` in slot `t·n_cu + c`.
fn greedy_pack(
    instance: &AcrrInstance,
    pairs: &[(usize, usize)],
    gammas: &[f64],
    w_bar: &[f64],
    cap_bar: f64,
    have_cuts: bool,
    banned: &[bool],
) -> Vec<Option<usize>> {
    let _span = ovnes_obs::span!("kac_pack");
    const EPS_W: f64 = 1e-9;
    let n_t = instance.tenants.len();
    let mut assigned: Vec<Option<usize>> = vec![None; n_t];
    let mut budget = cap_bar;
    let slot = |t: usize, c: usize| t * instance.n_cu + c;

    // Forced tenants take their cheapest-γ CU unconditionally (constraint
    // (13) outranks the knapsack).
    for (t, ten) in instance.tenants.iter().enumerate() {
        if !ten.must_accept {
            continue;
        }
        let best = (0..instance.n_cu)
            .filter(|&c| instance.cu_allowed[t][c])
            .min_by(|&a, &b| gammas[slot(t, a)].total_cmp(&gammas[slot(t, b)]));
        if let Some(c) = best {
            assigned[t] = Some(c);
            if have_cuts {
                budget -= w_bar[slot(t, c)];
            }
        }
    }

    // FFD over all remaining items, best priority ratio first. Note
    // Algorithm 2 has no profitability filter: admission control is done by
    // the (lazily discovered) capacity, with γ only steering the order —
    // risky, low-reward items are packed last and shed first.
    let mut items: Vec<((usize, usize), f64)> = pairs
        .iter()
        .filter(|&&(t, _)| !instance.tenants[t].must_accept && !banned[t])
        .map(|&(t, c)| ((t, c), -gammas[slot(t, c)] / w_bar[slot(t, c)].max(EPS_W)))
        .collect();
    // Total order: priority ratio first, then (tenant, CU). φ ties are
    // common (same-class tenants share γ and w̄), so the pair decides them,
    // whatever order the items were collected in.
    items.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    for ((t, c), _) in items {
        if assigned[t].is_some() {
            continue;
        }
        let w = w_bar[slot(t, c)];
        if have_cuts && w > 0.0 && budget - w < 0.0 {
            continue; // does not fit the aggregated knapsack
        }
        assigned[t] = Some(c);
        if have_cuts {
            budget -= w;
        }
    }
    assigned
}
