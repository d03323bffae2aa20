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

use super::slave::{LpCarry, SlaveContext, SlaveResult};
use super::AcrrError;
use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::SimplexOptions;

/// Lazy-constraint iterations (Algorithm 3's cap) before falling back to
/// dropping the least profitable admitted tenant.
const MAX_ITERATIONS: usize = 40;

/// Solves the AC-RR instance with the KAC heuristic; every vetting-slave LP
/// solves under `simplex` (how a caller's fault plan and refactorization
/// interval reach the greedy path).
pub fn solve(instance: &AcrrInstance, simplex: &SimplexOptions) -> Result<Allocation, AcrrError> {
    solve_carried(instance, simplex, None)
}

/// [`solve`] with an optional cross-epoch LP carry: the vetting slave seeds
/// a solve from the previous epoch's re-keyed basis and deposits its final
/// basis back on success.
///
/// **Decision-identity contract (two certificates).** KAC's decisions
/// consume the vetting LP's *certificates* (reservations `z`, Farkas
/// rays), which are only start-point-independent when the optimal decision
/// is unique. A carried (seeded) solve therefore only stands if it is
/// feasible and certifies at least decision uniqueness:
///
/// * **strict** ([`SlaveContext::last_solve_certified_unique`]) — optimum
///   *and* optimal basis unique; the warm solve terminated in exactly the
///   state a cold solve reaches, so the rest of the epoch's warm chain
///   follows the from-scratch trajectory with no further checks;
/// * **perturbed** ([`SlaveContext::last_solve_certified_decision`]) — the
///   decision is unique but the basis may not be (degenerate optima from
///   homogeneous requests). The decisions agree with a cold solve, but the
///   chain's terminal basis may differ from scratch, so every *subsequent*
///   solve of the epoch must also certify decision uniqueness until one
///   certifies strictly (which pins the basis and re-synchronizes the
///   chain).
///
/// A solve that fails its required certificate — including an infeasible
/// seeded vet, whose Farkas ray is never certified — discards the carried
/// attempt and restarts the whole epoch cold, reproducing the from-scratch
/// path verbatim (`stats.carry_cold_restarts` counts the discards). Either
/// way the decision is [`solve`]'s — same admission, same optimal vertex —
/// and the carry only changes how many pivots it costs. The reservations
/// are the same *bits* wherever they rest on window edges, which is every
/// case the presets, the benchmark and the 512-chain refinement check
/// produce; an interior basic reservation can differ in its last bit
/// (`crates/scenario/DESIGN.md`, "Known limit").
///
/// **Where the carry is attempted.** Only on an all-forced epoch (no churn
/// to admit): its opening forced-only vet is seeded directly, usually
/// identity-remapped onto the previous basis — the O(churn) fast path. A
/// churn epoch solves from scratch (its opening all-in vet is usually
/// infeasible, and a Farkas ray is never certified) and only deposits its
/// final basis for the next epoch; seeding a later shed iteration was
/// measured and deleted (`crates/scenario/DESIGN.md`, "Cross-epoch warm
/// start").
pub fn solve_carried(
    instance: &AcrrInstance,
    simplex: &SimplexOptions,
    carry: Option<&mut LpCarry>,
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

    // Vets and pivot work thrown away by discarded carried attempts (and
    // how many there were): still real solve cost, so it is folded into
    // the returned stats.
    let mut wasted = SolveStats::default();
    // The carried basis is attempted on an all-forced epoch only (see the
    // function docs); a discarded attempt clears the flag.
    let mut use_carry = carry.is_some() && instance.tenants.iter().all(|t| t.must_accept);
    'attempt: loop {
        // One persistent strict-slave LP per attempt: every vetting solve
        // below re-prices the RHS and warm-starts from the previous
        // admission's basis. All algorithm state is rebuilt per attempt so
        // a cold restart replays the from-scratch path exactly.
        let mut slave = SlaveContext::new_strict(instance);
        slave.set_simplex_options(simplex.clone());
        // The next solve runs from a carried (seeded) basis and must
        // certify decision uniqueness to stand.
        let mut seeded = false;
        // A seeded solve certified only the perturbed (decision-level)
        // certificate: the chain's basis may differ from scratch, so every
        // later solve must keep certifying until one certifies strictly.
        let mut verify_chain = false;
        if use_carry {
            if let Some(c) = carry.as_deref() {
                seeded = slave.seed_from_carry(c);
            }
        }

        // Aggregated knapsack (Eq. 29): w̄ per item, W̄ total capacity. ε_k
        // normalises each ray so no single cut dominates (the paper's
        // recursive ε is a scaling device; we normalise by the ray's
        // capacity term).
        let mut w_bar = vec![0.0f64; n_t * instance.n_cu];
        let mut cap_bar = 0.0f64;
        let mut have_cuts = false;
        let mut stats = SolveStats::default();
        // Tenants force-dropped by the fallback (never readmitted this epoch).
        let mut banned: Vec<bool> = vec![false; n_t];

        let mut extra_rounds = 0usize;
        loop {
            stats.iterations += 1;
            let assigned = greedy_pack(
                instance, &pairs, &gammas, &w_bar, cap_bar, have_cuts, &banned,
            );
            stats.lp_solves += 1;
            let result = slave.solve_for(&assigned)?;
            if seeded || verify_chain {
                // A carried solve (and, after a perturbed-only
                // certification, every later solve of the chain) only
                // stands if its optimal decision is provably unique —
                // otherwise the warm start may have landed on a different
                // vertex / Farkas ray than a cold solve would, and every
                // certificate-consuming decision downstream could diverge.
                // Discard and restart cold; the from-scratch trajectory is
                // restored verbatim.
                let certified = matches!(result, SlaveResult::Feasible { .. })
                    && slave.last_solve_certified_decision();
                if !certified {
                    discard(&mut wasted, &stats, &slave);
                    use_carry = false;
                    continue 'attempt;
                }
                if seeded {
                    stats.carry_certified += 1;
                    if !slave.last_solve_certified_unique() {
                        stats.carry_certified_perturbed += 1;
                    }
                    seeded = false;
                }
                // A strict certification pins the terminal basis itself, so
                // the chain is re-synchronized with the from-scratch
                // trajectory and needs no further verification.
                verify_chain = !slave.last_solve_certified_unique();
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
                    let (mut assigned, mut value, mut z, mut deficit) =
                        (assigned, value, z, deficit);
                    loop {
                        let victim = worst_net_negative(instance, &assigned, &z);
                        let Some(t) = victim else { break };
                        assigned[t] = None;
                        stats.lp_solves += 1;
                        match slave.solve_for(&assigned)? {
                            SlaveResult::Feasible {
                                value: v2,
                                z: z2,
                                deficit: d2,
                                ..
                            } => {
                                // A perturbed-only chain keeps verifying
                                // through the improvement pass too.
                                if verify_chain && !slave.last_solve_certified_decision() {
                                    discard(&mut wasted, &stats, &slave);
                                    use_carry = false;
                                    continue 'attempt;
                                }
                                verify_chain = verify_chain && !slave.last_solve_certified_unique();
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
                    settle(&mut stats, &slave, &wasted, carry);
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
                        // least profitable non-forced admitted tenant.
                        // Terminates since the admitted set strictly shrinks.
                        extra_rounds += 1;
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
                        match victim {
                            Some(t) => banned[t] = true,
                            None => {
                                // Only forced tenants remain and they do not
                                // fit strictly: lean on the §3.4 relaxation.
                                // The strict slave's final basis is still the
                                // best available carry for the next epoch (the
                                // relaxed fallback context has a different
                                // column layout).
                                settle(&mut stats, &slave, &wasted, carry);
                                return finish_with_deficit(instance, simplex, &assigned, stats);
                            }
                        }
                        if extra_rounds > n_t {
                            settle(&mut stats, &slave, &wasted, carry);
                            return finish_with_deficit(instance, simplex, &assigned, stats);
                        }
                    }
                }
            }
        }
    }
}

/// Books a discarded carried attempt in `wasted`: its vets, its pivots and
/// the restart itself.
fn discard(wasted: &mut SolveStats, attempt: &SolveStats, slave: &SlaveContext<'_>) {
    wasted.lp_solves += attempt.lp_solves;
    wasted.lp.absorb(&slave.stats);
    wasted.carry_cold_restarts += 1;
}

/// Closes the returning attempt's stats — the one place every return site
/// of [`solve_carried`] settles its counters: the surviving slave's vets
/// and pivots plus what discarded attempts wasted, the carry counters, and
/// the final basis deposited for the next epoch.
fn settle(
    stats: &mut SolveStats,
    slave: &SlaveContext<'_>,
    wasted: &SolveStats,
    carry: Option<&mut LpCarry>,
) {
    stats.lp.absorb(&slave.stats);
    stats.lp.absorb(&wasted.lp);
    stats.lp_solves += wasted.lp_solves;
    stats.carry_cold_restarts = wasted.carry_cold_restarts;
    // Every vet is one LP solve, a discarded attempt's included.
    debug_assert_eq!(stats.lp_solves, stats.lp.warm_starts + stats.lp.cold_starts);
    if let Some(c) = carry {
        slave.save_carry(c);
    }
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
/// what the orchestrator's relaxed formulation does. The relaxed vet runs
/// under the caller's `simplex` options like every other vet.
fn finish_with_deficit(
    instance: &AcrrInstance,
    simplex: &SimplexOptions,
    assigned: &[Option<usize>],
    mut stats: SolveStats,
) -> Result<Allocation, AcrrError> {
    // Keep only forced tenants; everything optional was already shed.
    let forced: Vec<Option<usize>> = assigned
        .iter()
        .zip(&instance.tenants)
        .map(|(c, t)| c.filter(|_| t.must_accept))
        .collect();
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
