//! The Benders slave: the reservation LP for a fixed admission vector, and
//! the machinery to turn its duals (or Farkas certificates) into cuts.
//!
//! For a fixed admission `ū` (CU selection per tenant), the slave is
//!
//! ```text
//! min  −Σ_legs q·z  (+ M·(δ_r + δ_b + δ_c))
//! s.t. Σ_{legs→c} b_τ·z − δ_c ≤ C_c − Σ_τ a_τ·ū_{τ,c}      ∀ CU c     (2/14)
//!      Σ_{legs∋e} η_e·z − δ_b ≤ C_e                        ∀ link e   (3/15)
//!      Σ_{legs@b} z/η_b − δ_r ≤ C_b                        ∀ BS b     (4/16)
//!      λ̂·ū_{τ,c} ≤ z ≤ Λ·ū_{τ,c}                          ∀ leg    (17/18)
//! ```
//!
//! The paper's reservation-window rows (17)/(18) are **native variable
//! bounds** here, not constraint rows: the revised simplex handles box
//! bounds for free, so the basis is `(CUs + links + BSs)²` instead of
//! growing by two rows per leg — and the window edits a new admission
//! vector implies are exactly the bound-heavy dual-simplex re-solves the
//! engine's long-step (bound-flipping) ratio test is built for.
//!
//! Every right-hand side *and bound* is affine in `u`, so a dual solution
//! still yields an affine lower bound `g(u) ≤ slave_opt(u)`: the row part
//! `Σ_i y_i·rhs_i(u)` as before, plus the window part priced through
//! **reduced costs** — a leg nonbasic at a window edge contributes
//! `d·λ̂·u` (at the lower edge, `d ≥ 0`) or `d·Λ·u` (at the upper edge,
//! `d ≤ 0`), the Lagrangian `inf` over the box. Farkas certificates do the
//! same with the residuals `h_j = Σ_i y_i·a_ij`, using the `sup` over the
//! box. The paper's `y`/linearisation variables are unnecessary because the
//! slave sees `x` as a constant.
//!
//! ## Incremental re-pricing
//!
//! Only right-hand sides and window bounds depend on `ū`. [`SlaveContext`]
//! therefore builds the LP **once** per instance, and each
//! [`SlaveContext::solve_for`] call edits only what moved since the admission
//! the LP is priced for — the window bounds of the tenants whose assignment
//! changed (the legs of the CU they left and of the CU they joined) and the
//! few CU right-hand sides — and re-solves **warm**: consecutive admissions
//! differ by a few flipped `u` entries, so the dual simplex typically needs a
//! handful of pivots (plus a few bound flips) where a cold solve needs two
//! full phases. The context owns an [`ovnes_lp::WarmChain`], so the final
//! basis, its **factorization** and the engine's buffers stay where the last
//! solve left them: RHS and bound edits leave the basis matrix untouched, a
//! re-priced solve starts with zero refactorizations
//! (`stats.factorization_reuses` counts the hits) and clones nothing.
//!
//! A Farkas ray is priced into its feasibility cut only where it is
//! nonzero: the legs visited are those with a coefficient in a row whose
//! multiplier is nonzero (every other leg's residual is an exact zero), and
//! the per-(tenant, CU) sums run in a dense accumulator in the order the
//! full scan would add them. The bound part of the certificate
//! (`ovnes_lp::Farkas::ub_multipliers`) is not needed here and not
//! computed.

use super::{add_deficit_vars, deficit_values, DeficitVars};
use crate::problem::AcrrInstance;
use ovnes_lp::{
    Cmp, ConsId, LpStats, Outcome, Problem, SimplexOptions, Uniqueness, VarId, WarmChain,
};

/// An affine function of the admission binaries: `g(u) = constant +
/// Σ coeffs[(t,c)]·u_{t,c}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CutExpr {
    /// Constant term.
    pub constant: f64,
    /// Per-(tenant, CU) coefficients, one entry per pair, ascending by pair.
    pub coeffs: Vec<((usize, usize), f64)>,
}

impl CutExpr {
    /// The coefficient of `u_{t,c}`, when the cut has one.
    pub(crate) fn get(&self, pair: (usize, usize)) -> Option<f64> {
        self.coeffs
            .binary_search_by_key(&pair, |&(p, _)| p)
            .ok()
            .map(|k| self.coeffs[k].1)
    }

    /// Evaluates the expression at an admission vector: the constant plus
    /// the admitted pairs' coefficients, added in pair order.
    #[cfg(test)]
    pub(crate) fn eval(&self, assigned: &[Option<usize>]) -> f64 {
        let mut v = self.constant;
        for &((t, c), w) in &self.coeffs {
            if assigned[t] == Some(c) {
                v += w;
            }
        }
        v
    }
}

/// The dense per-(tenant, CU) accumulator a cut's coefficients are summed
/// in: slot `t·n_cu + c`, the touched slots remembered so that handing the
/// cut over clears exactly those. A pair has an entry in the cut once
/// anything was added for it, even if its sum is zero.
struct CutAcc {
    n_cu: usize,
    sums: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<usize>,
}

impl CutAcc {
    fn new(n_tenants: usize, n_cu: usize) -> CutAcc {
        CutAcc {
            n_cu,
            sums: vec![0.0; n_tenants * n_cu],
            seen: vec![false; n_tenants * n_cu],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, (t, c): (usize, usize), w: f64) {
        let k = t * self.n_cu + c;
        if !self.seen[k] {
            self.seen[k] = true;
            self.touched.push(k);
        }
        self.sums[k] += w;
    }

    /// The accumulated cut, pairs ascending; the accumulator is zero again.
    fn take(&mut self, constant: f64) -> CutExpr {
        self.touched.sort_unstable();
        let coeffs = self
            .touched
            .iter()
            .map(|&k| {
                self.seen[k] = false;
                (
                    (k / self.n_cu, k % self.n_cu),
                    std::mem::take(&mut self.sums[k]),
                )
            })
            .collect();
        self.touched.clear();
        CutExpr { constant, coeffs }
    }
}

/// Slave outcome for a fixed admission vector.
#[derive(Debug, Clone)]
pub enum SlaveResult {
    /// The reservation LP is feasible.
    Feasible {
        /// Optimal slave objective (risk recovered through reservations,
        /// plus any big-M deficit cost).
        value: f64,
        /// Reservation per leg (same order as `instance.legs`).
        z: Vec<f64>,
        /// Deficit used: (radio MHz, transport Mb/s, compute cores).
        deficit: (f64, f64, f64),
        /// Row duals of the optimum; `SlaveContext::optimality_cut`
        /// prices them into the cut `θ ≥ cut(u)`.
        duals: Vec<f64>,
        /// How unique the optimum is ([`ovnes_lp::certify_unique`]), for
        /// the one solve after `SlaveContext::seed_from_carry` installed a
        /// chain; `None` for every unseeded solve, which evaluates no
        /// certificate: without a carried basis there is no start to be
        /// independent of.
        certificate: Option<Uniqueness>,
    },
    /// No reservation satisfies the capacities (only without the deficit
    /// relaxation).
    Infeasible {
        /// Feasibility cut `cut(u) ≤ 0`.
        cut: CutExpr,
    },
}

/// Row bookkeeping: rhs constant plus affine dependence on `u`.
struct RowSpec {
    r0: f64,
    u_coeffs: Vec<((usize, usize), f64)>,
    id: ConsId,
}

/// A persistent, warm-started slave LP for one [`AcrrInstance`].
///
/// Build once, then call [`SlaveContext::solve_for`] with each admission
/// vector. The LP structure never changes — only RHS values and leg bounds
/// move — so the previous solve's basis restarts every subsequent solve.
pub struct SlaveContext<'a> {
    instance: &'a AcrrInstance,
    problem: Problem,
    z_vars: Vec<VarId>,
    deficit_vars: DeficitVars,
    rows: Vec<RowSpec>,
    /// Per-leg reservation window `[λ̂, Λ]`, applied as variable bounds
    /// scaled by the admission binary.
    leg_window: Vec<(f64, f64)>,
    /// The admission the LP's right-hand sides and windows are priced for
    /// (`None` until the first `solve_for`, which prices everything).
    priced: Option<Vec<Option<usize>>>,
    /// The warm chain: final basis, factorization and engine buffers of
    /// the previous `solve_for`, continued in place by the next.
    chain: WarmChain,
    warm: bool,
    /// Simplex options applied to every `solve_for` (budget pivot caps and
    /// chaos fault injection thread through here; defaults are identical to
    /// the plain `solve_warm` path).
    simplex: SimplexOptions,
    /// Accumulator behind every cut this context prices.
    cut_acc: CutAcc,
    /// Per leg: whether the Farkas ray being priced touches it. Set and
    /// cleared within one feasibility cut.
    ray_legs: Vec<bool>,
    /// [`SlaveContext::seed_from_carry`] installed a carried chain that no
    /// `solve_for` has consumed yet: the next one certifies its optimum.
    seeded: bool,
    /// Pivot statistics accumulated over every `solve_for` call.
    pub stats: LpStats,
}

impl<'a> SlaveContext<'a> {
    /// Builds the reservation LP skeleton (RHS set for the all-rejected
    /// admission; [`SlaveContext::solve_for`] rewrites it per call).
    pub fn new(instance: &'a AcrrInstance) -> SlaveContext<'a> {
        Self::build(instance, instance.deficit_cost)
    }

    /// [`SlaveContext::new`] without the §3.4 deficit relaxation, whatever
    /// the instance's `deficit_cost` says: capacities are hard, and an
    /// admission that does not fit comes back as a feasibility cut.
    pub(crate) fn new_strict(instance: &'a AcrrInstance) -> SlaveContext<'a> {
        Self::build(instance, None)
    }

    fn build(instance: &'a AcrrInstance, deficit_cost: Option<f64>) -> SlaveContext<'a> {
        let mut p = Problem::new();

        // Reservation variable per leg, carrying its window natively as
        // bounds. The all-rejected start pins every leg at [0, 0];
        // `solve_for` rescales the box by the admission binary.
        let z_vars: Vec<VarId> = instance
            .legs
            .iter()
            .map(|leg| p.add_var(0.0, 0.0, -instance.leg_q(leg)))
            .collect();
        let leg_window: Vec<(f64, f64)> = instance
            .legs
            .iter()
            .map(|leg| {
                (
                    instance.leg_forecast(leg),
                    instance.tenants[leg.tenant].sla_mbps,
                )
            })
            .collect();

        // Domain-wide deficit variables (paper §3.4: one per domain).
        let deficit_vars = add_deficit_vars(&mut p, deficit_cost);

        // Bucket the legs once per row family, in ascending leg order: the
        // rows below are then assembled in O(nonzeros), and every row's
        // coefficients come out in the order a per-row scan over all legs
        // would give — the certificates and cuts sum in that order.
        let mut cu_legs: Vec<Vec<usize>> = vec![Vec::new(); instance.n_cu];
        let mut link_legs: Vec<Vec<usize>> = vec![Vec::new(); instance.link_caps.len()];
        let mut bs_legs: Vec<Vec<usize>> = vec![Vec::new(); instance.n_bs];
        for (li, leg) in instance.legs.iter().enumerate() {
            cu_legs[leg.cu].push(li);
            bs_legs[leg.bs].push(li);
            for &e in &leg.links {
                // A path lists a link once; guard the row against a repeat.
                if link_legs[e].last() != Some(&li) {
                    link_legs[e].push(li);
                }
            }
        }

        let mut rows: Vec<RowSpec> = Vec::new();
        let mut coeffs: Vec<(VarId, f64)> = Vec::new();

        // (2/14) CU capacity.
        for (c, members) in cu_legs.iter().enumerate() {
            coeffs.clear();
            for &li in members {
                let b = instance.tenants[instance.legs[li].tenant]
                    .service
                    .cores_per_mbps;
                if b != 0.0 {
                    coeffs.push((z_vars[li], b));
                }
            }
            if let Some((_, _, dc)) = deficit_vars {
                coeffs.push((dc, -1.0));
            }
            // rhs: C_c − Σ_t a_t·u_{t,c}.
            let mut u_coeffs = Vec::new();
            for (t, ten) in instance.tenants.iter().enumerate() {
                if instance.cu_allowed[t][c] && ten.service.base_cores != 0.0 {
                    u_coeffs.push(((t, c), -ten.service.base_cores));
                }
            }
            let id = p.add_cons(&coeffs, Cmp::Le, instance.cu_cores[c]);
            rows.push(RowSpec {
                r0: instance.cu_cores[c],
                u_coeffs,
                id,
            });
        }

        // (3/15) Link capacity. A link referenced by no leg (possible after
        // CU pruning) gets no row, which keeps the LP lean.
        for (e, members) in link_legs.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            coeffs.clear();
            for &li in members {
                coeffs.push((z_vars[li], instance.eta_transport));
            }
            if let Some((_, db, _)) = deficit_vars {
                coeffs.push((db, -1.0));
            }
            let cap = instance.link_caps[e];
            let id = p.add_cons(&coeffs, Cmp::Le, cap);
            rows.push(RowSpec {
                r0: cap,
                u_coeffs: Vec::new(),
                id,
            });
        }

        // (4/16) Radio capacity per BS (z in Mb/s ÷ efficiency = MHz).
        for (b, members) in bs_legs.iter().enumerate() {
            let eff = instance.mbps_per_mhz[b];
            coeffs.clear();
            for &li in members {
                coeffs.push((z_vars[li], 1.0 / eff));
            }
            if let Some((dr, _, _)) = deficit_vars {
                coeffs.push((dr, -1.0));
            }
            let id = p.add_cons(&coeffs, Cmp::Le, instance.bs_radio_mhz[b]);
            rows.push(RowSpec {
                r0: instance.bs_radio_mhz[b],
                u_coeffs: Vec::new(),
                id,
            });
        }

        // (17)/(18) live as native bounds on `z_vars` — see the module docs.

        SlaveContext {
            instance,
            problem: p,
            z_vars,
            deficit_vars,
            rows,
            leg_window,
            priced: None,
            chain: WarmChain::new(),
            warm: true,
            simplex: SimplexOptions::default(),
            cut_acc: CutAcc::new(instance.tenants.len(), instance.n_cu),
            ray_legs: vec![false; instance.legs.len()],
            seeded: false,
            stats: LpStats::default(),
        }
    }

    /// Disables basis reuse (comparison runs solve cold instead): while
    /// off, `solve_for` clears the chain before every solve.
    pub(crate) fn set_warm(&mut self, warm: bool) {
        self.warm = warm;
    }

    /// Overrides the simplex options applied to every subsequent
    /// [`SlaveContext::solve_for`] — how `SolveControls.lp_fault` (and, for
    /// callers that want it, pivot caps) reach the slave LP instead of only
    /// the master's node relaxations.
    pub(crate) fn set_simplex_options(&mut self, options: SimplexOptions) {
        self.simplex = options;
    }

    /// Seeds this (freshly built) context with a previous epoch's slave
    /// chain, taken by swap with its basis, factorization and buffers —
    /// but only when the chain [fits](WarmChain::fits) this LP: same shape,
    /// same structural matrix, so the held factorization replays as is. A
    /// carry that does not fit, or a cold-start context, installs nothing
    /// and the next solve is cold. Once a chain is installed, the next
    /// [`SlaveContext::solve_for`] alone certifies its optimum (the seeded
    /// vet's `certificate`).
    pub(crate) fn seed_from_carry(&mut self, carry: &mut WarmChain) {
        if self.warm && carry.fits(&self.problem) {
            std::mem::swap(&mut self.chain, carry);
            self.seeded = true;
        }
    }

    /// Hands this context's warm chain to `carry` (by swap, nothing is
    /// copied) for the next epoch's context to resume from. A cold-start
    /// context hands over a cleared chain.
    pub(crate) fn save_carry(&mut self, carry: &mut WarmChain) {
        std::mem::swap(&mut self.chain, carry);
        if !self.warm {
            carry.clear();
        }
    }

    /// Forgets the warm chain: the next [`SlaveContext::solve_for`] runs
    /// cold. Re-vetting the admission the LP is already priced for is then
    /// bit for bit the vet a fresh context runs for it — how KAC replaces
    /// a seeded vet it could not certify.
    pub(crate) fn restart_cold(&mut self) {
        self.chain.clear();
    }

    /// Row part of a cut, `Σ_i y_i·rhs_i(u)`, identical for optimality and
    /// feasibility cuts: the `u` terms go into the accumulator, the constant
    /// is returned.
    fn price_rows(&mut self, multipliers: &[f64]) -> f64 {
        let mut constant = 0.0;
        for spec in &self.rows {
            let y = multipliers[spec.id.index()];
            if y == 0.0 {
                continue;
            }
            constant += y * spec.r0;
            for &(pair, w) in &spec.u_coeffs {
                self.cut_acc.add(pair, y * w);
            }
        }
        constant
    }

    /// Residual `h_j = Σ_i y_i·a_ij` of a leg column against a row
    /// multiplier vector.
    fn residual(&self, multipliers: &[f64], li: usize) -> f64 {
        self.problem.col_dot(multipliers, self.z_vars[li])
    }

    /// The optimality cut `θ ≥ cut(u)` of a feasible solve's `duals`: the
    /// row part plus the window part, the Lagrangian `inf` over the box.
    /// A leg with reduced cost `d = c_j − y'A_j` contributes `d·λ̂·u` when
    /// `d ≥ 0` (rests at the lower edge) and `d·Λ·u` when `d < 0` (upper
    /// edge); strong duality makes the cut tight at the generating
    /// admission.
    pub(crate) fn optimality_cut(&mut self, multipliers: &[f64]) -> CutExpr {
        let constant = self.price_rows(multipliers);
        let instance = self.instance;
        for (li, leg) in instance.legs.iter().enumerate() {
            let d = -instance.leg_q(leg) - self.residual(multipliers, li);
            if d.abs() <= BOUND_DUAL_TOL {
                continue;
            }
            let (lam_hat, lam) = self.leg_window[li];
            let w = if d > 0.0 { d * lam_hat } else { d * lam };
            if w != 0.0 {
                self.cut_acc.add((leg.tenant, leg.cu), w);
            }
        }
        self.cut_acc.take(constant)
    }

    /// The feasibility cut `cut(u) ≤ 0` of a Farkas ray: the row part, minus
    /// the window part — the `sup` over the box of the certificate
    /// residuals, so `g(u) ≤ 0` stays necessary for feasibility while the
    /// generating admission is still cut off.
    ///
    /// Only a leg with a coefficient in some row whose multiplier is nonzero
    /// can have a nonzero residual, so only those are priced, in ascending
    /// leg order: per pair the same additions in the same order as pricing
    /// every leg.
    fn feasibility_cut(&mut self, multipliers: &[f64]) -> CutExpr {
        let constant = self.price_rows(multipliers);
        let n_legs = self.z_vars.len();
        for spec in &self.rows {
            if multipliers[spec.id.index()] != 0.0 {
                for v in self.problem.row_vars(spec.id) {
                    if v.index() < n_legs {
                        self.ray_legs[v.index()] = true;
                    }
                }
            }
        }
        let instance = self.instance;
        for li in 0..n_legs {
            if !std::mem::take(&mut self.ray_legs[li]) {
                continue;
            }
            let h = self.residual(multipliers, li);
            if h.abs() <= BOUND_DUAL_TOL {
                continue;
            }
            let (lam_hat, lam) = self.leg_window[li];
            let w = if h > 0.0 { h * lam } else { h * lam_hat };
            if w != 0.0 {
                let leg = &instance.legs[li];
                self.cut_acc.add((leg.tenant, leg.cu), -w);
            }
        }
        self.cut_acc.take(constant)
    }

    /// Brings the LP's right-hand sides and leg windows from the admission
    /// they are priced for to `assigned`, editing only what moved.
    fn reprice(&mut self, assigned: &[Option<usize>]) {
        let instance = self.instance;
        // Each leg's box is its window scaled by the admission binary. Pure
        // bound edits — the basis matrix (and the held factorization)
        // survive untouched.
        let (problem, z_vars, leg_window) = (&mut self.problem, &self.z_vars, &self.leg_window);
        let mut set_window = |li: usize, open: bool| {
            let (lam_hat, lam) = if open { leg_window[li] } else { (0.0, 0.0) };
            problem.set_bounds(z_vars[li], lam_hat, lam);
        };
        let mut moved = false;
        match &mut self.priced {
            None => {
                for (li, leg) in instance.legs.iter().enumerate() {
                    set_window(li, assigned[leg.tenant] == Some(leg.cu));
                }
                self.priced = Some(assigned.to_vec());
                moved = true;
            }
            Some(priced) => {
                for (t, (was, now)) in priced.iter_mut().zip(assigned).enumerate() {
                    if was == now {
                        continue;
                    }
                    if let Some(c) = *was {
                        instance
                            .leg_range(t, c)
                            .for_each(|li| set_window(li, false));
                    }
                    if let Some(c) = *now {
                        instance.leg_range(t, c).for_each(|li| set_window(li, true));
                    }
                    *was = *now;
                    moved = true;
                }
            }
        }
        if !moved {
            return;
        }
        // Every RHS is affine in u; only the CU rows depend on it at all.
        for spec in &self.rows {
            if spec.u_coeffs.is_empty() {
                continue;
            }
            let mut rhs = spec.r0;
            for &((t, c), w) in &spec.u_coeffs {
                if assigned[t] == Some(c) {
                    rhs += w;
                }
            }
            self.problem.set_rhs(spec.id, rhs);
        }
    }

    /// Prices the admission vector `assigned` (CU per tenant, `None` =
    /// rejected), warm-starting from the previous call's basis.
    pub fn solve_for(
        &mut self,
        assigned: &[Option<usize>],
    ) -> Result<SlaveResult, ovnes_lp::SolveError> {
        let _span = ovnes_obs::span!("slave_lp");
        assert_eq!(assigned.len(), self.instance.tenants.len());

        self.reprice(assigned);
        if !self.warm {
            self.chain.clear();
        }
        let seeded = std::mem::take(&mut self.seeded);
        let (outcome, stats) = self.problem.resolve(&mut self.chain, &self.simplex)?;
        self.stats.absorb(&stats);

        match outcome {
            Outcome::Optimal(sol) => {
                let certificate = seeded.then(|| ovnes_lp::certify_unique(&self.problem, &sol));
                let z: Vec<f64> = self.z_vars.iter().map(|&v| sol.value(v).max(0.0)).collect();
                Ok(SlaveResult::Feasible {
                    value: sol.objective,
                    z,
                    deficit: deficit_values(self.deficit_vars, |v| sol.value(v)),
                    duals: sol.duals,
                    certificate,
                })
            }
            Outcome::Infeasible(farkas) => {
                let cut = self.feasibility_cut(&farkas.row_multipliers);
                Ok(SlaveResult::Infeasible { cut })
            }
            // The leg columns are boxed (z ≤ Λ); only a negative
            // `deficit_cost` makes the objective unbounded. A malformed
            // instance is the caller's to absorb, not a panic.
            Outcome::Unbounded => Err(ovnes_lp::SolveError::Numerical),
        }
    }
}

/// Reduced costs / residuals below this are treated as zero when pricing
/// window contributions into cut coefficients.
const BOUND_DUAL_TOL: f64 = 1e-9;

#[cfg(test)]
mod tests;
