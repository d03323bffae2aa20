//! # ovnes-milp — best-first branch-and-bound mixed-integer linear programming
//!
//! A **best-first branch-and-bound** MILP solver built on the [`ovnes_lp`]
//! revised simplex. It substitutes for IBM CPLEX in the CoNEXT'18
//! slice-overbooking reproduction: the Benders **master problem** (binary
//! slice-admission variables plus the continuous surrogate cost θ) and the
//! one-shot AC-RR MILP are both solved through this crate.
//!
//! Capabilities:
//!
//! * binary / general-integer variable marking on top of an `ovnes_lp`
//!   [`Problem`],
//! * best-first search over one node queue, one node at a time, on the
//!   calling thread,
//! * **deterministic results**: the same problem and options always walk
//!   the same tree (see below),
//! * most-fractional branching, exploring the nearer integer side first,
//! * parent→child warm-start basis threading per node (both children load
//!   their parent's basis *and* Arc-shared factorization; the node's solve
//!   copies only the factorization's update state, a fixed set of flat
//!   arrays with room for the node's own updates — see `ovnes_lp`'s
//!   *Copy-on-compress sharing*),
//! * node limits with a best-effort solution flagged as truncated (an
//!   error when the limit struck before any incumbent).
//!
//! ## Search loop and determinism
//!
//! [`Milp::solve`] is one sequential loop, and it makes every search
//! decision. Each pass pops the best open node (lower parent bound first,
//! ties broken toward the older node id). A node the incumbent now prunes
//! is skipped; the node budget or the wall-clock deadline stops the search
//! flagged truncated; any other node has its relaxation solved and
//! applied — an incumbent update, or a branching whose children enter the
//! queue and compete with every open node at the next pop. The loop ends
//! when the queue is empty.
//!
//! The order is global best-first, so every node whose parent bound is
//! below the optimum (less the 1e-7 gap) is applied and, once the optimum
//! is the incumbent, no other node is; the crate's tests count this
//! against an independent enumeration of the tree. A node's relaxation is
//! solved only when the loop applies it, on one clone of the [`Problem`]
//! (it only toggles integer bounds) and one [`WarmChain`], both kept for
//! the whole `solve` call: the chain loads the node's *parent's* [`Basis`]
//! value and resolves in place. The node's final basis leaves the chain
//! only to be kept: the root's for the next `solve` call, a branching
//! node's for its children. A node that does not branch leaves its basis
//! where it is, and the next load copies over it into the same buffers.
//!
//! ## Example
//!
//! ```
//! use ovnes_lp::{Problem, Cmp};
//! use ovnes_milp::{Milp, MilpOutcome};
//!
//! // 0-1 knapsack: max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6.
//! let mut p = Problem::new();
//! let a = p.add_var(0.0, 1.0, -10.0);
//! let b = p.add_var(0.0, 1.0, -13.0);
//! let c = p.add_var(0.0, 1.0, -7.0);
//! p.add_cons(&[(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
//! let mut m = Milp::new(p);
//! m.mark_integer(a);
//! m.mark_integer(b);
//! m.mark_integer(c);
//! match m.solve().unwrap() {
//!     MilpOutcome::Optimal(s) => assert!((s.objective - (-20.0)).abs() < 1e-6),
//!     _ => unreachable!(),
//! }
//! ```

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use ovnes_lp::{
    Basis, LpStats, Outcome as LpOutcome, Problem, SimplexOptions, SolveError, VarId, WarmChain,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Tolerance for considering an LP value integral.
const INT_EPS: f64 = 1e-6;

/// The root node's id (fixed: ids are assigned in application order and the
/// root is always applied first).
const ROOT_ID: u64 = 0;

/// Absolute optimality gap at which a node is pruned against the incumbent.
/// Also the guarantee on the returned solution.
const ABS_GAP: f64 = 1e-7;

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of branch-and-bound nodes applied (counted in the
    /// deterministic application order, so truncation is reproducible). A
    /// search it stops returns its best incumbent
    /// flagged `truncated`, or `Err(SolveError::IterationLimit)` when it has
    /// none yet: an unfinished tree proves nothing infeasible.
    pub max_nodes: usize,
    /// Simplex options used for node relaxations.
    pub simplex: SimplexOptions,
    /// Thread each parent node's basis into its children so the one-bound
    /// delta re-solves via a few dual-simplex pivots instead of two cold
    /// phases. Because a bound change leaves the basis *matrix* untouched,
    /// the child also inherits the parent's persisted factorization and
    /// starts with **zero refactorizations** (`LpStats::factorization_reuses`
    /// counts the hits; the factors are Arc-shared, and only their update
    /// state is copied). Disable only for debugging / regression comparison
    /// — results are identical either way, warm starts are purely a speed
    /// lever.
    pub warm_start: bool,
    /// Optional wall-clock budget per `solve` call. When it expires the
    /// search stops at the next node it would apply and returns the best
    /// incumbent flagged `truncated` (or, when none was found yet,
    /// `Err(SolveError::IterationLimit)`, as for `max_nodes`).
    /// **Non-deterministic by construction** — where the clock
    /// lands depends on the machine — so callers that fingerprint results
    /// must leave this `None` and rely on the deterministic `max_nodes`
    /// budget instead.
    pub wall_limit: Option<std::time::Duration>,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            simplex: SimplexOptions::default(),
            warm_start: true,
            wall_limit: None,
        }
    }
}

/// An integral solution.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Objective value (minimisation).
    pub objective: f64,
    /// Variable values; integer-marked entries are exactly rounded.
    pub x: Vec<f64>,
    /// Number of nodes the best-first search applied, one relaxation solve
    /// each (deterministic): on a search run to the end, every node whose
    /// parent bound is below the optimum, plus those tied with it that
    /// were popped before the optimum became the incumbent.
    pub nodes: usize,
    /// True when the node limit stopped the search before the tree was
    /// exhausted; the solution is then best-effort rather than proven optimal.
    pub truncated: bool,
    /// Pivot-level LP statistics aggregated over every applied node
    /// relaxation (deterministic).
    pub lp_stats: LpStats,
}

impl MilpSolution {
    /// Value of a variable in the solution.
    pub fn value(&self, var: VarId) -> f64 {
        self.x[var.index()]
    }
}

/// Solve outcomes.
#[derive(Debug, Clone)]
pub enum MilpOutcome {
    /// Proven-optimal (within the 1e-7 absolute gap) integral solution.
    Optimal(MilpSolution),
    /// No integral solution exists: the search ran to exhaustion without
    /// an incumbent.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
}

#[cfg(test)]
impl MilpOutcome {
    /// Test accessor; panics unless the outcome carries a solution.
    fn unwrap_optimal(self) -> MilpSolution {
        match self {
            MilpOutcome::Optimal(s) => s,
            MilpOutcome::Infeasible => panic!("MILP infeasible, expected optimal"),
            MilpOutcome::Unbounded => panic!("MILP unbounded, expected optimal"),
        }
    }
}

/// Maps an `f64` onto bits whose unsigned order matches the float order
/// (the classic sign-flip trick; total over ±∞).
fn ord_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Queue priority: parent bound ascending, then node id **ascending** —
/// node ids are the deterministic tie-breaker of the whole search order,
/// oldest first (the pinned node counts record this rule).
fn queue_key(bound: f64, id: u64) -> (u64, u64) {
    (ord_bits(bound), id)
}

/// A queued subproblem: the root problem narrowed by the bound overrides
/// along its tree path, to be re-solved from its parent's basis.
struct Node {
    id: u64,
    /// The parent relaxation objective: a lower bound on every solution in
    /// this subtree (`-∞` for the root).
    bound: f64,
    /// Absolute bound overrides along the root→node path, in branching
    /// order (later entries narrow earlier ones).
    path: Vec<(VarId, f64, f64)>,
    /// Parent basis to warm-start from (`None` on the root without a stored
    /// basis, or when warm starts are disabled).
    basis: Option<Basis>,
}

/// The problem the search re-solves node by node, kept for the whole
/// [`Milp::solve`] call: a clone of the root problem whose integer bounds
/// it narrows per node, and the one warm chain every node solves through.
/// A node resolves in place: its final basis stays in the chain, and
/// [`Search::apply`] moves it out only where it is kept (the root's, a
/// branching node's). The next node loads its parent's basis over it,
/// reusing the statuses and basic set the chain still holds.
struct NodeSolver {
    problem: Problem,
    chain: WarmChain,
}

impl NodeSolver {
    /// Solves one node's relaxation: apply the path's bound overrides,
    /// solve from the parent basis (cold without one), restore the bounds
    /// of `root`. Returns the outcome and the solve's pivot counts; the
    /// node's final basis stays in the chain.
    fn solve(
        &mut self,
        root: &Problem,
        simplex: &SimplexOptions,
        node: &Node,
    ) -> Result<(LpOutcome, LpStats), SolveError> {
        let _span = ovnes_obs::span!("milp_node", depth = node.path.len() as i64);
        for &(v, lb, ub) in &node.path {
            self.problem.set_bounds(v, lb, ub);
        }
        match &node.basis {
            Some(b) => self.chain.load(b),
            None => self.chain.clear(),
        }
        let result = self.problem.resolve(&mut self.chain, simplex);
        for &(v, _, _) in &node.path {
            let (lb, ub) = root.bounds(v);
            self.problem.set_bounds(v, lb, ub);
        }
        result
    }
}

/// The search state of one [`Milp::solve`] call: the open nodes and
/// everything the loop has decided so far.
struct Search<'a> {
    problem: &'a Problem,
    integers: &'a [VarId],
    options: &'a MilpOptions,
    /// Open nodes, in canonical order (see [`queue_key`]).
    queue: BTreeMap<(u64, u64), Node>,
    next_id: u64,
    /// Nodes applied so far, in canonical order.
    applied: usize,
    truncated: bool,
    /// Objective value new solutions must beat by `ABS_GAP` (incumbent
    /// objective, `+∞` until one is found).
    cutoff: f64,
    /// Best integral solution: (objective, rounded x).
    best: Option<(f64, Vec<f64>)>,
    root_basis: Option<Basis>,
    unbounded: bool,
    error: Option<SolveError>,
    lp_stats: LpStats,
}

impl Search<'_> {
    /// Whether the incumbent already dominates a subtree bounded by `bound`.
    fn prunes(&self, bound: f64) -> bool {
        bound >= self.cutoff - ABS_GAP
    }

    /// Applies one node's LP result (outcome, pivot counts): incumbent
    /// update or branching. The node's final basis is still in `chain`,
    /// which it leaves only to be kept.
    fn apply(&mut self, node: Node, outcome: LpOutcome, stats: &LpStats, chain: &mut WarmChain) {
        self.lp_stats.absorb(stats);
        let warm = self.options.warm_start;
        let mut basis = None;
        if node.id == ROOT_ID && warm {
            // Keep the root basis for the next solve() of this Milp (valid
            // as long as only rows are appended in between).
            basis = chain.take_basis();
            self.root_basis = basis.clone();
        }
        let sol = match outcome {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Infeasible(_) => return,
            LpOutcome::Unbounded => {
                if node.id == ROOT_ID {
                    self.unbounded = true;
                }
                // A node of a bounded root cannot be unbounded; prune
                // defensively.
                return;
            }
        };
        if self.prunes(sol.objective) {
            return; // bound: cannot beat the incumbent
        }

        // Find the most fractional integer variable.
        let mut branch: Option<(VarId, f64)> = None;
        let mut best_frac_dist = INT_EPS;
        for &v in self.integers {
            let val = sol.x[v.index()];
            let frac = (val - val.round()).abs();
            if frac > best_frac_dist {
                best_frac_dist = frac;
                branch = Some((v, val));
            }
        }

        match branch {
            None => {
                // Integral: new incumbent. Application order is canonical,
                // so which of two near-tied solutions wins is a function of
                // the tree alone.
                let mut x = sol.x;
                for &v in self.integers {
                    x[v.index()] = x[v.index()].round();
                }
                self.cutoff = sol.objective;
                self.best = Some((sol.objective, x));
            }
            Some((v, val)) => {
                // Effective bounds of the branch variable at this node.
                let (lb, ub) = node
                    .path
                    .iter()
                    .rev()
                    .find(|&&(pv, _, _)| pv == v)
                    .map(|&(_, l, u)| (l, u))
                    .unwrap_or_else(|| self.problem.bounds(v));
                let down = (lb, val.floor().min(ub));
                let up = (val.ceil().max(lb), ub);
                // Push the nearer side first: it gets the smaller id, and
                // the queue breaks bound ties toward smaller ids, so the
                // nearer integer side is explored first.
                let near_down = val - val.floor() <= 0.5;
                let ordered = if near_down { [down, up] } else { [up, down] };
                let parent = if warm {
                    basis.or_else(|| chain.take_basis())
                } else {
                    None
                };
                for (clb, cub) in ordered {
                    if clb > cub {
                        continue; // empty domain: prune without an LP solve
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    let mut path = node.path.clone();
                    path.push((v, clb, cub));
                    self.queue.insert(
                        queue_key(sol.objective, id),
                        Node {
                            id,
                            bound: sol.objective,
                            path,
                            basis: parent.clone(),
                        },
                    );
                }
            }
        }
    }
}

/// A mixed-integer linear program: an LP plus integrality marks.
#[derive(Debug, Clone)]
pub struct Milp {
    problem: Problem,
    integers: Vec<VarId>,
    options: MilpOptions,
    /// Root-relaxation basis kept across `solve` calls. Benders re-solves
    /// the master after appending cut rows, for which a stored basis stays
    /// valid (rows append, columns never change) — reusing it turns the new
    /// root solve into a short dual-simplex run. (The basis also carries its
    /// factorization; appended rows grow the basis matrix, so that part is
    /// rebuilt once per cut round, while node re-solves within a solve
    /// reuse factors untouched.)
    root_basis: Option<Basis>,
    /// Pivot statistics of the most recent `solve` call (all outcomes).
    last_lp_stats: LpStats,
}

impl Milp {
    /// Wraps an LP; all variables start continuous.
    pub fn new(problem: Problem) -> Self {
        Self {
            problem,
            integers: Vec::new(),
            options: MilpOptions::default(),
            root_basis: None,
            last_lp_stats: LpStats::default(),
        }
    }

    /// Marks a variable as integer-constrained. For binaries give the
    /// variable bounds `[0, 1]` in the underlying problem.
    pub fn mark_integer(&mut self, var: VarId) {
        if !self.integers.contains(&var) {
            self.integers.push(var);
        }
    }

    /// Replaces the search options.
    pub fn set_options(&mut self, options: MilpOptions) {
        self.options = options;
    }

    /// Mutable access to the wrapped problem (e.g. to add Benders cuts
    /// between solves).
    pub fn problem_mut(&mut self) -> &mut Problem {
        &mut self.problem
    }

    /// Runs branch and bound: one best-first loop over the open nodes,
    /// solving a node's relaxation only when it applies the node.
    ///
    /// Node relaxations run on the revised simplex: each child node reuses
    /// its parent's basis *and* its persisted Arc-shared factorization (one
    /// bound changed ⇒ dual-simplex restart with zero refactorizations),
    /// and the root reuses the previous `solve` call's root basis when the
    /// wrapped problem only grew rows since (the Benders master pattern).
    /// Results — outcome, node count, pivot statistics — are deterministic;
    /// see the crate docs.
    ///
    /// `Err` is an engine failure in a node relaxation, or a node or
    /// wall-clock budget spent before any incumbent was found.
    pub fn solve(&mut self) -> Result<MilpOutcome, SolveError> {
        let _span = ovnes_obs::span!("milp_solve");
        let options = &self.options;
        let problem = &self.problem;
        let warm = options.warm_start;
        let root = Node {
            id: ROOT_ID,
            bound: f64::NEG_INFINITY,
            path: Vec::new(),
            basis: if warm { self.root_basis.take() } else { None },
        };
        let mut search = Search {
            problem,
            integers: &self.integers,
            options,
            queue: BTreeMap::from([(queue_key(root.bound, ROOT_ID), root)]),
            next_id: ROOT_ID + 1,
            applied: 0,
            truncated: false,
            cutoff: f64::INFINITY,
            best: None,
            root_basis: None,
            unbounded: false,
            error: None,
            lp_stats: LpStats::default(),
        };
        let deadline = options.wall_limit.map(|limit| Instant::now() + limit);
        let mut solver = NodeSolver {
            problem: problem.clone(),
            chain: WarmChain::new(),
        };

        while let Some((_, node)) = search.queue.pop_first() {
            if ovnes_obs::enabled() {
                // Telemetry only: the open queue's high-water mark, the
                // popped node included.
                let depth = search.queue.len() + 1;
                ovnes_obs::metrics::global_gauge_max("milp.queue_depth", depth as f64);
            }
            // Checked before the budgets so a tree that is effectively
            // exhausted (every remaining node dominated) is never reported
            // truncated.
            if search.prunes(node.bound) {
                continue;
            }
            // The wall-clock deadline shares the node budget's truncation
            // path; *which* prefix it explores depends on the machine (see
            // [`MilpOptions::wall_limit`]).
            if search.applied >= options.max_nodes || deadline.is_some_and(|d| Instant::now() >= d)
            {
                search.truncated = true;
                break;
            }
            let result = solver.solve(problem, &options.simplex, &node);
            search.applied += 1;
            match result {
                Ok((outcome, stats)) => search.apply(node, outcome, &stats, &mut solver.chain),
                Err(e) => search.error = Some(e),
            }
            if search.error.is_some() || search.unbounded {
                break;
            }
        }

        self.last_lp_stats = search.lp_stats;
        if warm {
            self.root_basis = search.root_basis;
        }
        if let Some(e) = search.error {
            return Err(e);
        }
        if search.unbounded {
            return Ok(MilpOutcome::Unbounded);
        }
        match search.best {
            Some((objective, x)) => Ok(MilpOutcome::Optimal(MilpSolution {
                objective,
                x,
                nodes: search.applied,
                truncated: search.truncated,
                lp_stats: search.lp_stats,
            })),
            // A budget stopped the search before any incumbent: the open
            // nodes may still hold one, so this is not a proof of
            // infeasibility.
            None if search.truncated => Err(SolveError::IterationLimit),
            None => Ok(MilpOutcome::Infeasible),
        }
    }

    /// Pivot statistics of the most recent completed [`Milp::solve`] call —
    /// including Infeasible/Unbounded outcomes, which carry no solution to
    /// hang per-solve stats on.
    pub fn last_lp_stats(&self) -> &LpStats {
        &self.last_lp_stats
    }
}

#[cfg(test)]
mod tests;
