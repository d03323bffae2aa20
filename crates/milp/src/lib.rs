//! # ovnes-milp — parallel branch-and-bound mixed-integer linear programming
//!
//! A work-sharing **parallel best-first branch-and-bound** MILP solver built
//! on the [`ovnes_lp`] revised simplex. It substitutes for IBM CPLEX in the
//! CoNEXT'18 slice-overbooking reproduction: the Benders **master problem**
//! (binary slice-admission variables plus the continuous surrogate cost θ)
//! and the one-shot AC-RR MILP are both solved through this crate.
//!
//! Capabilities:
//!
//! * binary / general-integer variable marking on top of an `ovnes_lp`
//!   [`Problem`],
//! * best-first search over a global node queue, drained by
//!   `std::thread::scope` workers ([`MilpOptions::threads`]) — node
//!   relaxations are independent LP re-solves, which is exactly the unit of
//!   parallelism the engine's `Send + Sync` split was built for,
//! * **deterministic results at every worker count** (see below),
//! * most-fractional branching, exploring the nearer integer side first,
//! * parent→child warm-start basis threading per node (each child resumes
//!   its parent's basis *and* Arc-shared factorization, whichever worker
//!   picks it up; the node's solve copies only the factorization's update
//!   state, a fixed set of flat arrays with room for the node's own
//!   updates — see `ovnes_lp`'s *Copy-on-compress sharing*),
//! * node limits with a best-effort solution flagged as truncated (an
//!   error when the limit struck before any incumbent).
//!
//! ## Parallel architecture and determinism
//!
//! The search state splits along the `ovnes_lp` threading contract:
//!
//! * **shared, immutable** — the wrapped [`Problem`] (each worker clones it
//!   once and only ever toggles variable bounds), parent [`Basis`] values
//!   with their Arc-shared factorizations (a node's solve copies the
//!   update state it folds its pivots into, never the factors), and the
//!   options;
//! * **per worker** — one [`ovnes_lp::Workspace`] holding every scratch
//!   buffer of the simplex (a refactorization's working set included),
//!   plus the worker's problem clone. A worker holds
//!   scratch only, never an [`ovnes_lp::WarmChain`]: a node resumes from its
//!   *parent's* basis, whichever worker solved the parent, so restart state
//!   has to travel as a [`Basis`] value — and a node's result stays a
//!   function of (problem, parent basis, options) alone;
//! * **shared, mutable** — a mutex-protected node queue / result cache, and
//!   the incumbent objective mirrored as an **atomic `f64` bit pattern**
//!   that workers re-check lock-free between claiming a node and starting
//!   its (expensive) LP solve, dropping work a freshly applied incumbent
//!   has already pruned. The cutoff only ever decreases, so a skipped node
//!   is guaranteed to be discarded at application — the shortcut saves
//!   wall-clock, never changes a result.
//!
//! The search advances in **deterministic rounds**: each round moves the
//! up-to-[`MilpOptions::round_width`] best open nodes (lower parent bound first, ties
//! broken on node ids) from the queue into an active window whose
//! membership is a pure function of the search state — never of the worker
//! count or OS scheduling. Workers solve the window's relaxations in any
//! order and in parallel, but results are **applied strictly in window
//! order**, so incumbent updates, pruning decisions, branching, and node
//! ids unfold in one canonical sequence; children always enter a later
//! round. A result whose node gets pruned before application is discarded
//! (wasted wall-clock, never a changed answer). Consequently the
//! objective, the solution vector, the node count, and even the pivot
//! statistics are identical at 1, 2, or N workers — a single worker walks
//! the very same rounds alone; `tests/solver_cross_check.rs` asserts this
//! on seeded torture MILPs. (The window is what buys wall-clock: applying
//! in *global* best-first order instead would chase each freshly branched
//! child, a parent→child chain of LP solves no speculation can overlap.)
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

use ovnes_lp::{
    Basis, LpStats, Outcome as LpOutcome, Problem, SimplexOptions, SolveError, VarId, WarmSolve,
    Workspace,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Tolerance for considering an LP value integral.
const INT_EPS: f64 = 1e-6;

/// The root node's id (fixed: ids are assigned in application order and the
/// root is always applied first).
const ROOT_ID: u64 = 0;

/// Floor of the adaptive nodes-per-round window. Sized a little above the
/// worker counts we historically deploy (2–8) so the window keeps every
/// core fed even when the open queue is shallow; oversizing only risks
/// solving a few end-of-search nodes an incumbent discovered mid-round
/// would have pruned.
const FALLBACK_ROUND_WIDTH: usize = 8;

/// Ceiling of the adaptive nodes-per-round window: past this, wider rounds
/// mostly solve nodes a mid-round incumbent would have pruned.
const MAX_ADAPTIVE_ROUND_WIDTH: usize = 64;

/// Absolute optimality gap at which a node is pruned against the incumbent.
/// Also the guarantee on the returned solution.
const ABS_GAP: f64 = 1e-7;

/// The adaptive nodes-per-round window for an open queue of `open` nodes:
/// half the queue, clamped to `[8, 64]`. A **pure function of the
/// round-start queue length** — never of worker count, thread timing, or
/// in-flight results — so round membership (and therefore every search
/// decision) stays bit-identical at any parallelism. Deep queues get wide
/// rounds (more parallel work, fewer round barriers); shallow end-of-search
/// queues shrink back so incumbent pruning reacts quickly.
pub fn adaptive_round_width(open: usize) -> usize {
    (open / 2).clamp(FALLBACK_ROUND_WIDTH, MAX_ADAPTIVE_ROUND_WIDTH)
}

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of branch-and-bound nodes applied (counted in the
    /// deterministic application order, so truncation is reproducible at
    /// any worker count). A search it stops returns its best incumbent
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
    /// counts the hits) — the factorization is Arc-shared, so this works
    /// identically when the child lands on a different worker thread.
    /// Disable only for debugging / regression comparison — results are
    /// identical either way, warm starts are purely a speed lever.
    pub warm_start: bool,
    /// Worker threads draining the node queue (clamped to ≥ 1). Results are
    /// deterministic in this knob; it is purely a wall-clock lever.
    /// Defaults to 1.
    pub threads: usize,
    /// Nodes per deterministic round: the active window workers draw from.
    /// `Some(w)` pins a fixed width (clamped to ≥ 1); `None` (the default)
    /// sizes each round by [`adaptive_round_width`] of the round-start
    /// queue depth. Either way the width is never derived from the worker
    /// count, so the round decomposition — and therefore every result — is
    /// identical at any parallelism. Pin it on many-core hardware to tune
    /// feeding (wider rounds keep more cores fed at the cost of
    /// occasionally solving end-of-search nodes a mid-round incumbent would
    /// have pruned), or when fingerprinting telemetry: different width
    /// policies walk different, each internally deterministic, search
    /// sequences.
    pub round_width: Option<usize>,
    /// Optional wall-clock budget per `solve` call. When it expires the
    /// search stops at the next canonical application point and returns the
    /// best incumbent flagged `truncated` (or, when none was found yet,
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
            threads: 1,
            round_width: None,
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
    /// Number of nodes applied by the search (deterministic; speculative
    /// solves discarded by pruning are not counted).
    pub nodes: usize,
    /// True when the node limit stopped the search before the tree was
    /// exhausted; the solution is then best-effort rather than proven optimal.
    pub truncated: bool,
    /// Pivot-level LP statistics aggregated over every applied node
    /// relaxation (deterministic at any worker count).
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

impl MilpOutcome {
    /// Convenience accessor; panics unless the outcome carries a solution.
    pub fn unwrap_optimal(self) -> MilpSolution {
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
/// node ids are the deterministic tie-breaker of the whole search order.
/// Oldest-first ties keep the open frontier *wide*: the next nodes to apply
/// are usually siblings/cousins whose parents were applied long ago, so
/// their relaxations can be (and usually already have been) solved in
/// parallel. A newest-first (plunging) rule would chase each freshly
/// created child, turning the application sequence into a parent→child
/// chain whose every link waits on an LP solve — no parallel speedup.
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

/// What a worker takes off the queue to solve (the node itself stays queued
/// until its result is applied in canonical order).
struct WorkItem {
    id: u64,
    /// Parent bound, for the lock-free prunability re-check right before
    /// the (expensive) LP solve.
    bound: f64,
    path: Vec<(VarId, f64, f64)>,
    basis: Option<Basis>,
}

/// Mutex-protected search state.
struct SearchState {
    /// Open nodes awaiting a future round, in canonical order (see
    /// [`queue_key`]).
    queue: BTreeMap<(u64, u64), Node>,
    /// The active round: node ids in application order. Formed
    /// deterministically from the queue front whenever the previous round
    /// has fully drained.
    round: VecDeque<u64>,
    /// The active round's nodes (moved out of the queue).
    round_nodes: HashMap<u64, Node>,
    /// Node ids currently being solved by some worker.
    claimed: HashSet<u64>,
    /// Round LP results awaiting application.
    results: HashMap<u64, Result<WarmSolve, SolveError>>,
    /// Solves in flight (claimed, lock released).
    inflight: usize,
    next_id: u64,
    /// Nodes applied so far, in canonical order.
    applied: usize,
    truncated: bool,
    /// Objective value new solutions must beat by `ABS_GAP` (incumbent
    /// objective, `+∞` until one is found). Mirrored into
    /// [`Shared::incumbent_bits`] on every change.
    cutoff: f64,
    /// Best integral solution: (objective, rounded x, node id).
    best: Option<(f64, Vec<f64>, u64)>,
    root_basis: Option<Basis>,
    unbounded: bool,
    error: Option<SolveError>,
    lp_stats: LpStats,
    done: bool,
}

/// State shared across workers.
struct Shared {
    state: Mutex<SearchState>,
    cv: Condvar,
    /// Bit pattern of [`SearchState::cutoff`]: the shared incumbent bound,
    /// readable without the lock so workers can decline speculative solves
    /// that can no longer affect the result. Advisory only — the
    /// authoritative pruning happens under the lock in application order,
    /// which is what keeps the search deterministic.
    incumbent_bits: AtomicU64,
}

/// Immutable per-solve context handed to every worker.
struct Ctx<'a> {
    shared: &'a Shared,
    problem: &'a Problem,
    integers: &'a [VarId],
    options: &'a MilpOptions,
    /// Root bounds of every integer variable (`v.index()` keyed): what a
    /// worker restores after un-applying a node path.
    base_bounds: HashMap<usize, (f64, f64)>,
    /// Wall-clock cutoff of this solve ([`MilpOptions::wall_limit`] past
    /// the solve start), `None` for unbudgeted (deterministic) searches.
    deadline: Option<std::time::Instant>,
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
    /// rebuilt once per cut round, while node re-solves within a round reuse
    /// factors untouched.)
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

    /// Read access to the wrapped problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Runs branch and bound across [`MilpOptions::threads`] workers.
    ///
    /// Node relaxations run on the revised simplex: each child node reuses
    /// its parent's basis *and* its persisted Arc-shared factorization (one
    /// bound changed ⇒ dual-simplex restart with zero refactorizations)
    /// regardless of which worker solves it, and the root reuses the
    /// previous `solve` call's root basis when the wrapped problem only
    /// grew rows since (the Benders master pattern). Results — outcome,
    /// node count, pivot statistics — are deterministic in the worker
    /// count; see the crate docs.
    ///
    /// `Err` is an engine failure in a node relaxation, or a node or
    /// wall-clock budget spent before any incumbent was found.
    pub fn solve(&mut self) -> Result<MilpOutcome, SolveError> {
        let _span = ovnes_obs::span!("milp_solve");
        let threads = self.options.threads.max(1);
        let warm = self.options.warm_start;
        let root_basis = if warm { self.root_basis.take() } else { None };

        let base_bounds: HashMap<usize, (f64, f64)> = self
            .integers
            .iter()
            .map(|&v| (v.index(), self.problem.bounds(v)))
            .collect();

        let mut state = SearchState {
            queue: BTreeMap::new(),
            round: VecDeque::new(),
            round_nodes: HashMap::new(),
            claimed: HashSet::new(),
            results: HashMap::new(),
            inflight: 0,
            next_id: ROOT_ID + 1,
            applied: 0,
            truncated: false,
            cutoff: f64::INFINITY,
            best: None,
            root_basis: None,
            unbounded: false,
            error: None,
            lp_stats: LpStats::default(),
            done: false,
        };
        state.queue.insert(
            queue_key(f64::NEG_INFINITY, ROOT_ID),
            Node {
                id: ROOT_ID,
                bound: f64::NEG_INFINITY,
                path: Vec::new(),
                basis: root_basis,
            },
        );

        let shared = Shared {
            state: Mutex::new(state),
            cv: Condvar::new(),
            incumbent_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        };
        let ctx = Ctx {
            shared: &shared,
            problem: &self.problem,
            integers: &self.integers,
            options: &self.options,
            base_bounds,
            deadline: self
                .options
                .wall_limit
                .map(|limit| std::time::Instant::now() + limit),
        };

        if threads == 1 {
            // Serial: same code path, no thread overhead — by construction
            // identical to any multi-worker run.
            Self::worker(&ctx);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        Self::worker(&ctx);
                        // Scoped joins can outrun TLS destructors; flush
                        // span buffers so a drain right after the solve
                        // sees every worker's nodes.
                        if ovnes_obs::enabled() {
                            ovnes_obs::trace::flush_thread();
                        }
                    });
                }
            });
        }

        let state = shared.state.into_inner().expect("no worker panicked");
        self.last_lp_stats = state.lp_stats;
        if warm {
            self.root_basis = state.root_basis;
        }
        if let Some(e) = state.error {
            return Err(e);
        }
        if state.unbounded {
            return Ok(MilpOutcome::Unbounded);
        }
        match state.best {
            Some((objective, x, _id)) => Ok(MilpOutcome::Optimal(MilpSolution {
                objective,
                x,
                nodes: state.applied,
                truncated: state.truncated,
                lp_stats: state.lp_stats,
            })),
            // A budget stopped the search before any incumbent: the open
            // nodes may still hold one, so this is not a proof of
            // infeasibility.
            None if state.truncated => Err(SolveError::IterationLimit),
            None => Ok(MilpOutcome::Infeasible),
        }
    }

    /// One worker: repeatedly apply ready results in canonical order, then
    /// solve the best claimable node speculatively; park on the condvar
    /// when neither is possible.
    fn worker(ctx: &Ctx<'_>) {
        let mut local = ctx.problem.clone();
        let mut ws = Workspace::new();
        let mut guard = ctx.shared.state.lock().expect("search mutex");
        loop {
            Self::drain(ctx, &mut guard);
            if guard.done {
                ctx.shared.cv.notify_all();
                return;
            }
            if let Some(work) = Self::claim(&mut guard) {
                guard.inflight += 1;
                drop(guard);
                // Lock-free incumbent re-check before the expensive solve:
                // an incumbent applied since this node was claimed may
                // already dominate it. Skipping is always safe — the cutoff
                // only decreases, so drain will discard the node at the
                // round front without ever needing its result, and claim
                // will not hand it out again.
                let cutoff = f64::from_bits(ctx.shared.incumbent_bits.load(Ordering::Relaxed));
                let result = (work.bound < cutoff - ABS_GAP)
                    .then(|| Self::solve_node(ctx, &mut local, &mut ws, &work));
                guard = ctx.shared.state.lock().expect("search mutex");
                guard.inflight -= 1;
                guard.claimed.remove(&work.id);
                // A result for a node pruned mid-solve is dead — drop it.
                if let Some(result) = result {
                    if guard.round_nodes.contains_key(&work.id) {
                        guard.results.insert(work.id, result);
                    }
                }
                ctx.shared.cv.notify_all();
            } else {
                guard = ctx.shared.cv.wait(guard).expect("search mutex");
            }
        }
    }

    /// Applies ready results in canonical round order (forming the next
    /// round whenever the current one has drained), pruning as it goes.
    /// This is the *only* place search decisions are made, and it runs
    /// under the lock in a deterministic sequence — the heart of the
    /// any-worker-count determinism guarantee.
    fn drain(ctx: &Ctx<'_>, st: &mut SearchState) {
        loop {
            if st.error.is_some() || st.unbounded {
                st.queue.clear();
                st.round.clear();
                st.round_nodes.clear();
                st.results.clear();
            }
            let Some(&id) = st.round.front() else {
                // Round drained: form the next one from the queue front,
                // skipping (discarding) nodes already prunable. Membership
                // (including the adaptive width, a function of the
                // round-start queue depth alone) depends only on the search
                // state — never on workers.
                let width = match ctx.options.round_width {
                    Some(w) => w.max(1),
                    None => adaptive_round_width(st.queue.len()),
                };
                // Round barrier: telemetry only (counters and a
                // high-water gauge — no wall clock, no search effect).
                if ovnes_obs::enabled() && !st.queue.is_empty() {
                    ovnes_obs::metrics::global_counter_add("milp.rounds", 1);
                    ovnes_obs::metrics::global_gauge_max("milp.queue_depth", st.queue.len() as f64);
                }
                while st.round.len() < width {
                    let Some((&key, front)) = st.queue.first_key_value() else {
                        break;
                    };
                    if front.bound >= st.cutoff - ABS_GAP {
                        st.queue.remove(&key);
                        continue;
                    }
                    let node = st.queue.remove(&key).expect("queue front");
                    st.round.push_back(node.id);
                    st.round_nodes.insert(node.id, node);
                }
                if st.round.is_empty() {
                    if st.inflight == 0 {
                        st.done = true;
                    }
                    return;
                }
                continue;
            };
            // Prune on the parent bound: an incumbent found earlier in this
            // round may have overtaken the node since it was selected.
            // Checked before the node budget so a tree that is effectively
            // exhausted (every remaining node dominated) is never spuriously
            // reported as truncated.
            let node_bound = st.round_nodes[&id].bound;
            if node_bound >= st.cutoff - ABS_GAP {
                st.round.pop_front();
                st.round_nodes.remove(&id);
                st.results.remove(&id);
                continue;
            }
            // Node budget: the canonical order would apply this node next.
            // The wall-clock deadline shares the truncation path (checked
            // here, at a canonical application point, so the partial tree
            // is still internally consistent — but *which* prefix was
            // explored depends on the machine; see
            // [`MilpOptions::wall_limit`]).
            if st.applied >= ctx.options.max_nodes
                || ctx.deadline.is_some_and(|d| std::time::Instant::now() >= d)
            {
                st.truncated = true;
                st.queue.clear();
                st.round.clear();
                st.round_nodes.clear();
                st.results.clear();
                continue;
            }
            // The round front must be applied next; stall until some worker
            // delivers its relaxation (the rest of the round keeps solving
            // in parallel meanwhile).
            let Some(result) = st.results.remove(&id) else {
                return;
            };
            st.round.pop_front();
            let node = st.round_nodes.remove(&id).expect("round member");
            st.applied += 1;
            match result {
                Err(e) => st.error = Some(e),
                Ok(solved) => Self::apply(ctx, st, node, solved),
            }
        }
    }

    /// Applies one node's LP result: incumbent update or branching.
    fn apply(ctx: &Ctx<'_>, st: &mut SearchState, node: Node, solved: WarmSolve) {
        st.lp_stats.absorb(&solved.stats);
        let warm = ctx.options.warm_start;
        if node.id == ROOT_ID && warm {
            // Keep the root basis for the next solve() of this Milp (valid
            // as long as only rows are appended in between).
            st.root_basis = Some(solved.basis.clone());
        }
        let sol = match solved.outcome {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Infeasible(_) => return,
            LpOutcome::Unbounded => {
                if node.id == ROOT_ID {
                    st.unbounded = true;
                }
                // A node of a bounded root cannot be unbounded; prune
                // defensively.
                return;
            }
        };
        if sol.objective >= st.cutoff - ABS_GAP {
            return; // bound: cannot beat the incumbent
        }

        // Find the most fractional integer variable.
        let mut branch: Option<(VarId, f64)> = None;
        let mut best_frac_dist = INT_EPS;
        for &v in ctx.integers {
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
                // the tree alone, never of worker scheduling.
                let mut x = sol.x;
                for &v in ctx.integers {
                    x[v.index()] = x[v.index()].round();
                }
                st.cutoff = sol.objective;
                ctx.shared
                    .incumbent_bits
                    .store(sol.objective.to_bits(), Ordering::Relaxed);
                st.best = Some((sol.objective, x, node.id));
            }
            Some((v, val)) => {
                // Effective bounds of the branch variable at this node.
                let (lb, ub) = node
                    .path
                    .iter()
                    .rev()
                    .find(|&&(pv, _, _)| pv == v)
                    .map(|&(_, l, u)| (l, u))
                    .unwrap_or_else(|| ctx.base_bounds[&v.index()]);
                let down = (lb, val.floor().min(ub));
                let up = (val.ceil().max(lb), ub);
                // Push the nearer side first: it gets the smaller id, and
                // the queue breaks bound ties toward smaller ids, so the
                // nearer integer side is explored first.
                let near_down = val - val.floor() <= 0.5;
                let ordered = if near_down { [down, up] } else { [up, down] };
                let parent = warm.then_some(solved.basis);
                for (clb, cub) in ordered {
                    if clb > cub {
                        continue; // empty domain: prune without an LP solve
                    }
                    let id = st.next_id;
                    st.next_id += 1;
                    let mut path = node.path.clone();
                    path.push((v, clb, cub));
                    st.queue.insert(
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

    /// Picks the next solvable node of the active round: not already
    /// claimed or solved, and not prunable under the current incumbent —
    /// solving a node an incumbent already dominates is pure waste, and
    /// skipping it here cannot change the outcome because the
    /// authoritative prune happens again at application.
    fn claim(st: &mut SearchState) -> Option<WorkItem> {
        let cutoff = st.cutoff;
        for i in 0..st.round.len() {
            let id = st.round[i];
            if st.claimed.contains(&id) || st.results.contains_key(&id) {
                continue;
            }
            let node = st.round_nodes.get_mut(&id).expect("round member");
            if node.bound >= cutoff - ABS_GAP {
                continue; // will be discarded once it reaches the front
            }
            st.claimed.insert(id);
            return Some(WorkItem {
                id,
                bound: node.bound,
                path: node.path.clone(),
                // The basis is only needed for this solve; taking it (rather
                // than cloning) keeps window memory flat.
                basis: node.basis.take(),
            });
        }
        None
    }

    /// Solves one node's relaxation on the worker's private problem clone
    /// and workspace: apply the path's bound overrides, solve warm from the
    /// parent basis, restore the root bounds.
    fn solve_node(
        ctx: &Ctx<'_>,
        local: &mut Problem,
        ws: &mut Workspace,
        work: &WorkItem,
    ) -> Result<WarmSolve, SolveError> {
        let _span = ovnes_obs::span!("milp_node", depth = work.path.len() as i64);
        for &(v, lb, ub) in &work.path {
            local.set_bounds(v, lb, ub);
        }
        let result = local.solve_warm_in(work.basis.as_ref(), &ctx.options.simplex, ws);
        for &(v, _, _) in &work.path {
            let (lb, ub) = ctx.base_bounds[&v.index()];
            local.set_bounds(v, lb, ub);
        }
        result
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
