//! Named scenario presets — the library of workloads every experiment,
//! test, and CI smoke leg draws from.
//!
//! Presets default to **harness scale** (a few percent of the paper's
//! topology size) so sweeps run in seconds; the DESIGN note maps each one
//! to the full-scale Figs. 5–6 setup it reproduces (pass `scale = 1.0`
//! through the builder to run the paper-size instance).

use crate::driver::{build_model, ScenarioSpec, Workload};
use crate::faults::FaultPlan;
use crate::workload::{ArrivalProcess, BurstEvent, ClassMix, DiurnalProfile};
use ovnes::orchestrator::{InfraEvent, InfraEventKind};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::{SolveBudget, SolverKind};
use ovnes::testbed;
use ovnes_topology::operators::{CuKind, Operator};

/// Every preset name [`preset`] resolves.
pub const PRESET_NAMES: [&str; 16] = [
    "testbed-day",
    "fig5-n1",
    "fig5-n2",
    "fig5-n3",
    "fig6-mix-n1",
    "flash-crowd-stadium",
    "load-10x",
    "overbook-n1-on",
    "overbook-n1-off",
    "chaos-outage-n1",
    "chaos-budget-n1",
    "chaos-lpfault-n1",
    "incremental-n1",
    "chaos-incremental-n1",
    "incremental-steady-n1",
    "incremental-degenerate-n1",
];

/// Resolves a named preset.
pub fn preset(name: &str) -> Option<ScenarioSpec> {
    Some(match name {
        "testbed-day" => testbed_day(),
        "fig5-n1" => fig5(Operator::Romanian),
        "fig5-n2" => fig5(Operator::Swiss),
        "fig5-n3" => fig5(Operator::Italian),
        "fig6-mix-n1" => fig6_mix(Operator::Romanian),
        "flash-crowd-stadium" => flash_crowd_stadium(),
        "load-10x" => load_10x(),
        "overbook-n1-on" => overbooking_ablation(true),
        "overbook-n1-off" => overbooking_ablation(false),
        "chaos-outage-n1" => chaos_outage(),
        "chaos-budget-n1" => chaos_budget(),
        "chaos-lpfault-n1" => chaos_lpfault(),
        "incremental-n1" => incremental_n1(),
        "chaos-incremental-n1" => chaos_incremental(),
        "incremental-steady-n1" => incremental_steady(),
        "incremental-degenerate-n1" => incremental_degenerate(),
        _ => return None,
    })
}

/// The §5 testbed day (Fig. 8): the hand-written 9-request schedule on the
/// two-BS testbed data plane, solved optimally. Rejected tenants re-apply
/// every epoch, as in `ovnes::testbed::run_testbed`, so the preset is that
/// day.
pub fn testbed_day() -> ScenarioSpec {
    ScenarioSpec::builder("testbed-day")
        .testbed()
        .requests(testbed::testbed_requests())
        .horizon(testbed::TESTBED_EPOCHS)
        .solver(SolverKind::Benders)
        .reapply_epochs(u32::MAX)
        .build()
}

/// Fig. 5-style long-horizon run on one operator: a homogeneous-ish
/// population around the paper's `λ̄ = 0.2Λ` working point with σ up to
/// λ̄/2 and `K = R`, continuous arrivals/departures, diurnal request
/// activity.
pub fn fig5(operator: Operator) -> ScenarioSpec {
    // Distinct seeds per operator: the paper's campaigns are independent
    // runs, and at harness scale N1/N2 share BS counts and radio capacity
    // — a common seed would make their reports near-identical.
    let (tag, seed) = match operator {
        Operator::Romanian => ("fig5-n1", 21),
        Operator::Swiss => ("fig5-n2", 31),
        Operator::Italian => ("fig5-n3", 41),
    };
    ScenarioSpec::builder(tag)
        .operator(operator, 0.025)
        .days(2)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.5 };
            w.duration.mean_epochs = 10.0;
            w.population.alpha = (0.15, 0.3);
            w.population.sigma_frac = (0.0, 0.5);
        })
        .seed(seed)
        .build()
}

/// Fig. 6-style heterogeneous β-mix: compute-heavy mMTC share competing
/// with radio-bound eMBB at `λ̄ = 0.2Λ`.
pub fn fig6_mix(operator: Operator) -> ScenarioSpec {
    let tag = match operator {
        Operator::Romanian => "fig6-mix-n1",
        Operator::Swiss => "fig6-mix-n2",
        Operator::Italian => "fig6-mix-n3",
    };
    ScenarioSpec::builder(tag)
        .operator(operator, 0.025)
        .days(2)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.5 };
            w.mix = ClassMix {
                urllc: 0.0,
                mmtc: 0.5,
                embb: 0.5,
            };
            w.duration.mean_epochs = 10.0;
            w.population.alpha = (0.2, 0.2);
            w.population.sigma_frac = (0.25, 0.25);
        })
        .seed(22)
        .build()
}

/// A stadium flash crowd on the wireless-heavy Swiss network: diurnal
/// background load plus a 4-epoch surge of hot, short-lived eMBB slices.
pub fn flash_crowd_stadium() -> ScenarioSpec {
    ScenarioSpec::builder("flash-crowd-stadium")
        .operator(Operator::Swiss, 0.025)
        .days(2)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.0 };
            w.diurnal = Some(DiurnalProfile {
                amplitude: 0.7,
                period_epochs: 24,
                peak_epoch: 20.0,
            });
            w.duration.mean_epochs = 8.0;
            w.bursts = vec![BurstEvent {
                start_epoch: 30,
                duration_epochs: 4,
                extra_rate: 6.0,
                class: SliceClass::Embb,
                alpha: 0.7,
                slice_epochs: 3,
            }];
        })
        .seed(33)
        .build()
}

/// 10× the paper's offered load on N1: a Markov-modulated request flood
/// far past capacity, exercising rejection, patience, and churn. The
/// acceptance ratio — not the revenue — is the observable here.
pub fn load_10x() -> ScenarioSpec {
    ScenarioSpec::builder("load-10x")
        .operator(Operator::Romanian, 0.025)
        .horizon(30)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Mmpp {
                base_rate: 5.0,
                burst_rate: 15.0,
                p_enter_burst: 0.1,
                p_exit_burst: 0.4,
            };
            w.duration.mean_epochs = 6.0;
            w.population.size = 32;
            w.population.churn_per_epoch = 0.05;
            w.population.alpha = (0.2, 0.5);
        })
        .reapply_epochs(4)
        .seed(44)
        .build()
}

/// The overbooking on/off ablation on N1: *identical* topology, workload,
/// and seed — only the admission policy differs, so the report delta is
/// the pure value of overbooking (the paper's headline comparison).
pub fn overbooking_ablation(overbooking: bool) -> ScenarioSpec {
    ScenarioSpec::builder(if overbooking {
        "overbook-n1-on"
    } else {
        "overbook-n1-off"
    })
    .operator(Operator::Romanian, 0.025)
    .days(2)
    .tune_workload(|w| {
        w.arrivals = ArrivalProcess::Poisson { rate: 1.0 };
        w.duration.mean_epochs = 8.0;
        w.population.alpha = (0.15, 0.3);
    })
    .overbooking(overbooking)
    .seed(55)
    .build()
}

/// The outage storm on N1: random background faults *plus* a scripted
/// mid-horizon total collapse of every edge CU for eight epochs, under a
/// tight deterministic solve budget. uRLLC slices pinned to edge CUs
/// cannot re-home across the 20 ms edge↔core link, so the storm forces
/// evictions with SLA-break penalties; the starved Benders budget forces
/// degraded (incumbent / greedy / deferred) epochs. The chaos acceptance
/// scenario: a multi-day horizon that must complete with zero panics and a
/// worker-count-invariant fingerprint.
pub fn chaos_outage() -> ScenarioSpec {
    let base = ScenarioSpec::builder("chaos-outage-n1")
        .days(2)
        .solver(SolverKind::Benders)
        .budget(SolveBudget {
            max_pivots: Some(20_000),
            max_nodes: Some(64),
            max_rounds: Some(2),
            wall_limit: None,
        })
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.5 };
            w.mix = ClassMix {
                urllc: 0.6,
                mmtc: 0.2,
                embb: 0.2,
            };
            w.duration.mean_epochs = 12.0;
            w.population.alpha = (0.15, 0.3);
        })
        .reapply_epochs(6)
        .seed(66)
        .build();
    // The storm targets the model's *edge* CUs — resolve their indices
    // from the same deterministic topology the run will build. The total
    // loss is re-asserted every other epoch through the window so newly
    // admitted edge slices keep hitting it, then repaired at 20.
    let model = build_model(&base);
    let mut scripted = Vec::new();
    for (cu, unit) in model.compute_units.iter().enumerate() {
        if unit.kind == CuKind::Edge {
            for epoch in [12, 14, 16, 18] {
                scripted.push(InfraEvent {
                    epoch,
                    kind: InfraEventKind::CuCapacityLoss { cu, factor: 0.0 },
                });
            }
            scripted.push(InfraEvent {
                epoch: 20,
                kind: InfraEventKind::CuCapacityLoss { cu, factor: 1.0 },
            });
        }
    }
    let plan = FaultPlan {
        seed: 661,
        // Background CU chaos off: a random CU event inside the scripted
        // window would silently "repair" the blackout.
        cu_loss_rate: 0.0,
        scripted,
        ..FaultPlan::default()
    };
    ScenarioSpec {
        faults: Some(plan),
        ..base
    }
}

/// A starved solve budget on an otherwise healthy N1 run: no
/// infrastructure faults, but every epoch's Benders solve is capped at one
/// round, a handful of B&B nodes and a few hundred pivots — most epochs
/// must take a degradation rung (incumbent → greedy → defer) and the
/// horizon must still complete deterministically.
pub fn chaos_budget() -> ScenarioSpec {
    ScenarioSpec::builder("chaos-budget-n1")
        .days(1)
        .solver(SolverKind::Benders)
        .budget(SolveBudget {
            max_pivots: Some(400),
            max_nodes: Some(8),
            max_rounds: Some(1),
            wall_limit: None,
        })
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.5 };
            w.duration.mean_epochs = 10.0;
            w.population.alpha = (0.15, 0.3);
        })
        .reapply_epochs(6)
        .seed(77)
        .build()
}

/// Seeded LP warm-path fault injection on a Benders run: warm bases and
/// persisted factorizations are dropped / corrupted pseudo-randomly
/// (`ovnes_lp::FaultConfig::chaos`), exercising the simplex cold-restart
/// recovery paths. Injection decisions are pure functions of the seed and
/// per-solve fingerprints, so the report stays bit-identical at any
/// worker count. A modest round budget bounds the runtime.
pub fn chaos_lpfault() -> ScenarioSpec {
    let mut plan = FaultPlan::scripted_only(Vec::new());
    plan.lp_fault_seed = Some(4242);
    ScenarioSpec::builder("chaos-lpfault-n1")
        .operator(Operator::Romanian, 0.02)
        .days(1)
        .solver(SolverKind::Benders)
        .budget(SolveBudget {
            max_pivots: None,
            max_nodes: None,
            max_rounds: Some(6),
            wall_limit: None,
        })
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.2 };
            w.duration.mean_epochs = 8.0;
        })
        .reapply_epochs(6)
        .seed(88)
        .faults(plan)
        .build()
}

/// The cross-epoch carry workhorse on N1: a slow-churn KAC run — modest
/// arrivals, long-lived slices — where a good share of the epochs have
/// nothing to admit, the regime in which the carried slave chain
/// ([`solve_epoch`](ovnes::solver::solve_epoch)) resumes the previous
/// basis for a few warm dual pivots. Its decision fingerprint is pinned to
/// the from-scratch run's (`tests/incremental_identity.rs`).
pub fn incremental_n1() -> ScenarioSpec {
    ScenarioSpec::builder("incremental-n1")
        .operator(Operator::Romanian, 0.025)
        .days(2)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.8 };
            w.duration.mean_epochs = 16.0;
            w.population.alpha = (0.15, 0.3);
            w.population.sigma_frac = (0.0, 0.4);
        })
        .reapply_epochs(6)
        .seed(99)
        .build()
}

/// [`incremental_n1`] under chaos: background BS/link/CU faults move
/// capacities under carried bases and force revalidation epochs, and
/// seeded LP fault injection poisons carried bases — every such epoch must
/// degrade cleanly to a cold solve (never an error) while the decision
/// trail stays bit-identical to the from-scratch run's (pinned in
/// `tests/incremental_identity.rs`). Deliberately **unbudgeted**:
/// pivot-metered budgets would truncate carried and scratch solves at
/// different algorithmic points, making decision identity impossible by
/// design.
pub fn chaos_incremental() -> ScenarioSpec {
    let mut plan = FaultPlan {
        seed: 991,
        ..FaultPlan::default()
    };
    plan.lp_fault_seed = Some(5151);
    ScenarioSpec::builder("chaos-incremental-n1")
        .operator(Operator::Romanian, 0.025)
        .days(1)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.8 };
            w.duration.mean_epochs = 12.0;
            w.population.alpha = (0.15, 0.3);
        })
        .reapply_epochs(6)
        .seed(101)
        .faults(plan)
        .build()
}

/// The O(churn) showcase: an opening flash of long-lived slices (every
/// burst slice outlives the horizon), then **zero** arrivals and zero
/// departures for the rest of the run — after the settle window every
/// epoch is a pure no-churn revalidation of the same forced tenant set.
/// On those epochs the carried slave chain fits the new slave LP, its
/// held factorization is reused (zero refactorizations), and the
/// only simplex work is the handful of dual pivots that forecast drift
/// (an RHS-only perturbation) demands. `tests/incremental_identity.rs`
/// measures the steady window by running a settle-length prefix and
/// subtracting, against the from-scratch counts pinned there.
pub fn incremental_steady() -> ScenarioSpec {
    ScenarioSpec::builder("incremental-steady-n1")
        .operator(Operator::Romanian, 0.025)
        .horizon(64)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.0 };
            // One wave per epoch with a distinct (class, α): identical
            // requests would build exchangeable LP columns whose ties leave
            // the vetting optimum non-unique — uncertifiable, so the carry
            // would cold-restart every epoch instead of warm-starting.
            w.bursts = [
                (SliceClass::Embb, 0.31),
                (SliceClass::Mmtc, 0.17),
                (SliceClass::Urllc, 0.26),
                (SliceClass::Embb, 0.22),
                (SliceClass::Mmtc, 0.29),
                (SliceClass::Urllc, 0.19),
            ]
            .iter()
            .enumerate()
            .map(|(k, &(class, alpha))| BurstEvent {
                start_epoch: k as u32,
                duration_epochs: 1,
                extra_rate: 1.5,
                class,
                alpha,
                // Outlives the horizon: no slice ever departs.
                slice_epochs: 64,
            })
            .collect();
        })
        .reapply_epochs(2)
        .seed(202)
        .build()
}

/// The degenerate-optimum showcase: a homogeneous burst of **identical**
/// uRLLC slices (same class, same α, σ = 0 — deterministic traffic), all
/// pinned to the single delay-feasible edge CU, plus a scripted capacity
/// loss that shrinks that CU to within certificate tolerance (≈1e−9
/// relative slack, well inside the 1e−7 tightness test) of the steady
/// optimum's exact compute load. Every steady epoch then solves to the
/// same all-at-Λ vertex with the CU row *tight but slack-basic* (zero
/// multiplier): strict complementarity fails — under the old single
/// certificate the carry cold-restarted every epoch — while the
/// perturbation certificate pins every leg to its bound and lets the
/// carried basis stand. A mid-horizon flash of short-lived identical
/// requests overflows the shrunken CU's reservation floors: those churn
/// epochs solve from scratch, the binding-row ties they leave behind are
/// genuine alternative optima, which both certificates must keep
/// refusing, and once the wave has departed the carry resumes standing
/// on the steady set. `tests/incremental_identity.rs` pins its decision
/// fingerprint to the from-scratch run's at 1, 2 and 4 workers.
pub fn incremental_degenerate() -> ScenarioSpec {
    let base = ScenarioSpec::builder("incremental-degenerate-n1")
        .operator(Operator::Romanian, 0.025)
        .horizon(64)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.0 };
            // Flat deterministic traffic: σ = 0 and no diurnal swing, so
            // identical requests stay bit-identical LP columns for the
            // whole horizon.
            w.population.sigma_frac = (0.0, 0.0);
            w.traffic_diurnal = None;
            w.bursts = vec![
                // The incumbents: identical long-lived uRLLC slices whose
                // 5 ms budget pins them all to the edge CU.
                BurstEvent {
                    start_epoch: 0,
                    duration_epochs: 1,
                    extra_rate: 3.0,
                    class: SliceClass::Urllc,
                    alpha: 0.3,
                    slice_epochs: 64,
                },
                // The churn wave: identical short-lived requests that
                // (once past the operator prior) overflow the shrunken
                // CU's forecast floors and force shed iterations.
                BurstEvent {
                    start_epoch: 30,
                    duration_epochs: 1,
                    extra_rate: 10.0,
                    class: SliceClass::Urllc,
                    alpha: 0.3,
                    slice_epochs: 4,
                },
            ];
        })
        .reapply_epochs(6)
        .seed(303)
        .build();
    // Engineer the degeneracy: shrink the edge CU to (1 + 1e−9)× the
    // incumbents' exact full-SLA compute load. The margin keeps the
    // all-at-Λ vertex strictly feasible (the row never *binds*, so the
    // optimum stays the unique exact-bound vertex) while sitting far
    // inside the certificates' 1e−7 relative tightness tolerance.
    let model = build_model(&base);
    let incumbents = match &base.workload {
        Workload::Generated(w) => w
            .generate(base.seed, base.horizon_epochs)
            .iter()
            .filter(|r| r.duration_epochs as usize >= base.horizon_epochs)
            .count(),
        Workload::Explicit(_) => unreachable!("degenerate preset generates its workload"),
    };
    let urllc = SliceTemplate::urllc();
    let n_bs = model.base_stations.len() as f64;
    let full_load_cores = incumbents as f64 * n_bs * urllc.service.cores_per_mbps * urllc.sla_mbps;
    let (edge_cu, edge_cores) = model
        .compute_units
        .iter()
        .enumerate()
        .find(|(_, u)| u.kind == CuKind::Edge)
        .map(|(i, u)| (i, u.cores))
        .expect("generated topologies always carry an edge CU");
    let factor = full_load_cores * (1.0 + 1e-9) / edge_cores;
    assert!(
        factor < 1.0,
        "degenerate preset needs the incumbents to underfill the edge CU \
         (got {incumbents} incumbents, factor {factor})"
    );
    let plan = FaultPlan::scripted_only(vec![InfraEvent {
        epoch: 10,
        kind: InfraEventKind::CuCapacityLoss {
            cu: edge_cu,
            factor,
        },
    }]);
    ScenarioSpec {
        faults: Some(plan),
        ..base
    }
}

/// The chaos presets as one sweep (the CI chaos-smoke leg).
pub fn chaos_sweep() -> Vec<ScenarioSpec> {
    vec![
        chaos_outage(),
        chaos_budget(),
        chaos_lpfault(),
        chaos_incremental(),
    ]
}

/// A short CI-smoke preset per operator: one simulated half-day at tiny
/// scale, exercising the whole generate → orchestrate → aggregate path in
/// a few seconds.
pub fn smoke(operator: Operator) -> ScenarioSpec {
    let (tag, seed) = match operator {
        Operator::Romanian => ("smoke-n1", 11),
        Operator::Swiss => ("smoke-n2", 12),
        Operator::Italian => ("smoke-n3", 13),
    };
    ScenarioSpec::builder(tag)
        .operator(operator, 0.02)
        .horizon(12)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 1.5 };
            w.duration.mean_epochs = 6.0;
        })
        .reapply_epochs(4)
        .seed(seed)
        .build()
}

/// The default sweep: eight named scenarios covering all three operators,
/// the testbed day, a flash crowd, a 10× overload, and the overbooking
/// on/off ablation pair on N1.
pub fn default_sweep() -> Vec<ScenarioSpec> {
    vec![
        overbooking_ablation(true),
        overbooking_ablation(false),
        fig5(Operator::Swiss),
        fig5(Operator::Italian),
        fig6_mix(Operator::Romanian),
        flash_crowd_stadium(),
        load_10x(),
        testbed_day(),
    ]
}
