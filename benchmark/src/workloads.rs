//! The four horizon workloads.
//!
//! Every spec is written out here through `ScenarioSpec::builder` and a
//! fully spelled `WorkloadSpec`, not taken from `ovnes_scenario::presets`
//! or `WorkloadSpec::default()`: editing a preset cannot move the
//! benchmark. All four run on the N1 (Romanian) topology, topology seed
//! 18, `k_paths` 4, hourly epochs, one worker thread, round width 8.
//!
//! `--seed` is `ScenarioSpec.seed`: the traffic every admitted slice
//! offers in every monitoring sample, and through the forecasts all that
//! the orchestrator decides from it. The request stream and the fault
//! schedule are fixed inputs of a workload, like its topology, under
//! [`ARRIVAL_SEED`] and `FAULT_SEED`: see `README.md`, "Seeds".

use ovnes::slice::SliceClass;
use ovnes::solver::{SolveBudget, SolverKind};
use ovnes_scenario::{
    ArrivalProcess, BurstEvent, ClassMix, DiurnalProfile, DurationModel, FaultPlan,
    ScenarioBuilder, ScenarioSpec, TenantPopulation, WorkloadSpec,
};
use ovnes_topology::operators::Operator;

/// Seed of every workload's request stream, whatever `--seed` is. Over
/// ten seeds of the stream the horizons differ as ten workloads would: on
/// `churn_kac_10x` `net_revenue` by 11 % (interquartile range over median)
/// and wall-clock by 15 %, and `steady_forecast` admits 3 to 8 tenants. No
/// regression bound holds across that, so the harness generates each
/// stream under this seed and hands `run_scenario` the explicit list.
pub const ARRIVAL_SEED: u64 = 1;

/// Seed of `faulty_warm`'s fault schedule (the issue's `seed ^ 991` at seed
/// 1): ten schedules hold 56 to 90 events and move `sla_met_ratio` by four
/// times its bound.
const FAULT_SEED: u64 = 1 ^ 991;

/// One benchmark workload: its name and the scenario it runs under
/// `--seed`, its request stream still to be generated.
pub struct Workload {
    pub name: &'static str,
    pub spec: fn(u64) -> ScenarioSpec,
}

/// The workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "churn_kac_10x",
        spec: churn_kac_10x,
    },
    Workload {
        name: "steady_forecast",
        spec: steady_forecast,
    },
    Workload {
        name: "budgeted_benders",
        spec: budgeted_benders,
    },
    Workload {
        name: "faulty_warm",
        spec: faulty_warm,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The request-stream recipe the churn workloads tune: diurnal arrivals,
/// an even class mix, geometric lifetimes, a churning tenant population.
fn base_workload() -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate: 2.0 },
        diurnal: Some(DiurnalProfile {
            amplitude: 0.5,
            period_epochs: 24,
            peak_epoch: 14.0,
        }),
        mix: ClassMix {
            urllc: 1.0,
            mmtc: 1.0,
            embb: 1.0,
        },
        duration: DurationModel {
            mean_epochs: 12.0,
            max_epochs: 96,
        },
        population: TenantPopulation {
            size: 16,
            churn_per_epoch: 0.02,
            alpha: (0.15, 0.45),
            sigma_frac: (0.1, 0.5),
            penalty_factor: 1.0,
        },
        bursts: Vec::new(),
        traffic_diurnal: Some((0.3, 288)),
    }
}

/// What all four share; every builder knob that has a default is pinned.
fn base(name: &str, scale: f64, horizon: usize, seed: u64) -> ScenarioBuilder {
    ScenarioSpec::builder(name)
        .operator(Operator::Romanian, scale)
        .workload(base_workload())
        .horizon(horizon)
        .overbooking(true)
        .adaptive_reservations(true)
        .threads(1)
        .round_width(8)
        .budget(SolveBudget::default())
        .seed(seed)
}

/// The 10x city (50 BS) under Poisson-3 churn, KAC from scratch each
/// epoch: the admission solve, mostly slave-LP set-up rather than pivots,
/// does most of the work.
fn churn_kac_10x(seed: u64) -> ScenarioSpec {
    base("churn_kac_10x", 0.25, 200, seed)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 3.0 };
            w.duration.mean_epochs = 10.0;
            w.population.alpha = (0.15, 0.3);
            w.population.sigma_frac = (0.0, 0.5);
        })
        .reapply_epochs(6)
        .solver(SolverKind::Kac)
        .incremental(false)
        .build()
}

/// Horizon of `steady_forecast`; its opening slices outlive it.
const STEADY_EPOCHS: usize = 384;

/// Six opening waves, then no arrival and no departure for 16 days:
/// `predict_next` refitting ever-longer histories is nearly all of wall,
/// and the solver is bypassed. At `extra_rate` 1 the waves bring five
/// requests of which four fit under every traffic seed; at the preset's
/// 1.5 a marginal one is admitted or not depending on the first samples.
fn steady_forecast(seed: u64) -> ScenarioSpec {
    base("steady_forecast", 0.025, STEADY_EPOCHS, seed)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.0 };
            // One wave per epoch with a distinct (class, alpha): identical
            // requests would build exchangeable LP columns the carry
            // cannot certify.
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
                extra_rate: 1.0,
                class,
                alpha,
                slice_epochs: STEADY_EPOCHS as u32,
            })
            .collect();
        })
        .reapply_epochs(2)
        .solver(SolverKind::Kac)
        .incremental(true)
        .build()
}

/// The exact path: B&B nodes and the simplex kernels dominate and KAC's
/// slave-LP set-up is bypassed. Poisson 2 with mean lifetime 8 is the
/// heaviest load whose latency tail repeats: from Poisson 2.5 a few
/// budget-capped epochs of 100 to 300 ms appear, and which epochs they are
/// depends on the traffic seed (p95 33 to 74 ms over six seeds).
fn budgeted_benders(seed: u64) -> ScenarioSpec {
    base("budgeted_benders", 0.1, 300, seed)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 2.0 };
            w.mix = ClassMix {
                urllc: 0.4,
                mmtc: 0.3,
                embb: 0.3,
            };
            w.duration.mean_epochs = 8.0;
        })
        .reapply_epochs(6)
        .solver(SolverKind::Benders)
        // Count-only caps bound the work per epoch deterministically. One
        // epoch in five hits the node cap, so the heavy epochs form a
        // plateau the p95 sits on, and the B&B frontier a stable peak RSS:
        // 6.3 to 6.6 MB, against 5.7 to 8.2 MB over eight seeds at 1024 nodes.
        .budget(SolveBudget {
            max_pivots: Some(400_000),
            max_nodes: Some(64),
            max_rounds: Some(8),
            wall_limit: None,
        })
        .incremental(false)
        .build()
}

/// Horizon of `faulty_warm`, the period of its arrival waves and the
/// lifetime of their slices.
const WAVE_EPOCHS: usize = 320;
const WAVE_PERIOD: u32 = 8;
const WAVE_SLICE_EPOCHS: u32 = 40;

/// Waves of arrivals on the persistent `EpochSolver` under background BS,
/// link and CU faults: between waves nothing churns, so carried bases stand
/// until an infra event invalidates them, and it is the only workload with
/// revalidation traffic. Every slice lives five periods, so departures
/// fall on wave epochs too and from epoch 40 the population is stationary.
/// The waves are light enough that the same requests are admitted whatever
/// the traffic seed (48 of 65, or 49) and only faults evict; under Poisson
/// 0.4 arrivals of mean lifetime 32 one or two long-lived tenants carried
/// the horizon, and over ten seeds the p95 spread by 18 % and revenue by
/// 2.6 %.
fn faulty_warm(seed: u64) -> ScenarioSpec {
    base("faulty_warm", 0.1, WAVE_EPOCHS, seed)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.0 };
            w.population.alpha = (0.15, 0.3);
            let classes = [SliceClass::Embb, SliceClass::Mmtc, SliceClass::Urllc];
            let alphas = [0.17, 0.29, 0.22, 0.26, 0.19];
            w.bursts = (0..WAVE_EPOCHS / WAVE_PERIOD as usize)
                .map(|k| BurstEvent {
                    start_epoch: k as u32 * WAVE_PERIOD,
                    duration_epochs: 1,
                    extra_rate: 2.0,
                    class: classes[k % 3],
                    alpha: alphas[k % 5],
                    slice_epochs: WAVE_SLICE_EPOCHS,
                })
                .collect();
        })
        .reapply_epochs(2)
        .solver(SolverKind::Kac)
        .incremental(true)
        .faults(FaultPlan {
            seed: FAULT_SEED,
            start_epoch: 2,
            end_epoch: u32::MAX,
            bs_outage_rate: 0.05,
            outage_epochs: (2, 6),
            link_degradation_rate: 0.05,
            link_factor: (0.2, 0.6),
            link_epochs: (2, 8),
            cu_loss_rate: 0.02,
            cu_factor: (0.3, 0.7),
            cu_epochs: (2, 8),
            scripted: Vec::new(),
            lp_fault_seed: None,
        })
        .build()
}
