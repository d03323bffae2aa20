//! The §5 experimental proof-of-concept as a simulated testbed (Fig. 8).
//!
//! Hardware of Table 2, reproduced as netsim resources:
//!
//! * 2 × 20 MHz base stations (100 PRBs each, RAN sharing),
//! * an OpenFlow switch with 1 Gb/s Ethernet links,
//! * an edge CU with 16 CPU cores,
//! * a core CU with 64 CPU cores behind an emulated high-latency link.
//!
//! One deviation: the paper's testbed emulates
//! 30 ms to the core CU while its own slice templates allow at most 30 ms
//! end-to-end — a boundary that path delays push over. We use the 20 ms
//! value from the paper's simulations so mMTC/eMBB remain core-eligible,
//! which Fig. 8(d) shows they were.
//!
//! The scenario: 9 slice requests, one every 2 epochs (1 epoch = 1 h, 12
//! monitoring samples of 5 min): uRLLC ×3, then mMTC ×3, then eMBB ×3.
//! Every slice offers `λ̄ = Λ/2` with `σ = 0.1·λ̄` and `K = R` (m = 1).

use crate::orchestrator::{EpochOutcome, Orchestrator, OrchestratorConfig};
use crate::slice::{SliceClass, SliceRequest, SliceTemplate};
use crate::solver::{AcrrError, SolverKind};
use ovnes_topology::graph::{Graph, LinkTech};
use ovnes_topology::ksp::KShortest;
use ovnes_topology::operators::{BaseStation, ComputeUnit, CuKind, NetworkModel, Operator};
use std::ops::ControlFlow;

/// Number of decision epochs in the experiment (06:00–24:00).
pub const TESTBED_EPOCHS: usize = 18;

/// Builds the testbed data plane of Fig. 7 / Table 2.
pub fn testbed_model() -> NetworkModel {
    let mut g = Graph::new();
    let bs0 = g.add_node(-0.05, 0.0);
    let bs1 = g.add_node(0.05, 0.0);
    let sw = g.add_node(0.0, 0.01);
    let edge = g.add_node(0.0, 0.02);
    let core = g.add_node(0.0, 0.03);
    // 1 Gb/s Ethernet everywhere; lab-scale distances.
    g.add_link(bs0, sw, 1_000.0, LinkTech::Copper);
    g.add_link(bs1, sw, 1_000.0, LinkTech::Copper);
    g.add_link(sw, edge, 1_000.0, LinkTech::Copper);
    // Emulated high-latency backhaul to the core CU (see module docs).
    g.add_link_with(sw, core, 1_000.0, 0.0, LinkTech::Virtual, 20_000.0);

    let base_stations = vec![
        BaseStation {
            node: bs0,
            capacity_mhz: 20.0,
        },
        BaseStation {
            node: bs1,
            capacity_mhz: 20.0,
        },
    ];
    let compute_units = vec![
        ComputeUnit {
            node: edge,
            cores: 16.0,
            kind: CuKind::Edge,
        },
        ComputeUnit {
            node: core,
            cores: 64.0,
            kind: CuKind::Core,
        },
    ];
    let mut toward_cu: Vec<KShortest> = compute_units
        .iter()
        .map(|cu| KShortest::new(&g, cu.node))
        .collect();
    let paths = base_stations
        .iter()
        .map(|bs| {
            toward_cu
                .iter_mut()
                .map(|search| search.paths_from(bs.node, 4))
                .collect()
        })
        .collect();
    NetworkModel {
        operator: Operator::Romanian, // placeholder tag; not used by solvers
        graph: g,
        base_stations,
        compute_units,
        paths,
    }
}

/// The 9 testbed slice requests: arrival every 2 epochs, uRLLC → mMTC →
/// eMBB, `λ̄ = Λ/2`, `σ = 0.1·λ̄`, `K = R`.
pub fn testbed_requests() -> Vec<SliceRequest> {
    let classes = [
        SliceClass::Urllc,
        SliceClass::Urllc,
        SliceClass::Urllc,
        SliceClass::Mmtc,
        SliceClass::Mmtc,
        SliceClass::Mmtc,
        SliceClass::Embb,
        SliceClass::Embb,
        SliceClass::Embb,
    ];
    classes
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let template = SliceTemplate::for_class(class);
            let mean = template.sla_mbps / 2.0;
            let mut r = SliceRequest::from_template(i as u32, template, 0.5, 0.1 * mean, 1.0);
            // The testbed fixes σ = 0.1·λ̄ for every slice, overriding the
            // template's deterministic mMTC.
            r.true_sigma_mbps = 0.1 * mean;
            r.arrival_epoch = (i * 2) as u32;
            r
        })
        .collect()
}

/// Runs the testbed day through [`Orchestrator::run`]; returns one
/// [`EpochOutcome`] per hour-epoch.
pub fn run_testbed(
    solver: SolverKind,
    overbooking: bool,
    seed: u64,
) -> Result<Vec<EpochOutcome>, AcrrError> {
    let config = OrchestratorConfig {
        solver,
        overbooking,
        samples_per_epoch: 12, // 12 × 5 min = 1 h epochs
        // Fig. 8 plots *adaptive* reservations tracking the tenant load
        // (§2.1.3), so the testbed enforces the forecast-floor reservations.
        adaptive_reservations: true,
        seed,
        ..Default::default()
    };
    let mut outcomes = Vec::with_capacity(TESTBED_EPOCHS);
    Orchestrator::new(testbed_model(), config).run(testbed_requests(), TESTBED_EPOCHS, |out| {
        outcomes.push(out.clone());
        ControlFlow::Continue(())
    })?;
    Ok(outcomes)
}

/// Formats an epoch index as the paper's time-of-day axis (06:00 start).
pub fn epoch_to_time(epoch: u32) -> String {
    format!("{:02}:00", 6 + epoch)
}
