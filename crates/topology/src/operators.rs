//! Operator topology generators (paper Fig. 4) and the [`NetworkModel`]
//! consumed by the orchestrator.
//!
//! The paper's datasets are proprietary; these generators reproduce the
//! disclosed statistics:
//!
//! * **Romanian (N1)** — 198 BSs, mixed fiber/copper/wireless links, high
//!   path redundancy (paper mean 6.6 paths per BS–CU pair), distances within
//!   ~10 km, 20 MHz radio per BS.
//! * **Swiss (N2)** — 197 BSs, mostly wireless backhaul (low link capacity),
//!   moderate redundancy, 20 MHz radio.
//! * **Italian (N3)** — 1497 radio units clustered into 200 BSs of 80–100
//!   MHz, mostly fiber (high capacity), sparse tree-like backhaul (paper mean
//!   1.6 paths), distances up to 20 km.
//!
//! Every model gets an **edge CU** at the most central switch with `20·N`
//! CPU cores (enough for one mMTC tenant at full load, §4.3.1) and a **core
//! CU** five times larger behind a 20 ms virtual link of practically
//! unlimited bandwidth.

use crate::graph::{Graph, LinkTech, NodeId};
use crate::ksp::{KShortest, Path};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three operators of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// N1 — Romania: redundant mixed-technology metro network.
    Romanian,
    /// N2 — Switzerland: wireless-heavy backhaul.
    Swiss,
    /// N3 — Italy: fiber, clustered radio, sparse paths.
    Italian,
}

impl Operator {
    /// Short label used in harness output ("R1 (Romanian)" style of Fig. 4).
    pub fn label(self) -> &'static str {
        match self {
            Operator::Romanian => "Romanian",
            Operator::Swiss => "Swiss",
            Operator::Italian => "Italian",
        }
    }

    /// All operators, in paper order.
    pub fn all() -> [Operator; 3] {
        [Operator::Romanian, Operator::Swiss, Operator::Italian]
    }
}

/// Compute-unit role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CuKind {
    /// Edge cloud, co-located with the metro network.
    Edge,
    /// Core cloud behind a 20 ms link.
    Core,
}

/// A sliceable base station.
#[derive(Debug, Clone)]
pub struct BaseStation {
    /// Attachment node in the transport graph.
    pub node: NodeId,
    /// Radio capacity in MHz (the paper's `C_b`).
    pub capacity_mhz: f64,
}

/// A sliceable compute unit.
#[derive(Debug, Clone)]
pub struct ComputeUnit {
    /// Attachment node in the transport graph.
    pub node: NodeId,
    /// CPU-core pool (the paper's `C_c`).
    pub cores: f64,
    /// Edge or core role.
    pub kind: CuKind,
}

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Fraction of the full-size BS count to generate (1.0 = paper scale;
    /// the default is 0.15, and each harness binary takes `--scale`).
    pub scale: f64,
    /// RNG seed (topologies are fully deterministic given the seed).
    pub seed: u64,
    /// Maximum paths per (BS, CU) pair precomputed with Yen's algorithm.
    pub k_paths: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            scale: 0.15,
            seed: 18,
            k_paths: 8,
        }
    }
}

/// A complete data-plane model: transport graph, radio sites, compute units
/// and precomputed path sets `P_{b,c}`.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Which operator this models.
    pub operator: Operator,
    /// The transport network.
    pub graph: Graph,
    /// Radio sites (the paper's set `B`).
    pub base_stations: Vec<BaseStation>,
    /// Compute units (the paper's set `C`); index 0 is the edge CU.
    pub compute_units: Vec<ComputeUnit>,
    /// `paths[b][c]` — up to `k_paths` loopless paths from BS `b` to CU `c`,
    /// sorted by delay.
    pub paths: Vec<Vec<Vec<Path>>>,
}

impl NetworkModel {
    /// Generates the model for an operator.
    pub fn generate(operator: Operator, config: &GeneratorConfig) -> Self {
        let params = OperatorParams::for_operator(operator);
        build(operator, &params, config)
    }

    /// Mean number of precomputed paths per (BS, edge-CU) pair — the
    /// redundancy statistic quoted in §4.3.1.
    pub fn mean_paths_to_edge(&self) -> f64 {
        let total: usize = self.paths.iter().map(|per_cu| per_cu[0].len()).sum();
        total as f64 / self.base_stations.len() as f64
    }

    /// All BS→edge-CU paths (used for the Fig. 4 CDFs).
    pub(crate) fn edge_paths(&self) -> impl Iterator<Item = &Path> {
        self.paths.iter().flat_map(|per_cu| per_cu[0].iter())
    }
}

/// The §5 proof-of-concept testbed's data plane (Fig. 7 / Table 2): two
/// 20 MHz base stations (RAN sharing) behind an OpenFlow switch with
/// 1 Gb/s Ethernet links, an edge CU with 16 CPU cores, and a core CU with
/// 64 cores behind an emulated high-latency link. The paper emulates 30 ms
/// there, but its slice templates allow at most 30 ms end-to-end, which
/// path delays push over; the link carries the 20 ms of the paper's
/// simulations instead, so mMTC/eMBB stay core-eligible, as Fig. 8(d)
/// shows they were.
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
    // Emulated high-latency backhaul to the core CU (see above).
    g.add_link_with(sw, core, 1_000.0, 0.0, LinkTech::Virtual, 20_000.0);

    let base_stations = [bs0, bs1]
        .map(|node| BaseStation {
            node,
            capacity_mhz: 20.0, // 100 PRBs
        })
        .to_vec();
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
    // The operator is a placeholder tag; no solver reads it.
    with_paths(Operator::Romanian, g, base_stations, compute_units, 4)
}

/// Per-operator generator parameters.
struct OperatorParams {
    base_bs: usize,
    radius_km: f64,
    bs_per_switch: usize,
    /// Uplinks per BS (path diversity driver).
    bs_uplinks: usize,
    /// Nearest-neighbour degree of the switch backbone.
    sw_degree: usize,
    /// Extra random chords as a fraction of switch count.
    chord_frac: f64,
    /// (fiber, copper) cumulative probabilities; remainder is wireless.
    tech_mix: (f64, f64),
    /// Radio capacity range, MHz.
    radio_mhz: (f64, f64),
}

impl OperatorParams {
    fn for_operator(op: Operator) -> Self {
        match op {
            Operator::Romanian => OperatorParams {
                base_bs: 198,
                radius_km: 10.0,
                bs_per_switch: 4,
                bs_uplinks: 2,
                sw_degree: 3,
                chord_frac: 0.5,
                tech_mix: (0.4, 0.7), // 40% fiber, 30% copper, 30% wireless
                radio_mhz: (20.0, 20.0),
            },
            Operator::Swiss => OperatorParams {
                base_bs: 197,
                radius_km: 8.0,
                bs_per_switch: 5,
                bs_uplinks: 2,
                sw_degree: 2,
                chord_frac: 0.15,
                tech_mix: (0.15, 0.2), // 15% fiber, 5% copper, 80% wireless
                radio_mhz: (20.0, 20.0),
            },
            Operator::Italian => OperatorParams {
                base_bs: 200, // 1497 radio units clustered into 200 groups
                radius_km: 20.0,
                bs_per_switch: 6,
                bs_uplinks: 1,
                sw_degree: 1,          // tree backbone
                chord_frac: 0.35,      // a few chords: paper mean 1.6 paths
                tech_mix: (0.9, 0.92), // 90% fiber
                radio_mhz: (80.0, 100.0),
            },
        }
    }
}

fn capacity_for(tech: LinkTech, rng: &mut StdRng) -> f64 {
    // Paper: link capacities range from 2 to 200 Gb/s across technologies.
    match tech {
        LinkTech::Fiber => rng.gen_range(20_000.0..200_000.0),
        LinkTech::Copper => rng.gen_range(2_000.0..10_000.0),
        LinkTech::Wireless => rng.gen_range(2_000.0..20_000.0),
        LinkTech::Virtual => 1e9,
    }
}

fn pick_tech(mix: (f64, f64), rng: &mut StdRng) -> LinkTech {
    let u: f64 = rng.gen_range(0.0..1.0);
    if u < mix.0 {
        LinkTech::Fiber
    } else if u < mix.1 {
        LinkTech::Copper
    } else {
        LinkTech::Wireless
    }
}

fn build(operator: Operator, p: &OperatorParams, config: &GeneratorConfig) -> NetworkModel {
    assert!(
        config.scale > 0.0 && config.scale <= 1.0,
        "scale must be in (0, 1]"
    );
    assert!(config.k_paths >= 1, "need at least one path per pair");
    let mut rng = StdRng::seed_from_u64(config.seed ^ (operator as u64) << 32);

    let n_bs = ((p.base_bs as f64 * config.scale).round() as usize).max(4);
    let n_sw = (n_bs / p.bs_per_switch).max(3);

    let mut g = Graph::new();

    // Uniform placement in a disk of the operator's metro radius.
    let disk_point = |rng: &mut StdRng| {
        let r = p.radius_km * rng.gen_range(0.0f64..1.0).sqrt();
        let th = rng.gen_range(0.0..std::f64::consts::TAU);
        (r * th.cos(), r * th.sin())
    };

    let switches: Vec<NodeId> = (0..n_sw)
        .map(|_| {
            let (x, y) = disk_point(&mut rng);
            g.add_node(x, y)
        })
        .collect();

    // Switch backbone: nearest-neighbour mesh + random chords.
    let mut have_link = std::collections::HashSet::new();
    let connect = |g: &mut Graph,
                   have: &mut std::collections::HashSet<(usize, usize)>,
                   a: NodeId,
                   b: NodeId,
                   rng: &mut StdRng,
                   mix: (f64, f64)| {
        let key = (a.0.min(b.0), a.0.max(b.0));
        if a != b && have.insert(key) {
            let tech = pick_tech(mix, rng);
            let cap = capacity_for(tech, rng);
            g.add_link(a, b, cap, tech);
        }
    };
    for (i, &s) in switches.iter().enumerate() {
        let mut others: Vec<(f64, NodeId)> = switches
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &o)| (g.distance(s, o), o))
            .collect();
        others.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, o) in others.iter().take(p.sw_degree) {
            connect(&mut g, &mut have_link, s, o, &mut rng, p.tech_mix);
        }
    }
    let n_chords = (n_sw as f64 * p.chord_frac).round() as usize;
    for _ in 0..n_chords {
        let a = switches[rng.gen_range(0..n_sw)];
        let b = switches[rng.gen_range(0..n_sw)];
        connect(&mut g, &mut have_link, a, b, &mut rng, p.tech_mix);
    }

    // Base stations attach to their nearest switches.
    let mut base_stations = Vec::with_capacity(n_bs);
    for _ in 0..n_bs {
        let (x, y) = disk_point(&mut rng);
        let node = g.add_node(x, y);
        let mut near: Vec<(f64, NodeId)> =
            switches.iter().map(|&s| (g.distance(node, s), s)).collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, s) in near.iter().take(p.bs_uplinks) {
            let tech = pick_tech(p.tech_mix, &mut rng);
            let cap = capacity_for(tech, &mut rng);
            g.add_link(node, s, cap, tech);
        }
        let mhz = if p.radio_mhz.0 == p.radio_mhz.1 {
            p.radio_mhz.0
        } else {
            rng.gen_range(p.radio_mhz.0..p.radio_mhz.1)
        };
        base_stations.push(BaseStation {
            node,
            capacity_mhz: mhz,
        });
    }

    // Repair connectivity if the nearest-neighbour backbone fragmented:
    // link each stranded component to the main one via its closest switch.
    while !g.is_connected() {
        let comp = component_of(&g, switches[0]);
        let (mut best, mut best_d) = (None, f64::INFINITY);
        for &a in &switches {
            if !comp[a.0] {
                continue;
            }
            for &b in &switches {
                if comp[b.0] {
                    continue;
                }
                let d = g.distance(a, b);
                if d < best_d {
                    best_d = d;
                    best = Some((a, b));
                }
            }
        }
        match best {
            Some((a, b)) => {
                let tech = pick_tech(p.tech_mix, &mut rng);
                let cap = capacity_for(tech, &mut rng);
                g.add_link(a, b, cap, tech);
            }
            None => break, // isolated BSs impossible: each has ≥1 uplink
        }
    }

    // Edge CU at the most central switch (minimum total distance, matching
    // the paper's "placed at the most central position"; the first on a tie).
    let centrality = |a: NodeId| -> f64 { switches.iter().map(|&o| g.distance(a, o)).sum() };
    let edge_sw = switches
        .iter()
        .map(|&s| (s, centrality(s)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(switches[0], |(s, _)| s);
    let edge_cores = 20.0 * n_bs as f64;

    // Core CU behind an "unlimited" 20 ms virtual link.
    let core_node = {
        let (x, y) = (g.node(edge_sw).x, g.node(edge_sw).y);
        let n = g.add_node(x, y);
        g.add_link_with(edge_sw, n, 1e9, 0.0, LinkTech::Virtual, 20_000.0);
        n
    };

    let compute_units = vec![
        ComputeUnit {
            node: edge_sw,
            cores: edge_cores,
            kind: CuKind::Edge,
        },
        ComputeUnit {
            node: core_node,
            cores: 5.0 * edge_cores,
            kind: CuKind::Core,
        },
    ];
    with_paths(operator, g, base_stations, compute_units, config.k_paths)
}

/// The model over `graph`, with `P_{b,c}` precomputed by Yen's algorithm:
/// one shortest-path tree per CU bounds every spur search of every BS
/// toward it (`ksp` docs).
fn with_paths(
    operator: Operator,
    graph: Graph,
    base_stations: Vec<BaseStation>,
    compute_units: Vec<ComputeUnit>,
    k_paths: usize,
) -> NetworkModel {
    let mut toward_cu: Vec<KShortest> = compute_units
        .iter()
        .map(|cu| KShortest::new(&graph, cu.node))
        .collect();
    let paths = base_stations
        .iter()
        .map(|bs| {
            toward_cu
                .iter_mut()
                .map(|search| search.paths_from(bs.node, k_paths))
                .collect()
        })
        .collect();
    NetworkModel {
        operator,
        graph,
        base_stations,
        compute_units,
        paths,
    }
}

fn component_of(g: &Graph, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.num_nodes()];
    let mut stack = vec![start];
    seen[start.0] = true;
    while let Some(n) = stack.pop() {
        for &l in g.incident(n) {
            let m = g.link(l).other(n);
            if !seen[m.0] {
                seen[m.0] = true;
                stack.push(m);
            }
        }
    }
    seen
}
