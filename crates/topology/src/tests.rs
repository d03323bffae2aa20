//! Tests for the graph, pathfinding and topology generators.

use crate::dijkstra::{settled, Search, ShortestTree};
use crate::graph::{Graph, LinkTech, NodeId};
use crate::ksp::{k_shortest, KShortest, Path};
use crate::operators::{testbed_model, CuKind, GeneratorConfig, NetworkModel, Operator};
use crate::oracle;
use crate::stats::{ecdf, path_capacity_cdf, path_delay_cdf, quantile};
use proptest::prelude::*;

fn line_graph(n: usize, cap: f64) -> Graph {
    let mut g = Graph::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(i as f64, 0.0)).collect();
    for w in nodes.windows(2) {
        g.add_link(w[0], w[1], cap, LinkTech::Fiber);
    }
    g
}

#[test]
fn link_delay_model() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(3.0, 4.0); // 5 km apart
    let l = g.add_link(a, b, 12_000.0, LinkTech::Wireless);
    // 12000/12000 = 1 µs SAF + 5 km · 5 µs + 5 µs processing = 31 µs.
    assert!((g.link(l).delay_us() - 31.0).abs() < 1e-9);
}

#[test]
fn link_delay_cable_vs_wireless() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(10.0, 0.0);
    let f = g.add_link(a, b, 100_000.0, LinkTech::Fiber);
    let w = g.add_link(a, b, 100_000.0, LinkTech::Wireless);
    assert!(g.link(w).delay_us() > g.link(f).delay_us());
}

#[test]
fn dijkstra_line() {
    let g = line_graph(5, 10_000.0);
    let paths = k_shortest(&g, NodeId(0), NodeId(4), 1);
    assert_eq!(paths[0].links.len(), 4);
    assert!(paths[0].delay_us > 0.0);
}

#[test]
fn dijkstra_prefers_low_delay() {
    // Two routes a→b: direct long wireless vs two short fiber hops via c.
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(10.0, 0.0);
    let c = g.add_node(5.0, 0.1);
    g.add_link(a, b, 2_000.0, LinkTech::Wireless); // slow SAF + 5 µs/km
    g.add_link(a, c, 100_000.0, LinkTech::Fiber);
    g.add_link(c, b, 100_000.0, LinkTech::Fiber);
    let paths = k_shortest(&g, a, b, 1);
    assert_eq!(
        paths[0].links.len(),
        2,
        "should take the two-hop fiber route"
    );
}

#[test]
fn dijkstra_unreachable() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(1.0, 0.0);
    assert!(k_shortest(&g, a, b, 1).is_empty());
}

#[test]
fn ksp_diamond_finds_both() {
    // a → {b, c} → d: exactly two loopless paths.
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(1.0, 1.0);
    let c = g.add_node(1.0, -1.0);
    let d = g.add_node(2.0, 0.0);
    g.add_link(a, b, 10_000.0, LinkTech::Fiber);
    g.add_link(b, d, 10_000.0, LinkTech::Fiber);
    g.add_link(a, c, 5_000.0, LinkTech::Fiber);
    g.add_link(c, d, 5_000.0, LinkTech::Fiber);
    let paths = k_shortest(&g, a, d, 8);
    assert_eq!(paths.len(), 2);
    assert!(paths[0].delay_us <= paths[1].delay_us);
    // Bottleneck of the slower (lower-capacity) path is 5 Gb/s.
    assert!((paths[1].bottleneck_mbps - 5_000.0).abs() < 1e-9);
}

#[test]
fn ksp_line_has_single_path() {
    let g = line_graph(6, 10_000.0);
    let paths = k_shortest(&g, NodeId(0), NodeId(5), 8);
    assert_eq!(paths.len(), 1);
}

#[test]
fn ksp_paths_are_loopless_and_sorted() {
    // A 4-clique has many paths; all must be loopless and delay-sorted.
    let mut g = Graph::new();
    let nodes: Vec<_> = (0..4)
        .map(|i| g.add_node((i % 2) as f64, (i / 2) as f64))
        .collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            g.add_link(nodes[i], nodes[j], 10_000.0, LinkTech::Fiber);
        }
    }
    let paths = k_shortest(&g, nodes[0], nodes[3], 16);
    assert!(paths.len() >= 3, "clique should offer several paths");
    for w in paths.windows(2) {
        assert!(
            w[0].delay_us <= w[1].delay_us + 1e-9,
            "paths must be sorted"
        );
    }
    for p in &paths {
        let seq = p.nodes(&g, nodes[0]);
        let mut seen = std::collections::HashSet::new();
        for n in &seq {
            assert!(seen.insert(n.0), "loop detected in path {seq:?}");
        }
        assert_eq!(*seq.last().unwrap(), nodes[3]);
    }
}

#[test]
fn ksp_k_zero_and_same_node() {
    let g = line_graph(3, 1_000.0);
    assert!(k_shortest(&g, NodeId(0), NodeId(2), 0).is_empty());
    assert!(k_shortest(&g, NodeId(1), NodeId(1), 4).is_empty());
}

fn small_config() -> GeneratorConfig {
    GeneratorConfig {
        scale: 0.12,
        seed: 7,
        k_paths: 8,
    }
}

#[test]
fn generators_produce_connected_models() {
    for op in Operator::all() {
        let m = NetworkModel::generate(op, &small_config());
        assert!(m.graph.is_connected(), "{op:?} must be connected");
        assert!(m.base_stations.len() >= 4);
        assert_eq!(m.compute_units.len(), 2);
        assert_eq!(m.compute_units[0].kind, CuKind::Edge);
        assert_eq!(m.compute_units[1].kind, CuKind::Core);
        // Every BS must reach both CUs.
        for (b, per_cu) in m.paths.iter().enumerate() {
            for (c, paths) in per_cu.iter().enumerate() {
                assert!(!paths.is_empty(), "{op:?}: BS {b} has no path to CU {c}");
            }
        }
    }
}

#[test]
fn edge_cu_sized_for_one_mmtc_tenant() {
    // Paper: edge capacity is 20·N cores.
    let m = NetworkModel::generate(Operator::Romanian, &small_config());
    let n = m.base_stations.len() as f64;
    assert!((m.compute_units[0].cores - 20.0 * n).abs() < 1e-9);
    assert!((m.compute_units[1].cores - 100.0 * n).abs() < 1e-9);
}

#[test]
fn path_redundancy_ordering_matches_paper() {
    // N1 has high redundancy (paper mean 6.6), N3 is sparse (mean 1.6).
    let n1 = NetworkModel::generate(Operator::Romanian, &small_config());
    let n3 = NetworkModel::generate(Operator::Italian, &small_config());
    let m1 = n1.mean_paths_to_edge();
    let m3 = n3.mean_paths_to_edge();
    assert!(
        m1 > 2.0 * m3,
        "Romanian redundancy ({m1:.2}) should far exceed Italian ({m3:.2})"
    );
    assert!(m3 < 3.0, "Italian should stay sparse, got {m3:.2}");
}

#[test]
fn radio_capacity_matches_paper() {
    let n1 = NetworkModel::generate(Operator::Romanian, &small_config());
    for bs in &n1.base_stations {
        assert_eq!(bs.capacity_mhz, 20.0);
    }
    let n3 = NetworkModel::generate(Operator::Italian, &small_config());
    for bs in &n3.base_stations {
        assert!((80.0..=100.0).contains(&bs.capacity_mhz));
    }
}

#[test]
fn core_paths_cross_the_20ms_link() {
    let m = NetworkModel::generate(Operator::Swiss, &small_config());
    for per_cu in &m.paths {
        for p in &per_cu[1] {
            assert!(
                p.delay_us >= 20_000.0,
                "core paths must include the 20 ms link, got {} µs",
                p.delay_us
            );
        }
        for p in &per_cu[0] {
            assert!(
                p.delay_us < 5_000.0,
                "edge paths must satisfy uRLLC's 5 ms budget, got {} µs",
                p.delay_us
            );
        }
    }
}

#[test]
fn capacity_cdf_orders_swiss_below_italian() {
    // Fig. 4(d): the Swiss (wireless) network has the lowest path capacities,
    // the Italian (fiber) the highest.
    let n2 = NetworkModel::generate(Operator::Swiss, &small_config());
    let n3 = NetworkModel::generate(Operator::Italian, &small_config());
    let c2 = path_capacity_cdf(&n2);
    let c3 = path_capacity_cdf(&n3);
    let median2 = quantile(&c2, 0.5);
    let median3 = quantile(&c3, 0.5);
    assert!(
        median2 < median3,
        "Swiss median path capacity ({median2:.1} Gb/s) must be below Italian ({median3:.1})"
    );
}

#[test]
fn delay_cdf_italian_has_widest_spread() {
    // Fig. 4(e): N3's 20 km distances stretch its delay distribution.
    let n1 = NetworkModel::generate(Operator::Romanian, &small_config());
    let n3 = NetworkModel::generate(Operator::Italian, &small_config());
    let d1 = path_delay_cdf(&n1);
    let d3 = path_delay_cdf(&n3);
    assert!(quantile(&d3, 0.95) > quantile(&d1, 0.95));
}

#[test]
fn deterministic_given_seed() {
    let a = NetworkModel::generate(Operator::Romanian, &small_config());
    let b = NetworkModel::generate(Operator::Romanian, &small_config());
    assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
    assert_eq!(a.graph.num_links(), b.graph.num_links());
    assert_eq!(a.mean_paths_to_edge(), b.mean_paths_to_edge());
}

#[test]
fn ecdf_basics() {
    let cdf = ecdf(vec![3.0, 1.0, 2.0, 2.0]);
    assert_eq!(cdf, [(1.0, 0.25), (2.0, 0.5), (2.0, 0.75), (3.0, 1.0)]);
    assert_eq!(quantile(&cdf, 0.5), 2.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Yen's paths are always loopless, sorted, and start/end correctly on
    /// random connected graphs.
    #[test]
    fn prop_ksp_well_formed(
        n in 3usize..10,
        extra in 0usize..8,
        seed in 0u64..1000,
        k in 1usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| g.add_node(i as f64, rng.gen_range(-1.0..1.0)))
            .collect();
        // Spanning chain for connectivity + random extra links.
        for w in nodes.windows(2) {
            g.add_link(w[0], w[1], rng.gen_range(1_000.0..50_000.0), LinkTech::Fiber);
        }
        for _ in 0..extra {
            let a = nodes[rng.gen_range(0..n)];
            let b = nodes[rng.gen_range(0..n)];
            if a != b {
                g.add_link(a, b, rng.gen_range(1_000.0..50_000.0), LinkTech::Wireless);
            }
        }
        let src = nodes[0];
        let dst = nodes[n - 1];
        let paths = k_shortest(&g, src, dst, k);
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        let mut prev_delay = 0.0;
        for p in &paths {
            prop_assert!(p.delay_us >= prev_delay - 1e-9, "sorted by delay");
            prev_delay = p.delay_us;
            let seq = p.nodes(&g, src);
            prop_assert_eq!(seq[0], src);
            prop_assert_eq!(*seq.last().unwrap(), dst);
            let uniq: std::collections::HashSet<_> = seq.iter().map(|x| x.0).collect();
            prop_assert_eq!(uniq.len(), seq.len(), "loopless");
            // Recomputed delay matches the reported one.
            let d: f64 = p.links.iter().map(|&l| g.link(l).delay_us()).sum();
            prop_assert!((d - p.delay_us).abs() < 1e-6);
        }
        // All returned paths are distinct.
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                prop_assert_ne!(&paths[i].links, &paths[j].links);
            }
        }
    }

    /// Generated models are structurally sound across seeds and scales.
    #[test]
    fn prop_models_sound(seed in 0u64..64, scale_pct in 8usize..20) {
        let cfg = GeneratorConfig {
            scale: scale_pct as f64 / 100.0,
            seed,
            k_paths: 4,
        };
        let m = NetworkModel::generate(Operator::Romanian, &cfg);
        prop_assert!(m.graph.is_connected());
        for per_cu in &m.paths {
            prop_assert!(!per_cu[0].is_empty());
            prop_assert!(!per_cu[1].is_empty());
        }
    }
}

// ---------------------------------------------------------------------------
// Additional edge cases
// ---------------------------------------------------------------------------

#[test]
fn virtual_link_delay_is_extra_only() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(100.0, 0.0); // distance must not matter for Virtual
    let l = g.add_link_with(a, b, 1e9, 0.0, LinkTech::Virtual, 20_000.0);
    // SAF on 1e9 Mb/s is negligible; 5 µs processing + 20 ms extra.
    let d = g.link(l).delay_us();
    assert!((d - 20_005.0).abs() < 0.1, "got {d}");
}

#[test]
fn multigraph_parallel_links_allowed() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(1.0, 0.0);
    g.add_link(a, b, 1_000.0, LinkTech::Copper);
    g.add_link(a, b, 2_000.0, LinkTech::Fiber);
    assert_eq!(g.num_links(), 2);
    assert_eq!(g.incident(a).len(), 2);
    // Yen sees them as two distinct single-hop paths.
    let paths = k_shortest(&g, a, b, 4);
    assert_eq!(paths.len(), 2);
}

#[test]
#[should_panic(expected = "self-loops")]
fn self_loop_rejected() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    g.add_link(a, a, 1_000.0, LinkTech::Copper);
}

#[test]
#[should_panic(expected = "capacity")]
fn zero_capacity_rejected() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(1.0, 0.0);
    g.add_link(a, b, 0.0, LinkTech::Copper);
}

#[test]
fn banned_nodes_block_dijkstra() {
    let g = line_graph(4, 1_000.0);
    let tree = ShortestTree::new(&g, NodeId(3));
    let mut search = Search::new(&g);
    assert!(search.spur(&g, &tree, NodeId(0)).is_some());
    search.clear_bans();
    search.ban_node(NodeId(1)); // cut the only route
    assert!(search.spur(&g, &tree, NodeId(0)).is_none());
    search.clear_bans();
    assert!(search.spur(&g, &tree, NodeId(0)).is_some());
}

#[test]
fn different_seeds_differ() {
    let a = NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.1,
            seed: 1,
            k_paths: 4,
        },
    );
    let b = NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.1,
            seed: 2,
            k_paths: 4,
        },
    );
    // Same sizes, different wiring (capacities virtually surely differ).
    let cap = |m: &NetworkModel| -> f64 { m.graph.links().map(|(_, l)| l.capacity_mbps).sum() };
    assert_ne!(cap(&a), cap(&b));
}

#[test]
fn scale_controls_bs_count() {
    let small = NetworkModel::generate(
        Operator::Swiss,
        &GeneratorConfig {
            scale: 0.05,
            seed: 3,
            k_paths: 2,
        },
    );
    let large = NetworkModel::generate(
        Operator::Swiss,
        &GeneratorConfig {
            scale: 0.2,
            seed: 3,
            k_paths: 2,
        },
    );
    assert!(large.base_stations.len() > 2 * small.base_stations.len());
    assert_eq!(
        small.base_stations.len(),
        (197.0f64 * 0.05).round() as usize
    );
}

#[test]
fn quantile_edges() {
    let cdf = ecdf(vec![1.0, 2.0, 3.0, 4.0]);
    assert_eq!(quantile(&cdf, 0.0), 1.0);
    assert_eq!(quantile(&cdf, 1.0), 4.0);
    assert!(quantile(&[], 0.5).is_nan());
}

// ---------------------------------------------------------------------------
// Hostile link delays
// ---------------------------------------------------------------------------

fn link_with(length_km: f64, extra_delay_us: f64) {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(1.0, 0.0);
    g.add_link_with(a, b, 1_000.0, length_km, LinkTech::Fiber, extra_delay_us);
}

#[test]
#[should_panic(expected = "length must be finite")]
fn nan_length_rejected() {
    link_with(f64::NAN, 0.0);
}

#[test]
#[should_panic(expected = "length must be finite")]
fn infinite_length_rejected() {
    link_with(f64::INFINITY, 0.0);
}

#[test]
#[should_panic(expected = "length must be finite")]
fn negative_length_rejected() {
    link_with(-1.0, 0.0);
}

#[test]
#[should_panic(expected = "extra delay must be finite")]
fn nan_extra_delay_rejected() {
    link_with(1.0, f64::NAN);
}

#[test]
#[should_panic(expected = "extra delay must be finite")]
fn infinite_extra_delay_rejected() {
    link_with(1.0, f64::INFINITY);
}

#[test]
#[should_panic(expected = "extra delay must be finite")]
fn negative_extra_delay_rejected() {
    link_with(1.0, -5.0);
}

#[test]
#[should_panic(expected = "length must be finite")]
fn nan_coordinate_rejected() {
    let mut g = Graph::new();
    let a = g.add_node(0.0, 0.0);
    let b = g.add_node(f64::NAN, 0.0);
    g.add_link(a, b, 1_000.0, LinkTech::Fiber);
}

// ---------------------------------------------------------------------------
// Path tables against the unbounded search
// ---------------------------------------------------------------------------

/// Asserts two path lists equal link for link and bit for bit.
fn assert_same_paths(got: &[Path], want: &[Path], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: path count");
    for (i, (p, q)) in got.iter().zip(want).enumerate() {
        assert_eq!(p.links, q.links, "{what}: path {i} links");
        assert_eq!(
            p.delay_us.to_bits(),
            q.delay_us.to_bits(),
            "{what}: path {i} delay"
        );
        assert_eq!(
            p.bottleneck_mbps.to_bits(),
            q.bottleneck_mbps.to_bits(),
            "{what}: path {i} bottleneck"
        );
    }
}

/// Checks every (BS, CU) list of a generated model against the oracle and
/// returns how many lists it compared.
fn check_model(op: Operator, scale: f64, seed: u64, k: usize) -> usize {
    let m = NetworkModel::generate(
        op,
        &GeneratorConfig {
            scale,
            seed,
            k_paths: k,
        },
    );
    let mut lists = 0;
    for (b, bs) in m.base_stations.iter().enumerate() {
        for (c, cu) in m.compute_units.iter().enumerate() {
            let want = oracle::k_shortest(&m.graph, bs.node, cu.node, k);
            let what = format!("{op:?} scale {scale} seed {seed} k {k} BS {b} CU {c}");
            assert_same_paths(&m.paths[b][c], &want, &what);
            lists += 1;
        }
    }
    lists
}

#[test]
fn path_tables_refine_the_unbounded_search() {
    // The full sweep runs in release (CI); a debug build checks a corner of
    // it, every operator and k at the small scales.
    let (scales, seeds): (&[f64], &[u64]) = if cfg!(debug_assertions) {
        (&[0.025, 0.05, 0.1], &[1, 18])
    } else {
        (
            &[0.025, 0.05, 0.1, 0.15, 0.25, 0.5, 1.0],
            &[1, 2, 3, 7, 18, 42],
        )
    };
    let mut lists = 0;
    for op in Operator::all() {
        for &scale in scales {
            for &seed in seeds {
                for k in [1, 2, 4, 8] {
                    lists += check_model(op, scale, seed, k);
                }
            }
        }
    }
    assert!(lists > 0);
}

/// An `n`×`n` grid whose links all have the same delay, exactly 5 µs
/// (unlimited capacity, zero length): every monotone route between two
/// nodes ties exactly, so the heap order alone picks. Node ids are
/// scrambled across the grid (position `p` gets id `7p mod n²`), so the
/// id tie-break does not follow the rows.
fn unit_grid(n: usize) -> Graph {
    let nn = n * n;
    assert_ne!(nn % 7, 0, "7 must be invertible mod n²");
    let id = |p: usize| NodeId(p * 7 % nn);
    let mut at = vec![(0.0, 0.0); nn];
    for p in 0..nn {
        at[id(p).0] = ((p % n) as f64, (p / n) as f64);
    }
    let mut g = Graph::new();
    for &(x, y) in &at {
        g.add_node(x, y);
    }
    for p in 0..nn {
        let (x, y) = (p % n, p / n);
        if x + 1 < n {
            g.add_link_with(id(p), id(p + 1), f64::INFINITY, 0.0, LinkTech::Virtual, 0.0);
        }
        if y + 1 < n {
            g.add_link_with(id(p), id(p + n), f64::INFINITY, 0.0, LinkTech::Virtual, 0.0);
        }
    }
    g
}

#[test]
fn unit_grid_ties_resolve_as_the_unbounded_search() {
    let n = 6;
    let g = unit_grid(n);
    for dst in 0..n * n {
        let mut search = KShortest::new(&g, NodeId(dst));
        for src in 0..n * n {
            for k in [1, 2, 4, 8] {
                let want = oracle::k_shortest(&g, NodeId(src), NodeId(dst), k);
                let got = search.paths_from(NodeId(src), k);
                assert_same_paths(&got, &want, &format!("grid {src} -> {dst}, k {k}"));
            }
        }
    }
}

#[test]
fn a_star_alone_breaks_grid_ties_differently() {
    // Why the corridor pass exists: A*'s own path has the optimal delay but,
    // under exact ties, not always the unbounded Dijkstra's links.
    let n = 6;
    let g = unit_grid(n);
    let nothing = (vec![false; g.num_nodes()], vec![false; g.num_links()]);
    let mut differ = 0;
    for dst in 0..n * n {
        let tree = ShortestTree::new(&g, NodeId(dst));
        let mut search = Search::new(&g);
        for src in (0..n * n).filter(|&s| s != dst) {
            let (want, delay) =
                oracle::shortest_path(&g, NodeId(src), NodeId(dst), &nothing.0, &nothing.1)
                    .unwrap();
            let a_star_delay = search.a_star(&g, &tree, NodeId(src)).unwrap();
            let (a_star, _) = search.labelled_path(&g, NodeId(src), NodeId(dst)).unwrap();
            assert_eq!(a_star_delay.to_bits(), delay.to_bits());
            differ += usize::from(a_star != want);
            assert_eq!(search.spur(&g, &tree, NodeId(src)).unwrap().0, want);
        }
    }
    assert!(differ > 0, "A* matched Dijkstra on every grid tie");
}

// ---------------------------------------------------------------------------
// Settled-node counts
// ---------------------------------------------------------------------------

/// Nodes settled building the Romanian seed-18, k = 4 path table at `scale`:
/// (fenced search, unbounded oracle, BS count).
fn settled_for_table(scale: f64) -> (u64, u64, usize) {
    let cfg = GeneratorConfig {
        scale,
        seed: 18,
        k_paths: 4,
    };
    let before = settled::total();
    let m = NetworkModel::generate(Operator::Romanian, &cfg);
    let fenced = settled::total() - before;
    let before = settled::total();
    for bs in &m.base_stations {
        for cu in &m.compute_units {
            oracle::k_shortest(&m.graph, bs.node, cu.node, cfg.k_paths);
        }
    }
    (fenced, settled::total() - before, m.base_stations.len())
}

#[test]
fn fenced_search_settles_pinned_node_counts() {
    // Counts, not timings: both trees, every A* and every corridor pass,
    // against the unbounded search's pops. They move only with a change to
    // the search or to the generator. The last column caps the fenced
    // share of the oracle's work, in percent.
    let pinned = [
        (0.025, 5, 397, 382, 110),
        (0.1, 20, 2_717, 4_563, 100),
        (0.25, 50, 13_737, 35_366, 45),
        (1.0, 198, 193_839, 898_364, 25),
    ];
    for (scale, n_bs, fenced_pin, oracle_pin, max_share) in pinned {
        let (fenced, oracle, bs) = settled_for_table(scale);
        assert_eq!(bs, n_bs);
        assert_eq!((fenced, oracle), (fenced_pin, oracle_pin), "{bs} BS");
        assert!(fenced * 100 <= oracle * max_share, "{bs} BS");
    }
}

// ----------------------------------------------------------------- testbed

#[test]
fn testbed_model_matches_table2() {
    let m = testbed_model();
    assert_eq!(m.base_stations.len(), 2);
    assert_eq!(m.compute_units[0].cores, 16.0);
    assert_eq!(m.compute_units[1].cores, 64.0);
    for bs in &m.base_stations {
        assert_eq!(bs.capacity_mhz, 20.0); // 100 PRBs
    }
    // uRLLC can reach the edge but not the core.
    for per_cu in &m.paths {
        assert!(per_cu[0][0].delay_us < 5_000.0);
        assert!(per_cu[1][0].delay_us > 5_000.0);
    }
}

#[test]
fn testbed_paths_refine_the_unbounded_search() {
    // The fenced path table equals the unbounded Yen search, bit for bit.
    let m = testbed_model();
    for (b, bs) in m.base_stations.iter().enumerate() {
        for (c, cu) in m.compute_units.iter().enumerate() {
            let want = oracle::k_shortest(&m.graph, bs.node, cu.node, 4);
            let got = &m.paths[b][c];
            assert_eq!(got.len(), want.len(), "BS {b} CU {c}");
            for (p, q) in got.iter().zip(&want) {
                assert_eq!(p.links, q.links, "BS {b} CU {c}");
                assert_eq!(p.delay_us.to_bits(), q.delay_us.to_bits());
                assert_eq!(p.bottleneck_mbps.to_bits(), q.bottleneck_mbps.to_bits());
            }
        }
    }
}
