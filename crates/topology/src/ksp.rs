//! Yen's k-shortest loopless paths.
//!
//! The paper precomputes the path sets `P_{b,c}` offline "using, e.g.,
//! k-shortest path methods based on Dijkstra's algorithm" (§2.1.2). This is
//! exactly that: Yen's algorithm over the delay metric, whose every spur
//! search returns what an unbounded Dijkstra returns while exploring only
//! the corridor that can hold the answer.
//!
//! # Bounded spur searches
//!
//! * **Lower bound.** The graph is undirected, so one Dijkstra from the
//!   destination gives `h(v)`, the unbanned delay from
//!   `v` to it. Bans only remove nodes and links, so `h` is admissible for
//!   every spur search toward that destination, from every source. A
//!   `KShortest` computes it once per destination.
//! * **Upper bound `D*`.** A spur search first finds `D*`, the delay of
//!   some real unbanned path: the left-fold delay sum of the source's tree
//!   path when that path avoids every ban, else the path an A* search on
//!   `h` settles the destination with.
//! * **Corridor.** Then the search runs the unbounded Dijkstra — the same
//!   `(delay, node)` heap order, the same strict-`<` relaxation, the same
//!   exit when the destination pops — except that it skips any relaxation
//!   into `v` at delay `d` with `d + h(v)·(1 − 1e-9) > D*·(1 + 1e-9)`.
//!
//! The A* path alone is not enough: under an exact delay tie its heap order
//! can pick a different path than Dijkstra's. The corridor pass is what
//! makes the result the same, bit for bit:
//!
//! * `D*` is a left-fold delay sum along a real path, and rounding is
//!   monotone, so it is never below the delay Dijkstra finds.
//! * Every node on a shortest path to the destination satisfies
//!   `d + h ≤ D*` in exact arithmetic, and the 1e-9 margins are far above
//!   the rounding of any sum of at most `V` non-negative delays. So the
//!   fence keeps every node of the returned path, and the first-popped
//!   equal-delay predecessor of each of them, which lies on a shortest path
//!   too.
//! * A node the fence removes is on no shortest path, so it can neither set
//!   nor tie the delay or predecessor of a kept node on one. Those nodes get
//!   the delays they get unbounded and pop in the same `(delay, node)`
//!   order, so the destination's predecessor chain is the same.
//!
//! The unbounded search survives as the test oracle the path tables are
//! checked against.

use crate::dijkstra::{Search, ShortestTree};
use crate::graph::{Graph, LinkId, NodeId};

/// A loopless path: its link sequence, end-to-end delay, and bottleneck
/// capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Links from source to destination, in order.
    pub links: Vec<LinkId>,
    /// Total delay in µs (the paper's `D_p`).
    pub delay_us: f64,
    /// Minimum link capacity along the path, Mb/s.
    pub bottleneck_mbps: f64,
}

impl Path {
    /// Node sequence of the path given its source.
    pub(crate) fn nodes(&self, g: &Graph, src: NodeId) -> Vec<NodeId> {
        let mut seq = vec![src];
        let mut cur = src;
        for &l in &self.links {
            cur = g.link(l).other(cur);
            seq.push(cur);
        }
        seq
    }

    pub(crate) fn from_links(g: &Graph, links: Vec<LinkId>, delay: f64) -> Self {
        let bottleneck = links
            .iter()
            .map(|&l| g.link(l).capacity_mbps)
            .fold(f64::INFINITY, f64::min);
        Path {
            links,
            delay_us: delay,
            bottleneck_mbps: bottleneck,
        }
    }
}

/// Yen's algorithm toward one destination: its shortest-path tree, computed
/// once, and the search scratch every source's spur searches reuse.
#[derive(Debug)]
pub(crate) struct KShortest<'g> {
    g: &'g Graph,
    tree: ShortestTree,
    search: Search,
}

impl<'g> KShortest<'g> {
    /// Prepares the searches toward `dst`: one Dijkstra over `g`.
    pub(crate) fn new(g: &'g Graph, dst: NodeId) -> Self {
        KShortest {
            g,
            tree: ShortestTree::new(g, dst),
            search: Search::new(g),
        }
    }

    /// Up to `k` loopless shortest paths from `src` to the destination,
    /// sorted by increasing delay. Returns fewer when the graph does not
    /// contain `k` distinct loopless paths.
    pub(crate) fn paths_from(&mut self, src: NodeId, k: usize) -> Vec<Path> {
        let g = self.g;
        if k == 0 || src == self.tree.root() {
            return Vec::new();
        }
        self.search.clear_bans();
        let Some((first_links, first_delay)) = self.search.spur(g, &self.tree, src) else {
            return Vec::new();
        };
        let mut paths = vec![Path::from_links(g, first_links, first_delay)];
        // Candidate pool: (links, delay).
        let mut candidates: Vec<(Vec<LinkId>, f64)> = Vec::new();

        while paths.len() < k {
            let Some(prev) = paths.last().cloned() else {
                break;
            };
            let prev_nodes = prev.nodes(g, src);

            // Spur from every node of the previous path except the destination.
            for i in 0..prev.links.len() {
                let spur_node = prev_nodes[i];
                let root_links = &prev.links[..i];
                let root_delay: f64 = root_links.iter().map(|&l| g.link(l).delay_us()).sum();

                self.search.clear_bans();
                // Ban the next link of every accepted path sharing this root.
                for p in &paths {
                    if p.links.len() > i && p.links[..i] == *root_links {
                        self.search.ban_link(p.links[i]);
                    }
                }
                // Ban root nodes (except the spur node) to keep paths loopless.
                for &n in &prev_nodes[..i] {
                    self.search.ban_node(n);
                }

                if let Some((spur_links, spur_delay)) = self.search.spur(g, &self.tree, spur_node) {
                    let mut total: Vec<LinkId> = root_links.to_vec();
                    total.extend(spur_links);
                    let total_delay = root_delay + spur_delay;
                    if !candidates.iter().any(|(l, _)| *l == total)
                        && !paths.iter().any(|p| p.links == total)
                    {
                        candidates.push((total, total_delay));
                    }
                }
            }

            // Pop the best candidate; stop when none is left.
            let Some(best_idx) = candidates
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                .map(|(i, _)| i)
            else {
                break;
            };
            let (links, delay) = candidates.swap_remove(best_idx);
            paths.push(Path::from_links(g, links, delay));
        }
        paths
    }
}

/// Computes up to `k` loopless shortest paths from `src` to `dst`, sorted by
/// increasing delay. Returns fewer when the graph does not contain `k`
/// distinct loopless paths. For many sources toward one destination, build
/// one `KShortest` and call `KShortest::paths_from` per source.
pub fn k_shortest(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    KShortest::new(g, dst).paths_from(src, k)
}
