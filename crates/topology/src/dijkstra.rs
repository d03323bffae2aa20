//! Dijkstra shortest paths by cumulative link delay, and the fenced spur
//! search Yen's algorithm runs on top of them (the bound and the exactness
//! argument are in the [`crate::ksp`] docs).

use crate::graph::{Graph, LinkId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Relative slack of the corridor fence, far above the rounding of any
/// delay sum over at most `V` non-negative terms.
const FENCE_SLACK: f64 = 1e-9;

/// Heap entry ordered by smallest delay first, then smallest node id.
#[derive(Debug, PartialEq)]
pub(crate) struct Entry {
    pub(crate) delay: f64,
    pub(crate) node: NodeId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap. `total_cmp` is a total order even on NaN;
        // on the finite, non-negative delays `Graph` admits it agrees with
        // `partial_cmp`.
        other
            .delay
            .total_cmp(&self.delay)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The shortest-path tree toward one root over the whole graph: for every
/// node its delay to the root and the first link of its tree path there.
///
/// The graph is undirected, so one Dijkstra from the root gives both. No
/// ban lengthens a path by less than nothing, so the delays are a lower
/// bound on the remaining delay of every banned search toward the root.
#[derive(Debug)]
pub(crate) struct ShortestTree {
    root: NodeId,
    /// Delay from each node to the root; infinite when unreachable.
    to_root: Vec<f64>,
    /// First link of each node's tree path to the root.
    toward: Vec<Option<LinkId>>,
}

impl ShortestTree {
    /// Runs one unbounded Dijkstra from `root`.
    pub(crate) fn new(g: &Graph, root: NodeId) -> Self {
        let n = g.num_nodes();
        let mut to_root = vec![f64::INFINITY; n];
        let mut toward = vec![None; n];
        let mut heap = BinaryHeap::new();
        to_root[root.0] = 0.0;
        heap.push(Entry {
            delay: 0.0,
            node: root,
        });
        while let Some(Entry { delay, node }) = heap.pop() {
            if delay > to_root[node.0] {
                continue;
            }
            #[cfg(test)]
            settled::add(1);
            for &lid in g.incident(node) {
                let link = g.link(lid);
                let next = link.other(node);
                let nd = delay + link.delay_us();
                if nd < to_root[next.0] {
                    to_root[next.0] = nd;
                    toward[next.0] = Some(lid);
                    heap.push(Entry {
                        delay: nd,
                        node: next,
                    });
                }
            }
        }
        ShortestTree {
            root,
            to_root,
            toward,
        }
    }

    /// The node every tree path ends at.
    pub(crate) fn root(&self) -> NodeId {
        self.root
    }
}

/// Reusable state of the spur searches toward one tree's root: tentative
/// delays, predecessors, the ban sets and the heap. Each search and each
/// ban set is a generation; an entry belongs to the current one only when
/// its stamp says so, so nothing is cleared or allocated per search.
#[derive(Debug)]
pub(crate) struct Search {
    visit: u32,
    visited: Vec<u32>,
    dist: Vec<f64>,
    prev: Vec<LinkId>,
    bans: u32,
    banned_nodes: Vec<u32>,
    banned_links: Vec<u32>,
    heap: BinaryHeap<Entry>,
}

impl Search {
    /// Scratch sized for `g`, with nothing banned.
    pub(crate) fn new(g: &Graph) -> Self {
        Search {
            visit: 0,
            visited: vec![0; g.num_nodes()],
            dist: vec![f64::INFINITY; g.num_nodes()],
            prev: vec![LinkId(usize::MAX); g.num_nodes()],
            bans: 1,
            banned_nodes: vec![0; g.num_nodes()],
            banned_links: vec![0; g.num_links()],
            heap: BinaryHeap::new(),
        }
    }

    /// Lifts every ban.
    pub(crate) fn clear_bans(&mut self) {
        self.bans = self.bans.wrapping_add(1);
        if self.bans == 0 {
            self.banned_nodes.fill(0);
            self.banned_links.fill(0);
            self.bans = 1;
        }
    }

    /// Removes node `n` from the following searches.
    pub(crate) fn ban_node(&mut self, n: NodeId) {
        self.banned_nodes[n.0] = self.bans;
    }

    /// Removes link `l` from the following searches.
    pub(crate) fn ban_link(&mut self, l: LinkId) {
        self.banned_links[l.0] = self.bans;
    }

    fn node_banned(&self, n: NodeId) -> bool {
        self.banned_nodes[n.0] == self.bans
    }

    fn link_banned(&self, l: LinkId) -> bool {
        self.banned_links[l.0] == self.bans
    }

    /// Starts a search generation with only `src` labelled, at delay 0.
    fn start(&mut self, src: NodeId, key: f64) {
        self.visit = self.visit.wrapping_add(1);
        if self.visit == 0 {
            self.visited.fill(0);
            self.visit = 1;
        }
        self.heap.clear();
        self.label(src, 0.0, LinkId(usize::MAX));
        self.heap.push(Entry {
            delay: key,
            node: src,
        });
    }

    fn label(&mut self, v: NodeId, delay: f64, via: LinkId) {
        self.visited[v.0] = self.visit;
        self.dist[v.0] = delay;
        self.prev[v.0] = via;
    }

    fn dist(&self, v: NodeId) -> f64 {
        if self.visited[v.0] == self.visit {
            self.dist[v.0]
        } else {
            f64::INFINITY
        }
    }

    /// Shortest path from `src` to `tree`'s root avoiding the banned nodes
    /// and links: exactly the path and delay an unbounded Dijkstra with the
    /// same `(delay, node)` heap order returns, found by a bounded search.
    pub(crate) fn spur(
        &mut self,
        g: &Graph,
        tree: &ShortestTree,
        src: NodeId,
    ) -> Option<(Vec<LinkId>, f64)> {
        let dst = tree.root;
        if self.node_banned(src) || self.node_banned(dst) || tree.to_root[src.0].is_infinite() {
            return None;
        }
        let bound = match self.tree_path_delay(g, tree, src) {
            Some(delay) => delay,
            None => self.a_star(g, tree, src)?,
        };
        self.corridor(g, tree, src, bound)
    }

    /// The left-fold delay of `src`'s tree path, when it avoids every ban.
    fn tree_path_delay(&self, g: &Graph, tree: &ShortestTree, src: NodeId) -> Option<f64> {
        let mut delay = 0.0;
        let mut cur = src;
        while cur != tree.root {
            let lid = tree.toward[cur.0]?;
            if self.link_banned(lid) {
                return None;
            }
            let link = g.link(lid);
            cur = link.other(cur);
            if self.node_banned(cur) {
                return None;
            }
            delay += link.delay_us();
        }
        Some(delay)
    }

    /// A* toward the root on the tree's lower bound: the left-fold delay of
    /// some real unbanned path, or `None` when the bans cut the root off.
    pub(crate) fn a_star(&mut self, g: &Graph, tree: &ShortestTree, src: NodeId) -> Option<f64> {
        let h = &tree.to_root;
        self.start(src, h[src.0]);
        while let Some(Entry { delay: key, node }) = self.heap.pop() {
            let delay = self.dist(node);
            if key > delay + h[node.0] {
                continue;
            }
            #[cfg(test)]
            settled::add(1);
            if node == tree.root {
                return Some(delay);
            }
            for &lid in g.incident(node) {
                if self.link_banned(lid) {
                    continue;
                }
                let link = g.link(lid);
                let next = link.other(node);
                if self.node_banned(next) {
                    continue;
                }
                let nd = delay + link.delay_us();
                if nd < self.dist(next) {
                    self.label(next, nd, lid);
                    self.heap.push(Entry {
                        delay: nd + h[next.0],
                        node: next,
                    });
                }
            }
        }
        None
    }

    /// The unbounded search's Dijkstra, skipping every relaxation whose
    /// delay plus the tree's lower bound exceeds `bound` (both with
    /// [`FENCE_SLACK`]).
    fn corridor(
        &mut self,
        g: &Graph,
        tree: &ShortestTree,
        src: NodeId,
        bound: f64,
    ) -> Option<(Vec<LinkId>, f64)> {
        let dst = tree.root;
        let fence = bound * (1.0 + FENCE_SLACK);
        self.start(src, 0.0);
        while let Some(Entry { delay, node }) = self.heap.pop() {
            if delay > self.dist(node) {
                continue;
            }
            #[cfg(test)]
            settled::add(1);
            if node == dst {
                break;
            }
            for &lid in g.incident(node) {
                if self.link_banned(lid) {
                    continue;
                }
                let link = g.link(lid);
                let next = link.other(node);
                if self.node_banned(next) {
                    continue;
                }
                let nd = delay + link.delay_us();
                if nd < self.dist(next) && nd + tree.to_root[next.0] * (1.0 - FENCE_SLACK) <= fence
                {
                    self.label(next, nd, lid);
                    self.heap.push(Entry {
                        delay: nd,
                        node: next,
                    });
                }
            }
        }

        self.labelled_path(g, src, dst)
    }

    /// The path the last search labelled from `src` to `dst`, with its
    /// delay, or `None` when it never reached `dst`.
    pub(crate) fn labelled_path(
        &self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
    ) -> Option<(Vec<LinkId>, f64)> {
        let delay = self.dist(dst);
        if delay.is_infinite() {
            return None;
        }
        // Reconstruct link sequence from dst back to src.
        let mut links = Vec::new();
        let mut cur = dst;
        while cur != src {
            let lid = self.prev[cur.0];
            links.push(lid);
            cur = g.link(lid).other(cur);
        }
        links.reverse();
        Some((links, delay))
    }
}

/// A per-thread count of settled nodes (heap pops that are not stale), the
/// work the corridor saves.
#[cfg(test)]
pub(crate) mod settled {
    use std::cell::Cell;

    thread_local! {
        static SETTLED: Cell<u64> = const { Cell::new(0) };
    }

    /// Books `n` settled nodes.
    pub(crate) fn add(n: u64) {
        SETTLED.with(|s| s.set(s.get() + n));
    }

    /// Nodes this thread has settled so far.
    pub(crate) fn total() -> u64 {
        SETTLED.with(Cell::get)
    }
}
