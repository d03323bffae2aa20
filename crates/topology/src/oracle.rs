//! The unbounded path search, kept as the oracle the fenced one is checked
//! against: Yen's algorithm whose every spur search is a plain Dijkstra over
//! the whole graph, with ban vectors allocated per search.

#[cfg(test)]
use crate::dijkstra::settled;
use crate::dijkstra::Entry;
use crate::graph::{Graph, LinkId, NodeId};
use crate::ksp::Path;
use std::collections::BinaryHeap;

/// Single-source shortest path by delay.
///
/// `banned_nodes[i] == true` removes node `i`; `banned_links` removes link
/// ids (both used by Yen's algorithm for spur computations).
pub(crate) fn shortest_path(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[bool],
    banned_links: &[bool],
) -> Option<(Vec<LinkId>, f64)> {
    assert_eq!(banned_nodes.len(), g.num_nodes());
    assert_eq!(banned_links.len(), g.num_links());
    if banned_nodes[src.0] || banned_nodes[dst.0] {
        return None;
    }
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<LinkId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0] = 0.0;
    heap.push(Entry {
        delay: 0.0,
        node: src,
    });

    while let Some(Entry { delay, node }) = heap.pop() {
        if delay > dist[node.0] {
            continue;
        }
        #[cfg(test)]
        settled::add(1);
        if node == dst {
            break;
        }
        for &lid in g.incident(node) {
            if banned_links[lid.0] {
                continue;
            }
            let link = g.link(lid);
            let next = link.other(node);
            if banned_nodes[next.0] {
                continue;
            }
            let nd = delay + link.delay_us();
            if nd < dist[next.0] {
                dist[next.0] = nd;
                prev[next.0] = Some(lid);
                heap.push(Entry {
                    delay: nd,
                    node: next,
                });
            }
        }
    }

    if dist[dst.0].is_infinite() {
        return None;
    }
    // Reconstruct link sequence from dst back to src.
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let lid = prev[cur.0].expect("broken predecessor chain");
        links.push(lid);
        cur = g.link(lid).other(cur);
    }
    links.reverse();
    Some((links, dist[dst.0]))
}

/// Yen's algorithm over [`shortest_path`]: up to `k` loopless shortest
/// paths from `src` to `dst`, sorted by increasing delay.
pub(crate) fn k_shortest(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    let no_nodes = vec![false; g.num_nodes()];
    let no_links = vec![false; g.num_links()];
    let Some((first_links, first_delay)) = shortest_path(g, src, dst, &no_nodes, &no_links) else {
        return Vec::new();
    };
    let mut paths = vec![Path::from_links(g, first_links, first_delay)];
    // Candidate pool: (links, delay).
    let mut candidates: Vec<(Vec<LinkId>, f64)> = Vec::new();

    for _ in 1..k {
        let prev = paths.last().unwrap().clone();
        let prev_nodes = prev.nodes(g, src);

        // Spur from every node of the previous path except the destination.
        for i in 0..prev.links.len() {
            let spur_node = prev_nodes[i];
            let root_links = &prev.links[..i];
            let root_delay: f64 = root_links.iter().map(|&l| g.link(l).delay_us()).sum();

            let mut banned_links = vec![false; g.num_links()];
            let mut banned_nodes = vec![false; g.num_nodes()];
            // Ban the next link of every accepted path sharing this root.
            for p in &paths {
                if p.links.len() > i && p.links[..i] == *root_links {
                    banned_links[p.links[i].0] = true;
                }
            }
            // Ban root nodes (except the spur node) to keep paths loopless.
            for n in &prev_nodes[..i] {
                banned_nodes[n.0] = true;
            }

            if let Some((spur_links, spur_delay)) =
                shortest_path(g, spur_node, dst, &banned_nodes, &banned_links)
            {
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

        if candidates.is_empty() {
            break;
        }
        // Pop the best candidate.
        let best_idx = candidates
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let (links, delay) = candidates.swap_remove(best_idx);
        paths.push(Path::from_links(g, links, delay));
    }
    paths
}
