//! Undirected multigraph with typed links.
//!
//! Links carry a capacity (Mb/s), a physical length (km) and a technology.
//! Per-hop delay follows the paper's model (footnote 11): store-and-forward
//! of a 1500-byte frame (`12000/C_e` with capacity in Mb/s ⇒ µs), 4 µs/km on
//! cable (fiber/copper) or 5 µs/km on wireless, plus 5 µs of transmission /
//! processing overhead.

/// Index of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Physical technology of a transport link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTech {
    /// Optical fiber: high capacity, 4 µs/km.
    Fiber,
    /// Copper: low capacity, 4 µs/km.
    Copper,
    /// Microwave/mmWave: low capacity, 5 µs/km.
    Wireless,
    /// Ideal virtual link (e.g. the edge↔core interconnect in the paper's
    /// simulations, which has "unlimited bandwidth" and a fixed latency).
    Virtual,
}

impl LinkTech {
    /// Propagation delay per kilometre, µs.
    pub(crate) fn us_per_km(self) -> f64 {
        match self {
            LinkTech::Fiber | LinkTech::Copper => 4.0,
            LinkTech::Wireless => 5.0,
            LinkTech::Virtual => 0.0,
        }
    }
}

/// A transport link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity in Mb/s.
    pub capacity_mbps: f64,
    /// Physical length in km.
    pub length_km: f64,
    /// Technology (affects delay).
    pub tech: LinkTech,
    /// Extra fixed delay in µs (used for the 20 ms edge↔core link).
    pub extra_delay_us: f64,
}

impl Link {
    /// One-hop traversal delay in µs per the paper's model.
    pub(crate) fn delay_us(&self) -> f64 {
        let store_and_forward = if self.capacity_mbps.is_finite() && self.capacity_mbps > 0.0 {
            12_000.0 / self.capacity_mbps
        } else {
            0.0
        };
        store_and_forward + self.tech.us_per_km() * self.length_km + 5.0 + self.extra_delay_us
    }

    /// The endpoint opposite to `n`, which must be an endpoint of this link
    /// (every caller reached the link from `n`'s adjacency or along a path
    /// through `n`; debug builds check it).
    pub(crate) fn other(&self, n: NodeId) -> NodeId {
        debug_assert!(
            n == self.a || n == self.b,
            "node {n:?} is not an endpoint of this link"
        );
        if n == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// A node with a planar position (km coordinates, used by generators and for
/// rendering Fig. 4-style maps).
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// X coordinate, km.
    pub x: f64,
    /// Y coordinate, km.
    pub y: f64,
}

/// Undirected multigraph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Adjacency: per node, the incident link ids.
    adj: Vec<Vec<LinkId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at planar position (x, y) km.
    pub fn add_node(&mut self, x: f64, y: f64) -> NodeId {
        self.nodes.push(Node { x, y });
        self.adj.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Adds an undirected link; length defaults to the Euclidean distance
    /// between endpoints.
    ///
    /// # Panics
    /// As [`Graph::add_link_with`]; an endpoint with a non-finite coordinate
    /// gives a non-finite length.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity_mbps: f64, tech: LinkTech) -> LinkId {
        let length = self.distance(a, b);
        self.add_link_with(a, b, capacity_mbps, length, tech, 0.0)
    }

    /// Adds a link with explicit length and extra fixed delay.
    ///
    /// # Panics
    /// Panics on self-loops or unknown endpoints, on a capacity that is not
    /// positive, and on a length or extra delay that is not finite and
    /// non-negative (path searches order by delay and need a real one).
    pub fn add_link_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_mbps: f64,
        length_km: f64,
        tech: LinkTech,
        extra_delay_us: f64,
    ) -> LinkId {
        assert!(a != b, "self-loops are not allowed");
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "unknown endpoint"
        );
        assert!(capacity_mbps > 0.0, "capacity must be positive");
        assert!(
            length_km.is_finite() && length_km >= 0.0,
            "length must be finite and non-negative"
        );
        assert!(
            extra_delay_us.is_finite() && extra_delay_us >= 0.0,
            "extra delay must be finite and non-negative"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            capacity_mbps,
            length_km,
            tech,
            extra_delay_us,
        });
        self.adj[a.0].push(id);
        self.adj[b.0].push(id);
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node accessor.
    pub(crate) fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.0]
    }

    /// Link accessor.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0]
    }

    /// All links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Overwrites a link's capacity (Mb/s). Infrastructure-event support:
    /// degradation/repair of a live link changes its capacity but never the
    /// topology, so precomputed path sets stay valid.
    pub fn set_link_capacity(&mut self, l: LinkId, capacity_mbps: f64) {
        self.links[l.0].capacity_mbps = capacity_mbps.max(0.0);
    }

    /// Links incident to a node.
    pub(crate) fn incident(&self, n: NodeId) -> &[LinkId] {
        &self.adj[n.0]
    }

    /// Euclidean distance between two nodes, km.
    pub(crate) fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let na = &self.nodes[a.0];
        let nb = &self.nodes[b.0];
        ((na.x - nb.x).powi(2) + (na.y - nb.y).powi(2)).sqrt()
    }

    /// True when every node can reach node 0 (or the graph is empty).
    pub(crate) fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &l in self.incident(n) {
                let m = self.link(l).other(n);
                if !seen[m.0] {
                    seen[m.0] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }
}
