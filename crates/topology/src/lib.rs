//! # ovnes-topology — transport-network substrate
//!
//! The paper evaluates slice overbooking on urban metro networks from three
//! European operators: Romania ("N1"), Switzerland ("N2") and Italy ("N3"),
//! shown in Fig. 4. Those datasets are proprietary, so this crate generates
//! **seeded synthetic topologies matched to every statistic the paper
//! discloses** (node counts, path-redundancy means, link-technology mixes,
//! capacity ranges, BS–CU distances and the delay model): AC-RR sees a
//! topology only through those statistics, which the `fig4` binary prints.
//!
//! Components:
//!
//! * [`graph`] — an undirected multigraph with per-link capacity, length and
//!   technology; delays follow the paper's footnote 11 model
//!   (store-and-forward `12000/C_e`, 4–5 µs/km propagation, 5 µs processing),
//! * `dijkstra` — shortest paths by delay, and the fenced spur search,
//! * [`ksp`] — Yen's k-shortest loopless paths (the paper's offline path
//!   precomputation, §2.1.2), one shortest-path tree per destination,
//! * [`operators`] — the N1/N2/N3 generators, the §5 testbed's data plane
//!   ([`operators::testbed_model`]) and the [`operators::NetworkModel`]
//!   consumed by the orchestrator,
//! * [`stats`] — empirical CDFs regenerating Fig. 4(d)-(e).

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod dijkstra;
pub mod graph;
pub mod ksp;
pub mod operators;
pub mod stats;

pub use ksp::Path;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod tests;
