//! # tapioca-topology
//!
//! Interconnect topology models for the TAPIOCA reproduction.
//!
//! The TAPIOCA paper (Tessier et al., CLUSTER 2017) bases its aggregator
//! placement cost model on a small set of quantities that any machine must
//! expose: per-hop latency `l`, point-to-point hop distance `d(u, v)`,
//! bandwidth `B(i -> j)`, and the location of (and distance to) the I/O
//! nodes serving a file. This crate provides:
//!
//! * [`torus::Torus`] — an N-dimensional torus with dimension-ordered
//!   routing, modelling the IBM Blue Gene/Q 5D torus of *Mira*;
//! * [`dragonfly::Dragonfly`] — a group/router/node dragonfly with minimal
//!   routing and a 2D all-to-all intra-group structure, modelling the Cray
//!   XC40 Aries network of *Theta*;
//! * [`provider::TopologyProvider`] — a Rust port of the paper's Listing 1
//!   ("function prototypes for aggregators placement");
//! * [`profiles`] — machine profiles with the constants the paper states
//!   (link bandwidths, Pset structure, group counts, ranks per node).
//!
//! Everything here is deterministic and allocation-conscious: the link
//! tables are laid out densely so the flow simulator in `tapioca-netsim`
//! can index per-link state with plain vectors.
//!
//! Units: bandwidths are **bytes/second**, latencies **seconds**, sizes
//! **bytes**. Helper constants such as [`GIB`] are provided for clarity.

pub mod cache;
pub mod coords;
pub mod dragonfly;
pub mod fattree;
pub mod profiles;
pub mod provider;
pub mod torus;

pub use cache::{IoMetrics, NodeMetricCache, PairMetrics};
pub use coords::CoordSpace;
pub use dragonfly::{Dragonfly, DragonflyParams};
pub use fattree::{FatTree, FatTreeParams};
pub use profiles::{
    cluster_profile, lnet_gateway_nodes, mira_profile, theta_profile, MachineProfile, Platform,
    StorageProfile,
};
pub use provider::{Fabric, IoNodeId, Machine, TopologyProvider};
pub use torus::{PsetConfig, Torus};

/// One kibibyte in bytes.
pub const KIB: u64 = 1024;
/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * 1024;
/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// Identifier of a compute node inside a topology (dense, `0..num_nodes`).
pub type NodeId = usize;

/// Identifier of an MPI-style rank (dense, `0..num_ranks`).
pub type Rank = usize;

/// Dense index of a directed link inside a topology's link table.
///
/// Link indices are stable for the lifetime of a topology object and cover
/// `0..num_links()`; the flow simulator uses them to index per-link state.
pub type LinkIx = usize;

/// A directed network link with a fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Capacity in bytes per second.
    pub capacity: f64,
    /// Human-readable class of the link, for traces and sanity checks.
    pub class: LinkClass,
}

/// Classes of links found in the modelled machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Torus link along one dimension (BG/Q: 2 GB/s per the paper's Fig. 4).
    Torus,
    /// Node <-> Aries router injection/ejection port.
    Injection,
    /// Electrical intra-group router-router link (XC40: 14 GB/s).
    IntraGroup,
    /// Optical inter-group link (XC40: 12.5 GB/s).
    InterGroup,
    /// Compute node -> I/O node link (BG/Q bridge node: 1.8 GB/s).
    IoForward,
}

/// A network route: the ordered list of directed links a message traverses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Route {
    /// Directed link indices, in traversal order.
    pub links: Vec<LinkIx>,
}

impl Route {
    /// Number of hops (links traversed).
    #[inline]
    pub fn hops(&self) -> u32 {
        self.links.len() as u32
    }
}

/// Core interface every interconnect model implements.
///
/// This is the *graph* view of a machine; the rank-level view used by the
/// placement code is [`provider::TopologyProvider`].
pub trait Interconnect: Send + Sync {
    /// Number of compute nodes.
    fn num_nodes(&self) -> usize;

    /// Total number of directed links (dense index space for `LinkIx`).
    fn num_links(&self) -> usize;

    /// Capacity and class of a link.
    fn link(&self, ix: LinkIx) -> Link;

    /// Deterministic route from `src` to `dst` (empty when `src == dst`).
    fn route(&self, src: NodeId, dst: NodeId) -> Route;

    /// Append the links of `route(src, dst)` to `out`.
    ///
    /// Submission loops that build one route per flow call this with a
    /// reused scratch buffer; implementations override it to write links
    /// directly instead of allocating a fresh [`Route`] per call.
    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkIx>) {
        out.extend_from_slice(&self.route(src, dst).links);
    }

    /// Hop distance: exactly `route(src, dst).hops()`, in closed form —
    /// no route is built and nothing is allocated. The election, the
    /// O(P²) oracle and the cost model call this per node pair.
    fn hop_distance(&self, src: NodeId, dst: NodeId) -> u32;

    /// Per-hop latency in seconds.
    fn hop_latency(&self) -> f64;

    /// Minimum link capacity along the route between two nodes, bytes/s
    /// (infinite for `src == dst`).
    ///
    /// This is the `B(i -> j)` of the paper's cost model. The default
    /// walks the route; every fabric in this crate overrides it with a
    /// closed form over its link classes, which must return exactly the
    /// minimum of `link(l).capacity` over `route(src, dst).links`.
    fn path_bandwidth(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            return f64::INFINITY;
        }
        let r = self.route(src, dst);
        r.links
            .iter()
            .map(|&l| self.link(l).capacity)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_hops_counts_links() {
        let r = Route { links: vec![3, 1, 2] };
        assert_eq!(r.hops(), 3);
    }

    /// The closed-form metric contract of [`Interconnect`], checked on
    /// every ordered node pair.
    fn assert_closed_forms_match_routes(name: &str, net: &dyn Interconnect) {
        for s in 0..net.num_nodes() {
            for t in 0..net.num_nodes() {
                let r = net.route(s, t);
                assert_eq!(net.hop_distance(s, t), r.hops(), "{name}: hops {s}->{t}");
                let walked =
                    r.links.iter().map(|&l| net.link(l).capacity).fold(f64::INFINITY, f64::min);
                assert_eq!(net.path_bandwidth(s, t), walked, "{name}: bandwidth {s}->{t}");
            }
        }
    }

    #[test]
    fn closed_form_metrics_equal_route_walks_on_every_fabric() {
        // Odd, even, extent-2 (both directions reach the same neighbour)
        // and extent-1 rings; extent 12 is the one ring of whole-machine
        // Mira (8x12x16x16x2) that is not a power of two.
        let shapes: [&[usize]; 7] =
            [&[5, 3], &[4, 2, 3], &[2, 2, 2], &[7], &[3, 1, 4], &[2, 4, 4, 2, 2], &[12, 2, 3]];
        for dims in shapes {
            let t = Torus::new(dims, 2.0 * GIB as f64, 600e-9);
            assert_closed_forms_match_routes(&format!("torus{dims:?}"), &t);
        }
        // Distinct capacities per class with each class the smallest in
        // turn, so a wrong class in the minimum shows.
        let orders = [(3.0, 2.0, 1.0), (1.0, 2.0, 3.0), (2.0, 1.0, 3.0), (2.0, 3.0, 1.0)];
        for (inj, ele, opt) in orders {
            let d = Dragonfly::new(DragonflyParams {
                groups: 3,
                cols: 4,
                rows: 2,
                nodes_per_router: 2,
                injection_bw: inj,
                electrical_bw: ele,
                optical_bw: opt,
                hop_latency: 1e-6,
            });
            assert_closed_forms_match_routes("dragonfly", &d);
        }
        for (edge, up) in [(12.0, 24.0), (24.0, 12.0)] {
            let f = FatTree::new(FatTreeParams {
                leaves: 4,
                nodes_per_leaf: 3,
                spines: 2,
                edge_bw: edge,
                uplink_bw: up,
                hop_latency: 1e-6,
            });
            assert_closed_forms_match_routes("fattree", &f);
        }
    }

    #[test]
    fn units_are_consistent() {
        assert_eq!(MIB, 1024 * KIB);
        assert_eq!(GIB, 1024 * MIB);
    }
}
