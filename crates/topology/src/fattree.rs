//! Two-level fat-tree (leaf/spine Clos) interconnect — a machine the
//! paper never evaluated, included to exercise TAPIOCA's portability
//! claim: the library only consumes the [`crate::TopologyProvider`]
//! interface, so adding a commodity InfiniBand-style cluster is exactly
//! the "quite low" per-architecture effort the paper describes
//! (Sec. IV-C).
//!
//! Structure: `leaves` leaf switches with `nodes_per_leaf` nodes each;
//! every leaf connects to every one of the `spines` spine switches.
//! Minimal routing: same leaf — up/down through the leaf; different
//! leaves — up to a spine (chosen deterministically per (src leaf, dst
//! leaf) pair, an ECMP surrogate) and down. Hop distances are therefore
//! 2 within a leaf and 4 across leaves.

use crate::{Interconnect, Link, LinkClass, LinkIx, NodeId, Route};

/// Shape and capacities of a fat-tree machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTreeParams {
    /// Leaf switches.
    pub leaves: usize,
    /// Compute nodes per leaf.
    pub nodes_per_leaf: usize,
    /// Spine switches.
    pub spines: usize,
    /// Node <-> leaf link bandwidth, bytes/s (e.g. EDR ~ 12 GB/s).
    pub edge_bw: f64,
    /// Leaf <-> spine link bandwidth, bytes/s.
    pub uplink_bw: f64,
    /// Per-hop latency, seconds.
    pub hop_latency: f64,
}

/// A two-level fat-tree.
#[derive(Debug, Clone)]
pub struct FatTree {
    p: FatTreeParams,
}

impl FatTree {
    /// Build a fat-tree.
    ///
    /// # Panics
    /// Panics on zero extents or non-positive bandwidths.
    pub fn new(p: FatTreeParams) -> Self {
        assert!(p.leaves >= 1 && p.nodes_per_leaf >= 1 && p.spines >= 1);
        assert!(p.edge_bw > 0.0 && p.uplink_bw > 0.0 && p.hop_latency >= 0.0);
        Self { p }
    }

    /// Machine parameters.
    pub fn params(&self) -> &FatTreeParams {
        &self.p
    }

    /// Leaf switch of a node.
    #[inline]
    pub fn leaf_of(&self, node: NodeId) -> usize {
        node / self.p.nodes_per_leaf
    }

    /// Deterministic spine for traffic between two leaves (ECMP
    /// surrogate: spreads pairs over spines, symmetric in direction).
    pub fn spine_for(&self, leaf_a: usize, leaf_b: usize) -> usize {
        let (lo, hi) = if leaf_a < leaf_b { (leaf_a, leaf_b) } else { (leaf_b, leaf_a) };
        (lo.wrapping_mul(31).wrapping_add(hi.wrapping_mul(17))) % self.p.spines
    }

    // ---- dense link index layout -------------------------------------
    // [0, 2N)                edge links (node*2 + dir; 0 = up, 1 = down)
    // [2N, 2N + 2*L*S)       uplinks (leaf*spines + spine)*2 + dir

    #[inline]
    fn edge_ix(&self, node: NodeId, dir: usize) -> LinkIx {
        node * 2 + dir
    }

    #[inline]
    fn uplink_ix(&self, leaf: usize, spine: usize, dir: usize) -> LinkIx {
        self.num_nodes() * 2 + (leaf * self.p.spines + spine) * 2 + dir
    }
}

impl Interconnect for FatTree {
    fn num_nodes(&self) -> usize {
        self.p.leaves * self.p.nodes_per_leaf
    }

    fn num_links(&self) -> usize {
        self.num_nodes() * 2 + self.p.leaves * self.p.spines * 2
    }

    fn link(&self, ix: LinkIx) -> Link {
        let edges = self.num_nodes() * 2;
        if ix < edges {
            Link { capacity: self.p.edge_bw, class: LinkClass::Injection }
        } else {
            assert!(ix < self.num_links(), "link index {ix} out of range");
            Link { capacity: self.p.uplink_bw, class: LinkClass::IntraGroup }
        }
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        if src == dst {
            return Route::default();
        }
        let (ls, ld) = (self.leaf_of(src), self.leaf_of(dst));
        let mut links = Vec::with_capacity(4);
        links.push(self.edge_ix(src, 0));
        if ls != ld {
            let spine = self.spine_for(ls, ld);
            links.push(self.uplink_ix(ls, spine, 0));
            links.push(self.uplink_ix(ld, spine, 1));
        }
        links.push(self.edge_ix(dst, 1));
        Route { links }
    }

    fn hop_distance(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            0
        } else if self.leaf_of(src) == self.leaf_of(dst) {
            2
        } else {
            4
        }
    }

    fn hop_latency(&self) -> f64 {
        self.p.hop_latency
    }

    /// Edge links always; the two uplinks when the leaves differ.
    fn path_bandwidth(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            f64::INFINITY
        } else if self.leaf_of(src) == self.leaf_of(dst) {
            self.p.edge_bw
        } else {
            self.p.edge_bw.min(self.p.uplink_bw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GIB;

    fn tiny() -> FatTree {
        FatTree::new(FatTreeParams {
            leaves: 4,
            nodes_per_leaf: 8,
            spines: 2,
            edge_bw: 12.0 * GIB as f64,
            uplink_bw: 24.0 * GIB as f64,
            hop_latency: 1e-6,
        })
    }

    #[test]
    fn shape_counts() {
        let f = tiny();
        assert_eq!(f.num_nodes(), 32);
        assert_eq!(f.num_links(), 64 + 16);
    }

    #[test]
    fn route_hops_match_distance() {
        let f = tiny();
        for s in 0..f.num_nodes() {
            for t in 0..f.num_nodes() {
                assert_eq!(f.route(s, t).hops(), f.hop_distance(s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn same_leaf_stays_local() {
        let f = tiny();
        let r = f.route(0, 7);
        assert_eq!(r.hops(), 2);
        assert!(r.links.iter().all(|&l| f.link(l).class == LinkClass::Injection));
    }

    #[test]
    fn cross_leaf_uses_one_spine() {
        let f = tiny();
        let r = f.route(0, 31);
        assert_eq!(r.hops(), 4);
        let uplinks = r
            .links
            .iter()
            .filter(|&&l| f.link(l).class == LinkClass::IntraGroup)
            .count();
        assert_eq!(uplinks, 2);
    }

    #[test]
    fn ecmp_spreads_leaf_pairs() {
        let f = tiny();
        let spines: std::collections::HashSet<usize> = (0..4)
            .flat_map(|a| (0..4).filter(move |&b| a != b).map(move |b| (a, b)))
            .map(|(a, b)| f.spine_for(a, b))
            .collect();
        assert_eq!(spines.len(), 2, "both spines carry traffic");
        // symmetric
        assert_eq!(f.spine_for(1, 3), f.spine_for(3, 1));
    }

    #[test]
    fn link_indices_in_range_and_distinct_per_route() {
        let f = tiny();
        let r = f.route(3, 29);
        let mut ls = r.links.clone();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), r.links.len());
        assert!(r.links.iter().all(|&l| l < f.num_links()));
    }
}
