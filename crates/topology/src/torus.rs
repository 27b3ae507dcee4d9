//! N-dimensional torus interconnect with dimension-ordered routing,
//! modelling the IBM Blue Gene/Q 5D torus ("Mira" in the paper).
//!
//! BG/Q specifics reproduced here (paper Sec. II-A and Fig. 4):
//!
//! * nodes are partitioned into **Psets** of 128 consecutive nodes sharing
//!   one I/O node;
//! * two nodes per Pset — the **bridge nodes** — own a dedicated 1.8 GB/s
//!   link to the I/O node (`LinkClass::IoForward`);
//! * torus links run at 2 GB/s (Fig. 4 of the paper).
//!
//! Routing is deterministic dimension-ordered (the BG/Q default): traverse
//! dimensions in order, taking the shorter way around each ring.

use crate::coords::CoordSpace;
use crate::{Interconnect, Link, LinkClass, LinkIx, NodeId, Route};

/// Pset (I/O partition) configuration for a torus machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsetConfig {
    /// Compute nodes per Pset (128 on Mira).
    pub nodes_per_pset: usize,
    /// Bridge nodes per Pset (2 on Mira).
    pub bridge_nodes: usize,
    /// Capacity of each bridge-node -> I/O-node link, bytes/s.
    pub bridge_link_bw: f64,
}

/// An N-dimensional torus with optional Pset I/O structure.
#[derive(Debug, Clone)]
pub struct Torus {
    space: CoordSpace,
    link_bw: f64,
    hop_latency: f64,
    pset: Option<PsetConfig>,
    /// Precomputed bridge node ids per Pset (ascending).
    bridges: Vec<Vec<NodeId>>,
}

impl Torus {
    /// Build a torus with the given per-dimension extents.
    ///
    /// `link_bw` is the capacity of every torus link in bytes/s and
    /// `hop_latency` the per-hop latency in seconds.
    pub fn new(dims: &[usize], link_bw: f64, hop_latency: f64) -> Self {
        assert!(link_bw > 0.0 && hop_latency >= 0.0);
        Self {
            space: CoordSpace::new(dims),
            link_bw,
            hop_latency,
            pset: None,
            bridges: Vec::new(),
        }
    }

    /// Attach Pset I/O structure (consumes and returns `self` for chaining).
    ///
    /// Bridge nodes are spread evenly inside each Pset: node
    /// `pset_start + k * nodes_per_pset / bridge_nodes` for each `k`.
    ///
    /// # Panics
    /// Panics unless `nodes_per_pset` divides the node count and
    /// `bridge_nodes <= nodes_per_pset`.
    pub fn with_psets(mut self, cfg: PsetConfig) -> Self {
        let n = self.space.len();
        assert!(cfg.nodes_per_pset > 0 && n.is_multiple_of(cfg.nodes_per_pset),
                "nodes_per_pset {} must divide node count {}", cfg.nodes_per_pset, n);
        assert!(cfg.bridge_nodes >= 1 && cfg.bridge_nodes <= cfg.nodes_per_pset);
        assert!(cfg.bridge_link_bw > 0.0);
        let num_psets = n / cfg.nodes_per_pset;
        let stride = cfg.nodes_per_pset / cfg.bridge_nodes;
        self.bridges = (0..num_psets)
            .map(|p| {
                (0..cfg.bridge_nodes)
                    .map(|k| p * cfg.nodes_per_pset + k * stride)
                    .collect()
            })
            .collect();
        self.pset = Some(cfg);
        self
    }

    /// The coordinate space of the torus.
    pub fn space(&self) -> &CoordSpace {
        &self.space
    }

    /// Pset configuration, if attached.
    pub fn pset_config(&self) -> Option<&PsetConfig> {
        self.pset.as_ref()
    }

    /// Number of Psets (0 when no Pset structure is attached).
    pub fn num_psets(&self) -> usize {
        self.bridges.len()
    }

    /// Pset index of a node.
    ///
    /// # Panics
    /// Panics when no Pset structure is attached.
    pub fn pset_of(&self, node: NodeId) -> usize {
        let cfg = self.pset.expect("torus has no Pset structure");
        node / cfg.nodes_per_pset
    }

    /// Bridge node ids of a Pset, ascending.
    pub fn bridge_nodes(&self, pset: usize) -> &[NodeId] {
        &self.bridges[pset]
    }

    /// Number of torus links (excludes I/O forward links).
    fn num_torus_links(&self) -> usize {
        self.space.len() * self.space.ndims() * 2
    }

    /// Dense index of the torus link leaving `node` along `dim` in
    /// direction `dir` (0 = `+`, 1 = `-`).
    #[inline]
    fn torus_link_ix(&self, node: NodeId, dim: usize, dir: usize) -> LinkIx {
        (node * self.space.ndims() + dim) * 2 + dir
    }

    /// Dense index of the I/O forward link of bridge `b` in Pset `p`.
    ///
    /// # Panics
    /// Panics when no Pset structure is attached.
    pub fn io_link_ix(&self, pset: usize, bridge: usize) -> LinkIx {
        let cfg = self.pset.expect("torus has no Pset structure");
        assert!(bridge < cfg.bridge_nodes);
        self.num_torus_links() + pset * cfg.bridge_nodes + bridge
    }

    /// Nearest bridge node of `node`'s own Pset (ties -> lower node id),
    /// together with its index inside the Pset's bridge list.
    pub fn nearest_bridge(&self, node: NodeId) -> (NodeId, usize) {
        let p = self.pset_of(node);
        let mut best = (u32::MAX, 0usize, 0 as NodeId);
        for (k, &b) in self.bridges[p].iter().enumerate() {
            let d = self.hop_distance(node, b);
            if d < best.0 {
                best = (d, k, b);
            }
        }
        (best.2, best.1)
    }

    /// Route from `node` to the I/O node of its Pset: torus hops to the
    /// nearest bridge node, then the bridge's I/O forward link.
    pub fn io_route(&self, node: NodeId) -> Route {
        let mut r = Route::default();
        self.io_route_into(node, &mut r.links);
        r
    }

    /// Append the links of [`Self::io_route`] to `out`.
    pub fn io_route_into(&self, node: NodeId, out: &mut Vec<LinkIx>) {
        let p = self.pset_of(node);
        let (bridge, k) = self.nearest_bridge(node);
        self.route_links(node, bridge, out);
        out.push(self.io_link_ix(p, k));
    }

    /// Append the dimension-ordered route `src -> dst` to `links`.
    fn route_links(&self, src: NodeId, dst: NodeId, links: &mut Vec<LinkIx>) {
        let nd = self.space.ndims();
        let mut cur = self.space.coords_of(src);
        let dstc = self.space.coords_of(dst);
        for d in 0..nd {
            let delta = self.space.ring_delta(d, cur[d], dstc[d]);
            let (steps, dir) = if delta >= 0 {
                (delta as usize, 0)
            } else {
                ((-delta) as usize, 1)
            };
            let extent = self.space.dims()[d];
            for _ in 0..steps {
                let node = self.space.coords_to_id(&cur);
                links.push(self.torus_link_ix(node, d, dir));
                cur[d] = if dir == 0 {
                    (cur[d] + 1) % extent
                } else {
                    (cur[d] + extent - 1) % extent
                };
            }
        }
        debug_assert_eq!(cur, dstc);
    }

    /// Hop distance from a node to its Pset's I/O node
    /// (torus distance to the nearest bridge + 1 forward hop).
    pub fn io_distance(&self, node: NodeId) -> u32 {
        let (bridge, _) = self.nearest_bridge(node);
        self.hop_distance(node, bridge) + 1
    }
}

impl Interconnect for Torus {
    fn num_nodes(&self) -> usize {
        self.space.len()
    }

    fn num_links(&self) -> usize {
        let io = self
            .pset
            .map(|c| self.bridges.len() * c.bridge_nodes)
            .unwrap_or(0);
        self.num_torus_links() + io
    }

    fn link(&self, ix: LinkIx) -> Link {
        let nt = self.num_torus_links();
        if ix < nt {
            Link { capacity: self.link_bw, class: LinkClass::Torus }
        } else {
            let cfg = self.pset.expect("I/O link index without Pset structure");
            assert!(ix < self.num_links(), "link index {ix} out of range");
            Link { capacity: cfg.bridge_link_bw, class: LinkClass::IoForward }
        }
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        let mut links = Vec::new();
        self.route_links(src, dst, &mut links);
        Route { links }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkIx>) {
        self.route_links(src, dst, out);
    }

    fn hop_distance(&self, src: NodeId, dst: NodeId) -> u32 {
        debug_assert!(src < self.space.len() && dst < self.space.len());
        // Peel the row-major coordinates off both ids from the last
        // (stride-1) dimension up: no coordinate vectors are built.
        let (mut a, mut b) = (src, dst);
        let mut hops = 0;
        for &n in self.space.dims().iter().rev() {
            let (ca, cb) = (a % n, b % n);
            a /= n;
            b /= n;
            let fwd = if cb >= ca { cb - ca } else { cb + n - ca };
            hops += fwd.min(n - fwd);
        }
        hops as u32
    }

    fn hop_latency(&self) -> f64 {
        self.hop_latency
    }

    /// Every link between two distinct nodes is a torus link.
    fn path_bandwidth(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            f64::INFINITY
        } else {
            self.link_bw
        }
    }
}

/// Realistic BG/Q-style 5D torus shapes for the node counts used in the
/// paper's evaluation (a midplane is 4x4x4x4x2 = 512 nodes), up to the
/// whole of Mira: 48 racks, 49,152 nodes, 8x12x16x16x2.
///
/// Returns `None` for unsupported counts.
pub fn bgq_dims_for_nodes(nodes: usize) -> Option<[usize; 5]> {
    match nodes {
        128 => Some([2, 4, 4, 2, 2]),
        256 => Some([4, 4, 4, 2, 2]),
        512 => Some([4, 4, 4, 4, 2]),
        1024 => Some([8, 4, 4, 4, 2]),
        2048 => Some([8, 8, 4, 4, 2]),
        4096 => Some([8, 8, 8, 4, 2]),
        8192 => Some([8, 8, 8, 8, 2]),
        16384 => Some([4, 8, 16, 16, 2]),
        24576 => Some([4, 12, 16, 16, 2]),
        32768 => Some([8, 8, 16, 16, 2]),
        49152 => Some([8, 12, 16, 16, 2]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GIB;

    fn small() -> Torus {
        Torus::new(&[4, 4, 2], 2.0 * GIB as f64, 600e-9)
    }

    #[test]
    fn distance_symmetry_and_triangle() {
        let t = small();
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
                for c in [0, 7, 13] {
                    assert!(
                        t.hop_distance(a, b) <= t.hop_distance(a, c) + t.hop_distance(c, b),
                        "triangle inequality violated"
                    );
                }
            }
        }
    }

    #[test]
    fn route_length_matches_distance() {
        let t = small();
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert_eq!(t.route(a, b).hops(), t.hop_distance(a, b));
            }
        }
    }

    #[test]
    fn route_links_in_range_and_distinct() {
        let t = small();
        let r = t.route(0, t.num_nodes() - 1);
        for &l in &r.links {
            assert!(l < t.num_links());
        }
        let mut ls = r.links.clone();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), r.links.len(), "minimal route repeats a link");
    }

    #[test]
    fn self_route_empty() {
        let t = small();
        assert_eq!(t.route(5, 5).hops(), 0);
        assert_eq!(t.hop_distance(5, 5), 0);
    }

    #[test]
    fn wraparound_is_used() {
        let t = Torus::new(&[8], 1.0, 1e-9);
        assert_eq!(t.hop_distance(0, 7), 1);
        assert_eq!(t.route(0, 7).hops(), 1);
    }

    #[test]
    fn pset_structure() {
        let t = Torus::new(&[4, 4, 4, 4, 2], 2.0 * GIB as f64, 600e-9).with_psets(PsetConfig {
            nodes_per_pset: 128,
            bridge_nodes: 2,
            bridge_link_bw: 1.8 * GIB as f64,
        });
        assert_eq!(t.num_psets(), 4);
        assert_eq!(t.pset_of(0), 0);
        assert_eq!(t.pset_of(127), 0);
        assert_eq!(t.pset_of(128), 1);
        assert_eq!(t.bridge_nodes(0), &[0, 64]);
        assert_eq!(t.bridge_nodes(3), &[384, 448]);
    }

    #[test]
    fn io_route_ends_on_forward_link() {
        let t = Torus::new(&[4, 4, 4, 4, 2], 2.0 * GIB as f64, 600e-9).with_psets(PsetConfig {
            nodes_per_pset: 128,
            bridge_nodes: 2,
            bridge_link_bw: 1.8 * GIB as f64,
        });
        for node in [0usize, 5, 77, 127, 130, 511] {
            let r = t.io_route(node);
            let last = *r.links.last().unwrap();
            assert_eq!(t.link(last).class, LinkClass::IoForward);
            assert_eq!(r.hops(), t.io_distance(node));
            // bridge node itself: exactly one hop (the forward link)
        }
        assert_eq!(t.io_distance(0), 1); // node 0 is a bridge
        assert_eq!(t.io_distance(64), 1); // node 64 is the second bridge
    }

    #[test]
    fn io_links_have_distinct_indices() {
        let t = Torus::new(&[4, 4, 4, 4, 2], 1.0, 1e-9).with_psets(PsetConfig {
            nodes_per_pset: 128,
            bridge_nodes: 2,
            bridge_link_bw: 1.0,
        });
        let mut seen = std::collections::HashSet::new();
        for p in 0..t.num_psets() {
            for b in 0..2 {
                let ix = t.io_link_ix(p, b);
                assert!(ix >= t.num_nodes() * 5 * 2);
                assert!(ix < t.num_links());
                assert!(seen.insert(ix));
            }
        }
    }

    #[test]
    fn bgq_shapes_multiply_out() {
        for n in [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 24576, 32768, 49152] {
            let d = bgq_dims_for_nodes(n).unwrap();
            assert_eq!(d.iter().product::<usize>(), n);
        }
        assert!(bgq_dims_for_nodes(123).is_none());
    }

    #[test]
    fn path_bandwidth_is_min_capacity() {
        let t = small();
        assert_eq!(t.path_bandwidth(0, 1), 2.0 * GIB as f64);
        assert!(t.path_bandwidth(3, 3).is_infinite());
    }
}
