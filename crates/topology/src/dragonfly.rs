//! Dragonfly interconnect with minimal routing, modelling the Cray XC40
//! Aries network of "Theta" (paper Sec. II-A and Fig. 5).
//!
//! Structure reproduced from the paper:
//!
//! * routers are organized in **groups**; inside a group they form a
//!   **2D all-to-all**: every router links to all routers in its row
//!   (16 across, "level 1") and all routers in its column (6 down,
//!   "level 2") over 14 GB/s electrical links;
//! * groups are connected all-to-all by 12.5 GB/s optical links
//!   ("level 3");
//! * each Aries router hosts 4 KNL nodes (injection ports).
//!
//! Minimal routing therefore uses at most 3 router-to-router hops:
//! up to 2 electrical to reach the source-side gateway, 1 optical, and
//! up to 2 electrical on the far side (plus injection/ejection). The
//! paper's statement "the minimal distance from one node to another is at
//! most three hops" refers to the electrical+optical router hops of a
//! *direct* route; we enumerate every traversed link explicitly.

use crate::{Interconnect, Link, LinkClass, LinkIx, NodeId, Route};

/// Shape and capacities of a dragonfly machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DragonflyParams {
    /// Number of groups (9 two-cabinet groups on Theta).
    pub groups: usize,
    /// Routers per group along "level 1" (16 on Theta).
    pub cols: usize,
    /// Routers per group along "level 2" (6 on Theta).
    pub rows: usize,
    /// Compute nodes per router (4 on Theta).
    pub nodes_per_router: usize,
    /// Node <-> router injection bandwidth, bytes/s.
    pub injection_bw: f64,
    /// Electrical intra-group link bandwidth, bytes/s (14 GB/s).
    pub electrical_bw: f64,
    /// Aggregate optical bandwidth between each pair of groups, bytes/s.
    ///
    /// Theta has several parallel 12.5 GB/s optical links per group pair;
    /// we model their aggregate as one fat link.
    pub optical_bw: f64,
    /// Per-hop latency, seconds.
    pub hop_latency: f64,
}

/// A dragonfly interconnect.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    p: DragonflyParams,
}

impl Dragonfly {
    /// Build a dragonfly.
    ///
    /// # Panics
    /// Panics on zero extents or non-positive bandwidths.
    pub fn new(p: DragonflyParams) -> Self {
        assert!(p.groups >= 1 && p.cols >= 1 && p.rows >= 1 && p.nodes_per_router >= 1);
        assert!(p.injection_bw > 0.0 && p.electrical_bw > 0.0 && p.optical_bw > 0.0);
        assert!(p.hop_latency >= 0.0);
        Self { p }
    }

    /// Machine parameters.
    pub fn params(&self) -> &DragonflyParams {
        &self.p
    }

    /// Routers per group.
    #[inline]
    pub fn routers_per_group(&self) -> usize {
        self.p.cols * self.p.rows
    }

    /// Total number of routers.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.p.groups * self.routers_per_group()
    }

    /// Global router index hosting `node`.
    #[inline]
    pub fn router_of(&self, node: NodeId) -> usize {
        node / self.p.nodes_per_router
    }

    /// Group of `node`.
    #[inline]
    pub fn group_of(&self, node: NodeId) -> usize {
        self.router_of(node) / self.routers_per_group()
    }

    /// (row, col) of a global router index within its group.
    #[inline]
    fn router_rc(&self, router: usize) -> (usize, usize) {
        let local = router % self.routers_per_group();
        (local / self.p.cols, local % self.p.cols)
    }

    /// Global router index from (group, row, col).
    #[inline]
    fn router_at(&self, group: usize, row: usize, col: usize) -> usize {
        group * self.routers_per_group() + row * self.p.cols + col
    }

    /// Deterministic gateway router in `src_group` for traffic towards
    /// `dst_group`. Spread pseudo-irregularly across the group, mirroring
    /// the "irregular mapping" of Aries global links.
    pub fn gateway(&self, src_group: usize, dst_group: usize) -> usize {
        debug_assert_ne!(src_group, dst_group);
        let r = self.routers_per_group();
        let local = (dst_group.wrapping_mul(17) ^ src_group.wrapping_mul(5)) % r;
        src_group * r + local
    }

    // ---- dense link index layout -------------------------------------
    // [0, 2N)                        injection (node*2 + dir)
    // [2N, 2N + R*deg)               electrical (router * deg + slot)
    // [2N + R*deg, +G*(G-1))         optical (ordered group pairs)

    #[inline]
    fn intra_degree(&self) -> usize {
        (self.p.cols - 1) + (self.p.rows - 1)
    }

    #[inline]
    fn injection_links(&self) -> usize {
        self.num_nodes() * 2
    }

    #[inline]
    fn electrical_links(&self) -> usize {
        self.num_routers() * self.intra_degree()
    }

    /// Link from `node` to its router (`dir = 0`) or back (`dir = 1`).
    #[inline]
    fn injection_ix(&self, node: NodeId, dir: usize) -> LinkIx {
        node * 2 + dir
    }

    /// Directed electrical link `src_router -> dst_router` (same row or
    /// same column of the same group).
    fn electrical_ix(&self, src_router: usize, dst_router: usize) -> LinkIx {
        let (sr, sc) = self.router_rc(src_router);
        let (dr, dc) = self.router_rc(dst_router);
        debug_assert_eq!(
            src_router / self.routers_per_group(),
            dst_router / self.routers_per_group()
        );
        let slot = if sr == dr {
            debug_assert_ne!(sc, dc);
            if dc < sc { dc } else { dc - 1 }
        } else {
            debug_assert_eq!(sc, dc, "electrical link must share a row or column");
            (self.p.cols - 1) + if dr < sr { dr } else { dr - 1 }
        };
        self.injection_links() + src_router * self.intra_degree() + slot
    }

    /// Directed optical link between two groups.
    fn optical_ix(&self, src_group: usize, dst_group: usize) -> LinkIx {
        debug_assert_ne!(src_group, dst_group);
        let g = self.p.groups;
        let slot = if dst_group < src_group { dst_group } else { dst_group - 1 };
        self.injection_links() + self.electrical_links() + src_group * (g - 1) + slot
    }

    /// Append the minimal electrical route `src_router -> dst_router`
    /// (same group) to `out`. 0, 1, or 2 links.
    fn push_intra_route(&self, src_router: usize, dst_router: usize, out: &mut Vec<LinkIx>) {
        if src_router == dst_router {
            return;
        }
        let (sr, sc) = self.router_rc(src_router);
        let (dr, dc) = self.router_rc(dst_router);
        let group = src_router / self.routers_per_group();
        if sr == dr || sc == dc {
            out.push(self.electrical_ix(src_router, dst_router));
        } else {
            // corner route: same row first, then same column
            let mid = self.router_at(group, sr, dc);
            out.push(self.electrical_ix(src_router, mid));
            out.push(self.electrical_ix(mid, dst_router));
        }
    }

    /// Append the minimal route `src -> dst` to `links`.
    fn route_links(&self, src: NodeId, dst: NodeId, links: &mut Vec<LinkIx>) {
        if src == dst {
            return;
        }
        let rs = self.router_of(src);
        let rt = self.router_of(dst);
        links.push(self.injection_ix(src, 0));
        if rs != rt {
            let gs = self.group_of(src);
            let gt = self.group_of(dst);
            if gs == gt {
                self.push_intra_route(rs, rt, links);
            } else {
                let gw_s = self.gateway(gs, gt);
                let gw_t = self.gateway(gt, gs);
                self.push_intra_route(rs, gw_s, links);
                links.push(self.optical_ix(gs, gt));
                self.push_intra_route(gw_t, rt, links);
            }
        }
        links.push(self.injection_ix(dst, 1));
    }

    /// Router-level hop count of the minimal intra-group route.
    fn intra_hops(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        let (ar, ac) = self.router_rc(a);
        let (br, bc) = self.router_rc(b);
        if ar == br || ac == bc {
            1
        } else {
            2
        }
    }
}

impl Interconnect for Dragonfly {
    fn num_nodes(&self) -> usize {
        self.num_routers() * self.p.nodes_per_router
    }

    fn num_links(&self) -> usize {
        self.injection_links() + self.electrical_links() + self.p.groups * (self.p.groups - 1)
    }

    fn link(&self, ix: LinkIx) -> Link {
        let inj = self.injection_links();
        let ele = self.electrical_links();
        if ix < inj {
            Link { capacity: self.p.injection_bw, class: LinkClass::Injection }
        } else if ix < inj + ele {
            Link { capacity: self.p.electrical_bw, class: LinkClass::IntraGroup }
        } else {
            assert!(ix < self.num_links(), "link index {ix} out of range");
            Link { capacity: self.p.optical_bw, class: LinkClass::InterGroup }
        }
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        let mut links = Vec::with_capacity(7);
        self.route_links(src, dst, &mut links);
        Route { links }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkIx>) {
        self.route_links(src, dst, out);
    }

    fn hop_distance(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let rs = self.router_of(src);
        let rt = self.router_of(dst);
        if rs == rt {
            return 2; // inject + eject
        }
        let gs = self.group_of(src);
        let gt = self.group_of(dst);
        let router_hops = if gs == gt {
            self.intra_hops(rs, rt)
        } else {
            let gw_s = self.gateway(gs, gt);
            let gw_t = self.gateway(gt, gs);
            self.intra_hops(rs, gw_s) + 1 + self.intra_hops(gw_t, rt)
        };
        2 + router_hops
    }

    fn hop_latency(&self) -> f64 {
        self.p.hop_latency
    }

    /// Injection always; optical when the groups differ; electrical when
    /// the minimal route crosses a router-to-router link inside a group
    /// (not the case between two gateway routers of different groups).
    fn path_bandwidth(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            return f64::INFINITY;
        }
        let (rs, rt) = (self.router_of(src), self.router_of(dst));
        let mut bw = self.p.injection_bw;
        if rs != rt {
            let (gs, gt) = (self.group_of(src), self.group_of(dst));
            if gs != gt {
                bw = bw.min(self.p.optical_bw);
            }
            if gs == gt || rs != self.gateway(gs, gt) || rt != self.gateway(gt, gs) {
                bw = bw.min(self.p.electrical_bw);
            }
        }
        bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GIB;

    fn tiny() -> Dragonfly {
        Dragonfly::new(DragonflyParams {
            groups: 3,
            cols: 4,
            rows: 2,
            nodes_per_router: 2,
            injection_bw: 14.0 * GIB as f64,
            electrical_bw: 14.0 * GIB as f64,
            optical_bw: 12.5 * GIB as f64,
            hop_latency: 1e-6,
        })
    }

    #[test]
    fn shape_counts() {
        let d = tiny();
        assert_eq!(d.routers_per_group(), 8);
        assert_eq!(d.num_routers(), 24);
        assert_eq!(d.num_nodes(), 48);
        // 48*2 injection + 24*(3+1) electrical + 3*2 optical
        assert_eq!(d.num_links(), 96 + 96 + 6);
    }

    #[test]
    fn route_hops_match_distance() {
        let d = tiny();
        for s in 0..d.num_nodes() {
            for t in 0..d.num_nodes() {
                assert_eq!(d.route(s, t).hops(), d.hop_distance(s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn router_hops_at_most_five() {
        // 2 electrical + optical + 2 electrical is the worst minimal route
        let d = tiny();
        for s in 0..d.num_nodes() {
            for t in 0..d.num_nodes() {
                if s != t {
                    let h = d.hop_distance(s, t);
                    assert!((2..=2 + 5).contains(&h), "{s}->{t} = {h}");
                }
            }
        }
    }

    #[test]
    fn same_router_is_two_hops() {
        let d = tiny();
        assert_eq!(d.hop_distance(0, 1), 2);
        let r = d.route(0, 1);
        assert_eq!(r.links.len(), 2);
        assert_eq!(d.link(r.links[0]).class, LinkClass::Injection);
        assert_eq!(d.link(r.links[1]).class, LinkClass::Injection);
    }

    #[test]
    fn intra_group_routes_are_electrical() {
        let d = tiny();
        // nodes 0 and 6 are on routers 0 and 3: same row -> 1 electrical hop
        let r = d.route(0, 6);
        assert_eq!(d.link(r.links[1]).class, LinkClass::IntraGroup);
        assert!(r
            .links
            .iter()
            .all(|&l| d.link(l).class != LinkClass::InterGroup));
    }

    #[test]
    fn inter_group_route_crosses_exactly_one_optical() {
        let d = tiny();
        let s = 0; // group 0
        let t = d.num_nodes() - 1; // group 2
        let r = d.route(s, t);
        let optical = r
            .links
            .iter()
            .filter(|&&l| d.link(l).class == LinkClass::InterGroup)
            .count();
        assert_eq!(optical, 1);
    }

    #[test]
    fn link_indices_bijective_over_route_classes() {
        let d = tiny();
        // all electrical indices distinct
        let mut seen = std::collections::HashSet::new();
        for g in 0..3 {
            for r1 in 0..8 {
                for r2 in 0..8 {
                    let (a, b) = (g * 8 + r1, g * 8 + r2);
                    let (ar, ac) = d.router_rc(a);
                    let (br, bc) = d.router_rc(b);
                    if a != b && (ar == br || ac == bc) {
                        let ix = d.electrical_ix(a, b);
                        assert!(seen.insert(ix), "duplicate electrical index {ix}");
                        assert_eq!(d.link(ix).class, LinkClass::IntraGroup);
                    }
                }
            }
        }
    }

    #[test]
    fn gateway_stays_in_source_group() {
        let d = tiny();
        for gs in 0..3 {
            for gt in 0..3 {
                if gs != gt {
                    let gw = d.gateway(gs, gt);
                    assert_eq!(gw / d.routers_per_group(), gs);
                }
            }
        }
    }

    #[test]
    fn theta_scale_instantiates() {
        let d = Dragonfly::new(DragonflyParams {
            groups: 9,
            cols: 16,
            rows: 6,
            nodes_per_router: 4,
            injection_bw: 14.0 * GIB as f64,
            electrical_bw: 14.0 * GIB as f64,
            optical_bw: 4.0 * 12.5 * GIB as f64,
            hop_latency: 1e-6,
        });
        assert_eq!(d.num_nodes(), 3456);
        let r = d.route(0, 3455);
        assert!(r.hops() >= 3 && r.hops() <= 7);
    }
}
