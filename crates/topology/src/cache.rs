//! Memoized node-level metric tables for aggregator placement.
//!
//! The placement cost model only ever asks a topology for hop distance,
//! path bandwidth, and I/O-node metrics — and under the block rank
//! mapping documented on [`TopologyProvider::ranks_per_node`] every one
//! of those quantities depends on the *node* hosting a rank, never on
//! the rank itself (co-located ranks are 0 hops apart and communicate at
//! intra-node bandwidth; cross-node pairs route between the two nodes).
//! A cost evaluation over P ranks spread across N nodes therefore needs
//! at most N² metric computations instead of P². The election and the
//! autotuner both read a dense per-partition table instead
//! (`tapioca::placement`); this lazy memo's only remaining caller is
//! `benchmark/src/probes.rs`, and it goes when that probe moves to the
//! election's cost vector (ROADMAP item 22).
//!
//! The cache is caller-owned, lazy, and strategy-agnostic:
//!
//! * entries are computed on first use via a representative rank of each
//!   node (`node * ranks_per_node`, valid under the block mapping);
//! * entries are valid for the lifetime of one topology object — the
//!   cache stores no reference to the provider, so the caller must
//!   [`NodeMetricCache::clear`] (or drop) it when switching machines;
//! * there is no invalidation beyond `clear`: the modelled fabrics are
//!   immutable, so a (node, node) or (node, io) key can never go stale
//!   while the same provider is in use.
//!
//! Keys are directed — `B(i -> A)` is not required to be symmetric by
//! the provider contract even though every fabric in this crate is.

use std::collections::HashMap;

use crate::provider::{IoNodeId, TopologyProvider};
use crate::{NodeId, Rank};

/// Distance/bandwidth between a (source node, destination node) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMetrics {
    /// Hop distance `d` (0 for `src == dst`).
    pub dist: u32,
    /// Path bandwidth `B(src -> dst)`, bytes/s (intra-node bandwidth for
    /// `src == dst`).
    pub bw: f64,
}

/// Distance/bandwidth from a node towards an I/O node; `None` when the
/// machine cannot locate its I/O nodes (Theta).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoMetrics {
    /// Hop distance to the I/O node, if known.
    pub dist: Option<u32>,
    /// Bandwidth towards the I/O node, bytes/s, if known.
    pub bw: Option<f64>,
}

/// Lazy memo table of node-pair and node-to-I/O metrics.
#[derive(Debug, Default)]
pub struct NodeMetricCache {
    pairs: HashMap<(NodeId, NodeId), PairMetrics>,
    ios: HashMap<(NodeId, IoNodeId), IoMetrics>,
}

impl NodeMetricCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every entry. Required when the cache is reused with a
    /// different topology object.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.ios.clear();
    }

    /// Number of memoized entries (pair + I/O), mostly for tests.
    pub fn len(&self) -> usize {
        self.pairs.len() + self.ios.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty() && self.ios.is_empty()
    }

    /// Representative rank of a node under the block mapping.
    #[inline]
    fn rep_rank(topo: &dyn TopologyProvider, node: NodeId) -> Rank {
        node * topo.ranks_per_node()
    }

    /// Metrics for messages from a rank on `src` to a rank on `dst`.
    pub fn pair(&mut self, topo: &dyn TopologyProvider, src: NodeId, dst: NodeId) -> PairMetrics {
        *self.pairs.entry((src, dst)).or_insert_with(|| {
            let a = Self::rep_rank(topo, src);
            let b = Self::rep_rank(topo, dst);
            PairMetrics {
                dist: topo.distance_between_ranks(a, b),
                bw: topo.bandwidth_between_ranks(a, b),
            }
        })
    }

    /// Metrics from a rank on `node` towards I/O node `io`.
    pub fn io(&mut self, topo: &dyn TopologyProvider, node: NodeId, io: IoNodeId) -> IoMetrics {
        *self.ios.entry((node, io)).or_insert_with(|| {
            let r = Self::rep_rank(topo, node);
            IoMetrics { dist: topo.distance_to_io_node(r, io), bw: topo.bandwidth_to_io_node(r, io) }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{mira_profile, theta_profile};

    #[test]
    fn pair_metrics_match_rank_queries_for_every_rank_on_the_nodes() {
        let m = mira_profile(128, 4).machine;
        let mut cache = NodeMetricCache::new();
        let pm = cache.pair(&m, 3, 17);
        for sr in 0..4 {
            for dr in 0..4 {
                let s = 3 * 4 + sr;
                let d = 17 * 4 + dr;
                assert_eq!(pm.dist, m.distance_between_ranks(s, d));
                assert_eq!(pm.bw, m.bandwidth_between_ranks(s, d));
            }
        }
    }

    #[test]
    fn same_node_pair_is_intra_node() {
        let m = mira_profile(128, 4).machine;
        let mut cache = NodeMetricCache::new();
        let pm = cache.pair(&m, 5, 5);
        assert_eq!(pm.dist, 0);
        assert_eq!(pm.bw, m.bandwidth_between_ranks(20, 21));
    }

    #[test]
    fn io_metrics_are_none_on_theta() {
        let t = theta_profile(32, 4).machine;
        let mut cache = NodeMetricCache::new();
        let im = cache.io(&t, 0, 0);
        assert_eq!(im.dist, None);
        assert_eq!(im.bw, None);
    }

    #[test]
    fn entries_are_memoized_and_clearable() {
        let m = mira_profile(128, 4).machine;
        let mut cache = NodeMetricCache::new();
        assert!(cache.is_empty());
        cache.pair(&m, 0, 1);
        cache.pair(&m, 0, 1);
        cache.io(&m, 0, 0);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }
}
