//! The analytic cost model ω: a cheap, closed-form estimate of a
//! collective operation's elapsed time under a candidate configuration.
//!
//! The model reproduces the structure of the paper's aggregation-cost
//! formula (Sec. IV-B): the aggregation phase pays
//! `Σ_i l·d(i, A) + ω(i, A)/B(i → A)` into each aggregator plus
//! `l·d(A, IO) + ω(A, IO)/B(A → IO)` out of it, and the I/O phase pays
//! the storage backend's service time. Every topology distance and path
//! bandwidth is read through the memoized [`NodeMetricCache`], folded
//! per node like the fast election path — an ω evaluation after
//! the one-time [`CostModel::new`] precomputation is pure arithmetic,
//! about six orders of magnitude cheaper than a `run_tapioca_sim` call.
//!
//! ω is used to *rank* candidates, not to predict absolute bandwidth:
//! the short-list it produces is confirmed in the simulator (see
//! [`crate::autotune::search`]), so the model only has to order
//! configurations roughly right for the search to converge.

use std::collections::HashMap;

use tapioca_pfs::{AccessMode, LockMode};
use tapioca_topology::{
    IoNodeId, MachineProfile, NodeId, NodeMetricCache, StorageProfile, TopologyProvider, GIB,
};

use crate::error::{Result, TapiocaError};
use crate::placement::PlacementStrategy;
use crate::sim_exec::{CollectiveSpec, StorageConfig};

/// Where aggregation buffers live and where flushes land — the tier
/// dimension of the search (the paper's Sec. VI one-to-many extension,
/// modelled by `tapioca-tiers`).
///
/// The base simulator has no tier stations, so this dimension is scored
/// and selected by ω alone; `tapioca-tiers::run_tiered_sim` is the
/// cross-check (exercised by `tunebench`). Constants mirror
/// `TierSpec::knl_default`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierAssignment {
    /// DRAM aggregation buffers, flushes straight to the PFS (the base
    /// library on every machine).
    DramDirect,
    /// MCDRAM aggregation buffers, direct PFS flushes (KNL machines).
    McdramDirect,
    /// MCDRAM buffers staged on the node-local burst buffer, drained to
    /// the PFS asynchronously; ω scores its *time-to-safe*.
    McdramBurstBuffer,
}

impl TierAssignment {
    /// Stable label for reports and golden tests.
    pub fn name(self) -> &'static str {
        match self {
            TierAssignment::DramDirect => "dram_direct",
            TierAssignment::McdramDirect => "mcdram_direct",
            TierAssignment::McdramBurstBuffer => "mcdram_burst_buffer",
        }
    }

    /// Per-node write bandwidth of the buffer tier, bytes/s (KNL DRAM
    /// at 90 GiB/s, MCDRAM at 400 GiB/s — `TierSpec::knl_default`).
    fn buffer_bw(self) -> f64 {
        match self {
            TierAssignment::DramDirect => 90.0 * GIB as f64,
            TierAssignment::McdramDirect | TierAssignment::McdramBurstBuffer => {
                400.0 * GIB as f64
            }
        }
    }

    /// Memory capacity bound for the double buffer, bytes.
    pub fn buffer_capacity(self) -> u64 {
        match self {
            TierAssignment::DramDirect => 192 * GIB,
            TierAssignment::McdramDirect | TierAssignment::McdramBurstBuffer => 16 * GIB,
        }
    }
}

/// One point of the search space: the four simulator-visible dimensions
/// plus the model-only tier assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Aggregator (= partition) count per file group.
    pub aggregators: usize,
    /// Aggregation buffer size, bytes.
    pub buffer_size: u64,
    /// Election strategy.
    pub strategy: PlacementStrategy,
    /// Double-buffered flush pipeline on/off.
    pub pipelining: bool,
    /// Intra-node put coalescing on/off. Model-scored only: the flow
    /// simulator already batches transfers per (round, source node), so
    /// its bandwidth is coalescing-invariant and the dimension is
    /// excluded from [`Candidate::sim_key`].
    pub coalescing: bool,
    /// Buffer/staging tier.
    pub tier: TierAssignment,
}

impl Candidate {
    /// Materialize the candidate as a [`crate::config::TapiocaConfig`],
    /// inheriting every non-tuned field (faults, I/O policy, tracer)
    /// from `base`.
    pub fn to_config(&self, base: &crate::config::TapiocaConfig) -> crate::config::TapiocaConfig {
        crate::config::TapiocaConfig {
            num_aggregators: self.aggregators,
            buffer_size: self.buffer_size,
            strategy: self.strategy,
            pipelining: self.pipelining,
            coalescing: self.coalescing,
            ..base.clone()
        }
    }

    /// Hash of the *simulator-visible* dimensions (tier and coalescing
    /// excluded): two candidates with equal keys produce bit-identical
    /// `run_tapioca_sim` results, which is the memoization contract of
    /// [`crate::autotune::cache::SimCache`]. Coalescing is excluded
    /// because the flow simulator batches per (round, source node)
    /// regardless — only ω and the thread executor see the difference.
    pub fn sim_key(&self) -> u64 {
        let strat = match self.strategy {
            PlacementStrategy::TopologyAware => 1u64,
            PlacementStrategy::RankOrder => 2,
            PlacementStrategy::ShortestPathToIo => 3,
            PlacementStrategy::WorstCase => 4,
            PlacementStrategy::Random { seed } => 5u64.wrapping_add(seed << 3),
        };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in [self.aggregators as u64, self.buffer_size, strat, self.pipelining as u64] {
            x ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = x.rotate_left(23).wrapping_mul(0x94D0_49BB_1331_11EB);
        }
        x ^ (x >> 29)
    }
}

/// Aggregation-time estimates per placement strategy: seconds for one
/// aggregator on the strategy's chosen node to absorb the *whole*
/// group's traffic (divided by the partition count at scoring time).
#[derive(Debug, Clone, Copy)]
struct StrategyTimes {
    topo_aware: f64,
    rank_order: f64,
    shortest_io: f64,
    worst_case: f64,
    mean: f64,
}

impl StrategyTimes {
    fn of(&self, strategy: PlacementStrategy) -> f64 {
        match strategy {
            PlacementStrategy::TopologyAware => self.topo_aware,
            PlacementStrategy::RankOrder => self.rank_order,
            PlacementStrategy::ShortestPathToIo => self.shortest_io,
            PlacementStrategy::WorstCase => self.worst_case,
            PlacementStrategy::Random { .. } => self.mean,
        }
    }
}

/// Precomputed facts about one file group.
#[derive(Debug)]
struct GroupFacts {
    /// File-span extent covered by the group's declarations, bytes.
    span: u64,
    /// Total payload bytes.
    bytes: f64,
    /// Members (for capping the useful aggregator count).
    ranks: usize,
    /// Mean co-located members per compute node — the merge factor an
    /// intra-node coalescing run can reach.
    rpn: f64,
    agg: StrategyTimes,
}

/// Storage-side facts shared by every group.
#[derive(Debug)]
enum StorageFacts {
    Lustre {
        stripe_count: usize,
        stripe_size: u64,
        shared_locks: bool,
        ost_write_bw: f64,
        ost_read_bw: f64,
        /// Total LNET ceiling across the modelled gateways, bytes/s.
        lnet_total_bw: f64,
    },
    Gpfs {
        block_size: u64,
        shared_locks: bool,
        /// Per-Pset service ceiling, bytes/s (min of ION link and GPFS
        /// service bandwidth).
        group_bw: f64,
    },
}

/// Lock-discipline penalty on flushes that are not a multiple of the
/// storage's lock granularity: misaligned flushes straddle stripe/block
/// boundaries, and under exclusive tokens every straddle pays a
/// revocation chain. Multiplies the I/O time.
fn align_penalty(buffer: u64, granule: u64, shared_locks: bool) -> f64 {
    let aligned =
        granule > 0 && (buffer.is_multiple_of(granule) || granule.is_multiple_of(buffer.max(1)));
    match (aligned, shared_locks) {
        (true, _) => 1.0,
        (false, true) => 1.3,
        (false, false) => 2.5,
    }
}

/// Number of LNET gateways the simulator models (`sim_exec`).
const MODEL_LNET_GATEWAYS: f64 = 8.0;

/// Node-local SSD write bandwidth (burst buffer), bytes/s.
const SSD_WRITE_BW: f64 = 2.0 * GIB as f64;

/// Cost of one intra-node gather deposit as a fraction of the network
/// injection latency: a shared-memory store plus a counter bump, far
/// below a NIC doorbell but not free.
const INTRA_DEPOSIT_FRACTION: f64 = 0.1;

/// The cost model: build once per `(profile, storage, spec)`, then call
/// [`CostModel::score`] per candidate.
#[derive(Debug)]
pub struct CostModel {
    latency: f64,
    mode: AccessMode,
    groups: Vec<GroupFacts>,
    storage: StorageFacts,
}

impl CostModel {
    /// Precompute per-group topology folds and storage facts. Cost is
    /// `O(Σ_g nodes(g)²)` memoized topology queries — paid once for the
    /// whole search, not per candidate.
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] when the storage config kind does
    /// not match the machine profile, or the spec has no groups.
    pub fn new(
        profile: &MachineProfile,
        storage: &StorageConfig,
        spec: &CollectiveSpec,
    ) -> Result<CostModel> {
        let storage_facts = match (&profile.storage, storage) {
            (
                StorageProfile::Lustre { total_osts: _, ost_write_bw, ost_read_bw, lnet_bw },
                StorageConfig::Lustre(tun),
            ) => StorageFacts::Lustre {
                stripe_count: tun.stripe_count,
                stripe_size: tun.stripe_size,
                shared_locks: tun.lock_mode == LockMode::Shared,
                ost_write_bw: *ost_write_bw,
                ost_read_bw: *ost_read_bw,
                lnet_total_bw: MODEL_LNET_GATEWAYS * *lnet_bw,
            },
            (
                StorageProfile::Gpfs { ion_link_bw, ion_service_bw },
                StorageConfig::Gpfs(tun),
            ) => StorageFacts::Gpfs {
                block_size: tun.block_size,
                shared_locks: tun.lock_mode == LockMode::Shared,
                group_bw: ion_link_bw.min(*ion_service_bw),
            },
            _ => {
                return Err(TapiocaError::InvalidConfig(
                    "storage config kind does not match the machine profile".into(),
                ))
            }
        };
        if spec.groups.is_empty() {
            return Err(TapiocaError::InvalidConfig("spec has no file groups to tune".into()));
        }

        let machine = &profile.machine;
        let mut cache = NodeMetricCache::new();
        let groups = spec.groups.iter().map(|g| group_facts(machine, &mut cache, g)).collect();
        Ok(CostModel {
            latency: machine.latency(),
            mode: spec.mode,
            groups,
            storage: storage_facts,
        })
    }

    /// ω(candidate): estimated elapsed seconds of the collective under
    /// the candidate configuration. Lower is better; `f64::INFINITY`
    /// marks an infeasible point (e.g. a double buffer that does not fit
    /// the tier).
    pub fn score(&self, cand: &Candidate) -> f64 {
        if cand.aggregators == 0 || cand.buffer_size == 0 {
            return f64::INFINITY;
        }
        if 2 * cand.buffer_size > cand.tier.buffer_capacity() {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for g in &self.groups {
            let t = self.score_group(g, cand);
            worst = worst.max(t);
        }
        worst
    }

    fn score_group(&self, g: &GroupFacts, cand: &Candidate) -> f64 {
        if g.bytes == 0.0 {
            return 0.0;
        }
        // Partition geometry mirrors `compute_schedule` with
        // `align_to_buffer`: the span splits into at most `aggregators`
        // buffer-aligned extents; small spans yield fewer partitions.
        let b = cand.buffer_size;
        let raw_extent = g.span.div_ceil(cand.aggregators as u64).max(1);
        let extent = raw_extent.div_ceil(b) * b;
        let parts = (g.span.div_ceil(extent) as usize).clamp(1, cand.aggregators.min(g.ranks));
        let rounds = extent.div_ceil(b).max(1);

        // Aggregation phase: the strategy's chosen-node fold, scaled to
        // this candidate's partition count, plus per-round fence latency
        // and the memory-side staging copy into the tier's buffers.
        let fence_overhead = rounds as f64 * 4.0 * self.latency;
        let copy = g.bytes / parts as f64 / cand.tier.buffer_bw();

        // Per-op latency of the write-plane window fill: every RMA put
        // pays one injection latency. Raw mode issues one put per member
        // per round. Coalescing folds each node's co-located members
        // into one merged put per round (a ~rpn× op reduction) but pays
        // an intra-node deposit per member plus one extra staging pass
        // through the leader's gather buffer — so it only wins when the
        // latency saved on many small puts beats the added copy, which
        // is exactly the high-ranks-per-node, small-chunk regime. Reads
        // drain through a different (uncoalesced) pipeline and carry no
        // such term.
        let members = (g.ranks as f64 / parts as f64).max(1.0);
        let t_ops = if self.mode != AccessMode::Write {
            0.0
        } else if cand.coalescing && g.rpn >= 2.0 {
            let wire = (members / g.rpn).ceil().max(1.0);
            rounds as f64
                * self.latency
                * (wire + members * INTRA_DEPOSIT_FRACTION)
                + g.bytes / parts as f64 / cand.tier.buffer_bw()
        } else {
            rounds as f64 * members * self.latency
        };
        let t_agg =
            g.agg.of(cand.strategy) / parts as f64 + fence_overhead + copy + t_ops;

        // I/O phase: backend service time for the group's bytes.
        let t_io = match &self.storage {
            StorageFacts::Lustre {
                stripe_count,
                stripe_size,
                shared_locks,
                ost_write_bw,
                ost_read_bw,
                lnet_total_bw,
            } => {
                if cand.tier == TierAssignment::McdramBurstBuffer
                    && self.mode == AccessMode::Write
                {
                    // Time-to-safe: each aggregator streams to its
                    // node-local flash, no shared bottleneck.
                    g.bytes / (parts as f64 * SSD_WRITE_BW)
                } else {
                    let ost_bw = match self.mode {
                        AccessMode::Write => *ost_write_bw,
                        AccessMode::Read => *ost_read_bw,
                    };
                    let streams = parts.min(*stripe_count).max(1) as f64;
                    let bw = (streams * ost_bw).min(*lnet_total_bw);
                    g.bytes / bw * align_penalty(b, *stripe_size, *shared_locks)
                }
            }
            StorageFacts::Gpfs { block_size, shared_locks, group_bw } => {
                g.bytes / group_bw * align_penalty(b, *block_size, *shared_locks)
            }
        };

        // Double buffering overlaps all but the first round's fill with
        // the flushes of the previous round.
        if cand.pipelining && rounds > 1 {
            t_agg.max(t_io) + t_agg.min(t_io) / rounds as f64
        } else {
            t_agg + t_io
        }
    }
}

/// Fold one group's member set per node and evaluate the paper's
/// aggregation-cost formula for an aggregator on every distinct node,
/// reducing to the per-strategy chosen-node times.
fn group_facts(
    machine: &dyn TopologyProvider,
    cache: &mut NodeMetricCache,
    group: &crate::sim_exec::GroupSpec,
) -> GroupFacts {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    let mut total = 0u64;
    let mut by_rank_bytes: Vec<u64> = Vec::with_capacity(group.ranks.len());
    for decls in &group.decls {
        let mut mine = 0u64;
        for d in decls {
            if d.len > 0 {
                lo = lo.min(d.offset);
                hi = hi.max(d.offset + d.len);
                mine += d.len;
            }
        }
        total += mine;
        by_rank_bytes.push(mine);
    }
    let span = hi.saturating_sub(lo);

    // Per-node member count and byte totals, insertion-ordered so the
    // fold below is deterministic.
    let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut count: Vec<f64> = Vec::new();
    let mut bytes: Vec<f64> = Vec::new();
    for (&r, &w) in group.ranks.iter().zip(&by_rank_bytes) {
        let node = machine.node_of_rank(r);
        let s = *slot_of.entry(node).or_insert_with(|| {
            nodes.push(node);
            count.push(0.0);
            bytes.push(0.0);
            nodes.len() - 1
        });
        count[s] += 1.0;
        bytes[s] += w as f64;
    }

    let rpn = if nodes.is_empty() {
        1.0
    } else {
        group.ranks.len() as f64 / nodes.len() as f64
    };
    let io: IoNodeId = machine.io_nodes_for(&group.ranks).first().copied().unwrap_or(0);
    let l = machine.latency();
    let nn = nodes.len();

    // t(s): whole-group aggregation time into a candidate node s —
    // the folded `Σ_i l·d(i,A) + ω(i)/B(i→A)` plus `C2(s)`.
    let mut t = vec![0.0f64; nn];
    let mut io_dist = vec![u32::MAX; nn];
    for s in 0..nn {
        let intra = cache.pair(machine, nodes[s], nodes[s]).bw;
        let mut acc = bytes[s] / intra;
        for k in 0..nn {
            if k == s {
                continue;
            }
            let pm = cache.pair(machine, nodes[k], nodes[s]);
            acc += count[k] * l * pm.dist as f64 + bytes[k] / pm.bw;
        }
        let im = cache.io(machine, nodes[s], io);
        if let (Some(d), Some(bw)) = (im.dist, im.bw) {
            acc += l * d as f64 + total as f64 / bw;
            io_dist[s] = d;
        }
        t[s] = acc;
    }

    let min = t.iter().copied().fold(f64::INFINITY, f64::min);
    let max = t.iter().copied().fold(0.0f64, f64::max);
    let mean = t.iter().sum::<f64>() / nn as f64;
    // ShortestPathToIo elects the member closest to the I/O node
    // (first node on a tie, matching MINLOC); unknown distances (Theta)
    // degenerate to the first node, like the election itself.
    let io_pick = (0..nn).min_by_key(|&s| io_dist[s]).unwrap_or(0);

    GroupFacts {
        span,
        bytes: total as f64,
        ranks: group.ranks.len().max(1),
        rpn,
        agg: StrategyTimes {
            topo_aware: min,
            rank_order: t[0],
            shortest_io: t[io_pick],
            worst_case: max,
            mean,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::WriteDecl;
    use crate::sim_exec::GroupSpec;
    use tapioca_pfs::{GpfsTunables, LustreTunables};
    use tapioca_topology::{mira_profile, theta_profile, MIB};

    fn theta_spec(n: usize, per: u64) -> CollectiveSpec {
        CollectiveSpec {
            groups: vec![GroupSpec {
                file: 0,
                ranks: (0..n).collect(),
                decls: (0..n as u64)
                    .map(|r| vec![WriteDecl { offset: r * per, len: per }])
                    .collect(),
            }],
            mode: AccessMode::Write,
        }
    }

    fn cand(aggregators: usize, buffer: u64) -> Candidate {
        Candidate {
            aggregators,
            buffer_size: buffer,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            coalescing: false,
            tier: TierAssignment::DramDirect,
        }
    }

    #[test]
    fn model_prefers_stripe_aligned_buffers() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = theta_spec(256, 4 * MIB);
        let m = CostModel::new(&profile, &storage, &spec).unwrap();
        let aligned = m.score(&cand(48, 8 * MIB));
        let misaligned = m.score(&cand(48, 8 * MIB + 4096));
        assert!(aligned < misaligned, "{aligned} vs {misaligned}");
    }

    #[test]
    fn model_rewards_parallel_osts_up_to_the_stripe_count() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = theta_spec(256, 4 * MIB);
        let m = CostModel::new(&profile, &storage, &spec).unwrap();
        assert!(m.score(&cand(32, 8 * MIB)) < m.score(&cand(1, 8 * MIB)));
    }

    #[test]
    fn model_ranks_topology_aware_at_or_above_worst_case() {
        let profile = mira_profile(128, 4);
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        let spec = CollectiveSpec {
            groups: vec![GroupSpec {
                file: 0,
                ranks: (0..512).collect(),
                decls: (0..512u64).map(|r| vec![WriteDecl { offset: r * MIB, len: MIB }]).collect(),
            }],
            mode: AccessMode::Write,
        };
        let m = CostModel::new(&profile, &storage, &spec).unwrap();
        let ta = m.score(&cand(16, 16 * MIB));
        let worst = m.score(&Candidate {
            strategy: PlacementStrategy::WorstCase,
            ..cand(16, 16 * MIB)
        });
        assert!(ta <= worst);
    }

    #[test]
    fn infeasible_candidates_score_infinite() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let m = CostModel::new(&profile, &storage, &theta_spec(64, MIB)).unwrap();
        assert_eq!(m.score(&cand(0, MIB)), f64::INFINITY);
        let too_big = Candidate {
            tier: TierAssignment::McdramDirect,
            ..cand(4, 9 * GIB)
        };
        assert_eq!(m.score(&too_big), f64::INFINITY);
    }

    #[test]
    fn zero_byte_groups_cost_nothing() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = CollectiveSpec {
            groups: vec![GroupSpec {
                file: 0,
                ranks: vec![0, 1],
                decls: vec![vec![WriteDecl { offset: 0, len: 0 }], vec![]],
            }],
            mode: AccessMode::Write,
        };
        let m = CostModel::new(&profile, &storage, &spec).unwrap();
        assert_eq!(m.score(&cand(4, MIB)), 0.0);
    }

    #[test]
    fn mismatched_storage_kind_is_rejected() {
        let profile = mira_profile(128, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let err = CostModel::new(&profile, &storage, &theta_spec(16, MIB)).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn sim_keys_ignore_the_tier_and_coalescing_dimensions() {
        let a = cand(8, MIB);
        let b = Candidate { tier: TierAssignment::McdramBurstBuffer, ..a };
        assert_eq!(a.sim_key(), b.sim_key());
        let co = Candidate { coalescing: true, ..a };
        assert_eq!(a.sim_key(), co.sim_key());
        let c = Candidate { aggregators: 9, ..a };
        assert_ne!(a.sim_key(), c.sim_key());
    }

    #[test]
    fn coalescing_wins_on_dense_nodes_and_loses_on_sparse_ones() {
        // 16 ranks/node, many small chunks: the merged-put latency
        // saving dominates the extra gather copy.
        let dense = theta_profile(16, 16);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = theta_spec(256, 8 * 1024);
        let m = CostModel::new(&dense, &storage, &spec).unwrap();
        let raw = cand(8, MIB);
        let co = Candidate { coalescing: true, ..raw };
        assert!(
            m.score(&co) < m.score(&raw),
            "16 rpn small chunks must favour coalescing: {} vs {}",
            m.score(&co),
            m.score(&raw)
        );

        // 1 rank/node: no runs can form, so coalescing must not be
        // scored cheaper than raw.
        let sparse = theta_profile(64, 1);
        let spec = theta_spec(64, 4 * MIB);
        let m = CostModel::new(&sparse, &storage, &spec).unwrap();
        let raw = cand(8, MIB);
        let co = Candidate { coalescing: true, ..raw };
        assert!(m.score(&co) >= m.score(&raw), "1 rpn has nothing to merge");
    }
}
