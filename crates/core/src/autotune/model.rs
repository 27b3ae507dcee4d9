//! The analytic cost model ω: a cheap, closed-form estimate of a
//! collective operation's elapsed time under a candidate configuration.
//!
//! The model reproduces the structure of the paper's aggregation-cost
//! formula (Sec. IV-B): the aggregation phase pays
//! `Σ_i l·d(i, A) + ω(i, A)/B(i → A)` into each aggregator plus
//! `l·d(A, IO) + ω(A, IO)/B(A → IO)` out of it, and the I/O phase pays
//! the storage backend's service time. The aggregation term is the
//! election's own evaluator: each group is one [`PartitionElection`]
//! whose node-folded `C1 + C2` vector (`placement::folded_costs`) is
//! read at the member each strategy elects — an ω evaluation after the
//! one-time [`CostModel::new`] precomputation is pure arithmetic, about
//! six orders of magnitude cheaper than a `run_tapioca_sim` call.
//!
//! ω is used to *rank* candidates, not to predict absolute bandwidth:
//! the short-list it produces is confirmed in the simulator (see
//! [`crate::autotune::search`]), so the model only has to order
//! configurations roughly right for the search to converge.

use tapioca_pfs::{AccessMode, LockMode};
use tapioca_topology::{MachineProfile, StorageProfile, TopologyProvider, GIB};

use crate::error::{Result, TapiocaError};
use crate::placement::{elect_partitions, folded_costs, PartitionElection, PlacementStrategy};
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
            ..base.clone()
        }
    }

    /// Hash of the *simulator-visible* dimensions (the tier excluded):
    /// two candidates with equal keys produce bit-identical
    /// `run_tapioca_sim` results, so the short-list keeps one of them.
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
/// aggregator on the strategy's elected member to absorb the *whole*
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
    /// Precompute per-group election costs and storage facts. Cost is
    /// `O(Σ_g nodes(g)²)` topology queries — paid once for the whole
    /// search, not per candidate.
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
        let groups = spec.groups.iter().map(|g| group_facts(machine, g)).collect();
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

        // Per-op latency of the write-plane window fill: every member
        // issues one RMA put per round, each paying one injection
        // latency. Reads carry no such term.
        let members = (g.ranks as f64 / parts as f64).max(1.0);
        let t_ops = if self.mode == AccessMode::Write {
            rounds as f64 * members * self.latency
        } else {
            0.0
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

/// Evaluate the paper's `C1 + C2` for every member of one group as the
/// election does — the whole group is one partition whose `omega` is
/// each member's declared bytes — and read each strategy's time at the
/// member that strategy elects.
fn group_facts(machine: &dyn TopologyProvider, group: &crate::sim_exec::GroupSpec) -> GroupFacts {
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

    let part = PartitionElection {
        members: &group.ranks,
        weights: &by_rank_bytes,
        io: machine.io_nodes_for(&group.ranks).first().copied().unwrap_or(0),
        partition_index: 0,
    };
    let t = folded_costs(machine, &part);
    let shortest_io = elect_partitions(machine, &[part], PlacementStrategy::ShortestPathToIo)[0];

    GroupFacts {
        span,
        bytes: total as f64,
        ranks: group.ranks.len().max(1),
        agg: StrategyTimes {
            topo_aware: t.iter().copied().fold(f64::INFINITY, f64::min),
            // RankOrder's MINLOC always elects member 0.
            rank_order: t[0],
            shortest_io: t[shortest_io],
            worst_case: t.iter().copied().fold(0.0f64, f64::max),
            mean: t.iter().sum::<f64>() / t.len() as f64,
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

    fn block_spec(n: usize, per: u64) -> CollectiveSpec {
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
            tier: TierAssignment::DramDirect,
        }
    }

    #[test]
    fn model_prefers_stripe_aligned_buffers() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = block_spec(256, 4 * MIB);
        let m = CostModel::new(&profile, &storage, &spec).unwrap();
        let aligned = m.score(&cand(48, 8 * MIB));
        let misaligned = m.score(&cand(48, 8 * MIB + 4096));
        assert!(aligned < misaligned, "{aligned} vs {misaligned}");
    }

    #[test]
    fn model_rewards_parallel_osts_up_to_the_stripe_count() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = block_spec(256, 4 * MIB);
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
        let m = CostModel::new(&profile, &storage, &block_spec(64, MIB)).unwrap();
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
        let err = CostModel::new(&profile, &storage, &block_spec(16, MIB)).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn sim_keys_ignore_the_tier_dimension() {
        let a = cand(8, MIB);
        let b = Candidate { tier: TierAssignment::McdramBurstBuffer, ..a };
        assert_eq!(a.sim_key(), b.sim_key());
        let c = Candidate { aggregators: 9, ..a };
        assert_ne!(a.sim_key(), c.sim_key());
    }

    /// One evaluator: on the golden machines and workloads, each
    /// strategy's ω aggregation term is the election's own `C1 + C2`
    /// (`election_costs`) at the member `elect_partitions` picks under
    /// that strategy. The tuner reads the node-folded vector, so the
    /// two agree to summation-order rounding, not bit for bit.
    #[test]
    fn strategy_times_are_the_election_costs_of_the_elected_members() {
        use crate::placement::election_costs;
        // IOR: 1 MiB per rank; HACC AoS: 1 MiB / 38 particles of 38 B.
        let (ior, hacc) = (MIB, MIB / 38 * 38);
        let machines = [
            (mira_profile(128, 4), "mira"),
            (theta_profile(32, 4), "theta"),
        ];
        for (profile, name) in &machines {
            let n = profile.machine.num_ranks();
            for per in [ior, hacc] {
                let spec = block_spec(n, per);
                let g = &spec.groups[0];
                let weights: Vec<u64> = g.decls.iter().map(|d| d[0].len).collect();
                let part = PartitionElection {
                    members: &g.ranks,
                    weights: &weights,
                    io: profile.machine.io_nodes_for(&g.ranks).first().copied().unwrap_or(0),
                    partition_index: 0,
                };
                let exact = election_costs(&profile.machine, &part, PlacementStrategy::TopologyAware);
                let facts = group_facts(&profile.machine, g);
                for strategy in [
                    PlacementStrategy::TopologyAware,
                    PlacementStrategy::RankOrder,
                    PlacementStrategy::ShortestPathToIo,
                ] {
                    let winner = elect_partitions(&profile.machine, &[part], strategy)[0];
                    let (got, want) = (facts.agg.of(strategy), exact[winner]);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs(),
                        "{name} per={per} {strategy:?}: ω term {got} vs election cost {want} \
                         at member {winner}"
                    );
                }
            }
        }
    }
}
