//! Topology-aware aggregator placement (paper Sec. IV-B).
//!
//! For each partition, every candidate process `A` evaluates
//!
//! ```text
//! C1 = sum over i in Vc, i != A of ( l * d(i, A) + omega(i, A) / B(i -> A) )
//! C2 = l * d(A, IO) + omega(A, IO) / B(A -> IO)        (0 when IO unknown)
//! TopoAware(A) = C1 + C2
//! ```
//!
//! and the process with the minimal cost is elected with an
//! `MPI_Allreduce(MPI_MINLOC)`. `omega(i, A)` is the number of bytes rank
//! `i` contributes to the partition — known exactly thanks to the
//! declarations of `TAPIOCA_Init`. On Theta the vendor exposes no I/O
//! node placement, so `C2 = 0` there (the paper's own fallback).
//!
//! Besides the paper's strategy this module implements the baselines and
//! ablations the placement experiments compare: rank-order (MPICH-like),
//! shortest path to storage only, worst-case, and seeded random placement.

use std::ops::Range;

use tapioca_topology::{IoNodeId, NodeId, Rank, TopologyProvider};

use crate::schedule::Schedule;

/// Aggregator election strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementStrategy {
    /// The paper's cost model: minimize `C1 + C2`.
    TopologyAware,
    /// First member in rank order (what generic MPICH does after the
    /// bridge node, and the natural "no topology information" default).
    RankOrder,
    /// Minimize distance to the I/O node only (ignores the aggregation
    /// phase) — a classic heuristic the paper's model subsumes.
    ShortestPathToIo,
    /// Maximize `C1 + C2` — adversarial ablation (upper bound on harm).
    WorstCase,
    /// Uniformly random member from a seeded generator (ablation).
    Random {
        /// Seed; elections use `seed ^ partition_index`.
        seed: u64,
    },
}

/// The aggregation cost `C1` of candidate `members[cand]`.
///
/// `weights[i]` is `omega(members[i], A)` — bytes member `i` sends into
/// the partition's buffers over the whole operation.
pub fn aggregation_cost(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    cand: usize,
) -> f64 {
    let l = topo.latency();
    let a = members[cand];
    let mut c1 = 0.0;
    for (i, (&m, &w)) in members.iter().zip(weights).enumerate() {
        if i == cand {
            continue;
        }
        let d = topo.distance_between_ranks(m, a) as f64;
        let bw = topo.bandwidth_between_ranks(m, a);
        c1 += l * d + w as f64 / bw;
    }
    c1
}

/// The I/O phase cost `C2` of a candidate, or 0 when the machine cannot
/// locate its I/O nodes (Theta).
pub fn io_cost(
    topo: &dyn TopologyProvider,
    cand_rank: Rank,
    io: IoNodeId,
    total_bytes: u64,
) -> f64 {
    match (topo.distance_to_io_node(cand_rank, io), topo.bandwidth_to_io_node(cand_rank, io)) {
        (Some(d), Some(bw)) => topo.latency() * d as f64 + total_bytes as f64 / bw,
        _ => 0.0,
    }
}

/// The full objective `TopoAware(A) = C1 + C2` for one candidate.
pub fn topo_aware_cost(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    cand: usize,
) -> f64 {
    let total: u64 = weights.iter().sum();
    aggregation_cost(topo, members, weights, cand) + io_cost(topo, members[cand], io, total)
}

/// The cost value a member contributes to the MINLOC election under a
/// strategy. Lower wins; ties resolve to the lower member index (MPI
/// MINLOC semantics), which every strategy exploits for determinism.
pub fn election_cost(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
    cand: usize,
) -> f64 {
    match strategy {
        PlacementStrategy::TopologyAware => topo_aware_cost(topo, members, weights, io, cand),
        PlacementStrategy::RankOrder => cand as f64,
        PlacementStrategy::ShortestPathToIo => topo
            .distance_to_io_node(members[cand], io)
            .map(|d| d as f64)
            .unwrap_or(0.0),
        PlacementStrategy::WorstCase => -topo_aware_cost(topo, members, weights, io, cand),
        PlacementStrategy::Random { seed } => {
            // SplitMix64 over (seed ^ partition, candidate): same value
            // computed by every member, so the election is consistent.
            let mut x = (seed ^ partition_index as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(cand as u64);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x >> 11) as f64
        }
    }
}

/// Dense node-level metric table of one partition: every quantity the
/// cost model asks the topology for, once per node pair.
///
/// Under the block rank mapping (see
/// [`TopologyProvider::ranks_per_node`]) both `d(i, A)` and `B(i -> A)`
/// depend only on `node(i)` and `node(A)`, and `C2` only on `node(A)`,
/// so a partition spanning `n` nodes needs `n²` pair queries and `n`
/// I/O queries — made through one member of each node — whatever its
/// member count. The exact costs and the autotuner's folded costs read
/// this table and nothing else.
struct PartitionTable {
    /// Table slot (dense node index) of each member.
    slot: Vec<usize>,
    /// Number of slots.
    nn: usize,
    /// `l * d(t -> s)` at `[s * nn + t]`: [`aggregation_cost`]'s own product.
    lat: Vec<f64>,
    /// `B(t -> s)` at `[s * nn + t]`; intra-node bandwidth on the diagonal.
    bw: Vec<f64>,
    /// `C2` of a candidate on slot `s`, from [`io_cost`].
    c2: Vec<f64>,
    /// `-1.0` under `WorstCase` ([`election_cost`] negates it), else `1.0`.
    sign: f64,
}

impl PartitionTable {
    fn new(topo: &dyn TopologyProvider, part: &PartitionElection<'_>, worst: bool) -> Self {
        let PartitionElection { members, weights, io, .. } = *part;
        let node_of: Vec<NodeId> = members.iter().map(|&m| topo.node_of_rank(m)).collect();
        let mut nodes = node_of.clone();
        nodes.sort_unstable();
        nodes.dedup();
        let nn = nodes.len();
        let slot: Vec<usize> = node_of
            .iter()
            .map(|n| nodes.binary_search(n).expect("every member's node was collected"))
            .collect();
        // The first member on each node answers for the node.
        let mut rep: Vec<Rank> = vec![0; nn];
        for (&s, &m) in slot.iter().zip(members).rev() {
            rep[s] = m;
        }
        let l = topo.latency();
        // Same exact integer sum `topo_aware_cost` performs.
        let total: u64 = weights.iter().sum();
        let mut lat = Vec::with_capacity(nn * nn);
        let mut bw = Vec::with_capacity(nn * nn);
        let mut c2 = Vec::with_capacity(nn);
        for &a in &rep {
            // Directed, matching `B(i -> A)`: members on `t` send to `a`.
            for &t in &rep {
                lat.push(l * topo.distance_between_ranks(t, a) as f64);
                bw.push(topo.bandwidth_between_ranks(t, a));
            }
            c2.push(io_cost(topo, a, io, total));
        }
        Self { slot, nn, lat, bw, c2, sign: if worst { -1.0 } else { 1.0 } }
    }

    /// The election cost of `members[cand]`, bit-identical to
    /// [`election_cost`]: members in its order, its expression per term
    /// (each table entry is the very `f64` it computes per pair), `C2`
    /// added last, then the sign.
    ///
    /// Every member of one run (see [`PartitionTable::runs`]) gets the
    /// same value, bit for bit: the candidate's slot picks the table
    /// row, `C2` and the sign, and a run's members all contribute the
    /// same term, so skipping any one of them leaves the same sequence
    /// of f64 additions. One evaluation per run is therefore exact.
    fn cost(&self, weights: &[u64], cand: usize) -> f64 {
        let s = self.slot[cand];
        let lat = &self.lat[s * self.nn..][..self.nn];
        let bw = &self.bw[s * self.nn..][..self.nn];
        let mut c1 = 0.0;
        for (i, (&t, &w)) in self.slot.iter().zip(weights).enumerate() {
            if i != cand {
                c1 += lat[t] + w as f64 / bw[t];
            }
        }
        self.sign * (c1 + self.c2[s])
    }

    /// The partition's *runs*, ascending: maximal ranges of consecutive
    /// members on one slot with one weight. Runs follow adjacency, not
    /// slot equality — one node's members listed in two stretches form
    /// two runs — because [`PartitionTable::cost`] is only invariant
    /// under skipping one of several *adjacent* equal terms.
    fn runs<'w>(&'w self, weights: &'w [u64]) -> impl Iterator<Item = Range<usize>> + 'w {
        let mut start = 0;
        std::iter::from_fn(move || {
            let key = (*self.slot.get(start)?, weights[start]);
            let len = self.slot[start..]
                .iter()
                .zip(&weights[start..])
                .take_while(|&(&s, &w)| (s, w) == key)
                .count();
            start += len;
            Some(start - len..start)
        })
    }

    /// The node-folded, unsigned `C1 + C2` of every member. `C1` folds
    /// into a sum over nodes of per-node member counts and weight totals,
    /// less the candidate's own weight: `nodes²` work however many members
    /// a node holds. Folding reassociates the sum, so a value can differ
    /// from [`PartitionTable::cost`] in its last bits.
    fn folded(&self, weights: &[u64]) -> Vec<f64> {
        let nn = self.nn;
        let mut count = vec![0.0f64; nn];
        let mut w_sum = vec![0.0f64; nn];
        for (&s, &w) in self.slot.iter().zip(weights) {
            count[s] += 1.0;
            w_sum[s] += w as f64;
        }
        let base: Vec<f64> = (0..nn)
            .map(|s| {
                let mut cross = 0.0;
                for t in (0..nn).filter(|&t| t != s) {
                    cross += count[t] * self.lat[s * nn + t] + w_sum[t] / self.bw[s * nn + t];
                }
                cross + self.c2[s]
            })
            .collect();
        self.slot
            .iter()
            .zip(weights)
            .map(|(&s, &w)| base[s] + (w_sum[s] - w as f64) / self.bw[s * nn + s])
            .collect()
    }
}

/// The node-folded `TopologyAware` cost of every member: [`election_costs`]
/// under `TopologyAware` up to the last bits, from the same table. The
/// autotuner's ω(A) reads its aggregation term from this vector.
pub(crate) fn folded_costs(topo: &dyn TopologyProvider, part: &PartitionElection<'_>) -> Vec<f64> {
    PartitionTable::new(topo, part, false).folded(part.weights)
}

/// One partition's election inputs, borrowed from the schedule.
#[derive(Debug, Clone, Copy)]
pub struct PartitionElection<'a> {
    /// Global ranks of the partition members.
    pub members: &'a [Rank],
    /// Bytes each member contributes (`omega`), parallel to `members`.
    pub weights: &'a [u64],
    /// The I/O node serving this partition's file region.
    pub io: IoNodeId,
    /// Partition index (seeds the `Random` strategy).
    pub partition_index: usize,
}

/// The election cost of every member, element `i` bit-identical to
/// [`election_cost`] of candidate `i`, from one node-level metric table
/// instead of `P²` topology queries. Standby re-election takes its
/// argmin over this vector with the dead winner excluded.
///
/// Under `TopologyAware` / `WorstCase` the exact cost is computed once
/// per *run* — a maximal range of consecutive members on one node with
/// one weight, whose members all have the same cost, bit for bit — and
/// copied to the run's other members: O(runs × P) arithmetic. Under
/// `ShortestPathToIo` the topology is asked once per run of co-located
/// members.
pub fn election_costs(
    topo: &dyn TopologyProvider,
    part: &PartitionElection<'_>,
    strategy: PlacementStrategy,
) -> Vec<f64> {
    let PartitionElection { members, weights, io, partition_index } = *part;
    match strategy {
        PlacementStrategy::TopologyAware | PlacementStrategy::WorstCase => {
            let worst = matches!(strategy, PlacementStrategy::WorstCase);
            let table = PartitionTable::new(topo, part, worst);
            let mut costs = Vec::with_capacity(members.len());
            for run in table.runs(weights) {
                costs.resize(run.end, table.cost(weights, run.start));
            }
            costs
        }
        // `d(member, IO)` (`u32 -> f64` is exact), asked once per run of
        // co-located members: the distance depends on the node only.
        PlacementStrategy::ShortestPathToIo => {
            let mut last: Option<(NodeId, f64)> = None;
            members
                .iter()
                .map(|&m| {
                    let node = topo.node_of_rank(m);
                    let c = match last {
                        Some((n, c)) if n == node => c,
                        _ => topo.distance_to_io_node(m, io).map(|d| d as f64).unwrap_or(0.0),
                    };
                    last = Some((node, c));
                    c
                })
                .collect()
        }
        PlacementStrategy::RankOrder | PlacementStrategy::Random { .. } => (0..members.len())
            .map(|i| election_cost(topo, members, weights, io, partition_index, strategy, i))
            .collect(),
    }
}

/// Elect aggregators for a batch of independent partitions: for each,
/// in order, the MINLOC of its [`election_costs`] — the lowest cost,
/// ties to the lowest index, as the distributed `MPI_Allreduce(MPI_MINLOC)`
/// over [`election_cost`] decides it — as an index into that partition's
/// `members`. Serial — callers with independent batches (the file groups
/// of `SimSession::build`) fan out above this.
pub fn elect_partitions(
    topo: &dyn TopologyProvider,
    parts: &[PartitionElection<'_>],
    strategy: PlacementStrategy,
) -> Vec<usize> {
    parts
        .iter()
        .map(|part| {
            assert!(!part.members.is_empty(), "cannot elect from an empty partition");
            assert_eq!(part.members.len(), part.weights.len());
            let costs = election_costs(topo, part, strategy);
            (1..costs.len()).fold(0, |best, i| if costs[i] < costs[best] { i } else { best })
        })
        .collect()
}

/// Elect every partition of `sched`, whose member ids index `ranks`
/// (the file group's global ranks): translate members to global ranks,
/// then [`elect_partitions`] with the schedule's `member_bytes` as
/// `omega`. Returns the members as global ranks and the winner index,
/// both parallel to `sched.partitions`; a memberless partition gets the
/// placeholder choice 0. The one election step the simulator executors
/// (TAPIOCA, ROMIO baseline, tiers) share.
pub fn elect_schedule(
    topo: &dyn TopologyProvider,
    sched: &Schedule,
    ranks: &[Rank],
    io: IoNodeId,
    strategy: PlacementStrategy,
) -> (Vec<Vec<Rank>>, Vec<usize>) {
    let members_global: Vec<Vec<Rank>> = sched
        .partitions
        .iter()
        .map(|part| part.members.iter().map(|&m| ranks[m]).collect())
        .collect();
    // A partition a declaration gap spans has no members and nothing to
    // elect; its placeholder choice is never read, as no op comes of it.
    let elections: Vec<PartitionElection<'_>> = sched
        .partitions
        .iter()
        .zip(&members_global)
        .filter(|(_, members)| !members.is_empty())
        .map(|(part, members)| PartitionElection {
            members,
            weights: &part.member_bytes,
            io,
            partition_index: part.index,
        })
        .collect();
    let mut winners = elect_partitions(topo, &elections, strategy).into_iter();
    let choices = members_global
        .iter()
        .map(|members| {
            if members.is_empty() {
                0
            } else {
                winners.next().expect("one winner per election")
            }
        })
        .collect();
    (members_global, choices)
}

/// Fallback topology for thread-mode runs that have no machine model:
/// every pair of distinct ranks is 1 hop apart at a uniform bandwidth,
/// and I/O node placement is unknown (`C2 = 0`). Under this provider the
/// topology-aware election degenerates to "any member" (lowest rank via
/// MINLOC ties), which is the correct behaviour with zero information.
#[derive(Debug, Clone)]
pub struct UniformTopology {
    /// Number of ranks.
    pub num_ranks: usize,
}

impl TopologyProvider for UniformTopology {
    fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn ranks_per_node(&self) -> usize {
        1
    }

    fn network_dimensions(&self) -> usize {
        1
    }

    fn rank_to_coordinates(&self, rank: Rank) -> Vec<usize> {
        vec![rank]
    }

    fn latency(&self) -> f64 {
        1e-6
    }

    fn distance_between_ranks(&self, src: Rank, dst: Rank) -> u32 {
        u32::from(src != dst)
    }

    fn bandwidth_between_ranks(&self, _src: Rank, _dst: Rank) -> f64 {
        1e9
    }

    fn io_nodes_for(&self, _ranks: &[Rank]) -> Vec<IoNodeId> {
        vec![0]
    }

    fn distance_to_io_node(&self, _rank: Rank, _io: IoNodeId) -> Option<u32> {
        None
    }

    fn bandwidth_to_io_node(&self, _rank: Rank, _io: IoNodeId) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca_topology::{mira_profile, theta_profile, TopologyProvider};

    fn mira() -> impl TopologyProvider {
        mira_profile(512, 16).machine
    }

    /// The winner [`elect_partitions`] picks for one partition served by
    /// I/O node 0.
    fn elect(
        topo: &dyn TopologyProvider,
        members: &[Rank],
        weights: &[u64],
        partition_index: usize,
        strategy: PlacementStrategy,
    ) -> usize {
        let part = PartitionElection { members, weights, io: 0, partition_index };
        elect_partitions(topo, &[part], strategy)[0]
    }

    #[test]
    fn c1_is_zero_for_sole_member() {
        let m = mira();
        assert_eq!(aggregation_cost(&m, &[5], &[100], 0), 0.0);
    }

    #[test]
    fn c1_grows_with_distance() {
        let m = mira();
        // members on nodes 0 and 50: candidate far from the heavy
        // producer pays more.
        let members = [0, 50 * 16, 100 * 16];
        let weights = [1_000_000, 1_000_000, 1_000_000];
        let c_near = aggregation_cost(&m, &members, &weights, 1);
        // compare against a candidate co-located with member 0
        let c_self = aggregation_cost(&m, &members, &weights, 0);
        assert!(c_near > 0.0 && c_self > 0.0);
    }

    #[test]
    fn c2_zero_on_theta() {
        let t = theta_profile(128, 16).machine;
        assert_eq!(io_cost(&t, 0, 0, 1 << 30), 0.0);
    }

    #[test]
    fn c2_positive_on_mira() {
        let m = mira();
        let c = io_cost(&m, 77, 0, 1 << 30);
        assert!(c > 0.0);
        // a rank on the bridge node has lower C2 than a distant one
        let bridge = io_cost(&m, 0, 0, 1 << 30);
        assert!(bridge <= c);
    }

    #[test]
    fn topology_aware_beats_rank_order_on_cost() {
        let m = mira();
        // members spread over one Pset, equal weights
        let members: Vec<usize> = (0..16).map(|i| i * 8 * 16).collect();
        let weights = vec![16_000_000u64; members.len()];
        let ta = elect(&m, &members, &weights, 0, PlacementStrategy::TopologyAware);
        let ro = elect(&m, &members, &weights, 0, PlacementStrategy::RankOrder);
        assert_eq!(ro, 0);
        let cost_ta = topo_aware_cost(&m, &members, &weights, 0, ta);
        let cost_ro = topo_aware_cost(&m, &members, &weights, 0, ro);
        assert!(cost_ta <= cost_ro, "elected cost {cost_ta} must be <= rank-order {cost_ro}");
    }

    #[test]
    fn worst_case_maximizes() {
        let m = mira();
        let members: Vec<usize> = (0..8).map(|i| i * 60 * 16).collect();
        let weights = vec![1_000_000u64; 8];
        let best = elect(&m, &members, &weights, 0, PlacementStrategy::TopologyAware);
        let worst = elect(&m, &members, &weights, 0, PlacementStrategy::WorstCase);
        let cb = topo_aware_cost(&m, &members, &weights, 0, best);
        let cw = topo_aware_cost(&m, &members, &weights, 0, worst);
        assert!(cw >= cb);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_partition() {
        let m = mira();
        let members: Vec<usize> = (0..10).collect();
        let weights = vec![1u64; 10];
        let a = elect(&m, &members, &weights, 3, PlacementStrategy::Random { seed: 42 });
        let b = elect(&m, &members, &weights, 3, PlacementStrategy::Random { seed: 42 });
        assert_eq!(a, b);
        // different partitions usually differ (not guaranteed, but with
        // 10 members collisions across 8 partitions are unlikely to all match)
        let picks: Vec<usize> = (0..8)
            .map(|p| elect(&m, &members, &weights, p, PlacementStrategy::Random { seed: 42 }))
            .collect();
        assert!(picks.iter().any(|&x| x != picks[0]));
    }

    #[test]
    fn shortest_path_prefers_bridge_nodes() {
        let m = mira();
        // include a rank on bridge node 0 (rank 0) and distant ranks
        let members = vec![0usize, 40 * 16, 90 * 16];
        let weights = vec![1u64; 3];
        let w = elect(&m, &members, &weights, 0, PlacementStrategy::ShortestPathToIo);
        assert_eq!(w, 0);
    }

    /// The folded vector the autotuner reads stays within a relative
    /// 1e-12 of the exact per-candidate cost, on every machine, for
    /// block, straddling, strided and single-member partitions under
    /// uniform, spread, one-dominant and mostly-zero weights.
    #[test]
    fn folded_costs_stay_within_the_bound_of_election_costs() {
        let machines: [Box<dyn TopologyProvider>; 3] = [
            Box::new(mira_profile(512, 16).machine),
            Box::new(theta_profile(512, 16).machine),
            Box::new(tapioca_topology::cluster_profile(128, 16).machine),
        ];
        for topo in &machines {
            let topo = topo.as_ref();
            let shapes: [Vec<Rank>; 4] = [
                (0..128).collect(),
                (1000..1129).collect(),
                (0..64).map(|i| i * 37 + 5).collect(),
                vec![77],
            ];
            for members in &shapes {
                let n = members.len();
                for pattern in 0..4 {
                    let weights: Vec<u64> = (0..n as u64)
                        .map(|i| match pattern {
                            0 => 1 << 20,
                            1 => (i * 0x9E37_79B9) % (64 << 20),
                            2 => if i == n as u64 / 2 { 1 << 34 } else { 1 },
                            _ => if i % 5 == 0 { i << 12 } else { 0 },
                        })
                        .collect();
                    let io = topo.io_nodes_for(members).first().copied().unwrap_or(0);
                    let part =
                        PartitionElection { members, weights: &weights, io, partition_index: 0 };
                    let exact = election_costs(topo, &part, PlacementStrategy::TopologyAware);
                    for (i, (f, e)) in folded_costs(topo, &part).iter().zip(&exact).enumerate() {
                        assert!(
                            (f - e).abs() <= 1e-12 * e.abs(),
                            "members={n} pattern={pattern} candidate={i}: folded {f} vs exact {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty partition")]
    fn empty_members_panics() {
        let m = mira();
        elect(&m, &[], &[], 0, PlacementStrategy::TopologyAware);
    }
}
