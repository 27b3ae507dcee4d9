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
//! ablations compared in the benches: rank-order (MPICH-like), shortest
//! path to storage only, worst-case, and seeded random placement.

use std::collections::HashMap;

use tapioca_topology::{IoNodeId, NodeId, NodeMetricCache, Rank, TopologyProvider};

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

/// Reference election: evaluate every candidate pairwise — O(P²)
/// topology queries — and return the winner's index into `members`.
/// Mirrors exactly what the distributed MINLOC election of thread mode
/// computes. Executors elect through [`elect_partitions`]; this is the
/// oracle its node-folded path is proven bit-identical against (and
/// falls back to for small partitions).
pub fn elect_aggregator(
    topo: &dyn TopologyProvider,
    members: &[Rank],
    weights: &[u64],
    io: IoNodeId,
    partition_index: usize,
    strategy: PlacementStrategy,
) -> usize {
    assert!(!members.is_empty(), "cannot elect from an empty partition");
    assert_eq!(members.len(), weights.len());
    let mut best = (f64::INFINITY, usize::MAX);
    for cand in 0..members.len() {
        let c = election_cost(topo, members, weights, io, partition_index, strategy, cand);
        if c < best.0 || (c == best.0 && cand < best.1) {
            best = (c, cand);
        }
    }
    best.1
}

/// Node-folded election of one partition: same winner as
/// [`elect_aggregator`], computed in O(nodes² + P) topology queries
/// instead of O(P²).
///
/// Under the block rank mapping (see
/// [`TopologyProvider::ranks_per_node`]) both `d(i, A)` and `B(i -> A)`
/// depend only on `node(i)` and `node(A)`, so the member sum of `C1`
/// folds into a node sum over per-node member counts and weight totals,
/// with every node-pair metric memoized in the caller's
/// [`NodeMetricCache`] (shared across the partitions of a batch; one
/// cache must only ever see one topology object).
///
/// Folding reassociates the floating-point sum, so a folded cost can
/// differ from the oracle's pairwise sum by a few ulps — enough to flip
/// a MINLOC tie. To stay *bit-identical* to the oracle, the folded costs
/// are only used to prune: every candidate whose folded cost window
/// (`± fold_tolerance`, a rigorous bound on the divergence between the
/// two summation orders) overlaps the best window is re-evaluated with
/// [`election_cost`] — the oracle's exact arithmetic — and the winner is
/// chosen among those survivors with oracle MINLOC semantics. The true
/// winner always survives the prune, so the result is provably the
/// oracle's (the property sweep in `tests/placement_equivalence.rs`
/// exercises this across strategies, profiles, and partition shapes).
fn elect_aggregator_cached(
    topo: &dyn TopologyProvider,
    cache: &mut NodeMetricCache,
    part: &PartitionElection<'_>,
    strategy: PlacementStrategy,
) -> usize {
    let PartitionElection { members, weights, io, partition_index } = *part;
    assert!(!members.is_empty(), "cannot elect from an empty partition");
    assert_eq!(members.len(), weights.len());
    match strategy {
        // Constant under MINLOC: member 0 always has the lowest cost.
        PlacementStrategy::RankOrder => 0,
        // Pure integer hashing, already O(P); replay the oracle exactly.
        PlacementStrategy::Random { .. } => {
            elect_aggregator(topo, members, weights, io, partition_index, strategy)
        }
        // Node-level distance only: u32 -> f64 is exact, so the cached
        // per-node value *is* the oracle's cost and the ascending scan
        // with strict `<` reproduces MINLOC ties directly.
        PlacementStrategy::ShortestPathToIo => {
            // Machines that expose no I/O node placement (Theta) answer
            // `None` for every member, making every oracle cost 0.0 —
            // member 0's cost is then a global minimum (distances are
            // nonnegative) and MINLOC ties resolve to the lowest index,
            // so the winner is index 0 even on mixed topologies. One
            // probe replaces the per-member cache walk the oracle's
            // trivial loop was beating.
            if topo.distance_to_io_node(members[0], io).is_none() {
                return 0;
            }
            // Below the fold threshold the pairwise oracle is already
            // cheap and per-member cache lookups would dominate.
            if members.len() < FOLD_MIN_MEMBERS {
                return elect_aggregator(topo, members, weights, io, partition_index, strategy);
            }
            let mut best = (f64::INFINITY, usize::MAX);
            for (i, &m) in members.iter().enumerate() {
                let node = topo.node_of_rank(m);
                let c = cache.io(topo, node, io).dist.map(|d| d as f64).unwrap_or(0.0);
                if c < best.0 {
                    best = (c, i);
                }
            }
            best.1
        }
        PlacementStrategy::TopologyAware | PlacementStrategy::WorstCase => {
            elect_folded(topo, cache, part, strategy)
        }
    }
}

/// Below this member count the pairwise oracle is already cheap and the
/// fold bookkeeping would dominate.
const FOLD_MIN_MEMBERS: usize = 8;

/// Upper bound on `|oracle_cost - folded_cost|` for one candidate.
///
/// Both evaluations sum the same `p`-ish positive real terms (`C2` is
/// even computed with identical operations); sequential f64 summation of
/// `n` terms is within `n * eps` relative error of the real value, so
/// the two orders diverge by at most a small multiple of
/// `p * eps * magnitude`, where `magnitude` bounds the sum of absolute
/// term values (not the result — the folded per-candidate cost subtracts
/// the candidate's own weight from its node total, and that cancellation
/// keeps *absolute* error bounded by the term magnitudes even when the
/// result is tiny). The factor 8 is slack over the textbook bound.
fn fold_tolerance(p: usize, magnitude: f64) -> f64 {
    8.0 * (p as f64 + 16.0) * f64::EPSILON * magnitude
}

fn elect_folded(
    topo: &dyn TopologyProvider,
    cache: &mut NodeMetricCache,
    part: &PartitionElection<'_>,
    strategy: PlacementStrategy,
) -> usize {
    let PartitionElection { members, weights, io, partition_index } = *part;
    let p = members.len();
    if p < FOLD_MIN_MEMBERS {
        return elect_aggregator(topo, members, weights, io, partition_index, strategy);
    }
    let l = topo.latency();

    // Group members by node: per-node member count and weight total.
    let mut node_slot: HashMap<NodeId, usize> = HashMap::new();
    let mut slots: Vec<NodeId> = Vec::new();
    let mut count: Vec<f64> = Vec::new();
    let mut w_sum: Vec<f64> = Vec::new();
    let mut member_slot: Vec<usize> = Vec::with_capacity(p);
    for (&m, &w) in members.iter().zip(weights) {
        let node = topo.node_of_rank(m);
        let s = *node_slot.entry(node).or_insert_with(|| {
            slots.push(node);
            count.push(0.0);
            w_sum.push(0.0);
            slots.len() - 1
        });
        member_slot.push(s);
        count[s] += 1.0;
        w_sum[s] += w as f64;
    }
    let nn = slots.len();

    // Same exact integer sum the oracle's `topo_aware_cost` performs.
    let total: u64 = weights.iter().sum();

    // Per candidate node: cross-node C1 contribution, intra-node
    // bandwidth, C2, and the magnitude bound for the prune tolerance.
    let mut cross = vec![0.0f64; nn];
    let mut intra_bw = vec![0.0f64; nn];
    let mut c2 = vec![0.0f64; nn];
    for s in 0..nn {
        intra_bw[s] = cache.pair(topo, slots[s], slots[s]).bw;
        let mut acc = 0.0;
        for t in 0..nn {
            if t == s {
                continue;
            }
            // Metrics for members on node `t` sending to a candidate on
            // node `s` (directed, matching `B(i -> A)`).
            let pm = cache.pair(topo, slots[t], slots[s]);
            acc += count[t] * (l * pm.dist as f64) + w_sum[t] / pm.bw;
        }
        cross[s] = acc;
        let im = cache.io(topo, slots[s], io);
        c2[s] = match (im.dist, im.bw) {
            (Some(d), Some(bw)) => l * d as f64 + total as f64 / bw,
            _ => 0.0,
        };
    }

    // Folded signed cost per candidate, and the tightest upper bound on
    // any candidate's cost window.
    let sign = if matches!(strategy, PlacementStrategy::WorstCase) { -1.0 } else { 1.0 };
    let mut folded: Vec<f64> = Vec::with_capacity(p);
    let mut tol: Vec<f64> = Vec::with_capacity(p);
    let mut best_upper = f64::INFINITY;
    for (i, &w) in weights.iter().enumerate() {
        let s = member_slot[i];
        let f = cross[s] + (w_sum[s] - w as f64) / intra_bw[s] + c2[s];
        let magnitude = cross[s] + w_sum[s] / intra_bw[s] + c2[s];
        let d = fold_tolerance(p, magnitude);
        let fs = sign * f;
        if fs + d < best_upper {
            best_upper = fs + d;
        }
        folded.push(fs);
        tol.push(d);
    }

    // Prune, then replay the oracle's arithmetic on the survivors. The
    // oracle winner's window always overlaps `best_upper`, so it is in
    // the survivor set and the ascending MINLOC scan returns it.
    let mut best = (f64::INFINITY, usize::MAX);
    for i in 0..p {
        if folded[i] - tol[i] <= best_upper {
            let c = election_cost(topo, members, weights, io, partition_index, strategy, i);
            if c < best.0 || (c == best.0 && i < best.1) {
                best = (c, i);
            }
        }
    }
    best.1
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

/// Pairwise-equivalent work (`sum of members²`) above which a batch of
/// elections is worth fanning out across threads.
const PARALLEL_ELECTION_WORK: usize = 1 << 20;

/// Elect aggregators for a batch of independent partitions through the
/// node-folded path, sharing one metric cache when run serially and
/// fanning out across std threads (each with its own cache) when the
/// batch is large enough to amortize spawning. Returns one winner index (into
/// that partition's `members`) per input, in order.
pub fn elect_partitions(
    topo: &dyn TopologyProvider,
    parts: &[PartitionElection<'_>],
    strategy: PlacementStrategy,
) -> Vec<usize> {
    let elect_chunk = |chunk: &[PartitionElection<'_>]| {
        let mut cache = NodeMetricCache::new();
        chunk
            .iter()
            .map(|p| elect_aggregator_cached(topo, &mut cache, p, strategy))
            .collect::<Vec<usize>>()
    };
    let work: usize = parts.iter().map(|p| p.members.len() * p.members.len()).sum();
    if parts.len() < 2 || work < PARALLEL_ELECTION_WORK {
        return elect_chunk(parts);
    }
    // Queried only for batches worth fanning out: it is a syscall, and
    // small batches are the common case.
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    if threads < 2 {
        return elect_chunk(parts);
    }
    let chunk = parts.len().div_ceil(threads.min(parts.len()));
    std::thread::scope(|s| {
        let elect_chunk = &elect_chunk;
        let handles: Vec<_> =
            parts.chunks(chunk).map(|ch| s.spawn(move || elect_chunk(ch))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("election worker panicked"))
            .collect()
    })
}

/// Elect every partition of `sched`, whose member ids index `ranks`
/// (the file group's global ranks): translate members to global ranks,
/// then [`elect_partitions`] with the schedule's `member_bytes` as
/// `omega`. Returns the members as global ranks and the winner index,
/// both parallel to `sched.partitions`. The one election step the
/// simulator executors (TAPIOCA, ROMIO baseline, tiers) share.
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
    let elections: Vec<PartitionElection<'_>> = sched
        .partitions
        .iter()
        .zip(&members_global)
        .map(|(part, members)| PartitionElection {
            members,
            weights: &part.member_bytes,
            io,
            partition_index: part.index,
        })
        .collect();
    let choices = elect_partitions(topo, &elections, strategy);
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
        let ta = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::TopologyAware);
        let ro = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::RankOrder);
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
        let best = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::TopologyAware);
        let worst = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::WorstCase);
        let cb = topo_aware_cost(&m, &members, &weights, 0, best);
        let cw = topo_aware_cost(&m, &members, &weights, 0, worst);
        assert!(cw >= cb);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_partition() {
        let m = mira();
        let members: Vec<usize> = (0..10).collect();
        let weights = vec![1u64; 10];
        let a = elect_aggregator(&m, &members, &weights, 0, 3, PlacementStrategy::Random { seed: 42 });
        let b = elect_aggregator(&m, &members, &weights, 0, 3, PlacementStrategy::Random { seed: 42 });
        assert_eq!(a, b);
        // different partitions usually differ (not guaranteed, but with
        // 10 members collisions across 8 partitions are unlikely to all match)
        let picks: Vec<usize> = (0..8)
            .map(|p| elect_aggregator(&m, &members, &weights, 0, p, PlacementStrategy::Random { seed: 42 }))
            .collect();
        assert!(picks.iter().any(|&x| x != picks[0]));
    }

    #[test]
    fn shortest_path_prefers_bridge_nodes() {
        let m = mira();
        // include a rank on bridge node 0 (rank 0) and distant ranks
        let members = vec![0usize, 40 * 16, 90 * 16];
        let weights = vec![1u64; 3];
        let w = elect_aggregator(&m, &members, &weights, 0, 0, PlacementStrategy::ShortestPathToIo);
        assert_eq!(w, 0);
    }

    #[test]
    #[should_panic(expected = "empty partition")]
    fn empty_members_panics() {
        let m = mira();
        elect_aggregator(&m, &[], &[], 0, 0, PlacementStrategy::TopologyAware);
    }
}
