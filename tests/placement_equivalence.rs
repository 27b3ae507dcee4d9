//! Property sweep: the node-folded election must pick the *identical*
//! winner — same index, same MINLOC tie-break — as the naive pairwise
//! oracle, for every strategy, on every machine profile, across
//! irregular partition shapes and adversarial weight patterns.
//!
//! `elect_partitions` is allowed to evaluate folded costs in a
//! different floating-point order than the oracle only because it prunes
//! with a tolerance and replays survivors through the oracle's exact
//! arithmetic (`election_cost`). This sweep is the evidence that the
//! prune is conservative enough in practice: ties, cancellation-heavy
//! weights, and single-node partitions all land on the oracle's answer.

use std::collections::BTreeSet;

use tapioca::placement::{
    elect_aggregator, elect_partitions, PartitionElection, PlacementStrategy,
};
use tapioca_topology::{cluster_profile, mira_profile, theta_profile, Rank, TopologyProvider};

/// SplitMix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An irregular membership: a few clustered node runs plus scattered
/// stragglers, deduplicated and sorted (partitions are rank-sorted).
fn irregular_members(rng: &mut Rng, num_ranks: usize, target: usize) -> Vec<Rank> {
    let mut set = BTreeSet::new();
    while set.len() < target {
        if rng.below(3) > 0 {
            // clustered run of consecutive ranks
            let start = rng.below(num_ranks as u64) as usize;
            let run = 1 + rng.below(24) as usize;
            for r in start..(start + run).min(num_ranks) {
                set.insert(r);
                if set.len() >= target {
                    break;
                }
            }
        } else {
            set.insert(rng.below(num_ranks as u64) as usize);
        }
    }
    set.into_iter().collect()
}

/// Weight patterns chosen to stress the folded prune: exact ties,
/// random spreads, one member dominating its node's fold (maximum
/// cancellation in `W(node) - w_cand`), and mostly-zero sparsity.
fn weights_for(rng: &mut Rng, n: usize, pattern: usize) -> Vec<u64> {
    match pattern % 4 {
        0 => vec![1 << 20; n],
        1 => (0..n).map(|_| rng.below(64 * 1024 * 1024)).collect(),
        2 => {
            let mut w = vec![1u64; n];
            w[rng.below(n as u64) as usize] = 1 << 34;
            w
        }
        _ => (0..n).map(|_| if rng.below(5) == 0 { rng.below(1 << 22) } else { 0 }).collect(),
    }
}

fn strategies() -> Vec<PlacementStrategy> {
    vec![
        PlacementStrategy::TopologyAware,
        PlacementStrategy::RankOrder,
        PlacementStrategy::ShortestPathToIo,
        PlacementStrategy::WorstCase,
        PlacementStrategy::Random { seed: 0xfeed },
    ]
}

fn machines() -> Vec<(&'static str, Box<dyn TopologyProvider>)> {
    vec![
        ("mira", Box::new(mira_profile(512, 16).machine)),
        ("theta", Box::new(theta_profile(512, 16).machine)),
        ("cluster", Box::new(cluster_profile(128, 16).machine)),
    ]
}

#[test]
fn fast_election_matches_naive_oracle_everywhere() {
    let mut rng = Rng(0x7a91_0cc5);
    for (name, topo) in machines() {
        let topo = topo.as_ref();
        let num_ranks = topo.num_ranks();
        for strategy in strategies() {
            for case in 0..12usize {
                // sizes span sub-fold (< 8 members), one-node, and
                // multi-node shapes
                let target = match case % 4 {
                    0 => 1 + rng.below(7) as usize,
                    1 => topo.ranks_per_node().min(num_ranks),
                    _ => 16 + rng.below(113) as usize,
                };
                let members = irregular_members(&mut rng, num_ranks, target);
                let weights = weights_for(&mut rng, members.len(), case);
                let io = topo.io_nodes_for(&members).first().copied().unwrap_or(0);
                let part = case * 7 + 1;
                let naive = elect_aggregator(topo, &members, &weights, io, part, strategy);
                let fast = elect_partitions(
                    topo,
                    &[PartitionElection {
                        members: &members,
                        weights: &weights,
                        io,
                        partition_index: part,
                    }],
                    strategy,
                )[0];
                assert_eq!(
                    fast, naive,
                    "winner mismatch: machine={name} strategy={strategy:?} case={case} \
                     members={} (fast={fast} naive={naive})",
                    members.len(),
                );
            }
        }
    }
}

#[test]
fn batched_elections_match_per_partition_oracle() {
    let mut rng = Rng(0xbead_5151);
    let profile = mira_profile(512, 16);
    let topo = &profile.machine;
    for strategy in strategies() {
        let shapes: Vec<(Vec<Rank>, Vec<u64>)> = (0..9usize)
            .map(|case| {
                let members = irregular_members(&mut rng, topo.num_ranks(), 8 + case * 13);
                let weights = weights_for(&mut rng, members.len(), case);
                (members, weights)
            })
            .collect();
        let parts: Vec<PartitionElection<'_>> = shapes
            .iter()
            .enumerate()
            .map(|(i, (m, w))| PartitionElection {
                members: m,
                weights: w,
                io: topo.io_nodes_for(m).first().copied().unwrap_or(0),
                partition_index: i,
            })
            .collect();
        let batched = elect_partitions(topo, &parts, strategy);
        for (p, &choice) in parts.iter().zip(&batched) {
            let naive = elect_aggregator(
                topo,
                p.members,
                p.weights,
                p.io,
                p.partition_index,
                strategy,
            );
            assert_eq!(
                choice, naive,
                "batch mismatch: strategy={strategy:?} partition={}",
                p.partition_index
            );
        }
    }
}

/// Enough total work (`sum of members^2`) to cross the internal
/// parallelism threshold, so the threaded fan-out path is exercised and
/// must still reproduce the oracle exactly.
#[test]
fn parallel_election_path_matches_oracle() {
    let mut rng = Rng(0x0dd_ba11);
    let profile = mira_profile(512, 16);
    let topo = &profile.machine;
    let shapes: Vec<(Vec<Rank>, Vec<u64>)> = (0..2usize)
        .map(|case| {
            let members = irregular_members(&mut rng, topo.num_ranks(), 1024);
            let weights = weights_for(&mut rng, members.len(), case + 1);
            (members, weights)
        })
        .collect();
    let parts: Vec<PartitionElection<'_>> = shapes
        .iter()
        .enumerate()
        .map(|(i, (m, w))| PartitionElection {
            members: m,
            weights: w,
            io: topo.io_nodes_for(m).first().copied().unwrap_or(0),
            partition_index: i,
        })
        .collect();
    // 2 * 1024^2 = 2 MiB of work units > the 1 MiB fan-out threshold.
    let batched = elect_partitions(topo, &parts, PlacementStrategy::TopologyAware);
    for (p, &choice) in parts.iter().zip(&batched) {
        let naive = elect_aggregator(
            topo,
            p.members,
            p.weights,
            p.io,
            p.partition_index,
            PlacementStrategy::TopologyAware,
        );
        assert_eq!(choice, naive, "parallel path mismatch at partition {}", p.partition_index);
    }
}
