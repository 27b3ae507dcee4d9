//! Property sweep: the node-folded election must pick the *identical*
//! winner — same index, same MINLOC tie-break — as the naive pairwise
//! oracle, for every strategy, on every machine profile, across
//! irregular partition shapes and adversarial weight patterns.
//!
//! `elect_partitions` is allowed to evaluate folded costs in a
//! different floating-point order than the oracle only because it prunes
//! with a tolerance and replays survivors through the oracle's exact
//! arithmetic (`election_cost`), once per run of consecutive co-located,
//! equal-weight members. This sweep is the evidence that the
//! prune is conservative enough in practice: ties, cancellation-heavy
//! weights, and single-node partitions all land on the oracle's answer.
//! The random sweep rarely ties, so a second, workload-shaped sweep
//! (contiguous blocks, uniform weights) covers the regime real runs are
//! in: many candidates exactly tied, MINLOC decided in the replay.

use std::collections::BTreeSet;

use tapioca::placement::{
    elect_aggregator, elect_partitions, election_cost, election_costs, PartitionElection,
    PlacementStrategy,
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

/// The shape HACC and IOR actually present: a contiguous block of ranks
/// inside one Pset / dragonfly group / fat-tree, every member
/// contributing the same byte count. Co-located candidates then have
/// *exactly* equal oracle costs, so the fold cannot separate them and
/// the winner is decided by the exact replay's MINLOC tie-break.
#[test]
fn uniform_block_partitions_tie_heavily_and_match_oracle() {
    for (name, topo) in machines() {
        let topo = topo.as_ref();
        let rpn = topo.ranks_per_node();
        // Block starts: node-aligned, and straddling node boundaries
        // (every node keeps at least two members, so whichever node
        // wins, the winner has an exactly tied neighbour).
        for (members_n, start) in [(128, 0), (129, 1000), (516, rpn / 2), (2048, 0)] {
            let members: Vec<Rank> = (start..start + members_n).collect();
            let weights = vec![1_048_576u64; members_n];
            let io = topo.io_nodes_for(&members).first().copied().unwrap_or(0);
            let part =
                PartitionElection { members: &members, weights: &weights, io, partition_index: 5 };
            for strategy in [PlacementStrategy::TopologyAware, PlacementStrategy::WorstCase] {
                let naive = elect_aggregator(topo, &members, &weights, io, 5, strategy);
                let fast = elect_partitions(topo, &[part], strategy)[0];
                assert_eq!(
                    fast, naive,
                    "winner mismatch: machine={name} strategy={strategy:?} \
                     members={members_n} start={start}"
                );
                // A candidate whose oracle cost equals the winner's lies
                // inside every prune window that keeps the winner, so it
                // reaches the replay: more than one must.
                let cost = |i| election_cost(topo, &members, &weights, io, 5, strategy, i);
                let costs = election_costs(topo, &part, strategy);
                let winner_node = topo.node_of_rank(members[naive]);
                let mut tied = 0;
                for i in (0..members_n).filter(|&i| topo.node_of_rank(members[i]) == winner_node) {
                    assert_eq!(costs[i].to_bits(), cost(i).to_bits(), "cost vector, candidate {i}");
                    tied += usize::from(cost(i) == cost(naive));
                }
                assert!(
                    tied > 1,
                    "machine={name} strategy={strategy:?} members={members_n}: no exact tie \
                     with the winner — the case no longer exercises the replay's tie-break"
                );
            }
        }
    }
}

/// `election_costs` is the per-candidate oracle cost, bit for bit, under
/// every strategy (standby re-election takes its argmin over it).
#[test]
fn cost_vector_matches_per_candidate_oracle() {
    let mut rng = Rng(0x57a9_d0b1);
    for (name, topo) in machines() {
        let topo = topo.as_ref();
        for strategy in strategies() {
            for case in 0..4usize {
                let members = irregular_members(&mut rng, topo.num_ranks(), 5 + case * 37);
                let weights = weights_for(&mut rng, members.len(), case);
                let io = topo.io_nodes_for(&members).first().copied().unwrap_or(0);
                let part = PartitionElection {
                    members: &members,
                    weights: &weights,
                    io,
                    partition_index: case,
                };
                let costs = election_costs(topo, &part, strategy);
                assert_eq!(costs.len(), members.len());
                for (i, c) in costs.iter().enumerate() {
                    let want = election_cost(topo, &members, &weights, io, case, strategy, i);
                    assert_eq!(
                        c.to_bits(),
                        want.to_bits(),
                        "machine={name} strategy={strategy:?} case={case} candidate={i}"
                    );
                }
            }
        }
    }
}

/// A batch large enough that the old election fanned out across threads;
/// the serial batch must still reproduce the oracle exactly.
#[test]
fn large_batch_matches_oracle() {
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
        assert_eq!(choice, naive, "large batch mismatch at partition {}", p.partition_index);
    }
}

/// Run-structured partitions. A run is a maximal range of consecutive
/// members on one node with one weight; the election replays one exact
/// cost per run and `election_costs` copies it across the run. Each case
/// here puts a different run boundary in play:
///
/// * `theta-ior`: the `sim-theta-ior` partition shape, 176 uniform
///   1 MiB members on 11 nodes (one run per node), node-aligned and
///   straddling;
/// * `alternating`: the weight changes at every member, so every run
///   has length 1;
/// * `paired`: two weights per node, so one node holds two runs;
/// * `zero-inside`: one zero-weight member splits its node's run;
/// * `split-node`: one node's ranks are listed in two stretches with
///   another node's between them — two runs, although one slot.
#[test]
fn run_structured_partitions_match_oracle_bit_for_bit() {
    const MIB: u64 = 1 << 20;
    for (name, topo) in machines() {
        let topo = topo.as_ref();
        let rpn = topo.ranks_per_node();
        let block = |start: Rank, n: usize| -> Vec<Rank> { (start..start + n).collect() };
        let cases: Vec<(&str, Vec<Rank>, Vec<u64>)> = vec![
            ("theta-ior", block(176 * 3, 176), vec![MIB; 176]),
            ("theta-ior-straddling", block(8, 175), vec![MIB; 175]),
            (
                "alternating",
                block(0, 4 * rpn),
                (0..4 * rpn as u64).map(|i| MIB + (i % 2) * 4096).collect(),
            ),
            (
                "paired",
                block(rpn, 6 * rpn),
                (0..6 * rpn).map(|i| if i % rpn < rpn / 2 { MIB } else { 2 * MIB }).collect(),
            ),
            (
                "zero-inside",
                block(0, 5 * rpn),
                (0..5 * rpn).map(|i| if i == 2 * rpn + rpn / 2 { 0 } else { MIB }).collect(),
            ),
            (
                "split-node",
                [block(0, rpn / 2), block(rpn, rpn), block(rpn / 2, rpn / 2)].concat(),
                vec![MIB; 2 * rpn],
            ),
        ];
        for (case, members, weights) in &cases {
            assert_eq!(members.len(), weights.len());
            let io = topo.io_nodes_for(members).first().copied().unwrap_or(0);
            let part = PartitionElection { members, weights, io, partition_index: 2 };
            for strategy in [
                PlacementStrategy::TopologyAware,
                PlacementStrategy::WorstCase,
                PlacementStrategy::ShortestPathToIo,
            ] {
                let naive = elect_aggregator(topo, members, weights, io, 2, strategy);
                let fast = elect_partitions(topo, &[part], strategy)[0];
                assert_eq!(fast, naive, "winner: machine={name} case={case} strategy={strategy:?}");
                let costs = election_costs(topo, &part, strategy);
                assert_eq!(costs.len(), members.len());
                for (i, c) in costs.iter().enumerate() {
                    let want = election_cost(topo, members, weights, io, 2, strategy, i);
                    assert_eq!(
                        c.to_bits(),
                        want.to_bits(),
                        "cost: machine={name} case={case} strategy={strategy:?} candidate={i}"
                    );
                }
            }
        }
    }
}
