//! Placement explorer: watch the paper's cost model pick aggregators.
//!
//! Run with: `cargo run --example placement_explorer`
//!
//! Builds the Mira (BG/Q, 512 nodes) machine model, forms one partition
//! of ranks spread across a Pset, and prints the `C1` (aggregation) and
//! `C2` (I/O) costs of every candidate together with which one each
//! strategy elects. This is the Sec. IV-B machinery in isolation — no
//! data is moved.

use tapioca::placement::{
    aggregation_cost, elect_aggregator, elect_partitions, io_cost, PartitionElection,
    PlacementStrategy,
};
use tapioca_topology::{mira_profile, TopologyProvider, MIB};

fn main() {
    let profile = mira_profile(512, 16);
    let machine = &profile.machine;
    println!("machine: {}", profile.name);
    println!(
        "{} nodes x {} ranks/node, {}D torus\n",
        machine.num_nodes(),
        machine.ranks_per_node(),
        machine.network_dimensions()
    );

    // A partition: 16 member ranks spread over one Pset (nodes 0..128),
    // one rank every 8 nodes. Each contributes 16 MiB.
    let members: Vec<usize> = (0..16).map(|i| i * 8 * 16).collect();
    let weights = vec![16 * MIB; members.len()];
    let io_nodes = machine.io_nodes_for(&members);
    let io = io_nodes[0];
    let total: u64 = weights.iter().sum();

    println!("partition of {} members, {} MiB total, I/O node {io}", members.len(), total / MIB);
    println!("{:>6} {:>14} {:>10} {:>12} {:>12} {:>12}", "cand", "coords", "d(A,IO)", "C1 (ms)", "C2 (ms)", "C1+C2 (ms)");
    let mut best = (f64::INFINITY, 0usize);
    for (i, &m) in members.iter().enumerate() {
        let c1 = aggregation_cost(machine, &members, &weights, i);
        let c2 = io_cost(machine, m, io, total);
        let coords = machine.rank_to_coordinates(m);
        let d_io = machine.distance_to_io_node(m, io).expect("known on BG/Q");
        if c1 + c2 < best.0 {
            best = (c1 + c2, i);
        }
        println!(
            "{i:>6} {:>14} {d_io:>10} {:>12.3} {:>12.3} {:>12.3}",
            format!("{coords:?}"),
            c1 * 1e3,
            c2 * 1e3,
            (c1 + c2) * 1e3
        );
    }
    println!("\nminimum objective: candidate {} (the MINLOC winner)\n", best.1);

    let part =
        PartitionElection { members: &members, weights: &weights, io, partition_index: 0 };
    for strategy in [
        PlacementStrategy::TopologyAware,
        PlacementStrategy::RankOrder,
        PlacementStrategy::ShortestPathToIo,
        PlacementStrategy::Random { seed: 42 },
        PlacementStrategy::WorstCase,
    ] {
        let e = elect_partitions(machine, &[part], strategy)[0];
        assert_eq!(
            e,
            elect_aggregator(machine, &members, &weights, io, 0, strategy),
            "the folded election must agree with the pairwise reference"
        );
        let cost = aggregation_cost(machine, &members, &weights, e)
            + io_cost(machine, members[e], io, total);
        println!("{strategy:?} elects candidate {e:>2} (objective {:.3} ms)", cost * 1e3);
    }

    // Sanity: the topology-aware election matches the explicit minimum.
    let ta = elect_partitions(machine, &[part], PlacementStrategy::TopologyAware)[0];
    assert_eq!(ta, best.1, "election must minimize the objective");
    println!("\nelection matches the explicit cost minimum.");
}
