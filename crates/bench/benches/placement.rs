//! The aggregator election of one partition: `elect_partitions` (the
//! node-folded path the executors run) beside the `elect_aggregator`
//! pairwise reference (what every partition's MINLOC reduction computes
//! in aggregate).
//!
//! Self-timed: median of repeated runs, printed as CSV.

use std::hint::black_box;
use std::time::Instant;
use tapioca::placement::{
    elect_aggregator, elect_partitions, PartitionElection, PlacementStrategy,
};
use tapioca_topology::{mira_profile, theta_profile, MIB};

fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let mira = mira_profile(512, 16);
    let theta = theta_profile(512, 16);

    println!("bench,machine,members,median_ns");
    for &members_n in &[16usize, 64, 128] {
        // members spread across the machine, equal weights
        let members: Vec<usize> = (0..members_n).map(|i| i * 61 * 16 % 8192).collect();
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let weights = vec![16 * MIB; sorted.len()];

        for (name, machine) in [("mira", &mira.machine), ("theta", &theta.machine)] {
            let ns = median_ns(50, || {
                black_box(elect_aggregator(
                    machine,
                    black_box(&sorted),
                    &weights,
                    0,
                    0,
                    PlacementStrategy::TopologyAware,
                ));
            });
            println!("elect_aggregator,{name},{members_n},{ns}");
            let part = [PartitionElection {
                members: &sorted,
                weights: &weights,
                io: 0,
                partition_index: 0,
            }];
            let ns = median_ns(50, || {
                black_box(elect_partitions(
                    machine,
                    black_box(&part),
                    PlacementStrategy::TopologyAware,
                ));
            });
            println!("elect_partitions,{name},{members_n},{ns}");
        }
    }
}
