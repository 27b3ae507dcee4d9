//! Tracked performance harness: self-times the aggregator election
//! (`elect_partitions` vs. the pairwise `elect_aggregator` reference),
//! simulator set-up across rank counts and the netsim engine
//! (incremental vs. full re-waterfilling), then writes `BENCH_perf.json`
//! at the repo root in a stable schema.
//!
//! Usage:
//!
//! ```text
//! perfbench [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks every sweep to CI-sized shapes (seconds, not
//! minutes) while keeping the output schema identical, so the CI job
//! can validate the file without caring which mode produced it.
//!
//! Schema (`tapioca-perfbench/v12`):
//!
//! ```json
//! {
//!   "schema": "tapioca-perfbench/v12",
//!   "smoke": false,
//!   "suites": {
//!     "election": [ { "machine", "strategy", "weights", "members",
//!                     "ranks", "ranks_per_node", "reps", "naive_ns",
//!                     "fast_ns", "speedup", "same_winner" } ],
//!     "scale":    { "workload", "threads", "setup_exponent",
//!                   "rows": [ { "ranks", "nodes", "groups", "reps",
//!                               "setup_s", "first_epoch_s", "epoch_s",
//!                               "peak_rss_mib", "replay_identical" } ] },
//!     "netsim_incremental":
//!                 [ { "workload", "links", "flows", "parts", "reps",
//!                     "full_ns", "incr_ns", "speedup", "identical" } ]
//!   }
//! }
//! ```
//!
//! `election` rows come in two membership shapes. `"weights":
//! "random"` is an irregular membership (clustered runs plus
//! stragglers) with random byte counts: few candidates tie, so it times
//! the fold. `"weights": "uniform"` is the shape HACC and IOR actually
//! present — a contiguous rank block with equal byte counts — where
//! fabric symmetry leaves a large share of the candidates inside the
//! prune window and the exact replay carries the time; it replays one
//! candidate per node, since a node's ranks form one run (consecutive
//! members with one node and one weight). `"weights": "paired"` is the
//! same block with byte counts alternating between two values every 8
//! ranks, so each 16-rank node holds two runs and the replay count
//! doubles.
//!
//! `scale` builds and runs Mira HACC-IO SoA (≈1 MiB per rank, one file
//! per Pset, 16 aggregators per Pset, 16 MiB buffers — the
//! `sim-mira-hacc` workload of `BENCHMARK.json`) through `SimSession`
//! at growing rank counts, up to the whole machine (49,152 nodes,
//! 786,432 ranks, 384 Psets): `setup_s` is the median
//! `SimSession::build`, `first_epoch_s` the median first `run_epoch` of
//! a session (which lowers the plan onto a simulator the session keeps
//! unrun), `epoch_s` the median of the later, warm ones (each runs a
//! clone of that simulator), `peak_rss_mib` the process high-water mark
//! (`VmHWM`) once that size has run — the suite runs first and sizes
//! ascend, so it is that size's peak. `replay_identical` says every
//! epoch's `SimReport`, `op_finish` included, is bit-identical to the
//! first epoch of the row's first session. `setup_exponent`
//! is the least-squares slope of `ln setup_s` over `ln ranks`;
//! `threads` is `available_parallelism`, which bounds the group
//! fan-out of `build`.
//!
//! `netsim_incremental` times the component-sharded engine on
//! multi-partition round workloads (the shape `sim_exec` submits):
//! `full_ns` re-waterfills every component whole per event
//! (`Recompute::Full`, the reference) and `incr_ns` re-waterfills only
//! the dirty rate-coupled blocks of dirty components. `speedup` is
//! `full_ns / incr_ns`; `identical` asserts both produce bitwise-equal
//! schedules. The `shared_sinks` workload is the one whose partitions
//! merge into a single component that the engine splits into blocks.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use tapioca::placement::{
    elect_aggregator, elect_partitions, PartitionElection, PlacementStrategy,
};
use tapioca::prelude::*;
use tapioca::sim_exec::{SimReport, SimSession, StorageConfig};
use tapioca_bench::hacc_mira;
use tapioca_netsim::{Recompute, Simulator};
use tapioca_pfs::GpfsTunables;
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, TopologyProvider, MIB};
use tapioca_workloads::hacc::{HaccIo, Layout};

/// SplitMix64 — the workspace has no external RNG dependency.
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

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn strategy_name(s: PlacementStrategy) -> &'static str {
    match s {
        PlacementStrategy::TopologyAware => "topology_aware",
        PlacementStrategy::RankOrder => "rank_order",
        PlacementStrategy::ShortestPathToIo => "shortest_path_to_io",
        PlacementStrategy::WorstCase => "worst_case",
        PlacementStrategy::Random { .. } => "random",
    }
}

/// An irregular, rank-sorted membership: clustered node runs plus
/// scattered stragglers — the shape real partitions take.
fn irregular_members(rng: &mut Rng, num_ranks: usize, target: usize) -> Vec<usize> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < target {
        if rng.below(3) > 0 {
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

/// Time one election shape under `strategy` and append its row.
fn election_row(
    json: &mut String,
    (name, topo): (&str, &dyn TopologyProvider),
    strategy: PlacementStrategy,
    weights_kind: &str,
    members: &[usize],
    weights: &[u64],
) {
    let members_n = members.len();
    let io = topo.io_nodes_for(members).first().copied().unwrap_or(0);
    // The oracle is O(P^2) topology queries; keep large shapes to a
    // single timed run so the full sweep stays tractable.
    let naive_reps = if members_n >= 2048 { 1 } else { 5 };
    let mut naive_pick = 0usize;
    let naive_ns = median_ns(naive_reps, || {
        naive_pick =
            black_box(elect_aggregator(topo, black_box(members), weights, io, 3, strategy));
    });
    let part = [PartitionElection { members, weights, io, partition_index: 3 }];
    let mut fast_pick = 0usize;
    let fast_ns = median_ns(naive_reps.max(5), || {
        fast_pick = black_box(elect_partitions(topo, black_box(&part), strategy))[0];
    });
    let speedup = naive_ns as f64 / (fast_ns as f64).max(1.0);
    eprintln!(
        "election {name} {strat} {weights_kind} members={members_n}: naive {naive_ns} ns, \
         fast {fast_ns} ns ({speedup:.1}x, same_winner={})",
        naive_pick == fast_pick,
        strat = strategy_name(strategy),
    );
    if !json.is_empty() {
        json.push(',');
    }
    let _ = write!(
        json,
        "\n    {{\"machine\": \"{name}\", \"strategy\": \"{}\", \
         \"weights\": \"{weights_kind}\", \
         \"members\": {members_n}, \"ranks\": {}, \"ranks_per_node\": {}, \
         \"reps\": {naive_reps}, \"naive_ns\": {naive_ns}, \
         \"fast_ns\": {fast_ns}, \"speedup\": {speedup:.3}, \
         \"same_winner\": {}}}",
        strategy_name(strategy),
        topo.num_ranks(),
        topo.ranks_per_node(),
        naive_pick == fast_pick,
    );
}

fn election_suite(smoke: bool, json: &mut String) {
    let machines: Vec<(&str, MachineProfile)> =
        vec![("mira", mira_profile(512, 16)), ("theta", theta_profile(512, 16))];
    let sizes: &[usize] = if smoke { &[64, 256] } else { &[256, 1024, 4096] };
    // One Pset of Mira holds 2,048 ranks; blocks stay inside it.
    let block_sizes: &[usize] = if smoke { &[128, 512] } else { &[128, 512, 2048] };
    let strategies = [
        PlacementStrategy::TopologyAware,
        PlacementStrategy::RankOrder,
        PlacementStrategy::ShortestPathToIo,
        PlacementStrategy::WorstCase,
        PlacementStrategy::Random { seed: 0xfeed },
    ];

    for (name, profile) in &machines {
        let topo = &profile.machine;
        for &members_n in sizes {
            let mut rng = Rng(0xe1ec_7104 ^ members_n as u64);
            let members = irregular_members(&mut rng, topo.num_ranks(), members_n);
            let weights: Vec<u64> =
                members.iter().map(|_| rng.below(64 * 1024 * 1024)).collect();
            for strategy in strategies {
                election_row(json, (name, topo), strategy, "random", &members, &weights);
            }
        }
        // Only the two cost-model strategies read the weights.
        for &members_n in block_sizes {
            let members: Vec<usize> = (0..members_n).collect();
            let uniform = vec![MIB; members_n];
            let paired: Vec<u64> = (0..members_n).map(|i| MIB << (i / 8 % 2)).collect();
            for (kind, weights) in [("uniform", &uniform), ("paired", &paired)] {
                for strategy in [PlacementStrategy::TopologyAware, PlacementStrategy::WorstCase] {
                    election_row(json, (name, topo), strategy, kind, &members, weights);
                }
            }
        }
    }
}

/// Process peak resident set (`VmHWM`) in MiB; 0 where `/proc` has none.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every field of a report, times as bits, for a bitwise comparison.
fn report_bits(r: &SimReport) -> Vec<u64> {
    let mut bits = vec![
        r.elapsed.to_bits(),
        r.bytes.to_bits(),
        r.bandwidth.to_bits(),
        r.transfers as u64,
        r.flushes as u64,
        r.last_transfer_finish.to_bits(),
        r.last_flush_finish.to_bits(),
        r.faults_injected,
        r.retries,
        r.reelections,
        r.degraded,
    ];
    bits.extend(r.op_finish.iter().map(|t| t.to_bits()));
    bits
}

fn median_s(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// ROADMAP item 4's sweep: the paper's largest workload shape at growing
/// rank counts, so "set-up scales to the paper's largest run" — and past
/// it, to all 48 racks of Mira — is a row.
fn scale_suite(smoke: bool, json: &mut String) {
    let node_counts: &[usize] = if smoke {
        &[256, 1024]
    } else {
        &[256, 1024, 4096, 8192, 16384, 24576, 32768, 49152]
    };
    let rpn = 16;
    let cfg = TapiocaConfig { num_aggregators: 16, buffer_size: 16 * MIB, ..Default::default() };
    let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
    // One first epoch per session, then the warm ones.
    let (reps, warm_epochs) = if smoke { (3, 1) } else { (5, 2) };

    let mut rows = String::new();
    let mut points: Vec<(f64, f64)> = Vec::new();
    for &nodes in node_counts {
        let profile = mira_profile(nodes, rpn);
        let spec =
            hacc_mira(nodes, rpn, HaccIo::particles_for_bytes(MIB), Layout::StructOfArrays);
        let mut setups = Vec::new();
        let mut first_epochs = Vec::new();
        let mut warm_epoch_times = Vec::new();
        let mut first_report: Option<Vec<u64>> = None;
        let mut replay_identical = true;
        for _ in 0..reps {
            let t = Instant::now();
            let mut session =
                SimSession::build(&profile, &storage, &spec, &cfg).expect("scale build failed");
            setups.push(t.elapsed().as_secs_f64());
            for epoch in 0..=warm_epochs {
                let t = Instant::now();
                let report = black_box(session.run_epoch().expect("scale epoch failed"));
                let times = if epoch == 0 { &mut first_epochs } else { &mut warm_epoch_times };
                times.push(t.elapsed().as_secs_f64());
                let bits = report_bits(&report);
                replay_identical &= *first_report.get_or_insert_with(|| bits.clone()) == bits;
            }
        }
        let (setup_s, first_epoch_s, epoch_s) =
            (median_s(setups), median_s(first_epochs), median_s(warm_epoch_times));
        let (ranks, groups, rss) = (nodes * rpn, spec.groups.len(), peak_rss_mib());
        eprintln!(
            "scale mira-hacc-soa ranks={ranks} groups={groups}: setup {setup_s:.4} s, \
             first epoch {first_epoch_s:.4} s, warm epoch {epoch_s:.4} s, peak rss {rss:.1} MiB, \
             replay identical {replay_identical}"
        );
        points.push(((ranks as f64).ln(), setup_s.ln()));
        if !rows.is_empty() {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n     {{\"ranks\": {ranks}, \"nodes\": {nodes}, \"groups\": {groups}, \
             \"reps\": {reps}, \"setup_s\": {setup_s:.6}, \
             \"first_epoch_s\": {first_epoch_s:.6}, \"epoch_s\": {epoch_s:.6}, \
             \"peak_rss_mib\": {rss:.1}, \"replay_identical\": {replay_identical}}}"
        );
    }
    // Least-squares slope of ln(setup_s) over ln(ranks).
    let n = points.len() as f64;
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let exponent = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>()
        / points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!("scale mira-hacc-soa: setup_s ~ ranks^{exponent:.2} ({threads} threads)");
    let _ = write!(
        json,
        "{{\"workload\": \"mira-hacc-soa\", \"threads\": {threads}, \
         \"setup_exponent\": {exponent:.3}, \"rows\": [{rows}\n    ]}}"
    );
}

/// Multi-partition fence-ordered rounds — the flow shape `sim_exec`
/// submits for TAPIOCA's Algorithm-3 schedule. Each partition's ranks
/// feed an aggregator over partition-private links, round `r` gated on
/// round `r-1`; cross-partition interference is either zero (Mira
/// subfiling: every Pset writes its own file through its own bridge) or
/// confined to a few shared gateway links (Theta: Aries groups sharing
/// LNET routers). This is where component sharding pays — an event in
/// one partition dirties only that partition's component.
#[derive(Clone, Copy, PartialEq)]
enum RoundWorkload {
    /// Fully link-disjoint partitions (mira/ior subfiling shape).
    Disjoint,
    /// Partitions share a small pool of gateway links (theta/hacc shape).
    SharedGateways,
    /// Every flow also crosses one of a few roomy gateways into one of
    /// a few narrow storage sinks (theta/ior flush shape): the
    /// partitions merge into one interference component, which the
    /// sinks split into rate-coupled blocks.
    SharedSinks,
}

/// Shape of one incremental-suite case.
struct RoundShape {
    parts: usize,
    links_per_part: usize,
    shared: usize,
    rounds: usize,
    flows_per_round: usize,
}

impl RoundShape {
    fn links(&self) -> usize {
        self.parts * self.links_per_part + self.shared
    }

    fn flows(&self) -> usize {
        self.parts * self.rounds * self.flows_per_round
    }
}

/// Build one multi-partition round workload.
fn build_rounds(s: &mut Simulator, shape: &RoundShape, kind: RoundWorkload) {
    let mut rng = Rng(0x0a99_0000 ^ (shape.links() * 131 + shape.flows()) as u64);
    let gateway_base = shape.parts * shape.links_per_part;
    // With sinks, the first half of the shared pool are the gateways.
    let gateways = if kind == RoundWorkload::SharedSinks { shape.shared / 2 } else { shape.shared };
    for l in 0..shape.links() {
        let cap = 1.0 + rng.below(64) as f64;
        let roomy = kind == RoundWorkload::SharedSinks
            && (gateway_base..gateway_base + gateways).contains(&l);
        s.add_virtual_link(if roomy { 1e3 } else { cap });
    }
    for p in 0..shape.parts {
        let base = p * shape.links_per_part;
        let mut prev_round: Vec<usize> = Vec::new();
        for _ in 0..shape.rounds {
            let mut this_round = Vec::with_capacity(shape.flows_per_round);
            for _ in 0..shape.flows_per_round {
                let len = 1 + rng.below(3) as usize;
                let mut route = Vec::with_capacity(len + 1);
                while route.len() < len {
                    let l = base + rng.below(shape.links_per_part as u64) as usize;
                    if !route.contains(&l) {
                        route.push(l);
                    }
                }
                match kind {
                    RoundWorkload::SharedGateways if rng.below(4) == 0 => {
                        route.push(gateway_base + rng.below(shape.shared as u64) as usize);
                    }
                    RoundWorkload::SharedSinks => {
                        let sinks = (shape.shared - gateways) as u64;
                        route.push(gateway_base + rng.below(gateways as u64) as usize);
                        route.push(gateway_base + gateways + rng.below(sinks) as usize);
                    }
                    _ => {}
                }
                let bytes = (1 + rng.below(5000)) as f64 / 7.0;
                let start = rng.below(10) as f64 / 10.0;
                this_round.push(s.submit_with_deps(start, 0.0, &route, bytes, &prev_round));
            }
            prev_round = this_round;
        }
    }
}

/// Finish-time bit patterns of one incremental-suite configuration.
fn round_finishes(mode: Recompute, shape: &RoundShape, kind: RoundWorkload) -> Vec<u64> {
    let mut s = Simulator::with_capacities(Vec::new());
    s.set_recompute(mode);
    build_rounds(&mut s, shape, kind);
    s.run_to_idle();
    (0..s.num_flows()).map(|f| s.finish_time(f).map(f64::to_bits).unwrap_or(0)).collect()
}

fn netsim_incremental_suite(smoke: bool, json: &mut String) {
    let shapes: &[RoundShape] = if smoke {
        &[
            RoundShape { parts: 4, links_per_part: 8, shared: 4, rounds: 4, flows_per_round: 4 },
            RoundShape { parts: 8, links_per_part: 8, shared: 8, rounds: 4, flows_per_round: 4 },
        ]
    } else {
        &[
            RoundShape { parts: 8, links_per_part: 8, shared: 8, rounds: 8, flows_per_round: 8 },
            RoundShape { parts: 16, links_per_part: 16, shared: 8, rounds: 8, flows_per_round: 8 },
            RoundShape { parts: 32, links_per_part: 32, shared: 8, rounds: 8, flows_per_round: 8 },
        ]
    };
    let mut first = true;
    for shape in shapes {
        use RoundWorkload::{Disjoint, SharedGateways, SharedSinks};
        for kind in [Disjoint, SharedGateways, SharedSinks] {
            let kind_name = match kind {
                Disjoint => "disjoint_rounds",
                SharedGateways => "shared_gateways",
                SharedSinks => "shared_sinks",
            };
            // Disjoint cases carry no gateway links at all.
            let shared = if kind == Disjoint { 0 } else { shape.shared };
            let shape = RoundShape { shared, ..*shape };
            let reps = if shape.flows() >= 2048 { 3 } else { 7 };
            // median_ns times the whole closure (the event loop consumes
            // the simulator), so construction is timed separately and
            // subtracted.
            let time_cfg = |mode: Recompute| {
                median_ns(reps, || {
                    let mut s = Simulator::with_capacities(Vec::new());
                    s.set_recompute(mode);
                    build_rounds(&mut s, &shape, kind);
                    black_box(s.run_to_idle());
                })
            };
            let full_total = time_cfg(Recompute::Full);
            let incr_total = time_cfg(Recompute::Incremental);
            let build_only = median_ns(reps, || {
                let mut s = Simulator::with_capacities(Vec::new());
                build_rounds(&mut s, &shape, kind);
                black_box(&s);
            });
            let full_ns = full_total.saturating_sub(build_only).max(1);
            let incr_ns = incr_total.saturating_sub(build_only).max(1);
            let identical = round_finishes(Recompute::Full, &shape, kind)
                == round_finishes(Recompute::Incremental, &shape, kind);
            let speedup = full_ns as f64 / incr_ns as f64;
            let links = shape.links();
            let flows = shape.flows();
            eprintln!(
                "netsim_incremental {kind_name} links={links} flows={flows} \
                 parts={}: full {full_ns} ns, incr {incr_ns} ns \
                 ({speedup:.1}x, identical={identical})",
                shape.parts,
            );
            if !first {
                json.push(',');
            }
            first = false;
            let _ = write!(
                json,
                "\n    {{\"workload\": \"{kind_name}\", \"links\": {links}, \
                 \"flows\": {flows}, \"parts\": {}, \"reps\": {reps}, \
                 \"full_ns\": {full_ns}, \"incr_ns\": {incr_ns}, \"speedup\": {speedup:.3}, \
                 \"identical\": {identical}}}",
                shape.parts,
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{root}/BENCH_perf.json"));

    // First, so the process high-water mark it reports is its own.
    let mut scale = String::new();
    scale_suite(smoke, &mut scale);
    let mut election = String::new();
    let mut incremental = String::new();
    election_suite(smoke, &mut election);
    netsim_incremental_suite(smoke, &mut incremental);

    let json = format!(
        "{{\n  \"schema\": \"tapioca-perfbench/v12\",\n  \"smoke\": {smoke},\n  \
         \"suites\": {{\n   \"election\": [{election}\n   ],\n   \
         \"scale\": {scale},\n   \
         \"netsim_incremental\": [{incremental}\n   ]\n  }}\n}}\n"
    );
    std::fs::write(&out, json).expect("write BENCH_perf.json");
    eprintln!("wrote {out}");
}
