//! Golden-config regression suite for the autotuner.
//!
//! The search is deterministic end to end (fixed enumeration order,
//! deterministic simulator, index-ordered parallel confirmation), so
//! the tuned configuration for a fixed workload is an exact value — any
//! drift in the cost model, the search staging, or the simulator that
//! changes a winner shows up here as a failed equality, not a vague
//! perf delta.
//!
//! Two layers:
//! * exact pins for the paper grid: {mira, theta} × {IOR, HACC} ×
//!   {write, read};
//! * a seeded property sweep (8+ workload variations per machine):
//!   `tuned bandwidth >= rule-based bandwidth`, always, plus run-to-run
//!   determinism.

use tapioca::autotune::{autotune, TierAssignment};
use tapioca::placement::PlacementStrategy;
use tapioca::sim_exec::{CollectiveSpec, GroupSpec, StorageConfig};
use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, MIB};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

const MIRA_NODES: usize = 128; // one Pset
const THETA_NODES: usize = 32;
const RPN: usize = 4;

fn single_file(n: usize, decls: Vec<Vec<tapioca::schedule::WriteDecl>>, mode: AccessMode) -> CollectiveSpec {
    CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..n).collect(), decls }],
        mode,
    }
}

fn ior(n: usize, bytes_per_rank: u64, mode: AccessMode) -> CollectiveSpec {
    single_file(n, IorSpec { num_ranks: n, bytes_per_rank }.decls(), mode)
}

fn hacc(n: usize, bytes_per_rank: u64, mode: AccessMode) -> CollectiveSpec {
    let w = HaccIo {
        num_ranks: n,
        particles_per_rank: bytes_per_rank / 38,
        layout: Layout::ArrayOfStructs,
    };
    single_file(n, w.decls(), mode)
}

fn mira() -> (MachineProfile, StorageConfig) {
    (mira_profile(MIRA_NODES, RPN), StorageConfig::Gpfs(GpfsTunables::mira_optimized()))
}

fn theta(stor: LustreTunables) -> (MachineProfile, StorageConfig) {
    (theta_profile(THETA_NODES, RPN), StorageConfig::Lustre(stor))
}

/// One pinned expectation.
struct Golden {
    name: &'static str,
    aggregators: usize,
    buffer: u64,
    strategy: PlacementStrategy,
    pipelining: bool,
    tier: TierAssignment,
}

fn check(
    g: &Golden,
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
) {
    let out = autotune(profile, storage, spec).unwrap();
    assert_eq!(out.best.num_aggregators, g.aggregators, "{}: aggregators", g.name);
    assert_eq!(out.best.buffer_size, g.buffer, "{}: buffer", g.name);
    assert_eq!(out.best.strategy, g.strategy, "{}: strategy", g.name);
    assert_eq!(out.best.pipelining, g.pipelining, "{}: pipelining", g.name);
    assert_eq!(out.tier, g.tier, "{}: tier", g.name);
    assert!(
        out.tuned_bandwidth >= out.rule_bandwidth,
        "{}: tuned {} < rule {}",
        g.name,
        out.tuned_bandwidth,
        out.rule_bandwidth
    );
}

#[test]
fn golden_mira_ior_write() {
    let (profile, storage) = mira();
    let n = MIRA_NODES * RPN;
    check(
        &Golden {
            name: "mira/ior/write",
            aggregators: 16,
            buffer: 16 * MIB,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            tier: TierAssignment::DramDirect,
        },
        &profile,
        &storage,
        &ior(n, MIB, AccessMode::Write),
    );
}

/// `TopologyAware`: the 120-point grid short-lists 7 configs, and
/// 16 × 4 MiB `RankOrder` (2.94494e9 B/s simulated, 0.003% faster than
/// this pin's 2.94485e9) is not among them.
#[test]
fn golden_mira_ior_read() {
    let (profile, storage) = mira();
    let n = MIRA_NODES * RPN;
    check(
        &Golden {
            name: "mira/ior/read",
            aggregators: 16,
            buffer: 4 * MIB,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            tier: TierAssignment::DramDirect,
        },
        &profile,
        &storage,
        &ior(n, MIB, AccessMode::Read),
    );
}

#[test]
fn golden_mira_hacc_write() {
    let (profile, storage) = mira();
    let n = MIRA_NODES * RPN;
    check(
        &Golden {
            name: "mira/hacc/write",
            aggregators: 16,
            buffer: 16 * MIB,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            tier: TierAssignment::DramDirect,
        },
        &profile,
        &storage,
        &hacc(n, MIB, AccessMode::Write),
    );
}

#[test]
fn golden_mira_hacc_read() {
    let (profile, storage) = mira();
    let n = MIRA_NODES * RPN;
    check(
        &Golden {
            name: "mira/hacc/read",
            aggregators: 16,
            buffer: 4 * MIB,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            tier: TierAssignment::DramDirect,
        },
        &profile,
        &storage,
        &hacc(n, MIB, AccessMode::Read),
    );
}

#[test]
fn golden_theta_ior_write() {
    let (profile, storage) = theta(LustreTunables::theta_optimized());
    let n = THETA_NODES * RPN;
    check(
        &Golden {
            name: "theta/ior/write",
            aggregators: 96,
            buffer: 8 * MIB,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            tier: TierAssignment::DramDirect,
        },
        &profile,
        &storage,
        &ior(n, MIB, AccessMode::Write),
    );
}

#[test]
fn golden_theta_ior_read() {
    let (profile, storage) = theta(LustreTunables::theta_optimized());
    let n = THETA_NODES * RPN;
    check(
        &Golden {
            name: "theta/ior/read",
            aggregators: 48,
            buffer: 4 * MIB,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            tier: TierAssignment::McdramDirect,
        },
        &profile,
        &storage,
        &ior(n, MIB, AccessMode::Read),
    );
}

#[test]
fn golden_theta_hacc_write() {
    let (profile, storage) = theta(LustreTunables::theta_hacc());
    let n = THETA_NODES * RPN;
    check(
        &Golden {
            name: "theta/hacc/write",
            aggregators: 96,
            buffer: 16 * MIB,
            strategy: PlacementStrategy::TopologyAware,
            pipelining: true,
            tier: TierAssignment::DramDirect,
        },
        &profile,
        &storage,
        &hacc(n, MIB, AccessMode::Write),
    );
}

/// `ShortestPathToIo`: with no extra aggregator-ladder points scored,
/// 24 × 8 MiB `ShortestPathToIo` reaches the short-list and simulates
/// 1.24325e10 B/s against `TopologyAware`'s 1.24310e10.
#[test]
fn golden_theta_hacc_read() {
    let (profile, storage) = theta(LustreTunables::theta_hacc());
    let n = THETA_NODES * RPN;
    check(
        &Golden {
            name: "theta/hacc/read",
            aggregators: 24,
            buffer: 8 * MIB,
            strategy: PlacementStrategy::ShortestPathToIo,
            pipelining: true,
            tier: TierAssignment::McdramDirect,
        },
        &profile,
        &storage,
        &hacc(n, MIB, AccessMode::Read),
    );
}

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
}

/// The property the whole subsystem promises: on *any* workload, the
/// tuned configuration is at least as fast (simulated) as the paper's
/// rule-based hand-tuning — because the rule-based config is always in
/// the confirmed short-list. Exercised on 8 seeded variations per
/// machine (varying rank count, per-rank size, mode, and workload
/// shape) plus run-to-run determinism on each.
#[test]
fn tuned_never_loses_to_rule_based_across_seeded_variations() {
    for seed in 0..8u64 {
        let mut rng = Rng(0x601d ^ seed.wrapping_mul(0x9e37_79b9)); // per-seed stream
        let per_rank = (64 + rng.next() % 1984) * 1024; // 64 KiB .. ~2 MiB
        let mode = if rng.next().is_multiple_of(2) { AccessMode::Write } else { AccessMode::Read };
        let hacc_shape = rng.next().is_multiple_of(2);

        // Theta variation.
        let tn = 16 * (1 + (rng.next() % 8) as usize); // 16..128 ranks (fits the profile)
        let (tp, ts) = theta(LustreTunables::theta_optimized());
        let tspec = if hacc_shape { hacc(tn, per_rank, mode) } else { ior(tn, per_rank, mode) };
        let a = autotune(&tp, &ts, &tspec).unwrap();
        assert!(
            a.tuned_bandwidth >= a.rule_bandwidth,
            "theta seed {seed}: tuned {} < rule {}",
            a.tuned_bandwidth,
            a.rule_bandwidth
        );
        let a2 = autotune(&tp, &ts, &tspec).unwrap();
        assert_eq!(a.best, a2.best, "theta seed {seed}: non-deterministic tuning");

        // Mira variation (Pset-shaped group).
        let mn = 128 * (1 + (rng.next() % 3) as usize); // 128..384 ranks
        let (mp, ms) = mira();
        let mspec = if hacc_shape { hacc(mn, per_rank, mode) } else { ior(mn, per_rank, mode) };
        let b = autotune(&mp, &ms, &mspec).unwrap();
        assert!(
            b.tuned_bandwidth >= b.rule_bandwidth,
            "mira seed {seed}: tuned {} < rule {}",
            b.tuned_bandwidth,
            b.rule_bandwidth
        );
        let b2 = autotune(&mp, &ms, &mspec).unwrap();
        assert_eq!(b.best, b2.best, "mira seed {seed}: non-deterministic tuning");
    }
}
