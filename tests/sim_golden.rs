//! Cross-commit golden for simulated results.
//!
//! Every simulated number the reproduction reports comes out of one
//! flow simulation, so a change to how plans are lowered, submitted or
//! run must leave every finish time bitwise where it was. This suite
//! pins, for two small shapes — a Mira HACC-IO SoA subfiling run (two
//! Pset files) and a Theta IOR run (one shared file) — in both
//! directions, with and without a fault plan:
//!
//! * `SimReport::elapsed` as bits;
//! * an FNV-1a digest of every op's finish-time bits, in op order;
//! * the op count and the fault accounting.
//!
//! The values were recorded before the engine's dependency store and
//! `SimSession`'s submit-once template were introduced; those of the
//! wider Theta shape (48 aggregators, whose flushes share gateways and
//! OSTs in interference components large enough for the engine to
//! re-waterfill them block by block) before the rate-coupled blocks
//! were. The digest is
//! order-sensitive on purpose: Mira's Pset groups are symmetric, so a
//! commutative fold (XOR, sum) of their finish times cancels or repeats
//! and would not see two groups trading places. The MPI I/O baseline
//! and the tier-aware executor, which lower plans onto the same engine,
//! get one pinned case each.

use tapioca::config::TapiocaConfig;
use tapioca::sim_exec::{
    run_tapioca_sim, CollectiveSpec, GroupSpec, SimReport, SimSession, StorageConfig,
};
use tapioca::{FaultPlan, FaultSpec};
use tapioca_baseline::{run_mpiio_sim, MpiIoConfig};
use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
use tapioca_tiers::{run_tiered_sim, Destination, Tier, TieredConfig};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, MIB};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

/// FNV-1a (64-bit) over the little-endian bytes of each finish time's
/// bits, in op order.
fn finish_digest(op_finish: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for t in op_finish {
        for b in t.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x00000100000001b3);
        }
    }
    h
}

/// What the golden pins of one report: elapsed bits, finish digest, op
/// count and `(faults_injected, retries, reelections, degraded)`.
type Pin = (u64, u64, usize, [u64; 4]);

fn pin(r: &SimReport) -> Pin {
    (
        r.elapsed.to_bits(),
        finish_digest(&r.op_finish),
        r.op_finish.len(),
        [r.faults_injected, r.retries, r.reelections, r.degraded],
    )
}

/// The fault plan of `sim_exec`'s session-determinism test: an
/// aggregator crash, transient flush faults everywhere, a stall that
/// exhausts partition 2's retry budget at round 1, a degraded fabric.
fn faults() -> FaultPlan {
    FaultPlan::seeded(11)
        .with(FaultSpec::AggregatorCrash { partition: 1, round: 1 })
        .with(FaultSpec::TransientFlushError { probability: 0.3 })
        .with(FaultSpec::FlushStall { partition: 2, round: 1 })
        .with(FaultSpec::LinkDegrade { factor: 0.5 })
}

/// Mira, 256 nodes × 4 ranks, HACC-IO SoA (≈ 152 KB per rank), one file
/// per Pset of 128 nodes; 8 aggregators per Pset, 1 MiB buffers.
fn mira_hacc() -> (MachineProfile, StorageConfig, CollectiveSpec, TapiocaConfig) {
    let per_pset = 128 * 4;
    let hacc =
        HaccIo { num_ranks: per_pset, particles_per_rank: 4000, layout: Layout::StructOfArrays };
    let groups = (0..2)
        .map(|p| GroupSpec {
            file: p,
            ranks: (p * per_pset..(p + 1) * per_pset).collect(),
            decls: hacc.decls(),
        })
        .collect();
    (
        mira_profile(256, 4),
        StorageConfig::Gpfs(GpfsTunables::mira_optimized()),
        CollectiveSpec { groups, mode: AccessMode::Write },
        TapiocaConfig { num_aggregators: 8, buffer_size: MIB, ..Default::default() },
    )
}

/// Theta, 64 nodes × 4 ranks, IOR at 1 MiB per rank into one file; 8
/// aggregators, 8 MiB buffers.
fn theta_ior() -> (MachineProfile, StorageConfig, CollectiveSpec, TapiocaConfig) {
    let n = 64 * 4;
    let decls = IorSpec { num_ranks: n, bytes_per_rank: MIB }.decls();
    (
        theta_profile(64, 4),
        StorageConfig::Lustre(LustreTunables::theta_optimized()),
        CollectiveSpec {
            groups: vec![GroupSpec { file: 0, ranks: (0..n).collect(), decls }],
            mode: AccessMode::Write,
        },
        TapiocaConfig { num_aggregators: 8, buffer_size: 8 * MIB, ..Default::default() },
    )
}

/// Theta, 256 nodes × 4 ranks, IOR at 1 MiB per rank into one file; 48
/// aggregators, 8 MiB buffers.
fn theta_ior_wide() -> (MachineProfile, StorageConfig, CollectiveSpec, TapiocaConfig) {
    let n = 256 * 4;
    let decls = IorSpec { num_ranks: n, bytes_per_rank: MIB }.decls();
    (
        theta_profile(256, 4),
        StorageConfig::Lustre(LustreTunables::theta_optimized()),
        CollectiveSpec {
            groups: vec![GroupSpec { file: 0, ranks: (0..n).collect(), decls }],
            mode: AccessMode::Write,
        },
        TapiocaConfig { num_aggregators: 48, buffer_size: 8 * MIB, ..Default::default() },
    )
}

/// `run_tapioca_sim` and the second epoch of a `SimSession` reproduce
/// the recorded bits on every shape × {write, read} × {no faults,
/// faults}.
#[test]
fn tapioca_sim_matches_recorded_bits() {
    use AccessMode::{Read, Write};
    // (machine, mode, faulty) -> pin
    let golden: [(&str, AccessMode, bool, Pin); 12] = [
        ("mira", Write, false, (0x3fb5215e594916c8, 0xe09f9d5664109c41, 554, [0, 0, 0, 0])),
        ("mira", Write, true, (0x3fc0c101e6b866a2, 0x1dab7d85e23a095f, 560, [53, 51, 2, 1])),
        ("mira", Read, false, (0x3f9d0e9b2560bb10, 0x82cdd3c7a4861e29, 554, [0, 0, 0, 0])),
        ("mira", Read, true, (0x3fa7c7cb08a2f51e, 0x7471673dd65e9b59, 554, [0, 0, 0, 0])),
        ("theta", Write, false, (0x3fa680c8634b3d66, 0xb384da81cde94c45, 96, [0, 0, 0, 0])),
        ("theta", Write, true, (0x3fa82eacd029125c, 0xc9d2b56e0c059f0b, 98, [14, 13, 1, 1])),
        ("theta", Read, false, (0x3f96520caccb2094, 0x7b09b08c22c3b2e5, 96, [0, 0, 0, 0])),
        ("theta", Read, true, (0x3f96e455d15d69b8, 0x82500394755c73d8, 96, [0, 0, 0, 0])),
        ("theta-wide", Write, false, (0x3fbc6802a1387c5b, 0x1d9de609a9b47a7c, 384, [0, 0, 0, 0])),
        ("theta-wide", Write, true, (0x3fbc2a47176b64a7, 0xb618edc2527f2c12, 386, [47, 46, 1, 1])),
        ("theta-wide", Read, false, (0x3fa46a5b43b61988, 0x663898129d0f9d49, 384, [0, 0, 0, 0])),
        ("theta-wide", Read, true, (0x3fa4b37fd5ff3e1b, 0x40497fd9ad9d1532, 384, [0, 0, 0, 0])),
    ];
    for (machine, mode, faulty, want) in golden {
        let (profile, storage, spec, base) = match machine {
            "mira" => mira_hacc(),
            "theta" => theta_ior(),
            _ => theta_ior_wide(),
        };
        let spec = CollectiveSpec { mode, ..spec };
        let cfg = TapiocaConfig { faults: faulty.then(faults), ..base };
        let what = format!("{machine} {mode:?} faults={faulty}");

        let one_shot = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
        let got = pin(&one_shot);
        assert_eq!(got, want, "{what}: got {got:#x?}");
        let mut session = SimSession::build(&profile, &storage, &spec, &cfg).unwrap();
        for epoch in 1..=2 {
            let got = pin(&session.run_epoch().unwrap());
            assert_eq!(got, want, "{what}: session epoch {epoch}");
        }
    }
}

/// The MPI I/O baseline on the Mira shape: nine sequential per-variable
/// collective calls lowered onto the same engine.
#[test]
fn mpiio_sim_matches_recorded_bits() {
    let (profile, storage, spec, _) = mira_hacc();
    let cfg = MpiIoConfig { cb_aggregators: 8, cb_buffer_size: MIB };
    let got = pin(&run_mpiio_sim(&profile, &storage, &spec, &cfg).unwrap());
    let want: Pin = (0x3fd17f2bcb0d5648, 0x4d0bd52ce5b28dad, 12774, [0, 0, 0, 0]);
    assert_eq!(got, want, "got {got:#x?}");
}

/// The tier-aware executor on the Theta shape, staging on flash from
/// MCDRAM buffers: `[time_to_safe, time_to_pfs, perceived, end-to-end]`
/// as bits.
#[test]
fn tiered_sim_matches_recorded_bits() {
    let (profile, _, spec, cfg) = theta_ior();
    let tiered =
        TieredConfig { buffer_tier: Tier::Mcdram, destination: Destination::BurstBufferThenDrain };
    let r = run_tiered_sim(&profile, &LustreTunables::theta_optimized(), &spec, &cfg, &tiered)
        .unwrap();
    let got = [r.time_to_safe, r.time_to_pfs, r.perceived_bandwidth, r.end_to_end_bandwidth]
        .map(f64::to_bits);
    let want: [u64; 4] =
        [0x3f90495a422e5a0c, 0x3fa880c8634b3d66, 0x420f6fe039a333af, 0x41f4e535bf7a8ca2];
    assert_eq!(got, want, "got {got:#x?}");
}
