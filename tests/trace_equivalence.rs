//! Trace-driven cross-validation of the two executors.
//!
//! Thread mode (real threads, RMA windows, a real file) and simulation
//! mode (flow-level network simulator over an `ExecutionPlan`) run the
//! *same* schedule and election objects. Their event traces must
//! therefore agree on everything executor-independent:
//!
//! * which aggregator each partition elected,
//! * how many rounds each partition ran,
//! * how many bytes entered the aggregation buffers per round,
//! * how many bytes and segments each round flushed.
//!
//! [`Trace::structural`] projects a trace onto exactly that structure —
//! dropping timestamps (wall-clock vs simulated), `Sync` events (the
//! post/start/complete/wait calls have no simulation counterpart) and put granularity (thread mode
//! records one put per chunk, the simulator one per source node). The
//! contract is spelled out in DESIGN.md.
//!
//! Both modes use the same dragonfly (Theta-like) machine model, so the
//! topology-aware election computes identical costs in both executors.

use std::sync::Arc;

use tapioca::prelude::*;
use tapioca::sim_exec::{run_tapioca_sim, CollectiveSpec, GroupSpec, StorageConfig};
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_pfs::{AccessMode, LustreTunables};
use tapioca_topology::{theta_profile, MachineProfile, TopologyProvider};
use tapioca_trace::{Phase, StructuralTrace, Tracer};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-trace-eq");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Run the simulator over `decls` on `profile` and return the
/// structural projection of its trace.
fn sim_structural(
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
) -> StructuralTrace {
    let tracer = Tracer::new(profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg.clone() };
    let spec = CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..decls.len()).collect(),
            decls: decls.to_vec(),
        }],
        mode: AccessMode::Write,
    };
    let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
    run_tapioca_sim(profile, &storage, &spec, &cfg).unwrap();
    tracer.drain().structural()
}

/// Run the thread-mode pipeline over the same `decls`, against the same
/// machine model, and return the structural projection of its trace.
fn thread_structural(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
) -> StructuralTrace {
    let n = decls.len();
    let tracer = Tracer::new(profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg.clone() };
    let machine = Arc::new(profile.machine.clone());
    let path = tmp(name);
    let decls = decls.to_vec();
    let path2 = path.clone();
    Runtime::run(n, move |comm| {
        let file = SharedFile::open_shared(&comm, &path2);
        let r = comm.rank();
        let mine = decls[r].clone();
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(cfg.clone())
            .topology(machine.clone())
            .build()
            .unwrap();
        for d in &mine {
            io.write(d.offset, &vec![0xA5u8; d.len as usize]).unwrap();
        }
        io.finalize();
    });
    std::fs::remove_file(&path).ok();
    tracer.drain().structural()
}

/// Assert that both executors produce the same structure, and that the
/// structure is non-trivial (data actually moved).
fn assert_equivalent(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
) {
    assert!(
        decls.len() <= profile.machine.num_ranks(),
        "{name}: spec needs more ranks than the machine has"
    );
    let sim = sim_structural(profile, decls, cfg);
    let thread = thread_structural(name, profile, decls, cfg);
    assert!(!sim.partitions.is_empty(), "{name}: simulation trace is empty");
    for p in &sim.partitions {
        assert!(p.aggregator.is_some(), "{name}: partition {} has no election", p.partition);
    }
    assert_eq!(thread, sim, "{name}: executors disagree on collective structure");
    let total: u64 =
        sim.partitions.iter().flat_map(|p| &p.rounds).map(|r| r.aggregation_bytes).sum();
    let declared: u64 = decls.iter().flatten().map(|d| d.len).sum();
    assert_eq!(total, declared, "{name}: trace must account for every declared byte");
}

#[test]
fn hacc_soa_structures_agree() {
    // 16 ranks on 8 dragonfly nodes; 9 SoA variables per rank, buffers
    // far smaller than a variable region so partitions run many rounds.
    let profile = theta_profile(8, 2);
    let w = HaccIo { num_ranks: 16, particles_per_rank: 100, layout: Layout::StructOfArrays };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 2048, ..Default::default() };
    assert_equivalent("hacc-soa", &profile, &w.decls(), &cfg);
}

#[test]
fn hacc_aos_structures_agree() {
    // Same rank count on fewer, fatter nodes; array-of-structs layout
    // gives contiguous per-rank blocks.
    let profile = theta_profile(4, 4);
    let w = HaccIo { num_ranks: 16, particles_per_rank: 80, layout: Layout::ArrayOfStructs };
    let cfg = TapiocaConfig { num_aggregators: 3, buffer_size: 1536, ..Default::default() };
    assert_equivalent("hacc-aos", &profile, &w.decls(), &cfg);
}

#[test]
fn ior_structures_agree() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    assert_equivalent("ior", &profile, &w.decls(), &cfg);
}

#[test]
fn ior_unpipelined_structures_agree() {
    // Pipelining changes op ordering and timing, not structure.
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 2000 };
    let cfg = TapiocaConfig {
        num_aggregators: 2,
        buffer_size: 512,
        pipelining: false,
        ..Default::default()
    };
    assert_equivalent("ior-nopipe", &profile, &w.decls(), &cfg);
}

#[test]
fn thread_trace_has_sync_events_the_structure_ignores() {
    // The raw thread trace records the round protocol's synchronisation
    // calls; the simulator's does not.
    // Equivalence holds *because* the structural projection drops them —
    // pin that contract here.
    let profile = theta_profile(4, 2);
    let w = IorSpec { num_ranks: 8, bytes_per_rank: 1024 };
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 512, ..Default::default() };

    let tracer = Tracer::new(profile.machine.num_ranks());
    let tcfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg };
    let machine = Arc::new(profile.machine.clone());
    let path = tmp("sync-events");
    let decls = w.decls();
    let path2 = path.clone();
    Runtime::run(8, move |comm| {
        let file = SharedFile::open_shared(&comm, &path2);
        let r = comm.rank();
        let mine = decls[r].clone();
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(tcfg.clone())
            .topology(machine.clone())
            .build()
            .unwrap();
        for d in &mine {
            io.write(d.offset, &vec![0u8; d.len as usize]).unwrap();
        }
        io.finalize();
    });
    std::fs::remove_file(&path).ok();

    let trace = tracer.drain();
    let summary = trace.summary();
    assert!(
        summary.signals > 0 && summary.signals == summary.waits,
        "thread mode must record its posts/completes and the starts/waits they release"
    );
    assert!(trace.events().iter().filter(|e| e.phase == Phase::Sync).count() >= summary.signals);
    assert_eq!(summary.io_bytes, 8 * 1024);
    // Each round has one contributor. The two aggregators write their
    // own 1 KiB in place, with no put; every other byte reached exactly
    // one aggregator's buffers, and the structure counts all of them.
    assert_eq!(summary.aggregation_bytes, 6 * 1024);
    let fill: u64 = summary.aggregator_fill_bytes.iter().map(|(_, b)| b).sum();
    assert_eq!(fill, 6 * 1024);
    let aggregated: u64 = trace
        .structural()
        .partitions
        .iter()
        .flat_map(|p| &p.rounds)
        .map(|r| r.aggregation_bytes)
        .sum();
    assert_eq!(aggregated, 8 * 1024);
}
