//! Cross-validation between the two implementations and the two
//! execution modes:
//!
//! * TAPIOCA and the ROMIO-like baseline must produce *identical files*
//!   for the same workload (they differ in data path, never in data);
//! * the simulation executor must run the *same schedule objects* thread
//!   mode runs, and its reports must obey physical invariants.

use tapioca::analyze::derive_symbolic;
use tapioca::prelude::*;
use tapioca::schedule::{compute_schedule, ScheduleParams};
use tapioca::sim_exec::{run_tapioca_sim, CollectiveSpec, GroupSpec, SimSession, StorageConfig};
use tapioca_baseline::romio::{collective_write, MpiIoConfig};
use tapioca_baseline::sim::run_mpiio_sim;
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
use tapioca_tiers::{run_tiered_sim, TieredConfig};
use tapioca_topology::{mira_profile, theta_profile, MIB};
use tapioca_workloads::datagen::expected_range;
use tapioca_workloads::hacc::{HaccIo, Layout};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-xval");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

#[test]
fn tapioca_and_baseline_write_identical_files() {
    let w = HaccIo { num_ranks: 10, particles_per_rank: 777, layout: Layout::StructOfArrays };
    let p_t = tmp("ident-tapioca");
    let p_b = tmp("ident-baseline");

    let wl = w;
    Runtime::run(w.num_ranks, move |comm| {
        let file = SharedFile::open_shared(&comm, &p_t);
        let r = comm.rank() as u64;
        let decls = wl.decls_of_rank(r);
        let mut io = Session::builder(&comm, file)
            .declarations(decls.clone())
            .config(TapiocaConfig {
                num_aggregators: 3,
                buffer_size: 2048,
                ..Default::default()
            })
            .build()
            .unwrap();
        for (v, d) in decls.iter().enumerate() {
            io.write(d.offset, &wl.payload(r, v)).unwrap();
        }
        io.finalize();
    });
    let wl = w;
    Runtime::run(w.num_ranks, move |comm| {
        let file = SharedFile::open_shared(&comm, &p_b);
        let r = comm.rank() as u64;
        let cfg = MpiIoConfig { cb_aggregators: 3, cb_buffer_size: 2048 };
        for (v, d) in wl.decls_of_rank(r).iter().enumerate() {
            collective_write(&comm, &file, d.offset, &wl.payload(r, v), &cfg).unwrap();
        }
    });

    let a = std::fs::read(tmp("ident-tapioca")).unwrap();
    let b = std::fs::read(tmp("ident-baseline")).unwrap();
    assert_eq!(a.len(), b.len());
    assert!(a == b, "the two libraries must write byte-identical files");
    std::fs::remove_file(tmp("ident-tapioca")).ok();
    std::fs::remove_file(tmp("ident-baseline")).ok();
}

/// Same schedule code in both modes: the schedule thread mode computes
/// from allgathered declarations equals the one the simulator driver
/// computes centrally.
#[test]
fn schedules_agree_between_modes() {
    let w = HaccIo { num_ranks: 16, particles_per_rank: 300, layout: Layout::StructOfArrays };
    let params = ScheduleParams { num_aggregators: 4, buffer_size: 1024, align_to_buffer: true };
    let central = compute_schedule(&w.decls(), params);

    // thread mode: every rank's instance exposes the same schedule
    let wl = w;
    let schedules = Runtime::run(w.num_ranks, move |comm| {
        let path = tmp("sched-agree");
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let decls = wl.decls_of_rank(r);
        let mut io = Session::builder(&comm, file)
            .declarations(decls.clone())
            .config(TapiocaConfig {
                num_aggregators: 4,
                buffer_size: 1024,
                ..Default::default()
            })
            .build()
            .unwrap();
        let sched = io.schedule().clone();
        for (v, d) in decls.iter().enumerate() {
            io.write(d.offset, &wl.payload(r, v)).unwrap();
        }
        io.finalize();
        sched
    });
    for s in &schedules {
        assert_eq!(s, &central, "all ranks and the central driver compute one schedule");
    }
    std::fs::remove_file(tmp("sched-agree")).ok();
}

fn theta_spec(nranks: usize, per: u64) -> CollectiveSpec {
    CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..nranks).collect(),
            decls: (0..nranks as u64)
                .map(|r| vec![WriteDecl { offset: r * per, len: per }])
                .collect(),
        }],
        mode: AccessMode::Write,
    }
}

#[test]
fn simulation_is_deterministic() {
    let profile = theta_profile(64, 4);
    let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
    let spec = theta_spec(256, MIB);
    let cfg = TapiocaConfig { num_aggregators: 16, buffer_size: 8 * MIB, ..Default::default() };
    let a = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
    let b = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.bandwidth, b.bandwidth);
    assert_eq!(a.op_finish, b.op_finish);
}

#[test]
fn simulated_bandwidth_respects_physical_ceilings() {
    // Mira: a Pset cannot exceed its two 1.8 GiB/s bridge links.
    let profile = mira_profile(128, 4);
    let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
    let nranks = 512;
    let per = 2 * MIB;
    let spec = CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..nranks).collect(),
            decls: (0..nranks as u64)
                .map(|r| vec![WriteDecl { offset: r * per, len: per }])
                .collect(),
        }],
        mode: AccessMode::Write,
    };
    let cfg = TapiocaConfig { num_aggregators: 16, buffer_size: 16 * MIB, ..Default::default() };
    let rep = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
    let gib = (1u64 << 30) as f64;
    assert!(rep.bandwidth <= 3.6 * gib * 1.001, "exceeds bridge-link physics");
    assert!(rep.bandwidth > 0.1 * gib, "implausibly slow");
    // every op completes within the reported makespan (instant local
    // transfers may legitimately finish at t = 0)
    assert!(rep.op_finish.iter().all(|&t| t >= 0.0 && t <= rep.elapsed + 1e-9));
}

#[test]
fn more_data_takes_longer() {
    let profile = theta_profile(32, 4);
    let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
    let cfg = TapiocaConfig { num_aggregators: 8, buffer_size: 8 * MIB, ..Default::default() };
    let small = run_tapioca_sim(&profile, &storage, &theta_spec(128, MIB), &cfg).unwrap();
    let large = run_tapioca_sim(&profile, &storage, &theta_spec(128, 4 * MIB), &cfg).unwrap();
    assert!(large.elapsed > small.elapsed);
    assert_eq!(large.bytes, 4.0 * small.bytes);
}

#[test]
fn baseline_sim_never_beats_tapioca_on_multivar() {
    let profile = theta_profile(32, 4);
    let storage = StorageConfig::Lustre(LustreTunables::theta_hacc());
    let w = HaccIo { num_ranks: 128, particles_per_rank: 10_000, layout: Layout::StructOfArrays };
    let spec = CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..128).collect(), decls: w.decls() }],
        mode: AccessMode::Write,
    };
    let t = run_tapioca_sim(&profile, &storage, &spec, &TapiocaConfig {
        num_aggregators: 8,
        buffer_size: 16 * MIB,
        ..Default::default()
    })
    .unwrap();
    let b = run_mpiio_sim(&profile, &storage, &spec, &MpiIoConfig {
        cb_aggregators: 8,
        cb_buffer_size: 16 * MIB,
    })
    .unwrap();
    assert!(t.bandwidth >= b.bandwidth);
    // and both moved every byte
    assert_eq!(t.bytes, w.total_bytes() as f64);
    assert_eq!(b.bytes, w.total_bytes() as f64);
}

/// A gap in the declarations that spans whole partitions leaves those
/// partitions memberless: 2 ranks write 1 MiB each, at offsets 0 and
/// 100 MiB, with 4 aggregators and 1 MiB buffers. Every simulator entry
/// point plans the layout and accounts for both MiB, in both modes; the
/// thread executor writes it and reads the same bytes back.
#[test]
fn gapped_layout_with_memberless_partitions_runs_on_both_executors() {
    let decls_of = |r: u64| vec![WriteDecl { offset: r * 100 * MIB, len: MIB }];
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: MIB, ..Default::default() };
    let params = ScheduleParams { num_aggregators: 4, buffer_size: MIB, align_to_buffer: true };
    let decls: Vec<Vec<WriteDecl>> = (0..2).map(decls_of).collect();
    let sched = compute_schedule(&decls, params);
    let memberless = sched.partitions.iter().filter(|p| p.members.is_empty()).count();
    assert!(memberless > 0, "the gap leaves a partition memberless");

    let profile = theta_profile(8, 2);
    let tunables = LustreTunables::theta_optimized();
    let storage = StorageConfig::Lustre(tunables);
    let total = (2 * MIB) as f64;
    for mode in [AccessMode::Write, AccessMode::Read] {
        let spec = CollectiveSpec {
            groups: vec![GroupSpec { file: 0, ranks: vec![0, 1], decls: decls.clone() }],
            mode,
        };
        let mut session = SimSession::build(&profile, &storage, &spec, &cfg).unwrap();
        assert_eq!(session.run_epoch().unwrap().bytes, total, "{mode:?}");
        let one_shot = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
        assert_eq!(one_shot.bytes, total, "{mode:?}");
        let symbolic = derive_symbolic(&profile, &spec, &cfg).unwrap();
        assert_eq!(symbolic.groups.len(), 1);
        let baseline = MpiIoConfig { cb_aggregators: 4, cb_buffer_size: MIB };
        assert_eq!(run_mpiio_sim(&profile, &storage, &spec, &baseline).unwrap().bytes, total);
        if mode == AccessMode::Write {
            let tiered = run_tiered_sim(&profile, &tunables, &spec, &cfg, &TieredConfig::default());
            assert_eq!(tiered.unwrap().bytes, total);
        }
    }

    let path = tmp("gapped");
    let seed = 0x6A9;
    let outcomes = Runtime::run(2, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let d = decls_of(r)[0];
        let payload = expected_range(seed, d.offset, d.len as usize);
        let mut io = Session::builder(&comm, file)
            .declarations(decls_of(r))
            .config(cfg.clone())
            .build()
            .unwrap();
        let outcome = io.write(d.offset, &payload).unwrap();
        let back = io.read_declared().unwrap();
        assert_eq!(back, vec![payload], "rank {r}: read-back");
        io.finalize();
        outcome
    });
    assert_eq!(outcomes, vec![WriteOutcome::Flushed; 2]);
    let bytes = std::fs::read(&path).unwrap();
    for d in decls.iter().flatten() {
        let at = d.offset as usize;
        let want = expected_range(seed, d.offset, d.len as usize);
        assert_eq!(bytes[at..at + want.len()], want[..], "file bytes at {at}");
    }
    std::fs::remove_file(&path).ok();
}
