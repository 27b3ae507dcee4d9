//! Conformance bridge cross-validation: every dynamic trace either
//! executor produces must be a linearization of the statically derived
//! schedule (`tapioca::analyze::derive_symbolic` +
//! `tapioca_check::static_::conformance`).
//!
//! Covered here:
//! * the PR-2 suite configs (hacc-soa/hacc-aos/ior/ior-nopipe), both
//!   executors;
//! * fault-laden runs (aggregator crash, flaky flushes, stall →
//!   degrade), both executors;
//! * ≥16 schedule-perturbation seeds in thread mode;
//! * tampered traces, asserting the bridge reports the exact
//!   divergence class (unmapped / undischarged / order).

use std::sync::Arc;

use tapioca::analyze::{derive_symbolic, StaticViolation, SymbolicSchedule};
use tapioca::prelude::*;
use tapioca::sim_exec::{run_tapioca_sim, CollectiveSpec, GroupSpec, StorageConfig};
use tapioca_check::static_::{conformance, conformance_as, detect_executor, Executor};
use tapioca_mpi::{FaultPlan, FaultSpec, Runtime, SharedFile};
use tapioca_pfs::{AccessMode, LustreTunables};
use tapioca_topology::{theta_profile, MachineProfile, TopologyProvider};
use tapioca_trace::{Trace, TraceOp, Tracer};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-static-conf");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn spec_of(decls: &[Vec<WriteDecl>]) -> CollectiveSpec {
    CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..decls.len()).collect(),
            decls: decls.to_vec(),
        }],
        mode: AccessMode::Write,
    }
}

fn sim_trace(profile: &MachineProfile, decls: &[Vec<WriteDecl>], cfg: &TapiocaConfig) -> Trace {
    let tracer = Tracer::new(profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg.clone() };
    let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
    run_tapioca_sim(profile, &storage, &spec_of(decls), &cfg).unwrap();
    tracer.drain()
}

fn thread_trace(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
    perturb: Option<u64>,
) -> Trace {
    let n = decls.len();
    let tracer = Tracer::new(profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg.clone() };
    let machine = Arc::new(profile.machine.clone());
    let path = tmp(name);
    let decls = decls.to_vec();
    let path2 = path.clone();
    let body = move |comm: tapioca_mpi::Comm| {
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
            io.write(d.offset, &vec![0xC3u8; d.len as usize]).unwrap();
        }
        io.finalize();
    };
    match perturb {
        Some(seed) => {
            Runtime::run_perturbed(n, seed, body);
        }
        None => {
            Runtime::run(n, body);
        }
    }
    std::fs::remove_file(&path).ok();
    tracer.drain()
}

fn symbolic(
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
) -> SymbolicSchedule {
    derive_symbolic(profile, &spec_of(decls), cfg).unwrap()
}

/// Assert both executors' traces linearize the static schedule.
fn assert_conformant(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
) {
    let sym = symbolic(profile, decls, cfg);
    assert!(sym.total_bytes() > 0, "{name}: static schedule moves no bytes");

    let sim = sim_trace(profile, decls, cfg);
    assert_eq!(detect_executor(&sim), Executor::Sim, "{name}: sim trace misdetected");
    let v = conformance(&sym, &sim);
    assert!(v.is_empty(), "{name}: sim trace diverges: {}", render(&v));

    let thread = thread_trace(name, profile, decls, cfg, None);
    assert_eq!(detect_executor(&thread), Executor::Thread, "{name}: thread trace misdetected");
    let v = conformance(&sym, &thread);
    assert!(v.is_empty(), "{name}: thread trace diverges: {}", render(&v));
}

fn render(v: &[StaticViolation]) -> String {
    v.iter().take(8).map(|x| x.to_string()).collect::<Vec<_>>().join("; ")
}

// ---- the PR-2 suite, both executors ------------------------------------

#[test]
fn hacc_soa_conforms() {
    let profile = theta_profile(8, 2);
    let w = HaccIo { num_ranks: 16, particles_per_rank: 100, layout: Layout::StructOfArrays };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 2048, ..Default::default() };
    assert_conformant("hacc-soa", &profile, &w.decls(), &cfg);
}

#[test]
fn hacc_aos_conforms() {
    let profile = theta_profile(4, 4);
    let w = HaccIo { num_ranks: 16, particles_per_rank: 80, layout: Layout::ArrayOfStructs };
    let cfg = TapiocaConfig { num_aggregators: 3, buffer_size: 1536, ..Default::default() };
    assert_conformant("hacc-aos", &profile, &w.decls(), &cfg);
}

#[test]
fn ior_conforms() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    assert_conformant("ior", &profile, &w.decls(), &cfg);
}

#[test]
fn ior_unpipelined_conforms() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 2000 };
    let cfg = TapiocaConfig {
        num_aggregators: 2,
        buffer_size: 512,
        pipelining: false,
        ..Default::default()
    };
    assert_conformant("ior-nopipe", &profile, &w.decls(), &cfg);
}

// ---- fault-laden runs --------------------------------------------------

#[test]
fn crash_recovery_conforms() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let faults = FaultPlan::seeded(11)
        .with(FaultSpec::AggregatorCrash { partition: 1, round: 1 });
    let cfg = TapiocaConfig {
        num_aggregators: 4,
        buffer_size: 1024,
        faults: Some(faults),
        ..Default::default()
    };
    let sym = symbolic(&profile, &w.decls(), &cfg);
    let crashed: Vec<_> = sym
        .groups
        .iter()
        .flat_map(|g| &g.partitions)
        .filter(|p| p.crash.is_some())
        .collect();
    assert_eq!(crashed.len(), 1, "the crash must compile to exactly one partition");
    assert_conformant("ior-crash", &profile, &w.decls(), &cfg);
}

#[test]
fn flaky_flush_conforms() {
    let profile = theta_profile(8, 2);
    let w = HaccIo { num_ranks: 16, particles_per_rank: 100, layout: Layout::StructOfArrays };
    let faults = FaultPlan::seeded(7)
        .with(FaultSpec::TransientFlushError { probability: 0.4 });
    let cfg = TapiocaConfig {
        num_aggregators: 4,
        buffer_size: 2048,
        faults: Some(faults),
        ..Default::default()
    };
    let sym = symbolic(&profile, &w.decls(), &cfg);
    let retries: u32 = sym
        .groups
        .iter()
        .flat_map(|g| &g.partitions)
        .flat_map(|p| &p.rounds)
        .flat_map(|r| &r.flushes)
        .map(|s| s.fail_attempts)
        .sum();
    assert!(retries > 0, "the flaky plan must predict at least one retry");
    assert_conformant("hacc-flaky", &profile, &w.decls(), &cfg);
}

#[test]
fn stall_degrade_conforms() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let faults =
        FaultPlan::seeded(3).with(FaultSpec::FlushStall { partition: 0, round: 1 });
    let cfg = TapiocaConfig {
        num_aggregators: 4,
        buffer_size: 1024,
        faults: Some(faults),
        ..Default::default()
    };
    let sym = symbolic(&profile, &w.decls(), &cfg);
    let degraded: Vec<_> = sym
        .groups
        .iter()
        .flat_map(|g| &g.partitions)
        .filter(|p| p.degrade_round == Some(1))
        .collect();
    assert_eq!(degraded.len(), 1, "the stall must degrade exactly partition 0");
    assert_conformant("ior-stall", &profile, &w.decls(), &cfg);
}

// ---- perturbed schedules -----------------------------------------------

#[test]
fn sixteen_perturbation_seeds_conform() {
    let profile = theta_profile(8, 2);
    let ior = IorSpec { num_ranks: 16, bytes_per_rank: 2048 };
    let hacc = HaccIo { num_ranks: 16, particles_per_rank: 40, layout: Layout::StructOfArrays };
    let ior_cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    let hacc_cfg = TapiocaConfig { num_aggregators: 3, buffer_size: 1024, ..Default::default() };
    let ior_sym = symbolic(&profile, &ior.decls(), &ior_cfg);
    let hacc_sym = symbolic(&profile, &hacc.decls(), &hacc_cfg);
    for seed in 0..8u64 {
        let t = thread_trace("perturb-ior", &profile, &ior.decls(), &ior_cfg, Some(seed));
        let v = conformance_as(&ior_sym, &t, Executor::Thread);
        assert!(v.is_empty(), "ior seed {seed}: {}", render(&v));
        let t = thread_trace("perturb-hacc", &profile, &hacc.decls(), &hacc_cfg, Some(seed));
        let v = conformance_as(&hacc_sym, &t, Executor::Thread);
        assert!(v.is_empty(), "hacc seed {seed}: {}", render(&v));
    }
}

// ---- tampered traces must be rejected with the right class -------------

fn tampered(base: &Trace, mutate: impl Fn(&mut Vec<tapioca_trace::TraceEvent>)) -> Trace {
    let mut events = base.events().to_vec();
    mutate(&mut events);
    Trace::from_events(events)
}

#[test]
fn tampering_is_detected_with_the_right_class() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    let sym = symbolic(&profile, &w.decls(), &cfg);
    let clean = thread_trace("tamper-base", &profile, &w.decls(), &cfg, None);
    assert!(conformance(&sym, &clean).is_empty());

    // A put whose bytes were corrupted no longer maps, and its static
    // counterpart stays undischarged.
    let t = tampered(&clean, |ev| {
        if let Some(e) = ev.iter_mut().find(|e| e.op == TraceOp::RmaPut) {
            e.bytes += 1;
        }
    });
    let v = conformance(&sym, &t);
    assert!(
        v.iter().any(|x| x.code() == "unmapped-dynamic-event"),
        "corrupted put must be unmapped: {}",
        render(&v)
    );
    assert!(
        v.iter().any(|x| x.code() == "undischarged-static-event"),
        "its twin must stay undischarged: {}",
        render(&v)
    );

    // Dropping a flush leaves a static event undischarged.
    let t = tampered(&clean, |ev| {
        if let Some(i) = ev.iter().position(|e| e.op == TraceOp::Flush) {
            ev.remove(i);
        }
    });
    let v = conformance(&sym, &t);
    assert!(
        v.iter().any(|x| x.code() == "undischarged-static-event"),
        "dropped flush must be undischarged: {}",
        render(&v)
    );

    // Relabelling a synchronisation call breaks its lane's static label
    // sequence; so does a call on a lane the schedule gives no part in
    // that round (an extra start/complete pair of a non-contributor).
    for op in [TraceOp::Post, TraceOp::Start, TraceOp::Complete, TraceOp::Wait] {
        let t = tampered(&clean, |ev| {
            if let Some(e) = ev.iter_mut().find(|e| e.op == op) {
                e.round += 1;
            }
        });
        let v = conformance(&sym, &t);
        assert!(
            v.iter().any(|x| x.code() == "order-violation"),
            "relabelled {op:?} must break the lane's static sequence: {}",
            render(&v)
        );
    }
    let t = tampered(&clean, |ev| {
        let pair: Vec<_> = ev
            .iter()
            .filter(|e| matches!(e.op, TraceOp::Start | TraceOp::Complete))
            .take(2)
            .copied()
            .collect();
        ev.extend(pair);
    });
    let v = conformance(&sym, &t);
    assert!(
        v.iter().any(|x| x.code() == "order-violation"),
        "an extra start/complete pair must break the lane's static sequence: {}",
        render(&v)
    );

    // An invented partition index maps nowhere.
    let t = tampered(&clean, |ev| {
        if let Some(e) = ev.iter_mut().find(|e| e.op == TraceOp::RmaPut) {
            e.partition = 99;
        }
    });
    let v = conformance(&sym, &t);
    assert!(
        v.iter().any(
            |x| x.code() == "unmapped-dynamic-event" && x.to_string().contains("partition 99")
        ),
        "invented partition must be unmapped: {}",
        render(&v)
    );
}

#[test]
fn sim_tampering_is_detected() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    let sym = symbolic(&profile, &w.decls(), &cfg);
    let clean = sim_trace(&profile, &w.decls(), &cfg);
    assert!(conformance(&sym, &clean).is_empty());

    // Inflating a transfer's bytes breaks the per-round byte account.
    let t = tampered(&clean, |ev| {
        if let Some(e) = ev.iter_mut().find(|e| e.op == TraceOp::RmaPut) {
            e.bytes += 7;
        }
    });
    let v = conformance_as(&sym, &t, Executor::Sim);
    assert!(
        v.iter().any(|x| x.code() == "undischarged-static-event"),
        "inflated transfer must break the byte account: {}",
        render(&v)
    );

    // Delaying the round-0 flush past every later round breaks the
    // serialized flush order of its partition.
    let t = tampered(&clean, |ev| {
        let horizon = ev.iter().map(|e| e.t_ns).max().unwrap_or(0) + 1_000;
        if let Some(e) = ev
            .iter_mut()
            .find(|e| e.op == TraceOp::Flush && e.round == 0 && e.partition == 0)
        {
            e.t_ns = horizon;
        }
    });
    let v = conformance_as(&sym, &t, Executor::Sim);
    assert!(
        v.iter().any(|x| x.code() == "order-violation"),
        "reordered flush must violate serialization order: {}",
        render(&v)
    );
}
