//! The round-incremental write path of [`Session`] against the payload
//! it was handed.
//!
//! Covered here, on the mira/theta x ior/hacc grid the paper evaluates:
//! * a streamed session's file is bit-identical to the payload image,
//!   the declared payloads laid out at their offsets;
//! * any per-rank `write()` issue order produces the same file (a
//!   chunk whose round cannot run yet — some chunk this rank owes that
//!   round or an earlier one is outstanding — is staged in the
//!   session's arena, never reordered on disk);
//! * epoch reuse is deterministic: a reused session produces the same
//!   per-epoch stats and the same final bytes as a fresh one;
//! * (with the `trace` feature) streamed traces — including per-epoch
//!   traces of a reused session, faulty runs, and perturbed
//!   interleavings — satisfy every checker invariant unchanged.

use tapioca::prelude::*;
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, TopologyProvider};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

use std::sync::Arc;

const NRANKS: usize = 16;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-streaming-eq");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Recognisable payload: a function of (rank, var, byte index, epoch).
fn payload(rank: usize, var: usize, len: u64, epoch: u64) -> Vec<u8> {
    (0..len).map(|i| (rank as u64 * 131 + var as u64 * 17 + i * 3 + epoch * 59) as u8).collect()
}

/// The evaluation grid: both machines x both workloads.
fn grid() -> Vec<(&'static str, MachineProfile, Vec<Vec<WriteDecl>>)> {
    let ior = IorSpec { num_ranks: NRANKS, bytes_per_rank: 4096 }.decls();
    let hacc =
        HaccIo { num_ranks: NRANKS, particles_per_rank: 100, layout: Layout::StructOfArrays }
            .decls();
    vec![
        ("mira-ior", mira_profile(128, 4), ior.clone()),
        ("mira-hacc", mira_profile(128, 4), hacc.clone()),
        ("theta-ior", theta_profile(8, 2), ior),
        ("theta-hacc", theta_profile(8, 2), hacc),
    ]
}

fn base_cfg() -> TapiocaConfig {
    TapiocaConfig { num_aggregators: 4, buffer_size: 2048, ..Default::default() }
}

/// Run a streamed session over `decls`, issuing each rank's writes in
/// the order given by `order(rank, ndecls)`, and return the file bytes.
fn streamed_bytes(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
    order: impl Fn(usize, usize) -> Vec<usize> + Send + Sync,
) -> Vec<u8> {
    let path = tmp(name);
    let machine = Arc::new(profile.machine.clone());
    let decls = decls.to_vec();
    let path2 = path.clone();
    let cfg = cfg.clone();
    Runtime::run(decls.len(), move |comm| {
        let file = SharedFile::open_shared(&comm, &path2);
        let r = comm.rank();
        let mine = decls[r].clone();
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(cfg.clone())
            .topology(machine.clone())
            .build()
            .unwrap();
        for v in order(r, mine.len()) {
            io.write(mine[v].offset, &payload(r, v, mine[v].len, 0)).unwrap();
        }
        io.finalize();
    });
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// What the file must hold: every declared payload at its offset.
fn payload_image(decls: &[Vec<WriteDecl>]) -> Vec<u8> {
    let end = decls.iter().flatten().map(|d| d.offset + d.len).max().unwrap_or(0);
    let mut image = vec![0u8; end as usize];
    for (r, mine) in decls.iter().enumerate() {
        for (v, d) in mine.iter().enumerate() {
            image[d.offset as usize..][..d.len as usize].copy_from_slice(&payload(r, v, d.len, 0));
        }
    }
    image
}

#[test]
fn streamed_files_match_the_payload_image_across_the_grid() {
    for (name, profile, decls) in grid() {
        let streamed = streamed_bytes(name, &profile, &decls, &base_cfg(), |_, n| (0..n).collect());
        let image = payload_image(&decls);
        assert_eq!(streamed.len(), image.len(), "{name}: file lengths differ");
        assert!(streamed == image, "{name}: streamed file diverges from the payload image");
    }
}

#[test]
fn any_write_issue_order_produces_the_same_file() {
    // hacc-soa has 9 declared writes per rank — enough permutations to
    // exercise the pending-buffer staging path hard.
    let profile = theta_profile(8, 2);
    let decls = HaccIo { num_ranks: NRANKS, particles_per_rank: 100, layout: Layout::StructOfArrays }
        .decls();
    let cfg = base_cfg();
    let reference =
        streamed_bytes("order-ref", &profile, &decls, &cfg, |_, n| (0..n).collect());
    type IssueOrder = Box<dyn Fn(usize, usize) -> Vec<usize> + Send + Sync>;
    let orders: Vec<(&str, IssueOrder)> = vec![
        ("reversed", Box::new(|_, n| (0..n).rev().collect())),
        ("evens-then-odds", Box::new(|_, n| {
            (0..n).step_by(2).chain((1..n).step_by(2)).collect()
        })),
        ("rank-rotated", Box::new(|r, n| (0..n).map(|v| (v + r) % n).collect())),
    ];
    for (label, order) in orders {
        let got = streamed_bytes(&format!("order-{label}"), &profile, &decls, &cfg, order);
        assert!(got == reference, "issue order {label} changed the file bytes");
    }
}

#[test]
fn reused_session_epochs_are_deterministic() {
    let path = tmp("epochs");
    let per = 1500u64;
    const EPOCHS: u64 = 3;
    let path2 = path.clone();
    let all_stats = Runtime::run(6, move |comm| {
        let file = SharedFile::open_shared(&comm, &path2);
        let r = comm.rank();
        let decls = vec![WriteDecl { offset: r as u64 * per, len: per }];
        let mut io = Session::builder(&comm, file)
            .declarations(decls)
            .config(TapiocaConfig { num_aggregators: 2, buffer_size: 512, ..Default::default() })
            .build()
            .unwrap();
        let mut stats = Vec::new();
        for epoch in 0..EPOCHS {
            // same payload every epoch except the last, so the final
            // bytes pin which epoch's data landed
            let e = if epoch == EPOCHS - 1 { 1 } else { 0 };
            io.write(r as u64 * per, &payload(r, 0, per, e)).unwrap();
            stats.push(*io.stats().unwrap());
        }
        assert_eq!(io.epochs_completed(), EPOCHS);
        io.finalize();
        stats
    });
    // every epoch of every rank did identical work
    for stats in &all_stats {
        for s in &stats[1..] {
            assert_eq!(s.puts, stats[0].puts, "reused epochs diverge in puts");
            assert_eq!(s.put_bytes, stats[0].put_bytes);
            assert_eq!(s.fences, stats[0].fences);
            assert_eq!(s.flush_bytes, stats[0].flush_bytes);
            assert_eq!(s.staging_copy_bytes, stats[0].staging_copy_bytes);
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    for r in 0..6usize {
        let o = r * per as usize;
        assert_eq!(
            &bytes[o..o + per as usize],
            payload(r, 0, per, 1).as_slice(),
            "rank {r}: last epoch's bytes must win"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[cfg(feature = "trace")]
mod traced {
    //! Streamed traces must satisfy the full protocol checker —
    //! including per-epoch traces of reused sessions, faulty runs, and
    //! perturbed interleavings.

    use super::*;
    use std::sync::Mutex;
    use tapioca::{FaultPlan, FaultSpec};
    use tapioca_check::check;
    use tapioca_trace::{Trace, TraceOp, Tracer};

    /// Stream the grid workload and return the trace.
    fn streamed_trace(
        name: &str,
        profile: &MachineProfile,
        decls: &[Vec<WriteDecl>],
        cfg: &TapiocaConfig,
        seed: Option<u64>,
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
            // issue out of order so the trace covers the staging path
            for (v, d) in mine.iter().enumerate().rev() {
                io.write(d.offset, &payload(r, v, d.len, 0)).unwrap();
            }
            io.finalize();
        };
        match seed {
            Some(s) => Runtime::run_perturbed(n, s, body),
            None => Runtime::run(n, body),
        };
        std::fs::remove_file(&path).ok();
        tracer.drain()
    }

    #[test]
    fn streamed_traces_are_checker_clean_across_the_grid() {
        for (name, profile, decls) in grid() {
            let trace = streamed_trace(&format!("tr-{name}"), &profile, &decls, &base_cfg(), None);
            assert!(
                trace.events().iter().any(|e| e.op == TraceOp::Wait),
                "{name}: expected a synchronised trace"
            );
            let v = check(&trace);
            assert!(v.is_empty(), "{name}: streamed trace has violations: {v:?}");
        }
    }

    #[test]
    fn perturbed_streamed_interleavings_stay_checker_clean() {
        let profile = theta_profile(8, 2);
        let decls = IorSpec { num_ranks: NRANKS, bytes_per_rank: 4096 }.decls();
        for seed in 1..=8u64 {
            let name = format!("tr-seed-{seed}");
            let v = check(&streamed_trace(&name, &profile, &decls, &base_cfg(), Some(seed)));
            assert!(v.is_empty(), "seed {seed}: streamed trace has violations: {v:?}");
        }
    }

    #[test]
    fn each_epoch_of_a_reused_session_traces_clean() {
        // Drain the tracer at every epoch boundary (rank 0, after a
        // barrier): each per-epoch trace must be self-contained — its
        // own election events included — and checker-clean.
        let profile = theta_profile(8, 2);
        let nranks = NRANKS;
        let per = 1024u64;
        const EPOCHS: u64 = 3;
        let tracer = Tracer::new(profile.machine.num_ranks());
        let cfg = TapiocaConfig {
            num_aggregators: 4,
            buffer_size: 512,
            tracer: Some(Arc::clone(&tracer)),
            ..Default::default()
        };
        let machine = Arc::new(profile.machine.clone());
        let epoch_traces: Arc<Mutex<Vec<Trace>>> = Arc::new(Mutex::new(Vec::new()));
        let path = tmp("tr-epochs");
        let path2 = path.clone();
        let traces2 = Arc::clone(&epoch_traces);
        let tracer2 = Arc::clone(&tracer);
        Runtime::run(nranks, move |comm| {
            let file = SharedFile::open_shared(&comm, &path2);
            let r = comm.rank();
            let mut io = Session::builder(&comm, file)
                .declarations(vec![WriteDecl { offset: r as u64 * per, len: per }])
                .config(cfg.clone())
                .topology(machine.clone())
                .build()
                .unwrap();
            for epoch in 0..EPOCHS {
                io.write(r as u64 * per, &payload(r, 0, per, epoch)).unwrap();
                comm.barrier();
                if r == 0 {
                    traces2.lock().unwrap().push(tracer2.drain());
                }
                comm.barrier();
            }
            io.finalize();
        });
        std::fs::remove_file(&path).ok();
        let traces = Arc::try_unwrap(epoch_traces).unwrap().into_inner().unwrap();
        assert_eq!(traces.len(), EPOCHS as usize);
        let elect_count =
            |t: &Trace| t.events().iter().filter(|e| e.op == TraceOp::Elect).count();
        for (epoch, trace) in traces.iter().enumerate() {
            assert!(!trace.is_empty(), "epoch {epoch}: empty trace");
            assert_eq!(
                elect_count(trace),
                elect_count(&traces[0]),
                "epoch {epoch}: election events must be re-recorded per epoch"
            );
            let v = check(trace);
            assert!(v.is_empty(), "epoch {epoch}: reused-session trace has violations: {v:?}");
        }
    }

    #[test]
    fn faulty_streamed_runs_recover_and_trace_clean() {
        // Crash + flaky flushes under the streaming path: recovery must
        // still produce the fault-free bytes and a checker-clean trace.
        let profile = theta_profile(4, 2);
        let nranks = 8usize;
        let per = 256u64;
        let decls: Vec<Vec<WriteDecl>> =
            (0..nranks).map(|r| vec![WriteDecl { offset: r as u64 * per, len: per }]).collect();
        let tracer = Tracer::new(profile.machine.num_ranks());
        let cfg = TapiocaConfig {
            num_aggregators: 2,
            buffer_size: 256,
            faults: Some(
                FaultPlan::seeded(13)
                    .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
                    .with(FaultSpec::TransientFlushError { probability: 0.3 }),
            ),
            io_policy: tapioca::IoPolicy {
                max_retries: 16,
                base_backoff: std::time::Duration::from_micros(1),
            },
            tracer: Some(Arc::clone(&tracer)),
            ..Default::default()
        };
        let machine = Arc::new(profile.machine.clone());
        let path = tmp("tr-faults");
        let path2 = path.clone();
        let decls2 = decls.clone();
        Runtime::run(nranks, move |comm| {
            let file = SharedFile::open_shared(&comm, &path2);
            let r = comm.rank();
            let mine = decls2[r].clone();
            let mut io = Session::builder(&comm, file)
                .declarations(mine.clone())
                .config(cfg.clone())
                .topology(machine.clone())
                .build()
                .unwrap();
            for (v, d) in mine.iter().enumerate() {
                io.write(d.offset, &payload(r, v, d.len, 0)).unwrap();
            }
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for r in 0..nranks {
            let o = r * per as usize;
            assert_eq!(
                &bytes[o..o + per as usize],
                payload(r, 0, per, 0).as_slice(),
                "rank {r}: faulty streamed run corrupted the file"
            );
        }
        let trace = tracer.drain();
        let ops: Vec<TraceOp> = trace.events().iter().map(|e| e.op).collect();
        assert!(ops.contains(&TraceOp::Crash), "trace records the crash");
        assert!(ops.contains(&TraceOp::Reelect), "trace records the re-election");
        let v = check(&trace);
        assert!(v.is_empty(), "faulty streamed trace has violations: {v:?}");
    }
}
