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
//! * a round the aggregator fills alone is written from the caller's
//!   bytes, or from the staging arena when they arrived early;
//! * after every streamed `write()`, the rounds completed are exactly
//!   the ready prefix of the rank's (partition, round) steps;
//! * (with the `trace` feature) streamed traces — including per-epoch
//!   traces of a reused session, faulty runs, and perturbed
//!   interleavings — satisfy every checker invariant unchanged.

use tapioca::prelude::*;
use tapioca::schedule::RankStreamPlan;
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, TopologyProvider};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;
use tapioca_workloads::GridDecomp;

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

/// A seeded permutation of `0..n`, one per `(rank, epoch)`.
fn shuffled(n: usize, rank: usize, epoch: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (rank as u64) << 8 ^ epoch;
    for i in (1..n).rev() {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        order.swap(i, (x >> 33) as usize % (i + 1));
    }
    order
}

/// 4 ranks, each declaring its 3 KiB block as six 512 B variables; two
/// aggregators and 1 KiB rounds, so every round has one contributor and
/// each aggregator fills half the rounds of its partition alone. Issued
/// in a fresh shuffled order every epoch of one reused session, an
/// aggregator's early variables wait in the staging arena, and its
/// in-place writes take them from there: each epoch's file is that
/// epoch's payload, every byte is put or written in place once, and
/// some aggregator staged bytes in every epoch.
#[test]
fn in_place_rounds_write_staged_chunks_across_reused_epochs() {
    const LEN: u64 = 512;
    const EPOCHS: u64 = 3;
    let decls: Vec<Vec<WriteDecl>> = (0..4u64)
        .map(|r| (0..6u64).map(|v| WriteDecl { offset: (r * 6 + v) * LEN, len: LEN }).collect())
        .collect();
    let path = tmp("in-place-staged");
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 2 * LEN, ..Default::default() };
    let per_rank = Runtime::run(4, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank();
        let mine = &decls[r];
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(cfg.clone())
            .build()
            .unwrap();
        let mut stats = Vec::new();
        for epoch in 0..EPOCHS {
            for v in shuffled(mine.len(), r, epoch) {
                io.write(mine[v].offset, &payload(r, v, LEN, epoch)).unwrap();
            }
            stats.push(*io.stats().unwrap());
            comm.barrier();
            if r == 0 {
                let bytes = std::fs::read(&path).unwrap();
                for (q, theirs) in decls.iter().enumerate() {
                    for (v, d) in theirs.iter().enumerate() {
                        let got = &bytes[d.offset as usize..][..LEN as usize];
                        assert!(got == payload(q, v, LEN, epoch), "epoch {epoch} rank {q} var {v}");
                    }
                }
            }
            comm.barrier();
        }
        io.finalize();
        stats
    });
    std::fs::remove_file(&path).ok();
    for epoch in 0..EPOCHS as usize {
        let mut total = IoStats::default();
        per_rank.iter().for_each(|s| total.merge(&s[epoch]));
        // Two aggregators' six variables each, and the other two ranks'.
        assert_eq!(total.in_place_bytes, 12 * LEN, "epoch {epoch}: half of every partition");
        assert_eq!(total.put_bytes, 12 * LEN, "epoch {epoch}");
        let staged = |s: &IoStats| s.elected > 0 && s.staging_copy_bytes > 0;
        assert!(
            per_rank.iter().any(|s| staged(&s[epoch])),
            "epoch {epoch}: no aggregator wrote staged chunks in place"
        );
    }
}

/// How many of `plan`'s (partition, round) steps, in pipeline order,
/// are ready once the declarations in `issued` are: a step is ready
/// when every chunk this rank owes it belongs to an issued declaration
/// (a step it owes nothing is ready), and the prefix ends at the first
/// step that is not.
fn ready_prefix(plan: &RankStreamPlan, issued: &[bool]) -> u64 {
    plan.parts
        .iter()
        .flat_map(|pp| pp.round_ranges.iter().map(move |&(s, e)| &pp.chunks[s..e]))
        .take_while(|chunks| chunks.iter().all(|c| issued[c.var]))
        .count() as u64
}

/// Run three epochs of one session over `decls`, each rank issuing its
/// writes in its own order, and check every streamed `write()`'s
/// `rounds_completed` against [`ready_prefix`], then the file.
fn rounds_follow_the_ready_prefix(name: &str, decls: &[Vec<WriteDecl>], cfg: &TapiocaConfig) {
    // A byte of the image is a function of its file offset, so a rank
    // declaring one extent twice writes the same bytes both times.
    let at = |o: u64| (o * 7 + o / 251) as u8;
    let path = tmp(name);
    let watchdog = Some(std::time::Duration::from_secs(30));
    let steps = Runtime::run_with_watchdog(decls.len(), watchdog, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank();
        let mine = &decls[r];
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(cfg.clone())
            .build()
            .unwrap();
        let plan = RankStreamPlan::new(io.schedule(), r);
        let mut checked = 0;
        for epoch in 0..3 {
            // In declaration order first, so the prefix grows a step at
            // a time, then in two seeded shuffles.
            let order = match epoch {
                0 => (0..mine.len()).collect(),
                _ => shuffled(mine.len(), r, 16 + epoch),
            };
            let mut issued = vec![false; mine.len()];
            for v in order {
                let d = mine[v];
                let data: Vec<u8> = (d.offset..d.offset + d.len).map(at).collect();
                let outcome = io.write(d.offset, &data).unwrap();
                issued[v] = true;
                if let WriteOutcome::Streamed { rounds_completed } = outcome {
                    let want = ready_prefix(&plan, &issued);
                    assert_eq!(
                        rounds_completed, want,
                        "{name}: rank {r} epoch {epoch}, after declaration {v}"
                    );
                    checked += 1;
                } else {
                    assert!(issued.iter().all(|&i| i), "{name}: rank {r}: {outcome:?} early");
                }
            }
        }
        io.finalize();
        checked
    });
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for d in decls.iter().flatten() {
        let got = &bytes[d.offset as usize..][..d.len as usize];
        assert!(got.iter().zip(d.offset..).all(|(&b, o)| b == at(o)), "{name}: {d:?}");
    }
    assert!(steps.iter().sum::<usize>() > 0, "{name}: no streamed write was checked");
}

#[test]
fn rounds_completed_is_the_ready_prefix_of_the_issued_declarations() {
    // The strided `thr-grid-restart` shape, reduced: 8 ranks x 64 rows of
    // 256 B, four partitions of eight 4 KiB rounds.
    let grid = GridDecomp::new_3d(16, 16, 64, 2, 2, 2, 8);
    let rows: Vec<Vec<WriteDecl>> = (0..8).map(|r| grid.decls_of_rank(r)).collect();
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 4096, ..Default::default() };
    rounds_follow_the_ready_prefix("ready-grid", &rows, &cfg);

    // Four ranks x three interleaved declarations of uneven lengths
    // around 600 B, in 256 B rounds of two partitions: every
    // declaration owns three or four chunks, some in both partitions.
    let mut spans = vec![Vec::new(); 4];
    let mut end = 0;
    for v in 0..3 {
        for (r, mine) in (0..).zip(&mut spans) {
            let len = 600 + 37 * v + 11 * r;
            mine.push(WriteDecl { offset: end, len });
            end += len;
        }
    }
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 256, ..Default::default() };
    rounds_follow_the_ready_prefix("ready-spanning", &spans, &cfg);

    // Three ranks, each declaring its 512 B block twice beside a 128 B
    // tail: the twin chunks share every round.
    let twice: Vec<Vec<WriteDecl>> = (0..3u64)
        .map(|r| {
            let block = WriteDecl { offset: r * 512, len: 512 };
            vec![block, WriteDecl { offset: 1536 + r * 128, len: 128 }, block]
        })
        .collect();
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 384, ..Default::default() };
    rounds_follow_the_ready_prefix("ready-twice", &twice, &cfg);
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
