//! Data-plane equivalence: intra-node put coalescing must be invisible
//! in the file — merged puts change *wire traffic*, never bytes.
//!
//! Covered here, on the mira/theta x ior/hacc grid the paper evaluates:
//! * staged and streamed runs with `coalescing: true` produce files
//!   bit-identical to the uncoalesced reference, while issuing strictly
//!   fewer wire puts (`IoStats::puts`) with identical `put_bytes`;
//! * fault plans (aggregator crash, transient flush errors, stalls) keep
//!   the equivalence — the crash replay re-issues merged puts from the
//!   surviving gather buffers without re-deposits;
//! * 8 perturbation seeds push the deposit/forward rendezvous through
//!   different interleavings without changing the file;
//! * the zero-copy flush path keeps `staging_copy_bytes == 0` for
//!   in-order streamed workloads (regression for the vectored rewrite);
//! * (with the `trace` feature) coalesced traces carry `coalesced >= 2`
//!   merged-put events, satisfy every checker invariant, and preserve
//!   per-partition aggregation byte totals — per-rank extent coverage.

use tapioca::aggregation::{run_write_pipeline, IoStats};
use tapioca::prelude::*;
use tapioca::schedule::{compute_coalesce_plan, compute_schedule, ScheduleParams};
use tapioca::{FaultPlan, FaultSpec};
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, TopologyProvider};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

use std::sync::Arc;

const NRANKS: usize = 16;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-dataplane-eq");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Recognisable payload: a function of (rank, var, byte index).
fn payload(rank: usize, var: usize, len: u64) -> Vec<u8> {
    (0..len).map(|i| (rank as u64 * 131 + var as u64 * 17 + i * 3) as u8).collect()
}

/// The evaluation grid, shaped so round buffers span several co-located
/// ranks (the precondition for coalescing): 512 B per rank against a
/// 2 KiB buffer packs 4 ranks per round.
fn grid() -> Vec<(&'static str, MachineProfile, Vec<Vec<WriteDecl>>)> {
    let ior = IorSpec { num_ranks: NRANKS, bytes_per_rank: 512 }.decls();
    let hacc =
        HaccIo { num_ranks: NRANKS, particles_per_rank: 128, layout: Layout::StructOfArrays }
            .decls();
    vec![
        ("mira-ior", mira_profile(128, 4), ior.clone()),
        ("mira-hacc", mira_profile(128, 4), hacc.clone()),
        ("theta-ior", theta_profile(8, 2), ior),
        ("theta-hacc", theta_profile(8, 2), hacc),
    ]
}

fn base_cfg(coalescing: bool) -> TapiocaConfig {
    TapiocaConfig { num_aggregators: 2, buffer_size: 2048, coalescing, ..Default::default() }
}

/// Batch-staged run; returns (file bytes, per-rank stats).
fn staged(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
) -> (Vec<u8>, Vec<IoStats>) {
    let path = tmp(name);
    let machine = Arc::new(profile.machine.clone());
    let schedule = compute_schedule(decls, ScheduleParams {
        num_aggregators: cfg.num_aggregators,
        buffer_size: cfg.buffer_size,
        align_to_buffer: true,
    });
    let decls = decls.to_vec();
    let path2 = path.clone();
    let cfg = cfg.clone();
    let stats = Runtime::run(decls.len(), move |comm| {
        let file = SharedFile::open_shared(&comm, &path2);
        let r = comm.rank();
        let data: Vec<Vec<u8>> =
            decls[r].iter().enumerate().map(|(v, d)| payload(r, v, d.len)).collect();
        let epoch = comm.next_user_seq() * 2;
        run_write_pipeline(&comm, &schedule, &data, &file, &cfg, machine.as_ref(), epoch)
            .unwrap()
    });
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, stats)
}

/// Streamed session run (in declaration order); returns (file bytes,
/// per-rank stats of the completed epoch).
fn streamed(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
    seed: Option<u64>,
) -> (Vec<u8>, Vec<IoStats>) {
    let path = tmp(name);
    let machine = Arc::new(profile.machine.clone());
    let n = decls.len();
    let decls = decls.to_vec();
    let path2 = path.clone();
    let cfg = cfg.clone();
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
        for (v, d) in mine.iter().enumerate() {
            io.write(d.offset, &payload(r, v, d.len)).unwrap();
        }
        let stats = *io.stats().unwrap();
        io.finalize();
        stats
    };
    let stats = match seed {
        Some(s) => Runtime::run_perturbed(n, s, body),
        None => Runtime::run(n, body),
    };
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, stats)
}

fn total(stats: &[IoStats]) -> IoStats {
    let mut t = IoStats::default();
    for s in stats {
        t.merge(s);
    }
    t
}

/// The `thr-hacc-rounds` / `thr-hacc-coalesced` benchmark shape: 16
/// ranks on one Mira node, 9 SoA variables of 8 KiB each, 2 aggregators,
/// 32 KiB buffers. Both partitions have all 16 ranks as members and 18
/// rounds, but a round holds the chunks of only 4 ranks — the other 12
/// take no part in it and run ahead. Under Algorithm 3's fences every
/// member synchronised twice per round: 16 x 36 x 2 = 1,152 calls.
#[test]
fn hacc_rounds_shape_pins_the_synchronisation_calls() {
    const KIB: u64 = 1024;
    let profile = mira_profile(128, 16);
    let decls: Vec<Vec<WriteDecl>> = (0..16u64)
        .map(|r| (0..9u64).map(|v| WriteDecl { offset: (v * 16 + r) * 8 * KIB, len: 8 * KIB }).collect())
        .collect();
    let mut image = vec![0u8; 16 * 9 * 8 * KIB as usize];
    for (r, mine) in decls.iter().enumerate() {
        for (v, d) in mine.iter().enumerate() {
            image[d.offset as usize..][..d.len as usize].copy_from_slice(&payload(r, v, d.len));
        }
    }
    // Per round: 4 contributors start and complete, the aggregator
    // posts and waits = 10 calls; coalesced, the 3 non-leaders also
    // complete toward the run leader and the leader waits for them
    // = 14. A crash replays one round (10 more calls either way: the
    // gather buffer is not re-deposited).
    for (coalescing, crash, pinned) in
        [(false, false, 360), (true, false, 504), (false, true, 370), (true, true, 514)]
    {
        let name = format!("hacc-rounds-{coalescing}-{crash}");
        let cfg = TapiocaConfig {
            num_aggregators: 2,
            buffer_size: 32 * KIB,
            coalescing,
            faults: crash.then(|| {
                FaultPlan::seeded(3).with(FaultSpec::AggregatorCrash { partition: 0, round: 3 })
            }),
            ..Default::default()
        };
        let (reference, staged_stats) = staged(&format!("{name}-staged"), &profile, &decls, &cfg);
        assert!(reference == image, "{name}: staged reference diverges from the payload image");
        assert_eq!(total(&staged_stats).fences, pinned, "{name}: staged driver");
        for run in 0..2 {
            let (bytes, stats) = streamed(&format!("{name}-{run}"), &profile, &decls, &cfg, None);
            assert!(bytes == reference, "{name} run {run}: file diverges from the staged reference");
            let t = total(&stats);
            assert_eq!(t.fences, pinned, "{name} run {run}: the count must repeat exactly");
            assert_eq!(t.flushes, 36, "{name}");
            assert_eq!(t.reelections, u64::from(crash), "{name}");
            let replayed = if crash { 4 } else { 0 };
            if coalescing {
                assert_eq!((t.puts, t.coalesced_chunks), (36 + u64::from(crash), 144), "{name}");
            } else {
                assert_eq!(t.puts, 144 + replayed, "{name}");
            }
        }
        assert!(pinned < 1152);
    }
}

/// The grid is shaped to actually coalesce: every cell's plan folds at
/// least one run, and the planned wire put count drops accordingly.
#[test]
fn coalesce_plan_is_nonempty_across_the_grid() {
    for (name, profile, decls) in grid() {
        let cfg = base_cfg(true);
        let schedule = compute_schedule(&decls, ScheduleParams {
            num_aggregators: cfg.num_aggregators,
            buffer_size: cfg.buffer_size,
            align_to_buffer: true,
        });
        let machine = &profile.machine;
        let plan = compute_coalesce_plan(&schedule, |r| machine.node_of_rank(r));
        assert!(!plan.is_empty(), "{name}: grid shape produced no coalesced runs");
        let chunk_total: usize = schedule.chunks_by_rank.iter().map(Vec::len).sum();
        assert!(
            plan.wire_put_count(&schedule) < chunk_total,
            "{name}: coalescing must reduce the planned wire put count"
        );
    }
}

#[test]
fn staged_coalesced_files_match_raw_with_fewer_wire_puts() {
    for (name, profile, decls) in grid() {
        let (raw_bytes, raw_stats) = staged(&format!("{name}-raw"), &profile, &decls, &base_cfg(false));
        let (co_bytes, co_stats) = staged(&format!("{name}-co"), &profile, &decls, &base_cfg(true));
        assert!(co_bytes == raw_bytes, "{name}: coalesced file diverges from raw reference");
        let (raw, co) = (total(&raw_stats), total(&co_stats));
        assert_eq!(co.put_bytes, raw.put_bytes, "{name}: contributed bytes must not change");
        assert_eq!(co.flush_bytes, raw.flush_bytes, "{name}: flush traffic must not change");
        assert!(co.coalesced_puts > 0, "{name}: no merged puts were issued");
        assert!(
            co.coalesced_chunks >= 2 * co.coalesced_puts,
            "{name}: every merged put must carry at least two chunks"
        );
        assert!(
            co.puts < raw.puts,
            "{name}: wire puts must drop ({} coalesced vs {} raw)",
            co.puts,
            raw.puts
        );
        assert_eq!(
            co.puts + co.coalesced_chunks - co.coalesced_puts,
            raw.puts,
            "{name}: wire-put arithmetic must account for every chunk"
        );
    }
}

#[test]
fn streamed_coalesced_files_match_raw_across_the_grid() {
    for (name, profile, decls) in grid() {
        let cfg_raw = base_cfg(false);
        let cfg_co = base_cfg(true);
        let (raw_bytes, _) = streamed(&format!("{name}-sraw"), &profile, &decls, &cfg_raw, None);
        let (co_bytes, co_stats) =
            streamed(&format!("{name}-sco"), &profile, &decls, &cfg_co, None);
        assert!(co_bytes == raw_bytes, "{name}: streamed coalesced file diverges");
        let co = total(&co_stats);
        assert!(co.coalesced_puts > 0, "{name}: streamed run never coalesced");
        // Zero-copy regression: when the issue order matches the round
        // order (IOR's single contiguous extent per rank), streaming
        // through the vectored flush path stages nothing, coalesced or
        // not. (HACC's interleaved SoA layout legitimately stages: a
        // var's chunks span rounds that are not yet ready in order.)
        if name.ends_with("ior") {
            assert_eq!(co.staging_copy_bytes, 0, "{name}: in-order stream must not copy");
            let raw =
                total(&streamed(&format!("{name}-sraw2"), &profile, &decls, &cfg_raw, None).1);
            assert_eq!(raw.staging_copy_bytes, 0, "{name}: raw in-order stream must not copy");
        }
    }
}

#[test]
fn fault_plans_keep_coalesced_files_identical() {
    let profile = mira_profile(128, 4);
    let decls = grid().remove(1).2; // mira-hacc: many small chunks
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "crash",
            FaultPlan::seeded(11).with(FaultSpec::AggregatorCrash { partition: 0, round: 1 }),
        ),
        (
            "transient",
            FaultPlan::seeded(7).with(FaultSpec::TransientFlushError { probability: 0.4 }),
        ),
        ("stall", FaultPlan::seeded(5).with(FaultSpec::FlushStall { partition: 0, round: 1 })),
        (
            "crash+transient",
            FaultPlan::seeded(13)
                .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
                .with(FaultSpec::TransientFlushError { probability: 0.4 }),
        ),
    ];
    for (label, plan) in plans {
        let raw_cfg = TapiocaConfig { faults: Some(plan.clone()), ..base_cfg(false) };
        let co_cfg = TapiocaConfig { faults: Some(plan), ..base_cfg(true) };
        let (raw_bytes, _) = staged(&format!("fault-{label}-raw"), &profile, &decls, &raw_cfg);
        let (co_bytes, co_stats) =
            staged(&format!("fault-{label}-co"), &profile, &decls, &co_cfg);
        assert!(co_bytes == raw_bytes, "fault plan {label}: coalesced file diverges");
        let co = total(&co_stats);
        assert!(co.coalesced_puts > 0, "fault plan {label}: run never coalesced");
        if label.starts_with("crash") {
            assert!(co.reelections > 0, "fault plan {label}: crash never fired");
        }
    }
}

#[test]
fn perturbed_interleavings_preserve_coalesced_equivalence() {
    let profile = theta_profile(8, 2);
    let decls = IorSpec { num_ranks: NRANKS, bytes_per_rank: 512 }.decls();
    let cfg = base_cfg(true);
    let (reference, _) = streamed("perturb-ref", &profile, &decls, &cfg, None);
    for seed in 0..8u64 {
        let (got, stats) =
            streamed(&format!("perturb-{seed}"), &profile, &decls, &cfg, Some(seed));
        assert!(got == reference, "seed {seed}: perturbed coalesced file diverges");
        assert!(total(&stats).coalesced_puts > 0, "seed {seed}: run never coalesced");
    }
}

#[cfg(feature = "trace")]
mod traced {
    //! Coalesced traces must satisfy the full protocol checker and
    //! still prove per-rank extent coverage: the merged put carries its
    //! chunk count and the concatenated length, so per-partition
    //! aggregation byte totals match the raw trace exactly.

    use super::*;
    use std::collections::BTreeMap;
    use tapioca_check::check;
    use tapioca_trace::{Phase, Trace, TraceOp, Tracer};

    fn traced_streamed(
        name: &str,
        profile: &MachineProfile,
        decls: &[Vec<WriteDecl>],
        cfg: &TapiocaConfig,
        seed: Option<u64>,
    ) -> Trace {
        let tracer = Tracer::new(profile.machine.num_ranks());
        let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg.clone() };
        let _ = streamed(name, profile, decls, &cfg, seed);
        tracer.drain()
    }

    /// Aggregation-phase put bytes per partition — the extent coverage
    /// measure the merged puts must preserve.
    fn put_bytes_by_partition(t: &Trace) -> BTreeMap<u32, u64> {
        let mut m = BTreeMap::new();
        for e in t.events() {
            if e.op == TraceOp::RmaPut && e.phase == Phase::Aggregation {
                *m.entry(e.partition).or_insert(0) += e.bytes;
            }
        }
        m
    }

    #[test]
    fn coalesced_traces_are_checker_clean_and_cover_extents() {
        for (name, profile, decls) in grid() {
            let raw =
                traced_streamed(&format!("{name}-traw"), &profile, &decls, &base_cfg(false), None);
            let co =
                traced_streamed(&format!("{name}-tco"), &profile, &decls, &base_cfg(true), None);
            let violations = check(&co);
            assert!(violations.is_empty(), "{name}: {violations:?}");
            assert!(
                co.events().iter().any(|e| e.op == TraceOp::RmaPut && e.coalesced >= 2),
                "{name}: no merged put recorded"
            );
            assert!(
                co.events().iter().all(|e| e.op != TraceOp::RmaPut || e.coalesced != 1),
                "{name}: a merged put must carry at least two chunks"
            );
            assert_eq!(
                put_bytes_by_partition(&co),
                put_bytes_by_partition(&raw),
                "{name}: merged puts must preserve per-partition extent coverage"
            );
        }
    }

    #[test]
    fn faulty_and_perturbed_coalesced_traces_are_checker_clean() {
        let profile = mira_profile(128, 4);
        let decls = grid().remove(1).2;
        let cfg = TapiocaConfig {
            faults: Some(
                FaultPlan::seeded(13)
                    .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
                    .with(FaultSpec::TransientFlushError { probability: 0.4 }),
            ),
            ..base_cfg(true)
        };
        let t = traced_streamed("tfault", &profile, &decls, &cfg, None);
        let violations = check(&t);
        assert!(violations.is_empty(), "faulty coalesced trace: {violations:?}");

        for seed in [1u64, 5] {
            let t = traced_streamed(
                &format!("tperturb-{seed}"),
                &profile,
                &decls,
                &base_cfg(true),
                Some(seed),
            );
            let violations = check(&t);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }
}
