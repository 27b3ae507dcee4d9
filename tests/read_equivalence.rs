//! The read path in the feature cross-product: `Session::read_declared`
//! runs on the partition contexts the write epochs keep (one window per
//! partition for both directions, file → window with no staging
//! copy), so it is exercised here against everything
//! the write path is — uneven multi-member partitions, multi-segment
//! rounds with holes, pipelining on and off, a fault plan
//! (nothing kept), the one-node HACC shape where most members skip most
//! rounds — under perturbed schedules, and byte-compared with the
//! pre-change read loop, which lives on below as the oracle. One more
//! input checks that appending chunks to the outputs places them: a
//! declaration across partitions beside empty and overlapping ones.
//!
//! Also here: the kept context must never serve stale bytes, a failed
//! aggregator read must reach every member as an `Err` instead of
//! stranding them, and the read counters are pinned on the benchmark's
//! `thr-ior-readback` shape.

use std::sync::Arc;
use std::time::Duration;

use tapioca::placement::election_cost;
use tapioca::prelude::*;
use tapioca::schedule::{RoundRoster, Schedule};
use tapioca::{FaultPlan, FaultSpec, IoPolicy};
use tapioca_mpi::{Comm, RoundTag, Runtime, SharedFile, Window};
use tapioca_topology::{mira_profile, theta_profile, Machine, TopologyProvider};

/// Perturbation seeds every scenario runs under.
const SEEDS: u64 = 8;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-read-eq");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Recognisable payload: a function of (epoch, rank, var, byte index).
fn payload(epoch: u64, rank: usize, var: usize, len: u64) -> Vec<u8> {
    (0..len).map(|i| (epoch * 101 + rank as u64 * 131 + var as u64 * 17 + i * 3) as u8).collect()
}

fn epoch_data(epoch: u64, rank: usize, mine: &[WriteDecl]) -> Vec<Vec<u8>> {
    mine.iter().enumerate().map(|(v, d)| payload(epoch, rank, v, d.len)).collect()
}

fn write_epoch(io: &mut Session<'_>, mine: &[WriteDecl], data: &[Vec<u8>]) {
    for (d, bytes) in mine.iter().zip(data) {
        io.write(d.offset, bytes).unwrap();
    }
}

/// The read pipeline as it was before reads moved onto the session's
/// kept contexts — a fresh subgroup, election, single-buffer window and
/// roster per call, every segment read into a throw-away `Vec` and
/// copied into the window, one buffer and no overlap. Slow and simple:
/// the byte oracle for [`Session::read_declared`].
fn oracle_read(
    comm: &Comm,
    schedule: &Schedule,
    var_lens: &[u64],
    file: &SharedFile,
    cfg: &TapiocaConfig,
    topo: &dyn TopologyProvider,
    key: u64,
) -> Vec<Vec<u8>> {
    let me = comm.rank();
    let b = cfg.buffer_size as usize;
    let mut out: Vec<Vec<u8>> = var_lens.iter().map(|&l| vec![0u8; l as usize]).collect();
    for part in &schedule.partitions {
        if part.members.binary_search(&me).is_err() {
            continue;
        }
        let pcomm = comm.subgroup(&part.members, key * 1_000_000 + part.index as u64);
        let my_idx = pcomm.rank();
        let io = topo.io_nodes_for(&part.members).first().copied().unwrap_or(0);
        let my_cost = election_cost(
            topo,
            &part.members,
            &part.member_bytes,
            io,
            part.index,
            cfg.strategy,
            my_idx,
        );
        let (_, agg_idx) = pcomm.allreduce_min_loc(my_cost);
        let win = Window::allocate(&pcomm, if my_idx == agg_idx { b } else { 0 });
        let my_chunks: Vec<_> =
            schedule.chunks_by_rank[me].iter().filter(|c| c.partition == part.index).collect();
        let roster = RoundRoster::new(schedule, part);
        for (r, round) in part.rounds.iter().enumerate() {
            let at = RoundTag { partition: part.index as u32, round: r as u32 };
            if my_idx == agg_idx {
                for seg in &round.segments {
                    let data = file.read_at(seg.file_offset, seg.len as usize).unwrap();
                    win.put(my_idx, seg.buf_offset as usize, &data);
                }
                win.post(roster.contributors(r), at);
            }
            if roster.contributes(r, my_idx) {
                win.start(agg_idx, at);
                for c in my_chunks.iter().filter(|c| c.round as usize == r) {
                    win.get_into(
                        agg_idx,
                        c.buf_offset as usize,
                        &mut out[c.var][c.var_offset as usize..(c.var_offset + c.len) as usize],
                    );
                }
                win.complete(agg_idx, at);
            }
            if my_idx == agg_idx {
                win.wait(roster.contributors(r), at);
            }
        }
        pcomm.barrier();
    }
    out
}

/// Six ranks, three extents each, all of different sizes with gaps
/// between them: partitions of several uneven members whose 1 KiB
/// rounds carry more than one file segment.
fn holes() -> Vec<Vec<WriteDecl>> {
    (0..6u64)
        .map(|r| {
            let base = r * 4000;
            vec![
                WriteDecl { offset: base, len: 300 + 70 * r },
                WriteDecl { offset: base + 1500, len: 90 + 13 * r },
                WriteDecl { offset: base + 2600 + 50 * r, len: 640 },
            ]
        })
        .collect()
}

/// The benchmark's one-node HACC shape, scaled down: 16 ranks, nine
/// field-major variables (variable `v` of rank `r` at `v·R·L + r·L`),
/// rounds of four ranks' worth — most members skip most rounds.
fn hacc_one_node() -> Vec<Vec<WriteDecl>> {
    const L: u64 = 2048;
    (0..16u64)
        .map(|r| (0..9u64).map(|v| WriteDecl { offset: v * 16 * L + r * L, len: L }).collect())
        .collect()
}

/// One rank's part of a scenario: two write epochs of different bytes,
/// each followed by two `read_declared` calls and one oracle read.
fn write_read_twice(
    comm: Comm,
    path: &std::path::Path,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
    topo: &Arc<Machine>,
) {
    let file = SharedFile::open_shared(&comm, path);
    let r = comm.rank();
    let mine = &decls[r];
    let lens: Vec<u64> = mine.iter().map(|d| d.len).collect();
    let mut io = Session::builder(&comm, file.clone())
        .declarations(mine.clone())
        .config(cfg.clone())
        .topology(topo.clone())
        .build()
        .unwrap();
    for epoch in 0..2u64 {
        let data = epoch_data(epoch, r, mine);
        write_epoch(&mut io, mine, &data);
        let back = io.read_declared().unwrap();
        assert_eq!(back, data, "rank {r} epoch {epoch}: read_declared differs from the payload");
        assert_eq!(io.read_declared().unwrap(), back, "rank {r} epoch {epoch}: second read");
        let key = 7_000 + epoch;
        let old = oracle_read(&comm, io.schedule(), &lens, &file, cfg, topo.as_ref(), key);
        assert_eq!(back, old, "rank {r} epoch {epoch}: differs from the pre-change pipeline");
    }
    io.finalize();
}

fn cross_product(name: &str, decls: &[Vec<WriteDecl>], base: &TapiocaConfig, topo: Machine) {
    let topo = Arc::new(topo);
    let faults = FaultPlan::seeded(13)
        .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
        .with(FaultSpec::TransientFlushError { probability: 0.4 });
    let fast_retries = IoPolicy { max_retries: 16, base_backoff: Duration::from_micros(1) };
    let configs = [
        ("pipelined", base.clone()),
        ("unpipelined", TapiocaConfig { pipelining: false, ..base.clone() }),
        (
            "faults",
            TapiocaConfig { faults: Some(faults), io_policy: fast_retries, ..base.clone() },
        ),
    ];
    for (label, cfg) in &configs {
        for seed in 0..SEEDS {
            let path = tmp(&format!("{name}-{label}-{seed}"));
            Runtime::run_perturbed(decls.len(), seed, |comm| {
                write_read_twice(comm, &path, decls, cfg, &topo);
            });
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn uneven_partitions_with_holes_read_back_under_every_config() {
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 1024, ..Default::default() };
    let decls = holes();
    let schedule = tapioca::compute_schedule(&decls, tapioca::ScheduleParams {
        num_aggregators: 2,
        buffer_size: 1024,
        align_to_buffer: true,
    });
    assert!(schedule.partitions.iter().all(|p| p.members.len() >= 3), "multi-member partitions");
    assert!(
        schedule.partitions.iter().flat_map(|p| &p.rounds).any(|r| r.segments.len() > 1),
        "rounds with holes"
    );
    cross_product("holes", &decls, &cfg, theta_profile(8, 2).machine);
}

#[test]
fn one_node_hacc_reads_back_under_every_config() {
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 4 * 2048, ..Default::default() };
    cross_product("hacc", &hacc_one_node(), &cfg, mira_profile(128, 16).machine);
}

/// Rank 0 declares an extent crossing both partitions, several rounds in
/// each, a zero-length extent, and two extents overlapping each other;
/// the other ranks overlap it as well and put two or more members in
/// every partition.
fn crossing() -> Vec<Vec<WriteDecl>> {
    let d = |offset, len| WriteDecl { offset, len };
    vec![
        vec![d(256, 3328), d(1000, 0), d(3000, 500), d(3300, 600)],
        vec![d(0, 256), d(2048, 252)],
        vec![d(3900, 196), d(1024, 76)],
        vec![d(1500, 1100)],
    ]
}

/// Payload as a function of the file offset, so every write of an
/// overlapped byte agrees on it.
fn image(epoch: u64, d: &WriteDecl) -> Vec<u8> {
    (d.offset..d.offset + d.len).map(|x| (epoch * 101 + x * 7 + x / 251) as u8).collect()
}

/// `read_declared` appends each chunk to its output buffer, which is
/// only right if a rank meets the chunks of a declaration in ascending
/// `var_offset` — across partitions and rounds, beside empty and
/// overlapping declarations.
#[test]
fn declaration_across_partitions_beside_empty_and_overlapping_ones_reads_back() {
    const BUF: u64 = 256;
    let decls = crossing();
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: BUF, ..Default::default() };
    let schedule = tapioca::compute_schedule(&decls, tapioca::ScheduleParams {
        num_aggregators: 2,
        buffer_size: BUF,
        align_to_buffer: true,
    });
    assert_eq!(schedule.partitions.len(), 2);
    assert!(schedule.partitions.iter().all(|p| p.members.len() >= 2), "multi-member partitions");
    for p in 0..2 {
        let rounds = schedule.chunks_by_rank[0]
            .iter()
            .filter(|c| c.var == 0 && c.partition == p)
            .count();
        assert!(rounds >= 3, "rank 0's first extent has {rounds} rounds in partition {p}");
    }
    let topo = Arc::new(theta_profile(8, 2).machine);
    for seed in 0..SEEDS {
        let path = tmp(&format!("crossing-{seed}"));
        Runtime::run_perturbed(decls.len(), seed, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank();
            let mine = &decls[r];
            let lens: Vec<u64> = mine.iter().map(|d| d.len).collect();
            let mut io = Session::builder(&comm, file.clone())
                .declarations(mine.clone())
                .config(cfg.clone())
                .topology(topo.clone())
                .build()
                .unwrap();
            for epoch in 0..2u64 {
                let data: Vec<Vec<u8>> = mine.iter().map(|d| image(epoch, d)).collect();
                write_epoch(&mut io, mine, &data);
                let back = io.read_declared().unwrap();
                for (v, (buf, d)) in back.iter().zip(mine).enumerate() {
                    assert_eq!(buf.len() as u64, d.len, "rank {r} var {v}: buffer length");
                }
                let at = format!("rank {r} seed {seed} epoch {epoch}");
                assert_eq!(back, data, "{at}: differs from the payload");
                let key = 9_000 + epoch;
                let old = oracle_read(&comm, io.schedule(), &lens, &file, &cfg, topo.as_ref(), key);
                assert_eq!(back, old, "{at}: differs from the oracle");
            }
            io.finalize();
        });
        std::fs::remove_file(&path).ok();
    }
}

/// A restart: the session reads an existing file *before* its first
/// write epoch (so the read forms the contexts the write then runs on),
/// writes different bytes, and reads again.
#[test]
fn restart_reads_before_its_first_write_then_sees_its_own_bytes() {
    let decls = holes();
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 1024, ..Default::default() };
    for seed in 0..SEEDS {
        let path = tmp(&format!("restart-{seed}"));
        Runtime::run_perturbed(decls.len(), seed, |comm| {
            let r = comm.rank();
            let mine = &decls[r];
            let build = |file| {
                Session::builder(&comm, file)
                    .declarations(mine.clone())
                    .config(cfg.clone())
                    .build()
                    .unwrap()
            };
            let (old, new) = (epoch_data(0, r, mine), epoch_data(1, r, mine));

            let mut io = build(SharedFile::open_shared(&comm, &path));
            write_epoch(&mut io, mine, &old);
            io.finalize();
            comm.barrier();

            let mut io = build(SharedFile::open(&path).unwrap());
            assert!(io.read_stats().is_none(), "no read yet");
            assert_eq!(io.read_declared().unwrap(), old, "rank {r} seed {seed}: restart read");
            assert!(io.stats().is_none(), "a read is not a write epoch");
            write_epoch(&mut io, mine, &new);
            assert_eq!(io.read_declared().unwrap(), new, "rank {r} seed {seed}: stale bytes");
            io.finalize();
        });
        std::fs::remove_file(&path).ok();
    }
}

/// Four ranks of 512 B in 256 B rounds. The file ends after `on_disk`
/// bytes, so every aggregator whose partition reaches past that fails a
/// read — in a later round than its first when `on_disk` is not a
/// partition boundary. Every member of a failed partition must come
/// back with `TapiocaError::Io` (at the parent commit the aggregator
/// returned alone and the others sat in `Window::start` until the
/// watchdog), members of a healthy partition with their bytes, and the
/// session must stay usable.
fn short_file(comm: Comm, path: &std::path::Path, aggregators: usize, on_disk: u64) {
    let file = SharedFile::open_shared(&comm, path);
    let r = comm.rank();
    let per = 512u64;
    let image = payload(9, 0, 0, 4 * per);
    if r == 0 {
        file.write_at(0, &image[..on_disk as usize]).unwrap();
    }
    comm.barrier();
    let mut io = Session::builder(&comm, file)
        .declarations(vec![WriteDecl { offset: r as u64 * per, len: per }])
        .config(TapiocaConfig {
            num_aggregators: aggregators,
            buffer_size: 256,
            ..Default::default()
        })
        .build()
        .unwrap();
    let part = &io.schedule().partitions[io.schedule().chunks_by_rank[r][0].partition];
    let healthy = part.end <= on_disk;
    // Twice: the second call runs on the contexts the failed one kept.
    for attempt in 0..2 {
        match io.read_declared() {
            Ok(bufs) => {
                assert!(healthy, "rank {r} attempt {attempt}: read past the end of the file");
                let at = (r as u64 * per) as usize;
                assert_eq!(bufs[0], image[at..at + per as usize]);
            }
            Err(e) => {
                assert!(!healthy, "rank {r} attempt {attempt}: {e}");
                assert!(matches!(e, TapiocaError::Io { op: "read_at", .. }), "rank {r}: {e}");
            }
        }
    }
    let mine = payload(1, r, 0, per);
    io.write(r as u64 * per, &mine).unwrap();
    assert_eq!(io.read_declared().unwrap()[0], mine, "rank {r}: session unusable after the error");
    io.finalize();
}

#[test]
fn failed_aggregator_read_reaches_every_member_within_the_watchdog() {
    // (aggregators, bytes on disk): one partition failing in round 0 /
    // in round 1; two partitions of which the second fails.
    for (aggregators, on_disk) in [(1, 0), (1, 256), (2, 1024), (2, 1280)] {
        let path = tmp(&format!("short-{aggregators}-{on_disk}"));
        Runtime::run_with_watchdog(4, Some(Duration::from_secs(10)), |comm| {
            short_file(comm, &path, aggregators, on_disk);
        });
        for seed in 0..SEEDS {
            Runtime::run_perturbed(4, seed, |comm| short_file(comm, &path, aggregators, on_disk));
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The benchmark's `thr-ior-readback` shape: 4 ranks x 4 MiB, one
/// aggregator per rank, 1 MiB rounds. One `read_declared` is 16 segment
/// reads and 16 gets of 1 MiB each, and leaves the write epoch's
/// account alone.
#[test]
fn read_stats_are_pinned_on_the_readback_shape() {
    const MIB: u64 = 1 << 20;
    let path = tmp("readback-stats");
    let topo = Arc::new(theta_profile(8, 2).machine);
    let per_rank = Runtime::run(4, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank();
        let mine = vec![WriteDecl { offset: r as u64 * 4 * MIB, len: 4 * MIB }];
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(TapiocaConfig { num_aggregators: 4, buffer_size: MIB, ..Default::default() })
            .topology(topo.clone())
            .build()
            .unwrap();
        let data = epoch_data(0, r, &mine);
        write_epoch(&mut io, &mine, &data);
        let written = *io.stats().unwrap();
        assert_eq!((written.reads, written.gets), (0, 0), "a write epoch reads nothing");
        assert!(io.read_stats().is_none());
        let mut reads = Vec::new();
        for _ in 0..2 {
            assert_eq!(io.read_declared().unwrap(), data);
            reads.push(io.read_stats().unwrap());
        }
        assert_eq!(reads[0], reads[1], "rank {r}: every read does the same work");
        assert_eq!(*io.stats().unwrap(), written, "rank {r}: reads leave stats() alone");
        io.finalize();
        reads[0]
    });
    std::fs::remove_file(&path).ok();
    let mut total = IoStats::default();
    per_rank.iter().for_each(|s| total.merge(s));
    assert_eq!((total.reads, total.read_bytes), (16, 16 * MIB));
    assert_eq!((total.gets, total.get_bytes), (16, 16 * MIB));
    assert_eq!((total.partitions, total.elected), (4, 4));
    // Per round: the aggregator's post and wait, its own start and complete.
    assert_eq!(total.fences, 16 * 4);
    assert_eq!((total.puts, total.flushes, total.staging_copy_bytes), (0, 0, 0));
}
