//! Fault-injection & recovery: seeded matrix over crash round and retry
//! budget, on both executors.
//!
//! The contract under test (see `DESIGN.md`, "Fault model & recovery"):
//! a within-budget [`FaultPlan`] must leave the written file
//! byte-identical to the fault-free run, recovery traces must satisfy
//! every checker invariant, and an exhausted retry budget must degrade
//! to direct per-rank writes — still byte-identical, never deadlocked —
//! surfacing as [`WriteOutcome::Degraded`], not a panic. Chunks staged
//! before their round runs must reach the file through crash replays
//! and degraded direct writes alike.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use tapioca::prelude::*;
use tapioca::schedule::Chunk;
use tapioca::sim_exec::{run_tapioca_sim, CollectiveSpec, GroupSpec, SimReport, StorageConfig};
use tapioca::{FaultPlan, FaultSpec, IoPolicy};
use tapioca_check::{check, ViolationKind};
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_pfs::{AccessMode, LustreTunables};
use tapioca_topology::theta_profile;
use tapioca_trace::{Trace, TraceEvent, TraceOp, Tracer};
use tapioca_workloads::grid::GridDecomp;

/// 8 ranks x 256 B contiguous blocks, 2 aggregators, 256 B buffers:
/// two 4-member partitions with 4 rounds each — enough structure for
/// crashes with standbys and multi-round replay on both executors.
const NRANKS: usize = 8;
const PER_RANK: u64 = 256;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-fault-recovery");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn base_cfg() -> TapiocaConfig {
    TapiocaConfig { num_aggregators: 2, buffer_size: 256, ..Default::default() }
}

/// A fast retry policy so backoffs do not dominate test wall-clock.
fn fast_policy(max_retries: u32) -> IoPolicy {
    IoPolicy { max_retries, base_backoff: Duration::from_micros(1) }
}

fn decls_for(rank: usize) -> Vec<WriteDecl> {
    vec![WriteDecl { offset: rank as u64 * PER_RANK, len: PER_RANK }]
}

fn payload_for(rank: usize) -> Vec<u8> {
    (0..PER_RANK).map(|i| (rank as u64 * 37 + i * 3) as u8).collect()
}

/// Run the thread executor over the standard workload; return the file
/// bytes plus every rank's (outcome, stats).
fn run_thread(name: &str, cfg: &TapiocaConfig) -> (Vec<u8>, Vec<(WriteOutcome, IoStats)>) {
    let path = tmp(name);
    let results = Arc::new(Mutex::new(Vec::new()));
    let cfg = cfg.clone();
    let path2 = path.clone();
    let results2 = Arc::clone(&results);
    Runtime::run(NRANKS, move |comm| {
        let file = SharedFile::open_shared(&comm, &path2);
        let r = comm.rank();
        let mut io = Session::builder(&comm, file)
            .declarations(decls_for(r))
            .config(cfg.clone())
            .build()
            .unwrap();
        let outcome = io.write(r as u64 * PER_RANK, &payload_for(r)).unwrap();
        let stats = *io.stats().expect("pipeline ran");
        io.finalize();
        results2.lock().unwrap().push((outcome, stats));
    });
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, Arc::try_unwrap(results).unwrap().into_inner().unwrap())
}

/// The fault-free reference bytes every faulty run must reproduce.
fn fault_free_bytes() -> Vec<u8> {
    let mut expect = vec![0u8; NRANKS * PER_RANK as usize];
    for r in 0..NRANKS {
        let o = r * PER_RANK as usize;
        expect[o..o + PER_RANK as usize].copy_from_slice(&payload_for(r));
    }
    expect
}

/// Run the simulator over the standard workload and return its report.
fn run_sim(cfg: &TapiocaConfig) -> SimReport {
    run_sim_sized(cfg, PER_RANK)
}

/// Like [`run_sim`] but with `per` bytes per rank (link-degrade effects
/// only show on bandwidth-bound transfers, not 256 B latency-bound
/// ones).
fn run_sim_sized(cfg: &TapiocaConfig, per: u64) -> SimReport {
    let profile = theta_profile(4, 2);
    let spec = CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..NRANKS).collect(),
            decls: (0..NRANKS)
                .map(|r| vec![WriteDecl { offset: r as u64 * per, len: per }])
                .collect(),
        }],
        mode: AccessMode::Write,
    };
    let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
    run_tapioca_sim(&profile, &storage, &spec, cfg).unwrap()
}

/// Thread-mode trace of the standard workload under `cfg`.
fn thread_trace(name: &str, cfg: &TapiocaConfig) -> Trace {
    let tracer = Tracer::new(NRANKS);
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg.clone() };
    let (bytes, _) = run_thread(name, &cfg);
    assert_eq!(bytes, fault_free_bytes(), "{name}: file corrupted");
    tracer.drain()
}

#[test]
fn crash_recovery_is_byte_identical_across_rounds() {
    // Matrix axis 1: the crash round. Every within-budget recovery must
    // reproduce the fault-free file exactly, with one re-election.
    let expect = fault_free_bytes();
    for crash_round in 0..3u32 {
        let cfg = TapiocaConfig {
            faults: Some(
                FaultPlan::seeded(11)
                    .with(FaultSpec::AggregatorCrash { partition: 0, round: crash_round }),
            ),
            ..base_cfg()
        };
        let (bytes, results) = run_thread(&format!("crash-r{crash_round}"), &cfg);
        assert_eq!(bytes, expect, "crash at round {crash_round} corrupted the file");
        let total: IoStats = results.iter().fold(IoStats::default(), |mut acc, (o, s)| {
            assert_eq!(*o, WriteOutcome::Flushed, "recovery must not degrade");
            acc.merge(s);
            acc
        });
        assert_eq!(total.reelections, 1, "crash at round {crash_round}");
        assert_eq!(total.degraded, 0);
        assert!(total.faults_injected >= 1);
    }
}

#[test]
fn transient_faults_within_budget_retry_to_identical_bytes() {
    // Matrix axis 2: the retry budget. Flaky flushes that stay within
    // budget must retry to success with no behavioural difference.
    let expect = fault_free_bytes();
    for (probability, budget) in [(0.3, 8u32), (0.6, 24u32)] {
        let cfg = TapiocaConfig {
            faults: Some(
                FaultPlan::seeded(7).with(FaultSpec::TransientFlushError { probability }),
            ),
            io_policy: fast_policy(budget),
            ..base_cfg()
        };
        let name = format!("flaky-{budget}");
        let (bytes, results) = run_thread(&name, &cfg);
        assert_eq!(bytes, expect, "{name}: flaky flushes corrupted the file");
        let total: IoStats = results.iter().fold(IoStats::default(), |mut acc, (o, s)| {
            assert_eq!(*o, WriteOutcome::Flushed);
            acc.merge(s);
            acc
        });
        assert!(total.retries > 0, "{name}: seeded plan injected no retries");
        assert_eq!(total.retries, total.faults_injected);
    }
}

/// Threads of this process named like the file's I/O worker.
fn io_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "tapioca-io")
        .count()
}

/// A transient flush fault within budget is retried by the aggregator
/// itself: no I/O worker thread exists while the files are open, each
/// `Retry` and the flush that resolves it sit on the aggregator's lane
/// with the flush before that aggregator's next wait, the counters
/// match the events, and the file equals the fault-free one.
#[test]
fn transient_flush_fault_is_retried_on_the_aggregators_thread() {
    let tracer = Tracer::new(NRANKS);
    let cfg = TapiocaConfig {
        faults: Some(FaultPlan::seeded(7).with(FaultSpec::TransientFlushError { probability: 0.5 })),
        io_policy: fast_policy(24),
        tracer: Some(Arc::clone(&tracer)),
        ..base_cfg()
    };
    let path = tmp("aggregator-retries");
    let per_rank = Runtime::run(NRANKS, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank();
        let mut io = Session::builder(&comm, file)
            .declarations(decls_for(r))
            .config(cfg.clone())
            .build()
            .unwrap();
        assert_eq!(io.write(r as u64 * PER_RANK, &payload_for(r)).unwrap(), WriteOutcome::Flushed);
        let workers = io_workers();
        let stats = *io.stats().expect("pipeline ran");
        io.finalize();
        (workers, stats)
    });
    assert_eq!(std::fs::read(&path).unwrap(), fault_free_bytes());
    std::fs::remove_file(&path).ok();
    let mut total = IoStats::default();
    for (workers, stats) in &per_rank {
        assert_eq!(*workers, 0, "a flush went to an I/O worker");
        total.merge(stats);
    }
    let trace = tracer.drain();
    let events = trace.events();
    let retries: Vec<_> = events.iter().filter(|e| e.op == TraceOp::Retry).collect();
    assert!(!retries.is_empty(), "the seeded plan injected no fault");
    assert_eq!(total.retries, retries.len() as u64);
    for retry in retries {
        let lane: Vec<_> = events.iter().filter(|e| e.rank == retry.rank).collect();
        let same = |e: &&TraceEvent| (e.partition, e.round) == (retry.partition, retry.round);
        let flush = lane
            .iter()
            .position(|e| e.op == TraceOp::Flush && same(e) && e.offset == retry.offset)
            .expect("the retried segment is flushed on the aggregator's lane");
        let next_wait = lane.iter().position(|e| {
            e.op == TraceOp::Wait && e.partition == retry.partition && e.round == retry.round + 1
        });
        assert!(next_wait.is_none_or(|w| flush < w), "round {} written late", retry.round);
    }
    assert!(check(&trace).is_empty());
}

/// Rounds of `trace` flushed with no put: the rounds an aggregator
/// filled alone and wrote in place, as `(partition, round, aggregator)`.
fn in_place_rounds(trace: &Trace) -> Vec<(u32, u32, usize)> {
    let events = trace.events();
    let put = |p, r| {
        events.iter().any(|e| e.op == TraceOp::RmaPut && (e.partition, e.round) == (p, r))
    };
    let mut rounds: Vec<_> = events
        .iter()
        .filter(|e| e.op == TraceOp::Flush && !put(e.partition, e.round))
        .map(|e| (e.partition, e.round, e.rank))
        .collect();
    rounds.sort_unstable();
    rounds.dedup();
    rounds
}

/// Every round of the standard workload has one contributor, so each
/// aggregator fills its own round alone and writes it from the caller's
/// bytes. A transient fault on that write is retried like any other:
/// the `Retry` events and counters match, and the file equals the
/// fault-free one.
#[test]
fn transient_fault_on_an_in_place_round_is_retried() {
    let tracer = Tracer::new(NRANKS);
    let flaky = FaultSpec::TransientFlushError { probability: 0.5 };
    let cfg = TapiocaConfig {
        faults: Some(FaultPlan::seeded(7).with(flaky)),
        io_policy: fast_policy(24),
        tracer: Some(Arc::clone(&tracer)),
        ..base_cfg()
    };
    let (bytes, results) = run_thread("in-place-retries", &cfg);
    assert_eq!(bytes, fault_free_bytes());
    let mut total = IoStats::default();
    results.iter().for_each(|(_, s)| total.merge(s));
    assert_eq!(total.in_place_bytes, 2 * PER_RANK, "one round per aggregator is in place");
    assert_eq!(total.put_bytes + total.in_place_bytes, NRANKS as u64 * PER_RANK);
    let trace = tracer.drain();
    let in_place = in_place_rounds(&trace);
    assert_eq!(in_place.len(), 2, "{in_place:?}");
    let retries: Vec<_> = trace.events().iter().filter(|e| e.op == TraceOp::Retry).collect();
    assert_eq!(total.retries, retries.len() as u64);
    assert_eq!(total.retries, total.faults_injected);
    let retried = |&(p, r, agg): &(u32, u32, usize)| {
        retries.iter().any(|e| (e.partition, e.round, e.rank) == (p, r, agg))
    };
    assert!(in_place.iter().any(retried), "the seeded plan faulted no in-place round");
    let v = check(&trace);
    assert!(v.is_empty(), "{v:?}");
}

/// A crash at the round the aggregator fills alone: that round is never
/// in place. Its fill is lost with the crashed window, the old
/// aggregator replays its put into the standby's, and the standby
/// writes it from there — byte-identical, and checker-clean.
#[test]
fn crash_at_a_round_the_aggregator_fills_alone_replays_through_the_standby() {
    let clean = thread_trace("in-place-crash-ref", &base_cfg());
    let (_, round, old) = in_place_rounds(&clean)
        .into_iter()
        .find(|&(p, _, _)| p == 0)
        .expect("partition 0 has an in-place round");
    let tracer = Tracer::new(NRANKS);
    let crash = FaultSpec::AggregatorCrash { partition: 0, round };
    let cfg = TapiocaConfig {
        faults: Some(FaultPlan::seeded(11).with(crash)),
        tracer: Some(Arc::clone(&tracer)),
        ..base_cfg()
    };
    let (bytes, results) = run_thread("in-place-crash", &cfg);
    assert_eq!(bytes, fault_free_bytes(), "crash at in-place round {round} corrupted the file");
    let mut total = IoStats::default();
    results.iter().for_each(|(_, s)| total.merge(s));
    assert_eq!(total.reelections, 1);
    let trace = tracer.drain();
    let events = trace.events();
    let standby = events
        .iter()
        .find(|e| e.op == TraceOp::Reelect && e.partition == 0)
        .expect("the crash re-elects")
        .peer;
    assert_ne!(standby, old);
    let at = |e: &&TraceEvent| (e.partition, e.round) == (0, round);
    let replayed = events
        .iter()
        .filter(at)
        .any(|e| e.op == TraceOp::RmaPut && (e.rank, e.peer) == (old, standby));
    assert!(replayed, "the old aggregator replays round {round} into the standby's window");
    assert!(events.iter().filter(at).any(|e| e.op == TraceOp::Flush && e.rank == standby));
    assert!(!in_place_rounds(&trace).iter().any(|&(p, r, _)| (p, r) == (0, round)));
    let v = check(&trace);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn crash_and_flaky_compose() {
    // Both fault kinds in one plan, crash in each partition.
    let cfg = TapiocaConfig {
        faults: Some(
            FaultPlan::seeded(3)
                .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
                .with(FaultSpec::AggregatorCrash { partition: 1, round: 2 })
                .with(FaultSpec::TransientFlushError { probability: 0.4 }),
        ),
        io_policy: fast_policy(16),
        ..base_cfg()
    };
    let (bytes, results) = run_thread("compose", &cfg);
    assert_eq!(bytes, fault_free_bytes());
    let total: IoStats = results.iter().fold(IoStats::default(), |mut acc, (_, s)| {
        acc.merge(s);
        acc
    });
    assert_eq!(total.reelections, 2);
}

#[test]
fn exhausted_budget_degrades_without_deadlock() {
    // A stalled round exhausts any budget: the affected partition must
    // fall back to direct writes (Degraded outcome), the others stay
    // Flushed, and the file is still byte-identical. Completing at all
    // is the no-deadlock assertion.
    let cfg = TapiocaConfig {
        faults: Some(FaultPlan::seeded(5).with(FaultSpec::FlushStall { partition: 0, round: 1 })),
        io_policy: fast_policy(2),
        ..base_cfg()
    };
    let (bytes, results) = run_thread("degrade", &cfg);
    assert_eq!(bytes, fault_free_bytes(), "degraded fallback corrupted the file");
    let degraded = results.iter().filter(|(o, _)| *o == WriteOutcome::Degraded).count();
    let flushed = results.iter().filter(|(o, _)| *o == WriteOutcome::Flushed).count();
    assert_eq!(degraded, 4, "every member of the stalled partition degrades");
    assert_eq!(flushed, 4, "the healthy partition is unaffected");
}

/// Two write epochs to `file`, each expected to fail on this rank; the
/// second runs on the contexts the first one kept.
fn write_to_full_device(comm: tapioca_mpi::Comm, file: &std::path::Path, pipelining: bool) {
    // Rank 1's 1,280 bytes straddle the two 1 KiB partitions.
    let decls = [(0, 384), (384, 1280), (1664, 128), (1792, 256)];
    let r = comm.rank();
    let (offset, len) = decls[r];
    let cfg = TapiocaConfig { pipelining, io_policy: fast_policy(1), ..base_cfg() };
    let mut io = Session::builder(&comm, SharedFile::open_shared(&comm, file))
        .declarations(vec![WriteDecl { offset, len }])
        .config(cfg)
        .build()
        .unwrap();
    let straddler = &io.schedule().chunks_by_rank[1];
    assert!((0..2).all(|p| straddler.iter().any(|c| c.partition == p)), "rank 1 in both");
    for epoch in 0..2 {
        let err = io.write(offset, &vec![r as u8; len as usize]).unwrap_err();
        let at = format!("rank {r} epoch {epoch} pipelining {pipelining}");
        assert!(matches!(err, TapiocaError::Io { op: "write_at", .. }), "{at}: {err}");
    }
    io.finalize();
}

/// Every write to `/dev/full` fails. Every rank's epoch must end in
/// `TapiocaError::Io` from its last `write`: an aggregator that returned
/// alone would leave the others in `Window::start` until the watchdog
/// fired, and the rank in both partitions must still join the second
/// after the first failed.
#[test]
fn failed_flush_reaches_every_rank_within_the_watchdog() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        eprintln!("skipped: no /dev/full");
        return;
    }
    for pipelining in [true, false] {
        Runtime::run_with_watchdog(4, Some(Duration::from_secs(10)), |comm| {
            write_to_full_device(comm, full, pipelining);
        });
        for seed in 0..4 {
            Runtime::run_perturbed(4, seed, |comm| write_to_full_device(comm, full, pipelining));
        }
    }
}

/// 4 ranks x 512 B to `/dev/full`, two aggregators, 256 B rounds: each
/// aggregator writes its own two rounds in place, from the caller's
/// bytes, and those writes fail too. Every rank's epoch must still end
/// in `TapiocaError::Io`, twice, within the watchdog.
fn in_place_to_full_device(comm: tapioca_mpi::Comm, file: &std::path::Path, pipelining: bool) {
    let r = comm.rank();
    let (offset, len) = (r as u64 * 512, 512);
    let cfg = TapiocaConfig { pipelining, io_policy: fast_policy(1), ..base_cfg() };
    let mut io = Session::builder(&comm, SharedFile::open_shared(&comm, file))
        .declarations(vec![WriteDecl { offset, len }])
        .config(cfg)
        .build()
        .unwrap();
    for epoch in 0..2 {
        let err = io.write(offset, &vec![r as u8; len as usize]).unwrap_err();
        let at = format!("rank {r} epoch {epoch} pipelining {pipelining}");
        assert!(matches!(err, TapiocaError::Io { op: "write_at", .. }), "{at}: {err}");
        let stats = io.stats().expect("the failed epoch still ran");
        if stats.elected > 0 {
            assert_eq!(stats.in_place_bytes, len, "{at}: its own rounds went in place");
        }
    }
    io.finalize();
}

#[test]
fn failed_in_place_write_reaches_every_rank_within_the_watchdog() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        eprintln!("skipped: no /dev/full");
        return;
    }
    for pipelining in [true, false] {
        Runtime::run_with_watchdog(4, Some(Duration::from_secs(10)), |comm| {
            in_place_to_full_device(comm, full, pipelining);
        });
        for seed in 0..4 {
            Runtime::run_perturbed(4, seed, |comm| in_place_to_full_device(comm, full, pipelining));
        }
    }
}

#[test]
fn recovery_thread_trace_passes_the_checker() {
    // Crash + flaky flushes: the recorded trace must satisfy every
    // protocol invariant, including the recovery-epoch and
    // retry-resolution rules the checker learned for this subsystem.
    let cfg = TapiocaConfig {
        faults: Some(
            FaultPlan::seeded(13)
                .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
                .with(FaultSpec::TransientFlushError { probability: 0.4 }),
        ),
        io_policy: fast_policy(16),
        ..base_cfg()
    };
    let trace = thread_trace("trace-clean", &cfg);
    let ops: Vec<TraceOp> = trace.events().iter().map(|e| e.op).collect();
    assert!(ops.contains(&TraceOp::Crash), "trace records the crash");
    assert!(ops.contains(&TraceOp::Reelect), "trace records the re-election");
    assert!(ops.contains(&TraceOp::Retry), "trace records worker retries");
    let v = check(&trace);
    assert!(v.is_empty(), "recovery trace has violations: {v:?}");
}

/// The aggregator posts every round whose buffer is free, but never one
/// past the crash round before the re-election: the dying window takes
/// no round beyond the one it loses, and every later round is posted
/// on the standby's lane after its `Reelect`.
#[test]
fn no_round_past_the_crash_is_posted_before_the_reelection() {
    const CRASH: u32 = 1;
    for pipelining in [true, false] {
        let name = format!("crash-posts-{pipelining}");
        let cfg = TapiocaConfig {
            faults: Some(
                FaultPlan::seeded(7).with(FaultSpec::AggregatorCrash { partition: 0, round: CRASH }),
            ),
            pipelining,
            ..base_cfg()
        };
        let trace = thread_trace(&name, &cfg);
        let v = check(&trace);
        assert!(v.is_empty(), "{name}: {v:?}");
        // Each rank's events keep their lane order in the trace.
        let mut reelected = [false; NRANKS];
        let mut late = 0;
        for e in trace.events().iter().filter(|e| e.partition == 0) {
            match e.op {
                TraceOp::Reelect => reelected[e.rank] = true,
                TraceOp::Post if e.round > CRASH => {
                    assert!(reelected[e.rank], "{name}: rank {} posted round {} early", e.rank, e.round);
                    late += 1;
                }
                _ => {}
            }
        }
        assert!(late > 0, "{name}: the standby posts the later rounds");
    }
}

#[test]
fn degraded_thread_trace_passes_the_checker() {
    let cfg = TapiocaConfig {
        faults: Some(FaultPlan::seeded(5).with(FaultSpec::FlushStall { partition: 1, round: 0 })),
        io_policy: fast_policy(2),
        ..base_cfg()
    };
    let trace = thread_trace("trace-degrade", &cfg);
    assert!(trace.events().iter().any(|e| e.op == TraceOp::Degrade));
    let v = check(&trace);
    assert!(v.is_empty(), "degraded trace has violations: {v:?}");
}

#[test]
fn tampered_recovery_trace_is_caught() {
    // Negative control: relabel one replayed put to a later round and
    // the recovery-epoch rule must object.
    let cfg = TapiocaConfig {
        faults: Some(
            FaultPlan::seeded(13).with(FaultSpec::AggregatorCrash { partition: 0, round: 1 }),
        ),
        ..base_cfg()
    };
    let trace = thread_trace("trace-tamper", &cfg);
    let mut events = trace.events().to_vec();
    let reelect = events
        .iter()
        .position(|e| e.op == TraceOp::Reelect)
        .expect("recovery trace has a re-election");
    // Match by partition, not by rank: whether the *new aggregator
    // itself* still has a put to replay depends on thread scheduling,
    // but the crashed round's replayed puts from the partition always
    // follow the re-election.
    let put = events[reelect..]
        .iter()
        .position(|e| e.op == TraceOp::RmaPut && e.partition == events[reelect].partition)
        .map(|i| i + reelect)
        .expect("a replayed put follows the re-election");
    events[put].round += 1;
    let v = check(&Trace::from_events(events));
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::PutOutsideEpoch),
        "tampered replay went undetected: {v:?}"
    );
}

#[test]
fn sim_crash_recovery_is_counted_and_trace_clean() {
    let tracer = Tracer::new(NRANKS);
    let cfg = TapiocaConfig {
        faults: Some(
            FaultPlan::seeded(11).with(FaultSpec::AggregatorCrash { partition: 0, round: 1 }),
        ),
        tracer: Some(Arc::clone(&tracer)),
        ..base_cfg()
    };
    let report = run_sim(&cfg);
    assert_eq!(report.reelections, 1);
    assert!(report.faults_injected >= 1);
    assert_eq!(report.degraded, 0);
    let trace = tracer.drain();
    let ops: Vec<TraceOp> = trace.events().iter().map(|e| e.op).collect();
    assert!(ops.contains(&TraceOp::Crash) && ops.contains(&TraceOp::Reelect));
    let v = check(&trace);
    assert!(v.is_empty(), "sim recovery trace has violations: {v:?}");
}

#[test]
fn sim_and_thread_agree_on_injected_retries() {
    // The fault schedule is a pure function of (seed, partition, round,
    // segment), so both executors must charge the identical number of
    // within-budget retries for the same plan and workload.
    let cfg = TapiocaConfig {
        faults: Some(FaultPlan::seeded(7).with(FaultSpec::TransientFlushError { probability: 0.5 })),
        io_policy: fast_policy(16),
        ..base_cfg()
    };
    let (_, results) = run_thread("parity", &cfg);
    let thread_retries: u64 = results.iter().map(|(_, s)| s.retries).sum();
    let report = run_sim(&cfg);
    assert!(thread_retries > 0, "seeded plan injected no retries");
    assert_eq!(report.retries, thread_retries, "executors disagree on recovery cost");
}

#[test]
fn sim_degrade_and_slowdown_are_measurable() {
    // A stalled round degrades the partition in simulation too, and a
    // fabric-wide link degrade slows the clean run down.
    let stall = TapiocaConfig {
        faults: Some(FaultPlan::seeded(5).with(FaultSpec::FlushStall { partition: 0, round: 1 })),
        io_policy: fast_policy(2),
        ..base_cfg()
    };
    assert_eq!(run_sim(&stall).degraded, 1);

    let big = TapiocaConfig { buffer_size: 1 << 20, ..base_cfg() };
    let clean = run_sim_sized(&big, 4 << 20);
    let degraded_net = TapiocaConfig {
        faults: Some(FaultPlan::seeded(5).with(FaultSpec::LinkDegrade { factor: 0.25 })),
        ..big.clone()
    };
    let slow = run_sim_sized(&degraded_net, 4 << 20);
    assert!(
        slow.elapsed > clean.elapsed,
        "link degrade must cost time: {} vs {}",
        slow.elapsed,
        clean.elapsed
    );
}

#[test]
fn autotuned_config_composes_with_fault_injection() {
    // Autotune over the declared workload with a seeded fault plan in
    // the base config: the tuner must strip the plan while measuring
    // (clean sims), re-attach it to the winner, and the tuned config
    // must then ride out the faults like any hand-written one —
    // byte-identical file, Degraded-or-better outcomes, checker-clean
    // trace.
    let profile = theta_profile(4, 2);
    let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
    let spec = CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..NRANKS).collect(),
            decls: (0..NRANKS)
                .map(|r| vec![WriteDecl { offset: r as u64 * PER_RANK, len: PER_RANK }])
                .collect(),
        }],
        mode: AccessMode::Write,
    };
    let base = TapiocaConfig {
        faults: Some(
            FaultPlan::seeded(13)
                .with(FaultSpec::AggregatorCrash { partition: 0, round: 0 })
                .with(FaultSpec::TransientFlushError { probability: 0.4 }),
        ),
        io_policy: fast_policy(16),
        ..Default::default()
    };
    let out = tapioca::autotune::autotune_from(&profile, &storage, &spec, &base).unwrap();
    assert!(out.tuned_bandwidth >= out.rule_bandwidth);
    assert!(out.best.faults.is_some(), "tuned config must carry the fault plan");

    // Small buffers so the 8x256B workload still has multiple rounds of
    // structure under the tuned aggregator count.
    let cfg = TapiocaConfig { buffer_size: 256, ..out.best };
    let trace = thread_trace("autotune-faults", &cfg);
    let v = check(&trace);
    assert!(v.is_empty(), "tuned-config recovery trace has violations: {v:?}");

    let (bytes, results) = run_thread("autotune-faults-outcomes", &cfg);
    assert_eq!(bytes, fault_free_bytes(), "tuned config corrupted the file under faults");
    for (outcome, _) in &results {
        assert!(
            matches!(outcome, WriteOutcome::Flushed | WriteOutcome::Degraded),
            "worse than Degraded under a within-budget plan: {outcome:?}"
        );
    }
}

#[test]
fn single_member_partitions_ignore_crash_plans() {
    // A crash without a standby is meaningless; the plan is ignored
    // rather than deadlocking or panicking (documented in fault.rs).
    let cfg = TapiocaConfig {
        num_aggregators: NRANKS, // one member per partition
        buffer_size: 256,
        faults: Some(
            FaultPlan::seeded(1).with(FaultSpec::AggregatorCrash { partition: 0, round: 0 }),
        ),
        ..Default::default()
    };
    let (bytes, results) = run_thread("solo", &cfg);
    assert_eq!(bytes, fault_free_bytes());
    let total: IoStats = results.iter().fold(IoStats::default(), |mut acc, (_, s)| {
        acc.merge(s);
        acc
    });
    assert_eq!(total.reelections, 0, "no standby, no re-election");
}

/// Strided 2-D grid: 32 rows of 16 eight-byte cells over 2 x 4 ranks,
/// so each rank declares 16 rows of 32 B. Two aggregators with 512 B
/// buffers give two 4-member partitions of 4 rounds, and every
/// contributor owes each round 4 chunks, one per declaration.
fn strided_grid() -> GridDecomp {
    GridDecomp::new_2d(32, 16, 2, 4, 8)
}

/// The byte at file offset `at` in `epoch`.
fn grid_byte(at: u64, epoch: u64) -> u8 {
    (at * 7 + at / 13 + epoch * 101) as u8
}

/// A seeded permutation of `0..n`, one per rank.
fn shuffled(n: usize, rank: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ rank as u64;
    for i in (1..n).rev() {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        order.swap(i, (x >> 33) as usize % (i + 1));
    }
    order
}

#[test]
fn staged_chunks_survive_crash_replay_and_degrade() {
    // Shuffled strided writes stage most chunks before their round
    // runs. Partition 0's aggregator crashes in round 1, so the replay
    // re-puts staged bytes into the new window; partition 1 stalls in
    // round 1 and degrades, so its later chunks go to the file straight
    // from the staging arena. Two epochs on one session, each traced on
    // its own.
    const EPOCHS: u64 = 2;
    let grid = strided_grid();
    assert_eq!(grid.num_ranks(), NRANKS);
    let tracer = Tracer::new(NRANKS);
    let cfg = TapiocaConfig {
        num_aggregators: 2,
        buffer_size: 512,
        faults: Some(
            FaultPlan::seeded(3)
                .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 })
                .with(FaultSpec::FlushStall { partition: 1, round: 1 }),
        ),
        io_policy: fast_policy(2),
        tracer: Some(Arc::clone(&tracer)),
        ..Default::default()
    };
    let path = tmp("staged-faults");
    let traces = Arc::new(Mutex::new(Vec::new()));
    let results = Arc::new(Mutex::new(Vec::new()));
    let (path2, traces2, results2) = (path.clone(), Arc::clone(&traces), Arc::clone(&results));
    Runtime::run(NRANKS, move |comm| {
        let r = comm.rank();
        let decls = grid.decls_of_rank(r);
        let mut io = Session::builder(&comm, SharedFile::open_shared(&comm, &path2))
            .declarations(decls.clone())
            .config(cfg.clone())
            .build()
            .unwrap();
        let mine = &io.schedule().chunks_by_rank[r];
        let in_round = |c: &Chunk| {
            mine.iter().filter(|o| (o.partition, o.round) == (c.partition, c.round)).count()
        };
        assert!(mine.iter().all(|c| in_round(c) == 4), "rank {r}: 4 chunks per round");
        let order = shuffled(decls.len(), r);
        for epoch in 0..EPOCHS {
            let mut outcome = None;
            for &v in &order {
                let d = decls[v];
                let data: Vec<u8> =
                    (d.offset..d.offset + d.len).map(|at| grid_byte(at, epoch)).collect();
                outcome = Some(io.write(d.offset, &data).unwrap());
            }
            let stats = *io.stats().unwrap();
            results2.lock().unwrap().push((r, epoch, outcome.unwrap(), stats));
            comm.barrier();
            if r == 0 {
                traces2.lock().unwrap().push(tracer.drain());
            }
            comm.barrier();
        }
        io.finalize();
    });
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let image: Vec<u8> =
        (0..strided_grid().total_bytes()).map(|at| grid_byte(at, EPOCHS - 1)).collect();
    assert!(bytes == image, "file differs from the last epoch's payload image");

    let results = results.lock().unwrap();
    let staged = |r: usize, e: u64| {
        results.iter().find(|x| x.0 == r && x.1 == e).map(|x| x.3.staging_copy_bytes).unwrap()
    };
    for r in 0..NRANKS {
        assert_eq!(staged(r, 0), staged(r, 1), "rank {r}: staged bytes differ between epochs");
    }
    assert!((0..NRANKS).map(|r| staged(r, 0)).sum::<u64>() > 0, "nothing was staged");
    for &(r, epoch, outcome, stats) in results.iter() {
        let want = if r < NRANKS / 2 { WriteOutcome::Flushed } else { WriteOutcome::Degraded };
        assert_eq!(outcome, want, "rank {r} epoch {epoch}");
        assert_eq!(stats.reelections, u64::from(r == 0), "rank {r} epoch {epoch}");
    }

    let traces = traces.lock().unwrap();
    assert_eq!(traces.len(), EPOCHS as usize);
    for (epoch, trace) in traces.iter().enumerate() {
        let ops: Vec<TraceOp> = trace.events().iter().map(|e| e.op).collect();
        assert!(ops.contains(&TraceOp::Reelect), "epoch {epoch}: no re-election traced");
        assert!(ops.contains(&TraceOp::Degrade), "epoch {epoch}: no degrade traced");
        let v = check(trace);
        assert!(v.is_empty(), "epoch {epoch}: trace has violations: {v:?}");
    }
}
