//! End-to-end protocol checking: run the real pipeline (both executors,
//! perturbed and not), then verify the recorded trace satisfies every
//! ordering invariant — and that a tampered trace does not.

use std::sync::Arc;

use tapioca::prelude::*;
use tapioca::sim_exec::{run_tapioca_sim, CollectiveSpec, GroupSpec, StorageConfig};
use tapioca::{FaultPlan, FaultSpec};
use tapioca_check::{check, parse_jsonl, ViolationKind};
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_pfs::{AccessMode, LustreTunables};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, TopologyProvider};
use tapioca_trace::{Trace, TraceEvent, TraceOp, Tracer};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-protocol-check");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn thread_trace(
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
        let mine = decls[comm.rank()].clone();
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(cfg.clone())
            .topology(machine.clone())
            .build()
            .unwrap();
        for d in &mine {
            io.write(d.offset, &vec![0x5Au8; d.len as usize]).unwrap();
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

fn sim_trace(profile: &MachineProfile, decls: &[Vec<WriteDecl>], cfg: &TapiocaConfig) -> Trace {
    let tracer = Tracer::new(profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg.clone() };
    let spec = CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..decls.len()).collect(), decls: decls.to_vec() }],
        mode: AccessMode::Write,
    };
    let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
    run_tapioca_sim(profile, &storage, &spec, &cfg).unwrap();
    tracer.drain()
}

#[test]
fn thread_pipeline_trace_is_protocol_clean() {
    let profile = theta_profile(8, 2);
    let w = HaccIo { num_ranks: 16, particles_per_rank: 100, layout: Layout::StructOfArrays };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 2048, ..Default::default() };
    let trace = thread_trace("thread-clean", &profile, &w.decls(), &cfg, None);
    let s = trace.summary();
    assert!(s.signals > 0 && s.signals == s.waits, "expected a synchronised trace: {s:?}");
    let v = check(&trace);
    assert!(v.is_empty(), "thread trace has violations: {v:?}");
}

#[test]
fn sim_pipeline_trace_is_protocol_clean() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    let trace = sim_trace(&profile, &w.decls(), &cfg);
    assert!(!trace.is_empty());
    let v = check(&trace);
    assert!(v.is_empty(), "sim trace has violations: {v:?}");
}

#[test]
fn unpipelined_thread_trace_is_protocol_clean() {
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 2000 };
    let cfg = TapiocaConfig {
        num_aggregators: 2,
        buffer_size: 512,
        pipelining: false,
        ..Default::default()
    };
    let v = check(&thread_trace("thread-nopipe", &profile, &w.decls(), &cfg, None));
    assert!(v.is_empty(), "unpipelined trace has violations: {v:?}");
}

#[test]
fn perturbed_interleavings_stay_protocol_clean() {
    // The loom-lite harness: same program, different seeded schedules;
    // the invariants must hold on every interleaving.
    let profile = theta_profile(8, 2);
    let w = IorSpec { num_ranks: 16, bytes_per_rank: 4096 };
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    for seed in 1..=4u64 {
        let name = format!("perturbed-{seed}");
        let v = check(&thread_trace(&name, &profile, &w.decls(), &cfg, Some(seed)));
        assert!(v.is_empty(), "seed {seed} produced violations: {v:?}");
    }
}

/// Reads run on the window the write epochs keep, with its trace scope
/// detached: a traced session that reads before, between and after its
/// write epochs records exactly the write epochs. Drained at every
/// epoch boundary (rank 0, between barriers), each trace is as long as
/// a read-free epoch's and checker-clean.
#[test]
fn reads_around_traced_write_epochs_leave_the_trace_clean() {
    let profile = theta_profile(8, 2);
    let decls = IorSpec { num_ranks: 16, bytes_per_rank: 4096 }.decls();
    let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
    let read_free = thread_trace("interleaved-ref", &profile, &decls, &cfg, None);

    let tracer = Tracer::new(profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..cfg };
    let machine = Arc::new(profile.machine.clone());
    let path = tmp("interleaved");
    for seed in 0..8 {
        let epochs = std::sync::Mutex::new(Vec::new());
        Runtime::run_perturbed(decls.len(), seed, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let d = decls[comm.rank()][0];
            if comm.rank() == 0 {
                file.write_at(0, &vec![0u8; 16 * 4096]).unwrap();
            }
            comm.barrier();
            let mut io = Session::builder(&comm, file)
                .declarations(vec![d])
                .config(cfg.clone())
                .topology(machine.clone())
                .build()
                .unwrap();
            assert_eq!(io.read_declared().unwrap()[0], vec![0u8; d.len as usize]);
            for epoch in 0..3u8 {
                let data = vec![epoch + 1; d.len as usize];
                io.write(d.offset, &data).unwrap();
                assert_eq!(io.read_declared().unwrap()[0], data);
                comm.barrier();
                if comm.rank() == 0 {
                    epochs.lock().unwrap().push(tracer.drain());
                }
                comm.barrier();
            }
            io.finalize();
        });
        for (epoch, trace) in epochs.into_inner().unwrap().iter().enumerate() {
            assert_eq!(trace.len(), read_free.len(), "seed {seed} epoch {epoch}: reads traced");
            let v = check(trace);
            assert!(v.is_empty(), "seed {seed} epoch {epoch}: violations: {v:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A genuine thread trace of a small IOR run, as raw events.
fn genuine_events(name: &str) -> Vec<TraceEvent> {
    let profile = theta_profile(4, 2);
    let w = IorSpec { num_ranks: 8, bytes_per_rank: 1024 };
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 512, ..Default::default() };
    let trace = thread_trace(name, &profile, &w.decls(), &cfg, None);
    assert!(check(&trace).is_empty(), "the untampered trace is clean");
    trace.events().to_vec()
}

fn violations(events: Vec<TraceEvent>) -> Vec<tapioca_check::Violation> {
    check(&Trace::from_events(events))
}

/// The first put a member made into another member's window. Every
/// round of [`genuine_events`] has one contributor, and the rounds the
/// aggregator fills alone run in place, without a put, so the tampering
/// tests pick a round filled by someone else.
fn foreign_put(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .position(|e| e.op == TraceOp::RmaPut && e.rank != e.peer)
        .expect("a member put into the aggregator's window")
}

#[test]
fn tampered_trace_is_caught() {
    // Take a genuine thread trace, violate the bracket discipline by
    // relabelling one put's round, and expect the checker to object.
    let mut events = genuine_events("tampered");
    let put = foreign_put(&events);
    events[put].round += 1;
    let v = violations(events);
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::PutOutsideEpoch),
        "tampering went undetected: {v:?}"
    );
}

#[test]
fn put_moved_before_its_start_is_caught() {
    let mut events = genuine_events("tamper-early-put");
    let put = foreign_put(&events);
    let (rank, partition, round) = (events[put].rank, events[put].partition, events[put].round);
    let start = events
        .iter()
        .position(|e| {
            e.op == TraceOp::Start && (e.rank, e.partition, e.round) == (rank, partition, round)
        })
        .expect("the put's rank started its round");
    // The put now sits just before the start that should admit it.
    events[put].t_ns = events[start].t_ns - 1;
    let v = violations(events);
    assert!(
        v.iter().any(|v| {
            v.kind == ViolationKind::PutOutsideEpoch && v.message.contains(&format!("rank {rank} "))
        }),
        "early put went undetected: {v:?}"
    );
}

#[test]
fn dropped_complete_is_caught_with_a_witness_naming_the_rank() {
    let mut events = genuine_events("tamper-no-complete");
    let i = events
        .iter()
        .position(|e| e.op == TraceOp::Complete && e.rank != e.peer)
        .expect("a non-aggregator contributor completed");
    let dropped = events.remove(i);
    let v = violations(events);
    assert!(v.iter().any(|v| v.kind == ViolationKind::CollectiveOrderMismatch), "{v:?}");
    let witness = v
        .iter()
        .find(|v| v.kind == ViolationKind::CollectiveCycle)
        .unwrap_or_else(|| panic!("no deadlock witness: {v:?}"));
    let culprit = format!("waiting for rank {}'s complete", dropped.rank);
    assert!(witness.message.contains(&culprit), "{}", witness.message);
    assert!(
        witness.message.contains(&format!("rank {} blocks at its wait", dropped.peer)),
        "{}",
        witness.message
    );
}

#[test]
fn refill_recorded_before_the_post_that_follows_the_flush_is_caught() {
    // The aggregator re-exposes a slot (post of round r + 2) before the
    // flush of round r — which last used the slot — has drained. Both
    // rounds are filled by members other than the aggregator, so both
    // use the slot.
    let mut events = genuine_events("tamper-early-post");
    let filled = |p: u32, r: u32| {
        events.iter().any(|e| e.op == TraceOp::RmaPut && (e.partition, e.round) == (p, r))
    };
    let flush = events
        .iter()
        .position(|e| {
            e.op == TraceOp::Flush
                && filled(e.partition, e.round)
                && filled(e.partition, e.round + 2)
        })
        .expect("a round and the round two later were filled through the window");
    let (agg, partition, r) = (events[flush].rank, events[flush].partition, events[flush].round);
    let repost = events
        .iter()
        .position(|e| {
            e.op == TraceOp::Post && (e.rank, e.partition, e.round) == (agg, partition, r + 2)
        })
        .expect("the aggregator posted the round two later");
    // Record the flush completion just after that post.
    events[flush].t_ns = events[repost].t_ns + 1;
    let v = violations(events);
    let refilled = format!("for round {}", r + 2);
    assert!(
        v.iter().any(|v| {
            v.kind == ViolationKind::RefillBeforeFlush && v.message.contains(&refilled)
        }),
        "early re-exposure went undetected: {v:?}"
    );
}

#[test]
fn jsonl_roundtrip_preserves_the_verdict() {
    // Dump a real trace to JSONL (the checksim transport) and re-check
    // the parsed copy: serialization must not lose checker-relevant
    // metadata.
    let profile = theta_profile(4, 2);
    let w = IorSpec { num_ranks: 8, bytes_per_rank: 1024 };
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 512, ..Default::default() };
    let trace = thread_trace("jsonl-roundtrip", &profile, &w.decls(), &cfg, None);
    for op in [TraceOp::Post, TraceOp::Start, TraceOp::Complete, TraceOp::Wait] {
        assert!(trace.events().iter().any(|e| e.op == op), "trace carries {op:?} events");
    }
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf).unwrap();
    let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
    assert_eq!(parsed, trace);
    assert!(check(&parsed).is_empty());
}

/// Recognisable payload: a function of (rank, var, byte index).
fn payload(rank: usize, var: usize, len: u64) -> Vec<u8> {
    (0..len).map(|i| (rank as u64 * 131 + var as u64 * 17 + i * 3) as u8).collect()
}

/// One write epoch of `decls` carrying [`payload`] through a streaming
/// session; returns the file and the ranks' merged stats.
fn payload_run(
    name: &str,
    profile: &MachineProfile,
    decls: &[Vec<WriteDecl>],
    cfg: &TapiocaConfig,
) -> (Vec<u8>, IoStats) {
    let path = tmp(name);
    let machine = Arc::new(profile.machine.clone());
    let per_rank = Runtime::run(decls.len(), |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank();
        let mut io = Session::builder(&comm, file)
            .declarations(decls[r].clone())
            .config(cfg.clone())
            .topology(machine.clone())
            .build()
            .unwrap();
        for (v, d) in decls[r].iter().enumerate() {
            io.write(d.offset, &payload(r, v, d.len)).unwrap();
        }
        let stats = *io.stats().unwrap();
        io.finalize();
        stats
    });
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut total = IoStats::default();
    per_rank.iter().for_each(|s| total.merge(s));
    (bytes, total)
}

const KIB: u64 = 1024;

/// 16 ranks, 9 SoA variables of 8 KiB each: rank `r`'s variable `v`
/// lies at `(v * 16 + r) * 8 KiB`.
fn hacc_rounds_decls() -> Vec<Vec<WriteDecl>> {
    (0..16u64)
        .map(|r| (0..9u64).map(|v| WriteDecl { offset: (v * 16 + r) * 8 * KIB, len: 8 * KIB }).collect())
        .collect()
}

/// The `thr-hacc-rounds` / `thr-hacc-coalesced` benchmark shape: 16
/// ranks on one Mira node, 9 SoA variables of 8 KiB each, 2 aggregators,
/// 32 KiB buffers. Both partitions have all 16 ranks as members and 18
/// rounds, but a round holds the chunks of only 4 ranks — the other 12
/// take no part in it and run ahead. Under Algorithm 3's fences every
/// member synchronised twice per round: 16 x 36 x 2 = 1,152 calls.
/// `TapiocaConfig::coalescing` is ignored, so both of its values give
/// the same calls, puts and file.
#[test]
fn hacc_rounds_shape_pins_the_synchronisation_calls() {
    let profile = mira_profile(128, 16);
    let decls = hacc_rounds_decls();
    let mut image = vec![0u8; 16 * 9 * 8 * KIB as usize];
    for (r, mine) in decls.iter().enumerate() {
        for (v, d) in mine.iter().enumerate() {
            image[d.offset as usize..][..d.len as usize].copy_from_slice(&payload(r, v, d.len));
        }
    }
    // Per round: 4 contributors start and complete, the aggregator
    // posts and waits = 10 calls. A crash replays one round: 10 more
    // calls and its 4 puts again.
    for (coalescing, crash, pinned, puts) in [
        (false, false, 360, 144),
        (true, false, 360, 144),
        (false, true, 370, 148),
        (true, true, 370, 148),
    ] {
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
        for run in 0..2 {
            let name = format!("{name}-{run}");
            let (bytes, t) = payload_run(&name, &profile, &decls, &cfg);
            assert!(bytes == image, "{name}: file diverges from the payload image");
            assert_eq!(t.fences, pinned, "{name}: the count must repeat exactly");
            assert_eq!(t.puts, puts, "{name}");
            assert_eq!((t.coalesced_puts, t.coalesced_chunks), (0, 0), "{name}");
            assert_eq!(t.flushes, 36, "{name}");
            assert_eq!(t.reelections, u64::from(crash), "{name}");
        }
        assert!(pinned < 1152);
    }
}

/// The aggregator's lane of a traced run in which every round is ready
/// at once: 4 ranks declare 6 SoA variables of 256 B and issue them in
/// reverse, so nothing runs before the last `write`, which then drives
/// all 6 rounds (one variable each, all 4 ranks contributing) without
/// handing control back. One aggregator, 1 KiB buffers. Returns the
/// aggregator's events in lane order.
fn aggregator_lane(name: &str, pipelining: bool) -> Vec<TraceEvent> {
    const LEN: u64 = 256;
    let profile = theta_profile(4, 1);
    let decls: Vec<Vec<WriteDecl>> = (0..4u64)
        .map(|r| (0..6u64).map(|v| WriteDecl { offset: (v * 4 + r) * LEN, len: LEN }).collect())
        .collect();
    let tracer = Tracer::new(4);
    let cfg = TapiocaConfig {
        num_aggregators: 1,
        buffer_size: 4 * LEN,
        pipelining,
        tracer: Some(Arc::clone(&tracer)),
        ..Default::default()
    };
    let machine = Arc::new(profile.machine.clone());
    let path = tmp(name);
    Runtime::run(4, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let mine = decls[comm.rank()].clone();
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(cfg.clone())
            .topology(machine.clone())
            .build()
            .unwrap();
        for d in mine.iter().rev() {
            io.write(d.offset, &vec![0x5Au8; d.len as usize]).unwrap();
        }
        io.finalize();
    });
    std::fs::remove_file(&path).ok();
    let trace = tracer.drain();
    assert!(check(&trace).is_empty(), "{name}: violations");
    let agg = trace.events().iter().find(|e| e.op == TraceOp::Post).expect("a post").rank;
    trace.events().iter().filter(|e| e.rank == agg).copied().collect()
}

/// Where the aggregator wrote round `r`, and where it made its call
/// `op` of round `r` (its put, for `RmaPut`).
fn lane_at(lane: &[TraceEvent], op: TraceOp, r: u32) -> Option<usize> {
    lane.iter().position(|e| e.op == op && e.round == r)
}

/// The aggregator writes each round on its own thread, in its own lane
/// order. Pipelined, it puts into round `r + 1` first, then writes
/// round `r`, then waits for round `r + 1` and re-posts round `r`'s
/// buffer as round `r + 2`. Unpipelined, it writes round `r` before it
/// posts that buffer again as round `r + 1`.
#[test]
fn aggregator_lane_orders_its_put_write_and_wait() {
    let lane = aggregator_lane("lane-pipelined", true);
    let at = |op, r| lane_at(&lane, op, r).unwrap_or_else(|| panic!("no {op:?} of round {r}"));
    for r in 0..6u32 {
        let flush = at(TraceOp::Flush, r);
        assert!(at(TraceOp::Wait, r) < flush, "round {r} written before its wait");
        if r + 1 < 6 {
            assert!(at(TraceOp::RmaPut, r + 1) < flush, "round {r} written before the next put");
            assert!(flush < at(TraceOp::Wait, r + 1), "round {r} written after the next wait");
        }
        if r + 2 < 6 {
            assert!(flush < at(TraceOp::Post, r + 2), "round {r}'s buffer re-posted unwritten");
        }
    }
    let lane = aggregator_lane("lane-unpipelined", false);
    let at = |op, r| lane_at(&lane, op, r).unwrap_or_else(|| panic!("no {op:?} of round {r}"));
    for r in 0..5u32 {
        assert!(at(TraceOp::Flush, r) < at(TraceOp::Post, r + 1), "round {r} re-posted unwritten");
    }
}

/// On the `thr-hacc-rounds` shape no round is in place, so pipelined,
/// both buffers are open at once: on each aggregator's lane round `r`
/// is written, then round `r + 2` is posted into its buffer, and only
/// then does the aggregator wait for round `r + 1`; and the contributors
/// of round `r + 1` put while round `r` is still open. Unpipelined, the
/// one buffer is written before it is posted again.
#[test]
fn hacc_rounds_shape_fills_two_rounds_at_once() {
    let profile = mira_profile(128, 16);
    let decls = hacc_rounds_decls();
    for pipelining in [true, false] {
        let name = format!("hacc-two-open-{pipelining}");
        let cfg =
            TapiocaConfig { num_aggregators: 2, buffer_size: 32 * KIB, pipelining, ..Default::default() };
        let trace = thread_trace(&name, &profile, &decls, &cfg, None);
        let v = check(&trace);
        assert!(v.is_empty(), "{name}: violations: {v:?}");
        let events = trace.events();
        let mut overlapped = false;
        for (agg, p) in events.iter().filter(|e| e.op == TraceOp::Elect).map(|e| (e.peer, e.partition))
        {
            let lane: Vec<TraceEvent> =
                events.iter().filter(|e| (e.rank, e.partition) == (agg, p)).copied().collect();
            let at = |op, r| {
                lane_at(&lane, op, r).unwrap_or_else(|| panic!("{name}: no {op:?} of round {r}"))
            };
            let written = |r| {
                lane.iter()
                    .rposition(|e| e.op == TraceOp::Flush && e.round == r)
                    .unwrap_or_else(|| panic!("{name}: round {r} not written"))
            };
            assert_eq!(lane.iter().filter(|e| e.op == TraceOp::Wait).count(), 18, "{name}");
            for r in 0..17u32 {
                let closed = lane[at(TraceOp::Wait, r)].t_ns;
                overlapped |= events.iter().any(|e| {
                    e.op == TraceOp::RmaPut && (e.partition, e.round) == (p, r + 1) && e.t_ns < closed
                });
                if !pipelining {
                    assert!(written(r) < at(TraceOp::Post, r + 1), "{name}: round {r} re-posted");
                } else if r + 2 < 18 {
                    let chain = [written(r), at(TraceOp::Post, r + 2), at(TraceOp::Wait, r + 1)];
                    assert!(chain.is_sorted(), "{name}: partition {p} round {r}: {chain:?}");
                }
            }
        }
        assert_eq!(overlapped, pipelining, "{name}: whether a put of round r + 1 preceded wait r");
    }
}

/// IOR with one contributor per round, one aggregator: it fills its own
/// two rounds alone, so they run in place. On its lane each keeps the
/// whole skeleton — post, start, complete, wait — and the write follows
/// the wait: pipelined, the next round was posted before that wait (an
/// in-place round holds no buffer), and the write comes before the
/// next wait; unpipelined, the write comes before it posts the next
/// round. No lane records a put of an in-place round; the other six
/// rounds still put.
#[test]
fn in_place_rounds_keep_their_skeleton_and_put_nothing() {
    let profile = theta_profile(4, 1);
    let decls = IorSpec { num_ranks: 4, bytes_per_rank: 1024 }.decls();
    for pipelining in [true, false] {
        let cfg = TapiocaConfig {
            num_aggregators: 1,
            buffer_size: 512,
            pipelining,
            ..Default::default()
        };
        let name = format!("in-place-{pipelining}");
        let trace = thread_trace(&name, &profile, &decls, &cfg, None);
        let v = check(&trace);
        assert!(v.is_empty(), "{name}: violations: {v:?}");
        let events = trace.events();
        let agg = events.iter().find(|e| e.op == TraceOp::Post).expect("a post").rank;
        let lane: Vec<TraceEvent> = events.iter().filter(|e| e.rank == agg).copied().collect();
        let at = |op, r| {
            lane_at(&lane, op, r).unwrap_or_else(|| panic!("{name}: no {op:?} of round {r}"))
        };
        let own: Vec<u32> =
            lane.iter().filter(|e| e.op == TraceOp::Start).map(|e| e.round).collect();
        assert_eq!(own.len(), 2, "{name}: the aggregator fills two rounds");
        let puts = events.iter().filter(|e| e.op == TraceOp::RmaPut);
        assert_eq!(puts.clone().count(), 6, "{name}: the other members' rounds still put");
        for r in own {
            assert!(puts.clone().all(|e| e.round != r), "{name}: round {r} is in place, yet put");
            let last = r == 7;
            if pipelining {
                let chain = [
                    at(TraceOp::Post, r),
                    at(TraceOp::Start, r),
                    at(TraceOp::Complete, r),
                    at(TraceOp::Wait, r),
                    at(TraceOp::Flush, r),
                ];
                assert!(chain.is_sorted(), "{name}: round {r} out of order: {chain:?}");
                if !last {
                    let next = [at(TraceOp::Post, r + 1), at(TraceOp::Wait, r)];
                    assert!(next.is_sorted(), "{name}: round {} posted late: {next:?}", r + 1);
                    let next = [at(TraceOp::Flush, r), at(TraceOp::Wait, r + 1)];
                    assert!(next.is_sorted(), "{name}: round {r} written late: {next:?}");
                }
            } else {
                assert!(at(TraceOp::Wait, r) < at(TraceOp::Flush, r), "{name}: round {r}");
                if !last {
                    let (flush, next) = (at(TraceOp::Flush, r), at(TraceOp::Post, r + 1));
                    assert!(flush < next, "{name}: round {r} re-posted unwritten");
                }
            }
        }
    }
}
