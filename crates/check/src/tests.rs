//! Hand-crafted traces that each break exactly one pipeline invariant,
//! plus clean traces that must pass.

use tapioca_trace::{Phase, Trace, TraceEvent, TraceOp, NO_OFFSET, NO_PEER};

use crate::{check, ViolationKind};

fn ev(t: u64, rank: usize, round: u32, op: TraceOp, bytes: u64, offset: u64) -> TraceEvent {
    let phase = match op {
        TraceOp::RmaPut | TraceOp::Elect => Phase::Aggregation,
        TraceOp::Flush | TraceOp::Retry => Phase::Io,
        _ => Phase::Sync,
    };
    TraceEvent {
        t_ns: t,
        rank,
        partition: 0,
        round,
        phase,
        op,
        bytes,
        offset,
        // Rank 0 is the aggregator of every hand-written trace here.
        peer: if matches!(op, TraceOp::RmaPut | TraceOp::Start | TraceOp::Complete) {
            0
        } else {
            NO_PEER
        },
    }
}

fn sync(t: u64, rank: usize, round: u32, op: TraceOp) -> TraceEvent {
    ev(t, rank, round, op, 0, NO_OFFSET)
}

/// A correct 3-rank, 2-round pipeline on partition 0: rank 0 is the
/// aggregator (buffer 64 B, double-buffered window of 128 B) and, with
/// rank 1, a contributor of both rounds; rank 2 is a member that owns
/// no chunk of either round and so records nothing at all. Each round:
/// the contributors start, put and complete; the aggregator waits,
/// flushes, and posts the next round.
fn good_events() -> Vec<TraceEvent> {
    vec![
        sync(5, 0, 0, TraceOp::Post),
        // round 0: puts into slot 0 ([0, 64))
        sync(9, 0, 0, TraceOp::Start),
        ev(10, 0, 0, TraceOp::RmaPut, 32, 0),
        sync(12, 0, 0, TraceOp::Complete),
        sync(10, 1, 0, TraceOp::Start),
        ev(11, 1, 0, TraceOp::RmaPut, 32, 32),
        sync(13, 1, 0, TraceOp::Complete),
        sync(20, 0, 0, TraceOp::Wait),
        // flush of round 0 (file offset 0), then slot 1 is exposed
        ev(30, 0, 0, TraceOp::Flush, 64, 0),
        sync(40, 0, 1, TraceOp::Post),
        // round 1: puts into slot 1 ([64, 128))
        sync(49, 0, 1, TraceOp::Start),
        ev(50, 0, 1, TraceOp::RmaPut, 32, 64),
        sync(52, 0, 1, TraceOp::Complete),
        sync(50, 1, 1, TraceOp::Start),
        ev(51, 1, 1, TraceOp::RmaPut, 32, 96),
        sync(53, 1, 1, TraceOp::Complete),
        sync(60, 0, 1, TraceOp::Wait),
        ev(70, 0, 1, TraceOp::Flush, 64, 64),
    ]
}

fn kinds(trace: &Trace) -> Vec<ViolationKind> {
    check(trace).into_iter().map(|v| v.kind).collect()
}

#[test]
fn clean_pipeline_passes() {
    assert_eq!(kinds(&Trace::from_events(good_events())), vec![]);
}

#[test]
fn empty_trace_passes() {
    assert_eq!(kinds(&Trace::default()), vec![]);
}

#[test]
fn put_outside_epoch_is_caught() {
    let mut evs = good_events();
    // Rank 1's round-1 put escapes backwards into its round-0 bracket:
    // it now executes before the start that should admit it.
    let put = evs
        .iter()
        .position(|e| e.rank == 1 && e.round == 1 && e.op == TraceOp::RmaPut)
        .unwrap();
    evs[put].t_ns = 12;
    let v = check(&Trace::from_events(evs));
    assert_eq!(
        v.iter().map(|v| v.kind).collect::<Vec<_>>(),
        vec![ViolationKind::PutOutsideEpoch]
    );
    assert!(v[0].message.contains("rank 1"), "{}", v[0].message);
    assert_eq!(v[0].kind.code(), "put-outside-epoch");
}

#[test]
fn concurrent_overlapping_puts_are_caught() {
    let mut evs = good_events();
    // Rank 1's round-0 put now collides with rank 0's bytes [0, 32):
    // both run in the same exposure, with no signal between them.
    let put = evs
        .iter()
        .position(|e| e.rank == 1 && e.round == 0 && e.op == TraceOp::RmaPut)
        .unwrap();
    evs[put].offset = 16;
    let v = check(&Trace::from_events(evs));
    assert_eq!(
        v.iter().map(|v| v.kind).collect::<Vec<_>>(),
        vec![ViolationKind::ConcurrentOverlappingPuts]
    );
    assert!(v[0].message.contains("[16, 48)"), "{}", v[0].message);
}

#[test]
fn ordered_overlapping_puts_are_fine() {
    // Same bytes rewritten in a later round (slot reuse) is the normal
    // pipeline pattern: complete → wait → post → start orders the
    // rounds, so no race.
    let mut evs = good_events();
    for e in &mut evs {
        if e.round == 1 && e.op == TraceOp::RmaPut {
            e.offset -= 64; // pretend a single-buffer window
        }
    }
    // The refill check now fires (round 1 reuses round 0's slot without
    // parity distance 2) — but the *overlap* check must stay silent.
    let v = check(&Trace::from_events(evs));
    assert!(
        !v.iter().any(|v| v.kind == ViolationKind::ConcurrentOverlappingPuts),
        "{v:?}"
    );
}

#[test]
fn refill_before_flush_is_caught_in_sim_traces() {
    // Simulator-style trace without synchronisation events: the round-2
    // transfer finishes
    // at t=50, but the flush of round 0 — whose buffer round 2 reuses —
    // only completes at t=100.
    let evs = vec![
        ev(10, 0, 0, TraceOp::RmaPut, 64, NO_OFFSET),
        ev(100, 0, 0, TraceOp::Flush, 64, 0),
        ev(50, 0, 2, TraceOp::RmaPut, 64, NO_OFFSET),
        ev(120, 0, 2, TraceOp::Flush, 64, 128),
    ];
    let v = check(&Trace::from_events(evs));
    assert_eq!(
        v.iter().map(|v| v.kind).collect::<Vec<_>>(),
        vec![ViolationKind::RefillBeforeFlush]
    );
    assert!(v[0].message.contains("round 2"), "{}", v[0].message);
}

#[test]
fn pipelined_sim_trace_passes() {
    // Correct pipeline overlap: round 1 fills while round 0 flushes
    // (allowed — different buffer), round 2 fills only after flush 0.
    let evs = vec![
        ev(10, 0, 0, TraceOp::RmaPut, 64, NO_OFFSET),
        ev(20, 0, 1, TraceOp::RmaPut, 64, NO_OFFSET),
        ev(30, 0, 0, TraceOp::Flush, 64, 0),
        ev(40, 0, 2, TraceOp::RmaPut, 64, NO_OFFSET),
        ev(50, 0, 1, TraceOp::Flush, 64, 64),
        ev(60, 0, 2, TraceOp::Flush, 64, 128),
    ];
    assert_eq!(kinds(&Trace::from_events(evs)), vec![]);
}

#[test]
fn flush_outside_epoch_is_caught() {
    let mut evs = good_events();
    // The round-0 flush completes before the aggregator's round-0 wait:
    // it flushed a buffer whose exposure was still open.
    let fl = evs
        .iter()
        .position(|e| e.op == TraceOp::Flush && e.round == 0)
        .unwrap();
    evs[fl].t_ns = 15;
    let v = check(&Trace::from_events(evs));
    assert_eq!(
        v.iter().map(|v| v.kind).collect::<Vec<_>>(),
        vec![ViolationKind::FlushOutsideEpoch]
    );
}

#[test]
fn refill_before_flush_via_hb_is_caught() {
    // Thread-style trace where the flush of round 0 is recorded *after*
    // the post that re-exposes its slot (e.g. an I/O worker that signals
    // completion before recording, or an aggregator that posts before
    // draining): rounds 0 and 2 share a buffer slot but no
    // happens-before edge orders flush 0 before the round-2 refill.
    let mut evs = good_events();
    // Re-label round 1 as round 2 (slot parity matches round 0) and
    // delay the round-0 flush past everything.
    for e in &mut evs {
        if e.round == 1 {
            e.round = 2;
            if e.op == TraceOp::RmaPut {
                e.offset -= 64; // back into slot 0
            }
            if e.op == TraceOp::Flush {
                e.offset = 128;
            }
        }
    }
    let fl = evs
        .iter()
        .position(|e| e.op == TraceOp::Flush && e.round == 0)
        .unwrap();
    evs[fl].t_ns = 95; // after the last event at t=70
    assert_eq!(
        kinds(&Trace::from_events(evs)),
        vec![ViolationKind::RefillBeforeFlush, ViolationKind::RefillBeforeFlush],
        "one per refilling put"
    );
}

/// A correct 2-rank, 4-round pipeline on rank 0's window (buffer 64 B):
/// rank 1 fills rounds 0 and 2 (slot 0) and round 3 (slot 1); rank 0
/// fills round 1 alone, in place — it records no put, writes the round
/// from its own bytes and holds no buffer. So rank 0 posts rounds 2 and
/// 3 before round 1 closes, and rank 1's round-3 put lands before round
/// 1 is written, while round 2 still waits for round 0's flush.
fn in_place_events() -> Vec<TraceEvent> {
    vec![
        sync(5, 0, 0, TraceOp::Post),
        sync(6, 0, 1, TraceOp::Post),
        sync(10, 1, 0, TraceOp::Start),
        ev(11, 1, 0, TraceOp::RmaPut, 64, 0),
        sync(12, 1, 0, TraceOp::Complete),
        sync(20, 0, 0, TraceOp::Wait),
        // round 1, in place: the skeleton without a put
        sync(21, 0, 1, TraceOp::Start),
        sync(22, 0, 1, TraceOp::Complete),
        ev(30, 0, 0, TraceOp::Flush, 64, 0),
        sync(31, 0, 2, TraceOp::Post),
        sync(32, 0, 3, TraceOp::Post),
        sync(33, 0, 1, TraceOp::Wait),
        sync(34, 1, 2, TraceOp::Start),
        ev(35, 1, 2, TraceOp::RmaPut, 64, 0),
        sync(36, 1, 2, TraceOp::Complete),
        sync(37, 1, 3, TraceOp::Start),
        ev(38, 1, 3, TraceOp::RmaPut, 64, 64),
        sync(39, 1, 3, TraceOp::Complete),
        ev(50, 0, 1, TraceOp::Flush, 64, 64),
        sync(51, 0, 2, TraceOp::Wait),
        ev(52, 0, 2, TraceOp::Flush, 64, 128),
        sync(53, 0, 3, TraceOp::Wait),
        ev(54, 0, 3, TraceOp::Flush, 64, 192),
    ]
}

#[test]
fn an_in_place_rounds_flush_orders_no_refill() {
    assert_eq!(kinds(&Trace::from_events(in_place_events())), vec![]);
}

#[test]
fn refill_across_an_in_place_round_is_caught() {
    // Round 0's flush recorded after everything: round 2 refilled its
    // slot first, with the in-place round 1 in between.
    let mut evs = in_place_events();
    let fl = evs.iter().position(|e| e.op == TraceOp::Flush && e.round == 0).unwrap();
    evs[fl].t_ns = 60;
    let v = check(&Trace::from_events(evs));
    assert_eq!(v.iter().map(|v| v.kind).collect::<Vec<_>>(), vec![ViolationKind::RefillBeforeFlush]);
    assert!(v[0].message.contains("for round 2"), "{}", v[0].message);
}

#[test]
fn collective_order_mismatch_is_caught() {
    let mut evs = good_events();
    // Rank 1 drops its final complete: it started round 1 but never
    // left it, so the ranks no longer agree on the exposure — and the
    // aggregator's wait of round 1 can never return.
    let last = evs
        .iter()
        .rposition(|e| e.rank == 1 && e.op == TraceOp::Complete)
        .unwrap();
    evs.remove(last);
    let v = check(&Trace::from_events(evs));
    assert_eq!(
        v.iter().map(|v| v.kind).collect::<Vec<_>>(),
        vec![ViolationKind::CollectiveOrderMismatch, ViolationKind::CollectiveCycle]
    );
    assert!(v[0].message.contains("rank 1 recorded 1 start(s) but 0 complete(s)"), "{}", v[0].message);
    assert!(v[1].message.contains("waiting for rank 1's complete"), "{}", v[1].message);
    assert!(v[1].message.contains("rank 1's lane ended"), "{}", v[1].message);

    // An unmatched post is a disagreement too, without any deadlock.
    let mut evs = good_events();
    evs.push(sync(80, 0, 2, TraceOp::Post));
    let v = check(&Trace::from_events(evs));
    assert_eq!(
        v.iter().map(|v| v.kind).collect::<Vec<_>>(),
        vec![ViolationKind::CollectiveOrderMismatch]
    );
    assert!(v[0].message.contains("posted round 2 1 time(s) but waited"), "{}", v[0].message);
}

#[test]
fn collective_cycle_names_the_deadlocked_ranks() {
    // Rank 0 enters rank 1's exposure of partition 1 before posting its
    // own of partition 0; rank 1 does the mirror image. Classic
    // lock-order inversion over blocking calls.
    let mk = |t, rank, partition, op, peer| TraceEvent {
        t_ns: t,
        rank,
        partition,
        round: 0,
        phase: Phase::Sync,
        op,
        bytes: 0,
        offset: NO_OFFSET,
        peer,
    };
    let evs = vec![
        mk(10, 0, 1, TraceOp::Start, 1),
        mk(20, 0, 0, TraceOp::Post, NO_PEER),
        mk(10, 1, 0, TraceOp::Start, 0),
        mk(20, 1, 1, TraceOp::Post, NO_PEER),
    ];
    let v = check(&Trace::from_events(evs));
    let cycles: Vec<_> = v.iter().filter(|v| v.kind == ViolationKind::CollectiveCycle).collect();
    assert_eq!(cycles.len(), 1, "{v:?}");
    let msg = &cycles[0].message;
    assert!(msg.contains("rank 0 blocks at its start"), "{msg}");
    assert!(msg.contains("rank 1 blocks at its start"), "{msg}");
    assert!(msg.contains("cycle over ranks [0, 1]"), "{msg}");
}

#[test]
fn conflicting_elections_are_caught() {
    let mk = |rank, winner| TraceEvent {
        t_ns: 5,
        rank,
        partition: 0,
        round: 0,
        phase: Phase::Aggregation,
        op: TraceOp::Elect,
        bytes: 64,
        offset: NO_OFFSET,
        peer: winner,
    };
    let v = check(&Trace::from_events(vec![mk(0, 0), mk(1, 1)]));
    assert_eq!(
        v.iter().map(|v| v.kind).collect::<Vec<_>>(),
        vec![ViolationKind::ConflictingElections]
    );
}

/// A correct crash-recovery execution on partition 0: rank 0 (the
/// elected aggregator) crashes at round 0 after the wait that closed
/// it; rank 1 is re-elected, posts round 0 again on its fresh window,
/// round 0 is replayed into it, and round 1 proceeds through the
/// standby. The crash round is exposed twice under the same label, by
/// different targets.
fn recovery_events() -> Vec<TraceEvent> {
    let mk = |t: u64, rank: usize, round: u32, op: TraceOp, bytes: u64, offset: u64, peer| {
        TraceEvent {
            t_ns: t,
            rank,
            partition: 0,
            round,
            phase: match op {
                TraceOp::RmaPut | TraceOp::Elect => Phase::Aggregation,
                TraceOp::Flush | TraceOp::Retry => Phase::Io,
                _ => Phase::Sync,
            },
            op,
            bytes,
            offset,
            peer,
        }
    };
    let sy = |t, rank, round, op, peer| mk(t, rank, round, op, 0, NO_OFFSET, peer);
    vec![
        mk(5, 0, 0, TraceOp::Elect, 128, NO_OFFSET, 0),
        sy(6, 0, 0, TraceOp::Post, NO_PEER),
        // round 0 fill into slot 0 of the doomed window
        sy(9, 0, 0, TraceOp::Start, 0),
        mk(10, 0, 0, TraceOp::RmaPut, 32, 0, 0),
        sy(12, 0, 0, TraceOp::Complete, 0),
        sy(10, 1, 0, TraceOp::Start, 0),
        mk(11, 1, 0, TraceOp::RmaPut, 32, 32, 0),
        sy(13, 1, 0, TraceOp::Complete, 0),
        sy(20, 0, 0, TraceOp::Wait, NO_PEER),
        // crash detected; standby rank 1 takes over, both lanes mark it
        mk(25, 0, 0, TraceOp::Crash, 0, NO_OFFSET, 0),
        mk(26, 0, 0, TraceOp::Reelect, 0, NO_OFFSET, 1),
        mk(26, 1, 0, TraceOp::Reelect, 0, NO_OFFSET, 1),
        sy(27, 1, 0, TraceOp::Post, NO_PEER),
        // replay of round 0 into slot 0 of the fresh window
        sy(29, 0, 0, TraceOp::Start, 1),
        mk(30, 0, 0, TraceOp::RmaPut, 32, 0, 1),
        sy(32, 0, 0, TraceOp::Complete, 1),
        sy(30, 1, 0, TraceOp::Start, 1),
        mk(31, 1, 0, TraceOp::RmaPut, 32, 32, 1),
        sy(33, 1, 0, TraceOp::Complete, 1),
        sy(40, 1, 0, TraceOp::Wait, NO_PEER),
        // the standby retries once, then the flush lands
        mk(45, 1, 0, TraceOp::Retry, 64, 0, NO_PEER),
        mk(50, 1, 0, TraceOp::Flush, 64, 0, NO_PEER),
        sy(60, 1, 1, TraceOp::Post, NO_PEER),
        // round 1 through the standby, slot 1
        sy(69, 0, 1, TraceOp::Start, 1),
        mk(70, 0, 1, TraceOp::RmaPut, 32, 64, 1),
        sy(72, 0, 1, TraceOp::Complete, 1),
        sy(70, 1, 1, TraceOp::Start, 1),
        mk(71, 1, 1, TraceOp::RmaPut, 32, 96, 1),
        sy(73, 1, 1, TraceOp::Complete, 1),
        sy(80, 1, 1, TraceOp::Wait, NO_PEER),
        mk(90, 1, 1, TraceOp::Flush, 64, 64, NO_PEER),
    ]
}

#[test]
fn crash_recovery_trace_passes() {
    assert_eq!(kinds(&Trace::from_events(recovery_events())), vec![]);
}

#[test]
fn replayed_put_outside_recovery_epoch_is_caught() {
    // Relabel rank 1's replayed put as round 1: it runs inside the
    // bracket of the replayed round 0, not of round 1.
    let mut evs = recovery_events();
    let i = evs
        .iter()
        .position(|e| e.op == TraceOp::RmaPut && e.t_ns == 31)
        .unwrap();
    evs[i].round = 1;
    let v = check(&Trace::from_events(evs));
    assert!(v.iter().any(|v| v.kind == ViolationKind::PutOutsideEpoch), "{v:?}");
}

#[test]
fn unresolved_retry_is_caught() {
    // Drop the flush the retry was supposed to resolve into.
    let mut evs = recovery_events();
    let i = evs
        .iter()
        .position(|e| e.op == TraceOp::Flush && e.offset == 0)
        .unwrap();
    evs.remove(i);
    let v = check(&Trace::from_events(evs));
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::RetryWithoutFlush),
        "{v:?}"
    );
    assert_eq!(ViolationKind::RetryWithoutFlush.code(), "retry-without-flush");
}

#[test]
fn split_brain_reelection_is_caught() {
    // Rank 0 thinks the standby is rank 1; rank 1 thinks it is rank 0.
    let mut evs = recovery_events();
    let i = evs
        .iter()
        .position(|e| e.op == TraceOp::Reelect && e.rank == 1)
        .unwrap();
    evs[i].peer = 0;
    let v = check(&Trace::from_events(evs));
    assert!(
        v.iter().any(|v| v.kind == ViolationKind::ConflictingElections),
        "{v:?}"
    );
}

#[test]
fn violations_render_with_their_code() {
    let evs = vec![
        ev(10, 0, 0, TraceOp::RmaPut, 64, NO_OFFSET),
        ev(100, 0, 0, TraceOp::Flush, 64, 0),
        ev(50, 0, 2, TraceOp::RmaPut, 64, NO_OFFSET),
    ];
    let v = check(&Trace::from_events(evs));
    let rendered = format!("{}", v[0]);
    assert!(rendered.starts_with("[refill-before-flush] "), "{rendered}");
}
