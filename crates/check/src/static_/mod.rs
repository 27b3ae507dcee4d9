//! Schedule-conformance bridge: prove a dynamic trace is a
//! linearization of the statically derived schedule.
//!
//! [`tapioca::analyze::derive_symbolic`] predicts, from `(config,
//! topology, decomposition)` alone, every event either executor may
//! emit. This module closes the loop in both directions:
//!
//! * **dynamic ⊆ static** — every trace event must map to (and
//!   consume) a predicted event; anything left over is an
//!   [`UnmappedDynamicEvent`](StaticViolation::UnmappedDynamicEvent);
//! * **static discharged** — every predicted event on a live path must
//!   be observed; leftovers are
//!   [`UndischargedStaticEvent`](StaticViolation::UndischargedStaticEvent)s;
//! * **order** — per-lane event orders must be consistent with the
//!   static collective order (each lane's post/start/complete/wait
//!   label sequence, round monotonicity, partition visit order), else an
//!   [`OrderViolation`](StaticViolation::OrderViolation).
//!
//! The two executors emit at different granularities, so the bridge
//! detects the producer and applies the matching refinement map:
//! thread-mode traces carry one put per chunk, with its window offset,
//! and synchronisation/retry/degrade events, matched one for one
//! against [`SymbolicRound::puts`](tapioca::analyze::SymbolicRound::puts);
//! simulator traces carry per-(round, source-node) transfer batches on
//! the aggregator's lane and execute degraded rounds normally. What
//! both must agree on — elections, crash/re-election points, flush
//! extents, byte volumes, and the round structure — is checked
//! identically.

use std::collections::BTreeMap;

use tapioca::analyze::{
    StaticViolation, SymbolicPartition, SymbolicSchedule, SymbolicSync, SyncKind,
};
use tapioca_pfs::AccessMode;
use tapioca_topology::Rank;
use tapioca_trace::{Trace, TraceEvent, TraceOp, NO_OFFSET, NO_PEER};

/// Remaining expected puts for one partition, keyed by (round, rank);
/// each entry is (window_offset, bytes, peer).
type PutMap = BTreeMap<(u32, Rank), Vec<(u64, u64, Rank)>>;

/// Which executor produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Thread-mode runtime: per-member puts, synchronisation calls,
    /// retries, degrade.
    Thread,
    /// Flow-level simulator: batched transfers on the aggregator lane.
    Sim,
}

/// The predicted call a synchronisation event records, if it is one.
fn sync_label(e: &TraceEvent) -> Option<SymbolicSync> {
    let (kind, target) = match e.op {
        TraceOp::Post => (SyncKind::Post, e.rank),
        TraceOp::Start => (SyncKind::Start, e.peer),
        TraceOp::Complete => (SyncKind::Complete, e.peer),
        TraceOp::Wait => (SyncKind::Wait, e.rank),
        _ => return None,
    };
    Some(SymbolicSync { kind, round: e.round, target })
}

/// Guess the producing executor from trace structure: only thread mode
/// records synchronisation calls, retries, degrades, or window offsets
/// on puts.
pub fn detect_executor(trace: &Trace) -> Executor {
    let threadish = trace.events().iter().any(|e| {
        sync_label(e).is_some()
            || matches!(e.op, TraceOp::Retry | TraceOp::Degrade)
            || (e.op == TraceOp::RmaPut && e.offset != NO_OFFSET)
    });
    if threadish { Executor::Thread } else { Executor::Sim }
}

/// Check a dynamic trace against the static schedule, auto-detecting
/// the producing executor. Empty result = the trace is a linearization
/// of the symbolic schedule.
pub fn conformance(sym: &SymbolicSchedule, trace: &Trace) -> Vec<StaticViolation> {
    conformance_as(sym, trace, detect_executor(trace))
}

/// Check a dynamic trace against the static schedule for a known
/// executor.
pub fn conformance_as(
    sym: &SymbolicSchedule,
    trace: &Trace,
    executor: Executor,
) -> Vec<StaticViolation> {
    let mut out = Vec::new();
    if sym.mode != AccessMode::Write {
        // Read collectives only assert partition mapping: the write
        // pipeline's event vocabulary (puts/flushes/fences) is what the
        // symbolic model predicts in detail.
        for e in trace.events() {
            if sym.partition(e.partition).is_none() {
                out.push(unmapped(e, "partition not in static schedule"));
            }
        }
        return out;
    }
    match executor {
        Executor::Thread => conform_thread(sym, trace, &mut out),
        Executor::Sim => conform_sim(sym, trace, &mut out),
    }
    out
}

fn unmapped(e: &TraceEvent, why: &str) -> StaticViolation {
    StaticViolation::UnmappedDynamicEvent {
        rank: e.rank,
        detail: format!(
            "{:?} partition {} round {} bytes {} offset {} peer {}: {why}",
            e.op,
            e.partition,
            e.round,
            e.bytes,
            if e.offset == NO_OFFSET { -1i64 } else { e.offset as i64 },
            if e.peer == NO_PEER { -1i64 } else { e.peer as i64 },
        ),
    }
}

/// Expected per-partition state for the thread-mode refinement map.
struct ThreadPart {
    index: u32,
    members: Vec<Rank>,
    lowest: Option<Rank>,
    aggregator: Option<Rank>,
    crash: Option<(u32, Rank, Rank)>, // (round, old, standby)
    /// First degraded round (`u32::MAX` when none): no puts,
    /// synchronisation calls, or flushes are predicted at or after it.
    dr: u32,
    nrounds: u32,
    total_bytes: u64,
    degrade_bytes: u64,
    /// Remaining expected puts, keyed by (round, rank).
    puts: PutMap,
    /// Remaining expected flush segments, keyed by round.
    flushes: BTreeMap<u32, Vec<(u64, u64)>>,
    /// Retry budget per (round, file_offset, len): (allowed, seen).
    retries: BTreeMap<(u32, u64, u64), (u32, u32)>,
    elect_seen: bool,
    crash_seen: bool,
    reelects_seen: Vec<Rank>,
    degrade_seen: bool,
    /// Observed synchronisation calls per member lane, in lane order.
    syncs: BTreeMap<Rank, Vec<SymbolicSync>>,
    /// Predicted synchronisation calls per member lane.
    expected_syncs: BTreeMap<Rank, Vec<SymbolicSync>>,
    /// Last put round observed per member lane (monotonicity).
    last_put_round: BTreeMap<Rank, u32>,
}

impl ThreadPart {
    fn new(p: &SymbolicPartition, pipelining: bool) -> Self {
        let dr = p.degrade_round.unwrap_or(u32::MAX);
        let crash = p.crash.map(|c| (c.round, c.old, c.standby));
        let mut puts: PutMap = BTreeMap::new();
        let mut flushes: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        let mut retries = BTreeMap::new();
        for round in &p.rounds {
            if round.round >= dr {
                break;
            }
            // An in-place round records no put.
            let in_place = p.in_place(round.round as usize);
            for put in round.puts.iter().filter(|_| !in_place) {
                puts.entry((round.round, put.rank)).or_default().push((
                    put.window_offset,
                    put.bytes,
                    put.peer,
                ));
            }
            for seg in &round.flushes {
                flushes.entry(round.round).or_default().push((seg.file_offset, seg.len));
                if seg.fail_attempts > 0 {
                    retries.insert(
                        (round.round, seg.file_offset, seg.len),
                        (seg.fail_attempts, 0),
                    );
                }
            }
        }
        let degrade_bytes = p
            .rounds
            .iter()
            .filter(|r| r.round >= dr)
            .map(|r| r.bytes)
            .sum();
        ThreadPart {
            index: p.partition,
            members: p.members.clone(),
            lowest: p.lowest,
            aggregator: p.aggregator,
            crash,
            dr,
            nrounds: p.rounds.len() as u32,
            total_bytes: p.total_bytes,
            degrade_bytes,
            puts,
            flushes,
            retries,
            elect_seen: false,
            crash_seen: false,
            reelects_seen: Vec::new(),
            degrade_seen: false,
            syncs: BTreeMap::new(),
            expected_syncs: p.members.iter().map(|&m| (m, p.sync_labels(m, pipelining))).collect(),
            last_put_round: BTreeMap::new(),
        }
    }

    /// Lane the flushes/retries of `round` are expected on.
    fn flush_rank(&self, round: u32) -> Option<Rank> {
        match self.crash {
            Some((cr, _, standby)) if round >= cr => Some(standby),
            _ => self.aggregator,
        }
    }
}

fn conform_thread(sym: &SymbolicSchedule, trace: &Trace, out: &mut Vec<StaticViolation>) {
    let mut parts: BTreeMap<u32, ThreadPart> = sym
        .groups
        .iter()
        .flat_map(|g| &g.partitions)
        .map(|p| (p.partition, ThreadPart::new(p, sym.pipelining)))
        .collect();
    // Per rank: order partitions first appear in (visit-order check).
    let mut first_seen: BTreeMap<Rank, Vec<u32>> = BTreeMap::new();

    for e in trace.events() {
        let Some(part) = parts.get_mut(&e.partition) else {
            out.push(unmapped(e, "partition not in static schedule"));
            continue;
        };
        if e.op == TraceOp::RmaPut || sync_label(e).is_some() {
            let seen = first_seen.entry(e.rank).or_default();
            if !seen.contains(&e.partition) {
                seen.push(e.partition);
            }
        }
        match e.op {
            TraceOp::Elect => {
                if part.elect_seen {
                    out.push(unmapped(e, "duplicate election"));
                } else if part.lowest != Some(e.rank)
                    || part.aggregator != Some(e.peer)
                    || e.bytes != part.total_bytes
                {
                    out.push(unmapped(e, "election disagrees with static winner"));
                } else {
                    part.elect_seen = true;
                }
            }
            TraceOp::RmaPut => {
                if e.round >= part.dr {
                    out.push(unmapped(e, "put at or after the degrade round"));
                    continue;
                }
                let last = part.last_put_round.entry(e.rank).or_insert(0);
                if e.round < *last {
                    out.push(StaticViolation::OrderViolation {
                        rank: e.rank,
                        detail: format!(
                            "partition {}: put round went backwards ({} after {})",
                            e.partition, e.round, last
                        ),
                    });
                }
                *last = (*last).max(e.round);
                let entry = part.puts.get_mut(&(e.round, e.rank));
                let found = entry.and_then(|v| {
                    v.iter()
                        .position(|&(off, bytes, peer)| {
                            off == e.offset && bytes == e.bytes && peer == e.peer
                        })
                        .map(|i| v.swap_remove(i))
                });
                if found.is_none() {
                    out.push(unmapped(e, "no matching predicted put"));
                }
            }
            TraceOp::Flush => {
                if e.round >= part.dr {
                    out.push(unmapped(e, "flush at or after the degrade round"));
                    continue;
                }
                if part.flush_rank(e.round) != Some(e.rank) {
                    out.push(unmapped(e, "flush on an unexpected lane"));
                    continue;
                }
                let entry = part.flushes.get_mut(&e.round);
                let found = entry.and_then(|v| {
                    v.iter()
                        .position(|&(off, len)| off == e.offset && len == e.bytes)
                        .map(|i| v.swap_remove(i))
                });
                if found.is_none() {
                    out.push(unmapped(e, "no matching predicted flush segment"));
                }
            }
            TraceOp::Fence => {
                out.push(unmapped(e, "the round pipeline issues no fences"));
            }
            TraceOp::Post | TraceOp::Start | TraceOp::Complete | TraceOp::Wait => {
                if !part.members.contains(&e.rank) {
                    out.push(unmapped(e, "synchronisation call from a non-member"));
                } else if let Some(label) = sync_label(e) {
                    part.syncs.entry(e.rank).or_default().push(label);
                }
            }
            TraceOp::Crash => match part.crash {
                Some((cr, old, _))
                    if e.round == cr && e.peer == old && Some(e.rank) == part.lowest =>
                {
                    part.crash_seen = true;
                }
                _ => out.push(unmapped(e, "crash not predicted here")),
            },
            TraceOp::Reelect => match part.crash {
                Some((cr, _, standby))
                    if e.round == cr
                        && e.peer == standby
                        && part.members.contains(&e.rank)
                        && !part.reelects_seen.contains(&e.rank) =>
                {
                    part.reelects_seen.push(e.rank);
                }
                _ => out.push(unmapped(e, "re-election not predicted here")),
            },
            TraceOp::Retry => {
                if e.round >= part.dr || part.flush_rank(e.round) != Some(e.rank) {
                    out.push(unmapped(e, "retry not predicted here"));
                    continue;
                }
                match part.retries.get_mut(&(e.round, e.offset, e.bytes)) {
                    Some((allowed, seen)) if *seen < *allowed => *seen += 1,
                    _ => out.push(unmapped(e, "retry exceeds the injected fault budget")),
                }
            }
            TraceOp::Degrade => {
                if part.dr == u32::MAX
                    || e.round != part.dr
                    || Some(e.rank) != part.lowest
                    || e.bytes != part.degrade_bytes
                {
                    out.push(unmapped(e, "degrade disagrees with the static degrade point"));
                } else if part.degrade_seen {
                    out.push(unmapped(e, "duplicate degrade"));
                } else {
                    part.degrade_seen = true;
                }
            }
        }
    }

    // Visit order: the order a rank first touches partitions must be a
    // subsequence of its static visit order.
    for group in &sym.groups {
        for (rank, visits) in &group.visit_order {
            let Some(observed) = first_seen.get(rank) else { continue };
            let in_group: Vec<u32> = observed
                .iter()
                .copied()
                .filter(|p| visits.contains(p))
                .collect();
            let mut cursor = visits.iter();
            for p in &in_group {
                if !cursor.any(|v| v == p) {
                    out.push(StaticViolation::OrderViolation {
                        rank: *rank,
                        detail: format!(
                            "partition {p} visited out of static collective order \
                             (expected order {visits:?}, observed {in_group:?})"
                        ),
                    });
                    break;
                }
            }
        }
    }

    // Discharge: everything predicted on a live path must be observed.
    for part in parts.values() {
        if part.members.is_empty() {
            continue;
        }
        if !part.elect_seen {
            out.push(undischarged(part.index, "election never observed"));
        }
        if let Some((cr, _, _)) = part.crash {
            if !part.crash_seen {
                out.push(undischarged(part.index, &format!("crash at round {cr} never observed")));
            }
            for m in &part.members {
                if !part.reelects_seen.contains(m) {
                    out.push(undischarged(
                        part.index,
                        &format!("member {m} never acknowledged the re-election"),
                    ));
                }
            }
        }
        if part.dr < part.nrounds && !part.degrade_seen {
            out.push(undischarged(
                part.index,
                &format!("degrade at round {} never observed", part.dr),
            ));
        }
        for ((round, rank), v) in &part.puts {
            if !v.is_empty() {
                out.push(undischarged(
                    part.index,
                    &format!("{} put(s) of rank {rank} round {round} never observed", v.len()),
                ));
            }
        }
        for (round, v) in &part.flushes {
            if !v.is_empty() {
                out.push(undischarged(
                    part.index,
                    &format!("{} flush segment(s) of round {round} never observed", v.len()),
                ));
            }
        }
        for ((round, off, len), (allowed, seen)) in &part.retries {
            if seen != allowed {
                out.push(undischarged(
                    part.index,
                    &format!(
                        "segment @{off}+{len} round {round}: {seen} of {allowed} injected \
                         retries observed"
                    ),
                ));
            }
        }
        for (m, expected) in &part.expected_syncs {
            let got = part.syncs.get(m).map_or(&[][..], Vec::as_slice);
            if got != expected {
                let k = got.iter().zip(expected).take_while(|(a, b)| a == b).count();
                out.push(StaticViolation::OrderViolation {
                    rank: *m,
                    detail: format!(
                        "partition {}: synchronisation call #{k} of {} observed is {:?} but \
                         the static sequence ({} calls) has {:?} there",
                        part.index,
                        got.len(),
                        got.get(k),
                        expected.len(),
                        expected.get(k),
                    ),
                });
            }
        }
    }
}

fn undischarged(partition: u32, detail: &str) -> StaticViolation {
    StaticViolation::UndischargedStaticEvent { partition, detail: detail.into() }
}

/// Expected per-partition state for the simulator refinement map: the
/// sim batches transfers per (round, source node) on the aggregator's
/// lane, so puts are matched by byte volume per round, not per member.
struct SimPart {
    index: u32,
    lowest: Option<Rank>,
    aggregator: Option<Rank>,
    crash: Option<(u32, Rank, Rank)>,
    total_bytes: u64,
    /// Expected transfer bytes per round (crash round counts the doomed
    /// fill and the replay: the plan moves the bytes twice).
    put_bytes: BTreeMap<u32, u64>,
    seen_put_bytes: BTreeMap<u32, u64>,
    /// Remaining expected flush segments per round (the sim executes
    /// degraded rounds too — lock penalties stop, ops do not).
    flushes: BTreeMap<u32, Vec<(u64, u64)>>,
    elect_seen: bool,
    crash_seen: bool,
    reelect_seen: bool,
    max_put_t: BTreeMap<u32, u64>,
    min_flush_t: BTreeMap<u32, u64>,
    last_put_round: u32,
    last_flush_round: u32,
}

impl SimPart {
    fn new(p: &SymbolicPartition) -> Self {
        let crash = p.crash.map(|c| (c.round, c.old, c.standby));
        let mut put_bytes = BTreeMap::new();
        let mut flushes: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for round in &p.rounds {
            let factor = match crash {
                Some((cr, _, _)) if round.round == cr => 2,
                _ => 1,
            };
            put_bytes.insert(round.round, round.bytes * factor);
            flushes.insert(
                round.round,
                round.flushes.iter().map(|s| (s.file_offset, s.len)).collect(),
            );
        }
        SimPart {
            index: p.partition,
            lowest: p.lowest,
            aggregator: p.aggregator,
            crash,
            total_bytes: p.total_bytes,
            put_bytes,
            seen_put_bytes: BTreeMap::new(),
            flushes,
            elect_seen: false,
            crash_seen: false,
            reelect_seen: false,
            max_put_t: BTreeMap::new(),
            min_flush_t: BTreeMap::new(),
            last_put_round: 0,
            last_flush_round: 0,
        }
    }
}

fn conform_sim(sym: &SymbolicSchedule, trace: &Trace, out: &mut Vec<StaticViolation>) {
    let mut parts: BTreeMap<u32, SimPart> = sym
        .groups
        .iter()
        .flat_map(|g| &g.partitions)
        .map(|p| (p.partition, SimPart::new(p)))
        .collect();

    for e in trace.events() {
        let Some(part) = parts.get_mut(&e.partition) else {
            out.push(unmapped(e, "partition not in static schedule"));
            continue;
        };
        match e.op {
            TraceOp::Elect => {
                if part.elect_seen {
                    out.push(unmapped(e, "duplicate election"));
                } else if part.lowest != Some(e.rank)
                    || part.aggregator != Some(e.peer)
                    || e.bytes != part.total_bytes
                {
                    out.push(unmapped(e, "election disagrees with static winner"));
                } else {
                    part.elect_seen = true;
                }
            }
            TraceOp::Crash => match part.crash {
                Some((cr, old, _))
                    if e.round == cr && e.peer == old && Some(e.rank) == part.lowest =>
                {
                    part.crash_seen = true;
                }
                _ => out.push(unmapped(e, "crash not predicted here")),
            },
            TraceOp::Reelect => match part.crash {
                Some((cr, _, standby))
                    if e.round == cr
                        && e.peer == standby
                        && Some(e.rank) == part.lowest
                        && !part.reelect_seen =>
                {
                    part.reelect_seen = true;
                }
                _ => out.push(unmapped(e, "re-election not predicted here")),
            },
            TraceOp::RmaPut => {
                if Some(e.rank) != part.aggregator
                    || e.peer != e.rank
                    || e.offset != NO_OFFSET
                {
                    out.push(unmapped(e, "sim transfers carry the aggregator lane"));
                    continue;
                }
                if !part.put_bytes.contains_key(&e.round) {
                    out.push(unmapped(e, "transfer in a round the schedule lacks"));
                    continue;
                }
                if e.round < part.last_put_round {
                    out.push(StaticViolation::OrderViolation {
                        rank: e.rank,
                        detail: format!(
                            "partition {}: transfer round went backwards ({} after {})",
                            e.partition, e.round, part.last_put_round
                        ),
                    });
                }
                part.last_put_round = part.last_put_round.max(e.round);
                *part.seen_put_bytes.entry(e.round).or_insert(0) += e.bytes;
                let t = part.max_put_t.entry(e.round).or_insert(0);
                *t = (*t).max(e.t_ns);
            }
            TraceOp::Flush => {
                if part.flush_rank_ok(e.rank) {
                    if e.round < part.last_flush_round {
                        out.push(StaticViolation::OrderViolation {
                            rank: e.rank,
                            detail: format!(
                                "partition {}: flush round went backwards ({} after {})",
                                e.partition, e.round, part.last_flush_round
                            ),
                        });
                    }
                    part.last_flush_round = part.last_flush_round.max(e.round);
                    let entry = part.flushes.get_mut(&e.round);
                    let found = entry.and_then(|v| {
                        v.iter()
                            .position(|&(off, len)| off == e.offset && len == e.bytes)
                            .map(|i| v.swap_remove(i))
                    });
                    if found.is_none() {
                        out.push(unmapped(e, "no matching predicted flush segment"));
                    }
                    let t = part.min_flush_t.entry(e.round).or_insert(u64::MAX);
                    *t = (*t).min(e.t_ns);
                } else {
                    out.push(unmapped(e, "flush on an unexpected lane"));
                }
            }
            TraceOp::Fence
            | TraceOp::Post
            | TraceOp::Start
            | TraceOp::Complete
            | TraceOp::Wait
            | TraceOp::Retry
            | TraceOp::Degrade => {
                out.push(unmapped(e, "the simulator never emits this event"));
            }
        }
    }

    for part in parts.values() {
        if part.put_bytes.is_empty() {
            continue;
        }
        if !part.elect_seen {
            out.push(undischarged(part.index, "election never observed"));
        }
        if let Some((cr, _, _)) = part.crash {
            if !part.crash_seen || !part.reelect_seen {
                out.push(undischarged(
                    part.index,
                    &format!("crash/re-election at round {cr} never observed"),
                ));
            }
        }
        for (round, expected) in &part.put_bytes {
            let seen = part.seen_put_bytes.get(round).copied().unwrap_or(0);
            if seen != *expected {
                out.push(undischarged(
                    part.index,
                    &format!("round {round}: transfers moved {seen} of {expected} bytes"),
                ));
            }
        }
        for (round, v) in &part.flushes {
            if !v.is_empty() {
                out.push(undischarged(
                    part.index,
                    &format!("{} flush segment(s) of round {round} never observed", v.len()),
                ));
            }
        }
        // Dependency order: a round's flush completes no earlier than
        // the last transfer that filled its window.
        for (round, flush_t) in &part.min_flush_t {
            if let Some(put_t) = part.max_put_t.get(round) {
                if flush_t < put_t {
                    out.push(StaticViolation::OrderViolation {
                        rank: part.aggregator.unwrap_or(0),
                        detail: format!(
                            "partition {} round {round}: flush at {flush_t}ns precedes \
                             the last window fill at {put_t}ns",
                            part.index
                        ),
                    });
                }
            }
        }
    }
}

impl SimPart {
    /// Sim flushes are recorded on the original aggregator's lane; the
    /// plan's post-crash flushes originate from the standby node, so
    /// accept either.
    fn flush_rank_ok(&self, rank: Rank) -> bool {
        Some(rank) == self.aggregator
            || self.crash.is_some_and(|(_, _, standby)| rank == standby)
    }
}
