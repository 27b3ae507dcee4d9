//! # tapioca-check
//!
//! A happens-before race detector and round-protocol checker over
//! [`tapioca_trace::Trace`]s — the pipeline's ordering contract, made
//! executable.
//!
//! The TAPIOCA write pipeline (paper Algorithm 3, synchronised here
//! with MPI's post/start/complete/wait between the aggregator and each
//! round's contributors) is correct only if a handful of ordering
//! invariants hold in every execution:
//!
//! 1. **Bracket discipline** — every RMA put of round `r` happens
//!    inside its rank's start…complete bracket of round `r` on the
//!    put's target, and every flush of round `r` completes after the
//!    aggregator's wait that closed round `r`.
//! 2. **Put disjointness** — no two puts that target overlapping byte
//!    ranges of the same aggregation window are concurrent (unordered by
//!    happens-before). MPI leaves overlapping concurrent puts undefined.
//! 3. **Buffer reuse** — a pipeline buffer is refilled (round `r+2` with
//!    double buffering) only after the flush of round `r` completed:
//!    the flush happens-before the post that re-exposes its slot, hence
//!    before every put that post admits.
//! 4. **Order agreement** — the ranks of a partition agree on each
//!    exposure: the target waits exactly as often as it posts, every
//!    origin completes exactly as often as it starts, and nobody starts
//!    an exposure more often than its target posted it.
//! 5. **Deadlock freedom** — the signal→wait graph is acyclic and every
//!    blocking wait's signal exists; otherwise a witness names the ranks
//!    and the calls they block in.
//! 6. **Recovery discipline** — fault-injected runs keep the contract:
//!    a crash round is exposed twice (dead aggregator, then standby),
//!    each exposure with its own brackets; every member of the partition
//!    agrees on the standby, and every recorded `Retry` is eventually
//!    resolved by a completed flush of the same file range.
//!
//! [`check`] verifies all of these on a recorded trace and returns the
//! violations found (empty = clean). Kinds are machine-readable
//! ([`ViolationKind::code`]); messages are human diagnostics.
//!
//! ## How the happens-before relation is built
//!
//! The checker replays the trace through a vector-clock engine
//! ([`hb`]): per-rank lane order gives program-order edges (sound
//! because each lane is appended under a mutex in timestamp order, and
//! the I/O worker records flush completions *before* signalling the
//! handle the aggregator waits on), and each matched signal→wait pair —
//! post→start, complete→wait — is a cross-lane edge. Two events are
//! concurrent iff neither's clock is ≤ the other's. A rank that took no
//! part in a round is not ordered by it: there is no all-member join.
//!
//! Simulator traces carry no synchronisation events (the simulator
//! executes a dependency DAG); for such partitions the checker falls
//! back to completion-timestamp ordering for the buffer reuse invariant
//! — sound because simulated completion times respect the plan DAG,
//! which encodes exactly that dependency — and skips the bracket and
//! overlap checks, which are meaningless without brackets.

pub mod hb;
pub mod jsonl;
pub mod static_;

use std::fmt;

use tapioca_trace::{Trace, TraceOp, NO_OFFSET};

pub use jsonl::parse_jsonl;

/// Machine-readable classification of a protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An RMA put executed outside its round's start…complete bracket.
    PutOutsideEpoch,
    /// A flush completed before the aggregator's wait closed its round.
    FlushOutsideEpoch,
    /// Two puts into overlapping bytes of one aggregation window are
    /// unordered by happens-before.
    ConcurrentOverlappingPuts,
    /// A pipeline buffer was refilled before its previous flush
    /// completed.
    RefillBeforeFlush,
    /// Ranks of one partition disagree on an exposure (posts vs waits,
    /// starts vs completes, starts vs posts).
    CollectiveOrderMismatch,
    /// The signal→wait graph has a cycle, or a blocking wait's signal
    /// never comes: the recorded schedule deadlocks. The message names
    /// the ranks.
    CollectiveCycle,
    /// A partition recorded more than one election winner.
    ConflictingElections,
    /// A flush retry was recorded but no flush of the same file range
    /// ever completed after it — the recovery path lost the segment.
    RetryWithoutFlush,
}

impl ViolationKind {
    /// Stable machine-readable identifier.
    pub fn code(&self) -> &'static str {
        match self {
            ViolationKind::PutOutsideEpoch => "put-outside-epoch",
            ViolationKind::FlushOutsideEpoch => "flush-outside-epoch",
            ViolationKind::ConcurrentOverlappingPuts => "concurrent-overlapping-puts",
            ViolationKind::RefillBeforeFlush => "refill-before-flush",
            ViolationKind::CollectiveOrderMismatch => "collective-order-mismatch",
            ViolationKind::CollectiveCycle => "collective-cycle",
            ViolationKind::ConflictingElections => "conflicting-elections",
            ViolationKind::RetryWithoutFlush => "retry-without-flush",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One detected violation: a kind plus a human diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What class of invariant was broken.
    pub kind: ViolationKind,
    /// Human-readable diagnosis naming ranks, rounds, and offsets.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.code(), self.message)
    }
}

/// Check every pipeline invariant on `trace`; an empty result means the
/// recorded execution is protocol-clean.
pub fn check(trace: &Trace) -> Vec<Violation> {
    let mut out = Vec::new();
    check_elections(trace, &mut out);
    check_collective_order(trace, &mut out);
    let exec = hb::Execution::replay(trace, &mut out);
    check_overlaps(trace, &exec, &mut out);
    check_refill(trace, &exec, &mut out);
    check_retries(trace, &exec, &mut out);
    out
}

/// Invariant 4 (part 1): at most one election winner per partition, and
/// — after a crash — at most one reelected standby per crash round (all
/// members derive the standby from the same shared plan, so divergence
/// means the collective recovery decision split-brained).
fn check_elections(trace: &Trace, out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    let mut winners: BTreeMap<u32, usize> = BTreeMap::new();
    let mut standbys: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for e in trace.events() {
        match e.op {
            TraceOp::Elect => match winners.get(&e.partition) {
                None => {
                    winners.insert(e.partition, e.peer);
                }
                Some(&w) if w == e.peer => {}
                Some(&w) => out.push(Violation {
                    kind: ViolationKind::ConflictingElections,
                    message: format!(
                        "partition {} recorded conflicting election winners: rank {} and rank {}",
                        e.partition, w, e.peer
                    ),
                }),
            },
            TraceOp::Reelect => match standbys.get(&(e.partition, e.round)) {
                None => {
                    standbys.insert((e.partition, e.round), e.peer);
                }
                Some(&w) if w == e.peer => {}
                Some(&w) => out.push(Violation {
                    kind: ViolationKind::ConflictingElections,
                    message: format!(
                        "partition {}: members disagree on the standby re-elected at \
                         round {} — rank {} vs rank {}",
                        e.partition, e.round, w, e.peer
                    ),
                }),
            },
            _ => {}
        }
    }
}

/// Invariant 4 (part 2): the ranks of a partition agree on every
/// exposure `(round, target)` — the target waits as often as it posts,
/// each origin completes as often as it starts, and no origin starts an
/// exposure more often than its target posted it.
fn check_collective_order(trace: &Trace, out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    // exposure -> (posts, waits) on the target's lane
    let mut targets: BTreeMap<hb::ExposureKey, (usize, usize)> = BTreeMap::new();
    // (exposure, origin) -> (starts, completes)
    let mut origins: BTreeMap<(hb::ExposureKey, usize), (usize, usize)> = BTreeMap::new();
    for e in trace.events().iter().filter(|e| hb::is_sync(e.op)) {
        let key = hb::exposure_of(e);
        match e.op {
            TraceOp::Post => targets.entry(key).or_default().0 += 1,
            TraceOp::Wait => targets.entry(key).or_default().1 += 1,
            TraceOp::Start => origins.entry((key, e.rank)).or_default().0 += 1,
            _ => origins.entry((key, e.rank)).or_default().1 += 1,
        }
    }
    let mut mismatch = |message: String| {
        out.push(Violation { kind: ViolationKind::CollectiveOrderMismatch, message })
    };
    for (&(p, round, target), &(posts, waits)) in &targets {
        if posts != waits {
            mismatch(format!(
                "partition {p}: rank {target} posted round {round} {posts} time(s) but waited \
                 on it {waits} time(s)"
            ));
        }
    }
    for (&((p, round, target), origin), &(starts, completes)) in &origins {
        if starts != completes {
            mismatch(format!(
                "partition {p}: rank {origin} recorded {starts} start(s) but {completes} \
                 complete(s) of round {round} on rank {target}'s window"
            ));
        }
        let posts = targets.get(&(p, round, target)).map_or(0, |t| t.0);
        if starts > posts {
            mismatch(format!(
                "partition {p}: rank {origin} started round {round} on rank {target}'s window \
                 {starts} time(s) but rank {target} posted it {posts} time(s) — the ranks \
                 disagree on the round order"
            ));
        }
    }
}

/// Invariant 2: overlapping puts into one window must be HB-ordered.
fn check_overlaps(trace: &Trace, exec: &hb::Execution, out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    let events = trace.events();
    // (partition, window owner) -> put event indices carrying a window
    // offset
    let mut puts: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.op == TraceOp::RmaPut && e.offset != NO_OFFSET && e.bytes > 0 {
            puts.entry((e.partition, e.peer)).or_default().push(i);
        }
    }
    for ((p, _), mut idxs) in puts {
        idxs.sort_by_key(|&i| events[i].offset);
        // Sweep: `active` holds puts whose byte range may still overlap
        // later (sorted-by-offset) puts.
        let mut active: Vec<usize> = Vec::new();
        for &i in &idxs {
            let e = &events[i];
            active.retain(|&j| {
                let a = &events[j];
                a.offset + a.bytes > e.offset
            });
            for &j in &active {
                let a = &events[j];
                if a.rank == e.rank {
                    continue; // same lane: always program-ordered
                }
                if !exec.happens_before(j, i) && !exec.happens_before(i, j) {
                    out.push(Violation {
                        kind: ViolationKind::ConcurrentOverlappingPuts,
                        message: format!(
                            "partition {p}: concurrent overlapping puts into the \
                             aggregation window — rank {} round {} wrote [{}, {}) and \
                             rank {} round {} wrote [{}, {}), with no happens-before \
                             order between them",
                            a.rank,
                            a.round,
                            a.offset,
                            a.offset + a.bytes,
                            e.rank,
                            e.round,
                            e.offset,
                            e.offset + e.bytes
                        ),
                    });
                }
            }
            active.push(i);
        }
    }
}

/// Invariant 3: the flush of round `r` must complete before the puts of
/// round `r + 2` (same double-buffer slot) start refilling the buffer.
/// A round that recorded no put into its aggregator's window (one the
/// aggregator fills alone, written in place) drains no buffer, so its
/// flush orders no refill.
///
/// Synchronised partitions use the happens-before relation — the
/// flush precedes, on the aggregator's lane, the post that re-exposes
/// its slot, and that post precedes every put it admits — partitions
/// without synchronisation events (simulator) use completion
/// timestamps, which the plan DAG makes authoritative.
fn check_refill(trace: &Trace, exec: &hb::Execution, out: &mut Vec<Violation>) {
    use std::collections::{BTreeMap, BTreeSet};
    let events = trace.events();
    let mut flushes: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut puts: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    // (partition, round, window owner) of every recorded put.
    let mut filled: BTreeSet<(u32, u32, usize)> = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        match e.op {
            TraceOp::Flush => flushes.entry(e.partition).or_default().push(i),
            TraceOp::RmaPut => {
                puts.entry(e.partition).or_default().push(i);
                filled.insert((e.partition, e.round, e.peer));
            }
            _ => {}
        }
    }
    for (p, fl) in &flushes {
        let Some(pt) = puts.get(p) else { continue };
        let synced = exec.partition_is_synced(*p);
        for &fi in fl {
            let f = &events[fi];
            if !filled.contains(&(*p, f.round, f.rank)) {
                continue;
            }
            for &qi in pt {
                let q = &events[qi];
                // Same physical buffer: two rounds later, same parity —
                // and the same window: a put into the standby's fresh
                // post-crash window (`peer` is its owner) cannot refill
                // a slot of the crashed aggregator's.
                if q.round < f.round + 2
                    || !(q.round - f.round).is_multiple_of(2)
                    || (synced && q.peer != f.rank)
                {
                    continue;
                }
                let ordered = if synced {
                    exec.happens_before(fi, qi)
                } else {
                    f.t_ns <= q.t_ns
                };
                if !ordered {
                    out.push(Violation {
                        kind: ViolationKind::RefillBeforeFlush,
                        message: format!(
                            "partition {p}: buffer refilled before its flush drained — \
                             rank {} put {} B for round {} into the slot whose round-{} \
                             flush ({} B at file offset {}) had not completed",
                            q.rank, q.bytes, q.round, f.round, f.bytes, f.offset
                        ),
                    });
                }
            }
        }
    }
}

/// Invariant 6 (part 2): every recorded `Retry` must be resolved — a
/// flush of the same (partition, file offset) completes after it. The
/// file worker records a retry per failed attempt and a `Flush` only on
/// completion; a retry with no subsequent flush means the segment was
/// dropped by the recovery path.
fn check_retries(trace: &Trace, exec: &hb::Execution, out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    let events = trace.events();
    let mut flushes: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.op == TraceOp::Flush {
            flushes.entry((e.partition, e.offset)).or_default().push(i);
        }
    }
    for (i, e) in events.iter().enumerate() {
        if e.op != TraceOp::Retry {
            continue;
        }
        let resolved = flushes.get(&(e.partition, e.offset)).is_some_and(|fl| {
            fl.iter().any(|&fi| {
                if exec.partition_is_synced(e.partition) {
                    exec.happens_before(i, fi)
                } else {
                    e.t_ns <= events[fi].t_ns
                }
            })
        });
        if !resolved {
            out.push(Violation {
                kind: ViolationKind::RetryWithoutFlush,
                message: format!(
                    "partition {}: rank {} retried the flush of {} B at file offset {} \
                     (round {}), but no flush of that range ever completed afterwards",
                    e.partition, e.rank, e.bytes, e.offset, e.round
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests;
