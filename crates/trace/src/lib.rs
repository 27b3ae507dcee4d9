//! Structured event tracing for TAPIOCA collectives.
//!
//! Both executors — the thread-mode runtime (`tapioca-mpi`) and the
//! flow-level simulator (`sim_exec`) — run the *same* schedule objects.
//! This crate gives them one event schema to emit into, so a collective
//! becomes an inspectable artifact: a merged, time-ordered list of
//! [`TraceEvent`]s that can be summarized ([`TraceSummary`]), compared
//! across executors ([`StructuralTrace`]), or dumped as JSONL for
//! offline inspection.
//!
//! Recording is contention-free: a [`Tracer`] keeps one lane per rank
//! and a rank only ever locks its own lane. The disabled path is one
//! `Option` check at each instrumentation site — no tracer, no work.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rank index (mirrors `tapioca_mpi::Rank` without the dependency).
pub type Rank = usize;

/// `peer` value when an event has no meaningful counterpart rank.
pub const NO_PEER: Rank = usize::MAX;

/// `offset` value when an event carries no region metadata
/// (synchronisation calls, elections, and simulator-side puts, whose plan ops are per-node flows
/// without buffer coordinates).
pub const NO_OFFSET: u64 = u64::MAX;

/// Which pipeline phase an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Data movement into aggregation buffers (RMA puts, elections).
    Aggregation,
    /// Data movement between aggregation buffers and storage.
    Io,
    /// Synchronization (post/start/complete/wait, crash, re-election).
    Sync,
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// One-sided put into an aggregation buffer (`peer` = target rank).
    RmaPut,
    /// A buffer segment written to (or read from) storage.
    Flush,
    /// Signal: an aggregator opened the exposure of `round` to that
    /// round's contributors (recorded on the exposing rank's lane).
    Post,
    /// Blocking wait: this rank entered the exposure of `round` on
    /// `peer`'s window — it returned once `peer`'s matching [`Post`]
    /// had been issued.
    ///
    /// [`Post`]: TraceOp::Post
    Start,
    /// Signal: this rank finished its accesses of `round` on `peer`'s
    /// window.
    Complete,
    /// Blocking wait: the exposing rank closed the exposure of `round`
    /// — it returned once every contributor's [`Complete`] had arrived.
    ///
    /// [`Complete`]: TraceOp::Complete
    Wait,
    /// Aggregator election result (`peer` = elected global rank).
    Elect,
    /// An aggregator failed (`peer` = crashed global rank, `round` =
    /// crash round).
    Crash,
    /// A standby aggregator took over after a crash (`peer` = new
    /// aggregator's global rank).
    Reelect,
    /// A flush attempt failed and was retried (`offset` = file offset of
    /// the retried segment, `bytes` = its length).
    Retry,
    /// The partition fell back to direct per-rank writes (`round` =
    /// first directly-written round).
    Degrade,
}

/// One recorded event.
///
/// Timestamps are nanoseconds from the tracer's epoch: wall-clock in
/// thread mode, simulated time in simulation mode. Cross-executor
/// comparisons must therefore ignore `t_ns` — that is exactly what
/// [`StructuralTrace`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer epoch.
    pub t_ns: u64,
    /// Global rank that the event is attributed to.
    pub rank: Rank,
    /// Schedule partition the event belongs to.
    pub partition: u32,
    /// Pipeline round within the partition.
    pub round: u32,
    /// Pipeline phase.
    pub phase: Phase,
    /// Operation kind.
    pub op: TraceOp,
    /// Payload bytes (0 for pure synchronization).
    pub bytes: u64,
    /// Counterpart rank ([`NO_PEER`] when not applicable).
    pub peer: Rank,
    /// Region metadata ([`NO_OFFSET`] when not applicable): for
    /// `RmaPut`, the byte offset inside the target's window region
    /// (including the double-buffer slot); for `Flush`, the file offset
    /// of the segment. `tapioca-check` uses put offsets to detect
    /// concurrent overlapping deposits.
    pub offset: u64,
}

/// A contention-free per-rank event recorder.
///
/// Cheap to share (`Arc`), cheap when idle: each rank appends to its own
/// lane under a lane-local mutex, so concurrent ranks never contend.
pub struct Tracer {
    lanes: Vec<Mutex<Vec<TraceEvent>>>,
    epoch: Instant,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").field("ranks", &self.lanes.len()).finish()
    }
}

impl Tracer {
    /// Create a tracer for `nranks` global ranks.
    pub fn new(nranks: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            lanes: (0..nranks).map(|_| Mutex::new(Vec::new())).collect(),
            epoch: Instant::now(),
        })
    }

    /// Number of ranks the tracer was sized for.
    pub fn num_ranks(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds elapsed since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a fully-formed event (caller supplies the timestamp; used
    /// by the simulator, whose clock is virtual).
    pub fn record(&self, ev: TraceEvent) {
        self.lanes[ev.rank].lock().expect("trace lane lock poisoned").push(ev);
    }

    /// Record an event stamped with the current wall-clock time (used by
    /// the thread-mode executor).
    #[allow(clippy::too_many_arguments)]
    pub fn record_now(
        &self,
        rank: Rank,
        partition: u32,
        round: u32,
        phase: Phase,
        op: TraceOp,
        bytes: u64,
        peer: Rank,
        offset: u64,
    ) {
        self.record(TraceEvent {
            t_ns: self.now_ns(),
            rank,
            partition,
            round,
            phase,
            op,
            bytes,
            peer,
            offset,
        });
    }

    /// Merge every rank's lane into one canonical, time-ordered trace.
    /// Ties sort by (rank, lane order), so the result is deterministic.
    /// Lanes are drained: a tracer can be reused for the next collective.
    pub fn drain(&self) -> Trace {
        let mut events = Vec::new();
        for lane in &self.lanes {
            events.append(&mut lane.lock().expect("trace lane lock poisoned"));
        }
        // Stable sort: same-timestamp events keep per-rank order.
        events.sort_by_key(|e| (e.t_ns, e.rank));
        Trace { events }
    }
}

/// A canonical (merged, time-ordered) trace of one or more collectives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Build a trace from raw events (sorted canonically).
    pub fn from_events(mut events: Vec<TraceEvent>) -> Trace {
        events.sort_by_key(|e| (e.t_ns, e.rank));
        Trace { events }
    }

    /// The ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Reduce to summary statistics.
    pub fn summary(&self) -> TraceSummary {
        let mut rounds = std::collections::BTreeSet::new();
        let mut aggregation_bytes = 0u64;
        let mut io_bytes = 0u64;
        let mut puts = 0usize;
        let mut flushes = 0usize;
        let mut signals = 0usize;
        let mut waits = 0usize;
        let mut fills: std::collections::BTreeMap<Rank, u64> = std::collections::BTreeMap::new();
        for e in &self.events {
            match e.op {
                TraceOp::RmaPut => {
                    rounds.insert((e.partition, e.round));
                    aggregation_bytes += e.bytes;
                    puts += 1;
                    if e.peer != NO_PEER {
                        *fills.entry(e.peer).or_default() += e.bytes;
                    }
                }
                TraceOp::Flush => {
                    rounds.insert((e.partition, e.round));
                    io_bytes += e.bytes;
                    flushes += 1;
                }
                TraceOp::Post | TraceOp::Complete => signals += 1,
                TraceOp::Start | TraceOp::Wait => waits += 1,
                TraceOp::Elect => {}
                // Fault/recovery events are not data movement.
                TraceOp::Crash | TraceOp::Reelect | TraceOp::Retry | TraceOp::Degrade => {}
            }
        }
        TraceSummary {
            rounds: rounds.len(),
            aggregation_bytes,
            io_bytes,
            puts,
            flushes,
            signals,
            waits,
            overlap_fraction: self.overlap_fraction(),
            aggregator_fill_bytes: fills.into_iter().collect(),
        }
    }

    /// Fraction of flushes that completed *after* aggregation work of a
    /// later round had already started in the same partition — the
    /// observable signature of the double-buffer pipeline. 0.0 when
    /// nothing overlaps (or there are no flushes).
    pub fn overlap_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut overlapped = 0usize;
        for e in &self.events {
            if e.op != TraceOp::Flush {
                continue;
            }
            total += 1;
            let overlaps = self.events.iter().any(|a| {
                a.op == TraceOp::RmaPut
                    && a.partition == e.partition
                    && a.round > e.round
                    && a.t_ns <= e.t_ns
            });
            if overlaps {
                overlapped += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            overlapped as f64 / total as f64
        }
    }

    /// Project onto the executor-independent structure: per partition,
    /// the elected aggregator and per-round byte totals per phase.
    ///
    /// Timestamps, `Sync`-phase events, and put granularity (thread mode
    /// records one event per chunk, the simulator one per source rank)
    /// are deliberately excluded — see the equivalence contract in
    /// DESIGN.md. A round that was flushed but saw no put was aggregated
    /// in place by its aggregator (thread mode records no put for it):
    /// its aggregation bytes are its flush bytes.
    pub fn structural(&self) -> StructuralTrace {
        use std::collections::BTreeMap;
        let mut parts: BTreeMap<u32, (Option<Rank>, BTreeMap<u32, RoundStructure>)> =
            BTreeMap::new();
        for e in &self.events {
            let entry = parts.entry(e.partition).or_default();
            match e.op {
                TraceOp::Elect => {
                    if let Some(prev) = entry.0 {
                        assert_eq!(
                            prev, e.peer,
                            "conflicting election winners recorded for partition {}",
                            e.partition
                        );
                    }
                    entry.0 = Some(e.peer);
                }
                TraceOp::RmaPut => {
                    let r = entry.1.entry(e.round).or_insert_with(|| RoundStructure {
                        round: e.round,
                        ..Default::default()
                    });
                    r.aggregation_bytes += e.bytes;
                }
                TraceOp::Flush => {
                    let r = entry.1.entry(e.round).or_insert_with(|| RoundStructure {
                        round: e.round,
                        ..Default::default()
                    });
                    r.io_bytes += e.bytes;
                    r.flush_segments += 1;
                }
                TraceOp::Post | TraceOp::Start | TraceOp::Complete | TraceOp::Wait => {}
                // Recovery events are executor-specific timing artifacts;
                // structural equivalence is only asserted for fault-free
                // runs, where none occur.
                TraceOp::Crash | TraceOp::Reelect | TraceOp::Retry | TraceOp::Degrade => {}
            }
        }
        StructuralTrace {
            partitions: parts
                .into_iter()
                .map(|(partition, (agg, rounds))| PartitionStructure {
                    partition,
                    aggregator: agg,
                    rounds: rounds
                        .into_values()
                        .map(|mut r| {
                            // Flushed with no put: the aggregator wrote
                            // its own bytes in place.
                            if r.aggregation_bytes == 0 {
                                r.aggregation_bytes = r.io_bytes;
                            }
                            r
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Serialize as JSON Lines, one event per line.
    pub fn write_jsonl(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        for e in &self.events {
            let phase = match e.phase {
                Phase::Aggregation => "aggregation",
                Phase::Io => "io",
                Phase::Sync => "sync",
            };
            let op = match e.op {
                TraceOp::RmaPut => "rma_put",
                TraceOp::Flush => "flush",
                TraceOp::Post => "post",
                TraceOp::Start => "start",
                TraceOp::Complete => "complete",
                TraceOp::Wait => "wait",
                TraceOp::Elect => "elect",
                TraceOp::Crash => "crash",
                TraceOp::Reelect => "reelect",
                TraceOp::Retry => "retry",
                TraceOp::Degrade => "degrade",
            };
            write!(
                w,
                "{{\"t_ns\":{},\"rank\":{},\"partition\":{},\"round\":{},\"phase\":\"{}\",\"op\":\"{}\",\"bytes\":{}",
                e.t_ns, e.rank, e.partition, e.round, phase, op, e.bytes
            )?;
            if e.offset != NO_OFFSET {
                write!(w, ",\"offset\":{}", e.offset)?;
            }
            if e.peer != NO_PEER {
                write!(w, ",\"peer\":{}", e.peer)?;
            }
            writeln!(w, "}}")?;
        }
        Ok(())
    }
}

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Distinct (partition, round) pairs that moved data.
    pub rounds: usize,
    /// Total bytes deposited into aggregation buffers.
    pub aggregation_bytes: u64,
    /// Total bytes moved between buffers and storage.
    pub io_bytes: u64,
    /// Number of put events.
    pub puts: usize,
    /// Number of flush events.
    pub flushes: usize,
    /// Number of synchronisation signals (`Post` + `Complete`).
    pub signals: usize,
    /// Number of blocking synchronisation waits (`Start` + `Wait`).
    pub waits: usize,
    /// Fraction of flushes overlapping later-round aggregation.
    pub overlap_fraction: f64,
    /// Bytes deposited per aggregator (global rank, bytes), ascending.
    pub aggregator_fill_bytes: Vec<(Rank, u64)>,
}

/// Executor-independent structure of a collective: what must agree
/// between thread mode and simulation mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralTrace {
    /// Per-partition structure, ascending by partition index.
    pub partitions: Vec<PartitionStructure>,
}

/// Structure of one schedule partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStructure {
    /// Partition index within the schedule.
    pub partition: u32,
    /// Elected aggregator (global rank); `None` if no election event.
    pub aggregator: Option<Rank>,
    /// Rounds that moved data, ascending.
    pub rounds: Vec<RoundStructure>,
}

/// Byte totals of one pipeline round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundStructure {
    /// Round index within the partition.
    pub round: u32,
    /// Bytes deposited into the aggregation buffer this round.
    pub aggregation_bytes: u64,
    /// Bytes flushed to storage this round.
    pub io_bytes: u64,
    /// Number of flush segments this round.
    pub flush_segments: usize,
}

/// Thread-mode instrumentation context for one rank inside one
/// partition's pipeline: carries the tracer plus the identity needed to
/// label events, and translates communicator-local peers to global
/// ranks. The current round is interior-mutable because the RMA window
/// holding the scope is shared across the round loop.
#[derive(Debug, Clone)]
pub struct TraceScope {
    tracer: Arc<Tracer>,
    rank: Rank,
    partition: u32,
    round: std::cell::Cell<u32>,
    /// Communicator-local rank -> global rank.
    peers: Arc<Vec<Rank>>,
}

impl TraceScope {
    /// Build a scope for `rank` (global) inside `partition`, with the
    /// partition communicator's member list (local index -> global).
    pub fn new(tracer: Arc<Tracer>, rank: Rank, partition: u32, peers: Vec<Rank>) -> TraceScope {
        TraceScope { tracer, rank, partition, round: std::cell::Cell::new(0), peers: Arc::new(peers) }
    }

    /// Advance to round `r`; later events are labelled with it.
    pub fn set_round(&self, r: u32) {
        self.round.set(r);
    }

    /// The tracer behind this scope.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The global rank of communicator-local rank `local`.
    pub fn peer_global(&self, local: Rank) -> Rank {
        self.peers.get(local).copied().unwrap_or(NO_PEER)
    }

    /// Record a put of `bytes` into communicator-local rank `target`'s
    /// window region at byte `offset` within it.
    pub fn rma_put(&self, target_local: Rank, offset: u64, bytes: u64) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            self.round.get(),
            Phase::Aggregation,
            TraceOp::RmaPut,
            bytes,
            self.peer_global(target_local),
            offset,
        );
    }

    /// One synchronisation event of `round` (not the scope's current
    /// round: an aggregator posts round `r + 1` while still in `r`).
    fn sync(&self, op: TraceOp, round: u32, peer: Rank) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            round,
            Phase::Sync,
            op,
            0,
            peer,
            NO_OFFSET,
        );
    }

    /// Record this rank opening its exposure of `round`.
    pub fn post(&self, round: u32) {
        self.sync(TraceOp::Post, round, NO_PEER);
    }

    /// Record this rank's return from the blocking start of `round` on
    /// communicator-local rank `target`'s window.
    pub fn start(&self, target_local: Rank, round: u32) {
        self.sync(TraceOp::Start, round, self.peer_global(target_local));
    }

    /// Record this rank's complete of `round` toward communicator-local
    /// rank `target`.
    pub fn complete(&self, target_local: Rank, round: u32) {
        self.sync(TraceOp::Complete, round, self.peer_global(target_local));
    }

    /// Record this rank's return from the blocking wait closing its
    /// exposure of `round`.
    pub fn wait(&self, round: u32) {
        self.sync(TraceOp::Wait, round, NO_PEER);
    }

    /// Record the election winner (global rank) for this partition.
    pub fn elect(&self, winner_global: Rank, bytes: u64) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            0,
            Phase::Aggregation,
            TraceOp::Elect,
            bytes,
            winner_global,
            NO_OFFSET,
        );
    }

    /// Record an aggregator failure (`crashed_global` = the failed
    /// aggregator's global rank) at the current round.
    pub fn crash(&self, crashed_global: Rank) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            self.round.get(),
            Phase::Sync,
            TraceOp::Crash,
            0,
            crashed_global,
            NO_OFFSET,
        );
    }

    /// Record a standby re-election (`winner_global` = the new
    /// aggregator). Every member records this on its own lane.
    pub fn reelect(&self, winner_global: Rank) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            self.round.get(),
            Phase::Sync,
            TraceOp::Reelect,
            0,
            winner_global,
            NO_OFFSET,
        );
    }

    /// Record one retried flush attempt of the segment at file `offset`.
    pub fn retry(&self, offset: u64, bytes: u64) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            self.round.get(),
            Phase::Io,
            TraceOp::Retry,
            bytes,
            NO_PEER,
            offset,
        );
    }

    /// Record the fall-back to direct per-rank writes at the current
    /// round.
    pub fn degrade(&self, bytes: u64) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            self.round.get(),
            Phase::Io,
            TraceOp::Degrade,
            bytes,
            NO_PEER,
            NO_OFFSET,
        );
    }

    /// Snapshot for handing to another thread (e.g. the I/O worker) so a
    /// flush can be recorded at its true completion time.
    pub fn stamp(&self) -> TraceStamp {
        TraceStamp {
            tracer: Arc::clone(&self.tracer),
            rank: self.rank,
            partition: self.partition,
            round: self.round.get(),
        }
    }
}

/// A `Send` snapshot of a [`TraceScope`] at a fixed round, used to
/// record I/O completions from the file worker thread.
#[derive(Debug, Clone)]
pub struct TraceStamp {
    tracer: Arc<Tracer>,
    rank: Rank,
    partition: u32,
    round: u32,
}

impl TraceStamp {
    /// Record a completed flush of `bytes` at file offset `offset`.
    ///
    /// Ordering contract: the I/O worker must record this *before*
    /// signalling the flush's completion handle, so the event sits in
    /// the lane ahead of anything the aggregator records after its
    /// `wait` returns — `tapioca-check` derives the pipeline's
    /// happens-before edges from exactly that order.
    pub fn flush_done(&self, offset: u64, bytes: u64) {
        self.tracer.record_now(
            self.rank,
            self.partition,
            self.round,
            Phase::Io,
            TraceOp::Flush,
            bytes,
            NO_PEER,
            offset,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, rank: Rank, part: u32, round: u32, op: TraceOp, bytes: u64, peer: Rank) -> TraceEvent {
        let phase = match op {
            TraceOp::RmaPut | TraceOp::Elect => Phase::Aggregation,
            TraceOp::Flush | TraceOp::Retry | TraceOp::Degrade => Phase::Io,
            TraceOp::Post
            | TraceOp::Start
            | TraceOp::Complete
            | TraceOp::Wait
            | TraceOp::Crash
            | TraceOp::Reelect => Phase::Sync,
        };
        TraceEvent {
            t_ns: t,
            rank,
            partition: part,
            round,
            phase,
            op,
            bytes,
            peer,
            offset: NO_OFFSET,
        }
    }

    #[test]
    fn drain_merges_and_sorts() {
        let tr = Tracer::new(3);
        tr.record(ev(30, 2, 0, 0, TraceOp::Flush, 5, NO_PEER));
        tr.record(ev(10, 1, 0, 0, TraceOp::RmaPut, 7, 0));
        tr.record(ev(10, 0, 0, 0, TraceOp::RmaPut, 3, 0));
        let t = tr.drain();
        let ranks: Vec<Rank> = t.events().iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2], "time then rank order");
        assert!(tr.drain().is_empty(), "drain empties the lanes");
    }

    #[test]
    fn summary_counts_phases() {
        let t = Trace::from_events(vec![
            ev(0, 0, 0, 0, TraceOp::Elect, 0, 1),
            ev(1, 0, 0, 0, TraceOp::RmaPut, 100, 1),
            ev(2, 1, 0, 0, TraceOp::RmaPut, 50, 1),
            ev(3, 0, 0, 0, TraceOp::Complete, 0, 1),
            ev(3, 1, 0, 0, TraceOp::Wait, 0, NO_PEER),
            ev(4, 1, 0, 0, TraceOp::Flush, 150, NO_PEER),
            ev(4, 1, 0, 1, TraceOp::Post, 0, NO_PEER),
            ev(5, 0, 0, 1, TraceOp::Start, 0, 1),
            ev(5, 0, 0, 1, TraceOp::RmaPut, 25, 1),
        ]);
        let s = t.summary();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.aggregation_bytes, 175);
        assert_eq!(s.io_bytes, 150);
        assert_eq!(s.puts, 3);
        assert_eq!(s.flushes, 1);
        assert_eq!((s.signals, s.waits), (2, 2));
        assert_eq!(s.aggregator_fill_bytes, vec![(1, 175)]);
    }

    #[test]
    fn overlap_detected_only_when_flush_lands_after_next_round_starts() {
        // flush of round 0 completes at t=10, after a round-1 put at t=8
        let overlapped = Trace::from_events(vec![
            ev(1, 0, 0, 0, TraceOp::RmaPut, 10, 1),
            ev(8, 0, 0, 1, TraceOp::RmaPut, 10, 1),
            ev(10, 1, 0, 0, TraceOp::Flush, 10, NO_PEER),
        ]);
        assert!(overlapped.overlap_fraction() > 0.99);

        // strictly serial: flush finishes before round 1 begins
        let serial = Trace::from_events(vec![
            ev(1, 0, 0, 0, TraceOp::RmaPut, 10, 1),
            ev(5, 1, 0, 0, TraceOp::Flush, 10, NO_PEER),
            ev(8, 0, 0, 1, TraceOp::RmaPut, 10, 1),
            ev(12, 1, 0, 1, TraceOp::Flush, 10, NO_PEER),
        ]);
        assert_eq!(serial.overlap_fraction(), 0.0);
    }

    #[test]
    fn structural_projection_ignores_time_and_granularity() {
        // Two traces: one with per-chunk puts, one with a single
        // aggregated put, different timestamps. Structure must agree.
        let fine = Trace::from_events(vec![
            ev(0, 0, 0, 0, TraceOp::Elect, 0, 2),
            ev(1, 0, 0, 0, TraceOp::RmaPut, 60, 2),
            ev(2, 0, 0, 0, TraceOp::RmaPut, 40, 2),
            ev(9, 2, 0, 0, TraceOp::Flush, 100, NO_PEER),
        ]);
        let coarse = Trace::from_events(vec![
            ev(100, 1, 0, 0, TraceOp::Elect, 0, 2),
            ev(200, 1, 0, 0, TraceOp::RmaPut, 100, 2),
            ev(900, 2, 0, 0, TraceOp::Flush, 100, NO_PEER),
        ]);
        assert_eq!(fine.structural(), coarse.structural());
        let s = fine.structural();
        assert_eq!(s.partitions.len(), 1);
        assert_eq!(s.partitions[0].aggregator, Some(2));
        assert_eq!(s.partitions[0].rounds[0].aggregation_bytes, 100);
        assert_eq!(s.partitions[0].rounds[0].flush_segments, 1);
    }

    #[test]
    #[should_panic(expected = "conflicting election winners")]
    fn conflicting_elections_are_rejected() {
        Trace::from_events(vec![
            ev(0, 0, 0, 0, TraceOp::Elect, 0, 1),
            ev(1, 1, 0, 0, TraceOp::Elect, 0, 2),
        ])
        .structural();
    }

    #[test]
    fn scope_translates_peers_and_rounds() {
        let tr = Tracer::new(8);
        let scope = TraceScope::new(Arc::clone(&tr), 5, 3, vec![4, 5, 7]);
        scope.elect(7, 1000);
        scope.rma_put(2, 128, 64); // local rank 2 -> global 7
        scope.set_round(1);
        scope.rma_put(0, 0, 32); // local rank 0 -> global 4
        scope.stamp().flush_done(4096, 96);
        // sync events carry their own round: a post of round 2 issued
        // while the scope is still in round 1
        scope.post(2);
        scope.start(2, 1);
        scope.complete(2, 1);
        scope.wait(1);
        let t = tr.drain();
        let sync: Vec<_> = t
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Sync)
            .map(|e| (e.op, e.round, e.peer))
            .collect();
        assert_eq!(sync, vec![
            (TraceOp::Post, 2, NO_PEER),
            (TraceOp::Start, 1, 7),
            (TraceOp::Complete, 1, 7),
            (TraceOp::Wait, 1, NO_PEER),
        ]);
        assert_eq!(t.len(), 8);
        let puts: Vec<_> =
            t.events().iter().filter(|e| e.op == TraceOp::RmaPut).cloned().collect();
        assert_eq!(puts[0].peer, 7);
        assert_eq!(puts[0].round, 0);
        assert_eq!(puts[0].offset, 128);
        assert_eq!(puts[1].peer, 4);
        assert_eq!(puts[1].round, 1);
        assert_eq!(puts[1].offset, 0);
        let flush = t.events().iter().find(|e| e.op == TraceOp::Flush).unwrap();
        assert_eq!((flush.rank, flush.partition, flush.round, flush.bytes), (5, 3, 1, 96));
        assert_eq!(flush.offset, 4096);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut put = ev(1, 0, 0, 0, TraceOp::RmaPut, 10, 1);
        put.offset = 512;
        let t = Trace::from_events(vec![put, ev(2, 1, 0, 0, TraceOp::Flush, 10, NO_PEER)]);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"op\":\"rma_put\""));
        assert!(lines[0].contains("\"peer\":1"));
        assert!(lines[0].contains("\"offset\":512"));
        assert!(lines[1].contains("\"op\":\"flush\""));
        assert!(!lines[1].contains("peer"), "NO_PEER omits the field");
        assert!(!lines[1].contains("offset"), "NO_OFFSET omits the field");
    }

    #[test]
    fn recovery_events_record_and_serialize() {
        let tr = Tracer::new(4);
        let scope = TraceScope::new(Arc::clone(&tr), 1, 0, vec![0, 1, 2]);
        scope.set_round(2);
        scope.crash(2);
        scope.reelect(0);
        scope.retry(4096, 128);
        scope.degrade(256);
        let t = tr.drain();
        assert_eq!(t.len(), 4);
        let ops: Vec<TraceOp> = t.events().iter().map(|e| e.op).collect();
        assert!(ops.contains(&TraceOp::Crash));
        assert!(ops.contains(&TraceOp::Reelect));
        let retry = t.events().iter().find(|e| e.op == TraceOp::Retry).unwrap();
        assert_eq!((retry.offset, retry.bytes, retry.round), (4096, 128, 2));
        // recovery events are not data movement and do not disturb the
        // structural projection
        let s = t.summary();
        assert_eq!((s.puts, s.flushes, s.io_bytes), (0, 0, 0));
        assert!(t.structural().partitions[0].rounds.is_empty());
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        for needle in ["\"crash\"", "\"reelect\"", "\"retry\"", "\"degrade\""] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.overlap_fraction(), 0.0);
        assert!(t.structural().partitions.is_empty());
        let s = t.summary();
        assert_eq!((s.rounds, s.puts, s.flushes), (0, 0, 0));
        assert_eq!(s.overlap_fraction, 0.0);
    }

    #[test]
    fn single_event_trace_edge_cases() {
        // One lone put: no flushes, so overlap is 0 by definition, and
        // the structure is a single partition with one data round and no
        // election.
        let t = Trace::from_events(vec![ev(5, 3, 2, 0, TraceOp::RmaPut, 77, 1)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.overlap_fraction(), 0.0);
        let s = t.structural();
        assert_eq!(s.partitions.len(), 1);
        assert_eq!(s.partitions[0].partition, 2);
        assert_eq!(s.partitions[0].aggregator, None);
        assert_eq!(s.partitions[0].rounds.len(), 1);
        assert_eq!(s.partitions[0].rounds[0].aggregation_bytes, 77);
        assert_eq!(s.partitions[0].rounds[0].io_bytes, 0);
    }

    #[test]
    fn flush_without_fences_edge_cases() {
        // Simulation-mode shape: flushes and puts, no synchronisation
        // calls. The flush completing after a later round's put still
        // counts as overlapped, and the structure records the io bytes.
        let t = Trace::from_events(vec![
            ev(1, 0, 0, 0, TraceOp::RmaPut, 10, 1),
            ev(2, 0, 0, 1, TraceOp::RmaPut, 10, 1),
            ev(9, 1, 0, 0, TraceOp::Flush, 10, NO_PEER),
        ]);
        assert!(t.overlap_fraction() > 0.99, "flush landed after round 1 started");
        let s = t.structural();
        assert_eq!(s.partitions[0].rounds[0].io_bytes, 10);
        assert_eq!(s.partitions[0].rounds[0].flush_segments, 1);
        assert_eq!(s.partitions[0].rounds[1].io_bytes, 0);

        // A flush-only trace: total == overlapped is impossible, so the
        // fraction is 0; the round was aggregated in place, so its
        // aggregation bytes are its io bytes.
        let only_flush = Trace::from_events(vec![ev(1, 0, 0, 0, TraceOp::Flush, 32, NO_PEER)]);
        assert_eq!(only_flush.overlap_fraction(), 0.0);
        let round = &only_flush.structural().partitions[0].rounds[0];
        assert_eq!((round.aggregation_bytes, round.io_bytes), (32, 32));
    }
}
