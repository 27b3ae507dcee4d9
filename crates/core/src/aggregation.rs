//! Thread-mode execution of the aggregation pipeline — Algorithm 3 of
//! the paper, run for real on `tapioca-mpi` primitives.
//!
//! Per partition (every rank processes the partitions it has data in, in
//! ascending index order — a global total order, so overlapping
//! partition memberships cannot deadlock):
//!
//! 1. the members form a sub-communicator and elect their aggregator
//!    with an `allreduce(MINLOC)` over the placement cost;
//! 2. the aggregator exposes **two** pipeline buffers in an RMA window;
//! 3. for each round `r`: members `put` their chunks into buffer
//!    `r % 2`; a fence closes the epoch; the aggregator launches a
//!    *non-blocking* flush of that buffer and — before releasing the next
//!    round — waits for the flush that previously used the *other*
//!    buffer (round `r-1`'s fill target is only reused in round `r+1`);
//!    a second fence releases the members into round `r + 1`.
//!
//! The net effect is the paper's overlap: the flush of round `r` runs
//! concurrently with the puts of round `r + 1`.
//!
//! ## Execution drivers
//!
//! The pipeline state of one partition lives in `PartitionRun`:
//! election results, the RMA window, the in-flight flush slots, and the
//! fault schedule. Rounds are executed one at a time through
//! `PartitionRun::run_round`, pulling payload bytes from a
//! `ChunkSource`. Two drivers share this machinery:
//!
//! * [`run_write_pipeline`] — the *batch* driver: all payloads are at
//!   hand (a `StagedSource`), so it simply runs every round of every
//!   partition back to back. The baseline and equivalence tests use it
//!   as the reference executor.
//! * the *streaming* session in [`crate::api`] — rounds run as soon as
//!   their contributions arrive at `write()` call sites, and partition
//!   state is cached across epochs (`CachedPart`) so repeated
//!   checkpoints skip subgroup formation, election, and window
//!   allocation.
//!
//! Both drivers issue the identical collective sequence, so file bytes,
//! traces, and stats cannot diverge between them.
//!
//! ## Fault handling
//!
//! When the config carries a [`tapioca_mpi::FaultPlan`], the pipeline
//! consults it *purely*: every member derives the identical fault
//! schedule from the plan's seed, so recovery decisions are collectively
//! computable and no extra messaging (which could itself deadlock) is
//! needed. Three rungs, in escalating order:
//!
//! * **Transient flush errors** within the retry budget are absorbed by
//!   the file worker (bounded retry with exponential backoff under the
//!   config's [`tapioca_mpi::IoPolicy`]); the aggregator records one
//!   `Retry` trace event per failed attempt.
//! * **Aggregator crash** at round `cr`: the crashed aggregator is
//!   demoted after the fence that closes round `cr` (its in-flight
//!   flushes are drained first, so rounds `< cr` are durable); the
//!   members re-elect a standby via the same MINLOC with the dead
//!   candidate's cost forced to infinity, allocate a fresh window (a new
//!   fence epoch), and *replay* the lost round's puts into it. Rounds
//!   `>= cr` then flow through the standby.
//! * **Graceful degradation**: a fault that exhausts the retry budget
//!   (or a declared stall) is detected *before* the round runs — every
//!   member writes its own remaining chunks directly to the file and the
//!   partition exits through one barrier. Slower, but deadlock-free and
//!   byte-identical. `run_round` reports the degrade to its driver,
//!   which performs the direct writes (the batch driver immediately;
//!   the streaming session as the remaining bytes arrive).

use std::sync::Arc;

use tapioca_mpi::{Comm, DepositBoard, IoError, IoHandle, Rank, SharedFile, Window};
use tapioca_topology::TopologyProvider;

#[cfg(feature = "trace")]
use tapioca_trace::TraceScope;

use crate::config::TapiocaConfig;
use crate::error::{io_err, Result};
use crate::placement::election_cost;
use crate::schedule::{
    compute_coalesce_plan, Chunk, CoalescePlan, FlushSegment, PartitionInfo, Schedule,
};

/// Key namespace so several `Session`s on one communicator
/// never collide in the subgroup registry.
fn subgroup_key(epoch: u64, partition: usize) -> u64 {
    epoch * 1_000_000 + partition as u64
}

/// Per-rank instrumentation of one pipeline run — what this rank's
/// thread actually did, for observability and for tests that check the
/// executed traffic against the schedule's predictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Partitions this rank participated in.
    pub partitions: usize,
    /// Partitions this rank was elected aggregator of (re-elections
    /// included).
    pub elected: usize,
    /// One-sided wire puts issued: one per uncoalesced chunk plus one
    /// per merged run led by this rank (crash replays re-count).
    pub puts: u64,
    /// Bytes deposited via puts.
    pub put_bytes: u64,
    /// Fences passed.
    pub fences: u64,
    /// Flush operations issued (as aggregator).
    pub flushes: u64,
    /// Bytes flushed to the file (as aggregator).
    pub flush_bytes: u64,
    /// Faults injected from the config's plan (failed flush attempts,
    /// crashes, degrade triggers; counted once per partition event).
    pub faults_injected: u64,
    /// Flush retries performed by the file worker for this rank's
    /// aggregated segments.
    pub retries: u64,
    /// Standby re-elections after an aggregator crash (counted by the
    /// partition's lowest member).
    pub reelections: u64,
    /// Partitions this rank participated in that fell back to direct
    /// per-rank writes (every member counts its own participation, so
    /// each rank can report a degraded outcome).
    pub degraded: u64,
    /// Merged puts issued by this rank as a node leader (each replaces
    /// `>= 2` ordinary puts on the wire).
    pub coalesced_puts: u64,
    /// This rank's chunks that travelled inside a merged put (deposited
    /// into a node leader's gather buffer instead of being put
    /// individually).
    pub coalesced_chunks: u64,
    /// Bytes copied into pending staging buffers by the streaming
    /// session because they arrived before (or after) the round that
    /// consumes them could run. Zero for in-order call sequences — the
    /// streamed payload then flows straight from the caller's slice
    /// into the RMA window.
    pub staging_copy_bytes: u64,
}

impl IoStats {
    /// Accumulate another run's counters.
    pub fn merge(&mut self, other: &IoStats) {
        self.partitions += other.partitions;
        self.elected += other.elected;
        self.puts += other.puts;
        self.put_bytes += other.put_bytes;
        self.fences += other.fences;
        self.flushes += other.flushes;
        self.flush_bytes += other.flush_bytes;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.reelections += other.reelections;
        self.degraded += other.degraded;
        self.coalesced_puts += other.coalesced_puts;
        self.coalesced_chunks += other.coalesced_chunks;
        self.staging_copy_bytes += other.staging_copy_bytes;
    }
}

/// Where `run_round` reads the payload of a chunk from. `idx` is the
/// chunk's position in the partition chunk slice handed to `run_round`,
/// letting the streaming session address its per-chunk state without
/// searching.
pub(crate) trait ChunkSource {
    /// The bytes of chunk `c` (this rank's `idx`-th chunk of the
    /// partition being run).
    fn chunk_data(&self, idx: usize, c: &Chunk) -> &[u8];
}

/// Batch source: every declared variable fully materialized, indexed by
/// `Chunk::var` / `Chunk::var_offset`.
pub(crate) struct StagedSource<'a>(pub &'a [Vec<u8>]);

impl ChunkSource for StagedSource<'_> {
    fn chunk_data(&self, _idx: usize, c: &Chunk) -> &[u8] {
        &self.0[c.var][c.var_offset as usize..(c.var_offset + c.len) as usize]
    }
}

/// One in-flight flush plus what is needed to recover it: its segment
/// and the window slot it was read from (the slot is not refilled until
/// the round after the drain, so its bytes are intact for a fallback).
struct Flight {
    handle: IoHandle,
    seg: FlushSegment,
    slot: usize,
}

/// Settle one completed (or failed) zero-copy flush: nothing to do on
/// success (the worker drained the window views in place); on failure,
/// fall back to a synchronous direct write of the same bytes, re-read
/// from the window slot — it is only refilled two rounds after the
/// flush launch, so its bytes are intact even after a timeout.
fn settle_parts(
    err: Option<IoError>,
    seg: FlushSegment,
    slot: usize,
    win: &Window,
    my_idx: usize,
    b: usize,
    file: &SharedFile,
) -> Result<()> {
    match err {
        None => Ok(()),
        Some(_) => {
            let mut d = vec![0u8; seg.len as usize];
            win.read_local_into(my_idx, slot * b + seg.buf_offset as usize, &mut d);
            file.write_at(seg.file_offset, &d).map_err(|e| io_err("write_at", e))
        }
    }
}

/// Wait for one in-flight flush, then settle it (see [`settle_parts`]).
fn settle_flight(
    f: Flight,
    win: &Window,
    my_idx: usize,
    b: usize,
    file: &SharedFile,
    timeout: std::time::Duration,
) -> Result<()> {
    let Flight { handle, seg, slot } = f;
    let (_, err) = handle.wait_parts_timeout(Some(timeout));
    settle_parts(err, seg, slot, win, my_idx, b, file)
}

/// What [`PartitionRun::run_round`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundOutcome {
    /// The round's puts, fences, and flush executed; the run advanced.
    Ran,
    /// The partition degraded *at* this round: the fault schedule
    /// exhausts the retry budget here, so no collective work ran. The
    /// driver must write every remaining chunk (round `>=` the current
    /// [`PartitionRun::next_round`]) directly to the file, then call
    /// [`PartitionRun::finish`].
    Degraded,
}

/// Per-rank coalescing state of one partition: the shared run plan,
/// the node-leader gather window (one full aggregation buffer on
/// leaders, empty elsewhere, finely paned so concurrent member
/// deposits rarely contend), and the deposit board tracking how many
/// chunks of the leader's runs have landed this round. Deposits land
/// at their chunk's `buf_offset`, so every run the leader owns in a
/// round reads its packed range directly; fences separate rounds, so
/// a single gather buffer (no double buffering) suffices. The
/// rendezvous is wait-free: the depositor whose counter bump reaches
/// the round's expected total (a pure function of the plan) forwards
/// the leader's merged runs itself and retires the count, so no
/// thread ever blocks waiting for co-members.
pub(crate) struct GatherCtx {
    plan: Arc<CoalescePlan>,
    gather: Window,
    board: DepositBoard,
}

/// Partition state worth keeping across epochs when the declarations —
/// and therefore the schedule and the election inputs — are unchanged:
/// the sub-communicator, the MINLOC winner and this rank's cost, the
/// RMA window (with both pipeline buffers), and the coalescing gather
/// state. Only cacheable for fault-free configs (a crash replaces the
/// window mid-run).
pub(crate) struct CachedPart {
    pcomm: Comm,
    agg_idx: usize,
    my_cost: f64,
    win: Window,
    coalesce: Option<GatherCtx>,
}

/// The live pipeline state of one partition on this rank, between
/// [`PartitionRun::enter`] and [`PartitionRun::finish`]. Drivers feed
/// it rounds in ascending order; it performs the collective sequence of
/// Algorithm 3 exactly as the historical batch loop did.
pub(crate) struct PartitionRun {
    pcomm: Comm,
    #[cfg(feature = "trace")]
    me: usize,
    my_idx: usize,
    agg_idx: usize,
    my_cost: f64,
    win: Window,
    inflight: [Vec<Flight>; 2],
    coalesce: Option<GatherCtx>,
    /// First round replayed through a re-elected standby; window slot
    /// of round r is (r - base) % 2 so the fresh window starts at 0.
    base: usize,
    crash_round: Option<usize>,
    degrade_at: Option<usize>,
    /// Next round to execute; on a degrade outcome this stays at the
    /// degrade round.
    pub(crate) next_round: usize,
    degraded: bool,
}

impl PartitionRun {
    /// Join partition `part`: form (or restore) the sub-communicator,
    /// elect (or restore) the aggregator, allocate (or reuse) the RMA
    /// window, and derive the fault schedule. With a [`CachedPart`] the
    /// collective prologue — subgroup formation, `allreduce(MINLOC)`,
    /// window allocation — is skipped entirely; the trace scope and the
    /// election event are still re-recorded so every epoch's trace is
    /// self-contained.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enter(
        comm: &Comm,
        part: &PartitionInfo,
        cfg: &TapiocaConfig,
        topo: &dyn TopologyProvider,
        epoch: u64,
        cache: Option<CachedPart>,
        coalesce: Option<&Arc<CoalescePlan>>,
        stats: &mut IoStats,
    ) -> PartitionRun {
        let b = cfg.buffer_size as usize;
        #[allow(unused_mut)]
        let (pcomm, agg_idx, my_cost, mut win, coalesce) = match cache {
            Some(c) => (c.pcomm, c.agg_idx, c.my_cost, c.win, c.coalesce),
            None => {
                let pcomm = comm.subgroup(&part.members, subgroup_key(epoch, part.index));
                let my_idx = pcomm.rank();

                // Aggregator election: my cost, MINLOC across the
                // partition.
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
                // One pane per pipeline slot: a flush draining slot A
                // in place coexists with round r+1's puts filling
                // slot B instead of serializing on one region lock.
                let win = Window::allocate_paned(
                    &pcomm,
                    if my_idx == agg_idx { 2 * b } else { 0 },
                    b,
                );
                let ctx = coalesce.and_then(|plan| {
                    if !plan.runs().iter().any(|run| run.partition == part.index) {
                        return None;
                    }
                    // Collective pair: every member agrees on whether
                    // the partition has runs (the plan is pure shared
                    // data) and passes through both allocations.
                    let leads = plan.runs().iter().any(|run| {
                        run.partition == part.index && run.leader == part.members[my_idx]
                    });
                    let gather = Window::allocate_paned(
                        &pcomm,
                        if leads { b } else { 0 },
                        (b / 16).max(64),
                    );
                    let board = DepositBoard::allocate(&pcomm);
                    Some(GatherCtx { plan: Arc::clone(plan), gather, board })
                });
                (pcomm, agg_idx, my_cost, win, ctx)
            }
        };
        let my_idx = pcomm.rank();
        stats.partitions += 1;
        if my_idx == agg_idx {
            stats.elected += 1;
        }

        // Fault schedule of this partition, derived identically by every
        // member (a pure function of the shared plan).
        let faults = cfg
            .faults
            .as_ref()
            .map(|p| part.fault_rounds(p, &cfg.io_policy))
            .unwrap_or_default();
        let crash_round = faults.crash.map(|r| r as usize);
        let degrade_at = faults.degrade.map(|r| r as usize);

        // Attach this rank's trace scope to the window so puts and
        // fences are recorded at their call sites. The election result
        // is recorded once per partition, by the lowest member.
        #[cfg(feature = "trace")]
        if let Some(tracer) = &cfg.tracer {
            let scope = TraceScope::new(
                Arc::clone(tracer),
                comm.rank(),
                part.index as u32,
                part.members.clone(),
            );
            if my_idx == 0 {
                scope.elect(part.members[agg_idx], part.total_bytes());
            }
            win.set_trace_scope(scope);
        }

        PartitionRun {
            pcomm,
            #[cfg(feature = "trace")]
            me: comm.rank(),
            my_idx,
            agg_idx,
            my_cost,
            win,
            inflight: [Vec::new(), Vec::new()],
            coalesce,
            base: 0,
            crash_round,
            degrade_at,
            next_round: 0,
            degraded: false,
        }
    }

    /// Blocking drain of one in-flight slot, in launch order.
    fn drain_slot(&mut self, slot: usize, file: &SharedFile, cfg: &TapiocaConfig) -> Result<()> {
        let b = cfg.buffer_size as usize;
        for f in std::mem::take(&mut self.inflight[slot]) {
            settle_flight(f, &self.win, self.my_idx, b, file, cfg.io_policy.op_timeout)?;
        }
        Ok(())
    }

    /// Completer half of coalescing for round `r`: forward every run
    /// `leader_global` leads this round as **one** merged put from the
    /// leader's gather buffer into the aggregator's slot. Called by
    /// whichever co-located depositor's counter bump completed the
    /// round's expected total — possibly the leader itself, possibly a
    /// co-member — so the traced operation is pinned to the leader's
    /// lane via `put_from`'s `lane` argument, keeping the wire-put
    /// schedule deterministic for the static conformance bridge.
    #[allow(clippy::too_many_arguments)]
    fn forward_merged_runs(
        &self,
        part: &PartitionInfo,
        r: usize,
        leader_global: Rank,
        leader_local: usize,
        buf: usize,
        b: usize,
        stats: &mut IoStats,
    ) {
        let ctx = self.coalesce.as_ref().expect("completer fires only with coalescing active");
        for run in ctx.plan.runs_led_by(part.index, r as u32, leader_global) {
            self.win.put_from(
                self.agg_idx,
                buf * b + run.buf_offset as usize,
                &ctx.gather,
                leader_local,
                run.buf_offset as usize,
                run.len as usize,
                run.chunks.len() as u32,
                leader_global,
            );
            stats.puts += 1;
            stats.coalesced_puts += 1;
        }
    }

    /// Re-issue this rank's merged puts of round `r` into a fresh
    /// post-crash window (slot 0). The gather buffer survived the
    /// crash with its bytes intact and the round's completer retired
    /// the deposit count before the lost fill's fence, so no member
    /// re-deposits and each leader replays its own runs directly.
    fn replay_merged_runs(&mut self, part: &PartitionInfo, r: usize, stats: &mut IoStats) {
        let Some(ctx) = self.coalesce.as_ref() else { return };
        let me = part.members[self.my_idx];
        for run in ctx.plan.runs_led_by(part.index, r as u32, me) {
            self.win.put_from(
                self.agg_idx,
                run.buf_offset as usize,
                &ctx.gather,
                self.my_idx,
                run.buf_offset as usize,
                run.len as usize,
                run.chunks.len() as u32,
                me,
            );
            stats.puts += 1;
            stats.coalesced_puts += 1;
        }
    }

    /// Execute round `self.next_round` of `part`. `chunks` is this
    /// rank's full chunk slice of the partition (sorted by
    /// `(round, file_offset)`); `src` supplies each chunk's bytes.
    ///
    /// On [`RoundOutcome::Ran`] the run advanced to the next round. On
    /// [`RoundOutcome::Degraded`] the in-flight flushes were drained and
    /// the barrier obligations recorded, but the remaining chunks are
    /// the *driver's* to write directly (their offsets are disjoint from
    /// everything the pipeline flushed, so ordering cannot change file
    /// bytes).
    pub(crate) fn run_round(
        &mut self,
        part: &PartitionInfo,
        chunks: &[Chunk],
        file: &SharedFile,
        cfg: &TapiocaConfig,
        src: &dyn ChunkSource,
        stats: &mut IoStats,
    ) -> Result<RoundOutcome> {
        let r = self.next_round;
        let round = &part.rounds[r];
        let b = cfg.buffer_size as usize;
        let policy = cfg.io_policy;
        let plan = cfg.faults.as_ref();

        #[cfg(feature = "trace")]
        if let Some(scope) = self.win.trace_scope() {
            scope.set_round(r as u32);
        }

        // Graceful degradation: a fault at this round exhausts the
        // retry budget. Every member knows (the plan is shared), so
        // instead of collectively feeding an aggregator that cannot
        // flush, each member writes its own remaining chunks directly.
        // Slower, but byte-identical and deadlock-free.
        if self.degrade_at == Some(r) {
            #[cfg(feature = "trace")]
            if self.my_idx == 0 {
                if let Some(scope) = self.win.trace_scope() {
                    let remaining: u64 = part.rounds[r..].iter().map(|rd| rd.bytes).sum();
                    scope.degrade(remaining);
                }
            }
            if self.my_idx == self.agg_idx {
                self.drain_slot(0, file, cfg)?;
                self.drain_slot(1, file, cfg)?;
            }
            stats.degraded += 1;
            if self.my_idx == 0 {
                stats.faults_injected += 1;
            }
            self.degraded = true;
            return Ok(RoundOutcome::Degraded);
        }

        let mut buf = (r - self.base) % 2;
        for (i, c) in chunks.iter().enumerate() {
            if c.round as usize != r {
                continue;
            }
            let data = src.chunk_data(i, c);
            match self.coalesce.as_ref().and_then(|ctx| ctx.plan.run_for_chunk(c)) {
                Some(run) => {
                    // Intra-node staging, not a wire op: deposit into
                    // the node leader's gather buffer and bump its
                    // deposit counter. Untraced — only the merged put
                    // is a window access the checker models. The
                    // depositor whose bump completes the round's
                    // expected total (a pure function of the plan, so
                    // exactly one member observes it) retires the
                    // count and forwards the leader's packed runs
                    // inline; nobody ever blocks on the board.
                    let leader_global = run.leader;
                    let leader = part
                        .members
                        .binary_search(&leader_global)
                        .expect("run leader is a partition member");
                    let ctx =
                        self.coalesce.as_ref().expect("a coalesced run implies a gather context");
                    ctx.gather.put(leader, c.buf_offset as usize, data);
                    stats.put_bytes += c.len;
                    stats.coalesced_chunks += 1;
                    let expected: u64 = ctx
                        .plan
                        .runs_led_by(part.index, r as u32, leader_global)
                        .map(|rn| rn.chunks.len() as u64)
                        .sum();
                    if ctx.board.add(leader, 1) == expected {
                        ctx.board.sub(leader, expected);
                        self.forward_merged_runs(part, r, leader_global, leader, buf, b, stats);
                    }
                }
                None => {
                    self.win.put(self.agg_idx, buf * b + c.buf_offset as usize, data);
                    stats.puts += 1;
                    stats.put_bytes += c.len;
                }
            }
        }
        // Close the access epoch of round r.
        self.win.fence(&self.pcomm);
        stats.fences += 1;

        // Aggregator crash: the fill of round r is lost with the
        // crashed window. Drain the old aggregator's in-flight
        // flushes (rounds < r stay durable), re-elect a standby with
        // the dead candidate excluded, open a fresh window (a new
        // fence epoch for the checker), and replay round r into it.
        if self.crash_round == Some(r) {
            let old_agg = self.agg_idx;
            if self.my_idx == old_agg {
                self.drain_slot(0, file, cfg)?;
                self.drain_slot(1, file, cfg)?;
            }
            #[cfg(feature = "trace")]
            if self.my_idx == 0 {
                if let Some(scope) = self.win.trace_scope() {
                    scope.crash(part.members[old_agg]);
                }
            }
            let standby_cost = if self.my_idx == old_agg { f64::INFINITY } else { self.my_cost };
            let (_, new_agg) = self.pcomm.allreduce_min_loc(standby_cost);
            self.agg_idx = new_agg;
            if self.my_idx == 0 {
                stats.reelections += 1;
                stats.faults_injected += 1;
            }
            if self.my_idx == self.agg_idx {
                stats.elected += 1;
            }
            self.win = Window::allocate_paned(
                &self.pcomm,
                if self.my_idx == self.agg_idx { 2 * b } else { 0 },
                b,
            );
            #[cfg(feature = "trace")]
            if let Some(tracer) = &cfg.tracer {
                let scope = TraceScope::new(
                    Arc::clone(tracer),
                    self.me,
                    part.index as u32,
                    part.members.clone(),
                );
                scope.set_round(r as u32);
                // Every member marks the epoch reset on its own lane
                // before any replayed put.
                scope.reelect(part.members[self.agg_idx]);
                self.win.set_trace_scope(scope);
            }
            self.base = r;
            buf = 0;
            for (i, c) in chunks.iter().enumerate() {
                if c.round as usize != r {
                    continue;
                }
                if let Some(ctx) = &self.coalesce {
                    if ctx.plan.run_for_chunk(c).is_some() {
                        // Already deposited before the lost fill; the
                        // leader alone replays the merged put below.
                        continue;
                    }
                }
                let data = src.chunk_data(i, c);
                self.win.put(self.agg_idx, c.buf_offset as usize, data);
                stats.puts += 1;
                stats.put_bytes += c.len;
            }
            self.replay_merged_runs(part, r, stats);
            self.win.fence(&self.pcomm);
            stats.fences += 1;
        }

        if self.my_idx == self.agg_idx {
            let mut handles: Vec<Flight> = Vec::with_capacity(round.segments.len());
            for (s, seg) in round.segments.iter().enumerate() {
                let hint =
                    plan.and_then(|p| p.flush_fault(part.index as u32, r as u32, s as u32));
                if let Some(h) = &hint {
                    // Within-budget by construction (the exhausting
                    // round degrades above); count the injected
                    // failures and record one Retry event each.
                    stats.faults_injected += h.fail_attempts as u64;
                    stats.retries += h.fail_attempts as u64;
                    #[cfg(feature = "trace")]
                    if let Some(scope) = self.win.trace_scope() {
                        for _ in 0..h.fail_attempts {
                            scope.retry(seg.file_offset, seg.len);
                        }
                    }
                }
                // Zero-copy flush: hand the worker refcounted views of
                // the window slot instead of copying it into an owned
                // buffer. The slot is refilled two rounds later, after
                // this flush has drained, so the bytes stay stable for
                // the write and for the failure fallback's re-read.
                let view = self.win.segment(
                    self.my_idx,
                    buf * b + seg.buf_offset as usize,
                    seg.len as usize,
                );
                stats.flushes += 1;
                stats.flush_bytes += seg.len;
                #[cfg(feature = "trace")]
                let h = file.iwrite_at_policy(
                    seg.file_offset,
                    view,
                    policy,
                    hint,
                    self.win.trace_scope().map(|s| s.stamp()),
                );
                #[cfg(not(feature = "trace"))]
                let h = file.iwrite_at_policy(seg.file_offset, view, policy, hint);
                handles.push(Flight { handle: h, seg: *seg, slot: buf });
            }
            if cfg.pipelining {
                self.inflight[buf] = handles;
                // Round r+1 fills the other buffer; its previous
                // flush (round r-1) must have drained first.
                self.drain_slot((buf + 1) % 2, file, cfg)?;
            } else {
                for f in handles {
                    settle_flight(f, &self.win, self.my_idx, b, file, policy.op_timeout)?;
                }
            }
        }
        // Release every member into round r+1 only after the
        // aggregator confirmed the reused buffer is free.
        self.win.fence(&self.pcomm);
        stats.fences += 1;
        self.next_round = r + 1;
        Ok(RoundOutcome::Ran)
    }

    /// Leave the partition: drain both in-flight slots in order, then
    /// the closing barrier — all flushes of this partition are durable
    /// before anyone leaves.
    pub(crate) fn finish(&mut self, file: &SharedFile, cfg: &TapiocaConfig) -> Result<()> {
        if self.my_idx == self.agg_idx {
            self.drain_slot(0, file, cfg)?;
            self.drain_slot(1, file, cfg)?;
        }
        self.pcomm.barrier();
        Ok(())
    }

    /// Keep the reusable state for the next epoch. Only valid after
    /// [`PartitionRun::finish`] on a fault-free run: a crash replaces
    /// the window mid-run and a degrade abandons the pipeline, so both
    /// invalidate the cache.
    pub(crate) fn into_cache(self) -> CachedPart {
        debug_assert!(
            !self.degraded && self.crash_round.is_none(),
            "faulted partitions must not be cached"
        );
        CachedPart {
            pcomm: self.pcomm,
            agg_idx: self.agg_idx,
            my_cost: self.my_cost,
            win: self.win,
            coalesce: self.coalesce,
        }
    }
}

/// Run the write pipeline for this rank, batch-style. `staged[var]`
/// holds the data of the rank's declared write `var`; lengths must
/// match the declarations used to compute `schedule`.
pub fn run_write_pipeline(
    comm: &Comm,
    schedule: &Schedule,
    staged: &[Vec<u8>],
    file: &SharedFile,
    cfg: &TapiocaConfig,
    topo: &dyn TopologyProvider,
    epoch: u64,
) -> Result<IoStats> {
    let me = comm.rank();
    let mut stats = IoStats::default();
    let src = StagedSource(staged);
    let coalesce: Option<Arc<CoalescePlan>> = cfg
        .coalescing
        .then(|| Arc::new(compute_coalesce_plan(schedule, |rk| topo.node_of_rank(rk))));

    for part in &schedule.partitions {
        if part.members.binary_search(&me).is_err() {
            continue;
        }
        let my_chunks: Vec<Chunk> = schedule.chunks_by_rank[me]
            .iter()
            .filter(|c| c.partition == part.index)
            .copied()
            .collect();

        let mut run =
            PartitionRun::enter(comm, part, cfg, topo, epoch, None, coalesce.as_ref(), &mut stats);
        while run.next_round < part.rounds.len() {
            match run.run_round(part, &my_chunks, file, cfg, &src, &mut stats)? {
                RoundOutcome::Ran => {}
                RoundOutcome::Degraded => {
                    let dr = run.next_round;
                    for (i, c) in my_chunks.iter().enumerate() {
                        if c.round as usize >= dr {
                            file.write_at(c.file_offset, src.chunk_data(i, c))
                                .map_err(|e| io_err("write_at", e))?;
                        }
                    }
                    break;
                }
            }
        }
        run.finish(file, cfg)?;
    }
    Ok(stats)
}

/// Run the two-phase *read* pipeline: aggregators read each round's
/// segments from the file into their window buffer; members fetch their
/// chunks with one-sided `get`s. Returns one buffer per declared var.
///
/// Reads use a single buffer (no flush to overlap with); the paper's
/// machinery — partitions, election, rounds, fences — is identical.
/// Faults are not injected on the read path.
pub fn run_read_pipeline(
    comm: &Comm,
    schedule: &Schedule,
    var_lens: &[u64],
    file: &SharedFile,
    cfg: &TapiocaConfig,
    topo: &dyn TopologyProvider,
    epoch: u64,
) -> Result<Vec<Vec<u8>>> {
    let me = comm.rank();
    let b = cfg.buffer_size as usize;
    let mut out: Vec<Vec<u8>> = var_lens.iter().map(|&l| vec![0u8; l as usize]).collect();

    for part in &schedule.partitions {
        if part.members.binary_search(&me).is_err() {
            continue;
        }
        let pcomm = comm.subgroup(&part.members, subgroup_key(epoch, part.index));
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

        let my_chunks: Vec<_> = schedule.chunks_by_rank[me]
            .iter()
            .filter(|c| c.partition == part.index)
            .collect();

        for (r, round) in part.rounds.iter().enumerate() {
            if my_idx == agg_idx {
                for seg in &round.segments {
                    let data = file
                        .read_at(seg.file_offset, seg.len as usize)
                        .map_err(|e| io_err("read_at", e))?;
                    win.write_local(my_idx, seg.buf_offset as usize, &data);
                }
            }
            win.fence(&pcomm);
            for c in my_chunks.iter().filter(|c| c.round as usize == r) {
                // One-sided read straight into the output buffer — no
                // intermediate Vec per chunk.
                win.get_into(
                    agg_idx,
                    c.buf_offset as usize,
                    &mut out[c.var][c.var_offset as usize..(c.var_offset + c.len) as usize],
                );
            }
            win.fence(&pcomm);
        }
        pcomm.barrier();
    }
    Ok(out)
}
