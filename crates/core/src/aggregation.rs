//! Thread-mode execution of the aggregation pipeline — Algorithm 3 of
//! the paper, run for real on `tapioca-mpi` primitives.
//!
//! Per partition (every rank processes the partitions it has data in, in
//! ascending index order — a global total order, so overlapping
//! partition memberships cannot deadlock):
//!
//! 1. the members form a sub-communicator and elect their aggregator
//!    with an `allreduce(MINLOC)` over the placement cost;
//! 2. the aggregator exposes **two** pipeline buffers in an RMA window
//!    (steps 1–2 are `PartCtx::form`, the one place a partition's
//!    collective context is built, for writes and reads alike);
//! 3. round `r` is synchronised between the aggregator and the ranks
//!    that own a chunk of it (its *contributors*, a pure function of
//!    the schedule — [`RoundRoster`]) and nobody else, with MPI's
//!    post/start/complete/wait:
//!    * the aggregator **posts** buffer `r % 2` to round `r`'s
//!      contributors once the write that last used it (round `r - 2`)
//!      is done — for round 0 at partition entry, for round `r + 1`
//!      right after the wait that closes round `r`;
//!    * a contributor **starts** (blocks only until that post), `put`s
//!      its chunks into the buffer and **completes** (a signal);
//!    * the aggregator alone **waits** for the round's contributors,
//!      posts round `r + 1` into the other buffer, and marks buffer
//!      `r % 2` *due*. It writes a due buffer to the file itself, on its
//!      own thread, in place from the window, as late as it can without
//!      blocking on it: before its next wait, before a crash
//!      re-election or a degrade, before `finish`'s closing reduction,
//!      and before the session hands control back to the caller
//!      (`PartitionRun::write_due`). Unpipelined, it writes the buffer
//!      at once and then posts that same buffer for round `r + 1`.
//!
//!    A rank with no chunk in round `r` makes no call in it and runs
//!    straight on to its next contributing round
//!    (`PartitionRun::skip_idle`).
//!
//! The net effect is the paper's overlap: the contributors of round
//! `r + 1` put into one buffer, each on its own thread, while the
//! aggregator writes round `r` from the other; the aggregator's own put
//! into round `r + 1` comes first. No flush is handed to another
//! thread, so none wakes one on the round's critical path.
//!
//! The **read** direction (`PartCtx::read_rounds`) is the same rounds on
//! the same context with the roles mirrored: the aggregator fills the
//! window's first slot from the file and posts, the round's
//! contributors `get` their chunks, and the aggregator waits for them
//! before it reads round `r + 1` into that slot.
//!
//! **Deviation from the paper.** Algorithm 3 closes and re-opens every
//! round with `MPI_Win_fence`, a collective over *all* members of the
//! partition. We use MPI's generalized active-target calls instead
//! because the shared schedule tells every rank who contributes to each
//! round: the other members have nothing to put and nothing to wait
//! for, so waking them twice a round is pure cost. What stays
//! collective: partition entry (sub-communicator, election, window
//! allocation), the crash-round re-election, and the closing flag
//! reduction of `PartitionRun::finish`.
//!
//! A failed write never strands the partition: the aggregator records
//! its first error and keeps posting and waiting, and `finish`'s flag
//! reduction hands the verdict to every member.
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
//!   the aggregator's own write (bounded retry with exponential backoff
//!   under the config's [`tapioca_mpi::IoPolicy`], on its thread); it
//!   records one `Retry` trace event per failed attempt.
//! * **Aggregator crash** at round `cr`: the crashed aggregator is
//!   demoted after its wait that closes round `cr` (it wrote round
//!   `cr - 1` before that wait, so rounds `< cr` are durable); *all*
//!   members — contributors of `cr` or not — re-elect a standby via the
//!   same MINLOC with the dead candidate's cost forced to infinity and
//!   allocate a fresh window (fresh synchronisation counters); the
//!   standby posts round `cr` again and its contributors *replay* their
//!   puts into it. Rounds `>= cr` then flow through the standby.
//! * **Graceful degradation**: a fault that exhausts the retry budget
//!   (or a declared stall) is detected *before* the round runs — every
//!   member writes its own remaining chunks directly to the file and the
//!   partition exits through `finish`. Slower, but deadlock-free and
//!   byte-identical. `run_round` reports the degrade to the session,
//!   which performs the direct writes as the remaining bytes arrive.

use std::sync::Arc;

use tapioca_mpi::{Comm, FaultHint, RoundTag, SharedFile, Window};
use tapioca_topology::TopologyProvider;

#[cfg(feature = "trace")]
use tapioca_trace::{TraceScope, TraceStamp};

use crate::api::StreamSource;
use crate::config::TapiocaConfig;
use crate::error::{io_err, Result, TapiocaError};
use crate::placement::election_cost;
use crate::schedule::{Chunk, PartitionInfo, RankPartPlan, RoundRoster};

/// Key namespace so several `Session`s on one communicator
/// never collide in the subgroup registry.
fn subgroup_key(epoch: u64, partition: usize) -> u64 {
    epoch * 1_000_000 + partition as u64
}

fn tag(part: &PartitionInfo, r: usize) -> RoundTag {
    RoundTag { partition: part.index as u32, round: r as u32 }
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
    /// One-sided puts issued, one per chunk (crash replays re-count).
    pub puts: u64,
    /// Bytes deposited via puts.
    pub put_bytes: u64,
    /// Synchronisation calls this rank issued: every post, start,
    /// complete and wait of the round protocol on the aggregation
    /// window. A rank makes none in a round it does not take part in.
    /// (The name dates from the two `MPI_Win_fence` calls per round per
    /// member that Algorithm 3 prescribes.)
    pub fences: u64,
    /// Flush operations issued (as aggregator).
    pub flushes: u64,
    /// Bytes flushed to the file (as aggregator).
    pub flush_bytes: u64,
    /// Faults injected from the config's plan (failed flush attempts,
    /// crashes, degrade triggers; counted once per partition event).
    pub faults_injected: u64,
    /// Flush retries this rank performed as aggregator.
    pub retries: u64,
    /// Standby re-elections after an aggregator crash (counted by the
    /// partition's lowest member).
    pub reelections: u64,
    /// Partitions this rank participated in that fell back to direct
    /// per-rank writes (every member counts its own participation, so
    /// each rank can report a degraded outcome).
    pub degraded: u64,
    /// Always 0: every chunk travels as its own put. Kept because
    /// `benchmark/src/main.rs` reads it; goes with ROADMAP item 1.
    pub coalesced_puts: u64,
    /// Always 0, like [`IoStats::coalesced_puts`] and for the same
    /// reason.
    pub coalesced_chunks: u64,
    /// Bytes the streaming session copied into its staging arena
    /// because the round that consumes them could not run yet. A chunk
    /// is copied unless the `write` that delivers it completes its
    /// round: every chunk this rank owes that round, and every earlier
    /// round of the epoch, has then arrived, and the chunk's bytes go
    /// straight from the caller's slice into the RMA window. In-order
    /// call sequences copy nothing only when no round takes chunks of
    /// two of this rank's declarations; with many small declarations
    /// per round (strided rows), all but the last chunk of each round
    /// are copied, whatever the order.
    pub staging_copy_bytes: u64,
    /// Read direction: file segments read into the window (as
    /// aggregator), one per flush segment of the round plan.
    pub reads: u64,
    /// Bytes read from the file into the window (as aggregator).
    pub read_bytes: u64,
    /// Read direction: one-sided gets issued, one per chunk.
    pub gets: u64,
    /// Bytes fetched via gets.
    pub get_bytes: u64,
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
        self.reads += other.reads;
        self.read_bytes += other.read_bytes;
        self.gets += other.gets;
        self.get_bytes += other.get_bytes;
    }
}

/// Close a partition with one flag reduction over its members: `Ok` on
/// all of them, or `Err` on all of them if any recorded a failure — its
/// own error where it has one, an `op` error saying `why` elsewhere.
fn shared_verdict(
    pcomm: &Comm,
    failed: Option<TapiocaError>,
    op: &'static str,
    why: &str,
) -> Result<()> {
    let (ok, _) = pcomm.allreduce_min_loc(if failed.is_some() { 0.0 } else { 1.0 });
    match failed {
        Some(e) => Err(e),
        None if ok == 0.0 => Err(io_err(op, std::io::Error::other(why))),
        None => Ok(()),
    }
}

/// A round whose buffer the aggregator closed but has not written yet
/// (see the module doc).
struct Due {
    round: usize,
    slot: usize,
    /// Taken while the scope was at `round`, so the flush event carries
    /// it.
    #[cfg(feature = "trace")]
    stamp: Option<TraceStamp>,
}

/// The fault `cfg`'s plan injects into flush segment `s` of round `r`.
fn flush_hint(cfg: &TapiocaConfig, part: &PartitionInfo, r: usize, s: usize) -> Option<FaultHint> {
    cfg.faults.as_ref().and_then(|p| p.flush_fault(part.index as u32, r as u32, s as u32))
}

/// What [`PartitionRun::run_round`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundOutcome {
    /// The round's puts, synchronisation and flush executed; the run
    /// advanced.
    Ran,
    /// The partition degraded *at* this round: the fault schedule
    /// exhausts the retry budget here, so no collective work ran. The
    /// driver must write every remaining chunk (round `>=` the current
    /// [`PartitionRun::next_round`]) directly to the file, then call
    /// [`PartitionRun::finish`].
    Degraded,
}

/// One partition's collective context on this rank: the
/// sub-communicator, the MINLOC winner and this rank's cost, and the
/// RMA window (two `buffer_size` panes on the aggregator, nothing
/// elsewhere). Both directions run on it — [`PartitionRun`] for
/// writes, [`PartCtx::read_rounds`] for reads — and the session keeps
/// it from one epoch or read to the next (the declarations are fixed).
/// It holds structure, never file bytes: whoever uses a slot fills it
/// first. Only kept for fault-free configs (a crash replaces the window
/// mid-run).
pub(crate) struct PartCtx {
    pcomm: Comm,
    agg_idx: usize,
    my_cost: f64,
    win: Window,
}

impl PartCtx {
    /// Collective over `part`'s members: form the sub-communicator
    /// (keyed by `epoch`), elect the aggregator with `allreduce(MINLOC)`
    /// over the placement cost, and allocate the window.
    pub(crate) fn form(
        comm: &Comm,
        part: &PartitionInfo,
        cfg: &TapiocaConfig,
        topo: &dyn TopologyProvider,
        epoch: u64,
    ) -> PartCtx {
        let b = cfg.buffer_size as usize;
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
        // One pane per pipeline slot: a flush draining slot A in place
        // coexists with round r+1's puts filling slot B instead of
        // serializing on one region lock. Reads use slot A only.
        let win = Window::allocate_paned(&pcomm, if my_idx == agg_idx { 2 * b } else { 0 }, b);
        PartCtx { pcomm, agg_idx, my_cost, win }
    }

    /// The two-phase *read* of one partition — the write rounds with the
    /// roles mirrored. The aggregator reads round `r`'s segments from
    /// the file straight into the window's first slot and *posts* "data
    /// ready" to the round's getters (the write side's contributors); a
    /// getter starts, appends its chunks to `out[var]` straight from the
    /// window (`Window::get_with`) and completes; the aggregator serves
    /// its own gets, *waits* for the others, and only then fills the
    /// slot with round `r + 1`. `out[var]` must hold exactly the bytes
    /// of `var` that lie before this partition (nothing, for the first
    /// partition the var reaches). One slot, whatever
    /// `cfg.pipelining` says: overlapping the next file read with the
    /// gets has no measured workload behind it yet (DESIGN.md, *Read
    /// path*). Untraced; no fault injection.
    ///
    /// # Errors
    /// [`TapiocaError::Io`] on every member if the aggregator could not
    /// read a segment: it records its first error and keeps driving the
    /// protocol (the getters are parked in `start`), and one flag
    /// reduction closes the partition with a common verdict.
    pub(crate) fn read_rounds(
        &self,
        part: &PartitionInfo,
        roster: &RoundRoster,
        mine: &RankPartPlan,
        file: &SharedFile,
        out: &mut [Vec<u8>],
        stats: &mut IoStats,
    ) -> Result<()> {
        let (me, agg) = (self.pcomm.rank(), self.agg_idx);
        let mut failed: Option<TapiocaError> = None;
        stats.partitions += 1;
        if me == agg {
            stats.elected += 1;
        }
        for (r, round) in part.rounds.iter().enumerate() {
            let at = tag(part, r);
            if me == agg {
                // The wait of round r - 1 released the slot.
                for seg in &round.segments {
                    let mut from = seg.file_offset;
                    let res =
                        self.win.fill_local(seg.buf_offset as usize, seg.len as usize, |pane| {
                            let pos = from;
                            from += pane.len() as u64;
                            file.read_at_into(pos, pane)
                        });
                    if let Err(e) = res {
                        failed.get_or_insert(io_err("read_at", e));
                    }
                    stats.reads += 1;
                    stats.read_bytes += seg.len;
                }
                self.win.post(roster.contributors(r), at);
                stats.fences += 1;
            }
            let (s, e) = mine.round_ranges[r];
            if s < e {
                self.win.start(agg, at);
                for c in &mine.chunks[s..e] {
                    // One-sided read appended straight to the output
                    // buffer. Appending puts the chunk at `var_offset`
                    // because a rank visits the chunks of one
                    // declaration in ascending `var_offset`: plan parts
                    // and their rounds run in ascending order, a part's
                    // chunks are sorted by `(round, file_offset)`, and a
                    // declaration is one contiguous extent.
                    let dst = &mut out[c.var];
                    debug_assert_eq!(dst.len() as u64, c.var_offset, "var {} out of order", c.var);
                    self.win.get_with(agg, c.buf_offset as usize, c.len as usize, |part| {
                        dst.extend_from_slice(part);
                    });
                    stats.gets += 1;
                    stats.get_bytes += c.len;
                }
                self.win.complete(agg, at);
                stats.fences += 2;
            }
            if me == agg {
                self.win.wait(roster.contributors(r), at);
                stats.fences += 1;
            }
        }
        let why = "the partition's aggregator could not read its file segments";
        shared_verdict(&self.pcomm, failed, "read_at", why)
    }
}

/// The live pipeline state of one partition on this rank, between
/// [`PartitionRun::enter`] and [`PartitionRun::finish`]. Drivers feed
/// it rounds in ascending order.
pub(crate) struct PartitionRun {
    ctx: PartCtx,
    #[cfg(feature = "trace")]
    me: usize,
    my_idx: usize,
    /// Aggregator only: the closed round not yet written.
    due: Option<Due>,
    /// Who contributes to each round: the ranks a round is synchronised
    /// between.
    roster: Arc<RoundRoster>,
    /// First round replayed through a re-elected standby; window slot
    /// of round r is (r - base) % 2 so the fresh window starts at 0.
    base: usize,
    crash_round: Option<usize>,
    degrade_at: Option<usize>,
    /// Next round to execute; on a degrade outcome this stays at the
    /// degrade round.
    pub(crate) next_round: usize,
    degraded: bool,
    /// First write error on this rank; [`PartitionRun::finish`] shares
    /// it with every member.
    failed: Option<TapiocaError>,
}

impl PartitionRun {
    /// Join partition `part` on its context — freshly formed
    /// ([`PartCtx::form`]) or kept from an earlier epoch or read, in
    /// which case no collective runs here — and derive the fault
    /// schedule. The trace scope and the election event are recorded
    /// either way, so every epoch's trace is self-contained.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    pub(crate) fn enter(
        comm: &Comm,
        part: &PartitionInfo,
        cfg: &TapiocaConfig,
        #[allow(unused_mut)] mut ctx: PartCtx,
        roster: &Arc<RoundRoster>,
        stats: &mut IoStats,
    ) -> PartitionRun {
        let my_idx = ctx.pcomm.rank();
        stats.partitions += 1;
        if my_idx == ctx.agg_idx {
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
        // synchronisation calls are recorded at their call sites. The election result
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
                scope.elect(part.members[ctx.agg_idx], part.total_bytes());
            }
            ctx.win.set_trace_scope(scope);
        }

        let run = PartitionRun {
            ctx,
            #[cfg(feature = "trace")]
            me: comm.rank(),
            my_idx,
            due: None,
            roster: Arc::clone(roster),
            base: 0,
            crash_round,
            degrade_at,
            next_round: 0,
            degraded: false,
            failed: None,
        };
        // Both buffers are free at entry (a kept window was written by
        // the previous epoch's `finish`, or released by a read's waits).
        run.post_round(part, 0, stats);
        run
    }

    /// Aggregator only: open round `r`'s exposure to its contributors —
    /// unless the round never runs (past the end, or the degrade round).
    fn post_round(&self, part: &PartitionInfo, r: usize, stats: &mut IoStats) {
        if self.my_idx == self.ctx.agg_idx && r < part.rounds.len() && self.degrade_at != Some(r) {
            self.ctx.win.post(self.roster.contributors(r), tag(part, r));
            stats.fences += 1;
        }
    }

    /// Aggregator only: write the due round, then close round `r`'s
    /// exposure — returns once every contributor's puts have landed.
    fn wait_round(
        &mut self,
        part: &PartitionInfo,
        r: usize,
        file: &SharedFile,
        cfg: &TapiocaConfig,
        stats: &mut IoStats,
    ) {
        if self.my_idx == self.ctx.agg_idx {
            self.write_due(part, file, cfg);
            self.ctx.win.wait(self.roster.contributors(r), tag(part, r));
            stats.fences += 1;
        }
    }

    /// Advance past the rounds this rank has no part in — it owns no
    /// chunk of them, is not their aggregator, and they are neither the
    /// crash round (a collective re-election) nor the degrade round —
    /// without a single synchronisation call. Returns how many rounds
    /// were skipped.
    pub(crate) fn skip_idle(&mut self, part: &PartitionInfo) -> u64 {
        let first = self.next_round;
        while self.next_round < part.rounds.len()
            && self.my_idx != self.ctx.agg_idx
            && !self.roster.contributes(self.next_round, self.my_idx)
            && self.crash_round != Some(self.next_round)
            && self.degrade_at != Some(self.next_round)
        {
            self.next_round += 1;
        }
        (self.next_round - first) as u64
    }

    /// Keep the first write error of this partition on this rank; the
    /// run goes on, and [`PartitionRun::finish`] reports it.
    pub(crate) fn record(&mut self, res: Result<()>) {
        if let Err(e) = res {
            self.failed.get_or_insert(e);
        }
    }

    /// Write the due round, if any, from its window slot in place, one
    /// [`SharedFile::write_retrying`] per flush segment on this thread.
    /// A write that fails is recorded, not returned: the round protocol
    /// runs on. Drivers call it before they hand control back to the
    /// caller, so no closed round waits on the caller.
    pub(crate) fn write_due(
        &mut self,
        part: &PartitionInfo,
        file: &SharedFile,
        cfg: &TapiocaConfig,
    ) {
        let Some(due) = self.due.take() else { return };
        let base = due.slot * cfg.buffer_size as usize;
        for (s, seg) in part.rounds[due.round].segments.iter().enumerate() {
            let hint = flush_hint(cfg, part, due.round, s);
            let at = base + seg.buf_offset as usize;
            let res = file.write_retrying(seg.file_offset, cfg.io_policy, hint, |w| {
                self.ctx.win.drain_local(at, seg.len as usize, w)
            });
            match res {
                Ok(()) => {
                    #[cfg(feature = "trace")]
                    if let Some(stamp) = &due.stamp {
                        stamp.flush_done(seg.file_offset, seg.len);
                    }
                }
                Err(e) => self.record(Err(e.into())),
            }
        }
    }

    /// This rank's part in filling round `r`: enter the aggregator's
    /// exposure, put every chunk of the round into the window at
    /// `slot_base` with one vectored put, leave. A crash replay calls it
    /// again into the fresh window.
    fn contribute(
        &self,
        part: &PartitionInfo,
        chunks: &[Chunk],
        src: &StreamSource<'_>,
        r: usize,
        slot_base: usize,
        stats: &mut IoStats,
    ) {
        let at = tag(part, r);
        self.ctx.win.start(self.ctx.agg_idx, at);
        // `chunks` is sorted by `(round, file_offset)`, so the round's
        // chunks are one range of it; `i` stays the slice index.
        let lo = chunks.partition_point(|c| (c.round as usize) < r);
        let hi = chunks.partition_point(|c| c.round as usize <= r);
        let parts: Vec<(usize, &[u8])> = (lo..)
            .zip(&chunks[lo..hi])
            .map(|(i, c)| (slot_base + c.buf_offset as usize, src.chunk_data(i, c)))
            .collect();
        self.ctx.win.put_vectored(self.ctx.agg_idx, &parts);
        stats.puts += parts.len() as u64;
        stats.put_bytes += chunks[lo..hi].iter().map(|c| c.len).sum::<u64>();
        self.ctx.win.complete(self.ctx.agg_idx, at);
        stats.fences += 2;
    }

    /// Execute round `self.next_round` of `part`. `chunks` is this
    /// rank's full chunk slice of the partition (sorted by
    /// `(round, file_offset)`); `src` supplies each chunk's bytes.
    ///
    /// On [`RoundOutcome::Ran`] the run advanced to the next round. On
    /// [`RoundOutcome::Degraded`] the due round was written, but the
    /// remaining chunks are the *session's* to write directly (their
    /// offsets are disjoint from everything the pipeline flushed, so
    /// ordering cannot change file bytes).
    pub(crate) fn run_round(
        &mut self,
        part: &PartitionInfo,
        chunks: &[Chunk],
        file: &SharedFile,
        cfg: &TapiocaConfig,
        src: &StreamSource<'_>,
        stats: &mut IoStats,
    ) -> RoundOutcome {
        let r = self.next_round;
        let round = &part.rounds[r];
        let b = cfg.buffer_size as usize;

        #[cfg(feature = "trace")]
        if let Some(scope) = self.ctx.win.trace_scope() {
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
                if let Some(scope) = self.ctx.win.trace_scope() {
                    let remaining: u64 = part.rounds[r..].iter().map(|rd| rd.bytes).sum();
                    scope.degrade(remaining);
                }
            }
            self.write_due(part, file, cfg);
            stats.degraded += 1;
            if self.my_idx == 0 {
                stats.faults_injected += 1;
            }
            self.degraded = true;
            return RoundOutcome::Degraded;
        }

        let mut buf = (r - self.base) % 2;
        let contributes = self.roster.contributes(r, self.my_idx);
        if contributes {
            self.contribute(part, chunks, src, r, buf * b, stats);
        }
        self.wait_round(part, r, file, cfg, stats);

        // Aggregator crash: the fill of round r is lost with the
        // crashed window. The old aggregator wrote round r - 1 before
        // its wait (rounds < r stay durable); re-elect a standby with
        // the dead candidate excluded, open a fresh window (fresh
        // synchronisation counters), and replay round r into it.
        if self.crash_round == Some(r) {
            let old_agg = self.ctx.agg_idx;
            #[cfg(feature = "trace")]
            if self.my_idx == 0 {
                if let Some(scope) = self.ctx.win.trace_scope() {
                    scope.crash(part.members[old_agg]);
                }
            }
            let standby_cost =
                if self.my_idx == old_agg { f64::INFINITY } else { self.ctx.my_cost };
            let (_, new_agg) = self.ctx.pcomm.allreduce_min_loc(standby_cost);
            self.ctx.agg_idx = new_agg;
            if self.my_idx == 0 {
                stats.reelections += 1;
                stats.faults_injected += 1;
            }
            if self.my_idx == self.ctx.agg_idx {
                stats.elected += 1;
            }
            self.ctx.win = Window::allocate_paned(
                &self.ctx.pcomm,
                if self.my_idx == self.ctx.agg_idx { 2 * b } else { 0 },
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
                scope.reelect(part.members[self.ctx.agg_idx]);
                self.ctx.win.set_trace_scope(scope);
            }
            self.base = r;
            buf = 0;
            self.post_round(part, r, stats);
            if contributes {
                self.contribute(part, chunks, src, r, 0, stats);
            }
            self.wait_round(part, r, file, cfg, stats);
        }

        if self.my_idx == self.ctx.agg_idx {
            for (s, seg) in round.segments.iter().enumerate() {
                if let Some(h) = flush_hint(cfg, part, r, s) {
                    // Within-budget by construction (the exhausting
                    // round degrades above); count the injected
                    // failures and record one Retry event each.
                    stats.faults_injected += h.fail_attempts as u64;
                    stats.retries += h.fail_attempts as u64;
                    #[cfg(feature = "trace")]
                    if let Some(scope) = self.ctx.win.trace_scope() {
                        for _ in 0..h.fail_attempts {
                            scope.retry(seg.file_offset, seg.len);
                        }
                    }
                }
                stats.flushes += 1;
                stats.flush_bytes += seg.len;
            }
            self.due = Some(Due {
                round: r,
                slot: buf,
                #[cfg(feature = "trace")]
                stamp: self.ctx.win.trace_scope().map(TraceScope::stamp),
            });
            // Pipelined, round r + 1 fills the other buffer, written
            // before this wait; unpipelined, it refills this one.
            if !cfg.pipelining {
                self.write_due(part, file, cfg);
            }
            self.post_round(part, r + 1, stats);
        }
        self.next_round = r + 1;
        RoundOutcome::Ran
    }

    /// Leave the partition: write the due round, then one flag
    /// reduction — every round of this partition is written before
    /// anyone leaves, and every member learns whether any write of the
    /// partition failed.
    ///
    /// # Errors
    /// [`TapiocaError::Io`] on every member if any member recorded a
    /// write error ([`PartitionRun::record`]).
    pub(crate) fn finish(
        &mut self,
        part: &PartitionInfo,
        file: &SharedFile,
        cfg: &TapiocaConfig,
    ) -> Result<()> {
        self.write_due(part, file, cfg);
        let why = "a write of the partition failed on another member";
        shared_verdict(&self.ctx.pcomm, self.failed.take(), "write_at", why)
    }

    /// Hand the context back for the next epoch or read. Only valid
    /// after [`PartitionRun::finish`] on a fault-free run: a crash
    /// replaces the window mid-run and a degrade abandons the pipeline,
    /// so neither leaves a context worth keeping.
    pub(crate) fn into_ctx(#[allow(unused_mut)] mut self) -> PartCtx {
        debug_assert!(
            !self.degraded && self.crash_round.is_none(),
            "faulted partitions must not be kept"
        );
        // Reads on the kept window record nothing; the next epoch's
        // `enter` attaches a fresh scope.
        #[cfg(feature = "trace")]
        self.ctx.win.clear_trace_scope();
        self.ctx
    }
}
