//! The public TAPIOCA API (thread mode) — the Rust counterpart of the
//! paper's `TAPIOCA_Init` / `TAPIOCA_Write` / `TAPIOCA_Read` calls
//! (Algorithm 2).
//!
//! ```text
//! TAPIOCA_Init(count, type, ofst, 3);     ->  Session::builder(comm, file)
//!                                                 .declarations(decls)
//!                                                 .config(cfg)
//!                                                 .build()?
//! TAPIOCA_Write(f, offset, x, n, ...);    ->  io.write(offset, &x)?
//! ```
//!
//! [`SessionBuilder::build`] allgathers the declarations, computes the
//! round schedule once per communicator (the first member to get there
//! builds it, every member holds it), and is collective over the
//! communicator. `write`
//! *streams* the payload of one declared variable straight into the
//! round pipeline of [`crate::aggregation`]: as soon as every
//! contribution this rank owes to round *r* of the current partition
//! has arrived, that round's puts, synchronisation, and double-buffered
//! flush execute inside the `write` call — payload bytes flow from the
//! caller's slice into the RMA window with no whole-payload staging
//! copy. A chunk whose round cannot run yet when its `write` arrives —
//! some chunk this rank owes that round, or an earlier one, is still
//! outstanding — is appended to the session's staging arena (one byte
//! buffer, cleared every epoch, its capacity kept) and counted in
//! [`IoStats::staging_copy_bytes`]. So an in-order sequence copies
//! nothing only when each round takes chunks of one declaration of this
//! rank; many small declarations per round (strided rows) stage all but
//! the last chunk of every round, in any order.
//!
//! The bookkeeping of one `write` reads a few contiguous records,
//! whatever the declaration count: one binary search of the extent
//! table (a row per declaration, sorted by `(offset, len)`, naming the
//! declaration's run of chunk records), one pass over that run (flat
//! chunk index, partition, round and slice of the caller's bytes per
//! chunk), and an O(1) readiness test per round — a count per
//! (partition, round) of the chunks this rank still owes it,
//! decremented as its declarations arrive and reset when the epoch
//! completes. The rest of a call is its bytes: staged, or put and
//! written by the rounds it completes.
//!
//! A [`Session`] is reusable across **epochs**: once every declared
//! write of an epoch has been issued (on every rank), the next `write`
//! round starts the next epoch against the same schedule. The session
//! keeps its own declarations, the shared schedule and rosters, and —
//! for fault-free configs — each partition's sub-communicator, election
//! result, RMA window, and recycled flush buffers alive, so timestep
//! loops stop re-paying allgather + `compute_schedule` + election every
//! checkpoint.
//!
//! [`Session::read_declared`] is the same pipeline in the other
//! direction, between epochs: it runs on the same per-partition
//! contexts, rosters and stream plan as the write epochs (forming a
//! context first if it gets there before any write, as a restart does),
//! moves file bytes into the aggregator's window with no staging copy,
//! appends each chunk from the window to its output buffer — the outputs
//! are not zero-filled first, so every output byte is written once — and
//! leaves its counters in [`Session::read_stats`].
//!
//! Every rank must issue **all** of its declared writes each epoch (in
//! any order); the pipeline's collectives are only deadlock-free under
//! that contract, which [`Session::finalize`] enforces loudly.
//!
//! Every entry point returns [`crate::error::Result`]: invalid configs,
//! undeclared writes, and I/O failures that survive the retry budget
//! surface as [`crate::TapiocaError`] values, never as panics (the one
//! documented exception is [`Session::finalize`], where panicking is
//! the only alternative to deadlocking the peers).

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use tapioca_mpi::{Comm, SharedFile};
use tapioca_topology::TopologyProvider;

use crate::aggregation::{IoStats, PartCtx, PartitionRun, RoundOutcome};
use crate::config::TapiocaConfig;
use crate::error::{io_err, Result, TapiocaError};
use crate::placement::UniformTopology;
use crate::schedule::{
    compute_schedule, decl_extent_error, Chunk, PartitionInfo, RankStreamPlan, RoundRoster,
    Schedule, ScheduleParams, WriteDecl,
};

/// Outcome of a [`Session::write`] call.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The payload was fed into the round pipeline; `rounds_completed`
    /// rounds of this epoch have fully executed on this rank so far.
    /// More declared writes of this epoch are outstanding.
    Streamed {
        /// Rounds of the current epoch completed on this rank, across
        /// all partitions, after this call.
        rounds_completed: u64,
    },
    /// This was the epoch's last declared write: the pipeline ran to
    /// completion and all data (of every rank) is flushed.
    Flushed,
    /// The epoch completed and all data is durable, but at least one
    /// partition this rank participated in exhausted its retry budget
    /// and fell back to direct per-rank writes (see `DESIGN.md`,
    /// "Fault model & recovery").
    Degraded,
}

/// Progress of one declared chunk through the current epoch.
#[derive(Debug, Default)]
enum ChunkState {
    /// Payload not yet at hand.
    #[default]
    Waiting,
    /// Payload arrived before its round could run; copied into the
    /// staging arena at this offset (counted in
    /// [`IoStats::staging_copy_bytes`]).
    Pending(usize),
    /// Consumed by its round (or direct-written after a degrade).
    Done,
}

/// One row of the extent table `write` searches: a declaration's
/// `(offset, len)`, its index, and its run `recs[first..end]` of chunk
/// records.
#[derive(Debug, Clone, Copy)]
struct Extent {
    offset: u64,
    len: u64,
    decl: usize,
    first: usize,
    end: usize,
}

/// One chunk of a declaration, as `write` needs it: where its progress
/// and its round's arrival count live, and which bytes of the caller's
/// slice it takes.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkRec {
    /// Flat chunk index (`chunk_state`).
    gi: usize,
    /// Plan part slot.
    pslot: u32,
    round: u32,
    var_offset: u64,
    len: u64,
}

/// Where a round's puts read their payload: the variable being written
/// right now is served from the caller's slice; earlier arrivals from
/// the staging arena.
pub(crate) struct StreamSource<'a> {
    chunk_base: usize,
    states: &'a [ChunkState],
    stage: &'a [u8],
    live_var: usize,
    live: &'a [u8],
}

impl StreamSource<'_> {
    /// The bytes of chunk `c`, this rank's `idx`-th chunk of the
    /// partition being run.
    pub(crate) fn chunk_data(&self, idx: usize, c: &Chunk) -> &[u8] {
        match &self.states[self.chunk_base + idx] {
            &ChunkState::Pending(at) => &self.stage[at..at + c.len as usize],
            ChunkState::Waiting => {
                debug_assert_eq!(c.var, self.live_var, "waiting chunk of a non-live var");
                &self.live[c.var_offset as usize..(c.var_offset + c.len) as usize]
            }
            // A round runs at most once per epoch (crash replays re-read
            // within the same run_round call), so a Done chunk is never
            // requested again.
            ChunkState::Done => unreachable!("chunk consumed twice in one epoch"),
        }
    }
}

/// Collective: every member's declarations, indexed by comm rank. Each
/// declaration travels as its `(offset, len)` pair of little-endian
/// `u64`s in one `allgather`.
pub fn allgather_declarations(comm: &Comm, decls: &[WriteDecl]) -> Vec<Vec<WriteDecl>> {
    let mine = decls.iter().flat_map(|d| [d.offset, d.len]).flat_map(u64::to_le_bytes).collect();
    let field = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    comm.allgather_bytes(mine)
        .iter()
        .map(|bytes| {
            bytes
                .chunks_exact(16)
                .map(|c| WriteDecl { offset: field(&c[..8]), len: field(&c[8..]) })
                .collect()
        })
        .collect()
}

/// What every member of a build derives alike from the allgathered
/// declarations: the round schedule and each partition's roster. Built
/// once per communicator ([`Comm::share`]) and held by every member's
/// session.
struct SessionLayout {
    schedule: Schedule,
    /// Per partition of the schedule: who contributes to each round —
    /// the ranks a round is synchronised between.
    rosters: Vec<Arc<RoundRoster>>,
}

impl SessionLayout {
    fn new(all_decls: &[Vec<WriteDecl>], cfg: &TapiocaConfig) -> SessionLayout {
        let schedule = compute_schedule(all_decls, ScheduleParams {
            num_aggregators: cfg.num_aggregators,
            buffer_size: cfg.buffer_size,
            align_to_buffer: true,
        });
        let rosters =
            schedule.partitions.iter().map(|p| Arc::new(RoundRoster::new(&schedule, p))).collect();
        SessionLayout { schedule, rosters }
    }
}

/// Write chunk `c`'s bytes `d` straight to the file: the degrade
/// fallback.
fn direct_write(file: &SharedFile, c: &Chunk, d: &[u8]) -> Result<()> {
    file.write_at(c.file_offset, d).map_err(|e| io_err("write_at", e))
}

/// Builder for a [`Session`] — the single entry point.
///
/// ```no_run
/// # use tapioca::{Session, TapiocaConfig, WriteDecl};
/// # use tapioca_mpi::{Runtime, SharedFile};
/// # Runtime::run(2, |comm| {
/// let file = SharedFile::open_shared(&comm, "/tmp/out.bin");
/// let r = comm.rank() as u64;
/// let mut io = Session::builder(&comm, file)
///     .declarations(vec![WriteDecl { offset: r * 64, len: 64 }])
///     .config(TapiocaConfig { num_aggregators: 1, buffer_size: 32, ..Default::default() })
///     .build()
///     .unwrap();
/// io.write(r * 64, &[7u8; 64]).unwrap();
/// io.finalize();
/// # });
/// ```
pub struct SessionBuilder<'c> {
    comm: &'c Comm,
    file: SharedFile,
    decls: Vec<WriteDecl>,
    cfg: TapiocaConfig,
    topo: Option<Arc<dyn TopologyProvider>>,
}

impl std::fmt::Debug for SessionBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("decls", &self.decls.len())
            .field("topology", &self.topo.is_some())
            .finish()
    }
}

impl<'c> SessionBuilder<'c> {
    /// This rank's upcoming writes (default: none).
    #[must_use]
    pub fn declarations(mut self, decls: Vec<WriteDecl>) -> Self {
        self.decls = decls;
        self
    }

    /// The pipeline configuration (default: [`TapiocaConfig::default`]).
    #[must_use]
    pub fn config(mut self, cfg: TapiocaConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// A real machine model, enabling the topology-aware election
    /// (default: the zero-information [`UniformTopology`], under which
    /// the election degenerates to the lowest rank).
    #[must_use]
    pub fn topology(mut self, topo: Arc<dyn TopologyProvider>) -> Self {
        self.topo = Some(topo);
        self
    }

    /// Replace the current config with the autotuner's pick for this
    /// machine/workload (see [`crate::autotune`]); strategy and fault
    /// settings of the current config are kept as the search anchor.
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] if the anchor config fails
    /// validation or the tuner's simulations fail.
    pub fn autotune(
        mut self,
        profile: &tapioca_topology::MachineProfile,
        storage: &crate::sim_exec::StorageConfig,
        spec: &crate::sim_exec::CollectiveSpec,
    ) -> Result<Self> {
        let outcome = crate::autotune::autotune_from(profile, storage, spec, &self.cfg)?;
        self.cfg = outcome.best;
        Ok(self)
    }

    /// Collective: allgather every rank's declarations, compute the
    /// shared round schedule, and return the reusable [`Session`]. The
    /// schedule and its rosters are built once per communicator, by the
    /// first member to get there ([`Comm::share`]): every member must
    /// pass the same config.
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] if the config fails validation —
    /// checked *before* any collective call — or if some rank declared a
    /// write whose `offset + len` overflows `u64` — checked on the
    /// allgathered declarations; either way all ranks bail out
    /// symmetrically.
    pub fn build(self) -> Result<Session<'c>> {
        let SessionBuilder { comm, file, decls, cfg, topo } = self;
        cfg.validate()?;
        let topo =
            topo.unwrap_or_else(|| Arc::new(UniformTopology { num_ranks: comm.size() }));
        let seq = comm.next_user_seq();
        let all_decls = allgather_declarations(comm, &decls);
        // Every rank gets the one verdict on every declaration, so a bad
        // one fails the build on all of them at the same point: nobody
        // is left waiting in a later collective.
        let layout = comm.share(|| match decl_extent_error(&all_decls) {
            Some(msg) => Err(msg),
            None => Ok(Arc::new(SessionLayout::new(&all_decls, &cfg))),
        });
        let layout = (*layout).clone().map_err(TapiocaError::InvalidConfig)?;
        let plan = RankStreamPlan::new(&layout.schedule, comm.rank());
        // One extent row per declaration, in declaration order until
        // the sort; `first` counts the declaration's chunks until the
        // runs are laid out.
        let mut extents: Vec<Extent> = decls
            .iter()
            .enumerate()
            .map(|(decl, d)| Extent { offset: d.offset, len: d.len, decl, first: 0, end: 0 })
            .collect();
        for c in plan.parts.iter().flat_map(|pp| &pp.chunks) {
            extents[c.var].first += 1;
        }
        let mut next = 0;
        for x in &mut extents {
            let n = x.first;
            x.first = next;
            x.end = next;
            next += n;
        }
        // Chunk records grouped by declaration, in plan order within
        // each; a row's `end` is the fill cursor of its run.
        let mut recs = vec![ChunkRec::default(); plan.total_chunks];
        let mut round_base = Vec::with_capacity(plan.parts.len());
        let mut arrivals = Vec::new();
        for (pslot, pp) in plan.parts.iter().enumerate() {
            round_base.push(arrivals.len());
            arrivals.extend(pp.round_ranges.iter().map(|&(s, e)| e - s));
            for (li, c) in pp.chunks.iter().enumerate() {
                let x = &mut extents[c.var];
                recs[x.end] = ChunkRec {
                    gi: pp.chunk_base + li,
                    pslot: pslot as u32,
                    round: c.round,
                    var_offset: c.var_offset,
                    len: c.len,
                };
                x.end += 1;
            }
        }
        // Duplicates stay in declaration order.
        extents.sort_unstable_by_key(|x| (x.offset, x.len, x.decl));
        let nparts = plan.parts.len();
        let nchunks = plan.total_chunks;
        let ndecls = decls.len();
        Ok(Session {
            comm,
            file,
            cfg,
            topo,
            decls,
            extents,
            recs,
            layout,
            plan,
            round_base,
            waiting: arrivals.clone(),
            arrivals,
            seq,
            ctxs: RefCell::new(std::iter::repeat_with(|| None).take(nparts).collect()),
            avail: vec![false; ndecls],
            issued: 0,
            chunk_state: std::iter::repeat_with(ChunkState::default).take(nchunks).collect(),
            cur_part: 0,
            active: None,
            degraded_from: vec![None; nparts],
            rounds_completed: 0,
            stage: Vec::new(),
            epoch_failed: None,
            epoch_stats: IoStats::default(),
            last_stats: None,
            read_stats: Cell::new(None),
            epochs_completed: 0,
        })
    }
}

/// A reusable TAPIOCA session bound to one communicator and one file:
/// the streaming write pipeline plus everything worth keeping across
/// epochs. See the [module docs](self) for the streaming and epoch
/// semantics.
pub struct Session<'c> {
    comm: &'c Comm,
    file: SharedFile,
    cfg: TapiocaConfig,
    topo: Arc<dyn TopologyProvider>,
    decls: Vec<WriteDecl>,
    /// One row per declaration, sorted by `(offset, len)`, declaration
    /// order among duplicates: `write` binary-searches its declaration
    /// here.
    extents: Vec<Extent>,
    /// Every chunk of this rank, grouped by declaration.
    recs: Vec<ChunkRec>,
    /// Shared with every other member of the communicator.
    layout: Arc<SessionLayout>,
    plan: RankStreamPlan,
    /// Per plan part: where its rounds start in `arrivals`/`waiting`.
    round_base: Vec<usize>,
    /// Per (plan part, round): this rank's chunks of the round.
    arrivals: Vec<usize>,
    /// Per (plan part, round): chunks still to arrive this epoch; a
    /// round is ready at 0.
    waiting: Vec<usize>,
    seq: u64,
    /// Per plan part: the partition context, formed by whichever of a
    /// write epoch and `read_declared` needs it first and kept for
    /// every later one (fault-free configs only). In a cell because
    /// `read_declared` takes `&self`.
    ctxs: RefCell<Vec<Option<PartCtx>>>,
    /// Per declared var: payload issued this epoch.
    avail: Vec<bool>,
    issued: usize,
    /// Flat per-chunk progress, indexed `parts[p].chunk_base + local`.
    chunk_state: Vec<ChunkState>,
    cur_part: usize,
    active: Option<PartitionRun>,
    /// Per plan part: the degrade round, once the partition degraded
    /// this epoch (late arrivals for it go straight to the file).
    degraded_from: Vec<Option<usize>>,
    rounds_completed: u64,
    /// Staging arena: the bytes of every `Pending` chunk of the epoch,
    /// appended as they arrive, cleared when the epoch completes.
    stage: Vec<u8>,
    /// First write error of the current epoch, returned by its last
    /// `write`; the epoch runs on so no peer is left waiting.
    epoch_failed: Option<TapiocaError>,
    epoch_stats: IoStats,
    last_stats: Option<IoStats>,
    /// Counters of the most recent `read_declared`.
    read_stats: Cell<Option<IoStats>>,
    epochs_completed: u64,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("decls", &self.decls.len())
            .field("seq", &self.seq)
            .field("issued", &self.issued)
            .field("epochs_completed", &self.epochs_completed)
            .finish()
    }
}

impl<'c> Session<'c> {
    /// Start building a session on `comm` writing to `file`.
    pub fn builder(comm: &'c Comm, file: SharedFile) -> SessionBuilder<'c> {
        SessionBuilder { comm, file, decls: Vec::new(), cfg: TapiocaConfig::default(), topo: None }
    }

    /// The computed schedule (for inspection and tests).
    pub fn schedule(&self) -> &Schedule {
        &self.layout.schedule
    }

    /// Instrumentation counters of the most recently *completed* write
    /// epoch (`None` until the first epoch finishes). Reads do not
    /// touch it; see [`Session::read_stats`].
    pub fn stats(&self) -> Option<&IoStats> {
        self.last_stats.as_ref()
    }

    /// Instrumentation counters of the most recent
    /// [`Session::read_declared`] that ran its collective, failed or
    /// not (`None` before the first): `reads` / `read_bytes` on
    /// aggregators, `gets` / `get_bytes`, `partitions`, `elected`,
    /// `fences`.
    pub fn read_stats(&self) -> Option<IoStats> {
        self.read_stats.get()
    }

    /// Write epochs completed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.epochs_completed
    }

    /// Stream the payload of the declared write at `offset` into the
    /// round pipeline. Rounds whose contributions are now complete on
    /// this rank execute before this call returns; the epoch's last
    /// declared write drives the pipeline to completion.
    ///
    /// Bookkeeping per call: one search in the extent table, one run of
    /// the declaration's chunk records, and an O(1) readiness test per
    /// round (see the [module docs](self)).
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] if `(offset, data.len())` matches
    /// no outstanding declared write of this rank in the current epoch
    /// (detected locally, before any collective call).
    /// [`TapiocaError::Io`] from the epoch's last `write` if a write of
    /// any partition this rank took part in failed — on every member of
    /// that partition. The epoch still ran to its end on every rank, and
    /// the session stays usable.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<WriteOutcome> {
        let key = (offset, data.len() as u64);
        let at = self.extents.partition_point(|x| (x.offset, x.len) < key);
        let x = *self.extents[at..]
            .iter()
            .take_while(|x| (x.offset, x.len) == key)
            .find(|x| !self.avail[x.decl])
            .ok_or_else(|| {
                TapiocaError::InvalidConfig(format!(
                    "write of {} bytes at offset {offset} matches no outstanding declaration",
                    data.len()
                ))
            })?;
        self.avail[x.decl] = true;
        self.issued += 1;
        for rec in &self.recs[x.first..x.end] {
            self.waiting[self.round_base[rec.pslot as usize] + rec.round as usize] -= 1;
        }
        self.advance(x.decl, data);
        self.stash_or_direct(x.first..x.end, data);
        if self.issued == self.decls.len() {
            self.complete_epoch()
        } else {
            Ok(WriteOutcome::Streamed { rounds_completed: self.rounds_completed })
        }
    }

    /// Drive the round pipeline as far as the issued payloads allow:
    /// partitions in ascending order, rounds in ascending order within
    /// each — one global total order, so pausing between rounds is
    /// deadlock-free. Rounds this rank has no part in are skipped
    /// without a synchronisation call. Write errors are kept in
    /// `epoch_failed`, never returned early: the peers of a partition
    /// are waiting in its collectives.
    fn advance(&mut self, live_var: usize, live: &[u8]) {
        let Session {
            comm,
            file,
            cfg,
            topo,
            layout,
            plan,
            round_base,
            waiting,
            seq,
            ctxs,
            chunk_state,
            cur_part,
            active,
            degraded_from,
            rounds_completed,
            stage,
            epoch_failed,
            epoch_stats,
            ..
        } = self;
        let mut finish = |run: &mut PartitionRun, part: &PartitionInfo| {
            if let Err(e) = run.finish(part, file, cfg) {
                epoch_failed.get_or_insert(e);
            }
        };
        while *cur_part < plan.parts.len() {
            let pp = &plan.parts[*cur_part];
            let part = &layout.schedule.partitions[pp.part_index];
            let roster = &layout.rosters[pp.part_index];
            let nrounds = part.rounds.len();
            if let Some(run) = active.as_mut() {
                *rounds_completed += run.skip_idle(part);
            }
            let r = active.as_ref().map_or(0, |a| a.next_round);
            if r < nrounds {
                // Round-readiness: every chunk this rank owes to round r
                // must be at hand (a round it owes nothing is vacuously
                // ready — the rank is the round's aggregator, or the
                // round is a collective crash or degrade point).
                if waiting[round_base[*cur_part] + r] > 0 {
                    // The caller holds the missing bytes: write the
                    // closed round before handing control back to it.
                    if let Some(run) = active.as_mut() {
                        run.write_due(part, file, cfg);
                    }
                    break;
                }
            }
            let Some(run) = active.as_mut() else {
                // Enter the partition only once its first round is
                // ready, so no rank sits in the election before it has
                // anything to contribute.
                let ctx = ctxs.get_mut()[*cur_part]
                    .take()
                    .unwrap_or_else(|| PartCtx::form(comm, part, cfg, topo.as_ref(), *seq * 2));
                *active = Some(PartitionRun::enter(comm, part, cfg, ctx, roster, epoch_stats));
                continue;
            };
            if r == nrounds {
                finish(run, part);
                let run = active.take().expect("still active");
                if cfg.faults.is_none() {
                    ctxs.get_mut()[*cur_part] = Some(run.into_ctx());
                }
                *cur_part += 1;
                continue;
            }
            let outcome = {
                let src = StreamSource {
                    chunk_base: pp.chunk_base,
                    states: chunk_state,
                    stage,
                    live_var,
                    live,
                };
                run.run_round(part, &pp.chunks, file, cfg, &src, epoch_stats)
            };
            match outcome {
                RoundOutcome::Ran => {
                    let (s, e) = pp.round_ranges[r];
                    chunk_state[pp.chunk_base + s..pp.chunk_base + e]
                        .fill_with(|| ChunkState::Done);
                    *rounds_completed += 1;
                }
                RoundOutcome::Degraded => {
                    // Remaining rounds of this partition fall back to
                    // direct per-rank writes: whatever is at hand now
                    // goes to the file here; chunks of vars still
                    // outstanding are written at their `write` call.
                    let dr = run.next_round;
                    for (i, c) in pp.chunks.iter().enumerate() {
                        if (c.round as usize) < dr {
                            continue;
                        }
                        let gi = pp.chunk_base + i;
                        chunk_state[gi] = match std::mem::take(&mut chunk_state[gi]) {
                            ChunkState::Done => ChunkState::Done,
                            ChunkState::Pending(at) => {
                                let d = &stage[at..at + c.len as usize];
                                run.record(direct_write(file, c, d));
                                ChunkState::Done
                            }
                            ChunkState::Waiting => {
                                if c.var == live_var {
                                    let d = &live[c.var_offset as usize
                                        ..(c.var_offset + c.len) as usize];
                                    run.record(direct_write(file, c, d));
                                    ChunkState::Done
                                } else {
                                    ChunkState::Waiting
                                }
                            }
                        };
                    }
                    finish(run, part);
                    *active = None;
                    degraded_from[*cur_part] = Some(dr);
                    *cur_part += 1;
                }
            }
        }
    }

    /// Park the chunks of the records `recs` of the declaration being
    /// written that `advance` did not consume: copy them into the
    /// staging arena (counted), or — when their partition already
    /// degraded — write them straight to the file.
    fn stash_or_direct(&mut self, recs: std::ops::Range<usize>, live: &[u8]) {
        for rec in &self.recs[recs] {
            if !matches!(self.chunk_state[rec.gi], ChunkState::Waiting) {
                continue;
            }
            let d = &live[rec.var_offset as usize..(rec.var_offset + rec.len) as usize];
            let pslot = rec.pslot as usize;
            if self.degraded_from[pslot].is_some_and(|dr| rec.round as usize >= dr) {
                let pp = &self.plan.parts[pslot];
                if let Err(e) = direct_write(&self.file, &pp.chunks[rec.gi - pp.chunk_base], d) {
                    self.epoch_failed.get_or_insert(e);
                }
                self.chunk_state[rec.gi] = ChunkState::Done;
                continue;
            }
            self.chunk_state[rec.gi] = ChunkState::Pending(self.stage.len());
            self.stage.extend_from_slice(d);
            self.epoch_stats.staging_copy_bytes += rec.len;
        }
    }

    /// Close the epoch: publish its stats and reset the per-epoch
    /// progress so the next `write` starts the next epoch, failed or not.
    fn complete_epoch(&mut self) -> Result<WriteOutcome> {
        debug_assert_eq!(self.cur_part, self.plan.parts.len(), "all partitions finished");
        let degraded = self.epoch_stats.degraded > 0;
        self.last_stats = Some(self.epoch_stats);
        self.epochs_completed += 1;
        self.epoch_stats = IoStats::default();
        self.avail.iter_mut().for_each(|a| *a = false);
        self.waiting.copy_from_slice(&self.arrivals);
        self.issued = 0;
        self.cur_part = 0;
        self.rounds_completed = 0;
        for st in &mut self.chunk_state {
            *st = ChunkState::Waiting;
        }
        self.stage.clear();
        self.degraded_from.iter_mut().for_each(|d| *d = None);
        match self.epoch_failed.take() {
            Some(e) => Err(e),
            None if degraded => Ok(WriteOutcome::Degraded),
            None => Ok(WriteOutcome::Flushed),
        }
    }

    /// Collective two-phase read of every declared extent; returns one
    /// buffer per declared write of this rank. Only valid *between*
    /// epochs (no partially-issued writes outstanding). Runs the write
    /// pipeline's partitions in the same ascending order on the same
    /// kept contexts (`PartCtx::read_rounds`), forming — and keeping —
    /// a context no write epoch has formed yet. The buffers are not
    /// zero-filled: each starts empty with exactly its declared
    /// capacity, and every chunk is appended straight from the
    /// aggregator's window, or, in a round its aggregator reads alone,
    /// from the file into the buffer's spare capacity
    /// (`SharedFile::read_append`). Each output byte is written once,
    /// and no buffer reallocates.
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] mid-epoch, before any collective
    /// call. [`TapiocaError::Io`] if an aggregator's file read fails
    /// (e.g. the file ends before a declared extent): every member of
    /// that aggregator's partition gets it, after all partitions have
    /// run, and the session stays usable.
    pub fn read_declared(&self) -> Result<Vec<Vec<u8>>> {
        if self.issued != 0 {
            return Err(TapiocaError::InvalidConfig(format!(
                "read_declared mid-epoch: {} of {} declared writes issued",
                self.issued,
                self.decls.len()
            )));
        }
        let mut out: Vec<Vec<u8>> =
            self.decls.iter().map(|d| Vec::with_capacity(d.len as usize)).collect();
        let mut stats = IoStats::default();
        let Session { comm, file, cfg, topo, .. } = self;
        let mut ctxs = self.ctxs.borrow_mut();
        let mut verdict = Ok(());
        for (slot, mine) in self.plan.parts.iter().enumerate() {
            let part = &self.layout.schedule.partitions[mine.part_index];
            let ctx = ctxs[slot].take().unwrap_or_else(|| {
                PartCtx::form(comm, part, cfg, topo.as_ref(), self.seq * 2 + 1)
            });
            let roster = &self.layout.rosters[mine.part_index];
            let res = ctx.read_rounds(part, roster, mine, file, &mut out, &mut stats);
            // A partition's failure must not keep this rank from the
            // later ones: their other members are waiting for it.
            verdict = verdict.and(res);
            if cfg.faults.is_none() {
                ctxs[slot] = Some(ctx);
            }
        }
        debug_assert!(
            out.iter().zip(&self.decls).all(|(o, d)| o.len() as u64 == d.len),
            "every declared byte appended"
        );
        self.read_stats.set(Some(stats));
        verdict.map(|()| out)
    }

    /// Finish the session.
    ///
    /// # Panics
    /// Panics if this rank declared writes it never issued — in the
    /// current epoch or ever (the collective pipeline would deadlock
    /// the other ranks otherwise, so failing loudly here is the kind
    /// option).
    pub fn finalize(self) {
        assert!(
            self.issued == 0,
            "finalize with {} declared writes never issued",
            self.decls.len() - self.issued
        );
        assert!(
            self.decls.is_empty() || self.epochs_completed > 0,
            "finalize with {} declared writes never issued",
            self.decls.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca_mpi::Runtime;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tapioca-core-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn cfg(aggr: usize, buf: u64) -> TapiocaConfig {
        TapiocaConfig { num_aggregators: aggr, buffer_size: buf, ..Default::default() }
    }

    fn session<'c>(
        comm: &'c Comm,
        file: SharedFile,
        decls: Vec<WriteDecl>,
        cfg: TapiocaConfig,
    ) -> Session<'c> {
        Session::builder(comm, file).declarations(decls).config(cfg).build().unwrap()
    }

    #[test]
    fn contiguous_blocks_roundtrip() {
        let path = tmp("blocks");
        let n = 8;
        let per = 256u64;
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls = vec![WriteDecl { offset: r * per, len: per }];
            let mut io = session(&comm, file, decls, cfg(3, 96));
            let payload: Vec<u8> = (0..per).map(|i| (r * 7 + i) as u8).collect();
            assert_eq!(io.write(r * per, &payload).unwrap(), WriteOutcome::Flushed);
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), (n as u64 * per) as usize);
        for r in 0..n as u64 {
            for i in 0..per {
                assert_eq!(bytes[(r * per + i) as usize], (r * 7 + i) as u8);
            }
        }
    }

    #[test]
    fn multi_var_xyz_like_algorithm_2() {
        // 4 ranks x 3 vars (x, y, z), SoA-style regions.
        let path = tmp("xyz");
        let n = 4;
        let var_len = 64u64;
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls: Vec<WriteDecl> = (0..3u64)
                .map(|v| WriteDecl { offset: v * (n as u64 * var_len) + r * var_len, len: var_len })
                .collect();
            let mut io = session(&comm, file, decls.clone(), cfg(2, 128));
            for (v, d) in decls.iter().enumerate() {
                let payload = vec![10 * (v as u8 + 1) + r as u8; var_len as usize];
                let outcome = io.write(d.offset, &payload).unwrap();
                if v < 2 {
                    assert!(
                        matches!(outcome, WriteOutcome::Streamed { .. }),
                        "rank {r} var {v}: {outcome:?}"
                    );
                } else {
                    assert_eq!(outcome, WriteOutcome::Flushed);
                }
            }
            // In declaration order every round's chunks arrive in one
            // write, so nothing is copied into the staging arena.
            assert_eq!(io.stats().unwrap().staging_copy_bytes, 0, "rank {r}");
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 3 * 4 * 64);
        for v in 0..3u64 {
            for r in 0..4u64 {
                let base = (v * 256 + r * 64) as usize;
                assert!(bytes[base..base + 64].iter().all(|&b| b == (10 * (v + 1) + r) as u8));
            }
        }
    }

    #[test]
    fn out_of_order_writes_are_staged_and_correct() {
        // Same workload as above, but every rank issues its vars in
        // reverse: later-region payloads wait in the staging arena.
        let path = tmp("xyz-rev");
        let n = 4;
        let var_len = 64u64;
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls: Vec<WriteDecl> = (0..3u64)
                .map(|v| WriteDecl { offset: v * (n as u64 * var_len) + r * var_len, len: var_len })
                .collect();
            let mut io = session(&comm, file, decls.clone(), cfg(2, 128));
            for (v, d) in decls.iter().enumerate().rev() {
                let payload = vec![10 * (v as u8 + 1) + r as u8; var_len as usize];
                io.write(d.offset, &payload).unwrap();
            }
            assert!(
                io.stats().unwrap().staging_copy_bytes > 0,
                "rank {r}: reverse order must stage"
            );
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        for v in 0..3u64 {
            for r in 0..4u64 {
                let base = (v * 256 + r * 64) as usize;
                assert!(bytes[base..base + 64].iter().all(|&b| b == (10 * (v + 1) + r) as u8));
            }
        }
    }

    #[test]
    fn epoch_reuse_streams_repeated_timesteps() {
        let path = tmp("epochs");
        let n = 4;
        let per = 96u64;
        let epochs = 3u64;
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls = vec![WriteDecl { offset: r * per, len: per }];
            let mut io = session(&comm, file, decls, cfg(2, 48));
            let mut first: Option<IoStats> = None;
            for e in 0..epochs {
                let payload: Vec<u8> = (0..per).map(|i| (r * 13 + e * 31 + i) as u8).collect();
                assert_eq!(io.write(r * per, &payload).unwrap(), WriteOutcome::Flushed);
                let s = *io.stats().unwrap();
                // Identical work every epoch: same elections, puts,
                // synchronisation calls, flushes (determinism of the
                // reused session).
                match &first {
                    None => first = Some(s),
                    Some(f) => assert_eq!(&s, f, "rank {r} epoch {e}"),
                }
                let back = io.read_declared().unwrap();
                assert_eq!(back[0], payload, "rank {r} epoch {e}");
            }
            assert_eq!(io.epochs_completed(), epochs);
            io.finalize();
        });
        // File holds the last epoch's bytes.
        let bytes = std::fs::read(&path).unwrap();
        for r in 0..n as u64 {
            for i in 0..per {
                assert_eq!(
                    bytes[(r * per + i) as usize],
                    (r * 13 + (epochs - 1) * 31 + i) as u8
                );
            }
        }
    }

    #[test]
    fn read_back_through_two_phase_read() {
        let path = tmp("readback");
        let n = 6;
        let per = 100u64;
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls = vec![WriteDecl { offset: r * per, len: per }];
            let mut io = session(&comm, file, decls, cfg(4, 64));
            let payload: Vec<u8> = (0..per).map(|i| (r * 31 + i * 3) as u8).collect();
            io.write(r * per, &payload).unwrap();
            let back = io.read_declared().unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(back[0], payload, "rank {r} read back mismatch");
            io.finalize();
        });
    }

    #[test]
    fn uneven_sizes_and_many_partitions() {
        let path = tmp("uneven");
        let n = 5;
        // rank r writes (r+1)*40 bytes, packed contiguously
        let sizes: Vec<u64> = (0..n as u64).map(|r| (r + 1) * 40).collect();
        let offs: Vec<u64> = sizes
            .iter()
            .scan(0u64, |acc, s| {
                let o = *acc;
                *acc += s;
                Some(o)
            })
            .collect();
        let total: u64 = sizes.iter().sum();
        let (offs2, sizes2) = (offs.clone(), sizes.clone());
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank();
            let decls = vec![WriteDecl { offset: offs2[r], len: sizes2[r] }];
            let mut io = session(&comm, file, decls, cfg(3, 50));
            let payload = vec![r as u8 + 1; sizes2[r] as usize];
            io.write(offs2[r], &payload).unwrap();
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, total);
        for r in 0..n {
            let (o, s) = (offs[r] as usize, sizes[r] as usize);
            assert!(bytes[o..o + s].iter().all(|&b| b == r as u8 + 1));
        }
    }

    #[test]
    fn pipelining_off_is_still_correct() {
        let path = tmp("nopipe");
        Runtime::run(4, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls = vec![WriteDecl { offset: r * 64, len: 64 }];
            let mut io = session(&comm, file, decls, TapiocaConfig {
                num_aggregators: 2,
                buffer_size: 32,
                pipelining: false,
                ..Default::default()
            });
            io.write(r * 64, &[r as u8 + 9; 64]).unwrap();
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        for r in 0..4u64 {
            assert!(bytes[(r * 64) as usize..((r + 1) * 64) as usize]
                .iter()
                .all(|&b| b == r as u8 + 9));
        }
    }

    #[test]
    fn two_instances_on_one_comm() {
        let p1 = tmp("multi1");
        let p2 = tmp("multi2");
        Runtime::run(3, |comm| {
            let r = comm.rank() as u64;
            let f1 = SharedFile::open_shared(&comm, &p1);
            let mut io1 =
                session(&comm, f1, vec![WriteDecl { offset: r * 8, len: 8 }], cfg(1, 8));
            io1.write(r * 8, &[1u8; 8]).unwrap();
            io1.finalize();

            let f2 = SharedFile::open_shared(&comm, &p2);
            let mut io2 =
                session(&comm, f2, vec![WriteDecl { offset: r * 8, len: 8 }], cfg(2, 4));
            io2.write(r * 8, &[2u8; 8]).unwrap();
            io2.finalize();
        });
        assert!(std::fs::read(&p1).unwrap().iter().all(|&b| b == 1));
        assert!(std::fs::read(&p2).unwrap().iter().all(|&b| b == 2));
    }

    #[test]
    fn undeclared_write_errors_without_collective() {
        let path = tmp("undeclared");
        Runtime::run(1, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let mut io =
                session(&comm, file, vec![WriteDecl { offset: 0, len: 8 }], cfg(1, 8));
            let err = io.write(99, &[0u8; 8]).unwrap_err();
            assert!(matches!(err, TapiocaError::InvalidConfig(_)));
            assert!(err.to_string().contains("matches no outstanding declaration"));
            // The declared write still works after the rejected one.
            io.write(0, &[7u8; 8]).unwrap();
            io.finalize();
        });
    }

    #[test]
    fn duplicate_extents_resolve_in_declaration_order() {
        let path = tmp("dupdecl");
        Runtime::run(1, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            // Declared out of offset order, with one extent twice and a
            // same-offset extent of another length in between.
            let decls = vec![
                WriteDecl { offset: 8, len: 8 },
                WriteDecl { offset: 0, len: 8 },
                WriteDecl { offset: 8, len: 4 },
                WriteDecl { offset: 8, len: 8 },
            ];
            let mut io = session(&comm, file, decls, cfg(1, 16));
            for epoch in 0..2u8 {
                io.write(8, &[1 + epoch; 8]).unwrap();
                assert_eq!(io.avail, [true, false, false, false]);
                io.write(8, &[3 + epoch; 8]).unwrap();
                assert_eq!(io.avail, [true, false, false, true]);
                let err = io.write(8, &[9u8; 8]).unwrap_err();
                assert!(err.to_string().contains(
                    "write of 8 bytes at offset 8 matches no outstanding declaration"
                ));
                io.write(8, &[5u8; 4]).unwrap();
                assert_eq!(io.write(0, &[7u8; 8]).unwrap(), WriteOutcome::Flushed);
            }
            io.finalize();
        });
    }

    /// A lone rank whose two declarations overlap: its rounds have no
    /// other contributor, but their chunks do not tile the flush segment,
    /// so they go through the window, which resolves the overlap. Written
    /// from the caller's slices back to back, they would run past the
    /// segment's end.
    #[test]
    fn overlapping_chunks_of_a_lone_aggregator_go_through_the_window() {
        let path = tmp("lone-overlap");
        Runtime::run(1, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let decls = vec![WriteDecl { offset: 0, len: 16 }, WriteDecl { offset: 4, len: 8 }];
            let mut io = session(&comm, file, decls, cfg(1, 32));
            let whole: Vec<u8> = (0..16).collect();
            io.write(4, &whole[4..12]).unwrap();
            assert_eq!(io.write(0, &whole).unwrap(), WriteOutcome::Flushed);
            let s = io.stats().unwrap();
            assert_eq!((s.put_bytes, s.in_place_bytes, s.flush_bytes), (24, 0, 16));
            io.finalize();
        });
        let expect: Vec<u8> = (0..16).collect();
        assert_eq!(std::fs::read(&path).unwrap(), expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_config_is_rejected_at_build() {
        let path = tmp("badcfg");
        Runtime::run(1, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let err = Session::builder(&comm, file)
                .config(cfg(0, 8))
                .build()
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, TapiocaError::InvalidConfig(_)));
        });
    }

    /// The members of a build hold one schedule, built once from the
    /// allgathered declarations: 8 ranks, 8,192 strided declarations of
    /// 1 KiB (the `thr-grid-restart` shape).
    #[test]
    fn every_rank_holds_the_one_schedule_of_its_build() {
        let path = tmp("oneschedule");
        let grid = tapioca_workloads::GridDecomp::new_3d(64, 64, 256, 2, 2, 2, 8);
        let config = cfg(4, 1 << 20);
        let addrs = Runtime::run(8, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            // The workloads crate links its own build of this one.
            let decls: Vec<WriteDecl> = grid
                .decls_of_rank(comm.rank())
                .iter()
                .map(|d| WriteDecl { offset: d.offset, len: d.len })
                .collect();
            let all_decls = allgather_declarations(&comm, &decls);
            let io = session(&comm, file, decls, config.clone());
            if comm.rank() == 0 {
                let own = compute_schedule(&all_decls, ScheduleParams {
                    num_aggregators: config.num_aggregators,
                    buffer_size: config.buffer_size,
                    align_to_buffer: true,
                });
                assert_eq!(io.schedule(), &own);
                assert_eq!(all_decls.iter().map(Vec::len).sum::<usize>(), 8192);
            }
            // Every session is alive until all addresses are taken.
            let addr = io.schedule() as *const Schedule as usize;
            comm.barrier();
            addr
        });
        assert!(addrs.iter().all(|&a| a == addrs[0]), "one allocation: {addrs:?}");
    }

    #[test]
    fn overflowing_declaration_is_rejected_on_every_rank() {
        let path = tmp("overflow");
        // Only rank 1's declaration is bad, yet every rank must come
        // back from `build` with the error (and join a barrier after
        // it): a rank left behind in a collective trips the watchdog.
        let errs = Runtime::run_with_watchdog(3, Some(std::time::Duration::from_secs(10)), |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let mine = if r == 1 {
                WriteDecl { offset: u64::MAX - 10, len: 100 }
            } else {
                WriteDecl { offset: r * 8, len: 8 }
            };
            let err = Session::builder(&comm, file)
                .declarations(vec![mine])
                .config(cfg(2, 8))
                .build()
                .map(|_| ())
                .unwrap_err();
            comm.barrier();
            assert!(matches!(err, TapiocaError::InvalidConfig(_)));
            err.to_string()
        });
        for e in &errs {
            assert!(e.contains("declaration 0 of rank 1 overflows"), "{e}");
        }
    }

    #[test]
    fn read_declared_mid_epoch_is_rejected() {
        let path = tmp("midepoch");
        Runtime::run(1, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let decls =
                vec![WriteDecl { offset: 0, len: 8 }, WriteDecl { offset: 8, len: 8 }];
            let mut io = session(&comm, file, decls, cfg(1, 8));
            io.write(0, &[1u8; 8]).unwrap();
            let err = io.read_declared().unwrap_err();
            assert!(matches!(err, TapiocaError::InvalidConfig(_)));
            io.write(8, &[2u8; 8]).unwrap();
            io.finalize();
        });
    }
}
