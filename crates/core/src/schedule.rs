//! Round scheduling: the heart of TAPIOCA's `Init` phase.
//!
//! Given every rank's declared writes, the scheduler splits the file span
//! into `num_aggregators` contiguous **partitions** and each partition
//! into buffer-sized **rounds**. Every declared byte is assigned to a
//! [`Chunk`]: (producing rank, var, partition, round, offset inside the
//! aggregation buffer). Because the declarations cover *all* upcoming
//! writes (Algorithm 2 of the paper), a round's buffer is filled
//! completely across variables before it is flushed — the Fig. 2
//! advantage over per-call collective buffering.
//!
//! The schedule is a pure function of the declarations and parameters,
//! computed identically (and deterministically) by every rank from the
//! allgathered declarations; thread mode and simulation mode execute the
//! same object.

use tapioca_mpi::{FaultPlan, IoPolicy};
use tapioca_topology::Rank;

use crate::error::{Result, TapiocaError};

/// One declared upcoming write of a rank: `len` bytes at file `offset`.
///
/// Mirrors one `(count[i], type[i], ofst[i])` entry of `TAPIOCA_Init`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteDecl {
    /// Absolute byte offset in the file.
    pub offset: u64,
    /// Length in bytes (`count * type_size`).
    pub len: u64,
}

/// Scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleParams {
    /// Number of partitions (one aggregator each).
    pub num_aggregators: usize,
    /// Aggregation buffer size in bytes (round granularity).
    pub buffer_size: u64,
    /// Round partition extents up to a multiple of the buffer size.
    ///
    /// TAPIOCA sets this: every flush then starts at
    /// `span_start + k * buffer_size`, which lands on stripe boundaries
    /// whenever the buffer is sized to the stripe (the paper's 1:1
    /// recommendation, Table I). Generic ROMIO divides the extent into
    /// equal file domains with **no** alignment — the well-known source
    /// of extent-lock contention on Lustre — so the baseline leaves this
    /// off. Fewer than `num_aggregators` partitions may result for small
    /// spans (idle aggregators).
    pub align_to_buffer: bool,
}

/// A piece of one rank's variable assigned to one aggregation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Producing rank.
    pub rank: Rank,
    /// Index of the declared write this chunk belongs to.
    pub var: usize,
    /// Offset of the chunk inside the variable's user buffer.
    pub var_offset: u64,
    /// Absolute file offset.
    pub file_offset: u64,
    /// Chunk length, bytes.
    pub len: u64,
    /// Partition (= aggregator) index.
    pub partition: usize,
    /// Round within the partition.
    pub round: u32,
    /// Destination offset inside the aggregation buffer.
    pub buf_offset: u64,
}

/// A contiguous byte range flushed from an aggregation buffer to file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushSegment {
    /// Absolute file offset of the segment.
    pub file_offset: u64,
    /// Length, bytes.
    pub len: u64,
    /// Offset of the segment inside the aggregation buffer.
    pub buf_offset: u64,
}

/// Per-round flush plan of a partition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundInfo {
    /// Contiguous covered ranges, ascending, non-overlapping (one
    /// segment when the file is densely written — the common case).
    pub segments: Vec<FlushSegment>,
    /// Total payload bytes of the round.
    pub bytes: u64,
}

/// One partition: a contiguous file extent owned by one aggregator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Partition index.
    pub index: usize,
    /// Start of the extent (inclusive).
    pub start: u64,
    /// End of the extent (exclusive).
    pub end: u64,
    /// Ranks contributing at least one chunk, ascending.
    pub members: Vec<Rank>,
    /// Bytes contributed per member (parallel to `members`) — the
    /// `omega(i, A)` weights of the placement cost model.
    pub member_bytes: Vec<u64>,
    /// Flush plan per round.
    pub rounds: Vec<RoundInfo>,
}

impl PartitionInfo {
    /// Total payload bytes of the partition.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes).sum()
    }

    /// The rounds at which `faults` changes this partition's pipeline —
    /// a pure function of the shared plan, so every member, the
    /// simulator and the static analyzer derive the same answer.
    ///
    /// The degrade round is the first round one of whose flush segments
    /// carries a fault that exhausts `policy`'s retry budget. A declared
    /// aggregator crash is dropped when it cannot take effect: a
    /// single-member partition has no standby, a crash round at or past
    /// the round count is never reached, and a partition that degrades
    /// at or before the crash round leaves the round loop first.
    pub fn fault_rounds(&self, faults: &FaultPlan, policy: &IoPolicy) -> FaultRounds {
        let p = self.index as u32;
        let degrade = self.rounds.iter().enumerate().find_map(|(r, round)| {
            (0..round.segments.len())
                .any(|s| {
                    faults
                        .flush_fault(p, r as u32, s as u32)
                        .is_some_and(|h| h.exceeds(policy))
                })
                .then_some(r as u32)
        });
        let crash = faults.crash_at(p).filter(|&cr| {
            CrashDrop::of(cr, self.members.len(), self.rounds.len(), degrade).is_none()
        });
        FaultRounds { crash, degrade }
    }
}

/// Why a declared aggregator crash cannot take effect in a partition
/// (see [`PartitionInfo::fault_rounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashDrop {
    /// A single-member partition has no standby to re-elect.
    NoStandby,
    /// The crash round is at or past the round count: never reached.
    PastEnd {
        /// The partition's round count.
        rounds: u32,
    },
    /// The partition degrades at or before the crash round and leaves
    /// the round loop first.
    DegradesFirst {
        /// The degrade round.
        at: u32,
    },
}

impl CrashDrop {
    /// Why a crash at round `crash` cannot take effect in a partition of
    /// `members` members and `rounds` rounds that degrades at `degrade`;
    /// `None` when it takes effect.
    pub(crate) fn of(
        crash: u32,
        members: usize,
        rounds: usize,
        degrade: Option<u32>,
    ) -> Option<Self> {
        if members < 2 {
            Some(CrashDrop::NoStandby)
        } else if crash as usize >= rounds {
            Some(CrashDrop::PastEnd { rounds: rounds as u32 })
        } else {
            degrade.filter(|&at| at <= crash).map(|at| CrashDrop::DegradesFirst { at })
        }
    }
}

/// Where a fault plan interrupts one partition (see
/// [`PartitionInfo::fault_rounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRounds {
    /// Round whose fill is lost to an aggregator crash and replayed
    /// through a re-elected standby.
    pub crash: Option<u32>,
    /// First round from which members fall back to direct writes.
    pub degrade: Option<u32>,
}

/// The full schedule of one collective operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Parameters the schedule was computed with.
    pub params: ScheduleParams,
    /// Covered file span `[start, end)` across all declarations.
    pub span: (u64, u64),
    /// Partitions, ascending by extent.
    pub partitions: Vec<PartitionInfo>,
    /// Chunks per rank, sorted by (partition, round, file_offset).
    pub chunks_by_rank: Vec<Vec<Chunk>>,
}

impl Schedule {
    /// Total declared payload, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.total_bytes()).sum()
    }

    /// Partition extent size (all partitions but possibly the last).
    pub fn partition_size(&self) -> u64 {
        self.partitions.first().map(|p| p.end - p.start).unwrap_or(0)
    }
}

/// One partition of a [`RankStreamPlan`]: the rank's own chunks of the
/// partition plus, per round, the index range of chunks that must be
/// available before that round can execute on this rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPartPlan {
    /// Index into `schedule.partitions`.
    pub part_index: usize,
    /// This rank's chunks of the partition, sorted by
    /// `(round, file_offset)` — the order the pipeline consumes them.
    pub chunks: Vec<Chunk>,
    /// Flat offset of `chunks[0]` in the rank-wide chunk numbering
    /// (partitions concatenated in ascending index order).
    pub chunk_base: usize,
    /// Per round `r` of the partition: half-open local index range into
    /// `chunks` of this rank's round-`r` contributions. An empty range
    /// means the rank takes no part in the round (unless it is the
    /// round's aggregator).
    pub round_ranges: Vec<(usize, usize)>,
}

/// Per-rank round-readiness view of a [`Schedule`]: which chunks gate
/// which round, in the exact global total order the pipeline executes
/// (partitions ascending, rounds ascending within each partition).
///
/// The streaming session uses this to decide, after each `write()`,
/// how far the round pipeline can advance: round `r` of partition `p`
/// is *ready* once every declared variable owning a chunk in
/// `parts[p].round_ranges[r]` has been issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankStreamPlan {
    /// Partitions this rank participates in, ascending by index.
    pub parts: Vec<RankPartPlan>,
    /// Total chunk count across all partitions (flat numbering bound).
    pub total_chunks: usize,
}

impl RankStreamPlan {
    /// Build the streaming view of `rank` from a computed schedule.
    pub fn new(schedule: &Schedule, rank: Rank) -> RankStreamPlan {
        let mut parts: Vec<RankPartPlan> = Vec::new();
        let chunks = &schedule.chunks_by_rank[rank];
        let mut i = 0;
        let mut chunk_base = 0;
        while i < chunks.len() {
            let p = chunks[i].partition;
            let mut j = i;
            while j < chunks.len() && chunks[j].partition == p {
                j += 1;
            }
            let part_chunks = chunks[i..j].to_vec();
            let nrounds = schedule.partitions[p].rounds.len();
            let mut round_ranges = vec![(0usize, 0usize); nrounds];
            let mut k = 0;
            for (r, range) in round_ranges.iter_mut().enumerate() {
                let start = k;
                while k < part_chunks.len() && part_chunks[k].round as usize == r {
                    k += 1;
                }
                *range = (start, k);
            }
            debug_assert_eq!(k, part_chunks.len(), "chunk rounds within partition bounds");
            parts.push(RankPartPlan {
                part_index: p,
                chunks: part_chunks,
                chunk_base,
                round_ranges,
            });
            chunk_base += j - i;
            i = j;
        }
        RankStreamPlan { parts, total_chunks: chunk_base }
    }
}

/// Who takes part in each round of one partition: per round, the
/// members (as indices into [`PartitionInfo::members`], ascending) that
/// own at least one chunk of it. The thread executor synchronises a
/// round between exactly these ranks and the aggregator; everyone else
/// makes no call in it. A pure function of the shared schedule, so
/// every member derives the identical roster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRoster {
    /// `ranks[starts[r]..starts[r + 1]]` are round `r`'s contributors.
    starts: Vec<usize>,
    ranks: Vec<Rank>,
}

impl RoundRoster {
    /// Build the roster of `part` from the schedule it belongs to.
    pub fn new(schedule: &Schedule, part: &PartitionInfo) -> RoundRoster {
        // Each member's chunks of the partition, ascending by round.
        let of_member = |&m: &Rank| {
            let chunks = &schedule.chunks_by_rank[m];
            let lo = chunks.partition_point(|c| c.partition < part.index);
            let hi = chunks.partition_point(|c| c.partition <= part.index);
            &chunks[lo..hi]
        };
        let nrounds = part.rounds.len();
        let mut starts = vec![0usize; nrounds + 1];
        for chunks in part.members.iter().map(of_member) {
            let mut last = None;
            for c in chunks.iter().filter(|c| last.replace(c.round) != Some(c.round)) {
                starts[c.round as usize + 1] += 1;
            }
        }
        for r in 0..nrounds {
            starts[r + 1] += starts[r];
        }
        let mut fill = starts.clone();
        let mut ranks = vec![0; starts[nrounds]];
        for (mi, chunks) in part.members.iter().map(of_member).enumerate() {
            let mut last = None;
            for c in chunks.iter().filter(|c| last.replace(c.round) != Some(c.round)) {
                ranks[fill[c.round as usize]] = mi;
                fill[c.round as usize] += 1;
            }
        }
        RoundRoster { starts, ranks }
    }

    /// Round `r`'s contributors: member indices, ascending.
    pub fn contributors(&self, r: usize) -> &[Rank] {
        &self.ranks[self.starts[r]..self.starts[r + 1]]
    }

    /// Whether member index `member` owns a chunk of round `r`.
    pub fn contributes(&self, r: usize, member: Rank) -> bool {
        self.contributors(r).binary_search(&member).is_ok()
    }
}

/// Reject declarations whose extent leaves the file offset range:
/// `offset + len` must fit `u64`. Both executors run this over the
/// complete declaration set (thread mode after its allgather, once per
/// communicator) before [`compute_schedule`], so every rank reaches the
/// same verdict.
///
/// # Errors
/// [`TapiocaError::InvalidConfig`] naming the first offending
/// declaration.
pub fn check_decl_extents(decls: &[Vec<WriteDecl>]) -> Result<()> {
    decl_extent_error(decls).map_or(Ok(()), |msg| Err(TapiocaError::InvalidConfig(msg)))
}

/// [`check_decl_extents`]'s verdict as the error message, if any.
pub(crate) fn decl_extent_error(decls: &[Vec<WriteDecl>]) -> Option<String> {
    for (rank, rd) in decls.iter().enumerate() {
        for (var, d) in rd.iter().enumerate() {
            if d.offset.checked_add(d.len).is_none() {
                return Some(format!(
                    "declaration {var} of rank {rank} overflows the file offset range \
                     (offset {} + len {})",
                    d.offset, d.len
                ));
            }
        }
    }
    None
}

/// The round window the cut is in: round `round` of partition
/// `partition`, covering file bytes `[start, end)` (clipped to the
/// partition). Windows tile the span in file order, so walking to the
/// next one is two additions; only a declaration that starts somewhere
/// else pays the divisions of [`RoundWindow::locate`].
struct RoundWindow {
    partition: usize,
    round: u32,
    /// Index of the window in the global numbering (partitions
    /// ascending, rounds ascending within each).
    slot: usize,
    start: u64,
    end: u64,
    part_end: u64,
}

/// Span geometry shared by every window computation.
#[derive(Clone, Copy)]
struct SpanGrid {
    lo: u64,
    hi: u64,
    psize: u64,
    buffer: u64,
}

impl RoundWindow {
    /// The window containing file offset `at` (`lo <= at < hi`);
    /// `slot_base[p]` is the global index of partition `p`'s round 0.
    fn locate(grid: SpanGrid, slot_base: &[usize], at: u64) -> RoundWindow {
        let partition = ((at - grid.lo) / grid.psize) as usize;
        let part_start = grid.lo + partition as u64 * grid.psize;
        let part_end = part_start.saturating_add(grid.psize).min(grid.hi);
        let round = ((at - part_start) / grid.buffer) as u32;
        let start = part_start + round as u64 * grid.buffer;
        RoundWindow {
            partition,
            round,
            slot: slot_base[partition] + round as usize,
            start,
            end: start.saturating_add(grid.buffer).min(part_end),
            part_end,
        }
    }

    /// Move to the window that starts where this one ends (`end < hi`).
    fn step(&mut self, grid: SpanGrid) {
        if self.end == self.part_end {
            self.partition += 1;
            self.round = 0;
            self.part_end = self.part_end.saturating_add(grid.psize).min(grid.hi);
        } else {
            self.round += 1;
        }
        self.slot += 1;
        self.start = self.end;
        self.end = self.start.saturating_add(grid.buffer).min(self.part_end);
    }
}

/// Compute the schedule from every rank's declarations.
///
/// `decls[rank]` lists that rank's declared writes. Declarations may
/// leave holes in the file; flush segments then cover only written
/// ranges. Overlapping or duplicate declarations — within a rank or
/// between ranks — are accepted: each is cut into its own chunks (every
/// declared byte is put into the aggregation buffer, later puts
/// overwriting earlier ones at the same offset) and their coverage
/// merges into one flush segment.
///
/// The function is four linear passes: the span; the cut, which walks
/// the round windows in file order (`RoundWindow`) and counts chunks
/// per window; a counting sort of every chunk's `(offset, len)` into one
/// flat array by window; and the merge of each window's ranges into
/// flush segments. A rank's chunks, and a window's ranges, are sorted
/// only when they did not already come out ascending.
///
/// # Panics
/// Panics if `params` are invalid (zero aggregators / buffer) or a
/// declaration's `offset + len` overflows `u64` (callers holding
/// untrusted declarations reject those with [`check_decl_extents`]).
pub fn compute_schedule(decls: &[Vec<WriteDecl>], params: ScheduleParams) -> Schedule {
    assert!(params.num_aggregators > 0, "need at least one aggregator");
    assert!(params.buffer_size > 0, "buffer size must be positive");
    let nranks = decls.len();

    // File span.
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for d in decls.iter().flatten().filter(|d| d.len > 0) {
        assert!(d.len <= u64::MAX - d.offset, "declaration extent overflows u64");
        lo = lo.min(d.offset);
        hi = hi.max(d.offset + d.len);
    }
    if lo > hi {
        // nothing declared
        return Schedule {
            params,
            span: (0, 0),
            partitions: Vec::new(),
            chunks_by_rank: vec![Vec::new(); nranks],
        };
    }
    let span = hi - lo;
    let mut psize = span.div_ceil(params.num_aggregators as u64).max(1);
    if params.align_to_buffer {
        psize = psize.div_ceil(params.buffer_size) * params.buffer_size;
    }
    // Partitions with actual extent (span may not need all of them).
    let used_parts = span.div_ceil(psize) as usize;
    let grid = SpanGrid { lo, hi, psize, buffer: params.buffer_size };

    // Partition extents, and each partition's first global window slot.
    let mut partitions: Vec<PartitionInfo> = Vec::with_capacity(used_parts);
    let mut slot_base: Vec<usize> = Vec::with_capacity(used_parts);
    let mut nslots = 0usize;
    for p in 0..used_parts {
        let start = lo + p as u64 * psize;
        let end = start.saturating_add(psize).min(hi);
        let nrounds = (end - start).div_ceil(grid.buffer) as usize;
        slot_base.push(nslots);
        nslots += nrounds;
        partitions.push(PartitionInfo {
            index: p,
            start,
            end,
            members: Vec::new(),
            member_bytes: Vec::new(),
            rounds: vec![RoundInfo::default(); nrounds],
        });
    }

    // Cut every declaration into chunks, rank by rank into one scratch
    // vector (each rank keeps an exact-size copy), counting the chunks
    // of every window on the way.
    let mut chunks_by_rank: Vec<Vec<Chunk>> = Vec::with_capacity(nranks);
    let mut slot_fill = vec![0usize; nslots];
    let mut cut: Vec<Chunk> = Vec::new();
    let mut win = RoundWindow::locate(grid, &slot_base, lo);
    for (rank, rd) in decls.iter().enumerate() {
        cut.clear();
        let mut ascending = true;
        for (var, d) in rd.iter().enumerate().filter(|(_, d)| d.len > 0) {
            let end = d.offset + d.len;
            let mut cur = d.offset;
            ascending &= cut.last().is_none_or(|c| c.file_offset <= cur);
            if cur == win.end {
                win.step(grid);
            } else if cur < win.start || cur > win.end {
                win = RoundWindow::locate(grid, &slot_base, cur);
            }
            loop {
                let stop = end.min(win.end);
                cut.push(Chunk {
                    rank,
                    var,
                    var_offset: cur - d.offset,
                    file_offset: cur,
                    len: stop - cur,
                    partition: win.partition,
                    round: win.round,
                    buf_offset: cur - win.start,
                });
                slot_fill[win.slot] += 1;
                if stop == end {
                    break;
                }
                cur = stop;
                win.step(grid);
            }
        }
        // Partition and round grow with the file offset, so ascending
        // offsets are already in (partition, round, file_offset) order.
        if !ascending {
            cut.sort_unstable_by_key(|c| (c.partition, c.round, c.file_offset));
        }
        // Ranks are visited in ascending order and a rank's chunks of one
        // partition are consecutive: appending keeps `members` sorted.
        for run in cut.chunk_by(|a, b| a.partition == b.partition) {
            let part = &mut partitions[run[0].partition];
            part.members.push(rank);
            part.member_bytes.push(run.iter().map(|c| c.len).sum());
        }
        chunks_by_rank.push(cut.clone());
    }

    // Counting sort of every chunk's file range by window: turn the
    // counts into start positions, then let each placement advance its
    // window's position — afterwards `slot_fill[s]` is where window `s`
    // ends and window `s + 1` begins.
    let mut total = 0usize;
    for n in &mut slot_fill {
        let count = *n;
        *n = total;
        total += count;
    }
    let mut cover = vec![(0u64, 0u64); total];
    for c in chunks_by_rank.iter().flatten() {
        let at = &mut slot_fill[slot_base[c.partition] + c.round as usize];
        cover[*at] = (c.file_offset, c.len);
        *at += 1;
    }

    // Merge each window's ranges into flush segments.
    let windows = partitions.iter_mut().flat_map(|part| {
        let part_start = part.start;
        part.rounds.iter_mut().zip((0u64..).map(move |r| part_start + r * grid.buffer))
    });
    let mut segs: Vec<FlushSegment> = Vec::new();
    let mut covered = 0usize;
    for ((round, win_start), &slot_end) in windows.zip(&slot_fill) {
        let ranges = &mut cover[covered..slot_end];
        covered = slot_end;
        if !ranges.is_sorted() {
            ranges.sort_unstable();
        }
        segs.clear();
        for &(off, len) in ranges.iter() {
            round.bytes += len;
            match segs.last_mut() {
                Some(s) if s.file_offset + s.len >= off => {
                    // extend (ranges overlap only if declarations do)
                    let new_end = (off + len).max(s.file_offset + s.len);
                    s.len = new_end - s.file_offset;
                }
                _ => segs.push(FlushSegment { file_offset: off, len, buf_offset: off - win_start }),
            }
        }
        round.segments = segs.clone();
    }

    Schedule { params, span: (lo, hi), partitions, chunks_by_rank }
}

/// A maximal group of same-(partition, round) chunks from ranks
/// co-located on one node whose aggregation-buffer extents are
/// contiguous, which one merged put of `len` bytes at `buf_offset`
/// could carry. No executor merges puts; this type, [`CoalescePlan`]
/// and [`compute_coalesce_plan`] stay because `benchmark/src/probes.rs`
/// times the plan, and go with ROADMAP item 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedRun {
    /// Partition the run belongs to.
    pub partition: usize,
    /// Round within the partition.
    pub round: u32,
    /// Node hosting every producing rank of the run.
    pub node: usize,
    /// Rank issuing the merged put: the member producing the run's
    /// lowest-offset chunk (deterministic, always a run member).
    pub leader: Rank,
    /// Destination offset of the merged put inside the aggregation
    /// buffer (= the first chunk's `buf_offset`).
    pub buf_offset: u64,
    /// Total merged length, bytes (= sum of the chunks' lengths).
    pub len: u64,
    /// The original chunks, ascending by `buf_offset`, back to back.
    pub chunks: Vec<Chunk>,
}

/// Which puts of a [`Schedule`] could merge into [`CoalescedRun`]s
/// under a given rank-to-node placement. Pure data. Kept for
/// `benchmark/src/probes.rs` until ROADMAP item 1 (see
/// [`CoalescedRun`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoalescePlan {
    runs: Vec<CoalescedRun>,
    /// (partition, round, rank, buf_offset) -> index into `runs`.
    by_chunk: std::collections::BTreeMap<(usize, u32, Rank, u64), usize>,
    /// (partition, round, leader) -> indices into `runs`, ascending by
    /// `buf_offset`.
    by_leader: std::collections::BTreeMap<(usize, u32, Rank), Vec<usize>>,
}

impl CoalescePlan {
    /// All runs, grouped by (partition, round), ascending.
    pub fn runs(&self) -> &[CoalescedRun] {
        &self.runs
    }

    /// Whether no puts coalesce under this plan.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The run a chunk belongs to, if it coalesces.
    pub fn run_for_chunk(&self, c: &Chunk) -> Option<&CoalescedRun> {
        self.by_chunk
            .get(&(c.partition, c.round, c.rank, c.buf_offset))
            .map(|&i| &self.runs[i])
    }

    /// The merged puts `leader` issues in (partition, round), ascending
    /// by buffer offset.
    pub fn runs_led_by(
        &self,
        partition: usize,
        round: u32,
        leader: Rank,
    ) -> impl Iterator<Item = &CoalescedRun> {
        self.by_leader
            .get(&(partition, round, leader))
            .into_iter()
            .flatten()
            .map(|&i| &self.runs[i])
    }

    /// Chunks the plan folds into merged puts, across all runs.
    pub fn total_coalesced_chunks(&self) -> usize {
        self.runs.iter().map(|r| r.chunks.len()).sum()
    }

    /// Wire put count under this plan: every coalesced run becomes one
    /// operation, every other chunk stays its own put.
    pub fn wire_put_count(&self, schedule: &Schedule) -> usize {
        let total: usize = schedule.chunks_by_rank.iter().map(Vec::len).sum();
        total - self.total_coalesced_chunks() + self.runs.len()
    }
}

/// Find every maximal run of contiguous-in-buffer chunks produced by
/// ranks sharing a node, per (partition, round). Runs of at least two
/// chunks count; singletons do not. `node_of` maps a rank to its node
/// (e.g. [`tapioca_topology::TopologyProvider::node_of_rank`]). No
/// executor calls it: `benchmark/src/probes.rs` times it, until
/// ROADMAP item 1.
///
/// Invariants (proved per run by construction, tested below):
/// - chunks are back to back: `chunks[i].buf_offset + chunks[i].len ==
///   chunks[i+1].buf_offset`;
/// - all producing ranks map to `node`;
/// - `leader` produces `chunks[0]`.
pub fn compute_coalesce_plan(
    schedule: &Schedule,
    node_of: impl Fn(Rank) -> usize,
) -> CoalescePlan {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(usize, u32), Vec<Chunk>> = BTreeMap::new();
    for chunks in &schedule.chunks_by_rank {
        for c in chunks {
            groups.entry((c.partition, c.round)).or_default().push(*c);
        }
    }
    let mut plan = CoalescePlan::default();
    for ((partition, round), mut cs) in groups {
        // Chunk buffer extents within one round are disjoint, so this
        // order is total.
        cs.sort_by_key(|c| c.buf_offset);
        let mut i = 0;
        while i < cs.len() {
            let node = node_of(cs[i].rank);
            let mut j = i + 1;
            while j < cs.len()
                && node_of(cs[j].rank) == node
                && cs[j - 1].buf_offset + cs[j - 1].len == cs[j].buf_offset
            {
                j += 1;
            }
            if j - i >= 2 {
                let chunks = cs[i..j].to_vec();
                let run_idx = plan.runs.len();
                for c in &chunks {
                    plan.by_chunk.insert((partition, round, c.rank, c.buf_offset), run_idx);
                }
                let leader = chunks[0].rank;
                plan.by_leader.entry((partition, round, leader)).or_default().push(run_idx);
                plan.runs.push(CoalescedRun {
                    partition,
                    round,
                    node,
                    leader,
                    buf_offset: chunks[0].buf_offset,
                    len: chunks.iter().map(|c| c.len).sum(),
                    chunks,
                });
            }
            i = j;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_decls(nranks: usize, per_rank: u64) -> Vec<Vec<WriteDecl>> {
        (0..nranks as u64)
            .map(|r| vec![WriteDecl { offset: r * per_rank, len: per_rank }])
            .collect()
    }

    #[test]
    fn fault_rounds_drops_crashes_that_cannot_take_effect() {
        use tapioca_mpi::FaultSpec;
        let policy = IoPolicy::default();
        let crash = |partition, round| FaultSpec::AggregatorCrash { partition, round };
        let stall = |partition, round| FaultSpec::FlushStall { partition, round };
        // 4 ranks x 64 B, 2 partitions of 2 members, 4 rounds each.
        let s = compute_schedule(&dense_decls(4, 64), ScheduleParams {
            num_aggregators: 2,
            buffer_size: 32,
            align_to_buffer: true,
        });
        let part = &s.partitions[1];
        assert_eq!((part.members.len(), part.rounds.len()), (2, 4));

        let rounds = |plan: FaultPlan| part.fault_rounds(&plan, &policy);
        let plain = rounds(FaultPlan::seeded(1).with(crash(1, 2)));
        assert_eq!(plain, FaultRounds { crash: Some(2), degrade: None });
        // other partitions' specs do not leak in
        assert_eq!(rounds(FaultPlan::seeded(1).with(crash(0, 2))), FaultRounds::default());

        // rule 1: a single-member partition has no standby
        let solo = compute_schedule(&dense_decls(1, 64), ScheduleParams {
            num_aggregators: 1,
            buffer_size: 32,
            align_to_buffer: true,
        });
        let lone = solo.partitions[0].fault_rounds(&FaultPlan::seeded(1).with(crash(0, 1)), &policy);
        assert_eq!(lone.crash, None);

        // rule 2: a crash round at or past the round count is never reached
        assert_eq!(rounds(FaultPlan::seeded(1).with(crash(1, 4))).crash, None);
        assert_eq!(rounds(FaultPlan::seeded(1).with(crash(1, 3))).crash, Some(3));

        // rule 3: degrading at or before the crash round shadows it
        for (stall_at, expect_crash) in [(1, None), (2, None), (3, Some(2))] {
            let got = rounds(FaultPlan::seeded(1).with(crash(1, 2)).with(stall(1, stall_at)));
            assert_eq!(got, FaultRounds { crash: expect_crash, degrade: Some(stall_at) });
        }
    }

    #[test]
    fn dense_block_schedule_fills_buffers() {
        // 4 ranks x 64 B, 2 partitions of 128 B, 32 B buffers -> 4 rounds each.
        let s = compute_schedule(&dense_decls(4, 64), ScheduleParams {
            num_aggregators: 2,
            buffer_size: 32,
            align_to_buffer: true,
        });
        assert_eq!(s.span, (0, 256));
        assert_eq!(s.partitions.len(), 2);
        assert_eq!(s.total_bytes(), 256);
        for p in &s.partitions {
            assert_eq!(p.rounds.len(), 4);
            for (r, round) in p.rounds.iter().enumerate() {
                assert_eq!(round.bytes, 32, "every buffer completely filled");
                assert_eq!(round.segments.len(), 1);
                let seg = round.segments[0];
                assert_eq!(seg.buf_offset, 0);
                assert_eq!(seg.len, 32);
                assert_eq!(seg.file_offset, p.start + r as u64 * 32);
            }
        }
        // ranks 0,1 in partition 0; ranks 2,3 in partition 1
        assert_eq!(s.partitions[0].members, vec![0, 1]);
        assert_eq!(s.partitions[1].members, vec![2, 3]);
        assert_eq!(s.partitions[0].member_bytes, vec![64, 64]);
    }

    #[test]
    fn chunk_buffer_offsets_are_window_relative() {
        let s = compute_schedule(&dense_decls(2, 64), ScheduleParams {
            num_aggregators: 1,
            buffer_size: 48,
            align_to_buffer: true,
        });
        // rank 1's 64 B at file 64..128; rounds of 48: 64..96 in round 1
        // (window 48..96) at buf 16, 96..128 in round 2 at buf 0.
        let c = &s.chunks_by_rank[1];
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].round, c[0].buf_offset, c[0].len), (1, 16, 32));
        assert_eq!((c[1].round, c[1].buf_offset, c[1].len), (2, 0, 32));
        assert_eq!(c[1].var_offset, 32);
    }

    #[test]
    fn multi_var_interleaving_fills_rounds() {
        // 2 ranks, 3 vars each (x, y, z regions), like Algorithm 2.
        // Layout: var v of rank r at v*64 + r*32, len 32.
        let decls: Vec<Vec<WriteDecl>> = (0..2u64)
            .map(|r| {
                (0..3u64)
                    .map(|v| WriteDecl { offset: v * 64 + r * 32, len: 32 })
                    .collect()
            })
            .collect();
        let s = compute_schedule(&decls, ScheduleParams { num_aggregators: 1, buffer_size: 64, align_to_buffer: false });
        assert_eq!(s.total_bytes(), 192);
        let p = &s.partitions[0];
        assert_eq!(p.rounds.len(), 3);
        // every round contains one var region = both ranks' halves: full 64 B
        for round in &p.rounds {
            assert_eq!(round.bytes, 64);
            assert_eq!(round.segments.len(), 1);
        }
    }

    #[test]
    fn rank_stream_plan_partitions_and_round_ranges() {
        // 4 ranks x 64 B, 2 partitions, 32 B buffers -> 4 rounds each;
        // rank 1 only contributes to partition 0, rounds 2 and 3.
        let s = compute_schedule(&dense_decls(4, 64), ScheduleParams {
            num_aggregators: 2,
            buffer_size: 32,
            align_to_buffer: true,
        });
        let plan = RankStreamPlan::new(&s, 1);
        assert_eq!(plan.parts.len(), 1);
        let pp = &plan.parts[0];
        assert_eq!(pp.part_index, 0);
        assert_eq!(pp.chunk_base, 0);
        assert_eq!(pp.chunks, s.chunks_by_rank[1]);
        assert_eq!(pp.round_ranges.len(), 4);
        assert_eq!(pp.round_ranges[0], (0, 0));
        assert_eq!(pp.round_ranges[1], (0, 0));
        assert_eq!(pp.round_ranges[2], (0, 1));
        assert_eq!(pp.round_ranges[3], (1, 2));
        assert_eq!(plan.total_chunks, 2);
    }

    #[test]
    fn round_roster_lists_each_rounds_chunk_owners() {
        // 4 ranks x 3 vars of 32 B, SoA: var v of rank r at (4v + r) * 32.
        // 2 partitions of 192 B, 64 B buffers -> 3 rounds each, two
        // chunk owners per round.
        let decls: Vec<Vec<WriteDecl>> = (0..4u64)
            .map(|r| (0..3u64).map(|v| WriteDecl { offset: (4 * v + r) * 32, len: 32 }).collect())
            .collect();
        let s = compute_schedule(&decls, ScheduleParams {
            num_aggregators: 2,
            buffer_size: 64,
            align_to_buffer: true,
        });
        assert_eq!(s.partitions.len(), 2);
        let owners = |p: usize| {
            let part = &s.partitions[p];
            let roster = RoundRoster::new(&s, part);
            (0..part.rounds.len())
                .map(|r| roster.contributors(r).iter().map(|&m| part.members[m]).collect())
                .collect::<Vec<Vec<Rank>>>()
        };
        assert_eq!(owners(0), vec![vec![0, 1], vec![2, 3], vec![0, 1]]);
        assert_eq!(owners(1), vec![vec![2, 3], vec![0, 1], vec![2, 3]]);
        let roster = RoundRoster::new(&s, &s.partitions[0]);
        assert!(roster.contributes(1, 2) && !roster.contributes(1, 0));
        // Agrees with every rank's own stream plan.
        for rank in 0..4 {
            for pp in &RankStreamPlan::new(&s, rank).parts {
                let part = &s.partitions[pp.part_index];
                let roster = RoundRoster::new(&s, part);
                let mi = part.members.binary_search(&rank).unwrap();
                for (r, &(lo, hi)) in pp.round_ranges.iter().enumerate() {
                    assert_eq!(roster.contributes(r, mi), lo < hi, "rank {rank} round {r}");
                }
            }
        }
    }

    #[test]
    fn rank_stream_plan_flat_numbering_spans_partitions() {
        // One rank writing across both partitions: 1 rank, 128 B, 2 aggrs.
        let s = compute_schedule(
            &[vec![WriteDecl { offset: 0, len: 128 }]],
            ScheduleParams { num_aggregators: 2, buffer_size: 32, align_to_buffer: true },
        );
        assert_eq!(s.partitions.len(), 2);
        let plan = RankStreamPlan::new(&s, 0);
        assert_eq!(plan.parts.len(), 2);
        assert_eq!(plan.parts[0].chunk_base, 0);
        assert_eq!(plan.parts[1].chunk_base, plan.parts[0].chunks.len());
        assert_eq!(
            plan.total_chunks,
            plan.parts.iter().map(|p| p.chunks.len()).sum::<usize>()
        );
        assert_eq!(plan.total_chunks, s.chunks_by_rank[0].len());
        // ranges cover each partition's chunks exactly, in order
        for pp in &plan.parts {
            let mut k = 0;
            for (start, end) in &pp.round_ranges {
                assert_eq!(*start, k);
                assert!(*end >= *start);
                k = *end;
            }
            assert_eq!(k, pp.chunks.len());
        }
    }

    #[test]
    fn sparse_declarations_produce_multiple_segments() {
        // two ranks write 16 B each with a 16 B hole between them
        let decls = vec![
            vec![WriteDecl { offset: 0, len: 16 }],
            vec![WriteDecl { offset: 32, len: 16 }],
        ];
        let s = compute_schedule(&decls, ScheduleParams { num_aggregators: 1, buffer_size: 64, align_to_buffer: false });
        let round = &s.partitions[0].rounds[0];
        assert_eq!(round.segments.len(), 2);
        assert_eq!(round.bytes, 32);
        assert_eq!(round.segments[0].file_offset, 0);
        assert_eq!(round.segments[1].file_offset, 32);
        assert_eq!(round.segments[1].buf_offset, 32);
    }

    #[test]
    fn rank_spanning_partitions_is_member_of_both() {
        // 2 ranks x 100 B, 2 partitions of 100 B: rank 0 covers 0..100
        // (partition 0 exactly), rank 1 covers 100..200 (partition 1).
        // With 3 ranks x 100 and 2 partitions of 150, rank 1 spans both.
        let s = compute_schedule(&dense_decls(3, 100), ScheduleParams {
            num_aggregators: 2,
            buffer_size: 75,
            align_to_buffer: true,
        });
        assert_eq!(s.partitions[0].members, vec![0, 1]);
        assert_eq!(s.partitions[1].members, vec![1, 2]);
        assert_eq!(s.partitions[0].member_bytes, vec![100, 50]);
        assert_eq!(s.partitions[1].member_bytes, vec![50, 100]);
    }

    #[test]
    fn empty_declarations() {
        let s = compute_schedule(&[vec![], vec![]], ScheduleParams {
            num_aggregators: 4,
            buffer_size: 16,
            align_to_buffer: true,
        });
        assert_eq!(s.total_bytes(), 0);
        assert!(s.partitions.is_empty());
        assert_eq!(s.chunks_by_rank.len(), 2);
    }

    #[test]
    fn nonzero_span_start() {
        let decls = vec![vec![WriteDecl { offset: 1000, len: 64 }]];
        let s = compute_schedule(&decls, ScheduleParams { num_aggregators: 2, buffer_size: 16, align_to_buffer: false });
        assert_eq!(s.span, (1000, 1064));
        assert_eq!(s.partitions[0].start, 1000);
        let c = &s.chunks_by_rank[0][0];
        assert_eq!(c.buf_offset, 0);
        assert_eq!(c.file_offset, 1000);
    }

    #[test]
    fn extent_ending_just_below_u64_max_is_scheduled() {
        // Partition and window ends are clipped to the span before they
        // can leave the offset range (debug builds check the additions).
        let hi = u64::MAX - 50;
        let decls = vec![vec![WriteDecl { offset: hi - 150, len: 150 }]];
        assert!(check_decl_extents(&decls).is_ok());
        let s = compute_schedule(&decls, ScheduleParams {
            num_aggregators: 2,
            buffer_size: 64,
            align_to_buffer: true,
        });
        assert_eq!(s.span, (hi - 150, hi));
        assert_eq!(s.total_bytes(), 150);
        assert_eq!(s.partitions.last().map(|p| p.end), Some(hi));
        let overflowing = vec![vec![], vec![WriteDecl { offset: u64::MAX - 10, len: 100 }]];
        let err = check_decl_extents(&overflowing).unwrap_err();
        assert!(err.to_string().contains("declaration 0 of rank 1 overflows"), "{err}");
    }

    #[test]
    fn last_round_may_be_partial() {
        let s = compute_schedule(&dense_decls(1, 70), ScheduleParams {
            num_aggregators: 1,
            buffer_size: 32,
            align_to_buffer: true,
        });
        let p = &s.partitions[0];
        assert_eq!(p.rounds.len(), 3);
        assert_eq!(p.rounds[2].bytes, 6);
    }

    mod props {
        use super::*;

        fn mix(mut x: u64) -> u64 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }

        /// Chunks exactly tile the declarations; per-partition member
        /// weights and round bytes are consistent; buffer offsets fit.
        /// Deterministic seeded sweep (no external property-test crate).
        #[test]
        fn prop_schedule_conserves_bytes() {
            for case in 0u64..80 {
                let nranks = 1 + (mix(case * 3 + 1) % 11) as usize;
                let naggr = 1 + (mix(case * 3 + 2) % 5) as usize;
                let buf = 1 + mix(case * 3 + 3) % 127;
                let sizes: Vec<u64> =
                    (0..nranks).map(|r| mix(case * 101 + r as u64) % 500).collect();

                // ranks write consecutive blocks of the given sizes
                let mut decls = Vec::new();
                let mut off = 0;
                for s in &sizes {
                    decls.push(vec![WriteDecl { offset: off, len: *s }]);
                    off += s;
                }
                let total: u64 = sizes.iter().sum();
                let s = compute_schedule(&decls, ScheduleParams {
                    num_aggregators: naggr,
                    buffer_size: buf,
                    align_to_buffer: naggr.is_multiple_of(2), // exercise both modes
                });
                assert_eq!(s.total_bytes(), total, "case {case}");

                for (rank, chunks) in s.chunks_by_rank.iter().enumerate() {
                    let sum: u64 = chunks.iter().map(|c| c.len).sum();
                    assert_eq!(sum, sizes[rank], "case {case}");
                    for c in chunks {
                        assert!(c.buf_offset + c.len <= buf);
                        assert!(c.partition < s.partitions.len());
                        let p = &s.partitions[c.partition];
                        assert!(c.file_offset >= p.start);
                        assert!(c.file_offset + c.len <= p.end);
                        // buffer offset consistent with file offset
                        let win = p.start + c.round as u64 * buf;
                        assert_eq!(c.file_offset - win, c.buf_offset);
                    }
                }

                // member weights equal sum of member chunks
                for p in &s.partitions {
                    for (m, &w) in p.members.iter().zip(&p.member_bytes) {
                        let sum: u64 = s.chunks_by_rank[*m]
                            .iter()
                            .filter(|c| c.partition == p.index)
                            .map(|c| c.len)
                            .sum();
                        assert_eq!(w, sum, "case {case}");
                    }
                    // round segments cover round bytes
                    for r in &p.rounds {
                        let seg: u64 = r.segments.iter().map(|x| x.len).sum();
                        assert_eq!(seg, r.bytes, "case {case}");
                    }
                }
            }
        }
    }
    #[test]
    fn coalesce_merges_co_located_contiguous_chunks() {
        // 16 ranks on one node (mira-style rpn=16), one contiguous block
        // each: every round's 16 puts fold into a single merged put.
        let s = compute_schedule(
            &dense_decls(16, 64),
            ScheduleParams { num_aggregators: 1, buffer_size: 256, align_to_buffer: true },
        );
        let plan = compute_coalesce_plan(&s, |r| r / 16);
        let nrounds = s.partitions[0].rounds.len();
        assert_eq!(plan.runs().len(), nrounds, "one merged run per round");
        for run in plan.runs() {
            assert_eq!(run.node, 0);
            assert_eq!(run.len, 256);
            assert!(run.chunks.len() >= 2);
            // back-to-back chunks, leader produces the first one
            for w in run.chunks.windows(2) {
                assert_eq!(w[0].buf_offset + w[0].len, w[1].buf_offset);
            }
            assert_eq!(run.leader, run.chunks[0].rank);
            assert_eq!(run.buf_offset, run.chunks[0].buf_offset);
        }
        // every chunk resolves to its run, and lookups agree with runs_led_by
        let total: usize = s.chunks_by_rank.iter().map(Vec::len).sum();
        assert_eq!(plan.total_coalesced_chunks(), total);
        assert_eq!(plan.wire_put_count(&s), nrounds);
        for chunks in &s.chunks_by_rank {
            for c in chunks {
                let run = plan.run_for_chunk(c).expect("all chunks coalesce here");
                assert!(run.chunks.contains(c));
                assert!(plan
                    .runs_led_by(run.partition, run.round, run.leader)
                    .any(|r| r == run));
            }
        }
    }

    #[test]
    fn coalesce_runs_split_at_node_boundaries() {
        // 8 ranks, 4 per node: contiguous buffer extents split into one
        // run per node, never mixing nodes.
        let s = compute_schedule(
            &dense_decls(8, 32),
            ScheduleParams { num_aggregators: 1, buffer_size: 256, align_to_buffer: true },
        );
        let plan = compute_coalesce_plan(&s, |r| r / 4);
        assert_eq!(plan.runs().len(), 2);
        for run in plan.runs() {
            assert_eq!(run.chunks.len(), 4);
            assert!(run.chunks.iter().all(|c| c.rank / 4 == run.node));
        }
        assert_eq!(plan.wire_put_count(&s), 2);
    }

    #[test]
    fn coalesce_skips_singletons_and_gaps() {
        // One rank per node: nothing is co-located, nothing coalesces.
        let s = compute_schedule(
            &dense_decls(4, 32),
            ScheduleParams { num_aggregators: 1, buffer_size: 128, align_to_buffer: true },
        );
        let none = compute_coalesce_plan(&s, |r| r);
        assert!(none.is_empty());
        assert_eq!(none.wire_put_count(&s), 4);
        assert!(none.run_for_chunk(&s.chunks_by_rank[0][0]).is_none());

        // Interleaved file extents from different nodes break contiguity
        // in node terms: ranks 0,2 on node 0 and 1,3 on node 1, writing
        // alternating blocks. Adjacent buffer extents alternate nodes, so
        // no run forms.
        let decls: Vec<Vec<WriteDecl>> = (0..4u64)
            .map(|r| vec![WriteDecl { offset: r * 32, len: 32 }])
            .collect();
        let s = compute_schedule(
            &decls,
            ScheduleParams { num_aggregators: 1, buffer_size: 128, align_to_buffer: true },
        );
        let plan = compute_coalesce_plan(&s, |r| r % 2);
        assert!(plan.is_empty(), "alternating nodes never form a run");
    }

    #[test]
    fn coalesce_plan_is_deterministic_and_covers_partial_runs() {
        // Mixed shape: 6 ranks, nodes of 3 — node 0 = ranks 0..3,
        // node 1 = ranks 3..6. With dense declarations both node groups
        // form runs; recomputation yields the identical plan.
        let s = compute_schedule(
            &dense_decls(6, 48),
            ScheduleParams { num_aggregators: 2, buffer_size: 96, align_to_buffer: true },
        );
        let a = compute_coalesce_plan(&s, |r| r / 3);
        let b = compute_coalesce_plan(&s, |r| r / 3);
        assert_eq!(a, b);
        for run in a.runs() {
            let merged: u64 = run.chunks.iter().map(|c| c.len).sum();
            assert_eq!(run.len, merged);
            // run extents never cross the round's buffer
            assert!(run.buf_offset + run.len <= 96);
        }
    }
}
