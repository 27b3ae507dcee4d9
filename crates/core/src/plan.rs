//! Execution plans: the dependency DAG handed to the simulator.
//!
//! Thread mode enforces ordering with post/start/complete/wait and
//! `IoHandle::wait`; simulation mode expresses the *same* ordering as
//! explicit dependencies between operations:
//!
//! * puts of round `r` wait for the close of round `r-1` — the
//!   aggregator posts `r` only after its wait of `r-1` (modelled as
//!   depending on every transfer of round `r-1`);
//! * reusing a pipeline buffer in round `r` waits for the flush of round
//!   `r-2` (`r-1` when pipelining is disabled);
//! * flushes of one aggregator serialize on its file handle.
//!
//! Both TAPIOCA (here) and the ROMIO-like baseline (`tapioca-baseline`)
//! compile to this plan form, so they are simulated by the identical
//! executor and differ only in schedule, placement and pipelining —
//! exactly the comparison the paper makes.

use tapioca_pfs::{AccessMode, FileId};
use tapioca_topology::{NodeId, Rank};

use crate::schedule::Schedule;

/// Index of an operation inside an [`ExecutionPlan`].
pub type OpId = usize;

/// What an operation does.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Move `bytes` from `src` to `dst` over the fabric (aggregation
    /// phase put, or read-mode scatter).
    Transfer {
        /// Source compute node.
        src: NodeId,
        /// Destination compute node.
        dst: NodeId,
        /// Payload bytes.
        bytes: f64,
    },
    /// Storage operation by the aggregator on `src`.
    Flush {
        /// Aggregator's compute node.
        src: NodeId,
        /// Target file.
        file: FileId,
        /// File offset of the segment.
        offset: u64,
        /// Segment length, bytes.
        len: u64,
        /// Read or write.
        mode: AccessMode,
        /// Concurrency wave for filesystem sharing penalties (flushes
        /// with the same wave are planned together).
        wave: u64,
    },
}

/// Schedule coordinates of an operation — which partition and pipeline
/// round produced it. Carried so a simulated run can be projected back
/// onto the schedule structure (trace emission); `None` for plans that
/// do not originate from a TAPIOCA schedule (e.g. the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanMeta {
    /// Partition index within the originating schedule.
    pub partition: u32,
    /// Round index within the partition.
    pub round: u32,
}

/// One operation plus its dependencies (indices of earlier ops).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The operation.
    pub kind: OpKind,
    /// Operations that must complete before this one starts.
    pub deps: Vec<OpId>,
    /// Schedule coordinates, when known.
    pub meta: Option<PlanMeta>,
}

/// A dependency DAG of transfers and flushes.
#[derive(Debug, Clone, Default)]
pub struct ExecutionPlan {
    /// Operations in topological order (deps point backwards).
    pub ops: Vec<Op>,
    /// Payload bytes moved to/from storage (for bandwidth accounting).
    pub payload_bytes: f64,
}

impl ExecutionPlan {
    /// Create an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an operation; `deps` must reference earlier ops.
    ///
    /// # Panics
    /// Panics if a dependency is not an earlier op.
    pub fn push(&mut self, kind: OpKind, deps: Vec<OpId>) -> OpId {
        self.push_meta(kind, deps, None)
    }

    /// Append an operation carrying its schedule coordinates.
    ///
    /// # Panics
    /// Panics if a dependency is not an earlier op.
    pub fn push_meta(&mut self, kind: OpKind, deps: Vec<OpId>, meta: Option<PlanMeta>) -> OpId {
        let id = self.ops.len();
        assert!(deps.iter().all(|&d| d < id), "dependency must precede the op");
        self.ops.push(Op { kind, deps, meta });
        id
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A planned aggregator crash: the DAG mirror of the thread runtime's
/// demotion + replay protocol. The fill of `round` reaches the original
/// aggregator and is lost with its window; every member then replays
/// that round to the re-elected `standby`, which flushes it and serves
/// the remaining rounds. The replay traffic is what makes the recovery
/// cost visible in the simulated makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCrash {
    /// Partition (schedule-local index) whose aggregator crashes.
    pub partition: usize,
    /// Round at whose closing fence the crash is detected.
    pub round: u32,
    /// Member index (into the partition's members) of the standby.
    pub standby: usize,
}

/// Inputs for compiling one TAPIOCA schedule into plan operations.
pub struct TapiocaPlanInput<'a> {
    /// The schedule (over local rank ids `0..n_local`).
    pub schedule: &'a Schedule,
    /// Elected aggregator per partition: index into
    /// `schedule.partitions[p].members`.
    pub aggregator_choice: &'a [usize],
    /// Compute node of each local rank.
    pub node_of_rank: &'a dyn Fn(Rank) -> NodeId,
    /// File written by each partition (subfiling maps partitions of one
    /// Pset group to that Pset's file; otherwise all partitions share 0).
    pub file_of_partition: &'a dyn Fn(usize) -> FileId,
    /// Read or write.
    pub mode: AccessMode,
    /// Double buffering on (paper) or off (ablation).
    pub pipelining: bool,
    /// Operations that must complete before anything in this group
    /// starts (used to serialize independent collective calls, as plain
    /// MPI I/O does per variable).
    pub entry_deps: Vec<OpId>,
    /// Wave-id offset so concurrent groups of one call share filesystem
    /// waves while sequential calls do not.
    pub wave_base: u64,
    /// Aggregator crashes to compile into the DAG (write mode only; at
    /// most one per partition is honored, matching the fault plan).
    pub crashes: Vec<PlanCrash>,
}

impl std::fmt::Debug for TapiocaPlanInput<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapiocaPlanInput")
            .field("partitions", &self.schedule.partitions.len())
            .field("mode", &self.mode)
            .field("pipelining", &self.pipelining)
            .finish()
    }
}

/// Compile a TAPIOCA schedule into plan operations (appended to `plan`).
///
/// Multiple groups (e.g. one per Pset file on Mira) can be appended to
/// the same plan; without `entry_deps` they share no dependencies and
/// run concurrently in the simulator, like independent subfiles do.
/// Returns the range of appended op ids. A memberless partition (a
/// declaration gap spans it) moves no bytes and gets no ops; its
/// `aggregator_choice` entry is not read.
pub fn append_tapioca_plan(
    plan: &mut ExecutionPlan,
    input: &TapiocaPlanInput<'_>,
) -> std::ops::Range<OpId> {
    let first_op = plan.ops.len();
    let sched = input.schedule;
    assert_eq!(sched.partitions.len(), input.aggregator_choice.len());

    for part in sched.partitions.iter().filter(|part| !part.members.is_empty()) {
        let p = part.index;
        let agg_member = input.aggregator_choice[p];
        let agg_node = (input.node_of_rank)(part.members[agg_member]);
        let file = (input.file_of_partition)(p);
        let nrounds = part.rounds.len();
        // Same guard as the thread runtime: a crash needs a standby and
        // a round to crash in, else it is ignored.
        let crash = input
            .crashes
            .iter()
            .find(|c| c.partition == p)
            .filter(|c| part.members.len() > 1 && (c.round as usize) < nrounds)
            .copied();
        let standby_node = crash.map(|c| (input.node_of_rank)(part.members[c.standby]));

        // per-(round, source node) byte totals
        let mut per_round: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); nrounds];
        for &m in &part.members {
            for c in &sched.chunks_by_rank[m] {
                if c.partition != p {
                    continue;
                }
                let node = (input.node_of_rank)(m);
                let row = &mut per_round[c.round as usize];
                match row.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, b)) => *b += c.len as f64,
                    None => row.push((node, c.len as f64)),
                }
            }
        }

        let mut prev_transfers: Vec<OpId> = Vec::new();
        let mut flush_hist: Vec<Vec<OpId>> = Vec::new(); // per round
        let mut transfer_hist: Vec<Vec<OpId>> = Vec::new();

        for (r, round) in part.rounds.iter().enumerate() {
            match input.mode {
                AccessMode::Write => {
                    // fence: wait for previous round's puts; buffer
                    // reuse: wait for flush of r-2 (r-1 unpipelined)
                    let mut gate = if r == 0 {
                        input.entry_deps.clone()
                    } else {
                        prev_transfers.clone()
                    };
                    let reuse = if input.pipelining { r.checked_sub(2) } else { r.checked_sub(1) };
                    if let Some(fr) = reuse {
                        gate.extend_from_slice(&flush_hist[fr]);
                    }
                    let meta = Some(PlanMeta { partition: p as u32, round: r as u32 });
                    // Rounds after the crash flow straight to the
                    // standby; the crash round itself fills the doomed
                    // aggregator first (see below).
                    let fill_dst = match crash {
                        Some(c) if r > c.round as usize => standby_node.expect("standby"),
                        _ => agg_node,
                    };
                    let mut transfers: Vec<OpId> = per_round[r]
                        .iter()
                        .map(|&(node, bytes)| {
                            plan.push_meta(
                                OpKind::Transfer { src: node, dst: fill_dst, bytes },
                                gate.clone(),
                                meta,
                            )
                        })
                        .collect();
                    if crash.is_some_and(|c| r == c.round as usize) {
                        // The fill above is lost with the crashed window;
                        // after the fence (= all wasted transfers) every
                        // member replays the round to the standby.
                        let standby = standby_node.expect("standby");
                        let replay: Vec<OpId> = per_round[r]
                            .iter()
                            .map(|&(node, bytes)| {
                                plan.push_meta(
                                    OpKind::Transfer { src: node, dst: standby, bytes },
                                    transfers.clone(),
                                    meta,
                                )
                            })
                            .collect();
                        transfers = replay;
                    }
                    // flush: after this round's fence and the previous flush
                    let mut fdeps = transfers.clone();
                    if let Some(prev) = flush_hist.last() {
                        fdeps.extend_from_slice(prev);
                    } else {
                        // empty first round: still honor the entry gate
                        fdeps.extend_from_slice(&input.entry_deps);
                    }
                    let flush_src = match crash {
                        Some(c) if r >= c.round as usize => standby_node.expect("standby"),
                        _ => agg_node,
                    };
                    let flushes: Vec<OpId> = round
                        .segments
                        .iter()
                        .map(|seg| {
                            plan.push_meta(
                                OpKind::Flush {
                                    src: flush_src,
                                    file,
                                    offset: seg.file_offset,
                                    len: seg.len,
                                    mode: AccessMode::Write,
                                    wave: input.wave_base + r as u64,
                                },
                                fdeps.clone(),
                                meta,
                            )
                        })
                        .collect();
                    prev_transfers = transfers.clone();
                    transfer_hist.push(transfers);
                    flush_hist.push(flushes);
                }
                AccessMode::Read => {
                    // aggregator reads the round's segments, then
                    // scatters to members; buffer reuse waits for the
                    // scatter of r-2 (r-1 unpipelined)
                    let mut gate: Vec<OpId> = match flush_hist.last() {
                        Some(prev) => prev.clone(),
                        None => input.entry_deps.clone(),
                    };
                    let reuse = if input.pipelining { r.checked_sub(2) } else { r.checked_sub(1) };
                    if let Some(tr) = reuse {
                        gate.extend_from_slice(&transfer_hist[tr]);
                    }
                    let meta = Some(PlanMeta { partition: p as u32, round: r as u32 });
                    let flushes: Vec<OpId> = round
                        .segments
                        .iter()
                        .map(|seg| {
                            plan.push_meta(
                                OpKind::Flush {
                                    src: agg_node,
                                    file,
                                    offset: seg.file_offset,
                                    len: seg.len,
                                    mode: AccessMode::Read,
                                    wave: input.wave_base + r as u64,
                                },
                                gate.clone(),
                                meta,
                            )
                        })
                        .collect();
                    let transfers: Vec<OpId> = per_round[r]
                        .iter()
                        .map(|&(node, bytes)| {
                            plan.push_meta(
                                OpKind::Transfer { src: agg_node, dst: node, bytes },
                                flushes.clone(),
                                meta,
                            )
                        })
                        .collect();
                    prev_transfers = transfers.clone();
                    transfer_hist.push(transfers);
                    flush_hist.push(flushes);
                }
            }
        }
    }
    plan.payload_bytes += sched.total_bytes() as f64;
    first_op..plan.ops.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{compute_schedule, ScheduleParams, WriteDecl};

    fn dense(nranks: usize, per_rank: u64) -> Vec<Vec<WriteDecl>> {
        (0..nranks as u64)
            .map(|r| vec![WriteDecl { offset: r * per_rank, len: per_rank }])
            .collect()
    }

    fn build(nranks: usize, per_rank: u64, naggr: usize, buf: u64, pipelining: bool) -> ExecutionPlan {
        let sched = compute_schedule(&dense(nranks, per_rank), ScheduleParams {
            num_aggregators: naggr,
            buffer_size: buf,
            align_to_buffer: true,
        });
        let choice = vec![0usize; sched.partitions.len()];
        let mut plan = ExecutionPlan::new();
        append_tapioca_plan(&mut plan, &TapiocaPlanInput {
            schedule: &sched,
            aggregator_choice: &choice,
            node_of_rank: &|r| r, // one rank per node
            file_of_partition: &|_| 0,
            mode: AccessMode::Write,
            pipelining,
            entry_deps: Vec::new(),
            wave_base: 0,
            crashes: Vec::new(),
        });
        plan
    }

    fn flushes(plan: &ExecutionPlan) -> Vec<(OpId, &Op)> {
        plan.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o.kind, OpKind::Flush { .. }))
            .collect()
    }

    #[test]
    fn op_counts_match_structure() {
        // 4 ranks x 64 B, 2 partitions, 32 B buffers: each 32 B round
        // window lies inside one rank's 64 B block, so every round has
        // exactly one source transfer plus one flush segment.
        let plan = build(4, 64, 2, 32, true);
        let nt = plan.ops.iter().filter(|o| matches!(o.kind, OpKind::Transfer { .. })).count();
        let nf = flushes(&plan).len();
        assert_eq!(nt, 2 * 4);
        assert_eq!(nf, 2 * 4);
        assert_eq!(plan.payload_bytes, 256.0);
    }

    #[test]
    fn deps_are_topological() {
        let plan = build(6, 90, 3, 32, true);
        for (i, op) in plan.ops.iter().enumerate() {
            for &d in &op.deps {
                assert!(d < i);
            }
        }
    }

    #[test]
    fn flush_serialization_chain() {
        let plan = build(2, 64, 1, 32, true);
        let f = flushes(&plan);
        assert_eq!(f.len(), 4);
        // each flush after the first depends on the previous flush
        for w in f.windows(2) {
            let (prev_id, _) = w[0];
            let (_, op) = w[1];
            assert!(op.deps.contains(&prev_id), "flush must serialize on the file handle");
        }
    }

    #[test]
    fn pipelining_gates_on_r_minus_2() {
        let plan_p = build(2, 128, 1, 32, true);
        let plan_n = build(2, 128, 1, 32, false);
        // rounds emit 1 transfer (single source rank per 32 B window)
        // then 1 flush: ops per round = 2.
        let find_round_transfers = |plan: &ExecutionPlan, round: usize| -> Vec<Op> {
            let base = round * 2;
            plan.ops[base..base + 1].to_vec()
        };
        let f0 = 1usize; // op id of round-0 flush
        let f1 = 3usize; // op id of round-1 flush
        let t2p = find_round_transfers(&plan_p, 2);
        for t in &t2p {
            assert!(t.deps.contains(&f0), "pipelined round 2 reuses buffer 0 after flush(0)");
            assert!(!t.deps.contains(&f1), "pipelined round 2 must not wait for flush(1)");
        }
        let t2n = find_round_transfers(&plan_n, 2);
        for t in &t2n {
            assert!(t.deps.contains(&f1), "unpipelined round 2 waits for flush(1)");
        }
    }

    #[test]
    fn read_mode_reverses_direction() {
        let sched = compute_schedule(&dense(2, 64), ScheduleParams {
            num_aggregators: 1,
            buffer_size: 64,
            align_to_buffer: true,
        });
        let mut plan = ExecutionPlan::new();
        append_tapioca_plan(&mut plan, &TapiocaPlanInput {
            schedule: &sched,
            aggregator_choice: &[1],
            node_of_rank: &|r| r + 10,
            file_of_partition: &|_| 7,
            mode: AccessMode::Read,
            pipelining: true,
            entry_deps: Vec::new(),
            wave_base: 0,
            crashes: Vec::new(),
        });
        // first op is the read flush, then scatter transfers from agg
        assert!(matches!(plan.ops[0].kind, OpKind::Flush { mode: AccessMode::Read, file: 7, .. }));
        match plan.ops[1].kind {
            OpKind::Transfer { src, .. } => assert_eq!(src, 11, "scatter starts at the aggregator"),
            _ => panic!("expected transfer"),
        }
        assert!(plan.ops[1].deps.contains(&0));
    }

    #[test]
    fn every_scheduled_op_carries_its_coordinates() {
        let plan = build(4, 64, 2, 32, true);
        for op in &plan.ops {
            let m = op.meta.expect("schedule-derived ops carry meta");
            assert!(m.partition < 2);
        }
        // rounds must cover the schedule: 64 B per partition / 32 B buffer
        let max_round = plan.ops.iter().filter_map(|o| o.meta).map(|m| m.round).max();
        assert_eq!(max_round, Some(3));
    }

    #[test]
    #[should_panic(expected = "dependency must precede")]
    fn forward_dependency_rejected() {
        let mut plan = ExecutionPlan::new();
        plan.push(OpKind::Transfer { src: 0, dst: 1, bytes: 1.0 }, vec![3]);
    }
}
