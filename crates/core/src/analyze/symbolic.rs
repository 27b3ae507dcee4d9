//! Symbolic schedule derivation: expand `(config, topology,
//! decomposition)` into the complete predicted event structure of a
//! collective — partitions, rounds, window slots, put/flush extents,
//! election outcomes, re-election standbys, and degrade points — with
//! zero executor or netsim involvement.
//!
//! Puts are predicted one per chunk, the granularity thread-mode traces
//! record, so the extent-overlap check and the conformance bridge in
//! `tapioca-check` read the same [`SymbolicRound::puts`] list.
//!
//! The derivation plans its groups through the simulator's per-layout
//! table (`sim_exec::LayoutTable`, serially here), so the symbolic
//! schedule cannot drift from what the executors actually compile: both
//! start from the same `GroupPlan`.

use tapioca_pfs::AccessMode;
use tapioca_topology::{MachineProfile, Rank};

use crate::aggregation::PostWalk;
use crate::config::TapiocaConfig;
use crate::error::Result;
use crate::sim_exec::{CollectiveSpec, LayoutTable};

/// One predicted RMA put: a member deposits one chunk into the
/// aggregator's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicPut {
    /// Global rank performing the put.
    pub rank: Rank,
    /// Absolute offset inside the double buffer (`slot * buffer_size +
    /// chunk buf_offset`).
    pub window_offset: u64,
    /// Chunk length, bytes.
    pub bytes: u64,
    /// Global rank of the window owner the put targets (the standby
    /// from the crash round on).
    pub peer: Rank,
    /// True for the post-re-election replay copy of a crash-round put.
    pub replay: bool,
}

/// One predicted flush segment: the aggregator writes a contiguous
/// window region to the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicFlush {
    /// Absolute file offset.
    pub file_offset: u64,
    /// Segment length, bytes.
    pub len: u64,
    /// Injected flush failures before success (0 when unfaulted;
    /// `u32::MAX` for a stall).
    pub fail_attempts: u32,
}

/// One predicted round of a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicRound {
    /// Round index within the partition.
    pub round: u32,
    /// Aggregated payload bytes this round.
    pub bytes: u64,
    /// Member puts filling the round's window, one per chunk (crash
    /// rounds list the doomed fill *and* the replay copies): what the
    /// extent-overlap check sweeps and what thread-mode traces record.
    pub puts: Vec<SymbolicPut>,
    /// Flush segments draining the window.
    pub flushes: Vec<SymbolicFlush>,
}

/// Predicted aggregator crash and recovery for a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicCrash {
    /// Round at which the elected aggregator dies.
    pub round: u32,
    /// Global rank of the dying aggregator.
    pub old: Rank,
    /// Global rank of the re-elected standby.
    pub standby: Rank,
}

/// Which of the four round-protocol calls a [`SymbolicSync`] predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// The exposing rank opens the round's exposure.
    Post,
    /// A contributor enters the exposure (blocking).
    Start,
    /// A contributor leaves the exposure.
    Complete,
    /// The exposing rank closes the exposure (blocking).
    Wait,
}

/// One predicted synchronisation call on a rank's lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicSync {
    /// Which call.
    pub kind: SyncKind,
    /// Round the call belongs to.
    pub round: u32,
    /// Global rank exposing the window: the lane itself for
    /// `Post`/`Wait`, the put target for `Start`/`Complete`.
    pub target: Rank,
}

/// The complete predicted behaviour of one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicPartition {
    /// Global partition index (group base + schedule-local index),
    /// matching the `partition` field of trace events.
    pub partition: u32,
    /// Member global ranks, ascending.
    pub members: Vec<Rank>,
    /// Elected aggregator (global rank); `None` for empty partitions.
    pub aggregator: Option<Rank>,
    /// Lowest member (global rank) — the lane election/crash/degrade
    /// events are recorded on; `None` for empty partitions.
    pub lowest: Option<Rank>,
    /// Compiled aggregator crash, if the fault plan reaches one here.
    pub crash: Option<SymbolicCrash>,
    /// First round whose injected flush fault exhausts the retry
    /// budget: the thread runtime degrades to direct writes there.
    pub degrade_round: Option<u32>,
    /// Predicted rounds, ascending.
    pub rounds: Vec<SymbolicRound>,
    /// Total payload bytes across all rounds.
    pub total_bytes: u64,
}

impl SymbolicPartition {
    /// Whether round `r` runs in place (the thread executor's rule): it
    /// is not the crash round, its only contributor is the live
    /// aggregator, and its chunks tile its flush segments. Its owner
    /// writes it from its own bytes, records no put and holds no window
    /// buffer.
    pub fn in_place(&self, r: usize) -> bool {
        let round = &self.rounds[r];
        self.crash.is_none_or(|c| c.round != round.round)
            && !round.puts.is_empty()
            && round.puts.iter().all(|put| put.rank == put.peer)
            && round.flushes.iter().map(|f| f.len).sum::<u64>() == round.bytes
    }

    /// The synchronisation calls the thread executor makes on `rank`'s
    /// lane in this partition, in order — derived from the per-rank puts
    /// listed above, not from a per-member count: a round is
    /// synchronised between its exposing rank and the ranks that put
    /// into it, and a rank that does neither makes no call in it.
    ///
    /// The partition's exposures run in round order up to the degrade
    /// round; a crash round has two (the fill into the dying
    /// aggregator's window, then the replay into the standby's). Per
    /// exposure a contributor records `Start, Complete` and the target
    /// `Wait`. The target's posts follow the executor's buffer-occupancy
    /// walk (`aggregation::PostWalk`, with `pipelining`): at partition
    /// entry, after the re-election, right before each wait, and after
    /// each round, it posts every next round whose buffer is free.
    pub fn sync_labels(&self, rank: Rank, pipelining: bool) -> Vec<SymbolicSync> {
        let mut labels = Vec::new();
        let Some(mut target) = self.aggregator else { return labels };
        let n = self.rounds.len();
        let degrade = self.degrade_round.map(|d| d as usize);
        let mut walk =
            PostWalk::new(n, self.crash.map(|c| c.round as usize), degrade, pipelining);
        let post = |walk: &mut PostWalk, written, target, labels: &mut Vec<SymbolicSync>| {
            for r in walk.advance(written, |x| !self.in_place(x)) {
                if target == rank {
                    labels.push(SymbolicSync { kind: SyncKind::Post, round: r as u32, target });
                }
            }
        };
        post(&mut walk, 0, target, &mut labels);
        for (r, round) in self.rounds.iter().enumerate().take(degrade.unwrap_or(n)) {
            for replay in [false, true] {
                if replay {
                    let Some(c) = self.crash.filter(|c| c.round == round.round) else { break };
                    target = c.standby;
                    walk.reelect(r);
                    post(&mut walk, r, target, &mut labels);
                }
                if round.puts.iter().any(|p| p.rank == rank && p.replay == replay) {
                    for kind in [SyncKind::Start, SyncKind::Complete] {
                        labels.push(SymbolicSync { kind, round: round.round, target });
                    }
                }
                post(&mut walk, r, target, &mut labels);
                if target == rank {
                    labels.push(SymbolicSync { kind: SyncKind::Wait, round: round.round, target });
                }
            }
            let written = if pipelining && !self.in_place(r) { r } else { r + 1 };
            post(&mut walk, written, target, &mut labels);
        }
        labels
    }
}

/// The predicted schedule of one file group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicGroup {
    /// Partitions, ascending by index.
    pub partitions: Vec<SymbolicPartition>,
    /// Per member (global rank): the ascending global partition indices
    /// it participates in — the collective visit order every rank must
    /// follow.
    pub visit_order: Vec<(Rank, Vec<u32>)>,
}

/// The statically derived schedule of a whole collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicSchedule {
    /// Read or write.
    pub mode: AccessMode,
    /// Round buffer size, bytes (each window is two of these).
    pub buffer_size: u64,
    /// Whether flushes overlap the next round's fill.
    pub pipelining: bool,
    /// File groups, in spec order.
    pub groups: Vec<SymbolicGroup>,
}

impl SymbolicSchedule {
    /// Look up a partition by its global index.
    pub fn partition(&self, index: u32) -> Option<&SymbolicPartition> {
        self.groups.iter().flat_map(|g| &g.partitions).find(|p| p.partition == index)
    }

    /// Total predicted payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.groups
            .iter()
            .flat_map(|g| &g.partitions)
            .map(|p| p.total_bytes)
            .sum()
    }
}

/// Window slot a round's puts and flush use. Before any crash the
/// double buffer alternates `r % 2`; a crash at round `cr` creates a
/// fresh window whose slot base resets to `cr`, so the replay and all
/// later rounds count from there. The crash round's *original* fill
/// lands in the old window at `cr % 2` and is lost.
fn round_slot(r: u32, crash: Option<u32>) -> u64 {
    match crash {
        Some(cr) if r >= cr => u64::from((r - cr) % 2),
        _ => u64::from(r % 2),
    }
}

/// Derive the complete symbolic schedule for a collective. Pure: only
/// the schedule/election/fault derivations shared with the executors
/// run — no simulator, no threads, no I/O.
pub fn derive_symbolic(
    profile: &MachineProfile,
    spec: &CollectiveSpec,
    cfg: &TapiocaConfig,
) -> Result<SymbolicSchedule> {
    cfg.validate()?;
    let machine = &profile.machine;
    let b = cfg.buffer_size;
    let mut groups = Vec::with_capacity(spec.groups.len());
    let mut partition_base = 0u32;

    let layouts = LayoutTable::new(&spec.groups);
    for (g, group) in spec.groups.iter().enumerate() {
        let gp = layouts.plan_group(machine, g, cfg, spec.mode)?;
        let mut partitions = Vec::with_capacity(gp.sched.partitions.len());

        for part in &gp.sched.partitions {
            let members = gp.members_global[part.index].clone();
            let aggregator = members.get(gp.choices[part.index]).copied();
            let lowest = members.first().copied();
            let crash = gp
                .crashes
                .iter()
                .find(|c| c.partition == part.index)
                .map(|c| SymbolicCrash {
                    round: c.round,
                    old: aggregator.unwrap_or(0),
                    standby: members[c.standby],
                });
            let degrade_round = gp.degrade_round[part.index];

            // Gather puts per round from the per-rank chunk lists; the
            // thread executor performs exactly one put per chunk.
            let mut puts_by_round: Vec<Vec<SymbolicPut>> =
                vec![Vec::new(); part.rounds.len()];
            for (local, chunks) in gp.sched.chunks_by_rank.iter().enumerate() {
                for c in chunks {
                    if c.partition != part.index {
                        continue;
                    }
                    let rank = group.ranks[local];
                    let replayed = crash.is_some_and(|cr| c.round == cr.round);
                    // Original fill (lost in the crash round — it went
                    // to the doomed window at the pre-crash slot).
                    let fill_slot = if replayed {
                        u64::from(c.round % 2)
                    } else {
                        round_slot(c.round, crash.map(|cr| cr.round))
                    };
                    let fill_peer = aggregator.unwrap_or(rank);
                    let live_peer = match crash {
                        Some(cr) if c.round >= cr.round => cr.standby,
                        _ => fill_peer,
                    };
                    let fill = SymbolicPut {
                        rank,
                        window_offset: fill_slot * b + c.buf_offset,
                        bytes: c.len,
                        peer: if replayed { fill_peer } else { live_peer },
                        replay: false,
                    };
                    puts_by_round[c.round as usize].push(fill);
                    if replayed {
                        // Replay copy into slot 0 of the fresh window.
                        puts_by_round[c.round as usize].push(SymbolicPut {
                            rank,
                            window_offset: c.buf_offset,
                            bytes: c.len,
                            peer: live_peer,
                            replay: true,
                        });
                    }
                }
            }

            let rounds: Vec<SymbolicRound> = part
                .rounds
                .iter()
                .enumerate()
                .map(|(r, round)| {
                    let r32 = r as u32;
                    let fp = cfg.faults.as_ref();
                    let flushes = round
                        .segments
                        .iter()
                        .enumerate()
                        .map(|(s, seg)| SymbolicFlush {
                            file_offset: seg.file_offset,
                            len: seg.len,
                            fail_attempts: fp
                                .and_then(|f| {
                                    f.flush_fault(part.index as u32, r32, s as u32)
                                })
                                .map_or(0, |h| h.fail_attempts),
                        })
                        .collect();
                    SymbolicRound {
                        round: r32,
                        bytes: round.bytes,
                        puts: std::mem::take(&mut puts_by_round[r]),
                        flushes,
                    }
                })
                .collect();

            partitions.push(SymbolicPartition {
                partition: partition_base + part.index as u32,
                members,
                aggregator,
                lowest,
                crash,
                degrade_round,
                rounds,
                total_bytes: part.total_bytes(),
            });
        }

        // Collective visit order: the thread executor walks partitions
        // ascending, entering only those it is a member of.
        let visit_order: Vec<(Rank, Vec<u32>)> = group
            .ranks
            .iter()
            .map(|&rank| {
                let visits = partitions
                    .iter()
                    .filter(|p| p.members.contains(&rank))
                    .map(|p| p.partition)
                    .collect();
                (rank, visits)
            })
            .collect();

        let nparts = partitions.len() as u32;
        groups.push(SymbolicGroup { partitions, visit_order });
        partition_base += nparts;
    }

    Ok(SymbolicSchedule {
        mode: spec.mode,
        buffer_size: b,
        pipelining: cfg.pipelining,
        groups,
    })
}
