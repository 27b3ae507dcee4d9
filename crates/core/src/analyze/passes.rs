//! Static analysis passes over a [`SymbolicSchedule`].
//!
//! Each pass proves one safety property of the predicted schedule and
//! emits a typed [`StaticViolation`] with a concrete witness when the
//! property fails:
//!
//! 1. **Extent-overlap freedom** — no two ranks' puts overlap inside a
//!    window slot (interval sweep per round).
//! 2. **Window/buffer bounds** — every put and flush stays inside its
//!    slot; round volume fits the buffer; flush offsets align with the
//!    round window.
//! 3. **Round/collective agreement** — per-member byte sums, per-round
//!    byte sums, and the partition total all agree.
//! 4. **Fence-graph acyclicity** — the collective visit order induces
//!    an acyclic partition digraph (deadlock freedom by construction).
//! 5. **Fault-plan reachability** — every fault spec maps to a real
//!    (partition, round, segment); degraded paths stay byte-covering.
//! 6. **Tier capacity** — the double buffer fits the assigned memory
//!    tier.
//!
//! The conformance variants (`UnmappedDynamicEvent`,
//! `UndischargedStaticEvent`, `OrderViolation`) are emitted by the
//! dynamic-trace bridge in `tapioca-check`, which shares this type so
//! callers see one violation vocabulary.

use std::fmt;

use tapioca_mpi::FaultSpec;
use tapioca_pfs::AccessMode;
use tapioca_topology::Rank;

use crate::autotune::{Candidate, TierAssignment};
use crate::config::TapiocaConfig;

use super::symbolic::{SymbolicPartition, SymbolicSchedule};

/// A statically provable defect in a predicted schedule, or (for the
/// conformance variants) a divergence between a dynamic trace and the
/// static schedule. Every variant carries a concrete witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticViolation {
    /// Two ranks' puts overlap inside the same window slot.
    ExtentOverlap {
        /// Global partition index.
        partition: u32,
        /// Round the overlap occurs in.
        round: u32,
        /// First writer.
        rank_a: Rank,
        /// Second writer.
        rank_b: Rank,
        /// `[start, end)` window range of the first put.
        range_a: (u64, u64),
        /// `[start, end)` window range of the second put.
        range_b: (u64, u64),
    },
    /// A put or flush escapes its window slot, or a round's volume
    /// exceeds the buffer.
    WindowOverflow {
        /// Global partition index.
        partition: u32,
        /// Round of the offending access.
        round: u32,
        /// Rank performing the access (the aggregator for flushes).
        rank: Rank,
        /// Offset of the access within the window/buffer.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// The bound it violates.
        limit: u64,
    },
    /// A flush segment's buffer offset disagrees with its file offset
    /// relative to the round window.
    MisalignedFlush {
        /// Global partition index.
        partition: u32,
        /// Round of the segment.
        round: u32,
        /// Absolute file offset of the segment.
        file_offset: u64,
        /// Buffer offset the schedule recorded.
        buf_offset: u64,
        /// Buffer offset implied by the round window.
        expected: u64,
    },
    /// Member/round/partition byte accounting disagrees.
    RoundMismatch {
        /// Global partition index.
        partition: u32,
        /// Human-readable witness of the disagreement.
        detail: String,
    },
    /// The collective visit order induces a cycle over partitions —
    /// ranks would deadlock on the partitions' collectives (election,
    /// closing flag reduction).
    FenceCycle {
        /// Global partition indices forming the cycle.
        cycle: Vec<u32>,
    },
    /// A fault-plan entry cannot fire on this schedule.
    FaultUnreachable {
        /// Rendered fault spec.
        fault: String,
        /// Why it cannot fire.
        reason: String,
    },
    /// A crash is injected into a partition with no standby to elect.
    NoStandby {
        /// Global partition index.
        partition: u32,
        /// Crash round.
        round: u32,
    },
    /// A round's flush segments do not cover its aggregated bytes.
    UncoveredBytes {
        /// Global partition index.
        partition: u32,
        /// Round with the coverage gap.
        round: u32,
        /// Bytes the round aggregates.
        expected: u64,
        /// Bytes the flush segments cover.
        covered: u64,
    },
    /// The double buffer does not fit the assigned memory tier.
    CapacityExceeded {
        /// Tier name.
        tier: &'static str,
        /// Bytes the double buffer needs.
        required: u64,
        /// Tier capacity.
        capacity: u64,
    },
    /// A dynamic trace event has no counterpart in the static schedule.
    UnmappedDynamicEvent {
        /// Lane the event was recorded on.
        rank: Rank,
        /// Rendered event and why it failed to map.
        detail: String,
    },
    /// A static-schedule event was never observed in the dynamic trace.
    UndischargedStaticEvent {
        /// Global partition index.
        partition: u32,
        /// What remained undischarged.
        detail: String,
    },
    /// Dynamic events appear in an order no linearization of the
    /// static schedule allows.
    OrderViolation {
        /// Lane the out-of-order event was recorded on.
        rank: Rank,
        /// What went backwards.
        detail: String,
    },
}

impl StaticViolation {
    /// Stable kebab-case identifier for the violation class.
    pub fn code(&self) -> &'static str {
        match self {
            StaticViolation::ExtentOverlap { .. } => "extent-overlap",
            StaticViolation::WindowOverflow { .. } => "window-overflow",
            StaticViolation::MisalignedFlush { .. } => "misaligned-flush",
            StaticViolation::RoundMismatch { .. } => "round-mismatch",
            StaticViolation::FenceCycle { .. } => "fence-cycle",
            StaticViolation::FaultUnreachable { .. } => "fault-unreachable",
            StaticViolation::NoStandby { .. } => "no-standby",
            StaticViolation::UncoveredBytes { .. } => "uncovered-bytes",
            StaticViolation::CapacityExceeded { .. } => "capacity-exceeded",
            StaticViolation::UnmappedDynamicEvent { .. } => "unmapped-dynamic-event",
            StaticViolation::UndischargedStaticEvent { .. } => "undischarged-static-event",
            StaticViolation::OrderViolation { .. } => "order-violation",
        }
    }
}

impl fmt::Display for StaticViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticViolation::ExtentOverlap {
                partition,
                round,
                rank_a,
                rank_b,
                range_a,
                range_b,
            } => write!(
                f,
                "[extent-overlap] partition {partition} round {round}: rank {rank_a} \
                 window [{}, {}) overlaps rank {rank_b} window [{}, {})",
                range_a.0, range_a.1, range_b.0, range_b.1
            ),
            StaticViolation::WindowOverflow { partition, round, rank, offset, len, limit } => {
                write!(
                    f,
                    "[window-overflow] partition {partition} round {round}: rank {rank} \
                     access at offset {offset} len {len} exceeds bound {limit}"
                )
            }
            StaticViolation::MisalignedFlush {
                partition,
                round,
                file_offset,
                buf_offset,
                expected,
            } => write!(
                f,
                "[misaligned-flush] partition {partition} round {round}: segment at file \
                 offset {file_offset} has buf offset {buf_offset}, window implies {expected}"
            ),
            StaticViolation::RoundMismatch { partition, detail } => {
                write!(f, "[round-mismatch] partition {partition}: {detail}")
            }
            StaticViolation::FenceCycle { cycle } => {
                write!(f, "[fence-cycle] collective visit order cycles through partitions ")?;
                for (i, p) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            StaticViolation::FaultUnreachable { fault, reason } => {
                write!(f, "[fault-unreachable] {fault}: {reason}")
            }
            StaticViolation::NoStandby { partition, round } => write!(
                f,
                "[no-standby] partition {partition}: crash at round {round} has no \
                 standby member to re-elect"
            ),
            StaticViolation::UncoveredBytes { partition, round, expected, covered } => write!(
                f,
                "[uncovered-bytes] partition {partition} round {round}: flush segments \
                 cover {covered} of {expected} aggregated bytes"
            ),
            StaticViolation::CapacityExceeded { tier, required, capacity } => write!(
                f,
                "[capacity-exceeded] tier {tier}: double buffer needs {required} bytes, \
                 capacity is {capacity}"
            ),
            StaticViolation::UnmappedDynamicEvent { rank, detail } => {
                write!(f, "[unmapped-dynamic-event] rank {rank}: {detail}")
            }
            StaticViolation::UndischargedStaticEvent { partition, detail } => {
                write!(f, "[undischarged-static-event] partition {partition}: {detail}")
            }
            StaticViolation::OrderViolation { rank, detail } => {
                write!(f, "[order-violation] rank {rank}: {detail}")
            }
        }
    }
}

/// Pass 1: no two ranks' puts overlap inside a window slot. Replay
/// puts target a fresh window and are swept separately from the doomed
/// crash-round fill.
fn check_extent_overlap(part: &SymbolicPartition, out: &mut Vec<StaticViolation>) {
    for round in &part.rounds {
        for replay in [false, true] {
            let mut ivs: Vec<(u64, u64, Rank)> = round
                .puts
                .iter()
                .filter(|p| p.replay == replay && p.bytes > 0)
                .map(|p| (p.window_offset, p.window_offset + p.bytes, p.rank))
                .collect();
            ivs.sort_unstable();
            for w in ivs.windows(2) {
                let (a, b) = (w[0], w[1]);
                if b.0 < a.1 && a.2 != b.2 {
                    out.push(StaticViolation::ExtentOverlap {
                        partition: part.partition,
                        round: round.round,
                        rank_a: a.2,
                        rank_b: b.2,
                        range_a: (a.0, a.1),
                        range_b: (b.0, b.1),
                    });
                }
            }
        }
    }
}

/// Pass 2: window/buffer bounds and flush alignment.
fn check_window_bounds(
    part: &SymbolicPartition,
    buffer_size: u64,
    out: &mut Vec<StaticViolation>,
) {
    let b = buffer_size;
    for round in &part.rounds {
        if round.bytes > b {
            out.push(StaticViolation::WindowOverflow {
                partition: part.partition,
                round: round.round,
                rank: part.aggregator.unwrap_or(0),
                offset: 0,
                len: round.bytes,
                limit: b,
            });
        }
        for p in &round.puts {
            let lo = p.slot * b;
            let hi = (p.slot + 1) * b;
            if p.window_offset < lo || p.window_offset + p.bytes > hi {
                out.push(StaticViolation::WindowOverflow {
                    partition: part.partition,
                    round: round.round,
                    rank: p.rank,
                    offset: p.window_offset,
                    len: p.bytes,
                    limit: hi,
                });
            }
        }
        let win_start = part.extent.0 + u64::from(round.round) * b;
        for seg in &round.flushes {
            if seg.buf_offset + seg.len > b {
                out.push(StaticViolation::WindowOverflow {
                    partition: part.partition,
                    round: round.round,
                    rank: part.aggregator.unwrap_or(0),
                    offset: seg.buf_offset,
                    len: seg.len,
                    limit: b,
                });
            }
            let expected = seg.file_offset.saturating_sub(win_start);
            if seg.file_offset < win_start || seg.buf_offset != expected {
                out.push(StaticViolation::MisalignedFlush {
                    partition: part.partition,
                    round: round.round,
                    file_offset: seg.file_offset,
                    buf_offset: seg.buf_offset,
                    expected,
                });
            }
        }
    }
}

/// Pass 3: member/round/partition byte accounting agrees.
fn check_round_agreement(part: &SymbolicPartition, out: &mut Vec<StaticViolation>) {
    let mut by_member: Vec<u64> = vec![0; part.members.len()];
    let mut total = 0u64;
    for round in &part.rounds {
        let filled: u64 = round.puts.iter().filter(|p| !p.replay).map(|p| p.bytes).sum();
        if filled != round.bytes {
            out.push(StaticViolation::RoundMismatch {
                partition: part.partition,
                detail: format!(
                    "round {} aggregates {} bytes but member puts fill {}",
                    round.round, round.bytes, filled
                ),
            });
        }
        for p in round.puts.iter().filter(|p| !p.replay) {
            if let Some(i) = part.members.iter().position(|&m| m == p.rank) {
                by_member[i] += p.bytes;
            }
        }
        total += round.bytes;
    }
    if total != part.total_bytes {
        out.push(StaticViolation::RoundMismatch {
            partition: part.partition,
            detail: format!(
                "rounds sum to {total} bytes but partition totals {}",
                part.total_bytes
            ),
        });
    }
    for (i, &m) in part.members.iter().enumerate() {
        if by_member[i] != part.member_bytes[i] {
            out.push(StaticViolation::RoundMismatch {
                partition: part.partition,
                detail: format!(
                    "member {m} puts {} bytes but is declared for {}",
                    by_member[i], part.member_bytes[i]
                ),
            });
        }
    }
}

/// Pass 4: the visit-order digraph over partitions is acyclic. Edges
/// go from each partition a rank visits to the next one it visits;
/// a cycle means two ranks enter a pair of partitions in opposite
/// orders and would deadlock on the subgroups' collectives (election,
/// closing flag reduction).
fn check_fence_acyclic(sym: &SymbolicSchedule, out: &mut Vec<StaticViolation>) {
    for group in &sym.groups {
        let n = group.partitions.len();
        if n == 0 {
            continue;
        }
        let base = group.partition_base as usize;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (_, visits) in &group.visit_order {
            for w in visits.windows(2) {
                let (a, b) = (w[0] as usize - base, w[1] as usize - base);
                if !adj[a].contains(&b) {
                    adj[a].push(b);
                }
            }
        }
        // Iterative DFS with colouring; on finding a back edge, walk
        // the stack to extract the cycle witness.
        let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            colour[start] = 1;
            while let Some(frame) = stack.last_mut() {
                let node = frame.0;
                if frame.1 < adj[node].len() {
                    let to = adj[node][frame.1];
                    frame.1 += 1;
                    match colour[to] {
                        0 => {
                            colour[to] = 1;
                            stack.push((to, 0));
                        }
                        1 => {
                            let pos = stack
                                .iter()
                                .position(|&(v, _)| v == to)
                                .unwrap_or(0);
                            let mut cycle: Vec<u32> = stack[pos..]
                                .iter()
                                .map(|&(v, _)| (base + v) as u32)
                                .collect();
                            cycle.push(to as u32 + base as u32);
                            out.push(StaticViolation::FenceCycle { cycle });
                            return;
                        }
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
    }
}

/// Pass 5: fault-plan reachability and degraded-path byte coverage.
fn check_fault_reachability(
    sym: &SymbolicSchedule,
    cfg: &TapiocaConfig,
    out: &mut Vec<StaticViolation>,
) {
    // Byte coverage first: every round's flush segments must cover its
    // aggregated volume exactly, degraded or not — the degraded direct
    // writes reuse the same segment extents.
    for part in sym.groups.iter().flat_map(|g| &g.partitions) {
        for round in &part.rounds {
            let covered: u64 = round.flushes.iter().map(|s| s.len).sum();
            if covered != round.bytes {
                out.push(StaticViolation::UncoveredBytes {
                    partition: part.partition,
                    round: round.round,
                    expected: round.bytes,
                    covered,
                });
            }
        }
    }

    let Some(fp) = cfg.faults.as_ref() else { return };
    // Fault partition indices are schedule-local per group; a spec is
    // reachable if at least one group realises it.
    let local = |p: u32| -> Vec<&SymbolicPartition> {
        sym.groups
            .iter()
            .filter_map(|g| g.partitions.get(p as usize))
            .collect()
    };
    for spec in &fp.specs {
        match *spec {
            FaultSpec::AggregatorCrash { partition, round } => {
                let parts = local(partition);
                if parts.is_empty() {
                    out.push(StaticViolation::FaultUnreachable {
                        fault: format!("crash={partition}@{round}"),
                        reason: format!("no group has a partition {partition}"),
                    });
                    continue;
                }
                if sym.mode != AccessMode::Write {
                    out.push(StaticViolation::FaultUnreachable {
                        fault: format!("crash={partition}@{round}"),
                        reason: "aggregator crashes only fire on writes".into(),
                    });
                    continue;
                }
                let in_range = parts.iter().any(|p| (round as usize) < p.rounds.len());
                if !in_range {
                    out.push(StaticViolation::FaultUnreachable {
                        fault: format!("crash={partition}@{round}"),
                        reason: format!(
                            "round {round} out of range (partition has {} rounds)",
                            parts.iter().map(|p| p.rounds.len()).max().unwrap_or(0)
                        ),
                    });
                    continue;
                }
                for p in &parts {
                    if (round as usize) < p.rounds.len() && p.members.len() < 2 {
                        out.push(StaticViolation::NoStandby {
                            partition: p.partition,
                            round,
                        });
                    } else if p.degrade_round.is_some_and(|dr| dr <= round)
                        && p.members.len() >= 2
                    {
                        out.push(StaticViolation::FaultUnreachable {
                            fault: format!("crash={partition}@{round}"),
                            reason: format!(
                                "partition {} degrades at round {} before the crash",
                                p.partition,
                                p.degrade_round.unwrap_or(0)
                            ),
                        });
                    }
                }
            }
            FaultSpec::FlushStall { partition, round } => {
                let hit = local(partition).iter().any(|p| {
                    p.rounds
                        .get(round as usize)
                        .is_some_and(|r| !r.flushes.is_empty())
                });
                if !hit {
                    out.push(StaticViolation::FaultUnreachable {
                        fault: format!("stall={partition}@{round}"),
                        reason: format!(
                            "no partition {partition} flushes a segment in round {round}"
                        ),
                    });
                }
            }
            FaultSpec::FlushSlowdown { partition: Some(p), .. } => {
                if local(p).is_empty() {
                    out.push(StaticViolation::FaultUnreachable {
                        fault: format!("slow@{p}"),
                        reason: format!("no group has a partition {p}"),
                    });
                }
            }
            FaultSpec::FlushSlowdown { partition: None, .. }
            | FaultSpec::TransientFlushError { .. }
            | FaultSpec::LinkDegrade { .. } => {}
        }
    }
}

/// Pass 6: the double buffer fits the given memory capacity.
fn check_capacity(
    sym: &SymbolicSchedule,
    tier: &'static str,
    capacity: u64,
    out: &mut Vec<StaticViolation>,
) {
    let required = 2 * sym.buffer_size;
    if required > capacity {
        out.push(StaticViolation::CapacityExceeded { tier, required, capacity });
    }
}

/// Run every static pass over a symbolic schedule, bounding the double
/// buffer by the given tier capacity. Violations are returned in pass
/// order; an empty vector is a proof the predicted schedule is safe.
pub fn analyze_with_capacity(
    sym: &SymbolicSchedule,
    cfg: &TapiocaConfig,
    tier: &'static str,
    capacity: u64,
) -> Vec<StaticViolation> {
    let mut out = Vec::new();
    for part in sym.groups.iter().flat_map(|g| &g.partitions) {
        check_extent_overlap(part, &mut out);
        check_window_bounds(part, sym.buffer_size, &mut out);
        check_round_agreement(part, &mut out);
    }
    check_fence_acyclic(sym, &mut out);
    check_fault_reachability(sym, cfg, &mut out);
    check_capacity(sym, tier, capacity, &mut out);
    out
}

/// Run every static pass with the default DRAM capacity bound.
pub fn analyze(sym: &SymbolicSchedule, cfg: &TapiocaConfig) -> Vec<StaticViolation> {
    let tier = TierAssignment::DramDirect;
    analyze_with_capacity(sym, cfg, tier.name(), tier.buffer_capacity())
}

/// Screen one autotune grid point statically, without deriving a full
/// symbolic schedule: candidates whose double buffer cannot fit their
/// assigned tier are illegal on any machine and need no simulation.
pub fn screen_candidate(cand: &Candidate) -> Option<StaticViolation> {
    let required = 2 * cand.buffer_size;
    let capacity = cand.tier.buffer_capacity();
    (required > capacity).then(|| StaticViolation::CapacityExceeded {
        tier: cand.tier.name(),
        required,
        capacity,
    })
}
