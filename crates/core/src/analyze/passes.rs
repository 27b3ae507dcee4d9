//! Static checks over a [`SymbolicSchedule`]: the user mistakes a
//! real config and declaration set can carry.
//!
//! 1. **Extent overlap** — two ranks *write* the same bytes of one
//!    round's window (interval sweep per round). Overlapping reads are
//!    legal: every reader gets the file's bytes.
//! 2. **Fault reachability** — every fault spec maps to a real
//!    (partition, round, segment); a declared crash that does not
//!    compile is reported with the reason
//!    [`PartitionInfo::fault_rounds`](crate::schedule::PartitionInfo::fault_rounds)
//!    drops it for.
//! 3. **Tier capacity** — the double buffer fits the memory tier
//!    ([`check_capacity`], also the autotuner's static screen).
//!
//! The schedule's internal agreement (window slots, flush offsets, byte
//! totals, visit order) is not rechecked here: `schedule_equivalence`
//! pins `compute_schedule` against an oracle, and the conformance
//! bridge in `tapioca-check` matches this schedule's puts, flushes and
//! synchronisation calls against executor traces. Its variants
//! (`UnmappedDynamicEvent`, `UndischargedStaticEvent`,
//! `OrderViolation`) share this type so callers see one violation
//! vocabulary.

use std::fmt;

use tapioca_mpi::FaultSpec;
use tapioca_pfs::AccessMode;
use tapioca_topology::Rank;

use crate::autotune::TierAssignment;
use crate::config::TapiocaConfig;
use crate::schedule::CrashDrop;

use super::symbolic::{SymbolicPartition, SymbolicSchedule};

/// A user mistake a static check proves from the predicted schedule,
/// or (for the conformance variants) a divergence between a dynamic
/// trace and the static schedule. Every variant carries a concrete
/// witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticViolation {
    /// Two ranks write the same bytes of one round's window.
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
            StaticViolation::FaultUnreachable { .. } => "fault-unreachable",
            StaticViolation::NoStandby { .. } => "no-standby",
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
            StaticViolation::FaultUnreachable { fault, reason } => {
                write!(f, "[fault-unreachable] {fault}: {reason}")
            }
            StaticViolation::NoStandby { partition, round } => write!(
                f,
                "[no-standby] partition {partition}: crash at round {round} has no \
                 standby member to re-elect"
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

/// No two ranks' puts overlap inside a round's window: a sweep in start
/// order against the put reaching furthest so far, which finds an
/// overlapping pair in every round that has one. Replay puts target a
/// fresh window and are swept separately from the doomed crash-round
/// fill. One rank's own puts may overlap: its later put wins, as in a
/// file write.
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
            let mut reach: Option<(u64, u64, Rank)> = None;
            for b in ivs {
                match reach {
                    Some(a) if b.0 < a.1 && a.2 != b.2 => {
                        out.push(StaticViolation::ExtentOverlap {
                            partition: part.partition,
                            round: round.round,
                            rank_a: a.2,
                            rank_b: b.2,
                            range_a: (a.0, a.1),
                            range_b: (b.0, b.1),
                        });
                        break;
                    }
                    Some(a) if a.1 >= b.1 => {}
                    _ => reach = Some(b),
                }
            }
        }
    }
}

/// Every fault spec fires somewhere. Fault partition indices are
/// schedule-local per group; a spec is reachable if at least one group
/// realises it. A declared crash that compiled nowhere is reported with
/// the `CrashDrop` reason of the first group that dropped it.
fn check_fault_reachability(
    sym: &SymbolicSchedule,
    cfg: &TapiocaConfig,
    out: &mut Vec<StaticViolation>,
) {
    let Some(fp) = cfg.faults.as_ref() else { return };
    let local = |p: u32| -> Vec<&SymbolicPartition> {
        sym.groups
            .iter()
            .filter_map(|g| g.partitions.get(p as usize))
            .collect()
    };
    let unreachable =
        |fault: String, reason: String| StaticViolation::FaultUnreachable { fault, reason };
    for spec in &fp.specs {
        match *spec {
            FaultSpec::AggregatorCrash { partition, round } => {
                let fault = format!("crash={partition}@{round}");
                let parts = local(partition);
                if parts.is_empty() {
                    out.push(unreachable(fault, format!("no group has a partition {partition}")));
                    continue;
                }
                if sym.mode != AccessMode::Write {
                    out.push(unreachable(fault, "aggregator crashes only fire on writes".into()));
                    continue;
                }
                if parts.iter().any(|p| p.crash.is_some_and(|c| c.round == round)) {
                    continue;
                }
                let dropped = parts.iter().find_map(|p| {
                    CrashDrop::of(round, p.members.len(), p.rounds.len(), p.degrade_round)
                        .map(|why| (p.partition, why))
                });
                out.push(match dropped {
                    Some((p, CrashDrop::NoStandby)) => {
                        StaticViolation::NoStandby { partition: p, round }
                    }
                    Some((_, CrashDrop::PastEnd { rounds })) => unreachable(
                        fault,
                        format!("round {round} out of range (partition has {rounds} rounds)"),
                    ),
                    Some((p, CrashDrop::DegradesFirst { at })) => unreachable(
                        fault,
                        format!("partition {p} degrades at round {at} before the crash"),
                    ),
                    None => unreachable(
                        fault,
                        format!("an earlier crash spec for partition {partition} takes its place"),
                    ),
                });
            }
            FaultSpec::FlushStall { partition, round } => {
                let hit = local(partition).iter().any(|p| {
                    p.rounds
                        .get(round as usize)
                        .is_some_and(|r| !r.flushes.is_empty())
                });
                if !hit {
                    out.push(unreachable(
                        format!("stall={partition}@{round}"),
                        format!("no partition {partition} flushes a segment in round {round}"),
                    ));
                }
            }
            FaultSpec::FlushSlowdown { partition: Some(p), .. } => {
                if local(p).is_empty() {
                    out.push(unreachable(
                        format!("slow@{p}"),
                        format!("no group has a partition {p}"),
                    ));
                }
            }
            FaultSpec::FlushSlowdown { partition: None, .. }
            | FaultSpec::TransientFlushError { .. }
            | FaultSpec::LinkDegrade { .. } => {}
        }
    }
}

/// The double buffer — two rounds of `buffer_size` bytes — fits the
/// memory `tier` of `capacity` bytes. [`analyze`] bounds it by DRAM;
/// the autotuner screens every grid point's tier with it before any
/// model or simulator work.
pub fn check_capacity(
    buffer_size: u64,
    tier: &'static str,
    capacity: u64,
) -> Option<StaticViolation> {
    let required = buffer_size.saturating_mul(2);
    (required > capacity).then_some(StaticViolation::CapacityExceeded {
        tier,
        required,
        capacity,
    })
}

/// Run the static checks over a symbolic schedule: write extent
/// overlap, fault reachability, and the double buffer against DRAM.
/// Violations are returned in that order; an empty vector means no
/// check found a mistake.
pub fn analyze(sym: &SymbolicSchedule, cfg: &TapiocaConfig) -> Vec<StaticViolation> {
    let mut out = Vec::new();
    if sym.mode == AccessMode::Write {
        for part in sym.groups.iter().flat_map(|g| &g.partitions) {
            check_extent_overlap(part, &mut out);
        }
    }
    check_fault_reachability(sym, cfg, &mut out);
    let dram = TierAssignment::DramDirect;
    out.extend(check_capacity(sym.buffer_size, dram.name(), dram.buffer_capacity()));
    out
}
