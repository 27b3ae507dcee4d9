//! Schedule statistics: quantifying the paper's Fig. 2.
//!
//! Fig. 2 of the paper contrasts three independent collective MPI I/O
//! writes — each flushing an almost-empty aggregation buffer — with
//! TAPIOCA aggregating all declared variables into full buffers. This
//! module measures that mechanism on a concrete [`Schedule`]: buffer
//! fill factors, flush segment counts and sizes, and per-aggregator
//! load balance. The `fig02` bench binary prints the comparison the
//! figure illustrates.

use crate::schedule::Schedule;

#[cfg(feature = "trace")]
pub use tapioca_trace::{Trace, TraceSummary};

/// Render a [`TraceSummary`] as a compact human-readable report —
/// the executed counterpart of [`ScheduleStats`]: where `schedule_stats`
/// predicts rounds and fill factors from the schedule, this reports what
/// an executor (thread mode or the simulator) actually recorded.
#[cfg(feature = "trace")]
pub fn trace_report(s: &TraceSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "rounds:             {}", s.rounds);
    let _ = writeln!(out, "aggregation bytes:  {} ({} puts)", s.aggregation_bytes, s.puts);
    let _ = writeln!(out, "io bytes:           {} ({} flushes)", s.io_bytes, s.flushes);
    let _ = writeln!(out, "fences:             {}", s.fences);
    let _ = writeln!(out, "overlap fraction:   {:.3}", s.overlap_fraction);
    let _ = writeln!(out, "aggregator fills:");
    for (rank, bytes) in &s.aggregator_fill_bytes {
        let _ = writeln!(out, "  rank {rank}: {bytes} B");
    }
    out
}

/// Aggregate statistics of one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    /// Partitions carrying at least one byte.
    pub active_partitions: usize,
    /// Total rounds across partitions.
    pub total_rounds: usize,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Mean buffer fill factor over *non-final* rounds (final rounds are
    /// legitimately partial); 1.0 means every flushed buffer was full —
    /// the TAPIOCA side of Fig. 2.
    pub mean_fill: f64,
    /// Smallest fill factor over non-final rounds.
    pub min_fill: f64,
    /// Total flush segments (contiguous file ranges written).
    pub flush_segments: usize,
    /// Mean flush segment length, bytes.
    pub mean_segment: f64,
    /// Max / min bytes over active partitions (aggregator load balance;
    /// 1.0 is perfect).
    pub load_imbalance: f64,
}

/// Compute statistics for a schedule.
///
/// Fill factors are measured against the configured buffer size, using
/// each partition's non-final rounds (every partition's last round may
/// be partial by construction).
pub fn schedule_stats(s: &Schedule) -> ScheduleStats {
    let buf = s.params.buffer_size as f64;
    let mut fills = Vec::new();
    let mut segments = 0usize;
    let mut seg_bytes = 0u64;
    let mut per_part = Vec::new();
    let mut total_rounds = 0usize;

    for p in &s.partitions {
        let bytes = p.total_bytes();
        if bytes == 0 {
            continue;
        }
        per_part.push(bytes);
        total_rounds += p.rounds.len();
        for (r, round) in p.rounds.iter().enumerate() {
            segments += round.segments.len();
            seg_bytes += round.bytes;
            if r + 1 < p.rounds.len() {
                fills.push(round.bytes as f64 / buf);
            }
        }
    }

    let mean_fill = if fills.is_empty() {
        1.0 // single-round partitions only: nothing was avoidably partial
    } else {
        fills.iter().sum::<f64>() / fills.len() as f64
    };
    let min_fill = fills.iter().copied().fold(1.0, f64::min);
    let (max_b, min_b) = per_part
        .iter()
        .fold((0u64, u64::MAX), |(mx, mn), &b| (mx.max(b), mn.min(b)));
    ScheduleStats {
        active_partitions: per_part.len(),
        total_rounds,
        total_bytes: per_part.iter().sum(),
        mean_fill,
        min_fill,
        flush_segments: segments,
        mean_segment: if segments == 0 { 0.0 } else { seg_bytes as f64 / segments as f64 },
        load_imbalance: if per_part.is_empty() || min_b == 0 {
            f64::INFINITY
        } else {
            max_b as f64 / min_b as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{compute_schedule, ScheduleParams, WriteDecl};

    fn dense(n: usize, per: u64) -> Vec<Vec<WriteDecl>> {
        (0..n as u64)
            .map(|r| vec![WriteDecl { offset: r * per, len: per }])
            .collect()
    }

    #[test]
    fn dense_schedule_fills_buffers_completely() {
        let s = compute_schedule(&dense(8, 1024), ScheduleParams {
            num_aggregators: 4,
            buffer_size: 256,
            align_to_buffer: true,
        });
        let st = schedule_stats(&s);
        assert_eq!(st.total_bytes, 8192);
        assert_eq!(st.mean_fill, 1.0);
        assert_eq!(st.min_fill, 1.0);
        assert_eq!(st.load_imbalance, 1.0);
        assert_eq!(st.mean_segment, 256.0);
    }

    #[test]
    fn sparse_single_var_schedule_has_partial_buffers() {
        // Like one SoA collective call: only 1/4 of each window holds
        // data (var segment of 64 B inside a 256 B rank block).
        let decls: Vec<Vec<WriteDecl>> = (0..8u64)
            .map(|r| vec![WriteDecl { offset: r * 256, len: 64 }])
            .collect();
        let s = compute_schedule(&decls, ScheduleParams {
            num_aggregators: 2,
            buffer_size: 256,
            align_to_buffer: true,
        });
        let st = schedule_stats(&s);
        assert!(st.mean_fill < 0.5, "sparse declarations must show partial fill, got {}", st.mean_fill);
        assert_eq!(st.total_bytes, 512);
    }

    #[test]
    fn empty_schedule() {
        let s = compute_schedule(&[vec![], vec![]], ScheduleParams {
            num_aggregators: 2,
            buffer_size: 64,
            align_to_buffer: true,
        });
        let st = schedule_stats(&s);
        assert_eq!(st.active_partitions, 0);
        assert_eq!(st.total_bytes, 0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn trace_report_names_every_counter() {
        use tapioca_trace::{Phase, Trace, TraceEvent, TraceOp, NO_OFFSET, NO_PEER};
        let t = Trace::from_events(vec![
            TraceEvent {
                t_ns: 1,
                rank: 0,
                partition: 0,
                round: 0,
                phase: Phase::Aggregation,
                op: TraceOp::RmaPut,
                bytes: 64,
                offset: NO_OFFSET,
                peer: 1,
            },
            TraceEvent {
                t_ns: 2,
                rank: 1,
                partition: 0,
                round: 0,
                phase: Phase::Io,
                op: TraceOp::Flush,
                bytes: 64,
                offset: NO_OFFSET,
                peer: NO_PEER,
            },
        ]);
        let rep = trace_report(&t.summary());
        assert!(rep.contains("aggregation bytes:  64 (1 puts)"));
        assert!(rep.contains("io bytes:           64 (1 flushes)"));
        assert!(rep.contains("rank 1: 64 B"));
    }

    #[test]
    fn segment_counting_matches_rounds() {
        let s = compute_schedule(&dense(4, 100), ScheduleParams {
            num_aggregators: 1,
            buffer_size: 64,
            align_to_buffer: true,
        });
        let st = schedule_stats(&s);
        // dense file: one segment per round
        assert_eq!(st.flush_segments, st.total_rounds);
    }
}
