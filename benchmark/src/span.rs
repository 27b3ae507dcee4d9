//! Spans recorded by the benchmark around its calls into the library.
//!
//! Every rank thread appends to its own [`Lane`] (no sharing, no
//! locks); the driver stitches the lanes of one session under a
//! `bench.session` span covering `Runtime::run` from entry to return.
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Rank id of spans recorded by the driver thread itself.
pub const DRIVER: u32 = u32::MAX;

/// Name of the spans around the barriers that open and close a timed
/// epoch: time a rank waits for the others, not work of its own.
pub const BARRIER_SPAN: &str = "mpi.comm.barrier";

/// One timed call. `parent` indexes the span list the span is stored
/// in; times are nanoseconds since the start of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u32,
    pub rank: u32,
    /// Epoch within the session (0 = the cold epoch).
    pub epoch: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. Disabled (untraced runs) it adds nothing
/// to the timed call, not even a clock read.
#[derive(Debug)]
pub struct Lane {
    origin: Instant,
    session: u32,
    rank: u32,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Lane {
    pub fn new(origin: Instant, session: u32, rank: u32, enabled: bool) -> Lane {
        Lane {
            origin,
            session,
            rank,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Run `f`, recording it as a span named `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, epoch: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            session: self.session,
            rank: self.rank,
            epoch,
        });
        out
    }
}

/// A span's self time: its duration minus the part of it that
/// `children` cover (overlapping children count once, parts outside the
/// parent not at all).
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in iv {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    parent.duration_ns() - covered
}

/// Sum of the durations of the spans called `name`, per `(epoch, rank)`.
pub fn sum_by_epoch_rank(spans: &[Span], name: &str) -> BTreeMap<(u32, u32), u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry((s.epoch, s.rank)).or_insert(0) += s.duration_ns();
    }
    out
}

/// Reduce per-`(epoch, rank)` sums to one value per epoch: the slowest
/// rank's, because an epoch ends with its slowest rank.
pub fn max_over_ranks(per_rank: &BTreeMap<(u32, u32), u64>) -> BTreeMap<u32, u64> {
    let mut out: BTreeMap<u32, u64> = BTreeMap::new();
    for (&(epoch, _), &ns) in per_rank {
        let e = out.entry(epoch).or_insert(0);
        *e = (*e).max(ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, rank: u32, epoch: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            session: 0,
            rank,
            epoch,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let parent = span("p", 100, 200, DRIVER, 0);
        let a = span("a", 110, 130, 0, 0);
        let b = span("b", 150, 160, 0, 0);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 70);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_the_parent() {
        let parent = span("p", 100, 200, DRIVER, 0);
        let a = span("a", 110, 150, 0, 0);
        let b = span("b", 140, 170, 0, 0); // overlaps a by 10
        let c = span("c", 190, 250, 0, 0); // 50 outside the parent
        let d = span("d", 120, 130, 0, 0); // nested inside a
        let e = span("e", 10, 20, 0, 0); // wholly outside
        assert_eq!(self_time_ns(&parent, &[&c, &b, &a, &d, &e]), 100 - 60 - 10);
    }

    #[test]
    fn lanes_record_only_when_enabled() {
        let origin = Instant::now();
        let mut off = Lane::new(origin, 3, 1, false);
        assert_eq!(off.time("x", 0, || 7), 7);
        assert!(off.spans.is_empty());
        let mut on = Lane::new(origin, 3, 1, true);
        on.time("x", 2, || ());
        assert_eq!(on.spans.len(), 1);
        let s = &on.spans[0];
        assert_eq!((s.name, s.session, s.rank, s.epoch), ("x", 3, 1, 2));
        assert!(s.end_ns >= s.start_ns);
    }

    #[test]
    fn reduction_sums_per_rank_then_takes_the_slowest_rank() {
        let spans = vec![
            span("w", 0, 10, 0, 1),
            span("w", 10, 15, 0, 1), // rank 0, epoch 1: 15
            span("w", 0, 12, 1, 1),  // rank 1, epoch 1: 12
            span("w", 0, 3, 0, 2),
            span("w", 0, 9, 1, 2), // epoch 2: slowest is rank 1
            span("other", 0, 100, 0, 1),
        ];
        let per_rank = sum_by_epoch_rank(&spans, "w");
        assert_eq!(per_rank[&(1, 0)], 15);
        assert_eq!(per_rank[&(1, 1)], 12);
        let per_epoch = max_over_ranks(&per_rank);
        assert_eq!(per_epoch, BTreeMap::from([(1, 15), (2, 9)]));
    }
}
