//! Vector-clock happens-before engine.
//!
//! Replays a [`Trace`] as a scheduler would: each rank's lane is a
//! program-order queue, and the round protocol's synchronisation events
//! are the only cross-lane edges. A *signal* (`Post`, `Complete`)
//! executes freely and leaves its clock behind; a *blocking wait*
//! executes only once the signals it is matched with have executed, and
//! joins (elementwise max) their clocks:
//!
//! * the `k`-th `Start` of rank `x` on `(partition, round, target)`
//!   waits for `target`'s `k`-th `Post` of `(partition, round)`;
//! * the `k`-th `Wait` of `target` on `(partition, round)` waits for the
//!   `k`-th `Complete` toward it of **every** rank that recorded a
//!   `k`-th `Start` on that exposure — the contributors, as the trace
//!   itself names them.
//!
//! That is MPI's generalized active-target contract: everything an
//! origin did before its complete happens-before everything the target
//! does after its wait, and everything the target did before its post
//! happens-before everything an origin does after its start. Ranks that
//! took no part in a round get no edge from it. Ordinals (`k`) keep
//! repeated labels apart: a crash round is exposed twice (by the dead
//! aggregator, then by the standby — different targets), and a reused
//! session replays the same labels every epoch.
//!
//! The replay doubles as the bracket checker (invariant 1): a put must
//! execute while its lane holds an open start…complete bracket of the
//! put's own round and target, and a flush only after its lane executed
//! the wait of the flush's round. And it doubles as the deadlock
//! detector (invariant 5): if no rank can make progress but events
//! remain, the blocked waits form a wait-for graph whose cycle — or
//! whose dead end, a rank whose lane finished without the signal
//! another is waiting for — is reported with the ranks on it.

use std::collections::{BTreeMap, BTreeSet};

use tapioca_trace::{Trace, TraceEvent, TraceOp};

use crate::{Violation, ViolationKind};

/// The result of replaying a trace: per-event vector clocks (for puts,
/// flushes and retries) plus which partitions carry synchronisation
/// events at all.
#[derive(Debug)]
pub struct Execution {
    /// Vector clock of each event, indexed like `trace.events()`;
    /// `None` for events that never executed (deadlock) or need no
    /// clock (synchronisation, elections).
    clocks: Vec<Option<Vec<u64>>>,
    /// Dense rank index owning each event.
    owner: Vec<usize>,
    /// Partitions that recorded at least one post/start/complete/wait.
    synced: BTreeSet<u32>,
}

impl Execution {
    /// True iff event `a` happens-before event `b` (both indices into
    /// the replayed trace's event slice). Events without clocks are
    /// never ordered.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        let (Some(ca), Some(cb)) = (&self.clocks[a], &self.clocks[b]) else {
            return false;
        };
        let i = self.owner[a];
        ca[i] <= cb[i]
    }

    /// Whether partition `p` recorded any synchronisation event
    /// (thread-mode trace) or none (simulator trace).
    pub fn partition_is_synced(&self, p: u32) -> bool {
        self.synced.contains(&p)
    }

    /// Replay `trace`, appending bracket and deadlock violations to
    /// `out`.
    pub fn replay(trace: &Trace, out: &mut Vec<Violation>) -> Execution {
        Replayer::new(trace).run(out)
    }
}

/// Whether `op` is one of the four round-protocol synchronisation ops.
pub(crate) fn is_sync(op: TraceOp) -> bool {
    matches!(op, TraceOp::Post | TraceOp::Start | TraceOp::Complete | TraceOp::Wait)
}

/// One exposure as the trace labels it: (partition, round, exposing
/// global rank).
pub(crate) type ExposureKey = (u32, u32, usize);

/// The exposure a synchronisation event belongs to: its own lane for
/// the target's `Post`/`Wait`, its `peer` for an origin's
/// `Start`/`Complete`.
pub(crate) fn exposure_of(e: &TraceEvent) -> ExposureKey {
    let target = if matches!(e.op, TraceOp::Post | TraceOp::Wait) { e.rank } else { e.peer };
    (e.partition, e.round, target)
}

struct Replayer<'t> {
    events: &'t [TraceEvent],
    /// Global rank -> dense index.
    rank_idx: BTreeMap<usize, usize>,
    /// Per dense rank: indices into `events`, in lane (program) order.
    lanes: Vec<Vec<usize>>,
    /// Per dense rank: next unexecuted position in its lane.
    cursor: Vec<usize>,
    /// Per dense rank: current vector clock.
    clock: Vec<Vec<u64>>,
    /// Clocks of the executed `Post`s of each exposure, in lane order.
    posts: BTreeMap<ExposureKey, Vec<Vec<u64>>>,
    /// Clocks of the executed `Complete`s per (exposure, origin global
    /// rank), in lane order.
    completes: BTreeMap<(ExposureKey, usize), Vec<Vec<u64>>>,
    /// `Start`s executed so far per (exposure, origin).
    starts_done: BTreeMap<(ExposureKey, usize), usize>,
    /// `Wait`s executed so far per exposure.
    waits_done: BTreeMap<ExposureKey, usize>,
    /// Per exposure: how many `Start`s each origin's whole lane holds —
    /// fixes the contributor set of the exposure's `k`-th wait.
    start_totals: BTreeMap<ExposureKey, BTreeMap<usize, usize>>,
    /// Per dense rank, per partition: the open bracket's (round, target).
    open: Vec<BTreeMap<u32, (u32, usize)>>,
    /// Per dense rank: the (partition, round) exposures it has waited on.
    waited: Vec<BTreeSet<(u32, u32)>>,
    /// Partitions with synchronisation events.
    synced: BTreeSet<u32>,
    /// Assigned event clocks.
    clocks: Vec<Option<Vec<u64>>>,
    /// Dense owner rank of each event.
    owner: Vec<usize>,
}

/// What a blocked lane head is waiting for.
struct Blocked {
    /// Global rank whose signal is missing.
    on: usize,
    /// Human description of the wait.
    what: String,
}

impl<'t> Replayer<'t> {
    fn new(trace: &'t Trace) -> Replayer<'t> {
        let events = trace.events();
        let mut rank_idx = BTreeMap::new();
        for e in events {
            let n = rank_idx.len();
            rank_idx.entry(e.rank).or_insert(n);
        }
        let n = rank_idx.len();
        let mut lanes = vec![Vec::new(); n];
        let mut owner = vec![0usize; events.len()];
        let mut start_totals: BTreeMap<ExposureKey, BTreeMap<usize, usize>> = BTreeMap::new();
        let mut synced = BTreeSet::new();
        for (i, e) in events.iter().enumerate() {
            let r = rank_idx[&e.rank];
            owner[i] = r;
            lanes[r].push(i);
            if is_sync(e.op) {
                synced.insert(e.partition);
            }
            if e.op == TraceOp::Start {
                *start_totals.entry(exposure_of(e)).or_default().entry(e.rank).or_default() += 1;
            }
        }
        Replayer {
            events,
            rank_idx,
            lanes,
            cursor: vec![0; n],
            clock: vec![vec![0; n]; n],
            posts: BTreeMap::new(),
            completes: BTreeMap::new(),
            starts_done: BTreeMap::new(),
            waits_done: BTreeMap::new(),
            start_totals,
            open: vec![BTreeMap::new(); n],
            waited: vec![BTreeSet::new(); n],
            synced,
            clocks: vec![None; events.len()],
            owner,
        }
    }

    /// The event at rank `r`'s lane head, if any.
    fn head(&self, r: usize) -> Option<usize> {
        self.lanes[r].get(self.cursor[r]).copied()
    }

    /// Origins the `k`-th wait of exposure `key` must hear from.
    fn contributors(&self, key: ExposureKey, k: usize) -> impl Iterator<Item = usize> + '_ {
        self.start_totals
            .get(&key)
            .into_iter()
            .flatten()
            .filter(move |&(_, &total)| total > k)
            .map(|(&origin, _)| origin)
    }

    /// If the blocking event `e` cannot execute yet, what it waits for.
    fn blocked(&self, e: &TraceEvent) -> Option<Blocked> {
        let key = exposure_of(e);
        let (p, round, target) = key;
        match e.op {
            TraceOp::Start => {
                let k = self.starts_done.get(&(key, e.rank)).copied().unwrap_or(0);
                let posted = self.posts.get(&key).map_or(0, Vec::len);
                (posted <= k).then(|| Blocked {
                    on: target,
                    what: format!(
                        "rank {} blocks at its start of round {round} of partition {p} \
                         waiting for rank {target}'s post",
                        e.rank
                    ),
                })
            }
            TraceOp::Wait => {
                let k = self.waits_done.get(&key).copied().unwrap_or(0);
                let late = self
                    .contributors(key, k)
                    .find(|&o| self.completes.get(&(key, o)).map_or(0, Vec::len) <= k)?;
                Some(Blocked {
                    on: late,
                    what: format!(
                        "rank {} blocks at its wait of round {round} of partition {p} \
                         waiting for rank {late}'s complete",
                        e.rank
                    ),
                })
            }
            _ => None,
        }
    }

    fn run(mut self, out: &mut Vec<Violation>) -> Execution {
        let n = self.lanes.len();
        loop {
            let mut progressed = false;
            for r in 0..n {
                // Drain everything executable at this rank.
                while let Some(i) = self.head(r) {
                    let e = &self.events[i];
                    if self.blocked(e).is_some() {
                        break;
                    }
                    self.execute(r, i, out);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        if (0..n).any(|r| self.head(r).is_some()) {
            out.push(self.deadlock_witness());
        }
        Execution { clocks: self.clocks, owner: self.owner, synced: self.synced }
    }

    /// Execute the (unblocked) event `i` at the head of rank `r`'s lane.
    fn execute(&mut self, r: usize, i: usize, out: &mut Vec<Violation>) {
        let e = &self.events[i];
        let key = exposure_of(e);
        match e.op {
            TraceOp::Start => {
                let k = self.starts_done.entry((key, e.rank)).or_insert(0);
                join(&mut self.clock[r], &self.posts[&key][*k]);
                *k += 1;
                self.open[r].insert(e.partition, (e.round, e.peer));
            }
            TraceOp::Wait => {
                let k = self.waits_done.get(&key).copied().unwrap_or(0);
                let origins: Vec<usize> = self.contributors(key, k).collect();
                for o in origins {
                    join(&mut self.clock[r], &self.completes[&(key, o)][k]);
                }
                self.waits_done.insert(key, k + 1);
                self.waited[r].insert((e.partition, e.round));
            }
            _ => {}
        }
        self.clock[r][r] += 1;
        match e.op {
            TraceOp::Post => self.posts.entry(key).or_default().push(self.clock[r].clone()),
            TraceOp::Complete => {
                self.completes.entry((key, e.rank)).or_default().push(self.clock[r].clone());
                self.open[r].remove(&e.partition);
            }
            TraceOp::RmaPut | TraceOp::Flush => {
                self.check_bracket(r, e, out);
                self.clocks[i] = Some(self.clock[r].clone());
            }
            TraceOp::Retry => self.clocks[i] = Some(self.clock[r].clone()),
            _ => {}
        }
        self.cursor[r] += 1;
    }

    /// Invariant 1 for the put / flush that just executed, skipped for
    /// partitions without synchronisation events (simulator traces):
    /// * a put of round `r` into `peer`'s window runs inside its lane's
    ///   open start…complete bracket of exactly (`r`, `peer`);
    /// * a flush of round `r` completes after its lane (the
    ///   aggregator's) executed the wait that closed round `r`.
    ///
    /// A crash round is exposed twice — by the dead aggregator, whose
    /// fill is lost, and by the standby, whose replay is flushed — and
    /// both brackets carry the crash round's label with their own
    /// target, so the rule needs no recovery arithmetic.
    fn check_bracket(&self, r: usize, e: &TraceEvent, out: &mut Vec<Violation>) {
        let p = e.partition;
        if !self.synced.contains(&p) {
            return;
        }
        match e.op {
            TraceOp::RmaPut => {
                let open = self.open[r].get(&p).copied();
                if open != Some((e.round, e.peer)) {
                    let held = match open {
                        Some((round, target)) => {
                            format!("its open bracket is round {round} on rank {target}'s window")
                        }
                        None => "it holds no open start…complete bracket".into(),
                    };
                    out.push(Violation {
                        kind: ViolationKind::PutOutsideEpoch,
                        message: format!(
                            "partition {p}: rank {} put {} B labelled round {} into rank {}'s \
                             window, but {held} — a put must sit between the start and the \
                             complete of its own round",
                            e.rank, e.bytes, e.round, e.peer
                        ),
                    });
                }
            }
            TraceOp::Flush if !self.waited[r].contains(&(p, e.round)) => {
                out.push(Violation {
                    kind: ViolationKind::FlushOutsideEpoch,
                    message: format!(
                        "partition {p}: rank {}'s flush of round {} ({} B) completed before \
                         that rank's wait closed round {} — contributors may still have \
                         been putting into the buffer",
                        e.rank, e.round, e.bytes, e.round
                    ),
                });
            }
            _ => {}
        }
    }

    /// Extract a witness from the stuck state: every blocked rank's
    /// head is a start or a wait (anything else would have executed).
    /// Follow "waits for rank" edges until a rank repeats (a cycle) or
    /// a rank turns out not to be blocked at all — its lane ended, so
    /// the signal can never come.
    fn deadlock_witness(&self) -> Violation {
        let n = self.lanes.len();
        let mut global = vec![0usize; n];
        for (&rank, &idx) in &self.rank_idx {
            global[idx] = rank;
        }
        let next: Vec<Option<Blocked>> = (0..n)
            .map(|r| self.head(r).and_then(|i| self.blocked(&self.events[i])))
            .collect();
        let Some(start) = (0..n).find(|&r| next[r].is_some()) else {
            return Violation {
                kind: ViolationKind::CollectiveCycle,
                message: "trace replay stalled with events remaining, but no blocked \
                          synchronisation call was found (truncated trace?)"
                    .into(),
            };
        };
        let mut seen_at = vec![usize::MAX; n];
        let mut path = Vec::new();
        let mut cur = start;
        let (chain, verdict) = loop {
            if seen_at[cur] != usize::MAX {
                let cycle = &path[seen_at[cur]..];
                let mut ranks: Vec<usize> = cycle.iter().map(|&r| global[r]).collect();
                ranks.sort_unstable();
                break (cycle, format!("cycle over ranks {ranks:?}"));
            }
            seen_at[cur] = path.len();
            path.push(cur);
            let on = next[cur].as_ref().expect("every chain node is blocked").on;
            match self.rank_idx.get(&on) {
                Some(&v) if next[v].is_some() => cur = v,
                _ => {
                    break (
                        &path[..],
                        format!("rank {on}'s lane ended without sending that signal"),
                    )
                }
            }
        };
        let steps: Vec<&str> = chain
            .iter()
            .map(|&r| next[r].as_ref().expect("every chain node is blocked").what.as_str())
            .collect();
        Violation {
            kind: ViolationKind::CollectiveCycle,
            message: format!("collective deadlock witness: {} — {verdict}", steps.join("; ")),
        }
    }
}

/// Elementwise max of `other` into `clock`.
fn join(clock: &mut [u64], other: &[u64]) {
    for (c, o) in clock.iter_mut().zip(other) {
        *c = (*c).max(*o);
    }
}
