//! What a measured session yields on either executor, the closed loop
//! that repeats sessions for a run's length, and the reduction of a
//! traced session's spans to per-layer times.

use std::collections::BTreeMap;
use std::time::Instant;

use tapioca::aggregation::IoStats;
use tapioca::sim_exec::SimReport;
use tapioca_trace::Trace;

use crate::span::{self_time_ns, Span, BARRIER_SPAN};

/// One session, reduced over ranks. Times in nanoseconds.
pub struct SessionSample {
    /// Build to close (see `session_s` in the README).
    pub session_ns: u64,
    pub setup_ns: u64,
    /// One entry per timed epoch.
    pub epoch_ns: Vec<u64>,
    /// Process CPU seconds between the session's start and end.
    pub cpu_s: f64,
    /// Thread executor: `Session::stats()` of the last write epoch,
    /// summed over ranks.
    pub stats: Option<IoStats>,
    /// Simulator: the last epoch's report.
    pub report: Option<SimReport>,
    /// Traced sessions: `bench.session` first, then the spans under it.
    pub spans: Vec<Span>,
    /// Traced sessions: the library tracer's events of one epoch.
    pub trace: Option<Trace>,
    /// Output checks that failed (done after the timed region).
    pub failures: u64,
}

/// How long a leg of a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Start sessions until this many seconds have passed (at least 3).
    Seconds(f64),
    /// Exactly this many sessions (`--smoke`).
    Sessions(u32),
}

/// Samples of one leg: consecutive sessions, one at a time.
#[derive(Default)]
pub struct Leg {
    pub setup_s: Vec<f64>,
    pub epoch_s: Vec<f64>,
    pub session_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Sessions plus epochs started.
    pub attempted: u64,
    /// Sessions that returned `Err` or hung past the watchdog, plus
    /// output checks that failed.
    pub failed: u64,
    /// The last completed session (counts, report, spans, trace).
    pub last: Option<SessionSample>,
}

impl Leg {
    /// Sessions completed.
    pub fn sessions(&self) -> usize {
        self.session_s.len()
    }
}

/// Closed loop: run sessions back to back, the next one only after the
/// previous one returned and was checked. Stops at the first session
/// that fails outright — a hang has already cost a watchdog period.
pub fn measure(
    length: Length,
    epochs_per_session: u32,
    mut run_one: impl FnMut() -> Result<SessionSample, String>,
) -> Leg {
    let start = Instant::now();
    let mut leg = Leg::default();
    loop {
        leg.attempted += 1 + u64::from(epochs_per_session);
        match run_one() {
            Ok(s) => {
                leg.failed += s.failures;
                leg.setup_s.push(s.setup_ns as f64 / 1e9);
                leg.session_s.push(s.session_ns as f64 / 1e9);
                leg.epoch_s
                    .extend(s.epoch_ns.iter().map(|&ns| ns as f64 / 1e9));
                leg.cpu_s.push(s.cpu_s);
                leg.last = Some(s);
            }
            Err(msg) => {
                eprintln!("FAIL: session {} did not complete: {msg}", leg.sessions());
                leg.failed += 1;
                return leg;
            }
        }
        let done = match length {
            Length::Seconds(s) => leg.sessions() >= 3 && start.elapsed().as_secs_f64() >= s,
            Length::Sessions(k) => leg.sessions() >= k as usize,
        };
        if done {
            return leg;
        }
    }
}

/// A traced session's time, attributed to the spans of its slowest rank
/// (the session ends with it).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Account {
    /// Summed span time by name on the slowest rank.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Self time of `bench.session`: what no span under it covers
    /// (spawn, join, barrier waits between spans).
    pub unattributed_ns: u64,
    pub session_ns: u64,
}

impl Account {
    pub fn of(spans: &[Span]) -> Account {
        let root = &spans[0];
        let mut by_rank: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in &spans[1..] {
            by_rank.entry(s.rank).or_default().push(s);
        }
        // waiting at a barrier is the opposite of being the slowest
        let busy = |v: &Vec<&Span>| {
            v.iter()
                .filter(|s| s.name != BARRIER_SPAN)
                .map(|s| s.duration_ns())
                .sum::<u64>()
        };
        let slowest = by_rank
            .values()
            .max_by_key(|v| busy(v))
            .cloned()
            .unwrap_or_default();
        let mut by_name = BTreeMap::new();
        for s in &slowest {
            *by_name.entry(s.name).or_insert(0) += s.duration_ns();
        }
        Account {
            by_name,
            unattributed_ns: self_time_ns(root, &slowest),
            session_ns: root.duration_ns(),
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }

    /// Share of the session the spans under it account for.
    pub fn coverage(&self) -> f64 {
        1.0 - self.unattributed_ns as f64 / self.session_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::DRIVER;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, rank: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: Some(0),
            session: 0,
            rank,
            epoch: 0,
        }
    }

    #[test]
    fn account_follows_the_slowest_rank_and_adds_up_to_the_session() {
        let spans = vec![
            Span {
                parent: None,
                ..span("bench.session", 0, 1000, DRIVER)
            },
            span("core.api.build", 50, 150, 0),
            span("core.api.write", 150, 350, 0),
            span("core.api.build", 50, 250, 1), // rank 1 is busier: 200 + 500 + 100
            span("core.api.write", 250, 750, 1),
            span("core.api.finalize", 800, 900, 1),
            span(BARRIER_SPAN, 350, 750, 0), // rank 0 waits for rank 1
            span(BARRIER_SPAN, 750, 760, 1),
        ];
        let a = Account::of(&spans);
        assert_eq!(a.get("core.api.build"), 200);
        assert_eq!(a.get("core.api.write"), 500);
        assert_eq!(a.get("core.api.finalize"), 100);
        assert_eq!(a.get("core.api.read"), 0);
        assert_eq!(a.get(BARRIER_SPAN), 10);
        assert_eq!(a.unattributed_ns, 190);
        let attributed: u64 = a.by_name.values().sum();
        assert_eq!(attributed + a.unattributed_ns, a.session_ns);
        assert!((a.coverage() - 0.81).abs() < 1e-12);
    }

    fn sample(failures: u64) -> SessionSample {
        SessionSample {
            session_ns: 3_000_000,
            setup_ns: 1_000_000,
            epoch_ns: vec![500_000, 600_000],
            cpu_s: 0.004,
            stats: None,
            report: None,
            spans: vec![span("x", 0, 1, 0)],
            trace: None,
            failures,
        }
    }

    #[test]
    fn loop_counts_sessions_epochs_and_failures() {
        let leg = measure(Length::Sessions(4), 2, || Ok(sample(0)));
        assert_eq!((leg.sessions(), leg.attempted, leg.failed), (4, 12, 0));
        assert_eq!(leg.epoch_s.len(), 8);
        assert_eq!(leg.setup_s, vec![0.001; 4]);
        assert!(leg.last.is_some());

        let mut calls = 0;
        let leg = measure(Length::Sessions(5), 2, || {
            calls += 1;
            if calls == 2 {
                Err("watchdog".into())
            } else {
                Ok(sample(1))
            }
        });
        // one check failure in session 0, then session 1 hung: stop
        assert_eq!((leg.sessions(), leg.attempted, leg.failed), (1, 6, 2));
    }

    #[test]
    fn timed_legs_run_at_least_three_sessions() {
        let leg = measure(Length::Seconds(0.0), 1, || Ok(sample(0)));
        assert_eq!(leg.sessions(), 3);
    }
}
