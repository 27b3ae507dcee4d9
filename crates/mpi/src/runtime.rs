//! The runtime harness: spawn N ranks as threads and run an SPMD closure.

use std::time::Duration;

use crate::comm::{make_world_perturbed, make_world_with_watchdog, Comm};
use crate::perturb::Perturber;

/// Default watchdog deadline, overridable via `TAPIOCA_WATCHDOG_SECS`
/// (`0` disables the watchdog entirely).
const DEFAULT_WATCHDOG_SECS: u64 = 120;

/// Resolve the watchdog from the env var's value, warning (once per
/// call) on unparseable input instead of silently using the default.
fn watchdog_from_env(var: Result<String, std::env::VarError>) -> Option<Duration> {
    match var {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(0) => None,
            Ok(secs) => Some(Duration::from_secs(secs)),
            Err(_) => {
                eprintln!(
                    "tapioca-mpi: warning: TAPIOCA_WATCHDOG_SECS={v:?} is not a \
                     non-negative integer; using default of {DEFAULT_WATCHDOG_SECS} s"
                );
                Some(Duration::from_secs(DEFAULT_WATCHDOG_SECS))
            }
        },
        Err(_) => Some(Duration::from_secs(DEFAULT_WATCHDOG_SECS)),
    }
}

fn default_watchdog() -> Option<Duration> {
    watchdog_from_env(std::env::var("TAPIOCA_WATCHDOG_SECS"))
}

/// Entry point for running SPMD code on the in-process runtime.
#[derive(Debug)]
pub struct Runtime;

impl Runtime {
    /// Spawn `n` ranks, run `f(comm)` on each, and return the results in
    /// rank order. Panics in any rank propagate (failing the test that
    /// drove them) after all threads are joined by the scope.
    ///
    /// A default watchdog (120 s, or `TAPIOCA_WATCHDOG_SECS`) guards
    /// every blocking barrier and window synchronisation call: a
    /// deadlocked collective or round panics with the stuck rank's name
    /// and wait state instead of hanging forever.
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        Self::run_with_watchdog(n, default_watchdog(), f)
    }

    /// Like [`Runtime::run`] with an explicit watchdog deadline
    /// (`None` disables it).
    pub fn run_with_watchdog<T, F>(n: usize, watchdog: Option<Duration>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(n > 0, "need at least one rank");
        let comms = make_world_with_watchdog(n, watchdog);
        Self::drive(comms, f)
    }

    /// Like [`Runtime::run`], but with seeded schedule perturbation:
    /// every synchronization boundary (barrier, collective entry, RMA
    /// put/get, I/O worker dispatch) may yield, spin, or sleep, chosen
    /// by a SplitMix64 stream over `seed`. Different seeds drive the
    /// same program through different interleavings — the harness side
    /// of the `tapioca-check` protocol checker.
    pub fn run_perturbed<T, F>(n: usize, seed: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(n > 0, "need at least one rank");
        let comms = make_world_perturbed(n, default_watchdog(), Some(Perturber::new(seed)));
        Self::drive(comms, f)
    }

    fn drive<T, F>(comms: Vec<Comm>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    let rank = c.rank();
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .spawn_scoped(s, || f(c))
                        .expect("spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // re-raise with the original payload so callers (and
                    // #[should_panic] tests) see the rank's own message
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let out = Runtime::run(6, |c| c.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn spmd_pipeline_with_collectives() {
        let out = Runtime::run(5, |c| {
            let total: u64 = c.allgather_u64(c.rank() as u64 + 1).iter().sum();
            c.barrier();
            total
        });
        assert!(out.iter().all(|&t| t == 15));
    }

    #[test]
    fn single_rank_world() {
        let out = Runtime::run(1, |c| {
            assert_eq!(c.size(), 1);
            c.allreduce_min_loc(1.5)
        });
        assert_eq!(out, vec![(1.5, 0)]);
    }

    #[test]
    fn rank_threads_are_named() {
        Runtime::run(3, |c| {
            let name = std::thread::current().name().map(str::to_owned);
            assert_eq!(name.as_deref(), Some(format!("rank-{}", c.rank()).as_str()));
        });
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn deadlocked_barrier_names_the_stuck_rank() {
        // rank 1 never reaches the barrier: without a watchdog this
        // would hang forever, with one it panics with a diagnosis.
        Runtime::run_with_watchdog(2, Some(Duration::from_millis(100)), |c| {
            if c.rank() == 0 {
                c.barrier();
            }
        });
    }

    #[test]
    #[should_panic(expected = "have not completed — member(s) 1 (world rank 1)")]
    fn deadlocked_window_wait_names_the_stuck_rank() {
        use crate::{RoundTag, Window};
        Runtime::run_with_watchdog(2, Some(Duration::from_millis(100)), |c| {
            let win = Window::allocate(&c, 8);
            if c.rank() == 0 {
                let at = RoundTag { partition: 0, round: 0 };
                win.post(&[1], at);
                win.wait(&[1], at); // rank 1 never starts or completes
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Runtime::run(0, |_| ());
    }

    #[test]
    fn watchdog_env_parsing() {
        let secs = |d: Option<Duration>| d.map(|d| d.as_secs());
        // unset -> default
        assert_eq!(secs(watchdog_from_env(Err(std::env::VarError::NotPresent))), Some(120));
        // explicit value (whitespace tolerated)
        assert_eq!(secs(watchdog_from_env(Ok(" 7 ".into()))), Some(7));
        // zero disables
        assert_eq!(secs(watchdog_from_env(Ok("0".into()))), None);
        // garbage -> warn (on stderr) and fall back to the default,
        // rather than silently swallowing the typo
        assert_eq!(secs(watchdog_from_env(Ok("12s".into()))), Some(120));
        assert_eq!(secs(watchdog_from_env(Ok("-3".into()))), Some(120));
    }

    #[test]
    fn perturbed_run_matches_unperturbed_results() {
        let plain = Runtime::run(4, |c| c.allgather_u64(c.rank() as u64));
        for seed in [1u64, 2, 3] {
            let out = Runtime::run_perturbed(4, seed, |c| c.allgather_u64(c.rank() as u64));
            assert_eq!(out, plain);
        }
    }
}
